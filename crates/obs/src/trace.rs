//! Per-request lifecycle spans in a bounded lock-free ring buffer.
//!
//! A request's life is `admitted → queued → claimed → executing →
//! completed | shed`. The server measures the two interesting gaps —
//! queue wait (admitted → claimed) and service time (claimed → done) —
//! and records them as one [`SpanRecord`] when the request resolves.
//! Wire-level read/write timings live in the registry as `net.*`
//! histograms, so queue-wait vs service-time vs wire-time are separable.
//!
//! The ring is a fixed array of seqlock-style slots made only of atomics
//! (`forbid(unsafe_code)` holds): a writer takes a ticket from `head`,
//! marks its slot odd (`2·ticket + 1`), stores the fields, then marks it
//! even (`2·ticket + 2`). Readers accept a slot only if they observe the
//! same even sequence before and after reading the fields, so a torn or
//! in-progress write is skipped, never exposed. Ordering is the standard
//! fence-based seqlock discipline (release fence after the odd mark,
//! release publish; acquire load, acquire fence before the re-check), so
//! on x86 the whole write compiles to plain stores plus the ticket RMW.
//! Old spans are simply overwritten — memory is bounded by construction.
//!
//! Recording a span also feeds the tracer's per-stage duration histograms
//! (`serve.stage.queue_us.<class>`, `.service_us.<class>`,
//! `.total_us.<class>`), registered in the [`Registry`] the tracer was
//! built with.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::registry::{HistogramHandle, Registry};

/// How a traced request left the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanOutcome {
    /// The handler ran to completion (result possibly served from cache).
    Completed,
    /// The request was shed from the queue under load; it never executed.
    Shed,
    /// The handler panicked while executing.
    Panicked,
}

impl SpanOutcome {
    /// Stable numeric code of this outcome (ring-slot and wire encoding).
    pub fn code(self) -> u64 {
        match self {
            SpanOutcome::Completed => 0,
            SpanOutcome::Shed => 1,
            SpanOutcome::Panicked => 2,
        }
    }

    /// Inverse of [`SpanOutcome::code`]; unknown codes read as `Completed`.
    pub fn from_code(code: u64) -> SpanOutcome {
        match code {
            1 => SpanOutcome::Shed,
            2 => SpanOutcome::Panicked,
            _ => SpanOutcome::Completed,
        }
    }

    /// Lower-case label used in rendered snapshots.
    pub fn label(self) -> &'static str {
        match self {
            SpanOutcome::Completed => "completed",
            SpanOutcome::Shed => "shed",
            SpanOutcome::Panicked => "panicked",
        }
    }
}

/// One request's recorded lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Server-assigned span id (admission order).
    pub id: u64,
    /// Class band index (into the tracer's class labels).
    pub class: u8,
    /// How the request left the system.
    pub outcome: SpanOutcome,
    /// Microseconds spent queued: admitted → claimed (or → shed).
    pub queue_us: u64,
    /// Microseconds spent executing; 0 for shed requests.
    pub service_us: u64,
    /// Microseconds from admission to resolution.
    pub total_us: u64,
}

/// Field count of the atomic slot encoding of a [`SpanRecord`].
const FIELDS: usize = 6;

struct Slot {
    /// Seqlock version: 0 = never written, odd = write in progress,
    /// `2·ticket + 2` = ticket's write complete.
    seq: AtomicU64,
    fields: [AtomicU64; FIELDS],
}

struct Stage {
    queue_us: HistogramHandle,
    service_us: HistogramHandle,
    total_us: HistogramHandle,
}

struct TraceInner {
    mask: u64,
    head: AtomicU64,
    slots: Box<[Slot]>,
    stages: Box<[Stage]>,
}

/// Bounded lock-free recorder of request lifecycle spans.
///
/// Cloning shares the ring.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TraceInner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl Tracer {
    /// Creates a tracer whose ring holds `capacity` spans (rounded up to a
    /// power of two, minimum 8) and registers per-stage duration histograms
    /// named `serve.stage.<stage>_us.<label>` for each class label.
    pub fn new(capacity: usize, registry: &Registry, class_labels: &[&str]) -> Tracer {
        let cap = capacity.max(8).next_power_of_two();
        let slots: Vec<Slot> = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                fields: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect();
        let stages: Vec<Stage> = class_labels
            .iter()
            .map(|label| Stage {
                queue_us: registry.histogram(&format!("serve.stage.queue_us.{label}")),
                service_us: registry.histogram(&format!("serve.stage.service_us.{label}")),
                total_us: registry.histogram(&format!("serve.stage.total_us.{label}")),
            })
            .collect();
        Tracer {
            inner: Arc::new(TraceInner {
                mask: (cap - 1) as u64,
                head: AtomicU64::new(0),
                slots: slots.into_boxed_slice(),
                stages: stages.into_boxed_slice(),
            }),
        }
    }

    /// Ring capacity in spans.
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }

    /// Total spans ever recorded (old ones are overwritten in the ring).
    pub fn recorded(&self) -> u64 {
        self.inner.head.load(Ordering::SeqCst)
    }

    /// Records one span: seqlock write into the ring plus per-stage
    /// histogram updates. Lock-free; callable from any thread.
    pub fn record(&self, span: &SpanRecord) {
        let inner = &self.inner;
        if let Some(stage) = inner.stages.get(span.class as usize) {
            stage.queue_us.record(span.queue_us);
            if span.outcome == SpanOutcome::Completed {
                stage.service_us.record(span.service_us);
            }
            stage.total_us.record(span.total_us);
        }
        let ticket = inner.head.fetch_add(1, Ordering::Relaxed);
        let slot = &inner.slots[(ticket & inner.mask) as usize];
        // Standard seqlock write, fence-based so the relaxed field stores
        // compile to plain stores on x86: mark the slot odd, fence so no
        // field store can become visible before the odd mark, store the
        // fields, then publish with a release store of the even sequence
        // (which orders the field stores before it).
        slot.seq.store(2 * ticket + 1, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::Release);
        let fields = [
            span.id,
            span.class as u64,
            span.outcome.code(),
            span.queue_us,
            span.service_us,
            span.total_us,
        ];
        for (dst, src) in slot.fields.iter().zip(fields) {
            dst.store(src, Ordering::Relaxed);
        }
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// The worst `n` spans currently in the ring, by `total_us`
    /// descending (ties broken newest-first by scan order). Scans the
    /// whole ring with the same torn-read rejection as
    /// [`recent`](Tracer::recent) — this is the slow-request forensics
    /// view the `Op::Stats` snapshot appends.
    pub fn worst(&self, n: usize) -> Vec<SpanRecord> {
        let mut spans = self.recent(self.capacity());
        spans.sort_by_key(|s| std::cmp::Reverse(s.total_us));
        spans.truncate(n);
        spans
    }

    /// Returns up to `n` recent spans, newest first. Slots being written
    /// concurrently (or already overwritten) are skipped, never torn.
    pub fn recent(&self, n: usize) -> Vec<SpanRecord> {
        let inner = &self.inner;
        let head = inner.head.load(Ordering::SeqCst);
        let mut out = Vec::new();
        let span_count = head.min(inner.slots.len() as u64);
        for back in 0..span_count {
            if out.len() >= n {
                break;
            }
            let ticket = head - 1 - back;
            let slot = &inner.slots[(ticket & inner.mask) as usize];
            // Reader side of the seqlock: the acquire load pairs with the
            // writer's release publish (fields are this ticket's values),
            // and the acquire fence keeps the re-check load from being
            // reordered before the field loads — a concurrent writer's
            // odd mark is therefore visible by the re-check if any of its
            // field stores were.
            let seq1 = slot.seq.load(Ordering::Acquire);
            if seq1 != 2 * ticket + 2 {
                continue; // never written, in progress, or overwritten
            }
            let fields: [u64; FIELDS] =
                std::array::from_fn(|i| slot.fields[i].load(Ordering::Relaxed));
            std::sync::atomic::fence(Ordering::Acquire);
            let seq2 = slot.seq.load(Ordering::Relaxed);
            if seq2 != seq1 {
                continue; // overwritten while reading
            }
            out.push(SpanRecord {
                id: fields[0],
                class: fields[1] as u8,
                outcome: SpanOutcome::from_code(fields[2]),
                queue_us: fields[3],
                service_us: fields[4],
                total_us: fields[5],
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, class: u8, queue_us: u64, service_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            class,
            outcome: SpanOutcome::Completed,
            queue_us,
            service_us,
            total_us: queue_us + service_us,
        }
    }

    #[test]
    fn records_and_reads_back_newest_first() {
        let reg = Registry::new();
        let tr = Tracer::new(8, &reg, &["interactive", "batch", "bulk"]);
        for id in 0..5 {
            tr.record(&span(id, 0, 10 * id, 100));
        }
        let recent = tr.recent(3);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].id, 4);
        assert_eq!(recent[1].id, 3);
        assert_eq!(recent[2].id, 2);
        assert_eq!(tr.recorded(), 5);
    }

    #[test]
    fn ring_overwrites_but_memory_is_bounded() {
        let reg = Registry::new();
        let tr = Tracer::new(8, &reg, &["only"]);
        for id in 0..100 {
            tr.record(&span(id, 0, 1, 1));
        }
        let recent = tr.recent(100);
        assert_eq!(recent.len(), 8);
        assert_eq!(recent[0].id, 99);
        assert_eq!(recent[7].id, 92);
        assert_eq!(tr.capacity(), 8);
    }

    #[test]
    fn stage_histograms_separate_queue_from_service() {
        let reg = Registry::new();
        let tr = Tracer::new(16, &reg, &["interactive"]);
        tr.record(&span(1, 0, 500, 2000));
        tr.record(&SpanRecord {
            id: 2,
            class: 0,
            outcome: SpanOutcome::Shed,
            queue_us: 900,
            service_us: 0,
            total_us: 900,
        });
        let snap = reg.snapshot();
        let queue = snap.hist("serve.stage.queue_us.interactive").unwrap();
        let service = snap.hist("serve.stage.service_us.interactive").unwrap();
        // Shed requests contribute queue wait but no service time.
        assert_eq!(queue.count(), 2);
        assert_eq!(service.count(), 1);
        assert!(service.min() >= 2000);
    }

    #[test]
    fn worst_ranks_the_ring_by_total_us() {
        let reg = Registry::new();
        let tr = Tracer::new(8, &reg, &["only"]);
        for (id, total) in [(1u64, 50u64), (2, 900), (3, 10), (4, 300)] {
            tr.record(&SpanRecord {
                id,
                class: 0,
                outcome: SpanOutcome::Completed,
                queue_us: 0,
                service_us: total,
                total_us: total,
            });
        }
        let worst = tr.worst(2);
        assert_eq!(worst.len(), 2);
        assert_eq!(worst[0].id, 2);
        assert_eq!(worst[1].id, 4);
        assert_eq!(tr.worst(100).len(), 4, "worst never invents spans");
    }

    #[test]
    fn concurrent_writers_never_tear_a_reader() {
        let reg = Registry::new();
        let tr = Tracer::new(16, &reg, &["a"]);
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let tr = tr.clone();
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        // Encode writer id in every field so a torn read
                        // (fields from two writers) is detectable.
                        let v = t * 1_000_000 + i;
                        tr.record(&SpanRecord {
                            id: v,
                            class: 0,
                            outcome: SpanOutcome::Completed,
                            queue_us: v,
                            service_us: v,
                            total_us: v,
                        });
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            for s in tr.recent(16) {
                assert_eq!(s.id, s.queue_us);
                assert_eq!(s.id, s.service_us);
                assert_eq!(s.id, s.total_us);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(tr.recorded(), 8_000);
    }
}
