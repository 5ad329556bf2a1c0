//! Named-metric registry: counters, gauges, and histograms.
//!
//! The registry is the cold path: metric handles are resolved once by name
//! (under a mutex) and then cloned into the hot paths, where every
//! operation is a single atomic instruction. The registry is the ledger,
//! not a copy of one: the server, pool, cache and socket layer count each
//! event once, here, and their `stats()` views read these counters back.
//!
//! # Naming scheme
//!
//! Metric names are dotted paths, `<layer>.<what>[.<class>]` — e.g.
//! `serve.admitted.interactive`, `pool.steals`, `net.frame.decode_us`.
//! The class suffix plays the role of a label; the registry itself is a
//! flat sorted map so snapshots render in a stable order.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{HistSnapshot, Histogram};
use crate::trace::{SpanOutcome, SpanRecord};

/// Shards per counter; writes spread across cache lines, reads sum them.
const COUNTER_SHARDS: usize = 8;

/// One counter shard padded out to its own cache line so concurrent
/// increments from different threads do not false-share.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

struct CounterInner {
    shards: [PaddedU64; COUNTER_SHARDS],
}

/// One gauge shard, padded like the counter shards.
#[repr(align(64))]
struct PaddedI64(AtomicI64);

struct GaugeInner {
    shards: [PaddedI64; COUNTER_SHARDS],
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

/// Picks a stable per-thread shard, assigned round-robin at first use.
fn shard_index() -> usize {
    thread_local! {
        static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
    }
    SHARD.with(|s| *s)
}

impl CounterInner {
    fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl GaugeInner {
    fn sum(&self) -> i64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A monotonically increasing counter. Cloning shares the underlying
/// metric.
#[derive(Clone)]
pub struct Counter {
    inner: Arc<CounterInner>,
}

impl Counter {
    /// Adds `n` to the counter (relaxed, sharded).
    pub fn add(&self, n: u64) {
        self.inner.shards[shard_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (sum over shards).
    pub fn value(&self) -> u64 {
        self.inner.sum()
    }
}

/// A signed instantaneous value (queue depth, live connections, ...).
/// Sharded like [`Counter`] so the +1/−1 pairs that track a hot queue
/// do not ping-pong one cache line between workers; the value is the
/// sum over shards, so paired adds of +1 and −1 from *different*
/// threads still cancel exactly.
#[derive(Clone)]
pub struct Gauge {
    inner: Arc<GaugeInner>,
}

impl Gauge {
    /// Adds `n` (may be negative) to the gauge.
    pub fn add(&self, n: i64) {
        self.inner.shards[shard_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Current value (sum over shards).
    pub fn value(&self) -> i64 {
        self.inner.sum()
    }
}

/// A handle to a registered [`Histogram`]. Recording is lock-free.
#[derive(Clone)]
pub struct HistogramHandle {
    inner: Arc<Histogram>,
}

impl HistogramHandle {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.inner.record(v);
    }

    /// Records a duration in whole microseconds.
    pub fn record_micros(&self, d: std::time::Duration) {
        self.record(d.as_micros() as u64);
    }

    /// Snapshot of the underlying histogram.
    pub fn snapshot(&self) -> HistSnapshot {
        self.inner.snapshot()
    }
}

enum Metric {
    Counter(Arc<CounterInner>),
    Gauge(Arc<GaugeInner>),
    Hist(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Hist(_) => "hist",
        }
    }
}

/// A process-wide (or per-server) collection of named metrics.
///
/// Cloning shares the registry.
#[derive(Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn with_metric<T>(
        &self,
        name: &str,
        make: impl FnOnce() -> Metric,
        pick: impl FnOnce(&Metric) -> Option<T>,
    ) -> T {
        let mut metrics = self.metrics.lock().unwrap();
        let metric = metrics.entry(name.to_string()).or_insert_with(make);
        match pick(metric) {
            Some(t) => t,
            None => panic!("metric {name:?} already registered as a {}", metric.kind()),
        }
    }

    /// Returns (registering on first use) the counter named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let inner = self.with_metric(
            name,
            || {
                Metric::Counter(Arc::new(CounterInner {
                    shards: std::array::from_fn(|_| PaddedU64(AtomicU64::new(0))),
                }))
            },
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        );
        Counter { inner }
    }

    /// Returns (registering on first use) the gauge named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let inner = self.with_metric(
            name,
            || {
                Metric::Gauge(Arc::new(GaugeInner {
                    shards: std::array::from_fn(|_| PaddedI64(AtomicI64::new(0))),
                }))
            },
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        );
        Gauge { inner }
    }

    /// Returns (registering on first use) the histogram named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let inner = self.with_metric(
            name,
            || Metric::Hist(Arc::new(Histogram::new())),
            |m| match m {
                Metric::Hist(h) => Some(Arc::clone(h)),
                _ => None,
            },
        );
        HistogramHandle { inner }
    }

    /// Point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().unwrap();
        let entries = metrics
            .iter()
            .map(|(name, metric)| SnapshotEntry {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => SnapshotValue::Counter(c.sum()),
                    Metric::Gauge(g) => SnapshotValue::Gauge(g.sum()),
                    Metric::Hist(h) => SnapshotValue::Hist(h.snapshot()),
                },
            })
            .collect();
        Snapshot {
            entries,
            spans: Vec::new(),
        }
    }
}

/// The value of one metric at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub enum SnapshotValue {
    /// A counter's summed value.
    Counter(u64),
    /// A gauge's instantaneous value.
    Gauge(i64),
    /// A histogram's full snapshot.
    Hist(HistSnapshot),
}

/// One named metric in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotEntry {
    /// The metric's registered name.
    pub name: String,
    /// The metric's value at snapshot time.
    pub value: SnapshotValue,
}

/// How many worst-by-`total_us` spans a snapshot keeps through
/// [`Snapshot::with_spans`] and [`Snapshot::merge`] — the slow-request
/// forensics window `Op::Stats` exposes.
pub const WORST_SPANS: usize = 10;

/// A point-in-time copy of a registry, renderable as stable text.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Snapshot {
    /// All metrics, sorted by name.
    pub entries: Vec<SnapshotEntry>,
    /// Worst request-lifecycle spans by `total_us` (descending), as
    /// attached by [`Snapshot::with_spans`]; empty when the producer has
    /// no tracer. Rendered as a forensics section after the metrics.
    pub spans: Vec<SpanRecord>,
}

impl Snapshot {
    /// Attaches the worst-spans forensics section (typically
    /// `tracer.worst(WORST_SPANS)`): sorts by `total_us` descending and
    /// keeps at most [`WORST_SPANS`] records.
    pub fn with_spans(mut self, spans: Vec<SpanRecord>) -> Snapshot {
        self.spans = spans;
        self.spans.sort_by_key(|s| std::cmp::Reverse(s.total_us));
        self.spans.truncate(WORST_SPANS);
        self
    }

    /// Folds `other` into this snapshot, entry by entry: counters and
    /// gauges add, histograms merge bucket-for-bucket (so merged
    /// quantiles carry the same error bound as a single histogram that
    /// recorded both sample sets), names present in only one side are
    /// kept as-is, and the span lists are re-ranked together keeping the
    /// [`WORST_SPANS`] worst. Merging the snapshots of N backend
    /// registries therefore equals the snapshot of one registry that
    /// observed all N sample streams — the router's `Op::Stats`
    /// aggregation contract, proptested in `crates/router`.
    ///
    /// A name registered with different kinds on the two sides keeps
    /// `self`'s entry (cross-process kind clashes are a config bug, not
    /// something an aggregator can reconcile).
    pub fn merge(&mut self, other: &Snapshot) {
        for theirs in &other.entries {
            match self.entries.iter_mut().find(|e| e.name == theirs.name) {
                None => {
                    self.entries.push(theirs.clone());
                }
                Some(ours) => match (&mut ours.value, &theirs.value) {
                    (SnapshotValue::Counter(a), SnapshotValue::Counter(b)) => *a += *b,
                    (SnapshotValue::Gauge(a), SnapshotValue::Gauge(b)) => *a += *b,
                    (SnapshotValue::Hist(a), SnapshotValue::Hist(b)) => a.merge(b),
                    _ => {}
                },
            }
        }
        self.entries.sort_by(|a, b| a.name.cmp(&b.name));
        let mut spans = std::mem::take(&mut self.spans);
        spans.extend(other.spans.iter().copied());
        *self = std::mem::take(self).with_spans(spans);
    }

    /// Serializes the snapshot as line-oriented text that
    /// [`parse_text`](Snapshot::parse_text) inverts exactly — including
    /// full histogram bucket data, which [`render`](Snapshot::render)
    /// deliberately omits. This is what a backend sends for the wire's
    /// full-stats op so an aggregator can *merge* histograms instead of
    /// averaging percentiles:
    ///
    /// ```text
    /// counter serve.admitted.interactive 42
    /// gauge pool.queue_depth 3
    /// histbuckets net.frame.decode_us min=2 max=117 2:1 37:4
    /// span 7 0 0 250 1800 2050
    /// ```
    pub fn encode_text(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            match &e.value {
                SnapshotValue::Counter(v) => {
                    out.push_str(&format!("counter {} {}\n", e.name, v));
                }
                SnapshotValue::Gauge(v) => {
                    out.push_str(&format!("gauge {} {}\n", e.name, v));
                }
                SnapshotValue::Hist(h) => {
                    out.push_str(&format!(
                        "histbuckets {} min={} max={}",
                        e.name,
                        h.min(),
                        h.max()
                    ));
                    for (i, c) in h.nonzero_buckets() {
                        out.push_str(&format!(" {i}:{c}"));
                    }
                    out.push('\n');
                }
            }
        }
        for s in &self.spans {
            out.push_str(&format!(
                "span {} {} {} {} {} {}\n",
                s.id,
                s.class,
                s.outcome.code(),
                s.queue_us,
                s.service_us,
                s.total_us
            ));
        }
        out
    }

    /// Parses [`encode_text`](Snapshot::encode_text) output back into a
    /// snapshot. Total: any malformed line yields a descriptive `Err`,
    /// never a panic — this input arrives over the wire.
    pub fn parse_text(text: &str) -> Result<Snapshot, String> {
        let mut snap = Snapshot::default();
        for (lineno, line) in text.lines().enumerate() {
            let fail = |what: &str| format!("snapshot line {}: {what}: {line:?}", lineno + 1);
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split(' ');
            let kind = parts.next().unwrap_or("");
            match kind {
                "counter" | "gauge" => {
                    let name = parts.next().ok_or_else(|| fail("missing name"))?;
                    let value = parts.next().ok_or_else(|| fail("missing value"))?;
                    if parts.next().is_some() {
                        return Err(fail("trailing fields"));
                    }
                    let value = if kind == "counter" {
                        SnapshotValue::Counter(value.parse().map_err(|_| fail("bad counter"))?)
                    } else {
                        SnapshotValue::Gauge(value.parse().map_err(|_| fail("bad gauge"))?)
                    };
                    snap.entries.push(SnapshotEntry {
                        name: name.to_string(),
                        value,
                    });
                }
                "histbuckets" => {
                    let name = parts.next().ok_or_else(|| fail("missing name"))?;
                    let min = parts
                        .next()
                        .and_then(|f| f.strip_prefix("min="))
                        .ok_or_else(|| fail("missing min="))?
                        .parse::<u64>()
                        .map_err(|_| fail("bad min"))?;
                    let max = parts
                        .next()
                        .and_then(|f| f.strip_prefix("max="))
                        .ok_or_else(|| fail("missing max="))?
                        .parse::<u64>()
                        .map_err(|_| fail("bad max"))?;
                    let mut buckets = Vec::new();
                    for pair in parts {
                        let (i, c) = pair.split_once(':').ok_or_else(|| fail("bad bucket"))?;
                        buckets.push((
                            i.parse::<usize>().map_err(|_| fail("bad bucket index"))?,
                            c.parse::<u64>().map_err(|_| fail("bad bucket count"))?,
                        ));
                    }
                    let hist = HistSnapshot::from_sparse(&buckets, min, max)
                        .ok_or_else(|| fail("bucket index out of range"))?;
                    snap.entries.push(SnapshotEntry {
                        name: name.to_string(),
                        value: SnapshotValue::Hist(hist),
                    });
                }
                "span" => {
                    let mut field = || -> Result<u64, String> {
                        parts
                            .next()
                            .ok_or_else(|| fail("missing span field"))?
                            .parse()
                            .map_err(|_| fail("bad span field"))
                    };
                    let (id, class, outcome) = (field()?, field()?, field()?);
                    let (queue_us, service_us, total_us) = (field()?, field()?, field()?);
                    if parts.next().is_some() {
                        return Err(fail("trailing fields"));
                    }
                    snap.spans.push(SpanRecord {
                        id,
                        class: u8::try_from(class).map_err(|_| fail("bad span class"))?,
                        outcome: SpanOutcome::from_code(outcome),
                        queue_us,
                        service_us,
                        total_us,
                    });
                }
                _ => return Err(fail("unknown line kind")),
            }
        }
        snap.entries.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(snap)
    }

    /// Looks up a counter's value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|e| match &e.value {
            SnapshotValue::Counter(v) if e.name == name => Some(*v),
            _ => None,
        })
    }

    /// Looks up a gauge's value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.entries.iter().find_map(|e| match &e.value {
            SnapshotValue::Gauge(v) if e.name == name => Some(*v),
            _ => None,
        })
    }

    /// Looks up a histogram snapshot by name.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.entries.iter().find_map(|e| match &e.value {
            SnapshotValue::Hist(h) if e.name == name => Some(h),
            _ => None,
        })
    }

    /// Renders the snapshot as stable, line-oriented text:
    ///
    /// ```text
    /// counter serve.admitted.interactive 42
    /// gauge pool.queue_depth 3
    /// hist serve.stage.service_us.bulk count=9 min=812 p50=2047 p99=8191 max=8212 mean=3120
    /// ```
    ///
    /// Lines are sorted by metric name; one metric per line. When spans
    /// are attached ([`Snapshot::with_spans`]), a slow-request forensics
    /// section follows the metrics — the worst spans by `total_us`,
    /// worst first, with the per-stage breakdown:
    ///
    /// ```text
    /// worst-spans 2 (by total_us, per-stage breakdown)
    /// span id=41 class=2 outcome=completed queue_us=120 service_us=8212 total_us=8332
    /// span id=7 class=0 outcome=shed queue_us=950 service_us=0 total_us=950
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            match &e.value {
                SnapshotValue::Counter(v) => {
                    out.push_str(&format!("counter {} {}\n", e.name, v));
                }
                SnapshotValue::Gauge(v) => {
                    out.push_str(&format!("gauge {} {}\n", e.name, v));
                }
                SnapshotValue::Hist(h) => {
                    out.push_str(&format!(
                        "hist {} count={} min={} p50={} p99={} max={} mean={}\n",
                        e.name,
                        h.count(),
                        h.min(),
                        h.percentile(50),
                        h.percentile(99),
                        h.max(),
                        h.mean()
                    ));
                }
            }
        }
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "worst-spans {} (by total_us, per-stage breakdown)\n",
                self.spans.len()
            ));
            for s in &self.spans {
                out.push_str(&format!(
                    "span id={} class={} outcome={} queue_us={} service_us={} total_us={}\n",
                    s.id,
                    s.class,
                    s.outcome.label(),
                    s.queue_us,
                    s.service_us,
                    s.total_us
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_shard_and_sum() {
        let reg = Registry::new();
        let c = reg.counter("test.hits");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.value(), 4000);
        assert_eq!(reg.snapshot().counter("test.hits"), Some(4000));
    }

    #[test]
    fn handles_are_shared_by_name() {
        let reg = Registry::new();
        reg.counter("a").add(3);
        reg.counter("a").add(4);
        assert_eq!(reg.snapshot().counter("a"), Some(7));
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let reg = Registry::new();
        reg.gauge("b.depth").add(-2);
        reg.counter("a.hits").add(5);
        reg.histogram("c.lat_us").record(100);
        let text = reg.snapshot().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "counter a.hits 5");
        assert_eq!(lines[1], "gauge b.depth -2");
        assert!(lines[2].starts_with("hist c.lat_us count=1 min=100 "));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("same.name");
        reg.gauge("same.name");
    }

    fn span(id: u64, total_us: u64, outcome: SpanOutcome) -> SpanRecord {
        SpanRecord {
            id,
            class: (id % 3) as u8,
            outcome,
            queue_us: total_us / 4,
            service_us: total_us - total_us / 4,
            total_us,
        }
    }

    #[test]
    fn merge_adds_counters_merges_hists_and_unions_names() {
        let a = Registry::new();
        a.counter("shared.hits").add(3);
        a.counter("only.a").add(1);
        a.gauge("depth").add(2);
        a.histogram("lat").record(100);
        let b = Registry::new();
        b.counter("shared.hits").add(4);
        b.counter("only.b").add(9);
        b.gauge("depth").add(-1);
        b.histogram("lat").record(100_000);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("shared.hits"), Some(7));
        assert_eq!(merged.counter("only.a"), Some(1));
        assert_eq!(merged.counter("only.b"), Some(9));
        assert_eq!(merged.gauge("depth"), Some(1));
        let lat = merged.hist("lat").unwrap();
        assert_eq!(lat.count(), 2);
        assert_eq!((lat.min(), lat.max()), (100, 100_000));
        // Entries stay sorted so render is stable after a merge.
        let names: Vec<&str> = merged.entries.iter().map(|e| e.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn merge_reranks_spans_and_keeps_the_worst() {
        let base = Registry::new().snapshot();
        let a = base.clone().with_spans(
            (0..8)
                .map(|i| span(i, 100 + i, SpanOutcome::Completed))
                .collect(),
        );
        let mut merged = base.with_spans(vec![span(50, 10_000, SpanOutcome::Shed)]);
        merged.merge(&a);
        assert_eq!(merged.spans.len(), 9);
        assert_eq!(merged.spans[0].id, 50, "worst span leads after merge");
        merged.merge(&merged.clone());
        assert_eq!(merged.spans.len(), WORST_SPANS, "span list stays bounded");
    }

    #[test]
    fn encode_parse_round_trips_exactly() {
        let reg = Registry::new();
        reg.counter("serve.admitted.interactive").add(42);
        reg.gauge("pool.queue_depth").add(-3);
        let h = reg.histogram("net.frame.decode_us");
        for v in [2u64, 37, 37, 1 << 40] {
            h.record(v);
        }
        reg.histogram("empty.hist");
        let snap = reg
            .snapshot()
            .with_spans(vec![span(7, 2050, SpanOutcome::Completed)]);
        let parsed = Snapshot::parse_text(&snap.encode_text()).expect("own encoding parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn parse_rejects_malformed_lines_with_typed_errors() {
        for bad in [
            "counter missing-value",
            "gauge g 1 extra",
            "histbuckets h min=1",
            "histbuckets h min=1 max=2 nocolon",
            "histbuckets h min=1 max=2 999999:1",
            "span 1 2 3",
            "span 1 300 0 1 2 3",
            "mystery line",
        ] {
            assert!(Snapshot::parse_text(bad).is_err(), "{bad:?} must not parse");
        }
        assert!(Snapshot::parse_text("").unwrap().entries.is_empty());
    }

    #[test]
    fn render_appends_the_worst_spans_section() {
        let reg = Registry::new();
        reg.counter("a").add(1);
        let plain = reg.snapshot().render();
        assert!(!plain.contains("worst-spans"), "no spans, no section");
        let text = reg
            .snapshot()
            .with_spans(vec![
                span(1, 100, SpanOutcome::Completed),
                span(2, 900, SpanOutcome::Shed),
            ])
            .render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1], "worst-spans 2 (by total_us, per-stage breakdown)");
        assert!(
            lines[2].starts_with("span id=2 class=2 outcome=shed "),
            "worst first: {text}"
        );
        assert!(lines[3].contains("queue_us=25 service_us=75 total_us=100"));
    }
}
