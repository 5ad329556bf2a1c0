//! Per-backend health: EWMA latency plus consecutive-failure tracking.
//!
//! The state machine is deliberately small:
//!
//! ```text
//!            failures >= threshold, or a severed connection
//!      Up ────────────────────────────────────────────────▶ Down
//!      ▲                                                     │
//!      └───────────── probe success (connect + stats ping) ──┘
//! ```
//!
//! Soft failures (a `GoAway` answer for a forwarded request, a write
//! error that might be transient) *count* toward the threshold;
//! hard evidence (the backend link severed, a read stall past the
//! timeout with requests outstanding) forces `Down` immediately via
//! [`Health::force_down`]. Success on a forwarded request resets the
//! failure count and feeds the latency EWMA, but never flips `Down` →
//! `Up` on its own — only the prober re-admits, so a backend that
//! answered one straggler mid-outage doesn't flap back into rotation.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

const UP: u8 = 0;
const DOWN: u8 = 1;

/// EWMA weight: `new = old + (sample - old) / 8`.
const EWMA_SHIFT: u32 = 3;

/// One backend's liveness and latency estimate. All methods are
/// lock-free and callable from any router thread.
#[derive(Debug)]
pub struct Health {
    state: AtomicU8,
    consecutive_failures: AtomicU32,
    /// EWMA of forwarded-request round-trip time in µs; 0 = no sample
    /// yet.
    ewma_us: AtomicU64,
    fail_threshold: u32,
}

impl Health {
    /// A healthy backend that goes down after `fail_threshold`
    /// consecutive soft failures (min 1).
    pub fn new(fail_threshold: u32) -> Health {
        Health {
            state: AtomicU8::new(UP),
            consecutive_failures: AtomicU32::new(0),
            ewma_us: AtomicU64::new(0),
            fail_threshold: fail_threshold.max(1),
        }
    }

    /// Whether the backend is in rotation.
    pub fn is_up(&self) -> bool {
        self.state.load(Ordering::Acquire) == UP
    }

    /// A forwarded request completed in `latency_us`: reset the failure
    /// streak and fold the sample into the EWMA.
    pub fn record_success(&self, latency_us: u64) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        let mut old = self.ewma_us.load(Ordering::Relaxed);
        loop {
            let new = if old == 0 {
                latency_us
            } else {
                old + (latency_us >> EWMA_SHIFT) - (old >> EWMA_SHIFT)
            };
            match self
                .ewma_us
                .compare_exchange_weak(old, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => old = seen,
            }
        }
    }

    /// A soft failure (backend answered `GoAway`, or a possibly
    /// transient send error). Returns `true` when this failure crossed
    /// the threshold and *this call* transitioned the backend to
    /// `Down`.
    pub fn record_failure(&self) -> bool {
        let n = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= self.fail_threshold {
            self.force_down()
        } else {
            false
        }
    }

    /// Hard evidence the backend is gone (severed connection, read
    /// stall with requests outstanding). Returns `true` when this call
    /// made the `Up` → `Down` transition (so down events are counted
    /// exactly once).
    pub fn force_down(&self) -> bool {
        self.state.swap(DOWN, Ordering::AcqRel) == UP
    }

    /// Probe success: back into rotation with a clean failure streak.
    /// The stale EWMA is kept — it's the best estimate available until
    /// fresh samples arrive.
    pub fn mark_up(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        self.state.store(UP, Ordering::Release);
    }

    /// Current latency EWMA in µs (0 until the first success).
    pub fn ewma_us(&self) -> u64 {
        self.ewma_us.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_failures_take_a_backend_down_success_resets() {
        let h = Health::new(3);
        assert!(h.is_up());
        assert!(!h.record_failure());
        assert!(!h.record_failure());
        h.record_success(100);
        assert!(!h.record_failure(), "streak reset by success");
        assert!(!h.record_failure());
        assert!(h.record_failure(), "third consecutive crosses");
        assert!(!h.is_up());
        assert!(!h.record_failure(), "down transition reported once");
        h.mark_up();
        assert!(h.is_up());
    }

    #[test]
    fn force_down_reports_the_transition_exactly_once() {
        let h = Health::new(2);
        assert!(h.force_down());
        assert!(!h.force_down());
        h.mark_up();
        assert!(h.force_down());
    }

    #[test]
    fn ewma_tracks_latency_without_whiplash() {
        let h = Health::new(2);
        h.record_success(800);
        assert_eq!(h.ewma_us(), 800, "first sample seeds the EWMA");
        h.record_success(1600);
        let after_spike = h.ewma_us();
        assert!(after_spike > 800 && after_spike < 1600, "one spike nudges");
        for _ in 0..64 {
            h.record_success(100);
        }
        assert!(h.ewma_us() < 200, "sustained shift converges");
    }
}
