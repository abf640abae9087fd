//! Clock handling: time scaling for real-time injection and the network's
//! virtual clock.
//!
//! Both clocks store their `f64` readings as bit patterns in atomics, so the
//! transport hot path (every frame reads the scale and advances the virtual
//! clock) acquires no lock.

use crate::engine::f64_update;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A global multiplier applied to every modelled delay before sleeping.
///
/// A scale of `1.0` injects delays at their modelled magnitude; `0.01` runs a
/// sweep 100x faster while preserving every *ratio* the evaluation figures
/// depend on; `0.0` disables sleeping entirely (pure virtual accounting).
#[derive(Debug, Clone)]
pub struct TimeScale {
    scale: Arc<AtomicU64>,
}

impl TimeScale {
    /// Create a new time scale.
    ///
    /// # Panics
    /// Panics if `scale` is negative or non-finite.
    pub fn new(scale: f64) -> Self {
        assert!(scale.is_finite() && scale >= 0.0, "time scale must be finite and >= 0");
        TimeScale { scale: Arc::new(AtomicU64::new(scale.to_bits())) }
    }

    /// Real-time injection at modelled magnitude.
    pub fn realtime() -> Self {
        TimeScale::new(1.0)
    }

    /// No sleeping at all; only virtual accounting.
    pub fn off() -> Self {
        TimeScale::new(0.0)
    }

    /// Current multiplier.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.scale.load(Ordering::Acquire))
    }

    /// Change the multiplier (affects all clones).
    pub fn set(&self, scale: f64) {
        assert!(scale.is_finite() && scale >= 0.0, "time scale must be finite and >= 0");
        self.scale.store(scale.to_bits(), Ordering::Release);
    }

    /// Scale a modelled duration down to the injected duration.
    pub fn apply(&self, modelled: Duration) -> Duration {
        modelled.mul_f64(self.get())
    }
}

impl Default for TimeScale {
    fn default() -> Self {
        TimeScale::realtime()
    }
}

/// The network's virtual clock: the *makespan* in modelled seconds, the
/// latest arrival on any link timeline ([`VirtualClock::advance_to`] per
/// frame). On a serial workload, where each transfer waits for the one
/// before it, that is the sum of the transfers.
///
/// Thread-safe and lock-free; cloning shares the underlying counter.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    bits: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the clock to at least `to` seconds (used to merge parallel
    /// transfer timelines: the completion time of concurrent transfers is
    /// their max, not their sum).
    pub fn advance_to(&self, to: f64) -> f64 {
        f64_update(&self.bits, |s| s.max(to)).1
    }

    /// Current reading in modelled seconds.
    pub fn now(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Acquire))
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.bits.store(0f64.to_bits(), Ordering::Release);
    }
}
