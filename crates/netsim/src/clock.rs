//! Clock handling: the network's virtual clock and each thread's timeline.
//!
//! Every reading is modelled seconds stored as `f64` bits in an atomic or a
//! thread-local cell, so the transport hot path (every frame advances the
//! virtual clock and reads the sender's timeline) acquires no lock.

use crate::engine::f64_update;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The constructors' time parameter, from when a network could also inject
/// scaled real time. Every network now runs on modelled time alone, so
/// [`TimeScale::off`] is its only value; the type stays until ROADMAP item
/// 2(b) re-bases the benchmark that still passes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimeScale;

impl TimeScale {
    /// Modelled time only (the only time there is).
    pub fn off() -> Self {
        TimeScale
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

/// The calling thread's modelled time on each host of each network it has
/// charged or raised: one entry per network id (ids are never reused), its
/// times indexed by host id, the network touched last first, where a send
/// finds it in one step. Entries live as long as the thread.
type Timelines = Vec<(u64, Vec<f64>)>;

thread_local! {
    static TIMELINES: RefCell<Timelines> = const { RefCell::new(Vec::new()) };
}

/// The calling thread's time on `host` of network `net` (0 if it has none,
/// or if the thread is past destroying its thread-locals: a frame a
/// destructor sends then departs at its host's floor).
pub(crate) fn thread_time(net: u64, host: u32) -> f64 {
    let read = |t: &RefCell<Timelines>| {
        let t = t.borrow();
        let (_, hosts) = t.iter().find(|(id, _)| *id == net)?;
        hosts.get(host as usize).copied()
    };
    TIMELINES.try_with(read).ok().flatten().unwrap_or(0.0)
}

/// Replace the calling thread's time on `host` of network `net` by
/// `f(time)`; past its thread-locals' destruction, do nothing.
pub(crate) fn update_thread_time(net: u64, host: u32, f: impl FnOnce(f64) -> f64) {
    let _ = TIMELINES.try_with(|t| {
        let mut t = t.borrow_mut();
        match t.iter().position(|(id, _)| *id == net) {
            Some(at) => t[..=at].rotate_right(1),
            None => t.insert(0, (net, Vec::new())),
        }
        let hosts = &mut t[0].1;
        let host = host as usize;
        if hosts.len() <= host {
            hosts.resize(host + 1, 0.0);
        }
        hosts[host] = f(hosts[host]);
    });
}
