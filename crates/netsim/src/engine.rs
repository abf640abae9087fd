//! Event-driven per-link transmit engine: the one way a frame crosses the
//! simulated network.
//!
//! A send is split in two:
//!
//! * the **sender** pays only the software overhead `t_o` (figure 2's
//!   sender-side cost term) on its host's send floor, then continues
//!   computing;
//! * the **wire** is accounted on a per-directed-link [`Lane`] timeline:
//!   dedicated links (ATM, loopback) let transfers overlap — a new frame can
//!   be injected every `t_o` while earlier frames are still in flight — and
//!   shared-medium Ethernet serialises frames in queue order.
//!
//! Every frame gets a deterministic departure/arrival stamp on its lane
//! (`depart = max(lane cursor, send floor)`, `arrival = depart + t`), the
//! network-wide virtual clock becomes the *makespan* (max arrival seen), and
//! per-lane busy time gives link utilization. A frame's [`Release`] hook
//! runs on the sender's thread before the send returns, and is told the
//! frame's modelled arrival: modelled time is the only time, so nothing
//! waits for a timer.
//!
//! The send floor is the later of the sending host's [`LocalClock`] and the
//! sending thread's own timeline on that host (`crate::clock`): compute a
//! thread charged to itself delays only its own sends.
//!
//! A blocking sender (the paper's client that does not overlap,
//! [`crate::Network::blocking`]) is this engine plus a modelled wait: the
//! frame takes its lane slot as above, then the sender's host floor and
//! thread time move to the frame's arrival.
//!
//! All lane state is plain atomics (CAS loops over `f64` bit patterns), so a
//! steady-state send acquires no lock.

use crate::Link;
use pardis_audit::{lock_site, AuditMutex};
use std::sync::atomic::{AtomicU64, Ordering};

/// Update an `f64` stored as bits in an `AtomicU64`; returns `(old, new)`.
pub(crate) fn f64_update(cell: &AtomicU64, f: impl Fn(f64) -> f64) -> (f64, f64) {
    let mut cur = cell.load(Ordering::Acquire);
    loop {
        let old = f64::from_bits(cur);
        let new = f(old);
        match cell.compare_exchange_weak(cur, new.to_bits(), Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return (old, new),
            Err(actual) => cur = actual,
        }
    }
}

/// A frame's reserved slot on a lane timeline (modelled seconds). The
/// departure stamp is implicit: `arrival - t`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    /// When the last byte lands at the destination.
    pub arrival: f64,
    /// Full modelled transfer time (`latency + overhead + n/bandwidth`).
    pub t: f64,
}

/// A host's local virtual time under the engine: the earliest moment the
/// host can put the next frame on a wire. Sending advances it by the
/// link's software overhead `t_o` (the sender-side share of a transfer);
/// an arriving frame pulls it up to the frame's arrival, which is what
/// makes a reply depart no earlier than its request arrived — causality —
/// without serialising *independent* sends the way a global floor would.
pub(crate) struct LocalClock {
    time: AtomicU64,
    /// Held by a blocking send from claiming the floor until the floor has
    /// moved to the frame's arrival, so the host's blocking senders wait
    /// for each other whatever their real-time overlap.
    pub(crate) blocking_turn: AuditMutex<()>,
}

impl Default for LocalClock {
    fn default() -> Self {
        LocalClock {
            time: AtomicU64::new(0),
            blocking_turn: AuditMutex::new(lock_site!("netsim: blocking send turn"), ()),
        }
    }
}

impl LocalClock {
    /// Claim the departure floor for one send and pay `overhead_s` of
    /// sender time. Returns the floor (the host's time before the send).
    pub(crate) fn begin_send(&self, overhead_s: f64) -> f64 {
        f64_update(&self.time, |c| c + overhead_s).0
    }

    /// Fold an observed event (a frame arrival) into the host's time.
    pub(crate) fn observe(&self, at: f64) {
        f64_update(&self.time, |c| c.max(at));
    }

    /// Charge local (non-network) time the host spent waiting or computing
    /// — e.g. a retransmission backoff, which must move the host's virtual
    /// time forward or a timed link-down window could never pass. Returns
    /// the host's new local reading.
    pub(crate) fn advance(&self, by_s: f64) -> f64 {
        f64_update(&self.time, |c| c + by_s).1
    }
}

/// Per-directed-link transmit state: the timeline cursor, utilization
/// accounting, and the frame/byte counters. All atomics — reserving a slot
/// takes no lock.
#[derive(Debug, Default)]
pub(crate) struct Lane {
    /// Timeline cursor (f64 bits). Shared medium: the time the wire frees
    /// up (frames serialise behind it). Dedicated: the sender-side injection
    /// head — a new frame may depart every `t_o` while older transfers are
    /// still in flight.
    cursor: AtomicU64,
    /// Latest arrival on this lane (f64 bits) — the lane's busy-until stamp.
    busy_until: AtomicU64,
    /// Accumulated wire occupancy in seconds (f64 bits). On a dedicated
    /// link overlapping frames each count in full, so
    /// `busy / busy_until > 1` reads as average transfer concurrency.
    busy: AtomicU64,
    frames: AtomicU64,
    bytes: AtomicU64,
}

impl Lane {
    /// Reserve the next slot for `bytes` given the lane's link and the
    /// current virtual reading `now`. Deterministic per lane: the slot
    /// depends only on the lane's cursor, `now`, and the frame's size.
    pub(crate) fn reserve(&self, link: &Link, bytes: usize, now: f64) -> Slot {
        let t = link.transfer_seconds(bytes);
        // A shared medium (classic Ethernet) is held for the whole transfer
        // — frames serialise end to end. A dedicated link pipelines its
        // *latency*: the next frame may start as soon as the previous one's
        // bytes have left the NIC (software overhead + serialisation), so
        // concurrent streams amortise latency but can never exceed the
        // link's bandwidth.
        let step =
            if link.shared { t } else { link.overhead_s + bytes as f64 / link.bandwidth_bps };
        let (old, _) = f64_update(&self.cursor, |c| c.max(now) + step);
        let depart = old.max(now);
        let arrival = depart + t;
        f64_update(&self.busy_until, |b| b.max(arrival));
        f64_update(&self.busy, |b| b + t);
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        Slot { arrival, t }
    }

    pub(crate) fn usage(&self) -> LinkUsage {
        LinkUsage {
            frames: self.frames.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            busy_s: f64::from_bits(self.busy.load(Ordering::Relaxed)),
            busy_until_s: f64::from_bits(self.busy_until.load(Ordering::Relaxed)),
        }
    }
}

/// Traffic summary of one directed link under the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkUsage {
    /// Frames that reserved a slot (including dropped ones — they occupied
    /// the wire).
    pub frames: u64,
    /// Payload bytes across those frames.
    pub bytes: u64,
    /// Accumulated wire occupancy in modelled seconds. Exceeds
    /// `busy_until_s` on a dedicated link when transfers overlapped.
    pub busy_s: f64,
    /// The lane timeline's last arrival (modelled seconds).
    pub busy_until_s: f64,
}

impl LinkUsage {
    /// Occupancy relative to a horizon (normally the network makespan).
    /// Values above 1.0 mean overlapped transfers (average concurrency).
    pub fn utilization(&self, horizon_s: f64) -> f64 {
        if horizon_s <= 0.0 {
            0.0
        } else {
            self.busy_s / horizon_s
        }
    }
}

/// What runs when a frame arrives: a closure of no arguments, or one that
/// takes the frame's modelled arrival in seconds. `Args` only tells the two
/// apart.
pub trait Release<Args> {
    /// Hand over one arriving copy, which lands at `arrival_s`.
    fn release(&self, arrival_s: f64);
}

impl<F: Fn()> Release<()> for F {
    fn release(&self, _arrival_s: f64) {
        self()
    }
}

impl<F: Fn(f64)> Release<f64> for F {
    fn release(&self, arrival_s: f64) {
        self(arrival_s)
    }
}
