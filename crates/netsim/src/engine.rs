//! Event-driven per-link transmit engine: the one way a frame crosses the
//! simulated network.
//!
//! A send is split in two:
//!
//! * the **sender** synchronously pays only the software overhead `t_o`
//!   (figure 2's sender-side cost term), then continues computing;
//! * the **wire** is accounted on a per-directed-link [`Lane`] timeline:
//!   dedicated links (ATM, loopback) let transfers overlap — a new frame can
//!   be injected every `t_o` while earlier frames are still in flight — and
//!   shared-medium Ethernet serialises frames in queue order.
//!
//! Every frame gets a deterministic departure/arrival stamp on its lane
//! (`depart = max(lane cursor, virtual now)`, `arrival = depart + t`), the
//! network-wide virtual clock becomes the *makespan* (max arrival seen), and
//! per-lane busy time gives link utilization. Frames are released to the
//! destination in `(arrival, seq)` order — inline when no real time is
//! injected, via the [`Scheduler`]'s timer thread when it is.
//!
//! A blocking sender (the paper's client that does not overlap,
//! [`crate::Network::blocking`]) is this engine plus a wait: the frame
//! takes its lane slot as above, then the sender's time moves to the
//! frame's arrival and its thread sleeps through the queueing and the whole
//! transfer before releasing the frame itself.
//!
//! All lane state is plain atomics (CAS loops over `f64` bit patterns), so a
//! steady-state send acquires no lock.

use crate::Link;
use pardis_audit::{lock_site, AuditCondvar, AuditMutex};
use std::cmp::Ordering as CmpOrdering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
#[derive(Debug, Default)]
pub(crate) struct LocalClock(AtomicU64);

impl LocalClock {
    /// Claim the departure floor for one send and pay `overhead_s` of
    /// sender time. Returns the floor (the host's time before the send).
    pub(crate) fn begin_send(&self, overhead_s: f64) -> f64 {
        f64_update(&self.0, |c| c + overhead_s).0
    }

    /// Fold an observed event (a frame arrival) into the host's time.
    pub(crate) fn observe(&self, at: f64) {
        f64_update(&self.0, |c| c.max(at));
    }

    /// Charge local (non-network) time the host spent waiting or computing
    /// — e.g. a retransmission backoff, which must move the host's virtual
    /// time forward or a timed link-down window could never pass. Returns
    /// the host's new local reading.
    pub(crate) fn advance(&self, by_s: f64) -> f64 {
        f64_update(&self.0, |c| c + by_s).1
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
    /// Monotone floor on real-time release stamps (micros since the
    /// scheduler epoch), so scaled-time releases never reorder within a lane.
    last_due_us: AtomicU64,
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

    /// Clamp a real-time release stamp so it never precedes an earlier
    /// frame's on this lane. Returns the effective stamp.
    fn clamp_due_us(&self, due_us: u64) -> u64 {
        let prev = self.last_due_us.fetch_max(due_us, Ordering::AcqRel);
        prev.max(due_us)
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

/// A scheduled frame release.
struct Pending {
    due: Instant,
    arrival_bits: u64,
    seq: u64,
    release: Arc<dyn Fn() + Send + Sync>,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    /// Reversed: the `BinaryHeap` is a max-heap and we want the earliest
    /// `(due, arrival, seq)` on top.
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.arrival_bits.cmp(&self.arrival_bits))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct SchedulerState {
    heap: BinaryHeap<Pending>,
    /// Frames enqueued but not yet released (for [`Scheduler::quiesce`]).
    inflight: usize,
    /// Whether the timer thread is alive.
    running: bool,
    seq: u64,
}

/// Timer thread releasing scheduled frames in `(due, arrival, seq)` order.
/// Engaged only when real time is injected (`TimeScale > 0`); with pure
/// virtual accounting releases happen inline on the sender. The thread is
/// spawned on first use and exits after an idle period, so idle networks
/// hold no thread.
pub(crate) struct Scheduler {
    state: AuditMutex<SchedulerState>,
    cv: AuditCondvar,
    epoch: Instant,
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler {
            state: AuditMutex::new(
                lock_site!("netsim: engine schedule"),
                SchedulerState::default(),
            ),
            cv: AuditCondvar::new(),
            epoch: Instant::now(),
        }
    }
}

const IDLE_EXIT: Duration = Duration::from_millis(50);

impl Scheduler {
    /// Schedule `release` to run at `due` (real time), keeping per-lane
    /// release order monotone.
    pub(crate) fn enqueue(
        self: &Arc<Self>,
        lane: &Lane,
        due: Instant,
        arrival: f64,
        release: Arc<dyn Fn() + Send + Sync>,
    ) {
        let due_us = due.saturating_duration_since(self.epoch).as_micros() as u64;
        let due_us = lane.clamp_due_us(due_us);
        let due = self.epoch + Duration::from_micros(due_us);
        let mut st = self.state.lock();
        st.seq += 1;
        let seq = st.seq;
        st.heap.push(Pending { due, arrival_bits: arrival.to_bits(), seq, release });
        st.inflight += 1;
        if !st.running {
            st.running = true;
            let sched = Arc::clone(self);
            std::thread::Builder::new()
                .name("pardis-netsim-engine".into())
                .spawn(move || sched.run())
                .expect("spawn engine timer thread");
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Block until every scheduled release has run.
    pub(crate) fn quiesce(&self) {
        let mut st = self.state.lock();
        while st.inflight > 0 {
            self.cv.wait(&mut st);
        }
    }

    fn run(self: Arc<Self>) {
        loop {
            let mut st = self.state.lock();
            let now = Instant::now();
            let due = st.heap.peek_mut().filter(|next| next.due <= now).map(PeekMut::pop);
            if let Some(entry) = due {
                drop(st);
                (entry.release)();
                self.state.lock().inflight -= 1;
                self.cv.notify_all();
                continue;
            }
            match st.heap.peek() {
                Some(next) => {
                    let wait = next.due.saturating_duration_since(now);
                    self.cv.wait_timeout(&mut st, wait);
                }
                None => {
                    let notified = self.cv.wait_timeout(&mut st, IDLE_EXIT);
                    if !notified && st.heap.is_empty() {
                        st.running = false;
                        return;
                    }
                }
            }
        }
    }
}
