//! One-sided memory windows: the real RDMA-style RTS layer.
//!
//! The paper names one-sided run-time systems (Tulip) as the direction for
//! distributed-argument transfer, and DART-style PGAS runtimes show the
//! shape: each rank *exposes* windows of memory, remote ranks issue
//! non-blocking [`Windows::put_nb`] / [`Windows::get_nb`] operations that
//! complete without any matching receive, and a [`Windows::fence`] (or a
//! delivery notification) establishes completion.
//!
//! Key properties of this implementation:
//!
//! * **Read-locked lookups** — the window table is a reader-writer-locked
//!   map: the per-operation lookup in `put_nb`/`get_nb` shares a read lock,
//!   only exposing and withdrawing write. Not a [`Published`] snapshot: that
//!   keeps every version it is ever given, and this table changes twice per
//!   redistribution and per halo exchange.
//! * **Windows withdrawn by their planned gets** — a window exposed with
//!   [`Windows::expose_for_gets`] serves exactly that many gets and leaves
//!   the table when the last of them looks it up, with no rendezvous and no
//!   [`Windows::deregister`]. A collective pull knows its readers from its
//!   plan, so its owner exposes for exactly those; a window nobody reads is
//!   never exposed. The count is taken once per [`Windows::get_strided_nb`]
//!   call, at the lookup on the initiating side, never by a frame's
//!   delivery, so a duplicated or late frame cannot withdraw a window early.
//! * **Non-blocking with completion handles** — operations return a
//!   [`Completion`] / [`GetHandle`] immediately; `fence` drains everything
//!   this rank initiated; [`Windows::put_nb_notify`] additionally enqueues a
//!   [`Notice`] at the window owner when the data lands.
//! * **Modelled wire time** — when the owning world is attached to a
//!   [`Network`] ([`WindowShared::attach`] via `World::attach_network`), a
//!   put occupies the sender→owner lane for one frame and a get for a tiny
//!   request frame plus the payload reply, through the overlapped engine:
//!   the initiating thread pays only the software overhead `t_o`, wire time
//!   accrues on the lane timeline and the delivery effect runs at the
//!   frame's modelled arrival. With no network attached the operations
//!   complete inline at zero modelled cost (plain shared-memory semantics).
//! * **Modelled time crosses with the data** (`crate::World`'s rule) — a
//!   window carries its owner's time at exposure, raised by every put that
//!   lands; a completed get raises its getter to the later of that and its
//!   reply's arrival, as an MPI-3 RMA flush makes remote data visible, and
//!   [`Windows::wait_notify`] raises the owner to its put's time.
//! * **A fixed issue order for collective pulls** — the engine stamps a
//!   frame from the state of its lanes and host clocks when it is sent, so
//!   the real-time order of sends is the order of lane reservations, and
//!   with it the modelled time. [`Windows::in_turn`] makes a collective
//!   round issue its gets in a fixed rank order on a networked world, so
//!   the round's modelled time does not depend on which thread woke first.
//!   The turn runs from the highest rank down: rank `r` issues once rank
//!   `r + 1` has, and when rank 0 — the rank a collective reports from —
//!   has issued, so has everyone, and the modelled clock holds the whole
//!   round. The turn is keyed by the round's collective base, so a round
//!   that takes no turn (a halo exchange) never holds up a later one; a
//!   world with no network has no modelled clock and takes no turns.
//!   Passing the turn carries no modelled time: it only orders real time.
//! * **Late landings are the caller's error, never a crash** — an operation
//!   keeps the window it resolved for as long as it is in flight. A put that
//!   lands after its window was withdrawn writes a buffer nobody reads, a
//!   get reads the bytes the window held, and `deregister` hands back a copy
//!   of the bytes while any operation still holds them (the buffer itself,
//!   by move, once none does).
//!
//! The *users* of this layer — pull-based `dseq` redistribution and
//! `pooma-rs` halo exchange — have no other path: every RTS supplies its
//! endpoint ([`crate::Rts::windows`]).

use bytes::Bytes;
use pardis_audit::{lock_site, AuditCondvar, AuditMutex, AuditQueue, AuditRwLock};
use pardis_netsim::{HostId, Network, Published};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Identifier of an exposed window: the owning rank plus the window's base
/// address in that rank's exposed byte-address space. The base *is* the
/// name — ranks that agree on a base (e.g. through the collective numbering
/// of [`Windows::collective_window_base`]) can address each other's windows
/// without exchanging ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowId {
    /// Rank that exposed the window.
    pub owner: usize,
    /// Base address in the owner's exposed address space.
    pub base: u64,
}

impl std::fmt::Display for WindowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "window {:#x}@rank{}", self.base, self.owner)
    }
}

/// Typed errors of the one-sided layer (and of the emulated
/// `TulipRts::put`/`get` region API, which is built on it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtsError {
    /// The addressed window is not (or no longer) exposed.
    UnknownWindow(WindowId),
    /// The access `[offset, offset+len)` falls outside the window's `size`.
    OutOfBounds {
        /// The addressed window.
        window: WindowId,
        /// First byte of the access.
        offset: u64,
        /// Access length in bytes.
        len: u64,
        /// The window's actual size in bytes.
        size: u64,
    },
    /// The new window `[base, base+len)` overlaps an already-exposed window
    /// of the same rank.
    WindowOverlap {
        /// Requested base address.
        base: u64,
        /// Requested length.
        len: u64,
        /// The live window it collides with.
        existing: WindowId,
    },
    /// Only the owning rank may deregister a window.
    NotOwner {
        /// The addressed window.
        window: WindowId,
        /// The rank that attempted the operation.
        rank: usize,
    },
}

impl std::fmt::Display for RtsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtsError::UnknownWindow(id) => write!(f, "unknown {id}"),
            RtsError::OutOfBounds { window, offset, len, size } => {
                write!(
                    f,
                    "access out of bounds: {}..{} of {size} in {window}",
                    offset,
                    offset + len
                )
            }
            RtsError::WindowOverlap { base, len, existing } => {
                write!(f, "window {base:#x}+{len} overlaps live {existing}")
            }
            RtsError::NotOwner { window, rank } => {
                write!(f, "rank {rank} does not own {window}")
            }
        }
    }
}

impl std::error::Error for RtsError {}

/// A delivery notification: pushed to the window owner's queue when a
/// [`Windows::put_nb_notify`] lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notice {
    /// Rank that issued the put.
    pub from: usize,
    /// The window the data landed in.
    pub window: WindowId,
    /// Caller-chosen discriminator, matched by [`Windows::wait_notify`].
    pub tag: u64,
}

/// One exposed window: a fixed-size byte buffer remote ranks put into and
/// get from. The buffer lives behind its own lock so concurrent accesses to
/// *different* windows never contend.
struct WindowCell {
    len: usize,
    data: AuditRwLock<Vec<u8>>,
    /// Gets still to look the window up before it withdraws itself; `None`
    /// for a window only [`Windows::deregister`] withdraws.
    gets_left: Option<AtomicUsize>,
    /// The modelled time its bytes carry, as `f64` bits: times are never
    /// negative, so their bits order as they do and `fetch_max` raises them.
    time: AtomicU64,
}

/// Modelled-network binding of a world: the per-rank host placement.
#[derive(Clone)]
struct NetBinding {
    net: Network,
    hosts: Vec<HostId>,
}

/// Control-frame footprint of one-sided requests (window id + offset +
/// length descriptors); also used by the rendezvous handshake of two-sided
/// sends over an attached network.
pub const CTRL_FRAME_BYTES: usize = 64;

/// How long a rank waiting for its turn ([`Windows::in_turn`]) spins before
/// it parks: its predecessor is usually still waking from the barrier that
/// opened the round, and a park and a wake-up cost more than that wait.
const TURN_SPIN: Duration = Duration::from_micros(40);

/// The issue order of collective rounds: `at == base + k` once the `k`
/// highest ranks have issued in the round at collective base `base`.
/// Collective bases are [`COLL_WINDOW_STRIDE`] apart, so `k` never reaches
/// the next round's base. A waiter that stops spinning parks on `wake`;
/// the passer stores the turn, takes the lock and notifies, and the
/// condvar's own sleeper count makes that notify free when nobody parked.
struct Turn {
    at: AtomicU64,
    lock: AuditMutex<()>,
    wake: AuditCondvar,
}

impl Turn {
    fn new() -> Turn {
        Turn {
            at: AtomicU64::new(0),
            lock: AuditMutex::new(lock_site!("rts: collective turn"), ()),
            wake: AuditCondvar::new(),
        }
    }

    /// Wait until the turn is `want`, or until `failed` names a rank
    /// (which [`WindowShared::poison`] wakes this wait for).
    fn wait(&self, want: u64, failed: &OnceLock<usize>) {
        let spin_until = Instant::now() + TURN_SPIN;
        while self.at.load(Ordering::Acquire) != want && failed.get().is_none() {
            if Instant::now() < spin_until {
                std::hint::spin_loop();
                continue;
            }
            let mut guard = self.lock.lock();
            // Re-checked under the lock: a passer (or a poisoner) that
            // stores after this check takes the lock after this waiter has
            // parked.
            while self.at.load(Ordering::Acquire) != want && failed.get().is_none() {
                self.wake.wait(&mut guard);
            }
            return;
        }
    }

    fn pass(&self, to: u64) {
        self.at.store(to, Ordering::Release);
        drop(self.lock.lock());
        self.wake.notify_all();
    }
}

/// Per-rank completion/notification state.
struct RankState {
    /// Operations this rank initiated that have not yet delivered.
    inflight: AuditMutex<u64>,
    drained: AuditCondvar,
    /// Delivery notifications addressed to this rank (as window owner),
    /// each with the modelled time its put carried.
    notices: AuditQueue<(Notice, f64)>,
    /// Where this rank's modelled time lives when no network is attached:
    /// set once, by the ORB the rank attaches to.
    timeline: OnceLock<(Network, HostId)>,
}

/// The shared one-sided state of a world: the window table plus per-rank
/// completion state. One per `World` (a `TulipWorld` is one); ranks hold [`Windows`]
/// endpoints into it.
pub struct WindowShared {
    size: usize,
    /// Window table: read-locked on the put/get path, write-locked only to
    /// expose and to withdraw, so a withdrawn window's entry is freed at
    /// once.
    map: AuditRwLock<HashMap<WindowId, Arc<WindowCell>>>,
    /// Optional modelled-network binding (set once by `attach`).
    net: Published<Option<NetBinding>>,
    ranks: Vec<RankState>,
    turn: Turn,
    /// The first rank of the owning world whose thread panicked.
    poisoned: OnceLock<usize>,
}

impl WindowShared {
    /// Shared state for a world of `size` ranks.
    pub fn new(size: usize) -> Arc<WindowShared> {
        Arc::new(WindowShared {
            size,
            map: AuditRwLock::new(lock_site!("rts: window table"), HashMap::new()),
            net: Published::new(None),
            ranks: (0..size)
                .map(|_| RankState {
                    inflight: AuditMutex::new(lock_site!("rts: in-flight count"), 0),
                    drained: AuditCondvar::new(),
                    notices: AuditQueue::new(lock_site!("rts: window notices")),
                    timeline: OnceLock::new(),
                })
                .collect(),
            turn: Turn::new(),
            poisoned: OnceLock::new(),
        })
    }

    /// The rank that poisoned the world, if one has.
    pub(crate) fn poisoned(&self) -> Option<usize> {
        self.poisoned.get().copied()
    }

    /// Rank `rank` panicked: fail every wait on this state from now on — a
    /// turn, a fence, a notification — as the world's receives and barrier
    /// fail. The first rank to fail is the one named. Each wait checks the
    /// mark under the lock it parks with, and each lock is taken here
    /// before its waiters are woken, so none sleeps through it.
    pub(crate) fn poison(&self, rank: usize) {
        let _ = self.poisoned.set(rank);
        drop(self.turn.lock.lock());
        self.turn.wake.notify_all();
        for rs in &self.ranks {
            drop(rs.inflight.lock());
            rs.drained.notify_all();
            rs.notices.wake();
        }
    }

    /// Panic on rank `me`'s behalf if the world is poisoned.
    pub(crate) fn check(&self, me: usize) {
        if let Some(failed) = self.poisoned() {
            panic!("rank {me}: the world is poisoned: rank {failed} panicked");
        }
    }

    /// Bind the world to a modelled network: `hosts[r]` is the host rank `r`
    /// runs on. One-sided operations (and the owning world's two-sided
    /// sends) then accrue wire time on the network's lanes.
    ///
    /// # Panics
    /// Panics if `hosts` does not name one host per rank.
    pub fn attach(&self, net: Network, hosts: Vec<HostId>) {
        assert_eq!(hosts.len(), self.size, "one host per rank required");
        self.net.store(Some(NetBinding { net, hosts }));
    }

    /// The attached network and the placement of two ranks, if bound.
    pub(crate) fn net_route(&self, from: usize, to: usize) -> Option<(Network, HostId, HostId)> {
        let bind = self.net.read();
        bind.as_ref().map(|b| (b.net.clone(), b.hosts[from], b.hosts[to]))
    }

    /// Where rank `rank`'s modelled time lives: on its host of the attached
    /// network, or else where an ORB bound it.
    fn timeline(&self, rank: usize) -> Option<(&Network, HostId)> {
        match self.net.read() {
            Some(bind) => Some((&bind.net, bind.hosts[rank])),
            None => self.ranks[rank].timeline.get().map(|(net, host)| (net, *host)),
        }
    }

    /// The host rank `rank` runs on and the calling thread's modelled time
    /// there, if the rank is bound to a timeline.
    pub(crate) fn clock(&self, rank: usize) -> Option<(HostId, f64)> {
        self.timeline(rank).map(|(net, host)| (host, net.thread_time(host)))
    }

    /// The calling thread's modelled time as rank `rank` (0 if unbound).
    pub(crate) fn now(&self, rank: usize) -> f64 {
        self.clock(rank).map_or(0.0, |(_, now)| now)
    }

    /// Raise the calling thread, as rank `rank`, to a carried time `at`.
    pub(crate) fn raise(&self, rank: usize, at: f64) {
        if let Some((net, host)) = self.timeline(rank) {
            net.raise_thread_time(host, at);
        }
    }

    fn lookup(&self, id: WindowId) -> Result<Arc<WindowCell>, RtsError> {
        self.map.read().get(&id).cloned().ok_or(RtsError::UnknownWindow(id))
    }

    /// Count one planned get of `cell`, just resolved as `id`; the last one
    /// withdraws the window.
    fn count_get(&self, id: WindowId, cell: &Arc<WindowCell>) {
        let Some(left) = &cell.gets_left else { return };
        if left.fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1)) == Ok(1) {
            let mut map = self.map.write();
            if map.get(&id).is_some_and(|live| Arc::ptr_eq(live, cell)) {
                map.remove(&id);
            }
        }
    }
}

/// Shared core of an in-flight operation. The delivery side is idempotent
/// (`fired`) because a faulty attached network may run a duplicated frame's
/// release twice.
struct OpCore {
    shared: Arc<WindowShared>,
    initiator: usize,
    fired: AtomicBool,
    /// Delivered?, a get's bytes, and the modelled time the delivery
    /// carried.
    state: AuditMutex<(bool, Option<Bytes>, f64)>,
    done: AuditCondvar,
}

impl OpCore {
    fn new(shared: &Arc<WindowShared>, initiator: usize) -> Arc<OpCore> {
        *shared.ranks[initiator].inflight.lock() += 1;
        Arc::new(OpCore {
            shared: shared.clone(),
            initiator,
            fired: AtomicBool::new(false),
            state: AuditMutex::new(lock_site!("rts: operation completion"), (false, None, 0.0)),
            done: AuditCondvar::new(),
        })
    }

    /// Mark delivered (at most once) at modelled time `at`, waking waiters
    /// and the initiator's fence.
    fn complete(&self, data: Option<Bytes>, at: f64) {
        if self.fired.swap(true, Ordering::AcqRel) {
            return;
        }
        {
            let mut st = self.state.lock();
            *st = (true, data, at);
            self.done.notify_all();
        }
        let rs = &self.shared.ranks[self.initiator];
        let mut n = rs.inflight.lock();
        *n -= 1;
        if *n == 0 {
            rs.drained.notify_all();
        }
    }

    fn wait(&self) -> (Option<Bytes>, f64) {
        let mut st = self.state.lock();
        while !st.0 {
            self.done.wait(&mut st);
        }
        (st.1.take(), st.2)
    }
}

/// Completion handle of a non-blocking put.
pub struct Completion(Arc<OpCore>);

impl Completion {
    /// Block until the data has landed.
    pub fn wait(self) {
        self.0.wait();
    }
}

/// Completion handle of a non-blocking get; resolves to the read bytes.
pub struct GetHandle(Arc<OpCore>);

impl GetHandle {
    /// Block until the reply arrives and take the bytes (the requested
    /// spans, concatenated in request order). The calling thread is raised
    /// to the time the get completed at: the later of its reply's arrival
    /// and the time the window's bytes carried.
    pub fn wait(self) -> Bytes {
        let (data, at) = self.0.wait();
        self.0.shared.raise(self.0.initiator, at);
        data.expect("get completion carries data")
    }
}

/// Reserved region of the per-rank window address space used by collective
/// window numbering ([`Windows::collective_window_base`]).
const COLL_WINDOW_REGION: u64 = 1 << 62;
/// Stride between consecutive collective windows: windows up to 1 TiB never
/// collide with the previous round even before it deregisters.
const COLL_WINDOW_STRIDE: u64 = 1 << 40;
/// Collective bases cycle after this many rounds.
const COLL_WINDOW_ROUNDS: u64 = 1 << 20;

/// One rank's endpoint into the one-sided layer. Obtained from
/// [`crate::Rts::windows`]; owned by (at most) one thread like the rank
/// handle itself.
pub struct Windows {
    shared: Arc<WindowShared>,
    rank: usize,
    /// Collective window sequence (SPMD discipline makes equal sequence
    /// numbers agree across ranks, like collective tags).
    coll_seq: AtomicU64,
}

impl Windows {
    /// Endpoint for `rank` into `shared`.
    pub fn endpoint(shared: Arc<WindowShared>, rank: usize) -> Windows {
        assert!(rank < shared.size, "rank {rank} out of range");
        Windows { shared, rank, coll_seq: AtomicU64::new(0) }
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// The shared window-world state (to attach a network or derive sibling
    /// endpoints).
    pub fn shared(&self) -> &Arc<WindowShared> {
        &self.shared
    }

    /// Keep this rank's modelled time on its thread's timeline on `host` of
    /// `net`, where an ORB that attaches the rank runs it. The first binding
    /// holds; a world attached to a network keeps its ranks' times on its
    /// hosts and ignores this.
    pub fn bind_timeline(&self, net: &Network, host: HostId) {
        let _ = self.shared.ranks[self.rank].timeline.set((net.clone(), host));
    }

    /// Expose `data` as a window at `base` in this rank's address space.
    /// Rejects any overlap with a live window of this rank ([`RtsError::
    /// WindowOverlap`]); zero-length windows only conflict on an equal base.
    pub fn expose(&self, base: u64, data: Vec<u8>) -> Result<WindowId, RtsError> {
        self.insert(base, data, None)
    }

    /// Expose `data` at `base` for exactly `gets` one-sided gets: the window
    /// leaves the table when the last of them looks it up, and needs no
    /// [`Windows::deregister`]. Each [`Windows::get_strided_nb`] call that
    /// finds the window counts once, on the initiating side, and keeps the
    /// bytes it resolved until it completes. `gets == 0` exposes nothing.
    /// Rejects overlap as [`Windows::expose`] does.
    pub fn expose_for_gets(&self, base: u64, data: Vec<u8>, gets: usize) -> Result<(), RtsError> {
        if gets > 0 {
            self.insert(base, data, Some(AtomicUsize::new(gets)))?;
        }
        Ok(())
    }

    fn insert(
        &self,
        base: u64,
        data: Vec<u8>,
        gets_left: Option<AtomicUsize>,
    ) -> Result<WindowId, RtsError> {
        let id = WindowId { owner: self.rank, base };
        let len = data.len() as u64;
        let mut map = self.shared.map.write();
        for (wid, cell) in map.iter().filter(|(w, _)| w.owner == self.rank) {
            let clash = if len == 0 || cell.len == 0 {
                wid.base == base
            } else {
                base < wid.base.saturating_add(cell.len as u64)
                    && wid.base < base.saturating_add(len)
            };
            if clash {
                return Err(RtsError::WindowOverlap { base, len, existing: *wid });
            }
        }
        map.insert(
            id,
            Arc::new(WindowCell {
                len: data.len(),
                data: AuditRwLock::new(lock_site!("rts: window bytes"), data),
                gets_left,
                time: AtomicU64::new(self.shared.now(self.rank).to_bits()),
            }),
        );
        drop(map);
        if pardis_obs::enabled() {
            pardis_obs::counter("rts.win.exposed").inc();
        }
        Ok(id)
    }

    /// Withdraw a window this rank exposed, returning its bytes: the buffer
    /// itself when no operation holds the window any more, a copy of it
    /// while one does. An operation in flight keeps the buffer it resolved,
    /// so a put that lands after the withdrawal writes a buffer nobody reads
    /// (as with real RDMA, deregistering before a fence is an application
    /// error, not a crash).
    pub fn deregister(&self, id: WindowId) -> Result<Vec<u8>, RtsError> {
        if id.owner != self.rank {
            return Err(RtsError::NotOwner { window: id, rank: self.rank });
        }
        let cell = self.shared.map.write().remove(&id).ok_or(RtsError::UnknownWindow(id))?;
        Ok(match Arc::try_unwrap(cell) {
            Ok(cell) => cell.data.into_inner(),
            Err(held) => held.data.read().clone(),
        })
    }

    /// Size in bytes of a live window.
    pub fn window_len(&self, id: WindowId) -> Result<usize, RtsError> {
        Ok(self.shared.lookup(id)?.len)
    }

    /// A fresh base in the reserved collective region, identical on every
    /// rank at the same collective step (SPMD discipline). Consecutive
    /// rounds are strided far apart, so a round's windows never collide
    /// with the previous round's even mid-deregistration.
    pub fn collective_window_base(&self) -> u64 {
        let seq = self.coll_seq.fetch_add(1, Ordering::Relaxed) % COLL_WINDOW_ROUNDS;
        COLL_WINDOW_REGION | (seq * COLL_WINDOW_STRIDE)
    }

    /// Run `issue` in this rank's turn of the collective round at `base` (a
    /// [`Windows::collective_window_base`]). On a world attached to a
    /// network, rank `r` runs it once rank `r + 1` has run its own, so the
    /// round's operations reach the engine in a fixed order, its modelled
    /// time does not depend on thread timing, and rank 0 runs last. Without
    /// a network it runs at once. Passing the turn carries no modelled
    /// time: it orders real time only. Collective: every rank of the round
    /// must call it, after a rendezvous that opened the round.
    ///
    /// # Panics
    /// Panics if a rank of a `World::run` world has panicked.
    pub fn in_turn<R>(&self, base: u64, issue: impl FnOnce() -> R) -> R {
        if self.shared.net.read().is_none() {
            return issue();
        }
        debug_assert_eq!(base % COLL_WINDOW_STRIDE, 0, "turns are keyed by collective bases");
        let (turn, place) = (&self.shared.turn, (self.shared.size - 1 - self.rank) as u64);
        if place > 0 {
            turn.wait(base + place, &self.shared.poisoned);
            self.shared.check(self.rank);
        }
        let out = issue();
        turn.pass(base + place + 1);
        out
    }

    /// Non-blocking one-sided write of `data` at `offset` into a window.
    /// Returns immediately with a [`Completion`]; the data lands when the
    /// modelled frame arrives (inline when no network is attached), and
    /// raises the window's time to the put's: its frame's arrival, or on a
    /// world without a network the sender's time.
    pub fn put_nb(&self, id: WindowId, offset: u64, data: Bytes) -> Result<Completion, RtsError> {
        self.put_impl(id, offset, data, None)
    }

    /// [`Windows::put_nb`] plus notify-on-delivery: when the data lands, a
    /// [`Notice`] with `tag` is queued at the window owner
    /// ([`Windows::wait_notify`]), carrying the put's time.
    pub fn put_nb_notify(
        &self,
        id: WindowId,
        offset: u64,
        data: Bytes,
        tag: u64,
    ) -> Result<Completion, RtsError> {
        self.put_impl(id, offset, data, Some(tag))
    }

    fn put_impl(
        &self,
        id: WindowId,
        offset: u64,
        data: Bytes,
        notify: Option<u64>,
    ) -> Result<Completion, RtsError> {
        let cell = self.shared.lookup(id)?;
        if out_of_bounds(offset, data.len() as u64, cell.len) {
            return Err(RtsError::OutOfBounds {
                window: id,
                offset,
                len: data.len() as u64,
                size: cell.len as u64,
            });
        }
        if pardis_obs::enabled() {
            pardis_obs::counter("rts.win.puts").inc();
            pardis_obs::counter("rts.win.put.bytes").add(data.len() as u64);
        }
        let core = OpCore::new(&self.shared, self.rank);
        let shared = self.shared.clone();
        let from = self.rank;
        let frame_bytes = data.len() + CTRL_FRAME_BYTES;
        let deliver = {
            let core = core.clone();
            move |at: f64| {
                {
                    let mut buf = cell.data.write();
                    buf[offset as usize..offset as usize + data.len()].copy_from_slice(&data);
                    cell.time.fetch_max(at.to_bits(), Ordering::AcqRel);
                }
                if let Some(tag) = notify {
                    // Notice queues are never closed: the push always lands.
                    let notice = Notice { from, window: id, tag };
                    let _ = shared.ranks[id.owner].notices.push((notice, at));
                }
                core.complete(None, at);
            }
        };
        match self.shared.net_route(self.rank, id.owner) {
            Some((net, fh, th)) => {
                net.transmit(fh, th, frame_bytes, deliver);
            }
            None => deliver(self.shared.now(self.rank)),
        }
        Ok(Completion(core))
    }

    /// Non-blocking one-sided read of `[offset, offset+len)` from a window.
    pub fn get_nb(&self, id: WindowId, offset: u64, len: u64) -> Result<GetHandle, RtsError> {
        self.get_strided_nb(id, [(offset, len, len, 1)])
    }

    /// Vectored get: read several `(offset, len)` spans of one window in a
    /// single operation — one request frame, one reply frame carrying the
    /// concatenated spans.
    pub fn get_vec_nb(&self, id: WindowId, spans: &[(u64, u64)]) -> Result<GetHandle, RtsError> {
        let spans: Vec<_> = spans.iter().map(|&(offset, len)| (offset, len, len, 1)).collect();
        self.get_strided_nb(id, spans)
    }

    /// Strided get: each `(offset, stride, block, count)` entry names
    /// `count` spans of `block` bytes, `stride` bytes apart, from `offset` —
    /// a whole strided transfer-plan set in one entry instead of one
    /// `(offset, len)` span per block. One request frame, one reply frame
    /// carrying every span concatenated in entry order, blocks ascending
    /// within an entry: the per-message overhead is paid once per source,
    /// not per block. A vector of entries is kept as it is until the owner
    /// serves them; a slice is copied.
    pub fn get_strided_nb(
        &self,
        id: WindowId,
        spans: impl Into<Vec<(u64, u64, u64, u64)>>,
    ) -> Result<GetHandle, RtsError> {
        let spans = spans.into();
        let cell = self.shared.lookup(id)?;
        let mut total = 0usize;
        for &(offset, stride, block, count) in spans.iter().filter(|s| s.3 > 0) {
            // The last block must end inside the window; overflow anywhere
            // on the way there is out of bounds too.
            let reach = (count - 1).checked_mul(stride).and_then(|last| last.checked_add(block));
            let bytes = block.checked_mul(count).and_then(|b| total.checked_add(b as usize));
            match (reach, bytes) {
                (Some(len), Some(sum)) if !out_of_bounds(offset, len, cell.len) => total = sum,
                _ => {
                    return Err(RtsError::OutOfBounds {
                        window: id,
                        offset,
                        len: reach.unwrap_or(u64::MAX),
                        size: cell.len as u64,
                    })
                }
            }
        }
        // Counted only once the spans are valid: a rejected get changes
        // nothing.
        self.shared.count_get(id, &cell);
        if pardis_obs::enabled() {
            pardis_obs::counter("rts.win.gets").inc();
            pardis_obs::counter("rts.win.get.bytes").add(total as u64);
        }
        let core = OpCore::new(&self.shared, self.rank);
        // The spans' bytes and the time they carry.
        let read = move || {
            let buf = cell.data.read();
            let mut out = vec![0u8; total];
            let mut at = 0;
            // An empty entry (no blocks, or blocks of no bytes) reads nothing.
            for &(offset, stride, block, count) in spans.iter().filter(|s| s.2 > 0 && s.3 > 0) {
                let len = (block * count) as usize;
                gather(&mut out[at..at + len], &buf[offset as usize..], stride, block);
                at += len;
            }
            (Bytes::from(out), f64::from_bits(cell.time.load(Ordering::Acquire)))
        };
        match self.shared.net_route(self.rank, id.owner) {
            Some((net, fh, th)) => {
                // Request frame to the owner; at its arrival the window is
                // read and the payload frame carries the spans back. The
                // initiating thread pays only the request's t_o.
                let core = core.clone();
                let reply_net = net.clone();
                net.transmit(fh, th, CTRL_FRAME_BYTES, move || {
                    let (data, written) = read();
                    let core = core.clone();
                    reply_net.transmit(th, fh, data.len() + CTRL_FRAME_BYTES, move |at: f64| {
                        core.complete(Some(data.clone()), at.max(written));
                    });
                });
            }
            None => {
                let (data, written) = read();
                core.complete(Some(data), written);
            }
        }
        Ok(GetHandle(core))
    }

    /// Read a span of a *local* window directly (a memcpy, no modelled wire
    /// cost — the owner reaching into its own exposed memory).
    pub fn read_local(&self, id: WindowId, offset: u64, len: u64) -> Result<Bytes, RtsError> {
        if id.owner != self.rank {
            return Err(RtsError::NotOwner { window: id, rank: self.rank });
        }
        let cell = self.shared.lookup(id)?;
        if out_of_bounds(offset, len, cell.len) {
            return Err(RtsError::OutOfBounds { window: id, offset, len, size: cell.len as u64 });
        }
        let buf = cell.data.read();
        Ok(Bytes::copy_from_slice(&buf[offset as usize..(offset + len) as usize]))
    }

    /// Block until every operation this rank initiated has delivered
    /// (puts landed, gets replied). The one-sided analogue of `MPI_Win_fence`
    /// restricted to the origin side.
    ///
    /// # Panics
    /// Panics if a rank of a `World::run` world has panicked.
    pub fn fence(&self) {
        if pardis_obs::enabled() {
            pardis_obs::counter("rts.win.fences").inc();
        }
        let _span = pardis_obs::Span::open("rts", "rts.win.fence", None, Vec::new());
        let rs = &self.shared.ranks[self.rank];
        let mut n = rs.inflight.lock();
        while *n > 0 && self.shared.poisoned().is_none() {
            rs.drained.wait(&mut n);
        }
        drop(n);
        self.shared.check(self.rank);
    }

    /// Operations initiated by this rank still in flight.
    pub fn pending_ops(&self) -> u64 {
        *self.shared.ranks[self.rank].inflight.lock()
    }

    /// Block until a delivery [`Notice`] with `tag` arrives at this rank,
    /// and raise the calling thread to the time its put carried.
    ///
    /// # Panics
    /// Panics if a rank of a `World::run` world has panicked.
    pub fn wait_notify(&self, tag: u64) -> Notice {
        let shared = &self.shared;
        loop {
            // Without a deadline the wait ends with a notice, or with a
            // poisoned world, which panics.
            let failed = || shared.poisoned().is_some();
            match shared.ranks[self.rank].notices.wait_until(|n| n.0.tag == tag, failed, None) {
                Some((notice, at)) => {
                    shared.raise(self.rank, at);
                    return notice;
                }
                None => shared.check(self.rank),
            }
        }
    }
}

impl std::fmt::Debug for Windows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Windows(rank {}/{})", self.rank, self.shared.size)
    }
}

/// Fill `out` with blocks of `block` bytes taken `stride` apart from the
/// front of `src` (`block > 0`). A block of one `f64` — a cyclic
/// redistribution's — is a fixed-width copy, not a `memcpy` call; any other
/// width is one `copy_from_slice` per block.
fn gather(out: &mut [u8], src: &[u8], stride: u64, block: u64) {
    let (stride, block) = (stride as usize, block as usize);
    if block == 8 {
        for (k, to) in out.chunks_exact_mut(8).enumerate() {
            to.copy_from_slice(&src[k * stride..][..8]);
        }
    } else {
        for (k, to) in out.chunks_exact_mut(block).enumerate() {
            to.copy_from_slice(&src[k * stride..][..block]);
        }
    }
}

/// Overflow-safe `[offset, offset+len) ⊄ [0, size)` check.
fn out_of_bounds(offset: u64, len: u64, size: usize) -> bool {
    offset.checked_add(len).is_none_or(|end| end > size as u64)
}
