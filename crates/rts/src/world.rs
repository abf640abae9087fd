//! The MPI-like world of computing threads.
//!
//! Modelled time crosses it as Lamport's clocks do, in modelled seconds: a
//! message carries, beside its bytes, its frame's arrival on a networked
//! world or else its sender's time on the host an ORB bound it to
//! ([`crate::Windows::bind_timeline`]), and taking it in raises the taker.

use crate::window::{WindowShared, Windows, CTRL_FRAME_BYTES};
use crate::{tags, Msg};
use bytes::Bytes;
use pardis_audit::{lock_site, AuditCondvar, AuditMutex, AuditQueue, SharedWake};
use pardis_netsim::{HostId, Network};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-rank mailbox with unordered tag matching (like an MPI receive
/// queue). Each message waits with the modelled time it carries.
type Mailbox = AuditQueue<(Msg, f64)>;

/// Central counter barrier.
struct Barrier {
    state: AuditMutex<BarrierState>,
    released: AuditCondvar,
}

/// The open generation, with the host and modelled time of each bound rank
/// that arrived in it, and the arrivals of the last one to complete, which
/// every rank it released reads before the next can complete.
#[derive(Default)]
struct BarrierState {
    arrived: usize,
    generation: u64,
    arrivals: Vec<(HostId, f64)>,
    released: Vec<(HostId, f64)>,
}

struct WorldInner {
    size: usize,
    mailboxes: Vec<Mailbox>,
    barrier: Barrier,
    /// One-sided window state shared by all ranks; also holds the optional
    /// modelled-network binding consulted by [`Rank::send`], and the mark of
    /// the first rank whose closure in [`World::run`] panicked.
    windows: Arc<WindowShared>,
}

impl WorldInner {
    /// Queue `msg`, carrying modelled time `at`, in rank `to`'s mailbox.
    /// Mailboxes are never closed, so the push always lands.
    fn deliver(&self, to: usize, msg: Msg, at: f64) {
        let _ = self.mailboxes[to].push((msg, at));
    }

    /// Rank `rank` panicked: fail every receive, barrier and window wait of
    /// the world from now on. The first rank to fail is the one named.
    /// Waiters check the mark under the lock they park with, and each lock
    /// is taken here before its waiters are woken, so none sleeps through
    /// it.
    fn poison(&self, rank: usize) {
        self.windows.poison(rank);
        for mailbox in &self.mailboxes {
            mailbox.wake();
        }
        drop(self.barrier.state.lock());
        self.barrier.released.notify_all();
    }
}

/// Poisons its rank's world if the rank's thread unwinds.
struct PoisonOnPanic {
    world: Arc<WorldInner>,
    rank: usize,
}

impl Drop for PoisonOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.world.poison(self.rank);
        }
    }
}

/// A world of `size` computing threads.
///
/// Analogous to `MPI_COMM_WORLD`: create one, hand each thread its
/// [`Rank`], and let them communicate. The convenience entry point
/// [`World::run`] spawns the threads for you (the usual SPMD launch).
#[derive(Clone)]
pub struct World {
    inner: Arc<WorldInner>,
}

impl World {
    /// Create a world and return the per-thread [`Rank`] handles, in rank
    /// order.
    ///
    /// # Panics
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> (World, Vec<Rank>) {
        assert!(size > 0, "world size must be at least 1");
        let windows = WindowShared::new(size);
        let inner = Arc::new(WorldInner {
            size,
            mailboxes: (0..size).map(|_| Mailbox::new(lock_site!("rts: mailbox"))).collect(),
            barrier: Barrier {
                state: AuditMutex::new(lock_site!("rts: barrier"), BarrierState::default()),
                released: AuditCondvar::new(),
            },
            windows: windows.clone(),
        });
        let ranks = (0..size)
            .map(|r| Rank {
                world: inner.clone(),
                rank: r,
                coll_seq: AtomicU64::new(0),
                windows: Windows::endpoint(windows.clone(), r),
            })
            .collect();
        (World { inner }, ranks)
    }

    /// SPMD launch: run `f(rank)` on `size` OS threads and collect the
    /// results in rank order.
    ///
    /// A rank that panics poisons the world: every rank blocked in, or
    /// later entering, a receive, barrier, window turn, fence or
    /// notification wait of it panics too, naming the failed rank, and
    /// `run` panics with the first rank's message once every thread has
    /// ended.
    pub fn run<R, F>(size: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Rank) -> R + Send + Sync,
    {
        let (world, ranks) = World::new(size);
        let f = &f;
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = ranks
                .into_iter()
                .map(|rank| {
                    let guard = PoisonOnPanic { world: world.inner.clone(), rank: rank.rank };
                    scope.spawn(move || {
                        let _guard = guard;
                        f(rank)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        if let Some(failed) = world.inner.windows.poisoned() {
            let payload = results.into_iter().nth(failed).and_then(Result::err);
            let msg = payload.as_ref().and_then(|p| {
                p.downcast_ref::<&str>().copied().or(p.downcast_ref::<String>().map(String::as_str))
            });
            panic!("computing thread panicked: rank {failed}: {}", msg.unwrap_or("(no message)"));
        }
        // No rank panicked (a panic poisons the world), so every result is
        // a value.
        results.into_iter().map(|r| r.unwrap_or_else(|p| std::panic::resume_unwind(p))).collect()
    }

    /// Number of computing threads.
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// Bind the world to a modelled [`Network`]: `hosts[r]` is the host rank
    /// `r` runs on. Two-sided sends, and the messages of the collectives
    /// built on them, then pay a rendezvous (request-to-send,
    /// clear-to-send, payload — three frames plus the receiver's matching
    /// overhead) and one-sided window operations pay their single- or
    /// two-frame cost, all through the overlapped transmit engine. Rank
    /// `r`'s modelled time is then its thread's time on `hosts[r]` of `net`,
    /// and a message carries its frame's arrival. Bind fault-free networks
    /// only: this layer models cost, not loss, so a dropped frame would
    /// stall a receive forever.
    ///
    /// # Panics
    /// Panics if `hosts` does not name one host per rank.
    pub fn attach_network(&self, net: Network, hosts: Vec<HostId>) {
        self.inner.windows.attach(net, hosts);
    }
}

/// One computing thread's endpoint into its [`World`].
///
/// A `Rank` is owned by exactly one thread (it is `Send` but deliberately not
/// `Clone`); all state it reaches is behind the world's locks.
pub struct Rank {
    world: Arc<WorldInner>,
    rank: usize,
    /// Collective sequence number. SPMD discipline (all ranks execute
    /// collectives in the same order) makes equal sequence numbers match up,
    /// which keys each collective's internal tags.
    coll_seq: AtomicU64,
    /// This rank's endpoint into the one-sided window layer.
    windows: Windows,
}

impl Rank {
    /// This thread's rank, `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.world.size
    }

    /// This rank's one-sided window endpoint.
    pub fn windows(&self) -> &Windows {
        &self.windows
    }

    /// Asynchronous tagged send. Never blocks (mailboxes are unbounded).
    /// The message carries the sender's modelled time: its payload frame's
    /// arrival on a networked world, the calling thread's time otherwise.
    ///
    /// With a network attached ([`World::attach_network`]) the send is
    /// modelled as an MPI-style rendezvous — a request-to-send control
    /// frame, a clear-to-send back, then the payload frame, with the
    /// receiver paying one matching overhead at delivery — so two-sided
    /// traffic carries the three-frame handshake cost the one-sided layer
    /// avoids. Without a network the message lands immediately at zero
    /// modelled cost, as ever.
    ///
    /// # Panics
    /// Panics if `to` is out of range.
    pub fn send(&self, to: usize, tag: u64, data: Bytes) {
        assert!(to < self.world.size, "send to rank {to} out of range");
        if pardis_obs::enabled() {
            pardis_obs::counter("rts.sends").inc();
            pardis_obs::counter("rts.bytes").add(data.len() as u64);
        }
        let msg = Msg::new(self.rank, tag, data);
        if let Some((net, fh, th)) = self.world.windows.net_route(self.rank, to) {
            let world = self.world.clone();
            let payload_bytes = msg.data.len() + CTRL_FRAME_BYTES;
            let cts_net = net.clone();
            // Rendezvous chain: each stage departs at the previous frame's
            // modelled arrival (the engine's local-clock causality), so the
            // makespan sees 3 latencies + 3 software overheads + the
            // payload's wire time per message.
            net.transmit(fh, th, CTRL_FRAME_BYTES, move || {
                let world = world.clone();
                let msg = msg.clone();
                let payload_net = cts_net.clone();
                cts_net.transmit(th, fh, CTRL_FRAME_BYTES, move || {
                    let world = world.clone();
                    let msg = msg.clone();
                    let deliver_net = payload_net.clone();
                    payload_net.transmit(fh, th, payload_bytes, move |at: f64| {
                        // Receiver-side matching overhead, then delivery.
                        let t_o = deliver_net.link_between(fh, th).overhead_s;
                        deliver_net.charge_wait(th, Duration::from_secs_f64(t_o));
                        world.deliver(to, msg.clone(), at);
                    });
                });
            });
            return;
        }
        self.world.deliver(to, msg, self.world.windows.now(self.rank));
    }

    /// Blocking receive matching `(from, tag)`; `from = None` accepts any
    /// source. Raises the calling thread to the time the message carried,
    /// as every receive does.
    ///
    /// # Panics
    /// Panics if a rank of a [`World::run`] world has panicked.
    pub fn recv(&self, from: Option<usize>, tag: u64) -> Msg {
        loop {
            // Without a deadline the wait ends with a message, or with a
            // poisoned world, which panics.
            if let Some(msg) = self.recv_until(from, tag, None) {
                return msg;
            }
        }
    }

    /// Blocking receive with a timeout, raising as [`Rank::recv`] does.
    /// `None` on expiry; a timeout too long to express as a deadline waits
    /// without one.
    ///
    /// # Panics
    /// As [`Rank::recv`].
    pub fn recv_timeout(&self, from: Option<usize>, tag: u64, timeout: Duration) -> Option<Msg> {
        self.recv_until(from, tag, Instant::now().checked_add(timeout))
    }

    fn recv_until(&self, from: Option<usize>, tag: u64, deadline: Option<Instant>) -> Option<Msg> {
        let world = &self.world;
        world.windows.check(self.rank);
        let msg = self.mailbox().wait_until(
            |(m, _)| m.matches(from, tag),
            || world.windows.poisoned().is_some(),
            deadline,
        );
        world.windows.check(self.rank);
        msg.map(|msg| self.take_in(msg))
    }

    /// Non-blocking receive, raising as [`Rank::recv`] does.
    pub fn try_recv(&self, from: Option<usize>, tag: u64) -> Option<Msg> {
        self.mailbox().take(|(m, _)| m.matches(from, tag)).map(|msg| self.take_in(msg))
    }

    /// Raise the calling thread to the time `msg` carried and hand it over.
    fn take_in(&self, (msg, at): (Msg, f64)) -> Msg {
        self.world.windows.raise(self.rank, at);
        msg
    }

    /// Park on `wake` until a message waits in this rank's mailbox,
    /// whatever its tag, or `ready()` holds; take nothing in. The first park
    /// binds the mailbox to `wake` ([`AuditQueue::bind`]), so a message that
    /// lands later, or the world's poisoning, wakes it; whatever makes
    /// `ready` hold must notify `wake` too.
    ///
    /// # Panics
    /// As [`Rank::recv`].
    pub fn park(&self, wake: &Arc<SharedWake>, ready: &mut dyn FnMut() -> bool) {
        let (mailbox, windows) = (self.mailbox(), &self.world.windows);
        mailbox.bind(wake);
        // The poison mark is read after the mailbox's lock, which `poison`
        // takes after setting it and before notifying `wake`.
        wake.wait_until(|| ready() || !mailbox.is_empty() || windows.poisoned().is_some());
        windows.check(self.rank);
    }

    fn mailbox(&self) -> &Mailbox {
        &self.world.mailboxes[self.rank]
    }

    fn next_coll_tag(&self) -> u64 {
        tags::COLLECTIVE_BASE | self.coll_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Synchronise all ranks (central counter barrier). Every rank leaves
    /// raised to the latest time a rank on its host arrived with: the
    /// barrier is unpriced, so it carries no time between hosts, where only
    /// a priced frame may. A world without a network has all its ranks on
    /// the host its ORB runs them on, so every rank leaves at the latest.
    ///
    /// # Panics
    /// As [`Rank::recv`].
    pub fn barrier(&self) {
        // Barrier participation also consumes a collective sequence number so
        // barriers interleave correctly with the message-based collectives.
        self.coll_seq.fetch_add(1, Ordering::Relaxed);
        let (b, windows) = (&self.world.barrier, &self.world.windows);
        windows.check(self.rank);
        let clock = windows.clock(self.rank);
        let mut state = b.state.lock();
        let gen = state.generation;
        state.arrived += 1;
        state.arrivals.extend(clock);
        if state.arrived == self.world.size {
            let BarrierState { arrived, generation, arrivals, released } = &mut *state;
            (*arrived, *generation) = (0, gen.wrapping_add(1));
            std::mem::swap(arrivals, released);
            arrivals.clear();
            b.released.notify_all();
        } else {
            while state.generation == gen && windows.poisoned().is_none() {
                b.released.wait(&mut state);
            }
        }
        let host = clock.map(|(host, _)| host);
        let on_host = state.released.iter().filter(|(h, _)| Some(*h) == host);
        let at = on_host.fold(0.0, |at, &(_, t)| f64::max(at, t));
        drop(state);
        windows.check(self.rank);
        windows.raise(self.rank, at);
    }

    /// Broadcast from `root`: the root passes `Some(data)`, everyone gets the
    /// payload. Each copy leaves through [`Rank::send`], so on a networked
    /// world it pays what a send pays, and it carries time as a send does;
    /// so do [`Rank::gather`]'s and [`Rank::scatter`]'s parts. A collective's
    /// result therefore raises its taker to the latest part it depends on:
    /// the root of a gather to every rank's, the others of a broadcast or a
    /// scatter to the root's.
    ///
    /// # Panics
    /// Panics if the root passes `None` or a non-root passes `Some`.
    pub fn broadcast(&self, root: usize, data: Option<Bytes>) -> Bytes {
        let tag = self.next_coll_tag();
        if self.rank == root {
            let data = data.expect("broadcast root must supply data");
            for to in (0..self.world.size).filter(|&to| to != root) {
                self.send(to, tag, data.clone());
            }
            data
        } else {
            assert!(data.is_none(), "non-root rank passed data to broadcast");
            self.recv(Some(root), tag).data
        }
    }

    /// Gather each rank's `part` at `root` (in rank order). Non-roots get
    /// `None`.
    pub fn gather(&self, root: usize, part: Bytes) -> Option<Vec<Bytes>> {
        let tag = self.next_coll_tag();
        if self.rank == root {
            let mut parts: Vec<Option<Bytes>> = vec![None; self.world.size];
            parts[root] = Some(part);
            for _ in 0..self.world.size - 1 {
                let msg = self.recv(None, tag);
                parts[msg.from] = Some(msg.data);
            }
            Some(parts.into_iter().map(|p| p.expect("every rank contributed")).collect())
        } else {
            self.send(root, tag, part);
            None
        }
    }

    /// Scatter: the root supplies one payload per rank; each rank receives
    /// its own.
    ///
    /// # Panics
    /// Panics if the root's `parts` has the wrong length, the root passes
    /// `None`, or a non-root passes `Some`.
    pub fn scatter(&self, root: usize, parts: Option<Vec<Bytes>>) -> Bytes {
        let tag = self.next_coll_tag();
        if self.rank == root {
            let parts = parts.expect("scatter root must supply parts");
            assert_eq!(parts.len(), self.world.size, "scatter needs one part per rank");
            let mut own = None;
            for (to, part) in parts.into_iter().enumerate() {
                if to == root {
                    own = Some(part);
                } else {
                    self.send(to, tag, part);
                }
            }
            own.expect("root part present")
        } else {
            assert!(parts.is_none(), "non-root rank passed parts to scatter");
            self.recv(Some(root), tag).data
        }
    }
}

impl std::fmt::Debug for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Rank({}/{})", self.rank, self.world.size)
    }
}
