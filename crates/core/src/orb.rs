//! The Object Request Broker.
//!
//! The `Orb` is the entity "responsible for managing requests between the
//! client and the server" (§2.2): it owns the endpoint registry (transport),
//! the object and implementation repositories, the registered servants (for
//! the collocated-call optimisation), and the global configuration knobs
//! (transfer strategy, local bypass, timeouts).

use crate::error::{OrbError, OrbResult};
use crate::interface_repo::InterfaceRepository;
use crate::object::{ClientId, DistPolicy, EndpointId, ObjectKey, ObjectRef, ServerId};
use crate::protocol::{Message, Wire};
use crate::repository::{ActivationMode, ImplementationRepository, ObjectRepository};
use crate::servant::Servant;
use pardis_audit::{lock_site, AuditCondvar, AuditMutex, AuditQueue, AuditRwLock};
use pardis_netsim::{HostId, IdMap, Network, Published, TimeScale};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How distributed arguments move between parallel client and parallel
/// server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransferStrategy {
    /// Direct thread-to-thread transfer planned from both distribution
    /// templates (the \[KG97\] optimisation). The default.
    #[default]
    Parallel,
    /// Everything funnels through thread 0 on both sides — models an ORB to
    /// which only one computing thread of the SPMD program is visible. The
    /// same path with `Concentrated(0)` as both wire templates: each side
    /// redistributes to and from its own template over its RTS.
    Funneled,
}

/// Global ORB configuration.
#[derive(Debug, Clone)]
pub struct OrbConfig {
    /// Distributed-argument transfer strategy.
    pub transfer_strategy: TransferStrategy,
    /// Turn collocated direct calls on/off (§4.1: "invocation on a local
    /// object becomes a direct call to the object, bypassing the network
    /// transport").
    pub local_bypass: bool,
    /// Activation agent behaviour.
    pub activation: ActivationMode,
    /// How long binds and invocations wait before giving up.
    pub timeout: Duration,
    /// Maximum retransmissions of an unanswered request before the
    /// invocation escalates to [`OrbError::Timeout`]. `0` disables the
    /// reliability layer entirely (the lossless-network default).
    pub retry_limit: u32,
    /// Base delay of the capped exponential retransmit backoff; attempt `k`
    /// waits roughly `retry_base * 2^k` plus seeded jitter.
    pub retry_base: Duration,
    /// Seed of the deterministic retransmit jitter.
    pub retry_seed: u64,
    /// Bound on each POA's at-most-once reply cache (entries). Oldest
    /// entries are evicted FIFO; an evicted invocation that is retransmitted
    /// re-executes (the at-most-once guarantee is bounded by this window).
    pub reply_cache_cap: usize,
    /// How many times a replicated-group invocation may fail over to another
    /// replica (re-resolve, mark the dead one suspect, replay) before the
    /// transport error is surfaced to the caller.
    pub failover_limit: u32,
    /// Default registration time-to-live handed to registry registrations,
    /// in virtual milliseconds; an entry whose heartbeats stop lapses after
    /// this much simulated time.
    pub registry_ttl_ms: u64,
}

impl Default for OrbConfig {
    fn default() -> Self {
        OrbConfig {
            transfer_strategy: TransferStrategy::Parallel,
            local_bypass: true,
            activation: ActivationMode::Activating,
            timeout: Duration::from_secs(30),
            retry_limit: 0,
            retry_base: Duration::from_millis(10),
            retry_seed: 0,
            reply_cache_cap: 1024,
            failover_limit: 3,
            registry_ttl_ms: 5_000,
        }
    }
}

/// A transport delivery: one wire frame and when it landed.
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    /// Encoded [`Message`] frame.
    pub wire: Wire,
    /// The frame's modelled arrival, in seconds: whoever takes the frame in
    /// raises its thread's time to it ([`Network::raise_thread_time`]).
    pub arrival: f64,
}

/// The receiving side of an endpoint, owned by the thread that drains it.
/// It dereferences to the endpoint's queue, whose takes accept any frame
/// (`|_| true`): frames are taken oldest first. Dropping it closes the
/// queue, so the frames that still arrive are dropped: the endpoint table
/// never forgets an endpoint, and a dead endpoint's queue must not grow.
pub(crate) struct Inbox(Arc<AuditQueue<Envelope>>);

impl std::ops::Deref for Inbox {
    type Target = AuditQueue<Envelope>;
    fn deref(&self) -> &AuditQueue<Envelope> {
        &self.0
    }
}

impl Inbox {
    /// Take the oldest frame, waiting up to `timeout` for one.
    #[cfg(test)]
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        self.0.wait_timeout(|_| true, timeout)
    }
}

impl Drop for Inbox {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Registered object metadata (what the repository hands to binders).
#[derive(Clone)]
pub(crate) struct ObjectMeta {
    pub oref: ObjectRef,
    pub policy: DistPolicy,
}

/// The ORB's routing table. `EndpointId → (host, delivery queue)`,
/// published as an immutable snapshot so [`Orb::send_wire`] resolves a
/// destination without acquiring any lock — together with the network's
/// lock-free topology snapshot this makes the steady-state send path
/// zero-lock.
type EndpointTable = IdMap<EndpointId, (HostId, Arc<AuditQueue<Envelope>>)>;

/// Shared-table identity for the happens-before checker: the endpoint
/// snapshot's *mutation* path. Writers run under `ep_lock`, so any two
/// writes must be ordered through it; the lock-free `load` side is
/// deliberately not access-checked — reading a stale snapshot is the
/// design, and the publish/load clocks in [`Published`] carry its
/// ordering.
static ENDPOINT_SNAPSHOT: pardis_audit::Site = pardis_audit::Site {
    label: "orb: endpoint snapshot",
    krate: "pardis-core",
    file: file!(),
    line: line!(),
};

pub(crate) struct OrbInner {
    pub network: Network,
    next_id: AtomicU64,
    endpoints: Published<EndpointTable>,
    /// Serialises endpoint table read-modify-publish cycles.
    ep_lock: AuditMutex<()>,
    /// Each registered server's request endpoints, in thread order.
    pub servers: AuditRwLock<IdMap<ServerId, Vec<EndpointId>>>,
    /// Shared with the adapters that activated each object, which keep it
    /// beside the servant.
    pub objects: AuditRwLock<IdMap<ObjectKey, Arc<ObjectMeta>>>,
    pub names: ObjectRepository,
    /// Objects registered so far: [`Orb::resolve`] parks on `registered`
    /// until this moves.
    registrations: AuditMutex<u64>,
    registered: AuditCondvar,
    pub impls: ImplementationRepository,
    pub interfaces: InterfaceRepository,
    #[allow(clippy::type_complexity)]
    pub servants: AuditRwLock<IdMap<(ServerId, usize, ObjectKey), Arc<dyn Servant>>>,
    /// Published like the endpoint table: every call reads it without a
    /// lock, and a `set_*` call takes effect from the next call.
    config: Published<OrbConfig>,
    /// Serialises configuration read-modify-publish cycles.
    config_lock: AuditMutex<()>,
    /// Total frames and bytes moved (for benches and EXPERIMENTS.md).
    traffic: Traffic,
    /// Invocation retransmission rounds performed by client pumps. Stays 0
    /// on a lossless network — asserted by the e2e suites as the
    /// pay-nothing proof.
    pub retransmits: AtomicU64,
    /// Reply-frame bytes the server's adapters retain for replay.
    pub(crate) reply_cache_bytes: AtomicU64,
}

/// The Object Request Broker. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct Orb {
    pub(crate) inner: Arc<OrbInner>,
}

impl Orb {
    /// An ORB over an existing simulated network.
    pub fn new(network: Network) -> Orb {
        Orb {
            inner: Arc::new(OrbInner {
                network,
                next_id: AtomicU64::new(1),
                endpoints: Published::new(EndpointTable::default()),
                ep_lock: AuditMutex::new(lock_site!("orb: endpoint republish"), ()),
                servers: AuditRwLock::new(lock_site!("orb: server records"), IdMap::default()),
                objects: AuditRwLock::new(lock_site!("orb: object metadata"), IdMap::default()),
                names: ObjectRepository::new(),
                registrations: AuditMutex::new(lock_site!("orb: registration count"), 0),
                registered: AuditCondvar::new(),
                impls: ImplementationRepository::new(),
                interfaces: InterfaceRepository::new(),
                servants: AuditRwLock::new(lock_site!("orb: servant table"), IdMap::default()),
                config: Published::new(OrbConfig::default()),
                config_lock: AuditMutex::new(lock_site!("orb: config republish"), ()),
                traffic: Traffic::default(),
                retransmits: AtomicU64::new(0),
                reply_cache_bytes: AtomicU64::new(0),
            }),
        }
    }

    /// Convenience: an ORB with one host and no delay injection — the
    /// configuration unit tests use.
    pub fn single_host() -> (Orb, HostId) {
        let net = Network::new(TimeScale::off());
        let host = net.add_host("localhost");
        (Orb::new(net), host)
    }

    /// The simulated network.
    pub fn network(&self) -> &Network {
        &self.inner.network
    }

    /// The implementation repository (activation).
    #[cfg(test)]
    pub(crate) fn impls(&self) -> &ImplementationRepository {
        &self.inner.impls
    }

    /// The interface repository (runtime type descriptions for the DII).
    pub fn interfaces(&self) -> &InterfaceRepository {
        &self.inner.interfaces
    }

    /// Snapshot of the configuration.
    pub fn config(&self) -> OrbConfig {
        self.cfg().clone()
    }

    /// The current configuration, borrowed: what each call reads.
    pub(crate) fn cfg(&self) -> &OrbConfig {
        self.inner.config.read()
    }

    /// Publish the configuration `change` makes of the current one.
    fn set_config(&self, change: impl FnOnce(&mut OrbConfig)) {
        let _guard = self.inner.config_lock.lock();
        let mut cfg = self.cfg().clone();
        change(&mut cfg);
        self.inner.config.store(cfg);
    }

    /// Set the distributed-argument transfer strategy.
    pub fn set_transfer_strategy(&self, s: TransferStrategy) {
        self.set_config(|c| c.transfer_strategy = s);
    }

    /// Enable/disable the collocated direct-call optimisation.
    pub fn set_local_bypass(&self, on: bool) {
        self.set_config(|c| c.local_bypass = on);
    }

    /// Configure the activation agent.
    #[cfg(test)]
    pub(crate) fn set_activation(&self, mode: ActivationMode) {
        self.set_config(|c| c.activation = mode);
    }

    /// Set the bind/invoke timeout.
    pub fn set_timeout(&self, t: Duration) {
        self.set_config(|c| c.timeout = t);
    }

    /// Set the maximum retransmissions per invocation (`0` = reliability
    /// layer off, the default on a lossless network).
    pub fn set_retry_limit(&self, n: u32) {
        self.set_config(|c| c.retry_limit = n);
    }

    /// Set the base delay of the retransmit backoff.
    pub fn set_retry_base(&self, d: Duration) {
        self.set_config(|c| c.retry_base = d);
    }

    /// Set the seed of the deterministic retransmit jitter.
    pub fn set_retry_seed(&self, seed: u64) {
        self.set_config(|c| c.retry_seed = seed);
    }

    /// Bound each POA's at-most-once reply cache. Takes effect for POAs
    /// attached after the call.
    ///
    /// # Panics
    /// Panics if `cap` is 0 (a cacheless POA cannot suppress duplicates).
    #[cfg(test)]
    pub(crate) fn set_reply_cache_cap(&self, cap: usize) {
        assert!(cap > 0, "reply cache cap must be positive");
        self.set_config(|c| c.reply_cache_cap = cap);
    }

    /// Set how many times a replicated-group invocation may fail over to
    /// another replica before surfacing the transport error.
    pub fn set_failover_limit(&self, n: u32) {
        self.set_config(|c| c.failover_limit = n);
    }

    /// Set the default registry registration time-to-live (virtual ms).
    pub fn set_registry_ttl_ms(&self, ttl_ms: u64) {
        self.set_config(|c| c.registry_ttl_ms = ttl_ms);
    }

    /// Retransmission rounds performed so far (0 on a lossless network).
    pub fn retransmits(&self) -> u64 {
        self.inner.retransmits.load(Ordering::Relaxed)
    }

    pub(crate) fn note_retransmit(&self) {
        self.inner.retransmits.fetch_add(1, Ordering::Relaxed);
    }

    /// Reply-frame bytes retained for replay across every live adapter of
    /// this ORB (each adapter thread keeps its own share under a fixed
    /// budget); exported as `poa.reply_cache_bytes`.
    pub fn reply_cache_bytes(&self) -> u64 {
        self.inner.reply_cache_bytes.load(Ordering::Relaxed)
    }

    /// Frames and bytes moved so far (diagnostics).
    pub fn traffic(&self) -> (u64, u64) {
        self.inner.traffic.totals()
    }

    pub(crate) fn alloc_id(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Create a transport endpoint on `host`; the receiver side goes to the
    /// owning thread.
    pub(crate) fn register_endpoint(&self, host: HostId) -> (EndpointId, Inbox) {
        let id = EndpointId(self.alloc_id());
        let queue = Arc::new(AuditQueue::new(lock_site!("orb: endpoint inbox")));
        let _guard = self.inner.ep_lock.lock();
        pardis_audit::access_write(
            &ENDPOINT_SNAPSHOT,
            Arc::as_ptr(&self.inner) as *const () as usize,
        );
        let mut table = self.inner.endpoints.read().clone();
        table.insert(id, (host, queue.clone()));
        self.inner.endpoints.store(table);
        (id, Inbox(queue))
    }

    #[cfg(test)]
    pub(crate) fn unregister_endpoint(&self, id: EndpointId) {
        let _guard = self.inner.ep_lock.lock();
        pardis_audit::access_write(
            &ENDPOINT_SNAPSHOT,
            Arc::as_ptr(&self.inner) as *const () as usize,
        );
        let mut table = self.inner.endpoints.read().clone();
        table.remove(&id);
        self.inner.endpoints.store(table);
    }

    /// Frames waiting in an endpoint's queue.
    #[cfg(test)]
    pub(crate) fn queued_frames(&self, id: EndpointId) -> Option<usize> {
        self.inner.endpoints.read().get(&id).map(|(_, inbox)| inbox.len())
    }

    /// Route a message to an endpoint, charging the network model for the
    /// frame size on the caller's thread (a send is synchronous — the
    /// paper's non-blocking invocations were not "oneway", so clients pay
    /// the send time; §4.3 leans on exactly this).
    pub(crate) fn send(&self, from_host: HostId, to: EndpointId, msg: &Message) -> OrbResult<()> {
        self.send_wire(from_host, to, msg.encode().into())
    }

    /// Put one already-encoded frame on the wire, as it is made: the ORB's
    /// only send path. A frame's body ([`Wire::body`]) travels, and is
    /// charged for, with its head, as the storage it is.
    ///
    /// Steady-state this acquires no lock: the endpoint table and the
    /// network topology are both immutable published snapshots. The frame
    /// lands in the destination's inbox, stamped with its modelled arrival,
    /// before this returns; its sender's host pays only the link's software
    /// overhead, and wire time elapses on the link's own timeline
    /// ([`Network::transmit`]; on a [`Network::blocking`] network the
    /// sender's time instead moves to the frame's arrival).
    ///
    /// The only error is an endpoint the ORB has never heard of. A frame
    /// the network drops, or one whose receiver has gone away, is
    /// indistinguishable from a frame arriving at a dead host: the send
    /// returns `Ok` whether the sender blocks or not, and recovery is the client
    /// pump's job.
    pub(crate) fn send_wire(&self, from_host: HostId, to: EndpointId, wire: Wire) -> OrbResult<()> {
        // Hazard hook: any audited lock still held here is held across the
        // wire (its hold time would include modelled network latency), and
        // the happens-before edge to the receiving pump rides the frame.
        pardis_audit::note_wire_call("Orb::send_wire/Network::transmit");
        pardis_audit::chan_send(to.0);
        let (to_host, inbox) = {
            let eps = self.inner.endpoints.read();
            let (h, inbox) = eps.get(&to).ok_or(OrbError::Disconnected)?;
            (*h, inbox.clone())
        };
        self.inner.traffic.count(wire.len());
        // `release` runs once per arriving copy. A closed inbox (its
        // receiver is gone) refuses the frame, which is then dropped.
        self.inner.network.transmit(from_host, to_host, wire.len(), move |arrival: f64| {
            let _ = inbox.push(Envelope { wire: wire.clone(), arrival });
        });
        Ok(())
    }

    /// Register object metadata + repository name. Returns the reference.
    pub(crate) fn register_object(
        &self,
        namespace: &str,
        name: &str,
        meta: Arc<ObjectMeta>,
    ) -> ObjectRef {
        let oref = meta.oref.clone();
        self.inner.objects.write().insert(oref.key, meta);
        self.inner.names.register(namespace, name, oref.key);
        *self.inner.registrations.lock() += 1;
        self.inner.registered.notify_all();
        oref
    }

    /// Remove an object (on server shutdown).
    pub(crate) fn unregister_object(&self, key: ObjectKey) {
        self.inner.objects.write().remove(&key);
    }

    pub(crate) fn object_meta(&self, key: ObjectKey) -> Option<Arc<ObjectMeta>> {
        self.inner.objects.read().get(&key).cloned()
    }

    /// Resolve `name` in `namespace` to an object reference, activating the
    /// implementation if the agent is configured to and one is registered.
    /// Waits up to the configured timeout for the object to be registered,
    /// parking until the next registration; a timeout whose deadline
    /// `Instant` cannot represent waits without one.
    pub fn resolve(&self, namespace: &str, name: &str) -> OrbResult<ObjectRef> {
        let cfg = self.config();
        let deadline = Instant::now().checked_add(cfg.timeout);
        let mut activated = false;
        loop {
            let seen = *self.inner.registrations.lock();
            if let Some(key) = self.inner.names.lookup(namespace, name) {
                if let Some(meta) = self.object_meta(key) {
                    return Ok(meta.oref.clone());
                }
            }
            if !activated && cfg.activation == ActivationMode::Activating {
                activated = self.inner.impls.launch_once(namespace, name);
                if activated {
                    continue; // give the launcher's registration a chance
                }
            }
            let mut count = self.inner.registrations.lock();
            while *count == seen {
                match deadline {
                    None => self.inner.registered.wait(&mut count),
                    Some(deadline) => {
                        let left = deadline.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            return Err(OrbError::ObjectNotFound(format!("{namespace}/{name}")));
                        }
                        self.inner.registered.wait_timeout(&mut count, left);
                    }
                }
            }
        }
    }

    /// A bound object's metadata: the server-side distribution policy the
    /// client plans in-argument transfers against.
    pub(crate) fn bound_meta(&self, key: ObjectKey) -> OrbResult<Arc<ObjectMeta>> {
        self.object_meta(key).ok_or_else(|| OrbError::ObjectNotFound(format!("key {}", key.0)))
    }

    /// Look up the request endpoints of an object's server, in thread order.
    pub(crate) fn server_endpoints(&self, server: ServerId) -> OrbResult<Vec<EndpointId>> {
        self.inner.servers.read().get(&server).cloned().ok_or(OrbError::Disconnected)
    }

    /// Register a servant for the collocated direct-call path.
    pub(crate) fn register_servant(
        &self,
        server: ServerId,
        thread: usize,
        key: ObjectKey,
        servant: Arc<dyn Servant>,
    ) {
        self.inner.servants.write().insert((server, thread, key), servant);
    }

    /// Fetch a collocated servant, if the object lives in this process.
    pub(crate) fn collocated_servant(
        &self,
        server: ServerId,
        thread: usize,
        key: ObjectKey,
    ) -> Option<Arc<dyn Servant>> {
        self.inner.servants.read().get(&(server, thread, key)).cloned()
    }

    /// Allocate an id for a client group.
    pub(crate) fn alloc_client(&self) -> ClientId {
        ClientId(self.alloc_id())
    }
}

/// Frames and bytes sent, counted in the sending thread's shard: the client
/// and adapter threads that both send then write no common cache line, and
/// [`Traffic::totals`] sums every shard, so the totals stay exact.
#[derive(Default)]
struct Traffic {
    shards: [TrafficShard; TRAFFIC_SHARDS],
}

/// Shards of [`Traffic`], handed to sending threads round-robin: enough
/// for the client and adapter threads of a two-host run to have one each
/// (threads beyond this many share them).
const TRAFFIC_SHARDS: usize = 8;

#[derive(Default)]
#[repr(align(64))]
struct TrafficShard {
    frames: AtomicU64,
    bytes: AtomicU64,
}

impl Traffic {
    /// Count one frame of `bytes` sent by the calling thread.
    fn count(&self, bytes: usize) {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
        }
        let shard = SHARD.with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT.fetch_add(1, Ordering::Relaxed) % TRAFFIC_SHARDS);
            }
            s.get()
        });
        let shard = &self.shards[shard];
        shard.frames.fetch_add(1, Ordering::Relaxed);
        shard.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn totals(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(f, b), s| {
            (f + s.frames.load(Ordering::Relaxed), b + s.bytes.load(Ordering::Relaxed))
        })
    }
}

impl std::fmt::Debug for Orb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Orb")
            .field("endpoints", &self.inner.endpoints.read().len())
            .field("servers", &self.inner.servers.read().len())
            .field("objects", &self.inner.objects.read().len())
            .finish()
    }
}
