//! The client side of the ORB: binding, proxies, invocation.
//!
//! A parallel client is a [`ClientGroup`] of computing threads. Each thread
//! attaches for its [`ClientThread`], then binds to objects either
//! collectively ([`ClientThread::spmd_bind`], one binding representing the
//! whole parallel client) or individually ([`ClientThread::bind`], one
//! binding per thread) — §3.1. Operations are invoked through a
//! [`CallBuilder`], blocking ([`CallBuilder::invoke`]), non-blocking with
//! futures ([`CallBuilder::invoke_nb`]) or oneway
//! ([`CallBuilder::invoke_oneway`]).

use crate::dist::Distribution;
use crate::dseq::DSequence;
use crate::error::{OrbError, OrbResult};
use crate::object::{BindingId, ClientId, EndpointId, ObjectKind, ObjectRef};
use crate::orb::{Inbox, ObjectMeta, Orb, OrbConfig, TransferStrategy};
use crate::protocol::{
    batch_depth_allowed, refuse_frame, ArgDir, DArgDesc, FragmentMsg, InArgs, Message, ReplyMsg,
    ReplyStatus, RequestView, Wire,
};
use crate::servant::{ServantCtx, ServerRequest};
use crate::strided::{assemble, cut_fragments, wire_template, Pack};
use bytes::Bytes;
use pardis_audit::{lock_site, AuditMutex};
use pardis_cdr::{Any, ByteOrder, CdrCodec, Decoder, Encoder, TypeCode};
use pardis_netsim::{HostId, IdMap, IdSet, Published};
use pardis_rts::Rts;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// A (possibly parallel) client registered with the ORB. Clone into each
/// computing thread and call [`ClientGroup::attach`] there.
#[derive(Clone)]
pub struct ClientGroup {
    orb: Orb,
    id: ClientId,
    host: HostId,
    nthreads: usize,
    reply_eps: Vec<EndpointId>,
    reply_rxs: Arc<AuditMutex<Vec<Option<Inbox>>>>,
    /// Repository namespace, published as an immutable snapshot (the PR-5
    /// Arc-swap idiom): `attach` reads it without taking a lock.
    namespace: Arc<Published<String>>,
}

/// Shared-table identity for the happens-before checker: the per-thread
/// reply router (invocation key → in-flight state). One static site so
/// every access — register, route, re-arm, teardown — correlates.
static REPLY_TABLE: pardis_audit::Site = pardis_audit::Site {
    label: "client: reply table",
    krate: "pardis-core",
    file: file!(),
    line: line!(),
};

impl ClientGroup {
    /// Register a client of `nthreads` computing threads on `host`.
    pub fn create(orb: &Orb, host: HostId, nthreads: usize) -> ClientGroup {
        assert!(nthreads > 0, "client needs at least one computing thread");
        let id = orb.alloc_client();
        let mut reply_eps = Vec::with_capacity(nthreads);
        let mut reply_rxs = Vec::with_capacity(nthreads);
        for _ in 0..nthreads {
            let (ep, rx) = orb.register_endpoint(host);
            reply_eps.push(ep);
            reply_rxs.push(Some(rx));
        }
        ClientGroup {
            orb: orb.clone(),
            id,
            host,
            nthreads,
            reply_eps,
            reply_rxs: Arc::new(AuditMutex::new(
                lock_site!("client: reply-endpoint handoff"),
                reply_rxs,
            )),
            namespace: Arc::new(Published::new(crate::repository::DEFAULT_REPOSITORY.to_string())),
        }
    }

    /// Resolve names in a different repository namespace.
    #[cfg(test)]
    pub(crate) fn with_namespace(self, ns: &str) -> Self {
        self.namespace.store(ns.to_string());
        self
    }

    /// Claim computing thread `thread`'s client endpoint. `rts` is required
    /// when `nthreads > 1`; what the thread takes in through it raises its
    /// modelled time on this group's host, as a reply does.
    pub fn attach(&self, thread: usize, rts: Option<Arc<dyn Rts>>) -> ClientThread {
        assert!(thread < self.nthreads, "thread {thread} out of range");
        if self.nthreads > 1 {
            let r = rts.as_ref().expect("parallel clients must attach with an RTS endpoint");
            assert_eq!(r.size(), self.nthreads, "RTS world size != client thread count");
            assert_eq!(r.rank(), thread, "RTS rank != attaching thread");
        }
        if let Some(windows) = rts.as_ref().and_then(|r| r.windows()) {
            windows.bind_timeline(self.orb.network(), self.host);
        }
        let rx = self.reply_rxs.lock()[thread]
            .take()
            .unwrap_or_else(|| panic!("thread {thread} already attached"));
        pardis_obs::set_thread_label(&format!("client{}/{}", self.id.0, thread));
        ClientThread {
            core: Arc::new(PumpCore {
                orb: self.orb.clone(),
                host: self.host,
                client: self.id,
                thread,
                nthreads: self.nthreads,
                reply_eps: self.reply_eps.clone(),
                rx,
                rts,
                router: AuditMutex::new(lock_site!("client: reply router"), Router::default()),
                collective_seq: AtomicU64::new(0),
                single_seq: AtomicU64::new(0),
            }),
            namespace: self.namespace.read().clone(),
            spmd_bind_seq: AtomicU64::new(0),
            single_bind_seq: AtomicU64::new(0),
        }
    }
}

/// Per-thread message pump and reply router, shared between a thread's
/// proxies and the futures they mint.
pub(crate) struct PumpCore {
    pub orb: Orb,
    pub host: HostId,
    pub client: ClientId,
    pub thread: usize,
    pub nthreads: usize,
    pub reply_eps: Vec<EndpointId>,
    rx: Inbox,
    pub rts: Option<Arc<dyn Rts>>,
    router: AuditMutex<Router>,
    /// Invocation counter of the collective entity (all threads of an SPMD
    /// client stay in sync by the SPMD calling discipline).
    collective_seq: AtomicU64,
    /// Invocation counter of this thread acting as a single client.
    single_seq: AtomicU64,
}

/// Bounded FIFO memory of finished invocation keys.
#[derive(Default)]
struct DoneSet {
    set: IdSet<(BindingId, u64)>,
    order: VecDeque<(BindingId, u64)>,
}

/// Bound on the done-set and on the number of distinct orphan keys a pump
/// will stash — plenty for any live pipeline, small enough that duplicate
/// storms cannot grow memory without bound.
pub(crate) const PUMP_MEMORY_CAP: usize = 16 * 1024;

/// A client thread's reply router: the invocations it may still route
/// frames to, plus the orphan stash and done-set. Only the thread and its
/// [`CommThread`] take it. The three share one lock, so routing a reply is
/// a single acquisition, and registration's insert is atomic with its
/// orphan-stash take: a reply racing the registration can never strand in
/// the stash.
#[derive(Default)]
struct Router {
    live: IdMap<(BindingId, u64), Arc<InvocationState>>,
    /// Stashed frames with their modelled arrivals.
    orphans: IdMap<(BindingId, u64), Vec<(Message, f64)>>,
    /// Arrival order of stashed orphan keys, for capped FIFO eviction.
    /// Entries can go stale (register/unregister removed the key); eviction
    /// skips them.
    orphan_order: VecDeque<(BindingId, u64)>,
    done: DoneSet,
}

impl Router {
    /// A frame for no live invocation: a reply for a finished one is a
    /// retransmission by-product and is dropped (counter only — see
    /// [`InvInner::take`] for why this never becomes a trace event); one
    /// for an unknown key is stashed (bounded) for a registration racing it.
    fn stash(&mut self, key: (BindingId, u64), msg: Message, arrival: f64) {
        if self.done.set.contains(&key) {
            if pardis_obs::enabled() {
                pardis_obs::counter("client.dup_replies").inc();
            }
            return;
        }
        // Capped FIFO stash: evict the oldest distinct key (skipping stale
        // order entries) instead of silently refusing new ones, so a storm
        // of strays cannot pin the stash while live registrations starve.
        if !self.orphans.contains_key(&key) {
            while self.orphans.len() >= PUMP_MEMORY_CAP {
                let Some(old) = self.orphan_order.pop_front() else { break };
                if self.orphans.remove(&old).is_some() {
                    pardis_obs::counter("client.orphans.evicted").inc();
                }
            }
            self.orphan_order.push_back(key);
        }
        self.orphans.entry(key).or_default().push((msg, arrival));
    }
}

impl PumpCore {
    /// Register a fully pre-built invocation state. The critical section is
    /// one insert plus the orphan-stash take — atomic under the router lock,
    /// so a reply racing the registration routes either through the router
    /// or through the stash, never past both.
    fn register(&self, key: (BindingId, u64), state: Arc<InvocationState>) {
        let stashed = {
            let mut r = self.router.lock();
            // Inside the guard: the access inherits the lock's release
            // clock, so lock-ordered accesses never read as races.
            pardis_audit::access_write(&REPLY_TABLE, &self.router as *const _ as usize);
            r.live.insert(key, state);
            // The stash is almost always empty: skip hashing the key then.
            if r.orphans.is_empty() {
                None
            } else {
                r.orphans.remove(&key)
            }
        };
        for (msg, arrival) in stashed.into_iter().flatten() {
            self.route(msg, arrival, None);
        }
    }

    /// Forget an invocation that no holder keeps and nothing will
    /// retransmit: later copies of its frames are duplicates. Closes its
    /// invoke span when `close_span`.
    fn unregister(&self, state: &InvocationState, close_span: bool) {
        let key = state.key;
        {
            let mut r = self.router.lock();
            pardis_audit::access_write(&REPLY_TABLE, &self.router as *const _ as usize);
            if !r.orphans.is_empty() {
                r.orphans.remove(&key);
            }
            if r.live.remove(&key).is_some() && r.done.set.insert(key) {
                // Oldest out before newest in: the order queue never grows
                // past the cap.
                if r.done.order.len() == PUMP_MEMORY_CAP {
                    if let Some(old) = r.done.order.pop_front() {
                        r.done.set.remove(&old);
                    }
                }
                r.done.order.push_back(key);
            }
        }
        if !close_span {
            return;
        }
        // Outside the router lock: close the invoke span opened at launch.
        let mut args = Vec::new();
        if let Some(obs) = &state.obs {
            args.push(("trace", obs.ctx.trace_id.into()));
            args.push(("span", obs.ctx.span_id.into()));
            if pardis_obs::enabled() {
                // Completion closes the end-to-end latency window on the
                // virtual clock; per-op and per-binding histograms feed the
                // p50/p95/p99 exposition.
                let lat = pardis_obs::now_micros().saturating_sub(obs.start_us);
                pardis_obs::histogram(&format!("orb.invoke_latency_us.op.{}", obs.op)).observe(lat);
                pardis_obs::histogram(&format!("orb.invoke_latency_us.binding.{}", key.0 .0))
                    .observe(lat);
            }
        }
        pardis_obs::span_end("client", "client.invoke", Some((key.0 .0, key.1)), args);
    }

    /// Apply `event` to `state`'s record and act on what it leaves, in one
    /// critical section: a complete invocation lets go of its retransmit
    /// frames, and one that has neither a holder nor frames left is
    /// forgotten. Every event that can complete or release a registered
    /// invocation goes through here. True when the invocation is complete and a thread
    /// other than the one awaiting `awaiting` waits for it: that thread may
    /// be parked on the endpoint and must be woken.
    fn transition(
        &self,
        state: &InvocationState,
        awaiting: Option<(BindingId, u64)>,
        event: impl FnOnce(&mut InvInner),
    ) -> bool {
        let (wake, forget, close_span, _frames);
        {
            let mut inner = state.inner.lock();
            event(&mut inner);
            let complete = state.complete_locked(&inner);
            // The server answered in full: no retransmission will ever
            // need these frames again (dropped outside the lock).
            _frames = if complete { std::mem::take(&mut inner.replay) } else { Vec::new() };
            wake = complete && inner.waiters > u32::from(awaiting == Some(state.key));
            forget = inner.holders == 0 && inner.replay.is_empty();
            close_span = forget && std::mem::take(&mut inner.span_open);
        }
        if forget {
            self.unregister(state, close_span);
        }
        wake
    }

    /// Ingest every frame already delivered, without waiting; true if there
    /// was any. `awaiting` is the invocation the calling thread waits for,
    /// if any (see [`PumpCore::transition`]).
    pub(crate) fn pump_step(&self, awaiting: Option<(BindingId, u64)>) -> bool {
        let mut progressed = false;
        while let Some(env) = self.rx.take(|_| true) {
            pardis_audit::chan_recv(self.reply_eps[self.thread].0);
            self.ingest_wire(&env.wire, 0, env.arrival, awaiting);
            progressed = true;
        }
        progressed
    }

    /// [`PumpCore::pump_step`], but when nothing has arrived, park until a
    /// frame does (and ingest it), `done()` holds, or `until` passes.
    /// `done` is checked under the endpoint's lock, and whoever makes it
    /// hold wakes the endpoint ([`pardis_audit::AuditQueue::wake`]).
    pub(crate) fn pump_or_park(
        &self,
        awaiting: Option<(BindingId, u64)>,
        done: impl FnMut() -> bool,
        until: Option<Instant>,
    ) {
        if self.pump_step(awaiting) {
            return;
        }
        if let Some(env) = self.rx.wait_until(|_| true, done, until) {
            pardis_audit::chan_recv(self.reply_eps[self.thread].0);
            self.ingest_wire(&env.wire, 0, env.arrival, awaiting);
        }
    }

    /// Ingest one frame that sits inside `depth` batch envelopes and landed
    /// at modelled time `arrival`.
    fn ingest_wire(
        &self,
        wire: &Wire,
        depth: usize,
        arrival: f64,
        awaiting: Option<(BindingId, u64)>,
    ) {
        let Ok((msg, ..)) = Message::decode_traced(wire) else {
            refuse_frame();
            return;
        };
        // A batch envelope (a reply riding with an out-fragment): each
        // sub-frame is a complete wire frame — unpack and ingest
        // recursively, to a bounded depth.
        if let Message::Batch(frames) = &msg {
            if batch_depth_allowed(depth) {
                for frame in frames {
                    self.ingest_wire(frame, depth + 1, arrival, awaiting);
                }
            }
            return;
        }
        // A fragment for another thread is a frame no sender builds. This
        // thread is thread 0 of the invocations of its own bindings.
        if let Message::Fragment(f) = &msg {
            let me = if f.binding.0 & SINGLE_BINDING != 0 { 0 } else { self.thread };
            if f.dst_thread as usize != me {
                refuse_frame();
                return;
            }
        }
        self.route(msg, arrival, awaiting);
    }

    fn route(&self, msg: Message, arrival: f64, awaiting: Option<(BindingId, u64)>) {
        let key = match &msg {
            Message::Reply(r) => (r.binding, r.req_id),
            Message::Fragment(f) => (f.binding, f.req_id),
            // Close or stray messages at a client endpoint: ignore.
            _ => return,
        };
        let state = {
            let mut r = self.router.lock();
            pardis_audit::access_write(&REPLY_TABLE, &self.router as *const _ as usize);
            match r.live.get(&key) {
                Some(state) => state.clone(),
                None => return r.stash(key, msg, arrival),
            }
        };
        if self.transition(&state, awaiting, |inner| inner.take(msg, arrival)) {
            self.rx.wake();
        }
    }
}

/// Client-side record of one invocation; the rendezvous point between the
/// pump and the futures.
pub(crate) struct InvocationState {
    client_threads: usize,
    thread: usize,
    key: (BindingId, u64),
    #[cfg(test)]
    server: crate::object::ServerId,
    out_wire_idx: Vec<u32>,
    /// Per distributed out-argument: the distribution it crosses the wire
    /// in, and the one the caller expects it in.
    out_dists: Vec<(Distribution, Distribution)>,
    inner: AuditMutex<InvInner>,
    /// Tracing sidecar captured at launch (only while tracing): the
    /// invocation's causal context, operation name, and virtual-clock start
    /// for the per-op/per-binding latency histograms.
    obs: Option<InvObs>,
}

/// Tracing-only per-invocation observability state.
struct InvObs {
    ctx: pardis_obs::TraceCtx,
    op: String,
    start_us: u64,
}

/// The changing part of an invocation's record, under its one lock.
#[derive(Default)]
struct InvInner {
    reply: Option<ReplyMsg>,
    frags: IdMap<u32, Vec<FragmentMsg>>,
    /// `(argument, server thread)` of every fragment absorbed: a server
    /// thread sends each argument one fragment, so a second one is a
    /// duplicate or a retransmit and must not double-append elements.
    frag_seen: IdSet<(u32, u32)>,
    /// Threads in [`wait_complete`] on this invocation that may park.
    waiters: u32,
    /// Live [`Holder`]s: the handle and the futures minted from it.
    holders: u32,
    /// Frames this thread must re-send to nudge the server if the reply
    /// does not arrive: the request control plus this thread's fragments,
    /// pre-encoded with their destination endpoints. Empty for collocated
    /// calls, and again once the invocation completes or a wait on it gives
    /// up: nothing is left to retry, and whoever still holds the results
    /// must not also pin the request's bulk frames.
    replay: Vec<(EndpointId, Wire)>,
    /// A `client.invoke` trace span was opened for this invocation and is
    /// closed when the router forgets it.
    span_open: bool,
    /// The latest modelled arrival among the frames taken in: a wait that
    /// returns this invocation raises its thread's time there.
    arrival: f64,
}

impl InvInner {
    /// Take in a reply or fragment that landed at `arrival`.
    fn take(&mut self, msg: Message, arrival: f64) {
        self.arrival = self.arrival.max(arrival);
        match msg {
            Message::Reply(r) => {
                // A second reply copy for a still-registered invocation is
                // the same retransmission by-product the done-set catches
                // after unregistration; count it in the same place. Counter
                // only, no event: whether the pump sees the copy in this
                // drain or a later one is a scheduling race, and a trace
                // event would make the export non-reproducible.
                if self.reply.is_some() && pardis_obs::enabled() {
                    pardis_obs::counter("client.dup_replies").inc();
                }
                self.reply = Some(r);
            }
            Message::Fragment(f) if self.frag_seen.insert((f.arg, f.src_thread)) => {
                self.frags.entry(f.arg).or_default().push(f);
            }
            _ => {}
        }
    }
}

impl InvocationState {
    /// Reply present and, on success, every expected local out-element
    /// arrived. (All futures of one invocation resolve together, §3.3.)
    pub(crate) fn is_complete(&self) -> bool {
        let inner = self.inner.lock();
        self.complete_locked(&inner)
    }

    fn complete_locked(&self, inner: &InvInner) -> bool {
        let Some(reply) = &inner.reply else { return false };
        if !matches!(reply.status, ReplyStatus::Ok) {
            return true;
        }
        for (ordinal, wire_idx) in self.out_wire_idx.iter().enumerate() {
            let Some(out) = reply.douts.get(ordinal) else { return false };
            let expected =
                self.out_dists[ordinal].0.local_len(out.len, self.client_threads, self.thread);
            let arrived: u64 =
                inner.frags.get(wire_idx).map(|fs| fs.iter().map(|p| p.count).sum()).unwrap_or(0);
            if arrived < expected {
                return false;
            }
        }
        true
    }

    fn check_status(&self) -> OrbResult<()> {
        ok_reply(&self.inner.lock()).map(drop)
    }

    /// A decoder over scalar out slot `slot`.
    fn out_slot(&self, slot: usize) -> OrbResult<Decoder> {
        let inner = self.inner.lock();
        let blob = ok_reply(&inner)?
            .outs
            .get(slot)
            .ok_or_else(|| OrbError::Protocol(format!("no scalar out slot {slot}")))?;
        Ok(Decoder::new(blob.clone(), ByteOrder::native()))
    }

    pub(crate) fn scalar<T: CdrCodec>(&self, slot: usize) -> OrbResult<T> {
        Ok(T::decode(&mut self.out_slot(slot)?)?)
    }

    fn any(&self, slot: usize, tc: &TypeCode) -> OrbResult<Any> {
        Ok(Any::decode_value(tc, &mut self.out_slot(slot)?)?)
    }

    /// Distributed out-argument `ordinal` in the expected distribution.
    /// Collective over `rts` when it crossed the wire in another one.
    pub(crate) fn dseq<T: CdrCodec + Clone + Send + Sync + 'static>(
        &self,
        ordinal: usize,
        rts: Option<&dyn Rts>,
    ) -> OrbResult<DSequence<T>> {
        let inner = self.inner.lock();
        let reply = ok_reply(&inner)?;
        let wire_idx = *self
            .out_wire_idx
            .get(ordinal)
            .ok_or_else(|| OrbError::Protocol(format!("no distributed out-arg {ordinal}")))?;
        let (wire_dist, expected) = &self.out_dists[ordinal];
        let mut ds = {
            let out = reply
                .douts
                .get(ordinal)
                .ok_or_else(|| OrbError::Protocol("reply missing dout descriptor".into()))?;
            let (len, n, t) = (out.len, self.client_threads, self.thread);
            let pieces = inner.frags.get(&wire_idx).map(Vec::as_slice).unwrap_or_default();
            // The reply names the template the server cut the pieces from.
            let src = (&out.dist, out.nthreads as usize);
            let local = assemble(len, src, (wire_dist, n, t), pieces)?;
            DSequence::from_shared(local, len, wire_dist.clone(), n, t)
        };
        drop(inner);
        if wire_dist != expected {
            ds.redistribute(rts.expect("parallel client has an RTS"), expected.clone());
        }
        Ok(ds)
    }
}

/// The reply, if it has arrived and reports success; the server's exception
/// if it reports one.
fn ok_reply(inner: &InvInner) -> OrbResult<&ReplyMsg> {
    match &inner.reply {
        Some(ReplyMsg { status: ReplyStatus::Exception(msg), .. }) => {
            Err(OrbError::ServerException(msg.clone()))
        }
        Some(ReplyMsg { status: ReplyStatus::UserException { id, data }, .. }) => {
            Err(OrbError::UserException { id: id.clone(), data: data.clone() })
        }
        Some(reply) => Ok(reply),
        None => Err(OrbError::Protocol("reply not yet available".into())),
    }
}

/// One computing thread's client endpoint.
pub struct ClientThread {
    core: Arc<PumpCore>,
    namespace: String,
    spmd_bind_seq: AtomicU64,
    single_bind_seq: AtomicU64,
}

impl ClientThread {
    /// The ORB.
    pub fn orb(&self) -> &Orb {
        &self.core.orb
    }

    /// This thread's index.
    pub fn thread(&self) -> usize {
        self.core.thread
    }

    /// Ingest every message already delivered to this client's endpoint,
    /// without waiting for more. Between invocations nothing pumps the
    /// endpoint, so retransmission by-products (late duplicate replies) can
    /// sit in the channel indefinitely; call this before snapshotting
    /// observability counters so they get counted instead of lingering.
    pub fn drain_pending(&self) {
        self.core.pump_step(None);
    }

    /// This thread's reply endpoint (tests inject stray frames through it).
    #[cfg(test)]
    pub(crate) fn test_reply_ep(&self) -> EndpointId {
        self.core.reply_eps[self.core.thread]
    }

    /// The host this client runs on.
    pub fn host(&self) -> HostId {
        self.core.host
    }

    /// Collectively bind to `name`: the parallel client acts as one entity.
    /// Every computing thread must call this in the same order. Operations
    /// on the returned proxy must be invoked collectively and may use
    /// distributed arguments (§3.1).
    pub fn spmd_bind(&self, name: &str) -> OrbResult<Proxy> {
        let obj = self.core.orb.resolve(&self.namespace, name)?;
        self.spmd_bind_object(&obj)
    }

    /// Collectively bind straight to an already-resolved object reference —
    /// what a registry/failover layer does after resolving a logical group
    /// name out of band. Same collective discipline as [`spmd_bind`].
    ///
    /// [`spmd_bind`]: ClientThread::spmd_bind
    pub fn spmd_bind_object(&self, obj: &ObjectRef) -> OrbResult<Proxy> {
        let obj = obj.clone();
        let meta = self.core.orb.bound_meta(obj.key)?;
        let seq = binding_seq(&self.spmd_bind_seq, SINGLE_BINDING)?;
        let binding = BindingId((self.core.client.0 << 24) | seq);
        Ok(Proxy {
            core: self.core.clone(),
            obj,
            meta,
            endpoints: OnceLock::new(),
            binding,
            collective: true,
            launches: Launches::new(),
        })
    }

    /// Start a dedicated communication thread draining this client
    /// thread's endpoint (the §6 future-work experiment). See
    /// [`CommThread`].
    pub fn start_comm_thread(&self) -> CommThread {
        CommThread::spawn(self.core.clone())
    }

    /// Bind this thread individually: one binding per thread, invocations
    /// are per-thread, distributed arguments are passed whole (the second
    /// stub PARDIS generates for single-client use, §3.1).
    pub fn bind(&self, name: &str) -> OrbResult<Proxy> {
        let obj = self.core.orb.resolve(&self.namespace, name)?;
        self.bind_object(&obj)
    }

    /// Bind this thread individually to an already-resolved object
    /// reference, skipping the repository lookup. The failover layer uses
    /// this to rebind an invocation to a surviving replica whose reference
    /// came from the registry.
    pub fn bind_object(&self, obj: &ObjectRef) -> OrbResult<Proxy> {
        let obj = obj.clone();
        let meta = self.core.orb.bound_meta(obj.key)?;
        let seq = binding_seq(&self.single_bind_seq, 1 << 16)?;
        let binding = BindingId(
            (self.core.client.0 << 24)
                | SINGLE_BINDING
                | ((self.core.thread as u64 & 0x7f) << 16)
                | seq,
        );
        Ok(Proxy {
            core: self.core.clone(),
            obj,
            meta,
            endpoints: OnceLock::new(),
            binding,
            collective: false,
            launches: Launches::new(),
        })
    }
}

/// The bit that marks a binding as one thread's own ([`ClientThread::bind`])
/// rather than the whole group's.
const SINGLE_BINDING: u64 = 1 << 23;

/// The next binding sequence number from `counter`, which must stay below
/// `limit`, the lowest bit of the binding-id field above it: past that it
/// would read as another thread's or kind's binding.
pub(crate) fn binding_seq(counter: &AtomicU64, limit: u64) -> OrbResult<u64> {
    let seq = counter.fetch_add(1, Ordering::Relaxed);
    if seq >= limit {
        return Err(OrbError::Protocol(format!("binding ids used up: {limit} bindings made")));
    }
    Ok(seq)
}

/// A bound object proxy. Generated typed proxies wrap this; it can also be
/// driven directly (the dynamic invocation interface).
pub struct Proxy {
    core: Arc<PumpCore>,
    obj: ObjectRef,
    /// What the bind looked up: the server-side distribution policy
    /// in-arguments are planned against.
    meta: Arc<ObjectMeta>,
    /// The object's server endpoints in thread order, looked up on the
    /// first call that goes to the network.
    endpoints: OnceLock<Vec<EndpointId>>,
    binding: BindingId,
    collective: bool,
    launches: AuditMutex<Launches>,
}

/// A proxy's request ids, and the two-way invocations it launched under
/// them that may still be open, oldest first.
struct Launches {
    next_id: u64,
    open: VecDeque<(u64, Weak<InvocationState>)>,
    /// Length at which finished invocations behind an open one are swept
    /// out, so that one invocation left open for good pins no others.
    sweep_at: usize,
}

/// The smallest length at which [`Launches`] sweeps.
const LAUNCH_SWEEP_MIN: usize = 64;

impl Launches {
    fn new() -> AuditMutex<Launches> {
        let launches = Launches { next_id: 0, open: VecDeque::new(), sweep_at: LAUNCH_SWEEP_MIN };
        AuditMutex::new(lock_site!("client: proxy launches"), launches)
    }

    /// Take the next request id, `build` the invocation's state under it,
    /// and record the state when the invocation is `two_way`. Returns the
    /// state and the acknowledgement lag its in-fragments carry: with
    /// `oldest` the oldest id still open (this one, if nothing older is),
    /// the lag is `id - oldest + 1`, so the server reads `id - lag` as
    /// "every request up to here has completed". 0 acknowledges nothing:
    /// when `oldest` is 0, or when the lag would not fit.
    ///
    /// An invocation is finished once complete or dropped: either way
    /// nothing retransmits it again ([`retransmit`] skips complete ones).
    fn launch(
        &mut self,
        two_way: bool,
        build: impl FnOnce(u64) -> Arc<InvocationState>,
    ) -> (Arc<InvocationState>, u16) {
        fn finished(state: &Weak<InvocationState>) -> bool {
            state.upgrade().is_none_or(|s| s.is_complete())
        }
        let id = self.next_id;
        self.next_id += 1;
        let state = build(id);
        while self.open.front().is_some_and(|(_, s)| finished(s)) {
            self.open.pop_front();
        }
        if self.open.len() >= self.sweep_at {
            self.open.retain(|(_, s)| !finished(s));
            self.sweep_at = LAUNCH_SWEEP_MIN.max(2 * self.open.len());
        }
        if two_way {
            self.open.push_back((id, Arc::downgrade(&state)));
        }
        let lag = match self.open.front().map_or(id, |&(oldest, _)| oldest) {
            0 => 0,
            oldest => u16::try_from(id - oldest + 1).unwrap_or(0),
        };
        (state, lag)
    }
}

impl Proxy {
    /// The bound object's reference.
    #[cfg(test)]
    pub(crate) fn object(&self) -> &ObjectRef {
        &self.obj
    }

    /// Begin an invocation of `op`.
    pub fn call<'p>(&'p self, op: &'p str) -> CallBuilder<'p> {
        CallBuilder { proxy: self, op, ins: None, nins: 0, dargs: Vec::new() }
    }

    /// The object's server endpoints, in thread order.
    fn endpoints(&self) -> OrbResult<&[EndpointId]> {
        if let Some(endpoints) = self.endpoints.get() {
            return Ok(endpoints);
        }
        let endpoints = self.core.orb.server_endpoints(self.obj.server)?;
        Ok(self.endpoints.get_or_init(|| endpoints))
    }

    /// Do this proxy's calls take the funneled path under `cfg`? Only SPMD
    /// objects with more than one thread on some side do.
    fn funneled(&self, cfg: &OrbConfig) -> bool {
        let cthreads = if self.collective { self.core.nthreads } else { 1 };
        cfg.transfer_strategy == TransferStrategy::Funneled
            && self.obj.kind == ObjectKind::Spmd
            && (cthreads > 1 || self.obj.nthreads > 1)
    }
}

enum DArgEntry {
    In { len: u64, client_dist: Distribution, share: Box<dyn Pack> },
    Out { expected_dist: Distribution },
}

/// Builder for one invocation: scalar arguments, distributed arguments,
/// expected out distributions — then `invoke` / `invoke_nb` /
/// `invoke_oneway`.
pub struct CallBuilder<'p> {
    proxy: &'p Proxy,
    op: &'p str,
    /// The scalar in-arguments, framed as the request carries them
    /// ([`InArgs::Framed`]): one buffer per call, made by the first.
    ins: Option<Encoder>,
    nins: u32,
    dargs: Vec<DArgEntry>,
}

impl<'p> CallBuilder<'p> {
    /// Append a scalar (non-distributed) in-argument.
    pub fn arg<T: CdrCodec>(self, v: &T) -> Self {
        self.push_in(|e| v.encode(e))
    }

    /// Append a dynamically typed in-argument (dynamic invocation
    /// interface).
    pub fn any_arg(self, a: &Any) -> Self {
        self.push_in(|e| a.encode_value(e))
    }

    /// Append the scalar slot `encode` writes, as a stream of its own.
    fn push_in(mut self, encode: impl FnOnce(&mut Encoder)) -> Self {
        let ins = self.ins.get_or_insert_with(|| Encoder::with_capacity(ByteOrder::native(), 32));
        ins.write_byte_seq_with(0, encode);
        self.nins += 1;
        self
    }

    /// The framed scalar in-arguments.
    fn framed_ins(&self) -> &[u8] {
        self.ins.as_ref().map_or(&[], Encoder::as_slice)
    }

    /// The scalar in-arguments one blob per slot, as a servant reads them:
    /// views into the call's one buffer, which this takes without copying.
    fn take_in_slots(&mut self) -> OrbResult<Vec<Bytes>> {
        let Some(ins) = self.ins.take() else { return Ok(Vec::new()) };
        let mut d = Decoder::new(ins.finish(), ByteOrder::native());
        (0..self.nins).map(|_| Ok(d.read_byte_seq_bytes()?)).collect()
    }

    /// Append a distributed in-argument from this thread's view of the
    /// sequence (SPMD stub variant).
    pub fn dseq_in<T: CdrCodec + Clone + Send + Sync + 'static>(
        mut self,
        ds: &DSequence<T>,
    ) -> Self {
        self.dargs.push(DArgEntry::In {
            len: ds.len(),
            client_dist: ds.dist().clone(),
            share: Box::new(ds.clone()),
        });
        self
    }

    /// Append a whole (non-distributed) sequence as a distributed
    /// in-argument — the stub variant generated "with corresponding
    /// non-distributed arguments to support single invocations" (§3.1).
    pub fn dseq_in_full<T: CdrCodec + Clone + Send + Sync + 'static>(self, elems: Vec<T>) -> Self {
        let ds = DSequence::concentrated(elems);
        self.dseq_in(&ds)
    }

    /// Declare a distributed out-argument and the distribution this side
    /// expects it in (§3.2: "the client can set the distribution of the
    /// expected 'out' arguments before making an invocation").
    pub fn dseq_out(mut self, expected_dist: Distribution) -> Self {
        self.dargs.push(DArgEntry::Out { expected_dist });
        self
    }

    /// Blocking invocation: returns only after the request "has been fully
    /// processed by the server".
    pub fn invoke(self) -> OrbResult<ReplyData> {
        self.invoke_nb()?.wait()
    }

    /// Non-blocking invocation: returns immediately after the request has
    /// been sent, with a handle minting futures for the out-arguments and
    /// return value.
    pub fn invoke_nb(self) -> OrbResult<InvocationHandle> {
        Ok(self.launch(false)?.expect("a two-way call has a handle"))
    }

    /// Oneway invocation: no reply at all (§4.3 discusses the cost of
    /// non-blocking invocations *not* being oneway).
    ///
    /// Under the funneled strategy the call still returns no results, but
    /// it waits for the server's reply like [`CallBuilder::invoke`]: every
    /// server thread runs a funneled call collectively, so its control must
    /// reach each of them, and only the reply says it has.
    pub fn invoke_oneway(self) -> OrbResult<()> {
        let funneled = self.proxy.funneled(self.proxy.core.orb.cfg());
        if let Some(handle) = self.launch(!funneled)? {
            handle.holder.wait_complete()?;
        }
        Ok(())
    }

    /// Validate, register, and ship the request. Returns the handle of a
    /// two-way call, which holds its registration from here on: an error
    /// past registration drops it, and the router forgets the invocation.
    fn launch(mut self, oneway: bool) -> OrbResult<Option<InvocationHandle>> {
        let proxy = self.proxy;
        let core = &proxy.core;
        let cfg = core.orb.cfg();

        // Single objects cannot take distributed arguments (§3.1).
        if matches!(proxy.obj.kind, ObjectKind::Single { .. }) && !self.dargs.is_empty() {
            return Err(OrbError::Protocol(
                "single objects cannot operate on distributed arguments".into(),
            ));
        }

        // The calling side's shape: collective proxies span the whole client
        // group; per-thread bindings act as a 1-thread client.
        let (cthreads, cthread, reply_to) = if proxy.collective {
            (core.nthreads, core.thread, &core.reply_eps[..])
        } else {
            (1usize, 0usize, std::slice::from_ref(&core.reply_eps[core.thread]))
        };

        let funneled = proxy.funneled(cfg);

        // Sequencing identity: which client entity this request belongs to,
        // and its position in that entity's invocation order.
        let (entity, client_seq) = if proxy.collective {
            (core.client.0 << 1, core.collective_seq.fetch_add(1, Ordering::Relaxed))
        } else {
            (
                (core.client.0 << 9) | ((core.thread as u64 & 0x7f) << 1) | 1,
                core.single_seq.fetch_add(1, Ordering::Relaxed),
            )
        };

        // Wire descriptors. Under the funneled strategy every distributed
        // argument crosses the wire in `Concentrated(0)`: a parallel client
        // redistributes its in-arguments there now (collective, as the call
        // is), and its out-arguments from there on assembly.
        let mut descs = Vec::with_capacity(self.dargs.len());
        let mut out_wire_idx = Vec::new();
        let mut out_dists = Vec::new();
        for (i, entry) in self.dargs.iter_mut().enumerate() {
            match entry {
                DArgEntry::In { len, client_dist, share } => {
                    client_dist.validate(*len, cthreads).map_err(OrbError::Protocol)?;
                    let wire_dist = wire_template(funneled, cthreads, client_dist);
                    if wire_dist != *client_dist {
                        *share = share.concentrate(core.rts.as_deref().expect("parallel client"));
                        *client_dist = wire_dist;
                    }
                    descs.push(DArgDesc {
                        dir: ArgDir::In,
                        len: *len,
                        client_dist: client_dist.clone(),
                    });
                }
                DArgEntry::Out { expected_dist } => {
                    let wire_dist = wire_template(funneled, cthreads, expected_dist);
                    out_wire_idx.push(i as u32);
                    descs.push(DArgDesc {
                        dir: ArgDir::Out,
                        len: 0,
                        client_dist: wire_dist.clone(),
                    });
                    out_dists.push((wire_dist, expected_dist.clone()));
                }
            }
        }

        // Collocated direct call: a single object on the same host becomes a
        // direct call to the servant, bypassing the network transport
        // (§4.1). Its arguments are sliced out before anything is recorded
        // for the invocation, so a failure here leaves nothing behind.
        let collocated = match proxy.obj.kind {
            ObjectKind::Single { thread }
                if cfg.local_bypass
                    && proxy.obj.host == core.host
                    && self.dargs.is_empty()
                    && !oneway =>
            {
                core.orb
                    .collocated_servant(proxy.obj.server, thread, proxy.obj.key)
                    .map(|s| (thread, s))
            }
            _ => None,
        };
        let collocated = match collocated {
            Some((thread, servant)) => Some((thread, servant, self.take_in_slots()?)),
            None => None,
        };

        // The invoke span opens here (closed when the invocation is
        // unregistered) and covers marshal, transfer, dispatch, and reply.
        // Its causal context is derived from the invocation's stable
        // (entity, sequence) identity — not from a counter — so same-seed
        // runs stamp identical ids. Under an ambient parent (the failover
        // layer's `failover.invoke` root) the span becomes a child of that
        // trace; retried launches then share the original trace id.
        let trace_on = pardis_obs::enabled();
        let ctx = (trace_on && !oneway).then(|| match pardis_obs::current_ctx() {
            Some(parent) => parent.child(pardis_obs::mix64(entity) ^ client_seq),
            None => pardis_obs::TraceCtx::root(pardis_obs::derive_trace_id(entity, client_seq)),
        });
        // The request id is taken, and the state recorded under it, in one
        // critical section: the proxy's launch log stays in id order however
        // many threads share the proxy.
        let (state, ack_lag) = proxy.launches.lock().launch(!oneway, |req_id| {
            Arc::new(InvocationState {
                client_threads: cthreads,
                thread: cthread,
                key: (proxy.binding, req_id),
                #[cfg(test)]
                server: proxy.obj.server,
                out_wire_idx,
                out_dists,
                inner: AuditMutex::new(
                    lock_site!("client: invocation state"),
                    InvInner {
                        holders: u32::from(!oneway),
                        span_open: trace_on && !oneway,
                        ..InvInner::default()
                    },
                ),
                obs: ctx.map(|ctx| InvObs {
                    ctx,
                    op: self.op.to_string(),
                    start_us: pardis_obs::now_micros(),
                }),
            })
        });
        let key = state.key;
        let req_id = key.1;
        if let Some(ctx) = ctx {
            let mut args = vec![
                ("op", self.op.to_string().into()),
                ("entity", entity.into()),
                ("client_seq", client_seq.into()),
                ("span", ctx.span_id.into()),
            ];
            if ctx.span_id == ctx.trace_id {
                // Root span: announce the trace id itself (no ambient parent
                // to auto-stamp it). Nested spans inherit trace/parent from
                // the ambient context instead.
                args.push(("trace", ctx.trace_id.into()));
            }
            pardis_obs::span_begin("client", "client.invoke", Some((key.0 .0, key.1)), args);
        }
        // Ambient from here on (after the span-begin event, which must not
        // parent itself): marshal/fragment instants, frame encodes and the
        // netsim transit events all stamp this invocation's context.
        let _ctx_guard = ctx.map(pardis_obs::enter_ctx);
        let handle = (!oneway).then(|| {
            core.register(key, state.clone());
            InvocationHandle { holder: Holder { core: core.clone(), state: state.clone() } }
        });

        if let Some((thread, servant, ins)) = collocated {
            let ctx = ServantCtx {
                thread,
                nthreads: proxy.obj.nthreads,
                client_threads: cthreads,
                rts: None,
            };
            let sreq = ServerRequest { op: self.op, ins: &ins, dins: &[], ctx: &ctx };
            let reply = match servant.dispatch(sreq) {
                Ok(rep) => match rep.raised {
                    Some(raised) => ReplyMsg {
                        req_id,
                        binding: proxy.binding,
                        status: ReplyStatus::UserException { id: raised.id, data: raised.data },
                        outs: Vec::new(),
                        douts: Vec::new(),
                    },
                    None => ReplyMsg {
                        req_id,
                        binding: proxy.binding,
                        status: ReplyStatus::Ok,
                        outs: rep.outs,
                        douts: Vec::new(),
                    },
                },
                Err(msg) => ReplyMsg {
                    req_id,
                    binding: proxy.binding,
                    status: ReplyStatus::Exception(msg),
                    outs: Vec::new(),
                    douts: Vec::new(),
                },
            };
            core.transition(&state, None, |inner| inner.take(Message::Reply(reply), 0.0));
            return Ok(handle);
        }

        let endpoints = proxy.endpoints()?;

        // Marshal-and-send phase of the invoke span: control encode, fragment
        // cutting, wire sends.
        let _marshal_span = trace_on.then(|| {
            pardis_obs::Span::open(
                "client",
                "client.marshal_send",
                Some((key.0 .0, key.1)),
                vec![("dargs", self.dargs.len().into())],
            )
        });

        // Control message — sent by the lead thread of the call, framed
        // straight from the call's own fields.
        let control_wire = RequestView {
            req_id,
            binding: proxy.binding,
            entity,
            client_seq,
            client: core.client,
            object: proxy.obj.key,
            op: self.op,
            oneway,
            funneled,
            reply_to,
            client_threads: cthreads as u32,
            client_host: core.host.raw(),
            ins: InArgs::Framed { count: self.nins, bytes: self.framed_ins() },
            dargs: &descs,
        }
        .encode();
        let control_eps: &[EndpointId] = match proxy.obj.kind {
            ObjectKind::Single { thread } => &endpoints[thread..=thread],
            ObjectKind::Spmd => endpoints,
        };
        let lead = !proxy.collective || core.thread == 0;
        if lead && trace_on {
            pardis_obs::instant(
                "client",
                "client.send_control",
                Some((key.0 .0, key.1)),
                vec![("endpoints", control_eps.len().into()), ("bytes", control_wire.len().into())],
            );
        }
        // The lead's control to each server thread rides in the first
        // in-fragment frame it owes that thread
        // (`riders`, indexed by server thread: only SPMD objects take
        // distributed arguments, and their controls go to every thread; a
        // call without in-arguments has nothing to ride in).
        // Every thread keeps the control frames for replay, the lead as
        // part of its merged frames: a retransmitted control from any thread
        // nudges the server, which deduplicates by (binding, req_id) and
        // re-sends the cached reply.
        let in_args = self.dargs.iter().filter(|d| matches!(d, DArgEntry::In { .. })).count();
        let merge = lead && in_args > 0;
        let mut riders: Vec<Option<Bytes>> = Vec::new();
        // At most one frame per control endpoint and one per (in-argument,
        // server thread), merged or not.
        let frames = if oneway { 0 } else { control_eps.len() + in_args * proxy.obj.nthreads };
        let mut replay: Vec<(EndpointId, Wire)> = Vec::with_capacity(frames);
        if merge {
            riders = vec![Some(control_wire); control_eps.len()];
        } else {
            for ep in control_eps {
                if lead {
                    core.orb.send_wire(core.host, *ep, control_wire.clone().into())?;
                }
                if !oneway {
                    replay.push((*ep, control_wire.clone().into()));
                }
            }
        }

        // Distributed in-argument fragments: one frame per server thread
        // this thread owes elements to.
        for (i, entry) in self.dargs.iter().enumerate() {
            let DArgEntry::In { len, client_dist, share } = entry else { continue };
            let policy_dist = proxy.meta.policy.get(self.op, i as u32);
            let server_dist = wire_template(funneled, proxy.obj.nthreads, policy_dist);
            let head =
                FragmentMsg::head(req_id, proxy.binding, i as u32, ArgDir::In, cthread as u32);
            let (src, dst) = ((client_dist, cthreads), (&server_dist, proxy.obj.nthreads));
            cut_fragments(head, ack_lag, *len, src, dst, &**share, &mut riders, |f, wire| {
                if trace_on {
                    pardis_obs::instant(
                        "client",
                        "client.fragment",
                        Some((key.0 .0, key.1)),
                        vec![
                            ("arg", f.arg.into()),
                            ("start", f.start.into()),
                            ("count", f.count.into()),
                            ("dst", f.dst_thread.into()),
                        ],
                    );
                }
                let to = endpoints[f.dst_thread as usize];
                core.orb.send_wire(core.host, to, wire.clone())?;
                if !oneway {
                    replay.push((to, wire));
                }
                Ok(())
            })?;
        }
        // Controls to server threads this thread owes no elements leave on
        // their own.
        for (ep, rider) in control_eps.iter().zip(riders) {
            if let Some(wire) = rider {
                core.orb.send_wire(core.host, *ep, wire.clone().into())?;
                if !oneway {
                    replay.push((*ep, wire.into()));
                }
            }
        }
        if !oneway {
            // A reply that completed the invocation while the frames were
            // still leaving has been taken in already: the transition then
            // lets go of them at once.
            core.transition(&state, None, |inner| inner.replay = replay);
        }
        Ok(handle)
    }
}

/// SplitMix64 finaliser — deterministic jitter without an RNG dependency.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Capped exponential backoff with seeded jitter: retransmission `attempt`
/// waits `retry_base * 2^min(attempt, 6)` plus up to half that again. The
/// jitter is a pure hash of (retry_seed, invocation key, attempt), so a
/// replayed chaos run backs off on the same schedule.
pub(crate) fn backoff_delay(cfg: &OrbConfig, key: (BindingId, u64), attempt: u32) -> Duration {
    let delay = cfg.retry_base.max(Duration::from_micros(50)) * (1u32 << attempt.min(6));
    let h = mix64(cfg.retry_seed ^ mix64(key.0 .0) ^ mix64(key.1) ^ u64::from(attempt));
    let jittered = delay + delay.mul_f64((h >> 11) as f64 / (1u64 << 53) as f64 * 0.5);
    if pardis_obs::enabled() {
        pardis_obs::histogram("client.backoff_us").observe(jittered.as_micros() as u64);
    }
    jittered
}

/// Re-send the recorded frames (control plus this thread's fragments) of
/// every invocation this pump may still retransmit, oldest first, not only
/// the one being awaited: the POA dispatches a client entity's requests in
/// sequence order, so a lost earlier request could otherwise block a later
/// one at the server while only the later one was being retried. The POA
/// deduplicates by (binding, req_id), so at worst a retransmission costs
/// wire time; at best it resurrects a dropped request or provokes a replay
/// of the cached reply.
fn retransmit(core: &PumpCore) -> OrbResult<()> {
    let mut live: Vec<Arc<InvocationState>> = core.router.lock().live.values().cloned().collect();
    live.sort_unstable_by_key(|t| t.key);
    let targets: Vec<_> = live
        .iter()
        .filter_map(|t| {
            let frames = t.inner.lock().replay.clone();
            (!frames.is_empty()).then_some((t, frames))
        })
        .collect();
    if targets.is_empty() {
        return Ok(());
    }
    core.orb.note_retransmit();
    if pardis_obs::enabled() {
        pardis_obs::counter("client.retransmit_rounds").inc();
    }
    for (target, frames) in targets {
        if pardis_obs::enabled() {
            pardis_obs::counter("client.frames_retransmitted").add(frames.len() as u64);
            let mut args = vec![("frames", frames.len().into())];
            if let Some(obs) = &target.obs {
                args.push(("trace", obs.ctx.trace_id.into()));
                args.push(("parent", obs.ctx.span_id.into()));
            }
            pardis_obs::instant(
                "client",
                "client.retransmit",
                Some((target.key.0 .0, target.key.1)),
                args,
            );
        }
        // Re-sends travel under the invocation's own context so their
        // transit events land in the same causal tree as the first attempt
        // (the frames themselves are pre-encoded and already carry it).
        let _ctx_guard = target.obs.as_ref().map(|obs| pardis_obs::enter_ctx(obs.ctx));
        for (ep, wire) in frames {
            core.orb.send_wire(core.host, ep, wire)?;
        }
    }
    Ok(())
}

/// A thread in [`wait_complete`]: counted among its invocation's waiters
/// from its first check that finds the invocation incomplete until it
/// leaves, so a pump on another thread that completes the invocation wakes
/// it.
struct Waiter<'a> {
    state: &'a InvocationState,
    counted: bool,
}

impl Waiter<'_> {
    /// The latest arrival among the invocation's frames if it is complete;
    /// counts or uncounts this thread in the same critical section.
    fn complete(&mut self) -> Option<f64> {
        let mut inner = self.state.inner.lock();
        let complete = self.state.complete_locked(&inner);
        if complete == self.counted {
            self.counted = !complete;
            if complete {
                inner.waiters -= 1;
            } else {
                inner.waiters += 1;
            }
        }
        complete.then_some(inner.arrival)
    }
}

impl Drop for Waiter<'_> {
    fn drop(&mut self) {
        if self.counted {
            self.state.inner.lock().waiters -= 1;
        }
    }
}

/// One holder of an invocation's registration: its [`InvocationHandle`] or
/// a future minted from it. The router keeps a registered invocation while
/// any holder lives; once the last one is gone, it forgets the invocation
/// when it has completed (or a wait on it gave up), and keeps routing and
/// retransmitting one that has not until its reply lands.
pub(crate) struct Holder {
    pub(crate) core: Arc<PumpCore>,
    pub(crate) state: Arc<InvocationState>,
}

impl Clone for Holder {
    fn clone(&self) -> Holder {
        self.state.inner.lock().holders += 1;
        Holder { core: self.core.clone(), state: self.state.clone() }
    }
}

impl Drop for Holder {
    fn drop(&mut self) {
        self.core.transition(&self.state, None, |inner| inner.holders -= 1);
    }
}

impl Holder {
    /// Has the server completed (all results locally available)?
    /// Non-blocking: pumps whatever has arrived first.
    pub(crate) fn resolved(&self) -> bool {
        self.core.pump_step(None);
        self.state.is_complete()
    }

    /// Block until the invocation completes (see [`wait_complete`]). A
    /// wait that fails gives the invocation up: it is retransmitted no
    /// more.
    pub(crate) fn wait_complete(&self) -> OrbResult<()> {
        let result = wait_complete(&self.core, &self.state);
        if result.is_err() {
            self.core.transition(&self.state, None, |inner| inner.replay.clear());
        }
        result
    }
}

/// Block until `state` completes, retransmitting on the configured
/// schedule; blocking invocations and futures both wait here. The thread
/// parks on its endpoint until a frame arrives, the invocation completes
/// (another pump took its reply), the next retransmission is due, or the
/// deadline passes. A timeout whose deadline `Instant` cannot represent
/// waits without one.
fn wait_complete(core: &PumpCore, state: &InvocationState) -> OrbResult<()> {
    let cfg = core.orb.cfg();
    let deadline = Instant::now().checked_add(cfg.timeout);
    // Retransmissions are armed only when configured and there is something
    // to replay (not a oneway or collocated call).
    let mut next_retry = if cfg.retry_limit > 0 && !state.inner.lock().replay.is_empty() {
        let backoff = backoff_delay(cfg, state.key, 0);
        Some((Instant::now() + backoff, backoff))
    } else {
        None
    };
    let mut attempt: u32 = 0;
    let mut waiter = Waiter { state, counted: false };
    loop {
        if let Some(arrival) = waiter.complete() {
            // The wait returns when the last frame lands.
            core.orb.network().raise_thread_time(core.host, arrival);
            if pardis_obs::enabled() {
                let mut args = Vec::new();
                if let Some(obs) = &state.obs {
                    args.push(("trace", obs.ctx.trace_id.into()));
                    args.push(("parent", obs.ctx.span_id.into()));
                }
                pardis_obs::instant(
                    "client",
                    "client.future_fulfilled",
                    Some((state.key.0 .0, state.key.1)),
                    args,
                );
            }
            return Ok(());
        }
        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            return Err(OrbError::Timeout { waiting_for: "invocation reply".into() });
        }
        if let Some((at, waited)) = next_retry {
            if Instant::now() >= at {
                // Drain anything already delivered before declaring the
                // attempt lost: the reply may have been sitting in the
                // channel since the last pump tick, and retransmitting over
                // it would send frames the fault schedule never asked for.
                core.pump_step(Some(state.key));
                if state.is_complete() {
                    continue;
                }
                attempt += 1;
                // The backoff the client just sat out is local time on its
                // virtual timeline: this is what walks retries out of a
                // timed link-down window.
                let wait_t0 = pardis_obs::now_micros();
                core.orb.network().charge_wait(core.host, waited);
                if pardis_obs::enabled() {
                    // Measured on the virtual clock: the profiler attributes
                    // the interval [ts - us, ts] to backoff.
                    let mut args = vec![
                        ("us", pardis_obs::now_micros().saturating_sub(wait_t0).into()),
                        ("attempt", attempt.into()),
                    ];
                    if let Some(obs) = &state.obs {
                        args.push(("trace", obs.ctx.trace_id.into()));
                        args.push(("parent", obs.ctx.span_id.into()));
                    }
                    pardis_obs::instant(
                        "client",
                        "client.backoff",
                        Some((state.key.0 .0, state.key.1)),
                        args,
                    );
                }
                retransmit(core)?;
                // Once the budget is spent, stop nudging but keep waiting
                // out the deadline — the last retransmission's reply may
                // still be in flight.
                next_retry = (attempt < cfg.retry_limit).then(|| {
                    let backoff = backoff_delay(cfg, state.key, attempt);
                    (Instant::now() + backoff, backoff)
                });
            }
        }
        let until = [deadline, next_retry.map(|(at, _)| at)].into_iter().flatten().min();
        core.pump_or_park(Some(state.key), || state.is_complete(), until);
    }
}

/// Handle returned by a non-blocking invocation: check or await completion,
/// and mint futures for the results.
pub struct InvocationHandle {
    holder: Holder,
}

impl InvocationHandle {
    /// Has the server completed (all results locally available)?
    /// Non-blocking: pumps whatever has arrived first.
    pub fn resolved(&self) -> bool {
        self.holder.resolved()
    }

    /// Completion check without pumping: observes progress made by a
    /// [`CommThread`] (or any concurrent pump) only.
    #[cfg(test)]
    pub(crate) fn peek(&self) -> bool {
        self.holder.state.is_complete()
    }

    /// Block until completion, then hand back the reply.
    pub fn wait(self) -> OrbResult<ReplyData> {
        self.holder.wait_complete()?;
        let (state, rts) = (self.holder.state.clone(), self.holder.core.rts.clone());
        // The router forgets the invocation here, before its results are
        // read.
        drop(self);
        state.check_status()?;
        Ok(ReplyData { state, rts })
    }

    /// Mint a future for scalar out slot `slot` (slot 0 is the return value
    /// of a non-void operation).
    pub fn scalar_future<T: CdrCodec>(&self, slot: usize) -> crate::future::PFuture<T> {
        crate::future::PFuture::new(self.holder.clone(), slot)
    }

    /// Mint a future for distributed out-argument `ordinal`.
    pub fn dseq_future<T: CdrCodec + Clone + Send + Sync + 'static>(
        &self,
        ordinal: usize,
    ) -> crate::future::DSeqFuture<T> {
        crate::future::DSeqFuture::new(self.holder.clone(), ordinal)
    }

    /// Best-effort cancel: tells the server to drop the request if it has
    /// not been dispatched yet, and gives the invocation up.
    #[cfg(test)]
    pub(crate) fn cancel(self) {
        let (core, state) = (&self.holder.core, &self.holder.state);
        if let Ok(endpoints) = core.orb.server_endpoints(state.server) {
            let msg = Message::Cancel { binding: state.key.0, req_id: state.key.1 };
            for ep in endpoints {
                let _ = core.orb.send(core.host, ep, &msg);
            }
        }
        core.transition(state, None, |inner| inner.replay.clear());
    }
}

/// The results of a completed invocation.
pub struct ReplyData {
    state: Arc<InvocationState>,
    /// The client thread's RTS, for out-arguments that redistribute.
    rts: Option<Arc<dyn Rts>>,
}

impl std::fmt::Debug for ReplyData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplyData").finish_non_exhaustive()
    }
}

impl std::fmt::Debug for Proxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proxy")
            .field("object", &self.obj.stringify())
            .field("binding", &self.binding)
            .field("collective", &self.collective)
            .finish()
    }
}

impl std::fmt::Debug for InvocationHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvocationHandle").field("key", &self.holder.state.key).finish()
    }
}

impl ReplyData {
    /// Where the received pieces of distributed out-argument `ordinal`
    /// keep their payloads.
    #[cfg(test)]
    pub(crate) fn piece_ptrs(&self, ordinal: usize) -> Vec<usize> {
        let wire_idx = self.state.out_wire_idx[ordinal];
        let inner = self.state.inner.lock();
        inner.frags[&wire_idx].iter().map(|p| p.data.as_ptr() as usize).collect()
    }

    /// Decode scalar out slot `slot` (slot 0 is the return value of a
    /// non-void operation).
    pub fn scalar<T: CdrCodec>(&self, slot: usize) -> OrbResult<T> {
        self.state.scalar(slot)
    }

    /// Decode scalar out slot `slot` dynamically.
    pub fn any(&self, slot: usize, tc: &TypeCode) -> OrbResult<Any> {
        self.state.any(slot, tc)
    }

    /// Assemble distributed out-argument `ordinal` into this thread's local
    /// view.
    ///
    /// Under the funneled strategy a parallel client receives the argument
    /// whole at thread 0 and this call redistributes it over the client's
    /// RTS, so every thread of the collective call must make it, in the same
    /// order — as launching the call already has them do.
    pub fn dseq<T: CdrCodec + Clone + Send + Sync + 'static>(
        &self,
        ordinal: usize,
    ) -> OrbResult<DSequence<T>> {
        self.state.dseq(ordinal, self.rts.as_deref())
    }
}

#[cfg(test)]
impl InvocationState {
    /// Request frames still held for retransmission.
    fn replay_frames(&self) -> usize {
        self.inner.lock().replay.len()
    }
}

#[cfg(test)]
impl InvocationHandle {
    /// Request frames still held for retransmission.
    pub(crate) fn replay_frames(&self) -> usize {
        self.holder.state.replay_frames()
    }

    /// Reads how many threads wait in [`wait_complete`] on this
    /// invocation, also after the handle has moved on.
    pub(crate) fn waiters_probe(&self) -> impl Fn() -> u32 {
        let state = self.holder.state.clone();
        move || state.inner.lock().waiters
    }
}

#[cfg(test)]
impl ReplyData {
    /// Request frames still held for retransmission.
    pub(crate) fn replay_frames(&self) -> usize {
        self.state.replay_frames()
    }
}

/// A dedicated communication thread: the experiment the paper's §6 names
/// as immediate future work — "using communication threads (additional to
/// the computing threads) as sending and receiving processes", so replies
/// and fragments are ingested while the computing thread is busy with its
/// own work instead of waiting for it to poll.
///
/// The thread drains this client thread's reply endpoint continuously,
/// parking on it between frames; futures then resolve in the background.
/// Stop it by dropping the handle or calling [`CommThread::stop`]. As the
/// paper anticipates, it contends for a processor with the computing
/// threads — that is the trade-off being studied.
pub struct CommThread {
    core: Arc<PumpCore>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl CommThread {
    pub(crate) fn spawn(core: Arc<PumpCore>) -> CommThread {
        let stop = Arc::new(AtomicBool::new(false));
        let (flag, pump) = (stop.clone(), core.clone());
        let handle = std::thread::spawn(move || {
            let stopped = || flag.load(Ordering::SeqCst);
            while !stopped() {
                pump.pump_or_park(None, stopped, None);
            }
        });
        CommThread { core, stop, handle: Some(handle) }
    }

    /// Ask the thread to exit and wait for it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.core.rx.wake();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for CommThread {
    fn drop(&mut self) {
        self.shutdown();
    }
}
