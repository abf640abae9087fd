//! The Portable Object Adapter — the server side of the ORB.
//!
//! A parallel server is a [`ServerGroup`]: one request endpoint per computing
//! thread. Each thread attaches to get its [`Poa`], activates servants
//! (collectively for SPMD objects, individually for single objects), then
//! either surrenders control with [`Poa::impl_is_ready`] or polls
//! periodically with [`Poa::process_requests`] from inside its computation —
//! exactly the programming model of §3.3.

use crate::error::OrbResult;
use crate::object::{
    BindingId, DistPolicy, EndpointId, ObjectKey, ObjectKind, ObjectRef, ServerId,
};
use crate::orb::{Inbox, ObjectMeta, Orb};
use crate::protocol::{
    batch_depth_allowed, refuse_frame, ArgDir, DArgDesc, DOutDesc, FragmentMsg, Message, ReplyMsg,
    ReplyStatus, RequestMsg, Wire,
};
use crate::servant::{DInLocal, Servant, ServantCtx, ServerReply, ServerRequest};
use crate::strided::{cut_fragments, wire_template};
use bytes::Bytes;
use pardis_audit::{lock_site, AuditMutex};
use pardis_netsim::{HostId, IdMap, Published};
use pardis_rts::Rts;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Salt deriving a dispatch span's id from its parent invoke span (xor'd
/// with the shifted thread index so collective dispatches stay distinct).
const DISPATCH_SALT: u64 = 0x706f_612e_6469_7370; // "poa.disp"

/// A parallel server registered with the ORB: a set of computing-thread
/// endpoints plus shared identity. Clone the group into each computing
/// thread and call [`ServerGroup::attach`] there.
#[derive(Clone)]
pub struct ServerGroup {
    orb: Orb,
    id: ServerId,
    host: HostId,
    nthreads: usize,
    endpoints: Vec<EndpointId>,
    inboxes: Arc<AuditMutex<Vec<Option<Inbox>>>>,
    /// Repository namespace, published as an immutable snapshot (the PR-5
    /// Arc-swap idiom): set once at construction, read lock-free at attach.
    namespace: Arc<Published<String>>,
}

impl ServerGroup {
    /// Register a server of `nthreads` computing threads on `host`. The
    /// name labels the server in the caller's code only; the ORB keeps no
    /// copy (objects are found by the names they are activated under).
    pub fn create(orb: &Orb, _name: &str, host: HostId, nthreads: usize) -> ServerGroup {
        assert!(nthreads > 0, "server needs at least one computing thread");
        let id = ServerId(orb.alloc_id());
        let mut endpoints = Vec::with_capacity(nthreads);
        let mut inboxes = Vec::with_capacity(nthreads);
        for _ in 0..nthreads {
            let (ep, rx) = orb.register_endpoint(host);
            endpoints.push(ep);
            inboxes.push(Some(rx));
        }
        orb.inner.servers.write().insert(id, endpoints.clone());
        ServerGroup {
            orb: orb.clone(),
            id,
            host,
            nthreads,
            endpoints,
            inboxes: Arc::new(AuditMutex::new(lock_site!("poa: inbox handoff"), inboxes)),
            namespace: Arc::new(Published::new(crate::repository::DEFAULT_REPOSITORY.to_string())),
        }
    }

    /// Use a different object-repository namespace for this server's
    /// registrations (namespace splitting, §2.2).
    #[cfg(test)]
    pub(crate) fn with_namespace(self, ns: &str) -> Self {
        self.namespace.store(ns.to_string());
        self
    }

    /// The server id.
    #[cfg(test)]
    pub(crate) fn id(&self) -> ServerId {
        self.id
    }

    /// Claim computing thread `thread`'s adapter. `rts` is required when
    /// `nthreads > 1` (the ORB needs the run-time system to reach sibling
    /// threads); what the thread takes in through it raises its modelled
    /// time on the server's host, as a dispatched request does.
    ///
    /// # Panics
    /// Panics if the thread index is out of range, already attached, or a
    /// parallel server attaches without an RTS endpoint.
    pub fn attach(&self, thread: usize, rts: Option<Arc<dyn Rts>>) -> Poa {
        assert!(thread < self.nthreads, "thread {thread} out of range");
        if self.nthreads > 1 {
            let r = rts.as_ref().expect("parallel servers must attach with an RTS endpoint");
            assert_eq!(r.size(), self.nthreads, "RTS world size != server thread count");
            assert_eq!(r.rank(), thread, "RTS rank != attaching thread");
        }
        if let Some(windows) = rts.as_ref().and_then(|r| r.windows()) {
            windows.bind_timeline(self.orb.network(), self.host);
        }
        let inbox = self.inboxes.lock()[thread]
            .take()
            .unwrap_or_else(|| panic!("thread {thread} already attached"));
        pardis_obs::set_thread_label(&format!("poa{}/{}", self.id.0, thread));
        Poa {
            orb: self.orb.clone(),
            server: self.id,
            host: self.host,
            thread,
            nthreads: self.nthreads,
            namespace: self.namespace.read().clone(),
            rts,
            inbox,
            servants: IdMap::default(),
            pending: IdMap::default(),
            order: Vec::new(),
            funneled_next: IdMap::default(),
            recent: RecentInvocations::new(self.orb.cfg().reply_cache_cap),
            deferred: Vec::new(),
            closed: false,
        }
    }

    /// Ask every computing thread's adapter loop to exit after draining.
    pub fn shutdown(&self) {
        for ep in &self.endpoints {
            // Shutdown is control-plane; charge from the server's own host.
            let _ = self.orb.send(self.host, *ep, &Message::Close);
        }
    }
}

struct PendingReq {
    control: Option<RequestMsg>,
    /// Fragments per wire darg index, one per sending client thread.
    frags: IdMap<u32, Vec<FragmentMsg>>,
    /// Originating invocation's trace context, lifted from the first traced
    /// frame of the request (control or fragment): the dispatch span and
    /// everything under it parents into the client's trace.
    ctx: Option<pardis_obs::TraceCtx>,
    /// The latest modelled arrival among the frames kept: the dispatching
    /// thread's time starts there.
    arrival: f64,
}

impl PendingReq {
    fn new() -> Self {
        PendingReq { control: None, frags: IdMap::default(), ctx: None, arrival: 0.0 }
    }
}

/// Every frame one thread sent in reply to one invocation: the client
/// thread it went to, whose acknowledgement lets go of it, the endpoint,
/// and the frame.
type ReplyFrames = Vec<(u32, EndpointId, Wire)>;

/// Reply-frame bytes one adapter thread retains for replay before it starts
/// evicting the oldest replies. A constant, not a knob: acknowledgements
/// keep the cache at the clients' pipeline depth, and the budget only
/// bounds the frames nobody acknowledges.
pub(crate) const REPLY_CACHE_BYTES: usize = 16 << 20;

/// Newest entries the byte budget never evicts, so that a pipeline of
/// replies each larger than the budget's share stays replayable.
pub(crate) const REPLY_CACHE_MIN_ENTRIES: usize = 8;

/// At-most-once memory: which invocations this thread has accepted for
/// dispatch, and the reply frames it sent for them. A retransmitted request
/// for a known key never reaches the servant again — it either replays the
/// cached reply frames verbatim or (while the original is still executing)
/// is silently dropped, leaving the client to retry into the cache later.
///
/// A client thread acknowledges in every in-fragment it sends: every
/// request of its binding up to some id has completed there, so it will
/// never ask for those replies again. The frames kept for that thread up to
/// that id go when the next reply is recorded; the marks stay, so a late
/// duplicate still cannot re-execute.
///
/// Bounded twice, evicted oldest-first: to `cap` entries
/// ([`crate::OrbConfig::reply_cache_cap`]), which is what bounds small
/// replies, and to [`REPLY_CACHE_BYTES`] of retained frames, which is what
/// bounds bulk ones nobody acknowledges. A client retransmits only while its
/// invocation is in flight, so only the most recent keys ever need
/// suppressing.
pub(crate) struct RecentInvocations {
    /// `None` while the original dispatch is still executing (or deferred);
    /// `Some(frames)` once the reply left, recording every frame this thread
    /// sent for it that no acknowledgement has let go of yet.
    seen: IdMap<(BindingId, u64), Option<ReplyFrames>>,
    order: VecDeque<(BindingId, u64)>,
    cap: usize,
    /// Frame bytes of every retained reply.
    bytes: usize,
    acks: AckTable,
    /// The (binding, client thread) pairs whose acknowledgement advanced
    /// since the last reply was recorded.
    due: Vec<(BindingId, u32)>,
}

/// What one client thread of one binding has acknowledged.
#[derive(Default)]
struct Acks {
    /// The highest id through which every request has completed.
    through: Option<u64>,
    /// Ids that retain frames for this thread, in the order their replies
    /// left: request order, but for deferred replies, which an
    /// acknowledgement then reaches one later.
    held: VecDeque<u64>,
}

impl Acks {
    fn acknowledged(&self, id: u64) -> bool {
        self.through.is_some_and(|t| id <= t)
    }
}

/// [`Acks`] per (binding, client thread): at most `cap` of them, the oldest
/// forgotten first, as are the ids beyond `cap` in one `held` list. What is
/// forgotten is only an index: its frames stay until the cache's own bounds
/// evict them.
struct AckTable {
    threads: IdMap<(BindingId, u32), Acks>,
    order: VecDeque<(BindingId, u32)>,
    cap: usize,
}

impl AckTable {
    fn get(&mut self, key: (BindingId, u32)) -> &mut Acks {
        if !self.threads.contains_key(&key) {
            if self.order.len() >= self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.threads.remove(&old);
                }
            }
            self.order.push_back(key);
        }
        self.threads.entry(key).or_default()
    }

    /// Index `id` as retaining frames for `key`'s thread.
    fn hold(&mut self, key: (BindingId, u32), id: u64) {
        let cap = self.cap;
        let held = &mut self.get(key).held;
        if held.back() != Some(&id) {
            held.push_back(id);
        }
        if held.len() > cap {
            held.pop_front();
        }
    }
}

impl RecentInvocations {
    pub(crate) fn new(cap: usize) -> Self {
        RecentInvocations {
            seen: IdMap::default(),
            order: VecDeque::new(),
            cap,
            bytes: 0,
            acks: AckTable { threads: IdMap::default(), order: VecDeque::new(), cap },
            due: Vec::new(),
        }
    }

    /// Mark `key` accepted, retaining nothing yet. False when it already
    /// was.
    pub(crate) fn accept(&mut self, key: (BindingId, u64)) -> bool {
        let new = self.seen.insert(key, None).is_none();
        if new {
            self.order.push_back(key);
        }
        new
    }

    /// Frames kept for `key`, and the room its frame list holds.
    #[cfg(test)]
    pub(crate) fn retained(&self, key: (BindingId, u64)) -> Option<(usize, usize)> {
        self.seen.get(&key)?.as_ref().map(|frames| (frames.len(), frames.capacity()))
    }

    /// Attach the frames sent for an accepted invocation — all but those for
    /// a client thread that has already acknowledged it — then let go of
    /// what was acknowledged since the last reply. Returns how many frames
    /// went.
    ///
    /// Letting go only now, after the new reply's frames exist, is for the
    /// allocator: freed first, the acknowledged frames leave it a free top
    /// of heap to hand back to the kernel, and the very next reply faults
    /// the same pages in again.
    pub(crate) fn record(&mut self, key: (BindingId, u64), mut frames: ReplyFrames) -> usize {
        if let Some(slot) = self.seen.get_mut(&key) {
            let (binding, id) = key;
            frames.retain(|&(by, ..)| !self.acks.get((binding, by)).acknowledged(id));
            for &(by, ..) in &frames {
                self.acks.hold((binding, by), id);
            }
            let added = frame_bytes(&frames);
            let replaced = slot.replace(frames).map_or(0, |old| frame_bytes(&old));
            self.bytes = self.bytes + added - replaced;
        }
        let mut due = std::mem::take(&mut self.due);
        let released: usize =
            due.drain(..).map(|(binding, thread)| self.release(binding, thread)).sum();
        self.due = due;
        released
    }

    /// Client thread `thread` of `binding` completed every request up to
    /// `through`. The frames kept for it up to there go when the next reply
    /// is recorded.
    pub(crate) fn acknowledge(&mut self, binding: BindingId, thread: u32, through: u64) {
        let acks = self.acks.get((binding, thread));
        if !acks.acknowledged(through) {
            acks.through = Some(through);
            if !self.due.contains(&(binding, thread)) {
                self.due.push((binding, thread));
            }
        }
    }

    /// Let go of the frames kept for `thread` of `binding` up to its
    /// acknowledgement. Returns how many went.
    fn release(&mut self, binding: BindingId, thread: u32) -> usize {
        let acks = self.acks.get((binding, thread));
        let mut released = 0;
        while let Some(&id) = acks.held.front() {
            if !acks.acknowledged(id) {
                break;
            }
            acks.held.pop_front();
            if let Some(Some(frames)) = self.seen.get_mut(&(binding, id)) {
                frames.retain(|(by, _, wire)| {
                    let mine = *by == thread;
                    if mine {
                        self.bytes -= wire.len();
                        released += 1;
                    }
                    !mine
                });
                // An emptied list keeps no capacity: up to `cap` entries
                // outlive their frames as marks.
                if frames.is_empty() {
                    *frames = Vec::new();
                }
            }
        }
        released
    }

    /// Evict oldest-first while there are more than `cap` entries, or more
    /// than the byte budget in more than the guaranteed newest entries.
    /// Byte pressure passes over an entry whose reply has not left yet: it
    /// retains nothing, and its mark is all that keeps a duplicate from
    /// re-executing while the original runs.
    fn trim(&mut self) {
        let mut at = 0;
        while let Some(&old) = self.order.get(at) {
            let over_cap = self.order.len() > self.cap;
            let over_budget =
                self.bytes > REPLY_CACHE_BYTES && self.order.len() > REPLY_CACHE_MIN_ENTRIES;
            if !over_cap && !over_budget {
                break;
            }
            if !over_cap && matches!(self.seen.get(&old), Some(None)) {
                at += 1;
                continue;
            }
            self.order.remove(at);
            if let Some(Some(frames)) = self.seen.remove(&old) {
                self.bytes -= frame_bytes(&frames);
            }
            if pardis_obs::enabled() {
                pardis_obs::counter("poa.reply_cache_evictions").inc();
                pardis_obs::instant(
                    "poa",
                    "poa.reply_cache_evict",
                    Some((old.0 .0, old.1)),
                    vec![],
                );
            }
        }
    }
}

fn frame_bytes(frames: &ReplyFrames) -> usize {
    frames.iter().map(|(.., wire)| wire.len()).sum()
}

/// One computing thread's object adapter.
pub struct Poa {
    orb: Orb,
    server: ServerId,
    host: HostId,
    thread: usize,
    nthreads: usize,
    namespace: String,
    rts: Option<Arc<dyn Rts>>,
    inbox: Inbox,
    servants: IdMap<ObjectKey, Active>,
    pending: IdMap<(BindingId, u64), PendingReq>,
    /// Every pending request whose control has arrived, in dispatch order:
    /// `(entity, client_seq, binding, req_id)`, ascending. Kept as controls
    /// arrive, so a dispatch round walks it instead of sorting
    /// [`Poa::pending`] (see [`Poa::dispatch_ready`]).
    order: Vec<(u64, u64, BindingId, u64)>,
    /// The request id of each binding's next funneled request (see
    /// [`Poa::dispatch_ready`]).
    funneled_next: IdMap<BindingId, u64>,
    /// Duplicate-suppression state.
    recent: RecentInvocations,
    deferred: Vec<DeferredCall>,
    closed: bool,
}

/// An object this thread activated: its servant beside the metadata it was
/// registered under (shared with the ORB's table), so that a request looks
/// its object up once.
#[derive(Clone)]
struct Active {
    servant: Arc<dyn Servant>,
    meta: Arc<ObjectMeta>,
}

/// A request whose servant deferred the reply (see
/// [`crate::servant::DispatchResult::Defer`]).
pub struct DeferredCall {
    req: RequestMsg,
    ctx: Option<pardis_obs::TraceCtx>,
    kind: ObjectKind,
}

#[cfg(test)]
impl DeferredCall {
    /// The operation name of the parked request.
    pub(crate) fn op(&self) -> &str {
        &self.req.op
    }
}

impl Poa {
    /// Collectively activate an SPMD object. Every computing thread must
    /// call this with the same name and policy, in the same order relative
    /// to other activations (instantiation "is collective with respect to
    /// all the computing threads of the server", §3.1).
    ///
    /// Thread 0 allocates the key and registers the object; the key reaches
    /// the siblings through the run-time system.
    pub fn activate_spmd(
        &mut self,
        name: &str,
        servant: Arc<dyn Servant>,
        policy: DistPolicy,
    ) -> ObjectRef {
        let key = if self.nthreads == 1 {
            ObjectKey(self.orb.alloc_id())
        } else {
            let rts = self.rts.as_ref().expect("parallel server has an RTS");
            if self.thread == 0 {
                let key = ObjectKey(self.orb.alloc_id());
                rts.broadcast(0, Some(Bytes::copy_from_slice(&key.0.to_be_bytes())));
                key
            } else {
                let b = rts.broadcast(0, None);
                ObjectKey(u64::from_be_bytes(b[..8].try_into().expect("key bytes")))
            }
        };
        let oref = ObjectRef {
            key,
            interface: servant.interface().to_string(),
            server: self.server,
            host: self.host,
            nthreads: self.nthreads,
            kind: ObjectKind::Spmd,
        };
        let meta = Arc::new(ObjectMeta { oref: oref.clone(), policy });
        if self.thread == 0 {
            self.orb.register_object(&self.namespace, name, meta.clone());
        }
        self.orb.register_servant(self.server, self.thread, key, servant.clone());
        self.servants.insert(key, Active { servant, meta });
        oref
    }

    /// Activate a single object owned by this computing thread. Single and
    /// SPMD objects can share the resources of the same parallel server
    /// (§4.2); only objects without distributed arguments may be single.
    pub fn activate_single(&mut self, name: &str, servant: Arc<dyn Servant>) -> ObjectRef {
        let key = ObjectKey(self.orb.alloc_id());
        let oref = ObjectRef {
            key,
            interface: servant.interface().to_string(),
            server: self.server,
            host: self.host,
            nthreads: self.nthreads,
            kind: ObjectKind::Single { thread: self.thread },
        };
        let meta = Arc::new(ObjectMeta { oref: oref.clone(), policy: DistPolicy::new() });
        self.orb.register_object(&self.namespace, name, meta.clone());
        self.orb.register_servant(self.server, self.thread, key, servant.clone());
        self.servants.insert(key, Active { servant, meta });
        oref
    }

    /// Deactivate: unregister this thread's servants. (Thread 0 removes the
    /// repository entries.)
    pub(crate) fn deactivate_all(&mut self) {
        for key in self.servants.keys() {
            if self.thread == 0 {
                self.orb.unregister_object(*key);
            }
        }
        self.servants.clear();
    }

    /// Surrender control to PARDIS: poll for requests until the server is
    /// deactivated (a `Close` frame arrives). Does not return before then
    /// (§3.3).
    pub fn impl_is_ready(&mut self) {
        while !self.closed {
            self.pump(true);
            self.dispatch_ready();
        }
        // Drain whatever is still queued so late fragments don't leak.
        self.pump(false);
    }

    /// Poll for and serve pending requests without blocking, then return so
    /// the server can proceed with its interrupted computation (§3.3).
    /// Returns the number of requests dispatched.
    pub fn process_requests(&mut self) -> usize {
        self.pump(false);
        self.dispatch_ready()
    }

    /// True once a `Close` frame has been seen.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Ingest messages. With `block`, parks on the inbox until at least one
    /// message arrived (a `Close` is a frame too).
    fn pump(&mut self, block: bool) {
        let mut got_any = false;
        while let Some(env) = self.inbox.try_recv() {
            self.handle_wire(&env.wire, 0, env.arrival);
            got_any = true;
        }
        if block && !got_any && !self.closed {
            let env = self.inbox.recv();
            self.handle_wire(&env.wire, 0, env.arrival);
            while let Some(env) = self.inbox.try_recv() {
                self.handle_wire(&env.wire, 0, env.arrival);
            }
        }
    }

    /// Handle one frame that sits inside `depth` batch envelopes and landed
    /// at modelled time `arrival`.
    fn handle_wire(&mut self, wire: &Wire, depth: usize, arrival: f64) {
        match Message::decode_traced(wire) {
            Ok((msg, ctx, ack_lag)) => self.handle(msg, ctx, ack_lag, depth, arrival),
            // A malformed frame cannot be answered: it has no parseable
            // reply address.
            Err(_) => refuse_frame(),
        }
    }

    fn handle(
        &mut self,
        msg: Message,
        ctx: Option<pardis_obs::TraceCtx>,
        ack_lag: u16,
        depth: usize,
        arrival: f64,
    ) {
        // The sender's context is ambient while the frame is handled, so
        // reassembly instants (and any re-sent frames' transit events)
        // stamp into the originating invocation's trace.
        let _ctx_guard = ctx.map(pardis_obs::enter_ctx);
        match msg {
            // A batch envelope (a request riding with an in-fragment): each
            // sub-frame is a complete wire frame carrying its own header and
            // trace context — unpack and handle in order, to a bounded depth.
            Message::Batch(frames) => {
                if batch_depth_allowed(depth) {
                    for frame in frames {
                        self.handle_wire(&frame, depth + 1, arrival);
                    }
                }
            }
            Message::Request(req) => {
                let key = (req.binding, req.req_id);
                // A retransmitted request for an already-accepted invocation
                // must not reach the servant again (at-most-once): replay
                // the cached reply, or drop it while the original executes.
                if self.replay_if_seen(key) || self.funneled_turn(&req).is_lt() {
                    return;
                }
                let entry = self.pending.entry(key).or_insert_with(PendingReq::new);
                entry.ctx = entry.ctx.or(ctx);
                // A second copy of a pending control is a retransmission of
                // the same frame: the first keeps its place.
                if entry.control.is_none() {
                    let queued = (req.entity, req.client_seq, req.binding, req.req_id);
                    let at = self.order.partition_point(|q| *q < queued);
                    self.order.insert(at, queued);
                    entry.control = Some(req);
                    entry.arrival = entry.arrival.max(arrival);
                }
            }
            Message::Fragment(frag) => self.handle_fragment(frag, ctx, ack_lag, arrival),
            Message::Cancel { binding, req_id } => {
                let cancelled = self.pending.remove(&(binding, req_id));
                if let Some(PendingReq { control: Some(req), .. }) = cancelled {
                    let queued = (req.entity, req.client_seq, binding, req_id);
                    if let Ok(at) = self.order.binary_search(&queued) {
                        self.order.remove(at);
                    }
                }
            }
            Message::Close => {
                self.closed = true;
            }
            Message::Reply(_) => refuse_frame(),
        }
    }

    /// Take the sending client thread's acknowledgement from one bulk-data
    /// frame, then reassemble it. A frame for another thread is one no
    /// sender builds, and is refused unread.
    fn handle_fragment(
        &mut self,
        frag: FragmentMsg,
        ctx: Option<pardis_obs::TraceCtx>,
        ack_lag: u16,
        arrival: f64,
    ) {
        if frag.dst_thread as usize != self.thread {
            refuse_frame();
            return;
        }
        // Lag 0 acknowledges nothing. The lag is the wire's word: one that
        // reaches below id 0 is ignored.
        let acked = frag.req_id.checked_sub(u64::from(ack_lag)).filter(|_| ack_lag != 0);
        if let Some(through) = acked {
            self.acknowledge(frag.binding, frag.src_thread, through);
        }
        let key = (frag.binding, frag.req_id);
        if self.recent.seen.contains_key(&key) {
            // Fragment of an already-dispatched invocation
            // (retransmission by-product): ignore.
            return;
        }
        let entry = self.pending.entry(key).or_insert_with(PendingReq::new);
        entry.ctx = entry.ctx.or(ctx);
        let slot = entry.frags.entry(frag.arg).or_default();
        // Idempotent reassembly: a client thread sends each argument one
        // fragment, so a second one from it is a duplicate or a retransmit.
        if !slot.iter().any(|p| p.src_thread == frag.src_thread) {
            if pardis_obs::enabled() {
                pardis_obs::counter("poa.fragments_reassembled").inc();
                pardis_obs::instant(
                    "poa",
                    "poa.fragment",
                    Some((frag.binding.0, frag.req_id)),
                    vec![
                        ("arg", frag.arg.into()),
                        ("start", frag.start.into()),
                        ("count", frag.count.into()),
                    ],
                );
            }
            slot.push(frag);
            entry.arrival = entry.arrival.max(arrival);
        }
    }

    /// Dispatch every pending request that is complete and next in its
    /// client entity's invocation sequence. Returns the number dispatched.
    ///
    /// Ordering matters twice over: it is the paper's per-client sequencing
    /// guarantee, and — because SPMD dispatches run collectively on every
    /// computing thread — all threads must pick the *same* order or their
    /// servants' internal collectives would cross. Controls from one client
    /// entity arrive FIFO, and every thread orders by (entity, client_seq),
    /// so the collective order is deterministic. (Requests from *different*
    /// concurrent client entities racing for the same SPMD object are
    /// ordered by entity id once both are visible; as in the original
    /// system, truly simultaneous arrival from distinct clients relies on
    /// the clients synchronising themselves.)
    ///
    /// A funneled request is dispatched only in its binding's request-id
    /// order, which is dense from 0. Its servant call redistributes its
    /// distributed arguments collectively, and controls go to each thread
    /// on its own link: a lost control must not let the next request
    /// overtake it on one thread while its sibling dispatches it. The wait
    /// ends because the client retransmits the missing control: a funneled
    /// call is always two-way, and its reply leaves only once every thread
    /// has run it ([`Poa::send_reply`]'s barrier), so no client completes
    /// a funneled call that one of these threads never saw.
    fn dispatch_ready(&mut self) -> usize {
        // For each client entity only its lowest-sequence pending request
        // is eligible, and eligible requests go in (entity, seq) order:
        // a walk of `order`, which is kept in exactly that order. An entity
        // whose head is incomplete is blocked for the round, and its later
        // sequences wait behind it. One completeness check per head is
        // sound: frames only arrive in `pump`, which cannot run while we
        // dispatch.
        let mut order = std::mem::take(&mut self.order);
        let mut blocked = None;
        let mut dispatched = 0;
        order.retain(|&(entity, _, binding, req_id)| {
            if blocked == Some(entity) {
                return true;
            }
            let key = (binding, req_id);
            let Some(pending) = self.pending.get(&key) else { return false };
            let Some(req) = &pending.control else { return false };
            // The request's one lookup of its object.
            let active = self.servants.get(&req.object).cloned();
            if !self.funneled_turn(req).is_eq()
                || !self.request_complete(req, pending, active.as_ref())
            {
                blocked = Some(entity);
                return true;
            }
            if let Some(PendingReq { control: Some(req), frags, ctx, arrival }) =
                self.pending.remove(&key)
            {
                self.orb.network().raise_thread_time(self.host, arrival);
                self.dispatch(req, frags, ctx, active);
                dispatched += 1;
            }
            false
        });
        self.order = order;
        dispatched
    }

    /// A funneled request's id against its binding's next: equal may
    /// dispatch, less is a stale copy of one already dispatched. Any other
    /// request is always equal.
    fn funneled_turn(&self, req: &RequestMsg) -> std::cmp::Ordering {
        if !req.funneled {
            return std::cmp::Ordering::Equal;
        }
        req.req_id.cmp(self.funneled_next.get(&req.binding).unwrap_or(&0))
    }

    /// All in-fragments for this thread arrived, counted in the template
    /// they cross the wire in?
    fn request_complete(
        &self,
        req: &RequestMsg,
        pending: &PendingReq,
        active: Option<&Active>,
    ) -> bool {
        let Some(active) = active else {
            return true; // dispatch will answer with an exception
        };
        for (i, desc) in req.dargs.iter().enumerate() {
            if desc.dir != ArgDir::In {
                continue;
            }
            let dist = active.meta.policy.get(&req.op, i as u32);
            let wire_dist = wire_template(req.funneled, self.nthreads, dist);
            let expected = wire_dist.local_len(desc.len, self.nthreads, self.thread);
            let arrived: u64 = pending
                .frags
                .get(&(i as u32))
                .map(|fs| fs.iter().map(|p| p.count).sum())
                .unwrap_or(0);
            if arrived < expected {
                return false;
            }
        }
        true
    }

    /// Replay (or suppress) a request whose key has already been accepted.
    /// Returns false if the key is new.
    fn replay_if_seen(&self, key: (BindingId, u64)) -> bool {
        let frames = match self.recent.seen.get(&key) {
            None => return false,
            // Original still executing (or deferred): drop the duplicate;
            // the client will retry into the cache later.
            Some(None) => {
                if pardis_obs::enabled() {
                    pardis_obs::counter("poa.dup_suppressed").inc();
                    pardis_obs::instant(
                        "poa",
                        "poa.dup_suppressed",
                        Some((key.0 .0, key.1)),
                        vec![("state", "executing".into())],
                    );
                }
                return true;
            }
            Some(Some(frames)) => frames,
        };
        if pardis_obs::enabled() {
            pardis_obs::counter("poa.reply_cache_hits").inc();
            pardis_obs::instant(
                "poa",
                "poa.replay",
                Some((key.0 .0, key.1)),
                vec![("frames", frames.len().into())],
            );
        }
        for (_, ep, wire) in frames {
            let _ = self.orb.send_wire(self.host, *ep, wire.clone());
        }
        true
    }

    /// Change the at-most-once memory through `f`, evict what that pushed
    /// over a bound, and carry the change in retained bytes over to the
    /// ORB-wide total ([`Orb::reply_cache_bytes`]).
    fn update_recent<R>(&mut self, f: impl FnOnce(&mut RecentInvocations) -> R) -> R {
        let recent = &mut self.recent;
        let before = recent.bytes;
        let out = f(recent);
        recent.trim();
        // Wrapping: a net release is the two's complement of its size.
        let delta = (recent.bytes as u64).wrapping_sub(before as u64);
        if delta != 0 {
            self.orb.inner.reply_cache_bytes.fetch_add(delta, Ordering::Relaxed);
        }
        out
    }

    /// Mark an invocation accepted *before* its servant runs, closing the
    /// window in which a duplicate arriving mid-execution would re-execute.
    fn mark_accepted(&mut self, key: (BindingId, u64)) {
        self.update_recent(|recent| {
            if recent.accept(key) && pardis_obs::enabled() {
                pardis_obs::counter("poa.reply_cache_misses").inc();
            }
        });
    }

    /// Attach the sent reply frames to an accepted invocation so future
    /// duplicates replay them.
    fn record_reply(&mut self, key: (BindingId, u64), frames: ReplyFrames) {
        let mut released = 0;
        self.update_recent(|recent| released = recent.record(key, frames));
        if released > 0 && pardis_obs::enabled() {
            pardis_obs::counter("poa.reply_frames_acked").add(released as u64);
        }
    }

    /// Client thread `thread` of `binding` completed every request up to
    /// `through`, so it will never ask for those replies again.
    fn acknowledge(&mut self, binding: BindingId, thread: u32, through: u64) {
        self.update_recent(|recent| recent.acknowledge(binding, thread, through));
    }

    fn dispatch(
        &mut self,
        req: RequestMsg,
        mut frags: IdMap<u32, Vec<FragmentMsg>>,
        ctx: Option<pardis_obs::TraceCtx>,
        active: Option<Active>,
    ) {
        self.mark_accepted((req.binding, req.req_id));
        // Every dispatch of a funneled binding moves its next id, so a
        // strategy switched back and forth between its calls leaves no gap.
        if req.funneled || self.funneled_next.contains_key(&req.binding) {
            let next = self.funneled_next.entry(req.binding).or_default();
            *next = (*next).max(req.req_id + 1);
        }
        // The dispatch span is a child of the client's invoke span: its
        // begin event parents under the request's wire context (ambient
        // first), then the child context becomes ambient for the servant and
        // the reply path. The salt keeps collective SPMD dispatches on
        // different threads causally distinct.
        let _parent_guard = ctx.map(pardis_obs::enter_ctx);
        let dctx = ctx.map(|c| c.child(DISPATCH_SALT ^ ((self.thread as u64) << 1)));
        // Gated construction: the span's op-name clone must not run when
        // tracing is off.
        let _span = pardis_obs::enabled().then(|| {
            let mut args = vec![("op", req.op.clone().into()), ("thread", self.thread.into())];
            if let Some(dctx) = dctx {
                args.push(("span", dctx.span_id.into()));
            }
            pardis_obs::Span::open("poa", "poa.dispatch", Some((req.binding.0, req.req_id)), args)
        });
        let _dispatch_guard = dctx.map(pardis_obs::enter_ctx);
        let kind = active.as_ref().map(|a| a.meta.oref.kind);
        let result = match active {
            Some(Active { servant, meta }) => {
                let deferrable = !req.oneway;
                let ctx = ServantCtx {
                    thread: self.thread,
                    nthreads: self.nthreads,
                    client_threads: req.client_threads as usize,
                    rts: self.rts.clone(),
                };
                // Assemble distributed in-arguments.
                let mut dins = Vec::new();
                for (i, desc) in req.dargs.iter().enumerate() {
                    if desc.dir != ArgDir::In {
                        continue;
                    }
                    let server_dist = meta.policy.get(&req.op, i as u32);
                    dins.push(DInLocal {
                        desc: desc.clone(),
                        wire_dist: wire_template(req.funneled, self.nthreads, server_dist),
                        server_dist: server_dist.clone(),
                        pieces: frags.remove(&(i as u32)).unwrap_or_default(),
                    });
                }
                let sreq = ServerRequest { op: &req.op, ins: &req.ins, dins: &dins, ctx: &ctx };
                match servant.dispatch_deferred(sreq) {
                    Ok(crate::servant::DispatchResult::Defer) if deferrable => {
                        self.deferred.push(DeferredCall { req, ctx: dctx, kind: meta.oref.kind });
                        return;
                    }
                    Ok(crate::servant::DispatchResult::Defer) => {
                        // Deferring a oneway call is meaningless; treat as done.
                        return;
                    }
                    Ok(crate::servant::DispatchResult::Reply(rep)) => Ok(rep),
                    Err(e) => Err(e),
                }
            }
            None => Err(format!("object key {} not active on this server", req.object.0)),
        };
        // Close the span before the reply leaves: the moment the reply is on
        // the wire the client can complete and a tracer may drain the rings,
        // so nothing for this invocation may be recorded after the send.
        drop(_span);
        if req.oneway {
            // No reply to cache; the accepted mark alone suppresses
            // duplicates.
            self.record_reply((req.binding, req.req_id), Vec::new());
            return;
        }
        self.send_reply(&req, result, kind);
    }

    /// Take the requests whose servants deferred their replies. The server
    /// completes each later with [`Poa::reply_deferred`].
    pub fn take_deferred(&mut self) -> Vec<DeferredCall> {
        std::mem::take(&mut self.deferred)
    }

    /// Complete a previously deferred request: ships out-fragments and the
    /// reply control exactly as an immediate reply would have (including the
    /// dispatch context the reply travels under).
    pub fn reply_deferred(&mut self, call: DeferredCall, result: Result<ServerReply, String>) {
        let _ctx_guard = call.ctx.map(pardis_obs::enter_ctx);
        self.send_reply(&call.req, result, Some(call.kind));
    }

    /// Ship out-fragments and (from the responsible thread) the reply
    /// control.
    ///
    /// Each server thread sends its fragments straight to the owning client
    /// thread's endpoint. Under the funneled strategy every distributed out
    /// argument is first redistributed to `Concentrated(0)` over the
    /// run-time system (collective, as the dispatch is), so only thread 0
    /// sends data, to client thread 0 — the "only one computing thread
    /// visible to the ORB" model.
    ///
    /// The reply control rides in the first out-fragment frame the
    /// responsible thread owes each client thread; client threads it owes
    /// no elements get the reply on its own.
    ///
    /// `kind` is the object's, when this thread has it active.
    fn send_reply(
        &mut self,
        req: &RequestMsg,
        result: Result<ServerReply, String>,
        kind: Option<ObjectKind>,
    ) {
        let m = req.client_threads as usize;

        let out_descs: Vec<(usize, &DArgDesc)> =
            req.dargs.iter().enumerate().filter(|(_, d)| d.dir == ArgDir::Out).collect();
        // `douts` is `None` when no out-fragment phase runs at all.
        let (status, outs, mut douts) = match result {
            Ok(ServerReply { raised: Some(raised), .. }) => {
                (ReplyStatus::UserException { id: raised.id, data: raised.data }, Vec::new(), None)
            }
            Ok(reply) => {
                debug_assert_eq!(
                    reply.douts.len(),
                    out_descs.len(),
                    "servant produced {} distributed outs, signature declares {}",
                    reply.douts.len(),
                    out_descs.len()
                );
                (ReplyStatus::Ok, reply.outs, Some(reply.douts))
            }
            Err(msg) => (ReplyStatus::Exception(msg), Vec::new(), None),
        };
        for dout in douts.iter_mut().flatten() {
            let wire_dist = wire_template(req.funneled, self.nthreads, &dout.dist);
            if wire_dist != dout.dist {
                let rts = self.rts.as_deref().expect("parallel server has an RTS");
                dout.share = dout.share.concentrate(rts);
                dout.dist = wire_dist;
            }
        }
        // A funneled reply leaves only once every thread has run the call,
        // whatever its arguments and outcome: a client holding it then
        // knows no thread still waits for the control (see
        // [`Poa::dispatch_ready`]).
        if req.funneled && self.nthreads > 1 && kind == Some(ObjectKind::Spmd) {
            self.rts.as_deref().expect("parallel server has an RTS").barrier();
        }

        // The reply control is sent once: by the owning thread for single
        // objects, by thread 0 for SPMD objects. It is encoded before any
        // fragment is cut, so that it can ride in one.
        let am_responsible = match kind {
            Some(ObjectKind::Single { thread }) => thread == self.thread,
            _ => self.thread == 0,
        };
        let reply_wire = am_responsible.then(|| {
            if pardis_obs::enabled() {
                pardis_obs::instant(
                    "poa",
                    "poa.reply",
                    Some((req.binding.0, req.req_id)),
                    vec![("op", req.op.clone().into())],
                );
            }
            Message::Reply(ReplyMsg {
                req_id: req.req_id,
                binding: req.binding,
                status,
                outs,
                douts: douts
                    .iter()
                    .flatten()
                    .map(|d| DOutDesc {
                        len: d.len,
                        dist: d.dist.clone(),
                        nthreads: self.nthreads as u32,
                    })
                    .collect(),
            })
            .encode()
        });
        // One rider slot per client thread.
        let mut riders: Vec<Option<Bytes>> = match (&reply_wire, &douts) {
            (Some(wire), Some(douts)) if !douts.is_empty() => vec![Some(wire.clone()); m],
            _ => Vec::new(),
        };

        // Every frame this thread ships is also recorded so a retransmitted
        // request can be answered from the cache without re-execution, each
        // until the client thread it went to acknowledges it.
        // At most one frame per (out-argument, client thread), plus the
        // reply control to each client thread.
        let outs = douts.as_ref().map_or(0, Vec::len);
        let mut sent: ReplyFrames = Vec::with_capacity((outs + 1) * m);

        if let Some(douts) = &douts {
            // Cut each distributed out argument into one frame per client
            // thread this thread owes elements to.
            for (dout, (wire_idx, desc)) in douts.iter().zip(out_descs) {
                let head = FragmentMsg::head(
                    req.req_id,
                    req.binding,
                    wire_idx as u32,
                    ArgDir::Out,
                    self.thread as u32,
                );
                let (src, dst) = ((&dout.dist, self.nthreads), (&desc.client_dist, m));
                let share = &*dout.share;
                let _ =
                    cut_fragments(head, 0, dout.len, src, dst, share, &mut riders, |f, wire| {
                        let to = req.reply_to[f.dst_thread as usize];
                        let _ = self.send_raw(to, wire.clone());
                        sent.push((f.dst_thread, to, wire));
                        Ok(())
                    });
            }
        }

        if let Some(wire) = reply_wire {
            let wire = Wire::from(wire);
            for (c, ep) in req.reply_to.iter().enumerate() {
                // A reply that rode with a fragment has left already.
                if riders.get(c).is_some_and(Option::is_none) {
                    continue;
                }
                let _ = self.send_raw(*ep, wire.clone());
                sent.push((c as u32, *ep, wire.clone()));
            }
        }
        self.record_reply((req.binding, req.req_id), sent);
    }

    /// Send an already-encoded frame (charging the network for its size).
    fn send_raw(&self, to: EndpointId, frame: Wire) -> OrbResult<()> {
        self.orb.send_wire(self.host, to, frame)
    }
}

impl Drop for Poa {
    fn drop(&mut self) {
        self.deactivate_all();
        self.update_recent(|recent| *recent = RecentInvocations::new(recent.cap));
    }
}
