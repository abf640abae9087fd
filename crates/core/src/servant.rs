//! The server-side programming model: servants, dispatch requests/replies,
//! distributed-argument adapters.
//!
//! The IDL compiler generates a *skeleton* per interface that implements
//! [`Servant`] by decoding arguments and calling the user's implementation
//! trait. Hand-written dynamic servants can implement [`Servant`] directly
//! (the dynamic skeleton interface).

use crate::dist::Distribution;
use crate::dseq::DSequence;
use crate::error::{OrbError, OrbResult};
use crate::protocol::{DArgDesc, FragmentMsg};
use crate::strided::{assemble, Pack};
use bytes::Bytes;
use pardis_cdr::{ByteOrder, CdrCodec, Decoder, Encoder};
use pardis_rts::Rts;
use std::sync::Arc;

/// Execution context handed to a servant on each dispatch.
#[derive(Clone)]
pub struct ServantCtx {
    /// This computing thread's index within the server.
    pub thread: usize,
    /// Number of computing threads of the server.
    pub nthreads: usize,
    /// Number of computing threads of the invoking client.
    pub client_threads: usize,
    /// The server's run-time system endpoint, if the server is parallel.
    /// Servants use it for their own internal communication (with
    /// non-reserved tags) and for building distributed results.
    pub rts: Option<Arc<dyn Rts>>,
}

impl ServantCtx {
    /// The RTS endpoint, panicking with a helpful message when the server
    /// is not parallel.
    pub fn rts(&self) -> &Arc<dyn Rts> {
        self.rts.as_ref().expect("servant needs an RTS endpoint but the server is single-threaded")
    }
}

impl std::fmt::Debug for ServantCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServantCtx")
            .field("thread", &self.thread)
            .field("nthreads", &self.nthreads)
            .field("client_threads", &self.client_threads)
            .finish()
    }
}

/// One reassembled distributed `in` argument, as received pieces plus the
/// distributions needed to decode it.
#[derive(Debug, Clone)]
pub struct DInLocal {
    /// Wire descriptor (direction, global length, client-side distribution).
    pub desc: DArgDesc,
    /// The server-side distribution resolved from the object's policy.
    pub server_dist: Distribution,
    /// The distribution the pieces were cut for: `server_dist`, or
    /// `Concentrated(0)` under the funneled strategy.
    pub(crate) wire_dist: Distribution,
    /// The fragments covering this thread's local part under `wire_dist`,
    /// one per sending thread, in arrival order.
    pub(crate) pieces: Vec<FragmentMsg>,
}

/// A dispatch request as seen by a servant.
pub struct ServerRequest<'a> {
    /// Operation name.
    pub op: &'a str,
    /// Scalar in-argument slots (CDR blobs, shared with the wire frame).
    pub ins: &'a [Bytes],
    /// Assembled distributed in-arguments, in declaration order.
    pub dins: &'a [DInLocal],
    /// Execution context.
    pub ctx: &'a ServantCtx,
}

impl ServerRequest<'_> {
    /// Decode scalar in-argument `slot`.
    pub fn scalar<T: CdrCodec>(&self, slot: usize) -> OrbResult<T> {
        let blob = self
            .ins
            .get(slot)
            .ok_or_else(|| OrbError::Protocol(format!("no scalar in-arg slot {slot}")))?;
        let mut d = Decoder::new(blob.clone(), ByteOrder::native());
        Ok(T::decode(&mut d)?)
    }

    /// Assemble distributed in-argument `ordinal` (0-based over the `in`
    /// dargs) into this thread's local [`DSequence`] under the server-side
    /// distribution.
    ///
    /// When one received payload is this thread's whole local part, as one
    /// run in its native image (`f64` and the fixed-width integers, aligned
    /// in memory), the sequence's local part *is* that payload — often the
    /// client's own storage — and nothing is copied; otherwise the pieces
    /// are decoded into a fresh vector. Either way the local part is
    /// immutable; [`DSequence::take_local`] gives a vector of its own.
    ///
    /// Under the funneled strategy the argument arrives whole at thread 0
    /// and this call redistributes it over [`ServantCtx::rts`], so every
    /// computing thread must make it, in the same order — as the collective
    /// SPMD dispatch already has them do.
    pub fn dseq<T: CdrCodec + Clone + Send + Sync + 'static>(
        &self,
        ordinal: usize,
    ) -> OrbResult<DSequence<T>> {
        let din = self
            .dins
            .get(ordinal)
            .ok_or_else(|| OrbError::Protocol(format!("no distributed in-arg {ordinal}")))?;
        let (len, n, t) = (din.desc.len, self.ctx.nthreads, self.ctx.thread);
        // The request names the template the client cut the pieces from.
        let src = (&din.desc.client_dist, self.ctx.client_threads);
        let local = assemble(len, src, (&din.wire_dist, n, t), &din.pieces)?;
        let mut ds = DSequence::from_shared(local, len, din.wire_dist.clone(), n, t);
        if din.wire_dist != din.server_dist {
            ds.redistribute(&**self.ctx.rts(), din.server_dist.clone());
        }
        Ok(ds)
    }
}

/// A distributed `out` argument produced by a servant: this thread's local
/// part, exported as an encode-on-demand provider so the POA can cut
/// fragments for any client-side distribution without knowing the element
/// type.
pub struct DOutArg {
    /// Global length of the produced sequence.
    pub len: u64,
    /// Actual server-side distribution of the produced data.
    pub dist: Distribution,
    /// Producing thread.
    pub thread: usize,
    /// Server thread count.
    pub nthreads: usize,
    pub(crate) share: Box<dyn Pack>,
}

impl<T: CdrCodec + Clone + Send + Sync + 'static> From<DSequence<T>> for DOutArg {
    fn from(ds: DSequence<T>) -> Self {
        let len = ds.len();
        let dist = ds.dist().clone();
        let thread = ds.thread();
        let nthreads = ds.nthreads();
        DOutArg { len, dist, thread, nthreads, share: Box::new(ds) }
    }
}

impl std::fmt::Debug for DOutArg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DOutArg")
            .field("len", &self.len)
            .field("dist", &self.dist)
            .field("thread", &self.thread)
            .finish()
    }
}

/// A raised IDL user exception, as carried to the POA: the exception's
/// repository id plus its CDR-encoded members. Generated exception types
/// implement `Into<Raised>`; hand-written servants can build one directly.
#[derive(Debug, Clone, PartialEq)]
pub struct Raised {
    /// Exception repository id (the flat IDL name).
    pub id: String,
    /// CDR-encoded exception members.
    pub data: Vec<u8>,
}

impl Raised {
    /// Encode a CDR-serialisable exception body under an id.
    pub fn new<T: CdrCodec>(id: &str, body: &T) -> Raised {
        let mut e = Encoder::new(ByteOrder::native());
        body.encode(&mut e);
        Raised { id: id.to_string(), data: e.finish().to_vec() }
    }
}

/// The servant's answer: scalar out slots (return value first when the
/// operation is non-void) and distributed out arguments in declaration
/// order — or a raised user exception.
#[derive(Debug, Default)]
pub struct ServerReply {
    /// Scalar out slots.
    pub outs: Vec<Bytes>,
    /// Distributed out arguments.
    pub douts: Vec<DOutArg>,
    /// A raised IDL user exception; when set, outs/douts are ignored and
    /// the client sees [`crate::OrbError::UserException`].
    pub raised: Option<Raised>,
}

impl ServerReply {
    /// An empty reply (void operation, no outs).
    pub fn new() -> Self {
        Self::default()
    }

    /// A reply raising a user exception (IDL `raises`).
    pub fn raising(raised: Raised) -> Self {
        ServerReply { raised: Some(raised), ..Default::default() }
    }

    /// Append a scalar out slot (or the return value).
    pub fn push_scalar<T: CdrCodec>(&mut self, v: &T) -> &mut Self {
        let mut e = Encoder::new(ByteOrder::native());
        v.encode(&mut e);
        self.outs.push(e.finish());
        self
    }

    /// Append a distributed out argument.
    pub fn push_dseq<T: CdrCodec + Clone + Send + Sync + 'static>(
        &mut self,
        ds: DSequence<T>,
    ) -> &mut Self {
        self.douts.push(DOutArg::from(ds));
        self
    }
}

/// The outcome of a dispatch that may defer its reply.
pub enum DispatchResult {
    /// Reply now.
    Reply(ServerReply),
    /// Do not reply yet: the POA parks the request and hands it back
    /// through [`crate::Poa::take_deferred`]; the server completes it later
    /// with [`crate::Poa::reply_deferred`]. This is how a long-running
    /// operation (the §4.2 DNA search) stays open while the server serves
    /// other requests with `process_requests`.
    Defer,
}

/// An object implementation. Generated skeletons implement this; so can
/// hand-written dynamic servants.
pub trait Servant: Send + Sync {
    /// Interface repository id this servant implements.
    fn interface(&self) -> &str;
    /// Execute one operation. `Err` maps to a wire exception delivered to
    /// the client as [`OrbError::ServerException`].
    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String>;
    /// Like [`Servant::dispatch`] but allowed to defer the reply. The
    /// default never defers.
    fn dispatch_deferred(&self, req: ServerRequest<'_>) -> Result<DispatchResult, String> {
        self.dispatch(req).map(DispatchResult::Reply)
    }
}
