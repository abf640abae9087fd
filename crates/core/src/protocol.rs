//! The PARDIS inter-ORB protocol — a GIOP-like framed message set.
//!
//! Every message that crosses between hosts is CDR-encoded; the transport
//! moves opaque byte frames whose length feeds the network cost model. The
//! frame layout is
//!
//! ```text
//! 'P' 'R' 'D' 'S'  version  byte-order-flag  msg-type  flags  [trace-ctx]  body...
//! ```
//!
//! `flags` bit 0 (`FLAG_TRACE_CTX`) marks an optional 16-byte causal
//! trace context (trace id + parent span id, [`pardis_obs::TraceCtx`])
//! between header and body. The sender stamps its ambient context
//! ([`pardis_obs::current_ctx`]) at encode time; contexts are only ambient
//! while tracing is enabled, so untraced frames are byte-identical to the
//! pre-v2 layout (the byte was an always-zero pad) and the network cost
//! model sees unchanged frame sizes whenever tracing is off.
//!
//! A frame travels as a [`Wire`]: `head ++ body`. The body is empty but for
//! a bulk-data frame whose payload is the sender's own storage, which then
//! follows the head as it is instead of being copied into it.

use crate::dist::Distribution;
use crate::object::{BindingId, ClientId, EndpointId, ObjectKey};
use bytes::Bytes;
use pardis_cdr::{ByteOrder, CdrCodec, CdrError, Decoder, Encoder};

/// Protocol magic.
pub(crate) const MAGIC: [u8; 4] = *b"PRDS";
/// Protocol version.
pub(crate) const VERSION: u8 = 1;
/// Header flag: a 16-byte trace context follows the 8-byte header.
pub(crate) const FLAG_TRACE_CTX: u8 = 1;
/// How deep [`Message::Batch`] envelopes may nest. The only envelope a
/// sender builds is [`frame_fragment`]'s `[rider, fragment]`, which never
/// nests, so a receiver drops any envelope inside another unread and counts
/// it on `orb.frames_refused`: a crafted frame cannot recurse through its
/// stack.
pub(crate) const MAX_BATCH_DEPTH: usize = 1;

/// Count one frame a receiver drops unread because no sender of this
/// protocol builds it: malformed, addressed to a thread the receiver does
/// not have, of a kind the receiver never takes, or nested too deep. Such a
/// frame must not panic an adapter or a pump.
pub(crate) fn refuse_frame() {
    pardis_obs::counter("orb.frames_refused").inc();
}

/// May a receiver unpack a [`Message::Batch`] that sits inside `depth`
/// other envelopes? Counts a refusal.
pub(crate) fn batch_depth_allowed(depth: usize) -> bool {
    if depth < MAX_BATCH_DEPTH {
        return true;
    }
    refuse_frame();
    false
}

/// One frame as it travels: the bytes of `head` followed by those of
/// `body`. The body is empty but for a bulk-data frame whose payload is one
/// run of the sender's storage in its native image: `head` then ends with
/// the payload's length word (and, in a batch envelope, the last
/// sub-frame's), and `body` is that storage itself, not a copy of it.
/// Either way the bytes are those of the same frame built in one buffer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Wire {
    /// Everything up to and including the last byte sequence's length word
    /// when there is a body; the whole frame when there is none.
    pub head: Bytes,
    /// The frame's last bytes, shared with the storage they came from.
    pub body: Bytes,
}

impl Wire {
    /// Frame length in bytes: what the network carries.
    pub fn len(&self) -> usize {
        self.head.len() + self.body.len()
    }

    /// True for a frame of no bytes (no sender builds one).
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.body.is_empty()
    }

    /// The frame in one buffer: `head` itself without a body, else a copy
    /// of both.
    #[cfg(test)]
    pub(crate) fn to_bytes(&self) -> Bytes {
        if self.body.is_empty() {
            self.head.clone()
        } else {
            Bytes::from([&self.head[..], &self.body[..]].concat())
        }
    }
}

impl From<Bytes> for Wire {
    fn from(head: Bytes) -> Wire {
        Wire { head, body: Bytes::new() }
    }
}

/// Write the 8-byte frame header plus the optional trace-context extension.
fn write_header(
    e: &mut Encoder,
    order: ByteOrder,
    type_tag: u8,
    ctx: Option<pardis_obs::TraceCtx>,
) {
    e.write_raw(&MAGIC);
    e.write_u8(VERSION);
    e.write_u8(order.flag());
    e.write_u8(type_tag);
    match ctx {
        Some(ctx) => {
            e.write_u8(FLAG_TRACE_CTX);
            e.write_u64(ctx.trace_id);
            e.write_u64(ctx.span_id);
        }
        None => e.write_u8(0),
    }
}

/// Extra frame bytes the optional trace context occupies.
fn ctx_ext_len(ctx: &Option<pardis_obs::TraceCtx>) -> usize {
    if ctx.is_some() {
        16
    } else {
        0
    }
}

/// Direction of a distributed argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgDir {
    /// Client → server.
    In,
    /// Server → client.
    Out,
}

/// Wire descriptor of one distributed argument of an invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct DArgDesc {
    /// Direction.
    pub dir: ArgDir,
    /// Global element count. For `out` arguments this is the client's
    /// *expected* length hint (0 = unknown; the reply's descriptor is
    /// authoritative).
    pub len: u64,
    /// The distribution on the *client* side (source for `in`, expected
    /// destination for `out`).
    pub client_dist: Distribution,
}

/// A request — the control part of an invocation. Bulk distributed-argument
/// data travels separately in [`FragmentMsg`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestMsg {
    /// Per-binding monotone request id (sequencing guarantee).
    pub req_id: u64,
    /// The binding this request belongs to.
    pub binding: BindingId,
    /// The client *entity* issuing the request: a parallel client bound
    /// with `spmd_bind` acts as one entity; a thread bound with `bind` is
    /// its own entity. Servers dispatch each entity's requests in
    /// `client_seq` order — the paper's invocation-sequence guarantee.
    pub entity: u64,
    /// Monotone per-entity invocation counter.
    pub client_seq: u64,
    /// Client group issuing the request.
    pub client: ClientId,
    /// Target object.
    pub object: ObjectKey,
    /// Operation name.
    pub op: String,
    /// True for non-blocking "send and forget" style delivery of the
    /// request (the invocation still produces a reply unless `oneway`).
    pub oneway: bool,
    /// True when the invocation uses the funneled transfer strategy: every
    /// distributed argument crosses the wire in `Concentrated(0)` on both
    /// sides, so only thread 0 of each side moves data.
    pub funneled: bool,
    /// Reply endpoints of the client's computing threads, in thread order.
    pub reply_to: Vec<EndpointId>,
    /// Number of computing threads of the client.
    pub client_threads: u32,
    /// Raw host id of the client (for reply routing cost).
    pub client_host: u32,
    /// Scalar (non-distributed) in-arguments, one CDR blob per slot. Held as
    /// refcounted [`Bytes`] so retransmits and collocated dispatch share the
    /// encoded bytes instead of copying them.
    pub ins: Vec<Bytes>,
    /// Distributed argument descriptors, in slot order (ins then outs as
    /// declared).
    pub dargs: Vec<DArgDesc>,
}

/// Completion status carried by a reply.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyStatus {
    /// The servant completed.
    Ok,
    /// The servant failed with a system-level message.
    Exception(String),
    /// The servant raised a typed IDL user exception (`raises`).
    UserException {
        /// Exception repository id.
        id: String,
        /// CDR-encoded exception members.
        data: Vec<u8>,
    },
}

/// A reply — scalar out-arguments and the return value; distributed
/// out-arguments travel as [`FragmentMsg`]s, cut from the template each
/// one's [`DOutDesc`] names.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyMsg {
    /// Request this answers.
    pub req_id: u64,
    /// Binding of the request.
    pub binding: BindingId,
    /// Status.
    pub status: ReplyStatus,
    /// Return value (slot 0 if the operation is non-void) followed by
    /// scalar out-arguments, one CDR blob per slot (refcounted, see
    /// [`RequestMsg::ins`]).
    pub outs: Vec<Bytes>,
    /// One descriptor per distributed out-argument, in declaration order.
    pub douts: Vec<DOutDesc>,
}

/// Wire descriptor of one distributed out-argument of a reply: its actual
/// length and the server-side template its fragments were cut from. With
/// the client's own template (the request's [`DArgDesc::client_dist`]) the
/// client plans every fragment it is owed, so no fragment names a template.
#[derive(Debug, Clone, PartialEq)]
pub struct DOutDesc {
    /// Global element count.
    pub len: u64,
    /// The server's wire template: the distribution the fragments were cut
    /// from (`Concentrated(0)` under the funneled strategy).
    pub dist: Distribution,
    /// The server's computing-thread count.
    pub nthreads: u32,
}

/// A fragment of a distributed argument: the elements that the transfer
/// plan of the argument's two templates moves from `src_thread` to
/// `dst_thread`, encoded back-to-back in plan order. `start` and `count`
/// restate the plan, and the receiver refuses a fragment that does not.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentMsg {
    /// Request this belongs to.
    pub req_id: u64,
    /// Binding of the request.
    pub binding: BindingId,
    /// Index into the request's darg descriptor list.
    pub arg: u32,
    /// Direction (fragments flow both ways).
    pub dir: ArgDir,
    /// First global index of the pair's plan.
    pub start: u64,
    /// Element count of the pair's plan.
    pub count: u64,
    /// Destination thread on the receiving side. A frame always goes to
    /// that thread's own endpoint, which refuses any other.
    pub dst_thread: u32,
    /// Sending thread.
    pub src_thread: u32,
    /// CDR-encoded elements. On decode this is a zero-copy slice of the
    /// incoming frame, so bulk data crosses the ORB without being copied.
    pub data: Bytes,
}

impl FragmentMsg {
    /// The header every fragment of one argument from one sending thread
    /// shares; `start`, `count` and `dst_thread` are filled in per
    /// destination, the payload travels separately.
    pub(crate) fn head(
        req_id: u64,
        binding: BindingId,
        arg: u32,
        dir: ArgDir,
        src_thread: u32,
    ) -> Self {
        FragmentMsg {
            req_id,
            binding,
            arg,
            dir,
            start: 0,
            count: 0,
            dst_thread: 0,
            src_thread,
            data: Bytes::new(),
        }
    }
}

/// All messages the ORB moves.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Invocation control.
    Request(RequestMsg),
    /// Invocation completion.
    Reply(ReplyMsg),
    /// Bulk data: what one sending thread owes one receiving thread of a
    /// distributed argument, in the order of the pair's transfer plan.
    Fragment(FragmentMsg),
    /// Cancel a pending request (best effort).
    Cancel {
        /// Binding of the request to cancel.
        binding: BindingId,
        /// The request id.
        req_id: u64,
    },
    /// Orderly connection shutdown; a POA loop returns when it sees this.
    Close,
    /// Several independently encoded frames coalesced into one wire frame.
    /// One producer builds it: the transfer path, which sends an
    /// invocation's request or reply in the same frame as the first
    /// fragment its sender owes that endpoint. Each element is a complete
    /// PRDS frame with its own header — and its own trace-context
    /// extension, so every sub-frame keeps its sub-span. The envelope itself
    /// carries no context. Receivers unpack one envelope level and drop an
    /// envelope nested inside another unread. Only the last sub-frame, a
    /// bulk-data one, may have a body: the envelope's.
    Batch(Vec<Wire>),
}

impl Message {
    fn type_tag(&self) -> u8 {
        match self {
            Message::Request(_) => 0,
            Message::Reply(_) => 1,
            Message::Fragment(_) => 2,
            Message::Cancel { .. } => 3,
            Message::Close => 4,
            Message::Batch(_) => 5,
        }
    }

    /// Stable human label of the frame type (test diagnostics).
    #[cfg(test)]
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Message::Request(_) => "request",
            Message::Reply(_) => "reply",
            Message::Fragment(_) => "fragment",
            Message::Cancel { .. } => "cancel",
            Message::Close => "close",
            Message::Batch(_) => "batch",
        }
    }

    /// Frame this message for the wire, stamping the calling thread's
    /// ambient trace context (if any) into the header extension.
    pub fn encode(&self) -> Bytes {
        let order = ByteOrder::native();
        let ctx = pardis_obs::current_ctx();
        // Size the frame up front: for bulk-bearing messages the payload
        // dwarfs the header, and a good hint avoids the doubling reallocs
        // (and their copies) while the payload streams in. A hint covers
        // the largest frame its fields can make, so a small frame is
        // written into one allocation.
        let hint = match self {
            Message::Fragment(f) => return encode_fragment_frame(f, &f.data),
            Message::Request(r) => return RequestView::of(r).encode(),
            Message::Reply(r) => reply_hint(r),
            Message::Batch(fs) => 16 + fs.iter().map(|f| f.len() + 8).sum::<usize>(),
            _ => 96,
        };
        let mut e = Encoder::with_capacity(order, hint);
        write_header(&mut e, order, self.type_tag(), ctx);
        match self {
            Message::Reply(r) => encode_reply(r, &mut e),
            Message::Request(_) | Message::Fragment(_) => {}
            Message::Cancel { binding, req_id } => {
                binding.encode(&mut e);
                e.write_u64(*req_id);
            }
            Message::Close => {}
            Message::Batch(fs) => encode_batch_body(fs, &mut e),
        }
        e.finish()
    }

    /// Parse a frame, discarding any header trace context and
    /// acknowledgement lag.
    pub fn decode(frame: &Bytes) -> Result<Message, CdrError> {
        Self::decode_parts(frame, &Bytes::new()).map(|(msg, ..)| msg)
    }

    /// Parse a frame together with what travels beside the message: the
    /// sender's trace context, when the header carries one
    /// ([`FLAG_TRACE_CTX`]), and a bulk-data frame's acknowledgement lag
    /// `lag` — the sending client thread has completed every request of the
    /// binding up to `req_id - lag` (0: no acknowledgement, as on every frame
    /// that is not bulk data).
    ///
    /// A body is accepted only as the frame's last byte sequence: the
    /// payload of a `Fragment` frame, or the last sub-frame of a `Batch`
    /// envelope, which must then be a `Fragment` itself. The head must end
    /// with that sequence's length word, and the word must count the body.
    /// An unknown frame type is a typed error.
    pub(crate) fn decode_traced(
        wire: &Wire,
    ) -> Result<(Message, Option<pardis_obs::TraceCtx>, u16), CdrError> {
        Self::decode_parts(&wire.head, &wire.body)
    }

    fn decode_parts(
        frame: &Bytes,
        body: &Bytes,
    ) -> Result<(Message, Option<pardis_obs::TraceCtx>, u16), CdrError> {
        // Peek the header with a throwaway decoder to learn the byte order.
        if frame.len() < 8 {
            return Err(CdrError::Truncated { needed: 8, remaining: frame.len() });
        }
        if frame[0..4] != MAGIC {
            return Err(CdrError::TypeMismatch {
                expected: "PRDS frame".into(),
                found: format!("{:02x?}", &frame[0..4]),
            });
        }
        if frame[4] != VERSION {
            return Err(CdrError::TypeMismatch {
                expected: format!("PRDS protocol version {VERSION}"),
                found: format!("version {}", frame[4]),
            });
        }
        let order = ByteOrder::from_flag(frame[5])?;
        let ty = frame[6];
        let flags = frame[7];
        if !body.is_empty() && !matches!(ty, 2 | 5) {
            return Err(CdrError::TypeMismatch {
                expected: "no body behind a frame that is not bulk data".into(),
                found: format!("{} body bytes behind frame type {ty}", body.len()),
            });
        }
        let mut d = Decoder::new(frame.clone(), order);
        d.read_bytes(8)?; // skip the header, which was read above
        let ctx = if flags & FLAG_TRACE_CTX != 0 {
            Some(pardis_obs::TraceCtx { trace_id: d.read_u64()?, span_id: d.read_u64()? })
        } else {
            None
        };
        let mut ack_lag = 0;
        let msg = match ty {
            0 => Message::Request(decode_request(&mut d)?),
            1 => Message::Reply(decode_reply(&mut d)?),
            2 => {
                let (mut head, lag) = decode_fragment_fields(&mut d)?;
                ack_lag = lag;
                head.data = payload(&mut d, frame, body)?;
                Message::Fragment(head)
            }
            3 => Message::Cancel { binding: BindingId::decode(&mut d)?, req_id: d.read_u64()? },
            4 => Message::Close,
            5 => {
                let n = d.read_seq_len(None)?;
                let mut frames = Vec::with_capacity(n.min(1 << 12));
                for i in 1..=n {
                    if i < n || body.is_empty() {
                        frames.push(Wire::from(d.read_byte_seq_bytes()?));
                        continue;
                    }
                    let last = last_byte_seq(&mut d, frame, body)?;
                    if !matches!(last.head.get(6), Some(2)) {
                        return Err(CdrError::TypeMismatch {
                            expected: "a bulk-data sub-frame before an envelope's body".into(),
                            found: format!("sub-frame type {:?}", last.head.get(6)),
                        });
                    }
                    frames.push(last);
                }
                if n == 0 && !body.is_empty() {
                    return Err(CdrError::TypeMismatch {
                        expected: "a sub-frame to carry the envelope's body".into(),
                        found: "an empty envelope".into(),
                    });
                }
                Message::Batch(frames)
            }
            other => Err(CdrError::InvalidEnumDiscriminant {
                name: "MessageType".into(),
                value: other as u32,
            })?,
        };
        Ok((msg, ctx, ack_lag))
    }
}

/// The byte sequence that ends a frame whose `body` is not empty: its
/// length word is the last thing `d` holds, and it counts what is left of
/// `frame` plus the whole body.
fn last_byte_seq(d: &mut Decoder, frame: &Bytes, body: &Bytes) -> Result<Wire, CdrError> {
    let len = d.read_u32()? as usize;
    let rest = d.remaining();
    if rest.checked_add(body.len()) != Some(len) {
        return Err(CdrError::TypeMismatch {
            expected: format!("a sequence of {len} bytes"),
            found: format!("{rest} in the head and {} in the body", body.len()),
        });
    }
    let head = frame.slice(d.position()..);
    d.read_bytes(rest)?;
    Ok(Wire { head, body: body.clone() })
}

/// A bulk-data frame's payload: read from the frame, or its whole body.
fn payload(d: &mut Decoder, frame: &Bytes, body: &Bytes) -> Result<Bytes, CdrError> {
    if body.is_empty() {
        return d.read_byte_seq_bytes();
    }
    let seq = last_byte_seq(d, frame, body)?;
    if !seq.head.is_empty() {
        return Err(CdrError::TypeMismatch {
            expected: "a payload wholly in the body".into(),
            found: format!("{} payload bytes in the head", seq.head.len()),
        });
    }
    Ok(seq.body)
}

impl ArgDir {
    fn encode(&self, e: &mut Encoder) {
        e.write_u8(match self {
            ArgDir::In => 0,
            ArgDir::Out => 1,
        });
    }
    fn decode(d: &mut Decoder) -> Result<Self, CdrError> {
        match d.read_u8()? {
            0 => Ok(ArgDir::In),
            1 => Ok(ArgDir::Out),
            other => Err(CdrError::InvalidEnumDiscriminant {
                name: "ArgDir".into(),
                value: other as u32,
            }),
        }
    }
}

fn encode_darg(a: &DArgDesc, e: &mut Encoder) {
    a.dir.encode(e);
    e.write_u64(a.len);
    a.client_dist.encode(e);
}

fn decode_darg(d: &mut Decoder) -> Result<DArgDesc, CdrError> {
    Ok(DArgDesc {
        dir: ArgDir::decode(d)?,
        len: d.read_u64()?,
        client_dist: Distribution::decode(d)?,
    })
}

/// A request control's fields as its sender holds them, borrowed. The
/// client frames its control from this view, through the same field writer
/// as [`RequestMsg`], without first copying the operation name, the reply
/// endpoints or the argument slots into a message of its own.
pub(crate) struct RequestView<'a> {
    pub req_id: u64,
    pub binding: BindingId,
    pub entity: u64,
    pub client_seq: u64,
    pub client: ClientId,
    pub object: ObjectKey,
    pub op: &'a str,
    pub oneway: bool,
    pub funneled: bool,
    pub reply_to: &'a [EndpointId],
    pub client_threads: u32,
    pub client_host: u32,
    pub ins: InArgs<'a>,
    pub dargs: &'a [DArgDesc],
}

/// The scalar in-arguments of a request.
#[derive(Clone, Copy)]
pub(crate) enum InArgs<'a> {
    /// One CDR blob per slot ([`RequestMsg::ins`]).
    Slots(&'a [Bytes]),
    /// `count` slots already laid out as the frame carries them: each one
    /// appended with [`Encoder::write_byte_seq_with`] to a stream of its
    /// own. The frame's slots start 4-aligned, as that stream's do, so
    /// every length word is padded as it would be in the frame.
    Framed { count: u32, bytes: &'a [u8] },
}

impl<'a> RequestView<'a> {
    pub(crate) fn of(r: &'a RequestMsg) -> RequestView<'a> {
        RequestView {
            req_id: r.req_id,
            binding: r.binding,
            entity: r.entity,
            client_seq: r.client_seq,
            client: r.client,
            object: r.object,
            op: &r.op,
            oneway: r.oneway,
            funneled: r.funneled,
            reply_to: &r.reply_to,
            client_threads: r.client_threads,
            client_host: r.client_host,
            ins: InArgs::Slots(&r.ins),
            dargs: &r.dargs,
        }
    }

    /// Frame the control, stamping the ambient trace context as
    /// [`Message::encode`] does: the bytes of `Message::Request` of the
    /// same fields.
    pub(crate) fn encode(&self) -> Bytes {
        let order = ByteOrder::native();
        let ins = match self.ins {
            InArgs::Slots(slots) => slots.iter().map(|b| b.len() + 8).sum(),
            InArgs::Framed { bytes, .. } => bytes.len() + 4,
        };
        // Header, context and every fixed field with its padding, then
        // what varies.
        let hint = 112 + self.op.len() + 8 * self.reply_to.len() + ins + 48 * self.dargs.len();
        let mut e = Encoder::with_capacity(order, hint);
        write_header(&mut e, order, 0, pardis_obs::current_ctx()); // 0 = Message::Request
        write_request(self, &mut e);
        e.finish()
    }
}

fn write_request(r: &RequestView<'_>, e: &mut Encoder) {
    e.write_u64(r.req_id);
    r.binding.encode(e);
    e.write_u64(r.entity);
    e.write_u64(r.client_seq);
    r.client.encode(e);
    r.object.encode(e);
    e.write_string(r.op);
    e.write_bool(r.oneway);
    e.write_bool(r.funneled);
    e.write_u32(r.reply_to.len() as u32);
    for ep in r.reply_to {
        ep.encode(e);
    }
    e.write_u32(r.client_threads);
    e.write_u32(r.client_host);
    match r.ins {
        InArgs::Slots(slots) => {
            e.write_u32(slots.len() as u32);
            for blob in slots {
                e.write_byte_seq(blob);
            }
        }
        InArgs::Framed { count, bytes } => {
            e.write_u32(count);
            e.write_raw(bytes);
        }
    }
    e.write_u32(r.dargs.len() as u32);
    for a in r.dargs {
        encode_darg(a, e);
    }
}

fn decode_request(d: &mut Decoder) -> Result<RequestMsg, CdrError> {
    let req_id = d.read_u64()?;
    let binding = BindingId::decode(d)?;
    let entity = d.read_u64()?;
    let client_seq = d.read_u64()?;
    let client = ClientId::decode(d)?;
    let object = ObjectKey::decode(d)?;
    let op = d.read_string()?;
    let oneway = d.read_bool()?;
    let funneled = d.read_bool()?;
    let n_reply = d.read_seq_len(None)?;
    let mut reply_to = Vec::with_capacity(n_reply.min(1 << 12));
    for _ in 0..n_reply {
        reply_to.push(EndpointId::decode(d)?);
    }
    let client_threads = d.read_u32()?;
    let client_host = d.read_u32()?;
    let n_ins = d.read_seq_len(None)?;
    let mut ins = Vec::with_capacity(n_ins.min(1 << 12));
    for _ in 0..n_ins {
        ins.push(d.read_byte_seq_bytes()?);
    }
    let n_dargs = d.read_seq_len(None)?;
    let mut dargs = Vec::with_capacity(n_dargs.min(1 << 12));
    for _ in 0..n_dargs {
        dargs.push(decode_darg(d)?);
    }
    Ok(RequestMsg {
        req_id,
        binding,
        entity,
        client_seq,
        client,
        object,
        op,
        oneway,
        funneled,
        reply_to,
        client_threads,
        client_host,
        ins,
        dargs,
    })
}

/// Room for the largest frame `r`'s fields can make: header, context and
/// fixed fields with their padding, then what varies.
fn reply_hint(r: &ReplyMsg) -> usize {
    let status = match &r.status {
        ReplyStatus::Ok => 0,
        ReplyStatus::Exception(msg) => msg.len() + 8,
        ReplyStatus::UserException { id, data } => id.len() + data.len() + 16,
    };
    56 + status + r.outs.iter().map(|b| b.len() + 8).sum::<usize>() + 48 * r.douts.len()
}

fn encode_reply(r: &ReplyMsg, e: &mut Encoder) {
    e.write_u64(r.req_id);
    r.binding.encode(e);
    match &r.status {
        ReplyStatus::Ok => e.write_u8(0),
        ReplyStatus::Exception(msg) => {
            e.write_u8(1);
            e.write_string(msg);
        }
        ReplyStatus::UserException { id, data } => {
            e.write_u8(2);
            e.write_string(id);
            e.write_byte_seq(data);
        }
    }
    e.write_u32(r.outs.len() as u32);
    for blob in &r.outs {
        e.write_byte_seq(blob);
    }
    e.write_u32(r.douts.len() as u32);
    for o in &r.douts {
        e.write_u64(o.len);
        e.write_u32(o.nthreads);
        o.dist.encode(e);
    }
}

fn decode_reply(d: &mut Decoder) -> Result<ReplyMsg, CdrError> {
    let req_id = d.read_u64()?;
    let binding = BindingId::decode(d)?;
    let status = match d.read_u8()? {
        0 => ReplyStatus::Ok,
        1 => ReplyStatus::Exception(d.read_string()?),
        2 => ReplyStatus::UserException { id: d.read_string()?, data: d.read_byte_seq()? },
        other => {
            return Err(CdrError::InvalidEnumDiscriminant {
                name: "ReplyStatus".into(),
                value: other as u32,
            })
        }
    };
    let n_outs = d.read_seq_len(None)?;
    let mut outs = Vec::with_capacity(n_outs.min(1 << 12));
    for _ in 0..n_outs {
        outs.push(d.read_byte_seq_bytes()?);
    }
    let n_douts = d.read_seq_len(None)?;
    let mut douts = Vec::with_capacity(n_douts.min(1 << 12));
    for _ in 0..n_douts {
        let (len, nthreads) = (d.read_u64()?, d.read_u32()?);
        douts.push(DOutDesc { len, dist: Distribution::decode(d)?, nthreads });
    }
    Ok(ReplyMsg { req_id, binding, status, outs, douts })
}

fn encode_batch_body(frames: &[Wire], e: &mut Encoder) {
    e.write_u32(frames.len() as u32);
    for f in frames {
        e.write_u32(f.len() as u32);
        e.write_raw(&f.head);
        e.write_raw(&f.body);
    }
}

/// Frame a batch envelope around already-encoded sub-frames. Unlike
/// [`Message::encode`] this never stamps an ambient trace context: the
/// envelope is pure transport — each sub-frame already carries its own
/// header (and context).
#[cfg(test)]
pub(crate) fn encode_batch_frame(frames: &[Wire]) -> Bytes {
    let order = ByteOrder::native();
    let cap = 12 + frames.iter().map(|f| f.len() + 8).sum::<usize>();
    let mut e = Encoder::with_capacity(order, cap);
    write_header(&mut e, order, 5, None); // 5 = Message::Batch type tag
    encode_batch_body(frames, &mut e);
    e.finish()
}

/// The fixed-width fields every bulk-data frame starts with. `ack_lag`
/// fills two of the three alignment bytes between the `dir` octet and the
/// 8-aligned `start`, so it costs no frame any length, and a frame with lag
/// 0 is the one a lag-less encoder wrote.
fn encode_fragment_fields(f: &FragmentMsg, ack_lag: u16, e: &mut Encoder) {
    e.write_u64(f.req_id);
    f.binding.encode(e);
    e.write_u32(f.arg);
    f.dir.encode(e);
    e.write_u16(ack_lag);
    e.write_u64(f.start);
    e.write_u64(f.count);
    e.write_u32(f.dst_thread);
    e.write_u32(f.src_thread);
}

/// What a bulk-data frame carries after its payload's length word.
pub(crate) enum Payload<F> {
    /// About `len` bytes that `F` appends straight into the frame.
    Packed(usize, F),
    /// Bytes that travel as they are, as the frame's body.
    Body(Bytes),
}

/// Frame one bulk-data message, a `Fragment` (type 2). `head.data` is
/// ignored.
///
/// A [`Payload::Packed`] payload is appended straight into the frame,
/// after the length word and under an alignment origin of its own
/// ([`Encoder::write_byte_seq_with`]): the receiver decodes the payload as
/// a stream that starts at its first byte. A [`Payload::Body`] is the
/// frame's [`Wire::body`]: the head ends with the length word that counts
/// it, and the bytes on the wire are those of the same payload packed.
///
/// With a `rider` — an already-encoded frame bound for the same endpoint —
/// the result is a two-frame [`Message::Batch`] envelope `[rider,
/// fragment]`. The fragment is still built in place, as the envelope's
/// second sub-frame under an origin of its own, so it is byte-identical to
/// the frame this function returns without a rider, and a body stays the
/// envelope's.
///
/// `ack_lag` is the sending client thread's acknowledgement
/// ([`Message::decode_traced`]); out-fragments carry 0.
pub(crate) fn frame_fragment(
    head: &FragmentMsg,
    rider: Option<&Bytes>,
    ack_lag: u16,
    payload: Payload<impl FnOnce(&mut Encoder)>,
) -> Wire {
    let order = ByteOrder::native();
    let ctx = pardis_obs::current_ctx();
    let (packed, pack, body) = match payload {
        Payload::Packed(len, pack) => (len, Some(pack), Bytes::new()),
        Payload::Body(body) => (0, None, body),
    };
    // Exact: a fragment's fields are all fixed-width.
    let cap = fragment_frame_overhead() + ctx_ext_len(&ctx) + packed;
    // An envelope adds its header, a count, two length words and at most
    // three bytes of padding after the rider.
    let envelope = rider.map_or(0, |r| r.len() + 24);
    let mut e = Encoder::with_capacity(order, cap + envelope);
    let tail = body.len();
    let fragment = |e: &mut Encoder| {
        write_header(e, order, 2, ctx);
        encode_fragment_fields(head, ack_lag, e);
        e.write_byte_seq_with(tail, |e| pack.map_or((), |pack| pack(e)));
    };
    match rider {
        None => fragment(&mut e),
        Some(rider) => {
            write_header(&mut e, order, 5, None); // 5 = Message::Batch type tag
            e.write_u32(2);
            e.write_byte_seq(rider);
            e.write_byte_seq_with(tail, fragment);
        }
    }
    Wire { head: e.finish(), body }
}

/// [`Payload::Packed`] from already-encoded bytes.
pub(crate) fn packed(payload: &[u8]) -> Payload<impl FnOnce(&mut Encoder) + '_> {
    Payload::Packed(payload.len(), move |e: &mut Encoder| e.write_raw(payload))
}

/// Frame one fragment whose payload is supplied separately as
/// already-encoded element bytes. Byte-identical to
/// `Message::Fragment(..).encode()` with `data = payload` (`head.data` is
/// ignored); neither acknowledges anything.
pub fn encode_fragment_frame(head: &FragmentMsg, payload: &[u8]) -> Bytes {
    frame_fragment(head, None, 0, packed(payload)).head
}

/// Byte size of an *untraced* fragment frame ahead of its payload,
/// measured once from an empty-payload frame. Fragment fields are all
/// fixed-width, so `overhead + ctx_ext_len(..) + payload.len()` is the
/// *exact* frame size.
fn fragment_frame_overhead() -> usize {
    static OVERHEAD: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut e = Encoder::new(ByteOrder::native());
        write_header(&mut e, ByteOrder::native(), 2, None);
        encode_fragment_fields(&FragmentMsg::head(0, BindingId(0), 0, ArgDir::In, 0), 0, &mut e);
        e.write_byte_seq(&[]);
        e.len()
    })
}

/// Decode the fixed-width fields of a bulk-data frame and its
/// acknowledgement lag; the payload follows.
fn decode_fragment_fields(d: &mut Decoder) -> Result<(FragmentMsg, u16), CdrError> {
    let (req_id, binding, arg, dir) =
        (d.read_u64()?, BindingId::decode(d)?, d.read_u32()?, ArgDir::decode(d)?);
    let ack_lag = d.read_u16()?;
    let head = FragmentMsg {
        req_id,
        binding,
        arg,
        dir,
        start: d.read_u64()?,
        count: d.read_u64()?,
        dst_thread: d.read_u32()?,
        src_thread: d.read_u32()?,
        data: Bytes::new(),
    };
    Ok((head, ack_lag))
}
