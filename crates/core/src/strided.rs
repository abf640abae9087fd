//! Strided transfer plans: the descriptor algebra behind every distributed
//! argument transfer.
//!
//! A thread's share of a distributed sequence is a [`Strided`] index set —
//! `count` blocks of `block` consecutive global indices, `stride` apart —
//! plus at most one short tail block ([`Distribution::owned`]). The elements
//! that move from source thread `s` to destination thread `d` are the
//! intersection of two such sets, which is again a short list of strided
//! sets ([`pair_plan`]): its length depends on thread counts and block
//! sizes, never on the sequence length. Every layer above moves **one packed
//! payload per (source thread, destination thread)**: the pair's elements in
//! plan order (sets ascending by first index, blocks ascending within a
//! set), gathered from the source's local slice by
//! [`crate::DSequence::pack_into`] and scattered into the destination's by
//! the crate-internal `Assembler`.
//!
//! Each side moves a set with **one codec call**, whatever its block
//! length. The set's image in local storage is again strided (a
//! [`Layout`]); a dense image is one run. The packer hands the layout to
//! [`CdrCodec::encode_strided`] and the assembler to
//! [`CdrCodec::decode_elems_into`] through a strided [`ElemSink`], so
//! doubles move in one loop over the blocks and nothing outside the codec
//! walks the set element by element.
//!
//! Both sides compute the plan independently from `(len, distribution,
//! thread count)` of each side, so no plan ever travels, and neither does a
//! template in a fragment: the controls name both. A request carries the
//! client's template ([`crate::protocol::DArgDesc`]) and a reply the
//! server's ([`crate::protocol::DOutDesc`]). The receiver plans every
//! fragment from its sender's template and takes it only as exactly that
//! plan, once per sender. `pair_plan` partitions each thread's part among
//! the senders, so the plan is the proof that the part is covered.

use crate::dist::{Distribution, Run};
use crate::dseq::Local;
use crate::error::{OrbError, OrbResult};
use crate::protocol::{frame_fragment, FragmentMsg, Payload, Wire};
use bytes::Bytes;
use pardis_cdr::{ByteOrder, CdrCodec, Decoder, ElemSink, Encoder};
use pardis_rts::Rts;

/// A strided set of global indices: block `k` (of `count`) covers
/// `[start + k*stride, start + k*stride + block)`.
///
/// Invariants kept by every constructor in this module: the set is
/// non-empty, a single block has `stride == block`, and several blocks have
/// `stride > block` (adjacent blocks are merged into one), so the blocks are
/// exactly the set's maximal runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strided {
    /// First global index.
    pub start: u64,
    /// Distance between the starts of consecutive blocks.
    pub stride: u64,
    /// Consecutive indices per block.
    pub block: u64,
    /// Number of blocks.
    pub count: u64,
}

impl Strided {
    /// The contiguous run `[start, start + count)`.
    pub(crate) fn run(start: u64, count: u64) -> Strided {
        Strided { start, stride: count, block: count, count: 1 }
    }

    /// Normalising constructor: `None` for an empty set, one run when the
    /// blocks touch.
    pub(crate) fn new(start: u64, stride: u64, block: u64, count: u64) -> Option<Strided> {
        if block == 0 || count == 0 {
            None
        } else if count == 1 || stride == block {
            Some(Strided::run(start, block * count))
        } else {
            debug_assert!(stride > block, "overlapping blocks");
            Some(Strided { start, stride, block, count })
        }
    }

    /// Number of indices in the set.
    pub(crate) fn total(&self) -> u64 {
        self.block * self.count
    }

    /// One past the last index of the set.
    pub(crate) fn end(&self) -> u64 {
        self.block_start(self.count - 1) + self.block
    }

    fn block_start(&self, k: u64) -> u64 {
        self.start + k * self.stride
    }

    /// Index of the first block that ends after `x` (may be `>= count`).
    fn first_block_ending_after(&self, x: u64) -> u64 {
        match x.checked_sub(self.start + self.block) {
            None => 0,
            Some(past) => past / self.stride + 1,
        }
    }

    /// The set's maximal runs, ascending.
    pub(crate) fn runs(&self) -> impl Iterator<Item = Run> {
        let set = *self;
        (0..set.count).map(move |k| Run { start: set.block_start(k), count: set.block })
    }

    /// Where the set lives in the local storage of thread `t` under `dist`:
    /// the local offset of its first element and the local distance between
    /// consecutive blocks (local offsets of a strided set of owned indices
    /// are themselves strided). `None` when the set reaches past `len` or is
    /// not owned by `t` — checked exhaustively for a single run, at both
    /// ends for a [`pair_plan`] product.
    ///
    /// `dist` must already be valid for `(len, n)`.
    pub(crate) fn localize(
        &self,
        len: u64,
        dist: &Distribution,
        n: usize,
        t: usize,
    ) -> Option<(u64, u64)> {
        if self.block == 0 || self.count == 0 {
            return None;
        }
        let last_block = (self.count - 1).checked_mul(self.stride)?.checked_add(self.start)?;
        let last = last_block.checked_add(self.block - 1)?;
        if last >= len {
            return None;
        }
        let owned_at = |idx: u64| {
            let (owner, local) = dist.global_to_local(len, n, idx);
            (owner == t).then_some(local)
        };
        // Local offsets are monotone in global index, so equal owners plus a
        // dense local span prove a whole block is owned and contiguous.
        let first = owned_at(self.start)?;
        if owned_at(self.start + self.block - 1)? - first != self.block - 1 {
            return None;
        }
        if self.count == 1 {
            return Some((first, self.block));
        }
        let lstride = owned_at(self.start + self.stride)?.checked_sub(first)?;
        let expect_last = first + (self.count - 1) * lstride + (self.block - 1);
        (owned_at(last)? == expect_last).then_some((first, lstride))
    }

    /// [`Strided::localize`] as the [`Layout`] the set's elements move
    /// through: a dense local image (`lstride == block`, always so for a
    /// single block) is one run of [`Strided::total`] elements.
    pub(crate) fn layout(
        &self,
        len: u64,
        dist: &Distribution,
        n: usize,
        t: usize,
    ) -> Option<Layout> {
        let (lo, lstride) = self.localize(len, dist, n, t)?;
        let lo = lo as usize;
        Some(if lstride == self.block {
            let total = self.total() as usize;
            Layout { lo, block: total, stride: total, count: 1 }
        } else {
            Layout {
                lo,
                block: self.block as usize,
                stride: lstride as usize,
                count: self.count as usize,
            }
        })
    }
}

/// Where a set's elements sit in one thread's local storage: `count` blocks
/// of `block` slots, `stride` apart, from slot `lo`. A contiguous run is
/// `block == stride`. Each side moves a whole layout in one codec call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    pub(crate) lo: usize,
    pub(crate) block: usize,
    pub(crate) stride: usize,
    pub(crate) count: usize,
}

impl Layout {
    /// The slots from the first element to the end of the last block;
    /// `None` when that range overflows or the layout is empty or
    /// overlapping.
    pub(crate) fn span(&self) -> Option<std::ops::Range<usize>> {
        if self.block == 0 || self.stride < self.block {
            return None;
        }
        let end = self.count.checked_sub(1)?.checked_mul(self.stride)?.checked_add(self.block)?;
        Some(self.lo..self.lo.checked_add(end)?)
    }
}

/// The index set one thread owns: at most a strided body plus one short
/// tail block (block-cyclic only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Owned(pub(crate) [Option<Strided>; 2]);

impl Owned {
    /// The non-empty sets, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Strided> {
        self.0.iter().flatten()
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Feed the intersection of two strided sets to `emit`, as strided sets
/// with disjoint maximal runs.
fn intersect(a: &Strided, b: &Strided, emit: &mut impl FnMut(Strided)) {
    match (a.count, b.count) {
        (1, _) => clip(b, a.start, a.end(), emit),
        (_, 1) => clip(a, b.start, b.end(), emit),
        _ => intersect_periodic(a, b, emit),
    }
}

/// `s ∩ [lo, hi)`: a cut first block, the whole blocks in between as one
/// set, a cut last block.
fn clip(s: &Strided, lo: u64, hi: u64, emit: &mut impl FnMut(Strided)) {
    if hi <= s.start || lo >= s.end() {
        return;
    }
    let mut k0 = s.first_block_ending_after(lo);
    let k1 = ((hi - 1 - s.start) / s.stride).min(s.count - 1);
    if k0 > k1 {
        return;
    }
    if s.block_start(k0) < lo {
        emit(Strided::run(lo, (s.block_start(k0) + s.block).min(hi) - lo));
        k0 += 1;
        if k0 > k1 {
            return;
        }
    }
    let cut_last = s.block_start(k1) + s.block > hi;
    let whole = k1 + 1 - k0 - u64::from(cut_last);
    if let Some(body) = Strided::new(s.block_start(k0), s.stride, s.block, whole) {
        emit(body);
    }
    if cut_last {
        emit(Strided::run(s.block_start(k1), hi - s.block_start(k1)));
    }
}

/// Intersection of two many-block sets. Both patterns repeat with period
/// `lcm(a.stride, b.stride)`, so the runs found in the first period (walked
/// block against block, never element by element) each recur once per
/// period: one strided set per run.
///
/// The window `[lo, hi)` starts at a block start of one set and ends at a
/// block end of one set, and every run lies inside one block of each, so no
/// run straddles a period boundary and no recurrence is cut by `hi`.
fn intersect_periodic(a: &Strided, b: &Strided, emit: &mut impl FnMut(Strided)) {
    let lo = a.start.max(b.start);
    let hi = a.end().min(b.end());
    if lo >= hi {
        return;
    }
    let period = (a.stride / gcd(a.stride, b.stride)).checked_mul(b.stride);
    let walk_end = period.and_then(|p| lo.checked_add(p)).map_or(hi, |end| end.min(hi));
    let (mut i, mut j) = (a.first_block_ending_after(lo), b.first_block_ending_after(lo));
    while i < a.count && j < b.count {
        let (a0, b0) = (a.block_start(i), b.block_start(j));
        if a0 >= walk_end || b0 >= walk_end {
            break;
        }
        let (a1, b1) = (a0 + a.block, b0 + b.block);
        let (s, e) = (a0.max(b0), a1.min(b1));
        if s < e {
            let recurs = period.map_or(1, |p| (hi - 1 - s) / p + 1);
            emit(Strided::new(s, period.unwrap_or(e - s), e - s, recurs).expect("non-empty run"));
        }
        // Leave the block that ends first, skipping blocks that cannot
        // reach the other side's current one.
        if a1 <= b1 {
            i = (i + 1).max(a.first_block_ending_after(b0));
        } else {
            j = (j + 1).max(b.first_block_ending_after(a0));
        }
    }
}

/// Append to `out` the index sets that move from thread `s` of the source
/// side to thread `d` of the destination side, ascending by first index.
/// Client and server compute identical plans independently — no negotiation
/// round-trip is needed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pair_plan(
    len: u64,
    src_dist: &Distribution,
    src_n: usize,
    s: usize,
    dst_dist: &Distribution,
    dst_n: usize,
    d: usize,
    out: &mut Vec<Strided>,
) {
    let from = out.len();
    let theirs = dst_dist.owned(len, dst_n, d);
    for a in src_dist.owned(len, src_n, s).iter() {
        for b in theirs.iter() {
            intersect(a, b, &mut |set| out.push(set));
        }
    }
    // A body lies wholly below its own tail, so body∩body, body∩tail,
    // tail∩body, tail∩tail come out in ascending order already.
    debug_assert!(out[from..].windows(2).all(|w| w[0].start < w[1].start));
}

/// One entry of a full transfer plan: the indices of `set` move from thread
/// `src` of the sending side to thread `dst` of the receiving side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanPiece {
    /// Sending-side thread.
    pub src: usize,
    /// Receiving-side thread.
    pub dst: usize,
    /// The indices that move.
    pub set: Strided,
}

/// The whole plan for moving `len` elements from `src_dist` over `src_n`
/// threads to `dst_dist` over `dst_n` threads: `pair_plan` of every thread
/// pair, ordered by `(src, dst, first index)`.
pub fn plan_transfer(
    len: u64,
    src_dist: &Distribution,
    src_n: usize,
    dst_dist: &Distribution,
    dst_n: usize,
) -> Vec<PlanPiece> {
    let mut plan = Vec::new();
    let mut sets = Vec::new();
    for src in 0..src_n {
        for dst in 0..dst_n {
            sets.clear();
            pair_plan(len, src_dist, src_n, src, dst_dist, dst_n, dst, &mut sets);
            plan.extend(sets.iter().map(|&set| PlanPiece { src, dst, set }));
        }
    }
    plan
}

/// One thread's share of a distributed argument with the element type
/// erased: what [`cut_fragments`] needs of a [`crate::DSequence`], which
/// owns (or shares) the storage.
pub(crate) trait Pack: Send {
    /// Encoded size of `elems` packed elements: exact for fixed-width
    /// element types, a first guess for the rest.
    fn payload_len(&self, elems: u64) -> usize;
    /// Append the elements of the given index sets, in order, to `e`.
    fn pack_into(&self, sets: &[Strided], e: &mut Encoder);
    /// The packed elements of `sets` as this share's own storage, when they
    /// are one run of it whose memory image is their native encoding
    /// ([`CdrCodec::native_image`]): what `pack_into` would append from an
    /// aligned position, without the copy.
    fn body(&self, sets: &[Strided]) -> Option<Bytes>;
    /// Collective over `rts`: this share redistributed to
    /// `Concentrated(0)`, the wire template of the funneled strategy.
    fn concentrate(&self, rts: &dyn Rts) -> Box<dyn Pack>;
}

/// The template a distributed argument crosses the wire in on a side of `n`
/// threads that holds it in `dist`. The funneled strategy is the template
/// `Concentrated(0)` on both ends: only thread 0 of each side moves data,
/// and each side redistributes to and from its own template over its RTS.
pub(crate) fn wire_template(funneled: bool, n: usize, dist: &Distribution) -> Distribution {
    if funneled && n > 1 {
        Distribution::Concentrated(0)
    } else {
        dist.clone()
    }
}

/// Cut thread `head.src_thread`'s share of one distributed argument into one
/// frame per destination thread and hand each to `emit`. `head` carries what
/// every frame shares (request, argument, direction, source thread). Every
/// frame is a plain `Fragment` whose `start` and `count` restate the pair's
/// plan; the receiver knows both templates from the control. When the
/// pair's elements are one run of the sender's storage in their
/// native image ([`Pack::body`]), that storage is the frame's body;
/// otherwise they are packed straight into the frame. Either way a frame
/// costs one buffer, and at most one copy, per destination.
///
/// `riders[d]` is a frame the sender owes destination thread `d` anyway (a
/// request or a reply): the first frame cut for `d` takes it and leaves as
/// a [`crate::protocol::Message::Batch`] `[rider, fragment]`, saving `d` a
/// frame. Destinations past the end of `riders` take none. Every frame
/// carries `ack_lag` ([`crate::protocol::Message::decode_traced`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn cut_fragments(
    mut head: FragmentMsg,
    ack_lag: u16,
    len: u64,
    (src_dist, src_n): (&Distribution, usize),
    (dst_dist, dst_n): (&Distribution, usize),
    share: &dyn Pack,
    riders: &mut [Option<Bytes>],
    mut emit: impl FnMut(&FragmentMsg, Wire) -> OrbResult<()>,
) -> OrbResult<()> {
    let mut sets = Vec::new();
    let me = head.src_thread as usize;
    for dst in 0..dst_n {
        sets.clear();
        pair_plan(len, src_dist, src_n, me, dst_dist, dst_n, dst, &mut sets);
        let Some(first) = sets.first() else { continue };
        head.start = first.start;
        head.count = sets.iter().map(Strided::total).sum();
        head.dst_thread = dst as u32;
        let rider = riders.get_mut(dst).and_then(Option::take);
        let payload = match share.body(&sets) {
            Some(body) => Payload::Body(body),
            None => Payload::Packed(share.payload_len(head.count), |e: &mut Encoder| {
                share.pack_into(&sets, e)
            }),
        };
        let wire = frame_fragment(&head, rider.as_ref(), ack_lag, payload);
        emit(&head, wire)?;
    }
    Ok(())
}

/// The one scatter helper behind `ServerRequest::dseq`, the client's
/// out-argument assembly, `DSequence::gather` and `redistribute`: thread
/// `t`'s new local vector under the destination template, filled one source
/// thread at a time with that source's [`pair_plan`] share, each set in one
/// codec call.
///
/// The plan is the coverage proof. `pair_plan` partitions the local part
/// among the sources, so when each source is taken at most once and the
/// stores add up to the local length, every slot holds its element. The
/// vector holds values before anything is decoded into it, so a plan that
/// were wrong could only cost the result, never memory safety.
pub(crate) struct Assembler<'a, T> {
    len: u64,
    src: (&'a Distribution, usize),
    dst: (&'a Distribution, usize, usize),
    /// One mark per source taken: the sources, in the order taken.
    taken: Vec<usize>,
    /// The share of the source taken last.
    sets: Vec<Strided>,
    /// Empty until the first element arrives, then `local_len` values.
    local: Vec<T>,
    local_len: usize,
    stored: usize,
}

impl<'a, T: CdrCodec + Clone> Assembler<'a, T> {
    /// Assemble thread `t` of `n` under `dist` from `len` elements that
    /// `src_n` source threads hold under `src_dist`. Both templates must be
    /// valid for their sides.
    pub(crate) fn new(
        len: u64,
        src: (&'a Distribution, usize),
        (dist, n, t): (&'a Distribution, usize, usize),
    ) -> Self {
        Assembler {
            len,
            src,
            dst: (dist, n, t),
            taken: Vec::new(),
            sets: Vec::new(),
            local: Vec::new(),
            local_len: dist.local_len(len, n, t) as usize,
            stored: 0,
        }
    }

    /// Take source thread `s`: its share of this thread's part, in plan
    /// order, which the next [`Assembler::decode`] stores. Refused for a
    /// source the sending side does not have, or one already taken.
    pub(crate) fn source(&mut self, s: usize) -> OrbResult<&[Strided]> {
        let (src_dist, src_n) = self.src;
        if s >= src_n || self.taken.contains(&s) {
            return Err(OrbError::Protocol(format!(
                "a second or unknown source thread {s} of {src_n}"
            )));
        }
        self.taken.push(s);
        self.sets.clear();
        let (dist, n, t) = self.dst;
        pair_plan(self.len, src_dist, src_n, s, dist, n, t, &mut self.sets);
        Ok(&self.sets)
    }

    /// A sink over the local slots of `set`. The vector is made on the
    /// first call, every slot holding `first()`.
    fn sink(
        &mut self,
        set: &Strided,
        first: impl FnOnce() -> OrbResult<T>,
    ) -> OrbResult<ElemSink<'_, T>> {
        let (dist, n, t) = self.dst;
        let at = set
            .layout(self.len, dist, n, t)
            .and_then(|at| Some((at, at.span()?)))
            .filter(|(_, span)| span.end <= self.local_len);
        let Some((at, span)) = at else {
            return Err(OrbError::Protocol(format!("planned {set:?} is not thread {t}'s")));
        };
        if self.local.is_empty() {
            self.local = vec![first()?; self.local_len];
        }
        Ok(ElemSink::strided(&mut self.local[span], at.block, at.stride))
    }

    /// Decode the share of the source taken last, in plan order, from `d`:
    /// one bulk [`CdrCodec::decode_elems_into`] call per set whatever its
    /// shape (for doubles, one loop over the local blocks).
    pub(crate) fn decode(&mut self, d: &mut Decoder) -> OrbResult<()> {
        for k in 0..self.sets.len() {
            let set = self.sets[k];
            let mut sink = self.sink(&set, || Ok(T::decode(&mut d.clone())?))?;
            T::decode_elems_into(d, &mut sink)?;
            self.stored += sink.filled();
        }
        Ok(())
    }

    /// Take source thread `s` and decode its whole share from `d`.
    pub(crate) fn take(&mut self, s: usize, d: &mut Decoder) -> OrbResult<()> {
        self.source(s)?;
        self.decode(d)
    }

    /// Take this thread as a source and clone its share out of `local`, its
    /// storage under the source template — the share of a redistribution
    /// that stays put: one strided pass per set
    /// ([`ElemSink::fill_strided`]).
    pub(crate) fn copy(&mut self, local: &[T]) -> OrbResult<()> {
        let ((from, from_n), t) = (self.src, self.dst.2);
        self.source(t)?;
        for k in 0..self.sets.len() {
            let set = self.sets[k];
            let src = set
                .layout(self.len, from, from_n, t)
                .and_then(|src| Some((src, src.span()?)))
                .filter(|(_, span)| span.end <= local.len());
            let Some((src, span)) = src else {
                return Err(OrbError::Protocol("local share not owned at its source".into()));
            };
            let items = &local[span];
            let mut sink = self.sink(&set, || Ok(items[0].clone()))?;
            sink.fill_strided(items, src.block, src.stride);
            self.stored += sink.filled();
        }
        Ok(())
    }

    /// The assembled local vector, once the stores add up to it.
    pub(crate) fn finish(self) -> OrbResult<Vec<T>> {
        if self.stored != self.local_len {
            return Err(OrbError::Protocol(format!(
                "{} of thread {}'s {} elements arrived",
                self.stored, self.dst.2, self.local_len
            )));
        }
        Ok(self.local)
    }
}

/// Assemble thread `t`'s local part from received fragments, each a
/// zero-copy slice of its frame, trusting nothing they claim. The source
/// template `(src_dist, src_n)` comes from the control and is validated
/// first. Each piece is then planned for its `src_thread`: it must be that
/// source's whole [`pair_plan`] share (its `start` and `count` are the
/// plan's), come from a source the sender has, be the only piece from that
/// source, and fit its own payload; and the pieces' counts must add up to
/// `local_len`.
///
/// A single piece that is the whole local part, as one run of it, is
/// adopted rather than copied when its payload is exactly the elements'
/// native image ([`CdrCodec::native_view`]: a native-image type, the payload
/// aligned for it in memory). The payload, often the sender's own storage
/// ([`Pack::body`]), becomes the local part. Anything else is decoded into
/// a fresh vector.
pub(crate) fn assemble<T: CdrCodec + Clone>(
    len: u64,
    (src_dist, src_n): (&Distribution, usize),
    (dist, n, t): (&Distribution, usize, usize),
    pieces: &[FragmentMsg],
) -> OrbResult<Local<T>> {
    dist.validate(len, n).map_err(OrbError::Protocol)?;
    src_dist
        .validate(len, src_n)
        .map_err(|e| OrbError::Protocol(format!("source template: {e}")))?;
    // No allocation is sized by a wire count alone: every element occupies
    // at least one payload byte, so the claimed counts are bounded by bytes
    // actually received before `local_len` slots are reserved.
    let per_elem = T::fixed_wire_size().unwrap_or(1).max(1) as u64;
    let mut claimed = 0u64;
    for p in pieces {
        if p.count.checked_mul(per_elem).is_none_or(|bytes| bytes > p.data.len() as u64) {
            return Err(OrbError::Protocol(format!(
                "fragment claims {} elements in {} bytes",
                p.count,
                p.data.len()
            )));
        }
        claimed = claimed.saturating_add(p.count);
    }
    let local_len = dist.local_len(len, n, t);
    if claimed != local_len {
        return Err(OrbError::Protocol(format!(
            "fragments carry {claimed} of thread {t}'s {local_len} elements"
        )));
    }
    let mut asm = Assembler::new(len, (src_dist, src_n), (dist, n, t));
    for p in pieces {
        let sets = asm.source(p.src_thread as usize)?;
        let planned: u64 = sets.iter().map(Strided::total).sum();
        if sets.first().map(|s| s.start) != Some(p.start) || planned != p.count {
            return Err(OrbError::Protocol(format!(
                "fragment {}+{} from thread {} does not match the transfer plan",
                p.start, p.count, p.src_thread
            )));
        }
        // Alone all of the local part, as one run of it, in exactly its
        // native image: the payload is the part.
        let one_run = |set: &Strided| {
            matches!(set.layout(len, dist, n, t), Some(Layout { lo: 0, count: 1, .. }))
        };
        if pieces.len() == 1
            && p.count == local_len
            && matches!(sets, [set] if one_run(set))
            && T::native_view(&p.data).is_some_and(|v| v.len() as u64 == local_len)
        {
            return Ok(Local::Adopted(p.data.clone()));
        }
        asm.decode(&mut Decoder::new(p.data.clone(), ByteOrder::native()))?;
    }
    Ok(asm.finish()?.into())
}
