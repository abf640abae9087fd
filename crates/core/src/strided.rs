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
//! thread count)` of each side, so no descriptor ever travels: a receiver
//! that does not know the sender's template is told the template
//! ([`crate::protocol::SrcTemplate`]) and recomputes the same plan.

use crate::dist::{Distribution, Run};
use crate::dseq::Local;
use crate::error::{OrbError, OrbResult};
use crate::protocol::{frame_fragment, FragmentMsg, Payload, SrcTemplate, Wire};
use bytes::Bytes;
use pardis_cdr::{ByteOrder, CdrCodec, Decoder, ElemSink, Encoder};
use pardis_rts::Rts;
use std::mem::{ManuallyDrop, MaybeUninit};

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
    /// not owned by `t` — checked exhaustively for a single run (the only
    /// shape that arrives from a wire), at both ends for a [`pair_plan`]
    /// product.
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

    /// Call `f(w, mask)` for each 64-slot bitmap word that the layout's
    /// first `n` slots (at most all of them, and the layout inside its
    /// [`Layout::span`]) touch, in order and once per word, with the mask of
    /// those slots' bits in it. Bits of consecutive blocks are gathered per
    /// word, so a word is read or written once, not once per block.
    fn for_words(&self, n: usize, mut f: impl FnMut(usize, u64)) {
        // The first word touched is `lo`'s, so a word change always has
        // bits to hand over.
        let (mut cur, mut acc) = (self.lo / 64, 0u64);
        let mut put = |w: usize, mask: u64| {
            if w != cur {
                f(cur, acc);
                (cur, acc) = (w, 0);
            }
            acc |= mask;
        };
        let mut run = |lo: usize, len: usize| {
            let bit = lo % 64;
            if bit + len <= 64 {
                // Inside one word, as every short block mostly is.
                return put(lo / 64, u64::MAX >> (64 - len) << bit);
            }
            let last = (lo + len - 1) / 64;
            put(lo / 64, u64::MAX << bit);
            for w in lo / 64 + 1..last {
                put(w, u64::MAX);
            }
            put(last, u64::MAX >> (63 - (lo + len - 1) % 64));
        };
        let (whole, part) = (n / self.block, n % self.block);
        for k in 0..whole {
            run(self.lo + k * self.stride, self.block);
        }
        if part > 0 {
            run(self.lo + whole * self.stride, part);
        }
        if acc != 0 {
            f(cur, acc);
        }
    }
}

/// The 64-slot bitmap words a run of slots `lo..lo + n` (`n > 0`) covers:
/// the first and last word with the mask of the run's bits in each (one
/// word, twice, when the run fits in it), and the whole words between them.
struct RunWords {
    edges: [(usize, u64); 2],
    whole: std::ops::Range<usize>,
}

impl RunWords {
    fn new(lo: usize, n: usize) -> RunWords {
        let (first, last) = (lo / 64, (lo + n - 1) / 64);
        let head = u64::MAX << (lo % 64);
        let tail = u64::MAX >> (63 - (lo + n - 1) % 64);
        if first == last {
            RunWords { edges: [(first, head & tail); 2], whole: first..first }
        } else {
            RunWords { edges: [(first, head), (last, tail)], whole: first + 1..last }
        }
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

/// One received fragment of a distributed argument: the packed elements one
/// source thread sent to this thread.
#[derive(Debug, Clone)]
pub struct Piece {
    /// First global index of the pair's elements.
    pub start: u64,
    /// Number of elements in `data`.
    pub count: u64,
    /// Sending thread.
    pub src_thread: u32,
    /// `None`: `data` is the contiguous run `[start, start + count)`.
    /// `Some`: `data` is the sender's `pair_plan` share for this thread
    /// under the given source-side template.
    pub template: Option<SrcTemplate>,
    /// CDR-encoded elements in plan order (a zero-copy slice of the frame).
    pub data: Bytes,
}

impl Piece {
    /// The piece a received bulk-data frame carries (`template` is `Some`
    /// for a `Strided` frame). `frame.data` is a zero-copy slice of the
    /// wire frame; keeping it keeps the frame alive instead of copying.
    pub(crate) fn from_frame(frame: FragmentMsg, template: Option<SrcTemplate>) -> Piece {
        Piece {
            start: frame.start,
            count: frame.count,
            src_thread: frame.src_thread,
            template,
            data: frame.data,
        }
    }
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
/// every frame shares (request, argument, direction, source thread). A pair
/// that exchanges one contiguous run travels as a plain `Fragment` frame;
/// anything else as a `Strided` frame naming the source-side template.
/// When the pair's elements are one run of the sender's storage in their
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
        let contiguous = sets.len() == 1 && first.count == 1;
        let template = (!contiguous).then_some((src_dist, src_n as u32));
        let rider = riders.get_mut(dst).and_then(Option::take);
        let payload = match share.body(&sets) {
            Some(body) => Payload::Body(body),
            None => Payload::Packed(share.payload_len(head.count), |e: &mut Encoder| {
                share.pack_into(&sets, e)
            }),
        };
        let wire = frame_fragment(&head, template, rider.as_ref(), ack_lag, payload);
        emit(&head, wire)?;
    }
    Ok(())
}

/// A `Vec<T>` under construction whose elements arrive out of order. One
/// bit per slot records which slots hold a value: a slot is never written
/// twice, and [`Slots::finish`] releases the vector only once every bit is
/// set — the map is the coverage proof, not a per-element `Option`, and a
/// whole block is checked and marked a word at a time.
struct Slots<T> {
    buf: Vec<MaybeUninit<T>>,
    /// Bit `i` is set exactly when `buf[i]` is initialised.
    set: Vec<u64>,
    filled: usize,
}

impl<T> Slots<T> {
    fn new(n: usize) -> Self {
        let mut buf = Vec::with_capacity(n);
        buf.resize_with(n, MaybeUninit::uninit);
        Slots { buf, set: vec![0; n.div_ceil(64)], filled: 0 }
    }

    /// Let `fill` store values in the slots of layout `at`, front to back
    /// in layout order, and return what it returns. Refused, with `fill`
    /// not run and nothing stored, when the layout is malformed, leaves the
    /// vector or touches a slot that already holds a value.
    fn fill<R>(
        &mut self,
        at: Layout,
        fill: impl FnOnce(&mut ElemSink<'_, T>) -> R,
    ) -> Result<R, ()> {
        let span = at.span().filter(|span| span.end <= self.buf.len()).ok_or(())?;
        // A dense layout is one run: its whole words are checked and marked
        // as slices, not word by word.
        let dense = at.count == 1;
        let taken = if dense {
            let run = RunWords::new(at.lo, at.block);
            self.set[run.whole].iter().any(|&w| w != 0)
                || run.edges.iter().any(|&(w, mask)| self.set[w] & mask != 0)
        } else {
            let mut taken = 0;
            at.for_words(at.block * at.count, |w, mask| taken |= self.set[w] & mask);
            taken != 0
        };
        if taken {
            return Err(());
        }
        let mut sink = ElemSink::strided(&mut self.buf[span], at.block, at.stride);
        let out = fill(&mut sink);
        // Bits follow the writes, and only as far as the sink says they
        // really went: a set bit always means an initialised slot.
        let filled = sink.filled();
        let set = &mut self.set;
        if !dense {
            at.for_words(filled, |w, mask| set[w] |= mask);
        } else if filled > 0 {
            let run = RunWords::new(at.lo, filled);
            set[run.whole].fill(u64::MAX);
            for (w, mask) in run.edges {
                set[w] |= mask;
            }
        }
        self.filled += filled;
        Ok(out)
    }

    /// The finished vector, or the first slot that never got a value.
    fn finish(mut self) -> Result<Vec<T>, usize> {
        if self.filled != self.buf.len() {
            let word = self.set.iter().position(|w| *w != u64::MAX).unwrap_or(0);
            return Err(word * 64 + self.set[word].trailing_ones() as usize);
        }
        let mut buf = ManuallyDrop::new(std::mem::take(&mut self.buf));
        // SAFETY: `fill` sets (and counts) exactly the previously clear
        // bits of the slots its sink initialised (the sink's first `filled`
        // slots in layout order, which are the slots `Layout::for_words`
        // marks), so `filled == len` means all `len` slots are initialised. `MaybeUninit<T>` has the layout of
        // `T`, and the allocation is handed over whole (the `ManuallyDrop`
        // keeps the old handle from freeing it).
        Ok(unsafe { Vec::from_raw_parts(buf.as_mut_ptr().cast::<T>(), buf.len(), buf.capacity()) })
    }
}

impl<T> Drop for Slots<T> {
    fn drop(&mut self) {
        if !std::mem::needs_drop::<T>() {
            return;
        }
        for (i, slot) in self.buf.iter_mut().enumerate() {
            if self.set[i / 64] & (1 << (i % 64)) != 0 {
                // SAFETY: the bit is set only after `fill` saw the slot
                // initialised, and nothing reads the slot after this drop.
                unsafe { slot.assume_init_drop() };
            }
        }
    }
}

/// The one scatter helper behind `ServerRequest::dseq`, the client's
/// out-argument assembly, `DSequence::gather` and `redistribute`: decodes
/// packed payloads straight into the strided slots of this thread's new
/// local vector.
pub(crate) struct Assembler<'a, T> {
    len: u64,
    dist: &'a Distribution,
    n: usize,
    t: usize,
    slots: Slots<T>,
}

impl<'a, T: CdrCodec> Assembler<'a, T> {
    /// Assemble thread `t`'s local part of `len` elements under `dist`
    /// (which must be valid for `(len, n)`).
    pub(crate) fn new(len: u64, dist: &'a Distribution, n: usize, t: usize) -> Self {
        let slots = Slots::new(dist.local_len(len, n, t) as usize);
        Assembler { len, dist, n, t, slots }
    }

    fn locate(&self, set: &Strided) -> OrbResult<Layout> {
        set.layout(self.len, self.dist, self.n, self.t).ok_or_else(|| {
            OrbError::Protocol(format!(
                "elements {}..{} do not belong to thread {}",
                set.start,
                set.start.saturating_add(set.block),
                self.t
            ))
        })
    }

    /// [`Slots::fill`] over the local slots of `set`, a refusal reported as
    /// the protocol error it is.
    fn fill(
        &mut self,
        set: &Strided,
        fill: impl FnOnce(&mut ElemSink<'_, T>) -> OrbResult<()>,
    ) -> OrbResult<()> {
        let at = self.locate(set)?;
        self.slots.fill(at, fill).unwrap_or_else(|()| {
            Err(OrbError::Protocol(format!(
                "local elements of {set:?} (from {}) delivered twice",
                at.lo
            )))
        })
    }

    /// Decode the elements of `set`, in order, from `d` into their slots:
    /// one bulk [`CdrCodec::decode_elems_into`] call whatever the set's
    /// shape (for doubles, one loop over the local blocks).
    pub(crate) fn decode(&mut self, set: &Strided, d: &mut Decoder) -> OrbResult<()> {
        self.fill(set, |sink| Ok(T::decode_elems_into(d, sink)?))
    }

    /// Clone the elements of `set` out of `local`, the storage of the same
    /// thread under `from` — the share of a redistribution that stays put.
    pub(crate) fn copy(&mut self, set: &Strided, local: &[T], from: &Distribution) -> OrbResult<()>
    where
        T: Clone,
    {
        let (src, span) = set
            .layout(self.len, from, self.n, self.t)
            .and_then(|src| Some((src, src.span()?)))
            .ok_or_else(|| OrbError::Protocol("local share not owned at its source".into()))?;
        self.fill(set, |sink| {
            for blk in local[span].chunks(src.stride) {
                for v in &blk[..src.block] {
                    sink.push(v.clone());
                }
            }
            Ok(())
        })
    }

    /// The assembled local vector; an error names the first element no
    /// payload covered.
    pub(crate) fn finish(self) -> OrbResult<Vec<T>> {
        self.slots
            .finish()
            .map_err(|i| OrbError::Protocol(format!("local element {i} never arrived")))
    }
}

/// Assemble thread `t`'s local part from received fragments, trusting
/// nothing they claim: every piece must fit its own payload, lie inside
/// this thread's ownership, overlap no other piece, and together they must
/// cover all `local_len` elements. A [`Piece::template`] is validated and
/// the pair plan recomputed from it; the piece's `start`/`count` must match
/// that plan.
///
/// A piece that passed all of that and alone is the whole local part, as
/// one run of it, is adopted rather than copied when its payload is exactly
/// the elements' native image ([`CdrCodec::native_view`]: a native-image
/// type, the payload aligned for it in memory). The payload, often the
/// sender's own storage ([`Pack::body`]), becomes the local part. Anything
/// else is decoded into a fresh vector.
pub(crate) fn assemble<T: CdrCodec>(
    len: u64,
    dist: &Distribution,
    n: usize,
    t: usize,
    pieces: &[Piece],
) -> OrbResult<Local<T>> {
    dist.validate(len, n).map_err(OrbError::Protocol)?;
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
    // The slots are reserved only once a piece is to be copied into them.
    let mut asm = None;
    let mut sets = Vec::new();
    for p in pieces.iter().filter(|p| p.count > 0) {
        sets.clear();
        match &p.template {
            None => sets.push(Strided::run(p.start, p.count)),
            Some(tmpl) => {
                let src_n = tmpl.nthreads as usize;
                tmpl.dist.validate(len, src_n).map_err(OrbError::Protocol)?;
                if p.src_thread as usize >= src_n {
                    return Err(OrbError::Protocol(format!(
                        "fragment from thread {} of a {src_n}-thread sender",
                        p.src_thread
                    )));
                }
                pair_plan(len, &tmpl.dist, src_n, p.src_thread as usize, dist, n, t, &mut sets);
                let planned: u64 = sets.iter().map(Strided::total).sum();
                if sets.first().map(|s| s.start) != Some(p.start) || planned != p.count {
                    return Err(OrbError::Protocol(format!(
                        "fragment {}+{} from thread {} does not match the transfer plan",
                        p.start, p.count, p.src_thread
                    )));
                }
            }
        }
        // Alone all of the local part (the counts add up to it), as one
        // run of it, in exactly its native image: the payload is the part.
        let one_run = |set: &Strided| {
            matches!(set.layout(len, dist, n, t), Some(Layout { lo: 0, count: 1, .. }))
        };
        if p.count == local_len
            && matches!(&sets[..], [set] if one_run(set))
            && T::native_view(&p.data).is_some_and(|v| v.len() as u64 == local_len)
        {
            return Ok(Local::Adopted(p.data.clone()));
        }
        let asm = asm.get_or_insert_with(|| Assembler::new(len, dist, n, t));
        let mut d = Decoder::new(p.data.clone(), ByteOrder::native());
        for set in &sets {
            asm.decode(set, &mut d)?;
        }
    }
    let asm = asm.unwrap_or_else(|| Assembler::new(len, dist, n, t));
    Ok(asm.finish()?.into())
}
