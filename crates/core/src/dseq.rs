//! Distributed sequences — PARDIS's distributed argument structure.
//!
//! A [`DSequence`] generalises the CORBA sequence: a one-dimensional array
//! with variable length whose elements are spread over the address spaces of
//! an SPMD program's computing threads according to a [`Distribution`]
//! template (§3.2). Each computing thread holds a `DSequence` value covering
//! its local part; the collection of values across threads represents the
//! global sequence.
//!
//! Design notes mirroring the paper:
//!
//! * the sequence is primarily a **container for argument data** — local
//!   storage is an `Arc<Vec<T>>`, or a received payload adopted in place,
//!   so the "no-ownership constructor" ([`DSequence::from_shared`]) and
//!   access to owned data ([`DSequence::local`], [`DSequence::take_local`])
//!   let programmers build cheap conversions to and from their package's
//!   native structures;
//! * `operator[]` location transparency is exposed as
//!   [`DSequence::local_iter`] (each local element with its global index)
//!   plus the collective [`DSequence::gather`] for whole-sequence access;
//! * [`DSequence::redistribute`] applies a new template, exchanging elements
//!   through the run-time system interface.

use crate::dist::{Distribution, Run};
use crate::error::{OrbError, OrbResult};
use crate::strided::{pair_plan, Assembler, Pack, Strided};
use bytes::Bytes;
use pardis_cdr::{ByteOrder, CdrCodec, Decoder, Encoder};
use pardis_rts::{Rts, WindowId, Windows};
use std::sync::Arc;

/// A distributed sequence: one computing thread's view of a globally
/// distributed one-dimensional array.
#[derive(Clone)]
pub struct DSequence<T> {
    global_len: u64,
    dist: Distribution,
    nthreads: usize,
    thread: usize,
    local: Local<T>,
}

/// Where a sequence's local elements live. Neither form is ever written
/// through: a clone, a frame body or a replay entry shares the storage, and
/// the storage outlives the last of them.
#[derive(Clone)]
pub(crate) enum Local<T> {
    /// The sequence's own vector.
    Owned(Arc<Vec<T>>),
    /// A received payload that is the elements' native image
    /// ([`CdrCodec::native_view`] accepts it), kept as the elements instead
    /// of decoded into a copy — often the sender's storage itself.
    Adopted(Bytes),
}

impl<T> From<Arc<Vec<T>>> for Local<T> {
    fn from(v: Arc<Vec<T>>) -> Self {
        Local::Owned(v)
    }
}

impl<T> From<Vec<T>> for Local<T> {
    fn from(v: Vec<T>) -> Self {
        Local::Owned(Arc::new(v))
    }
}

impl<T: CdrCodec> Local<T> {
    fn as_slice(&self) -> &[T] {
        match self {
            Local::Owned(v) => v,
            Local::Adopted(b) => T::native_view(b).expect("adopted only as a native view"),
        }
    }
}

impl<T: CdrCodec + Clone> DSequence<T> {
    /// Build the local part for `thread` of `nthreads` by distributing a
    /// fully materialised vector (each thread extracts its own slice).
    /// Convenient at client entry points.
    pub fn distribute(full: &[T], dist: Distribution, nthreads: usize, thread: usize) -> Self {
        let len = full.len() as u64;
        dist.validate(len, nthreads).expect("invalid distribution");
        let mut local = Vec::with_capacity(dist.local_len(len, nthreads, thread) as usize);
        for r in dist.owned(len, nthreads, thread).iter().flat_map(Strided::runs) {
            local.extend_from_slice(&full[r.start as usize..(r.start + r.count) as usize]);
        }
        DSequence { global_len: len, dist, nthreads, thread, local: local.into() }
    }

    /// Wrap this thread's already-local elements (`local.len()` must equal
    /// the template's local length for this thread).
    pub fn from_local(
        local: Vec<T>,
        global_len: u64,
        dist: Distribution,
        nthreads: usize,
        thread: usize,
    ) -> Self {
        Self::from_shared(local, global_len, dist, nthreads, thread)
    }

    /// The no-ownership constructor: share existing storage without copying.
    ///
    /// # Panics
    /// Panics if the shared storage length does not match the template.
    pub(crate) fn from_shared(
        local: impl Into<Local<T>>,
        global_len: u64,
        dist: Distribution,
        nthreads: usize,
        thread: usize,
    ) -> Self {
        let local = local.into();
        dist.validate(global_len, nthreads).expect("invalid distribution");
        let expect = dist.local_len(global_len, nthreads, thread);
        let held = local.as_slice().len();
        assert_eq!(
            held as u64, expect,
            "local storage holds {held} elements but the template assigns {expect} to thread {thread}"
        );
        DSequence { global_len, dist, nthreads, thread, local }
    }

    /// A non-distributed (single-threaded) sequence holding all elements —
    /// what a *single client* passes to the non-distributed stub variant.
    pub fn concentrated(full: Vec<T>) -> Self {
        let len = full.len() as u64;
        DSequence {
            global_len: len,
            dist: Distribution::Concentrated(0),
            nthreads: 1,
            thread: 0,
            local: full.into(),
        }
    }

    /// Global element count.
    pub fn len(&self) -> u64 {
        self.global_len
    }

    /// True if globally empty.
    pub fn is_empty(&self) -> bool {
        self.global_len == 0
    }

    /// The distribution template.
    pub fn dist(&self) -> &Distribution {
        &self.dist
    }

    /// This view's thread index.
    pub fn thread(&self) -> usize {
        self.thread
    }

    /// Number of computing threads the sequence is spread over.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// This thread's local elements. For a sequence assembled from a
    /// received payload that was the elements' native image, this is that
    /// payload — often the sender's own storage — viewed in place.
    pub fn local(&self) -> &[T] {
        self.local.as_slice()
    }

    /// Take the local elements out as a vector of their own: a move of the
    /// storage when this sequence is its sole owner, a copy otherwise — when
    /// a clone, a frame in flight or a replay entry still shares it, or when
    /// the elements are a received payload adopted in place (see
    /// [`DSequence::local`]). That copy is then the only one the elements
    /// took on their way in.
    pub fn take_local(self) -> Vec<T> {
        match self.local {
            // Sole owner: guaranteed move of the storage, never a copy.
            Local::Owned(v) => Arc::try_unwrap(v).unwrap_or_else(|v| (*v).clone()),
            adopted @ Local::Adopted(_) => adopted.as_slice().to_vec(),
        }
    }

    /// The maximal global index runs owned by this thread.
    pub fn my_runs(&self) -> Vec<Run> {
        self.dist.runs(self.global_len, self.nthreads, self.thread)
    }

    /// Iterate this thread's elements with their global indices.
    pub fn local_iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        let owned = self.dist.owned(self.global_len, self.nthreads, self.thread);
        let indices = owned
            .0
            .into_iter()
            .flatten()
            .flat_map(|set| set.runs().flat_map(|r| r.start..r.start + r.count));
        indices.zip(self.local().iter())
    }

    /// CDR-encode the elements of global range `[start, start+count)`,
    /// which must be owned by this thread.
    ///
    /// # Panics
    /// Panics if any element of the range is not local.
    pub fn encode_range(&self, start: u64, count: u64) -> Bytes {
        let mut e = Encoder::with_capacity(ByteOrder::native(), (count as usize) * 8);
        self.encode_range_into(start, count, &mut e);
        e.finish()
    }

    /// Streaming form of [`DSequence::encode_range`]: append the range's
    /// elements to an existing encoder.
    pub(crate) fn encode_range_into(&self, start: u64, count: u64, e: &mut Encoder) {
        if count > 0 {
            self.pack_into(&[Strided::run(start, count)], e);
        }
    }

    /// Pack the elements of the given index sets, in order, into `e`: one
    /// codec call per set. A set whose local image is dense is one run
    /// through the bulk [`CdrCodec::encode_elems`] hook (a `memcpy` for
    /// native-order primitives), a strided one goes through
    /// [`CdrCodec::encode_strided`] (one tight loop over the blocks for
    /// doubles).
    ///
    /// # Panics
    /// Panics if any set is not wholly owned by this thread.
    pub(crate) fn pack_into(&self, sets: &[Strided], e: &mut Encoder) {
        for set in sets {
            let (at, span) = set
                .layout(self.global_len, &self.dist, self.nthreads, self.thread)
                .and_then(|at| Some((at, at.span()?)))
                .unwrap_or_else(|| panic!("{set:?} is not local to thread {}", self.thread));
            let items = &self.local()[span];
            if at.count == 1 {
                T::encode_elems(items, e);
            } else {
                T::encode_strided(items, at.block, at.stride, e);
            }
        }
    }

    /// Collective: materialise the whole sequence on every thread, using the
    /// run-time system interface. Must be called by all threads.
    pub fn gather(&self, rts: &dyn Rts) -> Vec<T> {
        assert_eq!(rts.size(), self.nthreads, "gather over a mismatched RTS world");
        assert_eq!(rts.rank(), self.thread, "gather called from the wrong thread");
        let mut e = Encoder::new(ByteOrder::native());
        T::encode_elems(self.local(), &mut e);
        // Each part is its thread's local in local order, which is the order
        // of its share of "thread 0 of 1", where everything lands.
        let parts = rts.all_gather(e.finish()).into_iter().map(Some).enumerate();
        self.assemble((&Distribution::Concentrated(0), 1, 0), parts).expect("gathered elements")
    }

    /// The index sets that move from thread `src` under the current template
    /// to thread `dst` under `to`; whether there are any.
    fn share(&self, src: usize, to: &Distribution, dst: usize, out: &mut Vec<Strided>) -> bool {
        out.clear();
        let n = self.nthreads;
        pair_plan(self.global_len, &self.dist, n, src, to, n, dst, out);
        !out.is_empty()
    }

    /// This thread's local part under `to`, from the sources' shares in the
    /// order given: a `Some` share is decoded, `None` is this thread's own,
    /// copied out of its local.
    fn assemble(
        &self,
        to: (&Distribution, usize, usize),
        shares: impl IntoIterator<Item = (usize, Option<Bytes>)>,
    ) -> OrbResult<Vec<T>> {
        let mut asm = Assembler::new(self.global_len, (&self.dist, self.nthreads), to);
        for (src, share) in shares {
            match share {
                Some(share) => asm.take(src, &mut Decoder::new(share, ByteOrder::native()))?,
                None => asm.copy(self.local())?,
            }
        }
        asm.finish()
    }
}

/// Redistribution. A share may leave as a view of the sequence's storage,
/// which another thread then holds: hence the bounds.
impl<T: CdrCodec + Clone + Send + Sync + 'static> DSequence<T> {
    /// Collective: apply a new distribution template, exchanging elements
    /// thread-to-thread through the run-time system. Must be called by all
    /// threads with the same `new_dist`.
    ///
    /// The templates and the element type pick the transport; every thread
    /// sees the same ones, so the choice is collective:
    ///
    /// * to `Concentrated(root)`, one [`Rts::gather`]; from it, one
    ///   [`Rts::scatter`]. Only the receivers wait, so a funneled call holds
    ///   no thread at a rendezvous;
    /// * between distributed templates, a pull through one-sided windows
    ///   ([`Rts::windows`]): every destination `get`s exactly what its plan
    ///   names from each source, as strided byte spans of the source's
    ///   encoded local for fixed-width elements, as a packed share found
    ///   through an offset table for variable-width ones.
    ///
    /// # Panics
    /// Panics if the RTS does not match the sequence, if `new_dist` is not
    /// valid for it, or if the exchange fails.
    pub fn redistribute(&mut self, rts: &dyn Rts, new_dist: Distribution) {
        assert_eq!(rts.size(), self.nthreads, "redistribute over a mismatched RTS world");
        assert_eq!(rts.rank(), self.thread, "redistribute called from the wrong thread");
        self.local = self.exchange(rts, &new_dist).expect("redistribution").into();
        self.dist = new_dist;
    }

    /// Run the transport [`DSequence::redistribute`] picks: this thread's
    /// local part under `to`.
    fn exchange(&self, rts: &dyn Rts, to: &Distribution) -> OrbResult<Vec<T>> {
        to.validate(self.global_len, self.nthreads).map_err(OrbError::Protocol)?;
        let windows = || {
            rts.windows()
                .ok_or_else(|| OrbError::Protocol("the RTS has no one-sided windows".into()))
        };
        match (&self.dist, to) {
            (_, &Distribution::Concentrated(root)) => self.gather_to(rts, root, to),
            (&Distribution::Concentrated(root), _) => self.scatter_from(rts, root, to),
            _ => match T::fixed_wire_size() {
                Some(size) => self.pull(rts, windows()?, to, size as u64),
                None => self.pull_packed(rts, windows()?, to),
            },
        }
    }

    /// This thread's share for thread `dst` under `to`: a view of its
    /// storage when the share is one run of it in native image
    /// ([`Pack::body`]), packed into a buffer sized for it otherwise.
    fn packed_share(&self, to: &Distribution, dst: usize, sets: &mut Vec<Strided>) -> Bytes {
        self.share(self.thread, to, dst, sets);
        if let Some(view) = Pack::body(self, sets) {
            return view;
        }
        let count: u64 = sets.iter().map(Strided::total).sum();
        let size = count as usize * T::fixed_wire_size().unwrap_or(8);
        let mut e = Encoder::with_capacity(ByteOrder::native(), size);
        self.pack_into(sets, &mut e);
        e.finish()
    }

    /// Gather to `Concentrated(root)`: each thread's share for the root is
    /// its [`Rts::gather`] part. The root copies its own share before it
    /// waits for the others', then decodes theirs; everyone else is left
    /// with nothing.
    fn gather_to(&self, rts: &dyn Rts, root: usize, to: &Distribution) -> OrbResult<Vec<T>> {
        let me = self.thread;
        let part = if me == root { Bytes::new() } else { self.packed_share(to, root, &mut vec![]) };
        let gathered = std::iter::once_with(|| rts.gather(root, part).unwrap_or_default());
        let parts = gathered.flatten().enumerate().filter(|&(src, _)| src != me);
        let own = std::iter::once((me, None));
        self.assemble((to, self.nthreads, me), own.chain(parts.map(|(src, p)| (src, Some(p)))))
    }

    /// Scatter from `Concentrated(root)`: the root's [`Rts::scatter`] part
    /// for each peer is that peer's share, and it copies its own; each peer
    /// decodes the part it receives.
    fn scatter_from(&self, rts: &dyn Rts, root: usize, to: &Distribution) -> OrbResult<Vec<T>> {
        let (me, n) = (self.thread, self.nthreads);
        let parts = (me == root).then(|| {
            let mut sets = Vec::new();
            let pack =
                |dst| if dst == me { Bytes::new() } else { self.packed_share(to, dst, &mut sets) };
            (0..n).map(pack).collect()
        });
        let part = rts.scatter(root, parts);
        self.assemble((to, n, me), [(root, (me != root).then_some(part))])
    }

    /// One-sided pull of fixed-width elements: sources are passive. Each
    /// thread exposes its encoded local for one get by each peer its plan
    /// sends to (the last withdraws it); after one barrier, each
    /// destination issues in turn ([`in_turn`](Windows::in_turn)) one
    /// [`get_strided_nb`](Windows::get_strided_nb) per remote source, for
    /// the strided byte spans of its plan.
    ///
    /// The byte arithmetic is licensed by [`CdrCodec::fixed_wire_size`]
    /// (`size` here): a homogeneous fixed-size array encoded from stream
    /// offset 0 places element `i` at byte `i * size` with no padding, so a
    /// set whose source locals start at `lo`, `stride` apart, is the same
    /// shape scaled by `size`.
    fn pull(&self, rts: &dyn Rts, w: &Windows, to: &Distribution, size: u64) -> OrbResult<Vec<T>> {
        let (me, n) = (self.thread, self.nthreads);
        let mut sets = Vec::new();
        let readers = (0..n).filter(|&dst| dst != me && self.share(me, to, dst, &mut sets)).count();
        // Every thread takes the base so the sequence stays aligned.
        let base = w.collective_window_base();
        if readers > 0 {
            let mut e =
                Encoder::with_capacity(ByteOrder::native(), self.local().len() * size as usize);
            T::encode_elems(self.local(), &mut e);
            w.expose_for_gets(base, e.into_vec(), readers)?;
        }
        rts.barrier();

        // All gets issued before any is awaited; a reply concatenates the
        // spans in request order, which is the plan order the assembler
        // decodes in.
        let pulls = w.in_turn(base, || {
            let mut pulls = Vec::new();
            for src in (0..n).filter(|&src| src != me) {
                if !self.share(src, to, me, &mut sets) {
                    continue;
                }
                let mut spans = Vec::with_capacity(sets.len());
                for set in &sets {
                    let (lo, lstride) = set
                        .localize(self.global_len, &self.dist, n, src)
                        .ok_or_else(|| OrbError::Protocol(format!("{set:?} is not {src}'s")))?;
                    spans.push((lo * size, lstride * size, set.block * size, set.count));
                }
                pulls.push((src, w.get_strided_nb(WindowId { owner: src, base }, spans)?));
            }
            OrbResult::Ok(pulls)
        })?;
        let pulled = pulls.into_iter().map(|(src, handle)| (src, Some(handle.wait())));
        self.assemble((to, n, me), std::iter::once((me, None)).chain(pulled))
    }

    /// One-sided pull of variable-width elements. Each thread packs every
    /// peer's share into one buffer behind a table of `n + 1` `u64` offsets
    /// (in the stream's byte order): share `d` spans `[table[d],
    /// table[d + 1])` and starts 8-aligned, so CDR alignment inside it is
    /// what it would be from offset 0. The buffer is exposed once, for two
    /// gets by each reader; after one barrier each destination gets, in
    /// turn, its two offsets from each source, then the bytes between them.
    fn pull_packed(&self, rts: &dyn Rts, w: &Windows, to: &Distribution) -> OrbResult<Vec<T>> {
        let (me, n) = (self.thread, self.nthreads);
        let mut e = Encoder::new(ByteOrder::native());
        e.write_raw(&vec![0; (n + 1) * 8]);
        let (mut offsets, mut readers, mut sets) = (Vec::with_capacity(n + 1), 0, Vec::new());
        for dst in 0..n {
            e.align(8);
            offsets.push(e.len() as u64);
            if dst != me && self.share(me, to, dst, &mut sets) {
                self.pack_into(&sets, &mut e);
                readers += 1;
            }
        }
        offsets.push(e.len() as u64);
        let mut packed = e.into_vec();
        for (entry, offset) in packed.chunks_exact_mut(8).zip(&offsets) {
            entry.copy_from_slice(&offset.to_ne_bytes());
        }
        let base = w.collective_window_base();
        w.expose_for_gets(base, packed, 2 * readers)?;
        rts.barrier();

        let pulls = w.in_turn(base, || {
            let sources = (0..n).filter(|&src| src != me && self.share(src, to, me, &mut sets));
            let tables = sources
                .map(|src| Ok((src, w.get_nb(WindowId { owner: src, base }, me as u64 * 8, 16)?)))
                .collect::<OrbResult<Vec<_>>>()?;
            let mut pulls = Vec::with_capacity(tables.len());
            for (src, table) in tables {
                let mut d = Decoder::new(table.wait(), ByteOrder::native());
                let (lo, hi) = (d.read_u64()?, d.read_u64()?);
                let id = WindowId { owner: src, base };
                pulls.push((src, w.get_nb(id, lo, hi.saturating_sub(lo))?));
            }
            OrbResult::Ok(pulls)
        })?;
        let pulled = pulls.into_iter().map(|(src, handle)| (src, Some(handle.wait())));
        self.assemble((to, n, me), std::iter::once((me, None)).chain(pulled))
    }
}

impl<T: CdrCodec + Clone + Send + Sync + 'static> Pack for DSequence<T> {
    fn payload_len(&self, elems: u64) -> usize {
        elems as usize * T::fixed_wire_size().unwrap_or(8)
    }

    fn pack_into(&self, sets: &[Strided], e: &mut Encoder) {
        DSequence::pack_into(self, sets, e);
    }

    fn body(&self, sets: &[Strided]) -> Option<Bytes> {
        let [set] = sets else { return None };
        let at = set.layout(self.global_len, &self.dist, self.nthreads, self.thread)?;
        let span = at.span().filter(|_| at.count == 1)?;
        let part = T::native_image(&self.local()[span])?;
        let whole = match &self.local {
            Local::Owned(v) => Bytes::from_owner(Image(v.clone())),
            Local::Adopted(b) => b.clone(),
        };
        let lo = part.as_ptr() as usize - whole.as_ptr() as usize;
        Some(whole.slice(lo..lo + part.len()))
    }

    fn concentrate(&self, rts: &dyn Rts) -> Box<dyn Pack> {
        let mut whole = self.clone();
        whole.redistribute(rts, Distribution::Concentrated(0));
        Box::new(whole)
    }
}

/// A sequence's storage seen as the bytes of its native image
/// ([`CdrCodec::native_image`]): the owner of a frame body, which keeps the
/// storage alive while the frame is in flight or kept for replay. The
/// storage never changes while shared, so the bytes do not either.
struct Image<T>(Arc<Vec<T>>);

impl<T: CdrCodec> AsRef<[u8]> for Image<T> {
    fn as_ref(&self) -> &[u8] {
        T::native_image(&self.0).unwrap_or_default()
    }
}

impl<T: CdrCodec + Clone + PartialEq> PartialEq for DSequence<T> {
    fn eq(&self, other: &Self) -> bool {
        self.global_len == other.global_len
            && self.dist == other.dist
            && self.nthreads == other.nthreads
            && self.thread == other.thread
            && self.local() == other.local()
    }
}

impl<T: CdrCodec + std::fmt::Debug> std::fmt::Debug for DSequence<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DSequence")
            .field("global_len", &self.global_len)
            .field("dist", &self.dist)
            .field("nthreads", &self.nthreads)
            .field("thread", &self.thread)
            .field("local", &self.local.as_slice())
            .finish()
    }
}
