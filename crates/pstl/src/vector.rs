//! The distributed vector.

use bytes::Bytes;
use pardis_cdr::CdrCodec;
use pardis_core::{DSequence, Distribution};
use pardis_rts::{ReduceOp, Rts};

/// Tag for vector shift/halo traffic (user band).
const SHIFT_TAG: u64 = 0x7001;
/// Tag for scan prefix exchange (user band).
const SCAN_TAG: u64 = 0x7002;

/// One computing thread's block of a distributed vector.
///
/// Elements are block-distributed (the PSTL default): thread `t` of `n`
/// holds a contiguous run, first `len % n` threads one element longer.
#[derive(Debug, Clone, PartialEq)]
pub struct DistVector<T> {
    global_len: usize,
    nthreads: usize,
    thread: usize,
    local: Vec<T>,
}

impl<T: Clone + Send> DistVector<T> {
    /// Build this thread's block by distributing a full vector.
    pub fn distribute(full: &[T], nthreads: usize, thread: usize) -> Self {
        let (start, count) = block_range(full.len(), nthreads, thread);
        DistVector {
            global_len: full.len(),
            nthreads,
            thread,
            local: full[start..start + count].to_vec(),
        }
    }

    /// Build from a generator of global indices.
    pub fn from_fn(len: usize, nthreads: usize, thread: usize, f: impl Fn(usize) -> T) -> Self {
        let (start, count) = block_range(len, nthreads, thread);
        DistVector {
            global_len: len,
            nthreads,
            thread,
            local: (start..start + count).map(f).collect(),
        }
    }

    /// Wrap an already-local block.
    ///
    /// # Panics
    /// Panics if the block size does not match the distribution.
    pub fn from_local(local: Vec<T>, global_len: usize, nthreads: usize, thread: usize) -> Self {
        let (_, count) = block_range(global_len, nthreads, thread);
        assert_eq!(local.len(), count, "local block has the wrong size");
        DistVector { global_len, nthreads, thread, local }
    }

    /// Global length.
    pub fn len(&self) -> usize {
        self.global_len
    }

    /// True if globally empty.
    pub fn is_empty(&self) -> bool {
        self.global_len == 0
    }

    /// This thread's block.
    pub fn local(&self) -> &[T] {
        &self.local
    }

    /// First global index of this thread's block.
    pub fn first_index(&self) -> usize {
        block_range(self.global_len, self.nthreads, self.thread).0
    }

    /// Owning thread count.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// This block's thread.
    pub fn thread(&self) -> usize {
        self.thread
    }

    /// Parallel for-each over (global index, &mut element).
    pub fn par_for_each(&mut self, f: impl Fn(usize, &mut T)) {
        let first = self.first_index();
        for (off, v) in self.local.iter_mut().enumerate() {
            f(first + off, v);
        }
    }

    /// Parallel transform into a new distributed vector of the same shape.
    pub fn par_transform<U: Clone + Send>(&self, f: impl Fn(usize, &T) -> U) -> DistVector<U> {
        let first = self.first_index();
        DistVector {
            global_len: self.global_len,
            nthreads: self.nthreads,
            thread: self.thread,
            local: self.local.iter().enumerate().map(|(o, v)| f(first + o, v)).collect(),
        }
    }
}

impl DistVector<f64> {
    /// Parallel dot product with a shape-matched vector. Collective.
    ///
    /// # Panics
    /// Panics if the vectors differ in shape.
    pub fn par_dot(&self, other: &DistVector<f64>, rts: &dyn Rts) -> f64 {
        assert_eq!(self.global_len, other.global_len, "dot of different lengths");
        assert_eq!(self.thread, other.thread, "dot across different threads");
        let local: f64 = self.local.iter().zip(other.local.iter()).map(|(a, b)| a * b).sum();
        if self.nthreads == 1 {
            local
        } else {
            rts.all_reduce_f64(local, ReduceOp::Sum)
        }
    }

    /// Euclidean norm. Collective.
    pub fn par_norm2(&self, rts: &dyn Rts) -> f64 {
        self.par_dot(self, rts).sqrt()
    }

    /// `self = a * x + self` (the BLAS `axpy`), elementwise over the local
    /// blocks. No communication.
    ///
    /// # Panics
    /// Panics if the vectors differ in shape.
    pub fn par_axpy(&mut self, a: f64, x: &DistVector<f64>) {
        assert_eq!(self.global_len, x.global_len, "axpy of different lengths");
        assert_eq!(self.thread, x.thread, "axpy across different threads");
        for (s, v) in self.local.iter_mut().zip(x.local.iter()) {
            *s += a * v;
        }
    }

    /// Number of elements satisfying a predicate, delivered to every
    /// thread. Collective.
    pub fn par_count_if(&self, rts: &dyn Rts, pred: impl Fn(f64) -> bool) -> usize {
        let local = self.local.iter().filter(|v| pred(**v)).count();
        if self.nthreads == 1 {
            local
        } else {
            rts.all_reduce_f64(local as f64, ReduceOp::Sum) as usize
        }
    }

    /// Parallel reduction to a scalar, delivered to every thread.
    /// Collective.
    pub fn par_reduce(&self, rts: &dyn Rts, op: ReduceOp) -> f64 {
        let local = match op {
            ReduceOp::Sum => self.local.iter().sum(),
            ReduceOp::Max => self.local.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            ReduceOp::Min => self.local.iter().copied().fold(f64::INFINITY, f64::min),
        };
        if self.nthreads == 1 {
            local
        } else {
            rts.all_reduce_f64(local, op)
        }
    }

    /// Parallel inclusive prefix sum (scan). Collective.
    pub fn par_inclusive_scan(&self, rts: &dyn Rts) -> DistVector<f64> {
        let mut local = Vec::with_capacity(self.local.len());
        let mut acc = 0.0;
        for v in &self.local {
            acc += v;
            local.push(acc);
        }
        // Exchange block totals: thread t adds the sum of blocks < t.
        if self.nthreads > 1 {
            let total = acc;
            let parts = rts.all_gather(Bytes::copy_from_slice(&total.to_be_bytes()));
            let offset: f64 = parts[..self.thread]
                .iter()
                .map(|b| f64::from_be_bytes(b[..8].try_into().expect("8 bytes")))
                .sum();
            for v in &mut local {
                *v += offset;
            }
            let _ = SCAN_TAG;
        }
        DistVector {
            global_len: self.global_len,
            nthreads: self.nthreads,
            thread: self.thread,
            local,
        }
    }

    /// Fetch the element one position left/right of this block's edges from
    /// the neighbouring threads (`None` past the global ends). Collective.
    /// This is the halo primitive the gradient kernel builds on.
    pub fn halo(&self, rts: &dyn Rts) -> (Option<f64>, Option<f64>) {
        let t = self.thread;
        let n = self.nthreads;
        if n == 1 {
            return (None, None);
        }
        debug_assert_eq!(rts.rank(), t, "halo called from the wrong thread");
        // Ship edges to neighbours. Empty blocks (len < n) still
        // participate with NaN markers to keep the exchange collective.
        let left_edge = self.local.first().copied().unwrap_or(f64::NAN);
        let right_edge = self.local.last().copied().unwrap_or(f64::NAN);
        if t > 0 {
            rts.send(t - 1, SHIFT_TAG, Bytes::copy_from_slice(&left_edge.to_be_bytes()));
        }
        if t + 1 < n {
            rts.send(t + 1, SHIFT_TAG, Bytes::copy_from_slice(&right_edge.to_be_bytes()));
        }
        let mut left = None;
        let mut right = None;
        if t > 0 {
            let msg = rts.recv(Some(t - 1), SHIFT_TAG);
            let v = f64::from_be_bytes(msg.data[..8].try_into().expect("8 bytes"));
            if !v.is_nan() {
                left = Some(v);
            }
        }
        if t + 1 < n {
            let msg = rts.recv(Some(t + 1), SHIFT_TAG);
            let v = f64::from_be_bytes(msg.data[..8].try_into().expect("8 bytes"));
            if !v.is_nan() {
                right = Some(v);
            }
        }
        (left, right)
    }
}

impl<T: CdrCodec + Clone + Send> DistVector<T> {
    /// Convert to a PARDIS distributed sequence — the runtime half of the
    /// `#pragma HPC++:vector` mapping. No data moves: PSTL's block layout
    /// *is* the BLOCK template.
    pub fn to_dseq(&self) -> DSequence<T> {
        DSequence::from_local(
            self.local.clone(),
            self.global_len as u64,
            Distribution::Block,
            self.nthreads,
            self.thread,
        )
    }

    /// Rebuild a block from a BLOCK-distributed sequence.
    ///
    /// # Panics
    /// Panics if the sequence is not block-distributed.
    pub fn from_dseq(ds: &DSequence<T>) -> Self {
        assert_eq!(
            ds.dist(),
            &Distribution::Block,
            "PSTL vectors require the BLOCK template; redistribute first"
        );
        DistVector {
            global_len: ds.len() as usize,
            nthreads: ds.nthreads(),
            thread: ds.thread(),
            local: ds.local().to_vec(),
        }
    }
}

/// The (start, count) of thread `t`'s block of `len` elements over `n`
/// threads.
pub fn block_range(len: usize, n: usize, t: usize) -> (usize, usize) {
    assert!(n > 0, "zero threads");
    assert!(t < n, "thread {t} out of range");
    let base = len / n;
    let extra = len % n;
    if t < extra {
        (t * (base + 1), base + 1)
    } else {
        (extra * (base + 1) + (t - extra) * base, base)
    }
}
