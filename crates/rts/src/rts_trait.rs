//! The run-time system interface the ORB programs against.

use crate::{Msg, Rank, Windows};
use bytes::Bytes;
use std::time::Duration;

/// Reductions supported by [`Rts::all_reduce_f64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of contributions.
    Sum,
    /// Maximum contribution.
    Max,
    /// Minimum contribution.
    Min,
}

impl ReduceOp {
    /// Apply the reduction to a slice of contributions.
    pub fn apply(self, values: &[f64]) -> f64 {
        match self {
            ReduceOp::Sum => values.iter().sum(),
            ReduceOp::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            ReduceOp::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }
}

/// The paper's run-time system interface (§2.2): the "very small subset of
/// basic message passing primitives" through which the ORB extends into the
/// communication domain of a parallel client or server.
///
/// Three implementations demonstrate its portability, mirroring the paper's
/// MPI / Tulip / POOMA ports:
///
/// * [`MpiRts`] — message passing over [`crate::World`], with the world's
///   one-sided windows;
/// * [`crate::TulipRts`] — Tulip's one-sided region API on the window
///   layer, with the two-sided contract taken from [`crate::World`];
/// * `pooma_rs::PoomaComm` — POOMA's communication abstraction.
pub trait Rts: Send + Sync {
    /// This computing thread's rank.
    fn rank(&self) -> usize;
    /// Number of computing threads in the program.
    fn size(&self) -> usize;
    /// Asynchronous tagged send.
    fn send(&self, to: usize, tag: u64, data: Bytes);
    /// Blocking tagged receive; `from = None` matches any source.
    fn recv(&self, from: Option<usize>, tag: u64) -> Msg;
    /// Receive with a deadline, `None` on expiry.
    fn recv_timeout(&self, from: Option<usize>, tag: u64, timeout: Duration) -> Option<Msg>;
    /// Non-blocking receive.
    fn try_recv(&self, from: Option<usize>, tag: u64) -> Option<Msg>;
    /// Synchronise all computing threads.
    fn barrier(&self);
    /// Broadcast `data` from `root` (root passes `Some`).
    fn broadcast(&self, root: usize, data: Option<Bytes>) -> Bytes;
    /// Gather parts at `root` in rank order.
    fn gather(&self, root: usize, part: Bytes) -> Option<Vec<Bytes>>;
    /// Scatter one part per rank from `root`.
    fn scatter(&self, root: usize, parts: Option<Vec<Bytes>>) -> Bytes;

    /// The backend's one-sided window endpoint. Windows are part of the
    /// contract: the ORB moves distributed arguments and halos through them
    /// and has no send/recv fallback, so every implementation supplies one.
    /// Errors of the one-sided operations surface as typed
    /// [`crate::RtsError`] values through the endpoint's `Result` returns —
    /// never panics.
    fn windows(&self) -> Option<&Windows>;

    /// All-gather: everyone receives every rank's part, in rank order.
    /// Default: gather to 0, broadcast a framed concatenation.
    fn all_gather(&self, part: Bytes) -> Vec<Bytes> {
        let gathered = self.gather(0, part);
        if self.rank() == 0 {
            let parts = gathered.expect("rank 0 gathers");
            let mut framed = bytes::BytesMut::new();
            use bytes::BufMut;
            framed.put_u32(parts.len() as u32);
            for p in &parts {
                framed.put_u32(p.len() as u32);
                framed.extend_from_slice(p);
            }
            self.broadcast(0, Some(framed.freeze()));
            parts
        } else {
            let framed = self.broadcast(0, None);
            let mut parts = Vec::new();
            let mut pos = 0usize;
            let count = u32::from_be_bytes(framed[0..4].try_into().unwrap()) as usize;
            pos += 4;
            for _ in 0..count {
                let len = u32::from_be_bytes(framed[pos..pos + 4].try_into().unwrap()) as usize;
                pos += 4;
                parts.push(framed.slice(pos..pos + len));
                pos += len;
            }
            parts
        }
    }

    /// All-reduce a scalar. Default: gather-to-0 + broadcast.
    fn all_reduce_f64(&self, value: f64, op: ReduceOp) -> f64 {
        let part = Bytes::copy_from_slice(&value.to_be_bytes());
        let gathered = self.gather(0, part);
        if self.rank() == 0 {
            let values: Vec<f64> = gathered
                .expect("rank 0 gathers")
                .iter()
                .map(|b| f64::from_be_bytes(b[..8].try_into().unwrap()))
                .collect();
            let result = op.apply(&values);
            self.broadcast(0, Some(Bytes::copy_from_slice(&result.to_be_bytes())));
            result
        } else {
            let b = self.broadcast(0, None);
            f64::from_be_bytes(b[..8].try_into().unwrap())
        }
    }
}

/// The MPI implementation of the RTS interface: a thin veneer over
/// [`Rank`], just as the original PARDIS MPI port was a veneer over
/// `MPI_Send`/`MPI_Recv`.
pub struct MpiRts {
    rank: Rank,
}

impl MpiRts {
    /// Wrap a computing thread's rank handle.
    pub fn new(rank: Rank) -> Self {
        MpiRts { rank }
    }

    /// Access the underlying rank (for application-level communication,
    /// which the paper assumes flows through the same medium with
    /// non-reserved tags).
    pub fn raw(&self) -> &Rank {
        &self.rank
    }
}

impl Rts for MpiRts {
    fn rank(&self) -> usize {
        self.rank.rank()
    }
    fn size(&self) -> usize {
        self.rank.size()
    }
    fn send(&self, to: usize, tag: u64, data: Bytes) {
        self.rank.send(to, tag, data);
    }
    fn recv(&self, from: Option<usize>, tag: u64) -> Msg {
        self.rank.recv(from, tag)
    }
    fn recv_timeout(&self, from: Option<usize>, tag: u64, timeout: Duration) -> Option<Msg> {
        self.rank.recv_timeout(from, tag, timeout)
    }
    fn try_recv(&self, from: Option<usize>, tag: u64) -> Option<Msg> {
        self.rank.try_recv(from, tag)
    }
    fn barrier(&self) {
        self.rank.barrier();
    }
    fn broadcast(&self, root: usize, data: Option<Bytes>) -> Bytes {
        self.rank.broadcast(root, data)
    }
    fn gather(&self, root: usize, part: Bytes) -> Option<Vec<Bytes>> {
        self.rank.gather(root, part)
    }
    fn scatter(&self, root: usize, parts: Option<Vec<Bytes>>) -> Bytes {
        self.rank.scatter(root, parts)
    }
    fn windows(&self) -> Option<&Windows> {
        Some(self.rank.windows())
    }
}
