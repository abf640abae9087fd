//! The run-time system interface the ORB programs against.

use crate::{Msg, Rank, SharedWake, Windows};
use bytes::Bytes;
use std::sync::Arc;
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
    /// Park until a message waits for this thread, whatever its tag, or
    /// `ready()` holds, waking through `wake` ([`Rank::park`]). A wrapper
    /// passes it to the rank it wraps.
    fn park(&self, wake: &Arc<SharedWake>, ready: &mut dyn FnMut() -> bool);

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
        match self.gather(0, part) {
            Some(parts) => {
                use bytes::BufMut;
                let mut framed = bytes::BytesMut::new();
                framed.put_u32(parts.len() as u32);
                for p in &parts {
                    framed.put_u32(p.len() as u32);
                    framed.extend_from_slice(p);
                }
                self.broadcast(0, Some(framed.freeze()));
                parts
            }
            None => unframe(&self.broadcast(0, None)),
        }
    }

    /// All-reduce a scalar. Default: gather-to-0 + broadcast.
    fn all_reduce_f64(&self, value: f64, op: ReduceOp) -> f64 {
        let part = Bytes::copy_from_slice(&value.to_be_bytes());
        match self.gather(0, part) {
            Some(parts) => {
                let values: Vec<f64> = parts.iter().filter_map(|b| be_f64(b)).collect();
                let result = op.apply(&values);
                self.broadcast(0, Some(Bytes::copy_from_slice(&result.to_be_bytes())));
                result
            }
            None => be_f64(&self.broadcast(0, None)).unwrap_or(f64::NAN),
        }
    }
}

/// The big-endian `f64` a part starts with, if it holds one.
fn be_f64(part: &[u8]) -> Option<f64> {
    part.first_chunk().map(|b| f64::from_be_bytes(*b))
}

/// The parts of [`Rts::all_gather`]'s framed concatenation (a `u32` count,
/// then a `u32` length and the bytes of each part), sharing its buffer. A
/// truncated frame ends the list.
fn unframe(framed: &Bytes) -> Vec<Bytes> {
    let Some((count, mut rest)) = framed.split_first_chunk() else { return Vec::new() };
    let mut parts = Vec::with_capacity((u32::from_be_bytes(*count) as usize).min(rest.len() / 4));
    while let Some((len, tail)) = rest.split_first_chunk() {
        let len = (u32::from_be_bytes(*len) as usize).min(tail.len());
        let at = framed.len() - tail.len();
        parts.push(framed.slice(at..at + len));
        rest = &tail[len..];
    }
    parts
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

/// Implement [`Rts`] for a type whose `rank` field is its [`Rank`]: the
/// contract is the rank's, call for call. Every port over a [`crate::World`]
/// is one ([`MpiRts`], [`crate::TulipRts`], `pooma_rs::PoomaComm`).
#[macro_export]
macro_rules! rts_over_rank {
    ($t:ty) => {
        impl $crate::Rts for $t {
            fn rank(&self) -> usize {
                self.rank.rank()
            }
            fn size(&self) -> usize {
                self.rank.size()
            }
            fn send(&self, to: usize, tag: u64, data: $crate::Bytes) {
                self.rank.send(to, tag, data);
            }
            fn recv(&self, from: Option<usize>, tag: u64) -> $crate::Msg {
                self.rank.recv(from, tag)
            }
            fn recv_timeout(
                &self,
                from: Option<usize>,
                tag: u64,
                timeout: std::time::Duration,
            ) -> Option<$crate::Msg> {
                self.rank.recv_timeout(from, tag, timeout)
            }
            fn try_recv(&self, from: Option<usize>, tag: u64) -> Option<$crate::Msg> {
                self.rank.try_recv(from, tag)
            }
            fn barrier(&self) {
                self.rank.barrier();
            }
            fn broadcast(&self, root: usize, data: Option<$crate::Bytes>) -> $crate::Bytes {
                self.rank.broadcast(root, data)
            }
            fn gather(&self, root: usize, part: $crate::Bytes) -> Option<Vec<$crate::Bytes>> {
                self.rank.gather(root, part)
            }
            fn scatter(&self, root: usize, parts: Option<Vec<$crate::Bytes>>) -> $crate::Bytes {
                self.rank.scatter(root, parts)
            }
            fn park(
                &self,
                wake: &std::sync::Arc<$crate::SharedWake>,
                ready: &mut dyn FnMut() -> bool,
            ) {
                self.rank.park(wake, ready);
            }
            fn windows(&self) -> Option<&$crate::Windows> {
                Some(self.rank.windows())
            }
        }
    };
}
rts_over_rank!(MpiRts);
