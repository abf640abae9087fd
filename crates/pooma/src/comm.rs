//! POOMA's communication abstraction, implementing the PARDIS RTS
//! interface.
//!
//! The original PARDIS implemented its run-time-system interface three
//! times: over MPI, over Tulip, and over "the communication abstraction of
//! the POOMA library", which let the ORB interact with object-oriented
//! packages built on those systems. `PoomaComm` is that third port: POOMA
//! applications hand the ORB their own communication context.

use bytes::Bytes;
use pardis_rts::{Msg, Rank, Rts};
use std::time::Duration;

/// POOMA's communication context: in the original, a wrapper over the
/// library's virtual-node messaging; here, over the same world of computing
/// threads the fields are decomposed across.
pub struct PoomaComm {
    rank: Rank,
}

impl PoomaComm {
    /// Wrap a computing thread's endpoint.
    pub fn new(rank: Rank) -> Self {
        PoomaComm { rank }
    }

    /// The underlying rank, for application-level traffic (guard-cell
    /// exchange etc.).
    pub fn raw(&self) -> &Rank {
        &self.rank
    }
}

impl Rts for PoomaComm {
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
    fn windows(&self) -> Option<&pardis_rts::Windows> {
        Some(self.rank.windows())
    }
}
