//! POOMA's communication abstraction, implementing the PARDIS RTS
//! interface.
//!
//! The original PARDIS implemented its run-time-system interface three
//! times: over MPI, over Tulip, and over "the communication abstraction of
//! the POOMA library", which let the ORB interact with object-oriented
//! packages built on those systems. `PoomaComm` is that third port: POOMA
//! applications hand the ORB their own communication context.

use pardis_rts::Rank;

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

pardis_rts::rts_over_rank!(PoomaComm);
