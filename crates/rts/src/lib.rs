//! The PARDIS run-time system (RTS) substrate.
//!
//! In the paper, a *parallel server* or *parallel client* is a set of
//! computing threads living in distinct address spaces and communicating
//! through some message-passing medium (MPI, the Tulip run-time system, or
//! POOMA's communication abstraction). The ORB deliberately assumes only "a
//! very small subset of basic message passing primitives", plus a way to keep
//! PARDIS traffic apart from the application's own messages (a reserved tag
//! band).
//!
//! This crate rebuilds that world:
//!
//! * [`World`] / [`Rank`] — an MPI-like runtime whose computing threads are
//!   OS threads that share **no** user data; every exchange goes through
//!   tagged `send`/`recv` and collectives, so the distinct-address-space
//!   discipline of the original testbed is preserved by construction.
//! * [`Rts`] — the trait capturing exactly the primitives the ORB needs;
//!   the paper's claim that the interface is small enough to implement over
//!   several run-time systems is demonstrated with two implementations here
//!   ([`MpiRts`], [`TulipRts`]) and one in `pooma-rs` (`PoomaComm`).
//! * [`tags`] — the reserved tag bands separating PARDIS messages from user
//!   computation messages.

mod msg;
mod rts_trait;
mod tulip;
mod window;
mod world;

pub use bytes::Bytes;
pub use msg::Msg;
pub use rts_trait::{MpiRts, ReduceOp, Rts};
pub use tulip::{RegionId, TulipRts, TulipWorld};
pub use window::{
    Completion, GetHandle, Notice, RtsError, WindowId, WindowShared, Windows, CTRL_FRAME_BYTES,
};
pub use world::{Rank, World};

/// Reserved tag bands.
///
/// User computation may use any tag below [`tags::PARDIS_BASE`]; the PARDIS
/// band is kept for the ORB (which moves distributed arguments through
/// windows and collectives, so it sends nothing point-to-point there
/// today); the collectives implementation uses a third, private band. This
/// mirrors §2.2's requirement for "a set of reserved message tags".
pub mod tags {
    /// First tag reserved for PARDIS (ORB) traffic.
    pub const PARDIS_BASE: u64 = 1 << 62;
    /// First tag reserved for the runtime's own collectives.
    pub const COLLECTIVE_BASE: u64 = 1 << 63;

    /// The whole reserved band: every tag at or above [`PARDIS_BASE`] belongs
    /// to the ORB or the runtime, never to user computation. Single source of
    /// truth for §2.2's "set of reserved message tags", which the checker
    /// enforces.
    pub const RESERVED_TAG_RANGE: core::ops::Range<u64> = PARDIS_BASE..u64::MAX;

    /// Build a PARDIS-band tag from a small discriminator.
    pub fn pardis(n: u64) -> u64 {
        debug_assert!(n < (1 << 62));
        PARDIS_BASE | n
    }

    /// Is this tag available to user computation?
    pub fn is_user(tag: u64) -> bool {
        tag < PARDIS_BASE
    }

    /// Is this tag inside the reserved (ORB + runtime) band?
    pub fn is_reserved(tag: u64) -> bool {
        RESERVED_TAG_RANGE.contains(&tag)
    }

    /// Is this tag in the runtime's private collective band?
    pub fn is_collective(tag: u64) -> bool {
        tag >= COLLECTIVE_BASE
    }
}

#[cfg(test)]
mod tests;
