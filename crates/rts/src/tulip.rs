//! A Tulip-style one-sided run-time system.
//!
//! Tulip (Beckman & Gannon, IPPS'96) is an object-parallel run-time system
//! built around *one-sided* operations: a thread registers memory regions
//! and remote threads `put`/`get` them without a matching receive. PARDIS
//! lists Tulip as one of the run-time systems its ORB interface was
//! implemented over, and names one-sided systems as the future direction for
//! distributed arguments.
//!
//! Here the named-region API is a thin veneer over the one-sided window
//! layer ([`Windows`]): a region is a window at a strided base in the
//! owner's exposed address space, and `put`/`get` are blocking wrappers
//! around the non-blocking window operations. The two-sided half of the
//! [`Rts`] contract — tagged send/recv, the barrier and the collectives —
//! is [`World`]'s: each [`TulipRts`] runs it on a [`Rank`], as [`MpiRts`]
//! does.
//!
//! [`MpiRts`]: crate::MpiRts
//! [`Rts`]: crate::Rts

use crate::window::{RtsError, WindowId, Windows};
use crate::{Rank, World};
use bytes::Bytes;

/// Identifier of a registered region: (owning rank, region number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId {
    /// Rank that owns (registered) the region.
    pub owner: usize,
    /// Owner-local region number.
    pub number: u64,
}

/// Regions live in the owner's window address space at `number * stride`,
/// so distinct region numbers below 2^32 can never overlap as long as each
/// region stays under 4 GiB.
const REGION_STRIDE: u64 = 1 << 32;

impl RegionId {
    /// The window backing this region.
    fn window(self) -> WindowId {
        WindowId { owner: self.owner, base: self.number.wrapping_mul(REGION_STRIDE) }
    }
}

/// The shared state of a Tulip program: create once, derive a [`TulipRts`]
/// per computing thread.
#[derive(Clone)]
pub struct TulipWorld {
    world: World,
}

impl TulipWorld {
    /// Number of computing threads.
    pub fn size(&self) -> usize {
        self.world.size()
    }

    /// Create the shared state for `size` computing threads and hand out the
    /// per-thread endpoints.
    ///
    /// # Panics
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> (TulipWorld, Vec<TulipRts>) {
        let (world, ranks) = World::new(size);
        (TulipWorld { world }, ranks.into_iter().map(|rank| TulipRts { rank }).collect())
    }
}

/// One computing thread's endpoint into a Tulip program.
pub struct TulipRts {
    rank: Rank,
}

impl TulipRts {
    /// Register a region owned by this rank with initial contents.
    ///
    /// # Panics
    /// Panics if the region number is already registered by this rank.
    pub fn register_region(&self, number: u64, data: Vec<u8>) -> RegionId {
        let id = RegionId { owner: self.rank.rank(), number };
        self.windows()
            .expose(id.window().base, data)
            .unwrap_or_else(|_| panic!("region {id:?} registered twice"));
        id
    }

    /// One-sided write of `data` at `offset` into a remote (or local)
    /// region. Blocks until delivered (the legacy synchronous contract);
    /// [`Windows::put_nb`] on [`TulipRts::windows`] is the non-blocking
    /// form. Unknown regions and out-of-bounds writes surface as typed
    /// [`RtsError`] values.
    pub fn put(&self, id: RegionId, offset: usize, data: &[u8]) -> Result<(), RtsError> {
        self.windows().put_nb(id.window(), offset as u64, Bytes::copy_from_slice(data))?.wait();
        Ok(())
    }

    /// One-sided read of `len` bytes at `offset` from a region. Blocking;
    /// errors are typed like [`TulipRts::put`]'s.
    pub fn get(&self, id: RegionId, offset: usize, len: usize) -> Result<Vec<u8>, RtsError> {
        Ok(self.windows().get_nb(id.window(), offset as u64, len as u64)?.wait().to_vec())
    }

    /// Drop a region registration, returning its final contents.
    pub fn unregister_region(&self, id: RegionId) -> Result<Vec<u8>, RtsError> {
        self.windows().deregister(id.window())
    }

    /// This endpoint's window layer (the real one-sided API the region
    /// emulation is built on).
    pub fn windows(&self) -> &Windows {
        self.rank.windows()
    }
}

crate::rts_trait::rts_over_rank!(TulipRts);
