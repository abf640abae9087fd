//! Futures — results of services that may not yet be available (§3.3).
//!
//! A non-blocking invocation returns immediately with futures of its out
//! arguments and return value. Reading an unresolved future blocks until
//! the result is delivered; [`PFuture::resolved`] polls instead. All futures
//! minted by one invocation resolve at the same time, when the server
//! completes. The C++ mapping in the paper drew on ABC++'s futures; this
//! Rust mapping keeps the same three verbs: `resolved`, blocking `get`, and
//! cheap handle semantics (futures are handles to shared state, so
//! instantiation is inexpensive, §4.1).

use crate::client::{wait_complete, InvocationState, PumpCore};
use crate::dseq::DSequence;
use crate::error::OrbResult;
use pardis_cdr::CdrCodec;
use std::marker::PhantomData;
use std::sync::Arc;

/// A future of a scalar result (return value or non-distributed out
/// argument).
pub struct PFuture<T> {
    core: Arc<PumpCore>,
    state: Arc<InvocationState>,
    slot: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: CdrCodec> PFuture<T> {
    pub(crate) fn new(core: Arc<PumpCore>, state: Arc<InvocationState>, slot: usize) -> Self {
        PFuture { core, state, slot, _marker: PhantomData }
    }

    /// Poll: has the result been delivered? (Pumps pending messages first.)
    pub fn resolved(&self) -> bool {
        self.core.pump_step(None);
        self.state.is_complete()
    }

    /// Read the value, blocking until the future resolves. A server
    /// exception surfaces here as [`OrbError::ServerException`].
    ///
    /// [`OrbError::ServerException`]: crate::error::OrbError::ServerException
    pub fn get(&self) -> OrbResult<T> {
        wait_complete(&self.core, &self.state, self.core.orb.cfg().timeout)?;
        self.state.scalar(self.slot)
    }
}

impl<T> std::fmt::Debug for PFuture<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PFuture(slot {}, resolved: {})", self.slot, self.state.is_complete())
    }
}

/// A future of a distributed out argument: resolves to this thread's local
/// view of the result sequence.
pub struct DSeqFuture<T> {
    core: Arc<PumpCore>,
    state: Arc<InvocationState>,
    ordinal: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: CdrCodec + Clone> DSeqFuture<T> {
    pub(crate) fn new(core: Arc<PumpCore>, state: Arc<InvocationState>, ordinal: usize) -> Self {
        DSeqFuture { core, state, ordinal, _marker: PhantomData }
    }

    /// Assemble the local view, blocking until the future resolves. Under
    /// the funneled strategy this is collective over a parallel client's
    /// RTS, like [`crate::ReplyData::dseq`].
    pub fn get(&self) -> OrbResult<DSequence<T>> {
        wait_complete(&self.core, &self.state, self.core.orb.cfg().timeout)?;
        self.state.dseq(self.ordinal, self.core.rts.as_deref())
    }
}

impl<T> std::fmt::Debug for DSeqFuture<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DSeqFuture(out {}, resolved: {})", self.ordinal, self.state.is_complete())
    }
}
