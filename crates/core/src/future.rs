//! Futures — results of services that may not yet be available (§3.3).
//!
//! A non-blocking invocation returns immediately with futures of its out
//! arguments and return value. Reading an unresolved future blocks until
//! the result is delivered; [`PFuture::resolved`] polls instead. All futures
//! minted by one invocation resolve at the same time, when the server
//! completes. The C++ mapping in the paper drew on ABC++'s futures; this
//! Rust mapping keeps the same three verbs: `resolved`, blocking `get`, and
//! cheap handle semantics (futures are handles to shared state, so
//! instantiation is inexpensive, §4.1). Each future is one of its
//! invocation's holders: the client forgets the invocation once the handle
//! and every future minted from it are gone.

use crate::client::Holder;
use crate::dseq::DSequence;
use crate::error::OrbResult;
use pardis_cdr::CdrCodec;
use std::marker::PhantomData;

/// A future of a scalar result (return value or non-distributed out
/// argument).
pub struct PFuture<T> {
    holder: Holder,
    slot: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: CdrCodec> PFuture<T> {
    pub(crate) fn new(holder: Holder, slot: usize) -> Self {
        PFuture { holder, slot, _marker: PhantomData }
    }

    /// Poll: has the result been delivered? (Pumps pending messages first.)
    pub fn resolved(&self) -> bool {
        self.holder.resolved()
    }

    /// Read the value, blocking until the future resolves. A server
    /// exception surfaces here as [`OrbError::ServerException`].
    ///
    /// [`OrbError::ServerException`]: crate::error::OrbError::ServerException
    pub fn get(&self) -> OrbResult<T> {
        self.holder.wait_complete()?;
        self.holder.state.scalar(self.slot)
    }
}

impl<T> std::fmt::Debug for PFuture<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let resolved = self.holder.state.is_complete();
        write!(f, "PFuture(slot {}, resolved: {resolved})", self.slot)
    }
}

/// A future of a distributed out argument: resolves to this thread's local
/// view of the result sequence.
pub struct DSeqFuture<T> {
    holder: Holder,
    ordinal: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: CdrCodec + Clone + Send + Sync + 'static> DSeqFuture<T> {
    pub(crate) fn new(holder: Holder, ordinal: usize) -> Self {
        DSeqFuture { holder, ordinal, _marker: PhantomData }
    }

    /// Assemble the local view, blocking until the future resolves. Under
    /// the funneled strategy this is collective over a parallel client's
    /// RTS, like [`crate::ReplyData::dseq`].
    pub fn get(&self) -> OrbResult<DSequence<T>> {
        self.holder.wait_complete()?;
        self.holder.state.dseq(self.ordinal, self.holder.core.rts.as_deref())
    }
}

impl<T> std::fmt::Debug for DSeqFuture<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let resolved = self.holder.state.is_complete();
        write!(f, "DSeqFuture(out {}, resolved: {resolved})", self.ordinal)
    }
}
