//! [`CheckedRts`]: the [`Rts`] decorator that validates the protocol online.

use crate::checker::{Checker, CollOp, Verdict};
use crate::enabled;
use bytes::Bytes;
use pardis_rts::{Msg, ReduceOp, Rts, SharedWake};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wraps any [`Rts`] implementation and validates every operation against
/// the SPMD protocol: tag discipline, collective agreement, deadlock
/// freedom, message accounting.
///
/// When the global gate is off ([`crate::enabled`] is false) every method is
/// a straight passthrough: one relaxed atomic load, no locks, no recording.
///
/// After a detected collective mismatch the wrapped collectives return
/// *degraded* values (own contribution only) so the program can unwind and
/// the report be delivered instead of hanging; after a detected deadlock the
/// poisoned ranks' pending `recv` returns a synthesized empty message for
/// the same reason. Results of a run with findings are meaningless — the
/// [`crate::CheckReport`] is the product.
pub struct CheckedRts {
    inner: Arc<dyn Rts>,
    chk: Arc<Checker>,
}

impl CheckedRts {
    /// Wrap `inner`, sharing `chk` with the sibling ranks of the same world.
    pub fn wrap(inner: Arc<dyn Rts>, chk: Arc<Checker>) -> CheckedRts {
        assert_eq!(inner.size(), chk.size(), "checker world size must match the wrapped RTS");
        CheckedRts { inner, chk }
    }

    /// The shared checker.
    pub fn checker(&self) -> &Arc<Checker> {
        &self.chk
    }

    /// Slice length for observable blocking waits.
    fn slice(&self) -> Duration {
        self.chk.watchdog().min(Duration::from_millis(20)).max(Duration::from_millis(1))
    }

    /// A checked receive's wait, for at most `timeout`: `None` when it
    /// elapses or this rank is poisoned. It blocks in watchdog slices so the
    /// wait is observable: between slices the checker runs wait-for-graph
    /// deadlock detection and this rank notices if it has been poisoned.
    fn wait(&self, from: Option<usize>, tag: u64, timeout: Duration) -> Option<Msg> {
        let me = self.inner.rank();
        // A deadline `Instant` cannot represent is no deadline.
        let deadline = Instant::now().checked_add(timeout);
        self.chk.block_enter(me, from, tag);
        loop {
            let left =
                deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
            if left.is_zero() {
                self.chk.block_exit(me);
                return None;
            }
            if let Some(msg) = self.inner.recv_timeout(from, tag, left.min(self.slice())) {
                self.chk.block_exit(me);
                self.chk.note_recv(me, msg.from, tag);
                return Some(msg);
            }
            if self.chk.block_tick(me) {
                self.chk.block_exit(me);
                return None;
            }
        }
    }

    fn collective(&self, op: CollOp) -> Verdict {
        if enabled() {
            self.chk.collective_enter(self.inner.rank(), op)
        } else {
            Verdict::Proceed
        }
    }
}

impl Rts for CheckedRts {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&self, to: usize, tag: u64, data: Bytes) {
        if enabled() {
            let me = self.inner.rank();
            self.chk.check_tag(me, "send", Some(to), tag);
            self.chk.note_send(me, to, tag);
        }
        self.inner.send(to, tag, data);
    }

    fn recv(&self, from: Option<usize>, tag: u64) -> Msg {
        if !enabled() {
            return self.inner.recv(from, tag);
        }
        let me = self.inner.rank();
        self.chk.check_tag(me, "recv", from, tag);
        if from.is_none() {
            self.chk.check_wildcard(me, tag);
        }
        // Poisoned: synthesize so the world can unwind and report.
        let synthesized = || Msg::new(from.unwrap_or(me), tag, Bytes::new());
        self.wait(from, tag, Duration::MAX).unwrap_or_else(synthesized)
    }

    fn recv_timeout(&self, from: Option<usize>, tag: u64, timeout: Duration) -> Option<Msg> {
        if !enabled() {
            return self.inner.recv_timeout(from, tag, timeout);
        }
        self.chk.check_tag(self.inner.rank(), "recv", from, tag);
        self.wait(from, tag, timeout)
    }

    fn try_recv(&self, from: Option<usize>, tag: u64) -> Option<Msg> {
        if !enabled() {
            return self.inner.try_recv(from, tag);
        }
        let me = self.inner.rank();
        self.chk.check_tag(me, "try_recv", from, tag);
        let msg = self.inner.try_recv(from, tag);
        if let Some(m) = &msg {
            self.chk.note_recv(me, m.from, tag);
        }
        msg
    }

    fn barrier(&self) {
        match self.collective(CollOp::Barrier) {
            Verdict::Proceed => self.inner.barrier(),
            Verdict::Skip => {}
        }
    }

    fn broadcast(&self, root: usize, data: Option<Bytes>) -> Bytes {
        match self.collective(CollOp::Broadcast { root }) {
            Verdict::Proceed => self.inner.broadcast(root, data),
            Verdict::Skip => data.unwrap_or_default(),
        }
    }

    fn gather(&self, root: usize, part: Bytes) -> Option<Vec<Bytes>> {
        match self.collective(CollOp::Gather { root }) {
            Verdict::Proceed => self.inner.gather(root, part),
            Verdict::Skip => (self.inner.rank() == root).then(|| vec![part]),
        }
    }

    fn scatter(&self, root: usize, parts: Option<Vec<Bytes>>) -> Bytes {
        match self.collective(CollOp::Scatter { root }) {
            Verdict::Proceed => self.inner.scatter(root, parts),
            Verdict::Skip => {
                parts.and_then(|p| p.into_iter().nth(self.inner.rank())).unwrap_or_default()
            }
        }
    }

    fn park(&self, wake: &Arc<SharedWake>, ready: &mut dyn FnMut() -> bool) {
        self.inner.park(wake, ready);
    }

    fn all_gather(&self, part: Bytes) -> Vec<Bytes> {
        // One epoch for the whole composite (the inner implementation's
        // internal gather+broadcast never reaches this decorator).
        match self.collective(CollOp::AllGather) {
            Verdict::Proceed => self.inner.all_gather(part),
            Verdict::Skip => vec![part],
        }
    }

    fn all_reduce_f64(&self, value: f64, op: ReduceOp) -> f64 {
        match self.collective(CollOp::AllReduce) {
            Verdict::Proceed => self.inner.all_reduce_f64(value, op),
            Verdict::Skip => value,
        }
    }

    fn windows(&self) -> Option<&pardis_rts::Windows> {
        // One-sided operations bypass the two-sided send/recv protocol this
        // decorator checks; pass the endpoint through untouched.
        self.inner.windows()
    }
}
