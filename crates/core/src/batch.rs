//! Adaptive same-destination request batching.
//!
//! The fig2 experiments show per-frame software overhead (`t_o` in the
//! LogGP sense) dominating small-payload invocations. The batcher amortises
//! it: frames bound for the same `(source host, destination endpoint)` pair
//! are queued briefly and leave the ORB coalesced into one
//! [`Message::Batch`](crate::protocol::Message) envelope, so a burst of N
//! small requests pays one software overhead instead of N.
//!
//! Invariants the queue discipline guarantees:
//!
//! * **Per-destination FIFO.** Frames for one destination are enqueued and
//!   drained in order, and only one thread drains a destination at a time
//!   (the `sending` flag), so batching never reorders a binding's requests.
//! * **No frame straddles two envelopes.** A sub-frame is an indivisible
//!   element of exactly one batch envelope (or leaves raw).
//! * **Bounded delay.** A queued frame leaves within roughly
//!   [`BATCH_DELAY`] even under zero follow-on traffic: the lazy
//!   flusher thread ([`crate::Orb`] spawns it on first use) sweeps aged
//!   destinations, and client/POA pumps flush before blocking.
//!
//! Mode `off` bypasses this module entirely — one relaxed atomic load on
//! the send path — and the wire is byte-for-byte the pre-batching protocol.

use crate::object::EndpointId;
use bytes::Bytes;
use pardis_audit::{lock_site, AuditMutex};
use pardis_netsim::{HostId, Published};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Request-batching mode ([`crate::Orb::set_batch_mode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// No batching: every frame is sent as it is produced, byte-identical
    /// to the pre-batching wire. The default.
    #[default]
    Off,
    /// Self-clocking coalescing: the per-destination batch target grows
    /// while flushes fill up and shrinks when the deadline sweeper finds
    /// sparse queues.
    Adaptive,
    /// Flush whenever `n` frames are queued for a destination (size and
    /// deadline triggers still apply).
    Fixed(u32),
}

/// Batcher configuration, published as an immutable snapshot (the PR-5
/// Arc-swap idiom) so the hot enqueue path never takes a config lock.
#[derive(Debug, Clone)]
pub(crate) struct BatchParams {
    pub mode: BatchMode,
    /// Flush a destination once this many small-frame bytes are queued;
    /// also the coalescing ceiling of one envelope. Frames at or above this
    /// size ride the queue as passthrough entries (FIFO kept, no copy into
    /// an envelope).
    pub max_bytes: usize,
}

/// Coalescing ceiling of one envelope the ORB's batcher builds, and the
/// size at or above which a frame bypasses coalescing.
pub(crate) const BATCH_MAX_BYTES: usize = 16 * 1024;

/// Deadline after which a queued frame is flushed regardless of traffic.
pub(crate) const BATCH_DELAY: Duration = Duration::from_micros(100);

/// Ceiling of the adaptive per-destination batch target.
const ADAPTIVE_MAX: u32 = 64;

/// One destination's queue.
struct Pending {
    /// Frames in arrival order; `true` marks a passthrough (sent raw).
    items: Vec<(Bytes, bool)>,
    /// Bytes of the queued non-passthrough frames.
    small_bytes: usize,
    /// When the oldest queued frame arrived (deadline trigger).
    oldest: Instant,
    /// A drain of this destination is in progress; newly queued frames will
    /// be picked up by that sender's next pass (single-sender FIFO).
    sending: bool,
    /// Adaptive batch target: grows when drains run full, shrinks when the
    /// deadline sweeper finds the queue sparse.
    target: u32,
}

/// Why a drain was started — the adaptive target's feedback signal.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushReason {
    /// Size/count trigger or an explicit barrier.
    Demand,
    /// The deadline sweeper aged the queue out.
    Deadline,
}

/// The per-ORB batching engine. Owned by `OrbInner`; all sends funnel
/// through [`crate::Orb::send_wire`], which consults this first.
pub(crate) struct Batcher {
    /// `mode != Off` — the only cost the send path pays when batching is
    /// off.
    active: AtomicBool,
    params: Published<BatchParams>,
    #[allow(clippy::type_complexity)]
    pending: AuditMutex<HashMap<(HostId, EndpointId), Pending>>,
    /// The deadline flusher thread has been spawned.
    pub(crate) flusher_spawned: AtomicBool,
}

impl Batcher {
    pub(crate) fn new(mode: BatchMode, max_bytes: usize) -> Batcher {
        Batcher {
            active: AtomicBool::new(mode != BatchMode::Off),
            params: Published::new(BatchParams { mode, max_bytes }),
            pending: AuditMutex::new(lock_site!("orb: batch queues"), HashMap::new()),
            flusher_spawned: AtomicBool::new(false),
        }
    }

    #[inline(always)]
    pub(crate) fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    pub(crate) fn params(&self) -> std::sync::Arc<BatchParams> {
        self.params.load()
    }

    pub(crate) fn set_params(&self, mode: BatchMode, max_bytes: usize) {
        self.params.store(BatchParams { mode, max_bytes });
        self.active.store(mode != BatchMode::Off, Ordering::Relaxed);
    }

    /// Queue a frame for `key`; returns true when the caller should drain
    /// the destination now (size/count trigger, or a passthrough frame that
    /// has no reason to wait).
    pub(crate) fn enqueue(
        &self,
        key: (HostId, EndpointId),
        wire: Bytes,
        passthrough: bool,
    ) -> bool {
        let p = self.params.load();
        let mut map = self.pending.lock();
        let e = map.entry(key).or_insert_with(|| Pending {
            items: Vec::new(),
            small_bytes: 0,
            oldest: Instant::now(),
            sending: false,
            target: 1,
        });
        if e.items.is_empty() {
            e.oldest = Instant::now();
        }
        if !passthrough {
            e.small_bytes += wire.len();
        }
        e.items.push((wire, passthrough));
        let target = match p.mode {
            BatchMode::Fixed(n) => n.max(1),
            _ => e.target,
        };
        passthrough || e.small_bytes >= p.max_bytes || e.items.len() as u32 >= target
    }

    /// Destinations with queued frames (for an explicit flush barrier).
    pub(crate) fn pending_keys(&self) -> Vec<(HostId, EndpointId)> {
        self.pending.lock().iter().filter(|(_, e)| !e.items.is_empty()).map(|(k, _)| *k).collect()
    }

    /// Destinations whose oldest queued frame has aged past the deadline
    /// (for the flusher thread).
    pub(crate) fn aged_keys(&self) -> Vec<(HostId, EndpointId)> {
        let now = Instant::now();
        self.pending
            .lock()
            .iter()
            .filter(|(_, e)| {
                !e.items.is_empty() && !e.sending && now.duration_since(e.oldest) >= BATCH_DELAY
            })
            .map(|(k, _)| *k)
            .collect()
    }

    /// Drain `key` until its queue is empty, coalescing runs of small
    /// frames into batch envelopes and handing each wire frame to `send`.
    /// Single-sender per destination: if another thread is already draining
    /// this key the call returns immediately and that sender's next pass
    /// picks up the new frames — this is what preserves FIFO under
    /// concurrent producers, and what makes the batching self-clocking
    /// (frames that accumulate during a send leave together).
    pub(crate) fn drain(
        &self,
        key: (HostId, EndpointId),
        reason: FlushReason,
        send: &mut dyn FnMut(Bytes),
    ) {
        let mut first_pass = true;
        loop {
            let (items, target) = {
                let mut map = self.pending.lock();
                let Some(e) = map.get_mut(&key) else { return };
                if e.sending || e.items.is_empty() {
                    return;
                }
                if first_pass && reason == FlushReason::Deadline {
                    // Sparse deadline flush: traffic is not dense enough to
                    // fill the target before the clock runs out — shrink it
                    // so the next trickle leaves promptly.
                    if (e.items.len() as u32) < e.target / 2 {
                        e.target = (e.target / 2).max(1);
                    }
                }
                e.sending = true;
                e.small_bytes = 0;
                (std::mem::take(&mut e.items), e.target)
            };
            first_pass = false;
            let p = self.params.load();
            let taken = items.len() as u32;
            self.ship(items, &p, send);
            {
                let mut map = self.pending.lock();
                let Some(e) = map.get_mut(&key) else { return };
                e.sending = false;
                if p.mode == BatchMode::Adaptive && taken >= target {
                    // The drain ran at (or past) the target: demand is
                    // dense, let the next batch grow.
                    e.target = (e.target.saturating_mul(2)).min(ADAPTIVE_MAX);
                }
                if e.items.is_empty() {
                    return;
                }
                e.oldest = Instant::now();
            }
        }
    }

    /// Group a drained queue into wire frames, preserving order: runs of
    /// consecutive small frames become one envelope (capped at
    /// `max_bytes`), passthrough frames and singleton runs leave raw.
    fn ship(&self, items: Vec<(Bytes, bool)>, p: &BatchParams, send: &mut dyn FnMut(Bytes)) {
        let obs = pardis_obs::enabled();
        fn flush_run(
            run: &mut Vec<Bytes>,
            run_bytes: &mut usize,
            obs: bool,
            send: &mut dyn FnMut(Bytes),
        ) {
            match run.len() {
                0 => {}
                1 => send(run.pop().expect("len checked")),
                _ => {
                    if obs {
                        pardis_obs::counter("orb.batch.envelopes").inc();
                        pardis_obs::counter("orb.batch.coalesced").add(run.len() as u64);
                    }
                    send(crate::protocol::encode_batch_frame(run));
                    run.clear();
                }
            }
            *run_bytes = 0;
        }
        let mut run: Vec<Bytes> = Vec::new();
        let mut run_bytes = 0usize;
        for (wire, passthrough) in items {
            if passthrough {
                flush_run(&mut run, &mut run_bytes, obs, send);
                send(wire);
                continue;
            }
            if run_bytes + wire.len() > p.max_bytes && !run.is_empty() {
                flush_run(&mut run, &mut run_bytes, obs, send);
            }
            run_bytes += wire.len();
            run.push(wire);
        }
        flush_run(&mut run, &mut run_bytes, obs, send);
        if obs {
            pardis_obs::counter("orb.batch.flushes").inc();
        }
    }
}
