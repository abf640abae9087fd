//! Shared per-world checker state: collective epochs, wait-for graph,
//! in-flight message ledger, findings.

use crate::report::{CheckReport, Finding, Kind, Severity};
use pardis_audit::{lock_site, AuditCondvar, AuditMutex};
use pardis_rts::tags;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which collective a rank entered (with the arguments that must agree
/// across ranks for SPMD discipline to hold).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollOp {
    /// `barrier()`.
    Barrier,
    /// `broadcast(root, ..)`.
    Broadcast {
        /// The root every rank must agree on.
        root: usize,
    },
    /// `gather(root, ..)`.
    Gather {
        /// The root every rank must agree on.
        root: usize,
    },
    /// `scatter(root, ..)`.
    Scatter {
        /// The root every rank must agree on.
        root: usize,
    },
    /// `all_gather(..)`.
    AllGather,
    /// `all_reduce_f64(..)` (the reduction op must agree too, but a
    /// disagreement there is a value bug, not a protocol hang; we compare
    /// only the collective's identity).
    AllReduce,
}

impl CollOp {
    fn describe(self) -> String {
        match self {
            CollOp::Barrier => "barrier".into(),
            CollOp::Broadcast { root } => format!("broadcast(root={root})"),
            CollOp::Gather { root } => format!("gather(root={root})"),
            CollOp::Scatter { root } => format!("scatter(root={root})"),
            CollOp::AllGather => "all_gather".into(),
            CollOp::AllReduce => "all_reduce_f64".into(),
        }
    }
}

/// What the checker's (crate-internal) collective-entry barrier tells the
/// decorator to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every rank agreed (or the watchdog expired): run the real collective.
    Proceed,
    /// Mismatch detected: every rank skips the collective and returns a
    /// degraded value, so the report can be delivered instead of hanging.
    Skip,
}

#[derive(Debug)]
struct EpochRec {
    ops: Vec<Option<CollOp>>,
    verdict: Option<Verdict>,
}

#[derive(Debug, Clone)]
struct BlockedRecv {
    from: Option<usize>,
    tag: u64,
    /// Completed watchdog slices while blocked; a wait-for edge only counts
    /// once it has survived ≥ 2 slices (a send may be racing in).
    rounds: u64,
}

struct State {
    /// Per-rank next collective epoch.
    next_epoch: Vec<u64>,
    /// Epoch → the ops each rank entered with.
    epochs: HashMap<u64, EpochRec>,
    /// In-flight ledger: (from, to, tag) → outstanding count.
    inflight: HashMap<(usize, usize, u64), u64>,
    /// Currently blocked receives, one per blocked rank.
    blocked: HashMap<usize, BlockedRecv>,
    /// Ranks released from a detected deadlock (their pending recv is
    /// synthesized so the world can tear down and report).
    poisoned: Vec<bool>,
    findings: Vec<Finding>,
}

/// The shared analyzer for one world. Create one per [`pardis_rts::World`]
/// (outside `World::run`), wrap each rank's RTS with
/// [`crate::CheckedRts::wrap`], then consume the findings with
/// [`Checker::finish`] after the world joins.
pub struct Checker {
    size: usize,
    state: AuditMutex<State>,
    arrived: AuditCondvar,
    watchdog: Duration,
    /// Events recorded while enabled — used by the disabled-overhead
    /// regression test to prove the disabled path records nothing.
    events: AtomicU64,
}

impl Checker {
    /// A checker for a world of `size` ranks, with the collective-rendezvous
    /// watchdog taken from `PARDIS_CHECK_WATCHDOG_MS` (default 250 ms).
    pub fn new(size: usize) -> Arc<Checker> {
        let ms = std::env::var("PARDIS_CHECK_WATCHDOG_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(250);
        Checker::with_watchdog(size, Duration::from_millis(ms))
    }

    /// A checker with an explicit watchdog window.
    pub fn with_watchdog(size: usize, watchdog: Duration) -> Arc<Checker> {
        assert!(size > 0, "checker needs at least one rank");
        Arc::new(Checker {
            size,
            state: AuditMutex::new(
                lock_site!("check: checker state"),
                State {
                    next_epoch: vec![0; size],
                    epochs: HashMap::new(),
                    inflight: HashMap::new(),
                    blocked: HashMap::new(),
                    poisoned: vec![false; size],
                    findings: Vec::new(),
                },
            ),
            arrived: AuditCondvar::new(),
            watchdog,
            events: AtomicU64::new(0),
        })
    }

    /// World size this checker validates.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Watchdog window for collective rendezvous and deadlock slicing.
    pub fn watchdog(&self) -> Duration {
        self.watchdog
    }

    /// Total events recorded so far (0 while disabled: the decorator never
    /// calls in).
    pub fn events_recorded(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Number of findings recorded so far.
    pub fn findings_so_far(&self) -> usize {
        self.state.lock().findings.len()
    }

    fn record(&self, severity: Severity, kind: Kind, rank: Option<usize>, detail: String) {
        self.events.fetch_add(1, Ordering::Relaxed);
        self.state.lock().findings.push(Finding { severity, kind, rank, detail });
    }

    fn record_locked(
        state: &mut State,
        events: &AtomicU64,
        severity: Severity,
        kind: Kind,
        rank: Option<usize>,
        detail: String,
    ) {
        events.fetch_add(1, Ordering::Relaxed);
        state.findings.push(Finding { severity, kind, rank, detail });
    }

    // ----- tag discipline ---------------------------------------------------

    /// Validate a point-to-point tag used by traffic flowing through the
    /// decorator. The ORB sends nothing point-to-point, so any tag in the
    /// reserved band (including the collectives band) is an application
    /// violation.
    pub(crate) fn check_tag(&self, rank: usize, dir: &str, peer: Option<usize>, tag: u64) {
        self.events.fetch_add(1, Ordering::Relaxed);
        if tags::is_reserved(tag) {
            let band = if tags::is_collective(tag) { "collective band" } else { "ORB band" };
            let peer = peer.map_or_else(|| "any".to_string(), |p| p.to_string());
            self.record(
                Severity::Error,
                Kind::ReservedTag,
                Some(rank),
                format!("{dir} with reserved tag {tag:#x} ({band}; peer {peer})"),
            );
        }
    }

    // ----- in-flight ledger + wildcard hazard -------------------------------

    pub(crate) fn note_send(&self, from: usize, to: usize, tag: u64) {
        self.events.fetch_add(1, Ordering::Relaxed);
        *self.state.lock().inflight.entry((from, to, tag)).or_insert(0) += 1;
    }

    pub(crate) fn note_recv(&self, to: usize, from: usize, tag: u64) {
        self.events.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock();
        if let Some(n) = st.inflight.get_mut(&(from, to, tag)) {
            *n -= 1;
            if *n == 0 {
                st.inflight.remove(&(from, to, tag));
            }
        }
    }

    /// Entering a blocking wildcard receive: if ≥ 2 distinct senders already
    /// have matching messages in flight, the winner is timing-dependent.
    pub(crate) fn check_wildcard(&self, rank: usize, tag: u64) {
        self.events.fetch_add(1, Ordering::Relaxed);
        let senders: Vec<usize> = {
            let st = self.state.lock();
            let mut s: Vec<usize> = st
                .inflight
                .iter()
                .filter(|(&(_, to, t), &n)| to == rank && t == tag && n > 0)
                .map(|(&(from, _, _), _)| from)
                .collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        if senders.len() >= 2 {
            self.record(
                Severity::Advice,
                Kind::WildcardRecv,
                Some(rank),
                format!(
                    "wildcard recv(from=None, tag={tag:#x}) with {} eligible senders {:?}: \
                     match order is nondeterministic",
                    senders.len(),
                    senders
                ),
            );
        }
    }

    // ----- collective epochs ------------------------------------------------

    /// A rank enters a collective. Blocks (bounded by the watchdog) until
    /// every rank has entered its collective for the same epoch, then
    /// returns the shared verdict. On watchdog expiry the checker stands
    /// aside (records advice) and lets the real collective run.
    pub(crate) fn collective_enter(&self, rank: usize, op: CollOp) -> Verdict {
        self.events.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock();
        let epoch = st.next_epoch[rank];
        st.next_epoch[rank] += 1;
        let size = self.size;
        {
            let rec = st
                .epochs
                .entry(epoch)
                .or_insert_with(|| EpochRec { ops: vec![None; size], verdict: None });
            rec.ops[rank] = Some(op);
        }
        let rec = &st.epochs[&epoch];
        if rec.ops.iter().all(|o| o.is_some()) && rec.verdict.is_none() {
            // Last one in decides, once, for everybody.
            let ops: Vec<CollOp> = rec.ops.iter().map(|o| o.expect("all present")).collect();
            let verdict = if ops.iter().all(|&o| o == ops[0]) {
                Verdict::Proceed
            } else {
                let per_rank = ops
                    .iter()
                    .enumerate()
                    .map(|(r, o)| format!("rank {r}: {}", o.describe()))
                    .collect::<Vec<_>>()
                    .join("; ");
                let detail = format!("collective epoch {epoch} diverged — {per_rank}");
                Self::record_locked(
                    &mut st,
                    &self.events,
                    Severity::Error,
                    Kind::CollectiveMismatch,
                    Some(rank),
                    detail,
                );
                Verdict::Skip
            };
            st.epochs.get_mut(&epoch).expect("just inserted").verdict = Some(verdict);
            self.arrived.notify_all();
            return verdict;
        }

        loop {
            if let Some(v) = st.epochs[&epoch].verdict {
                return v;
            }
            if !self.arrived.wait_timeout(&mut st, self.watchdog)
                && st.epochs[&epoch].verdict.is_none()
            {
                // Watchdog: some rank is busy elsewhere (compute phase, user
                // message exchange). Stand aside rather than risk wedging a
                // correct program; latecomers will see the verdict.
                st.epochs.get_mut(&epoch).expect("entered above").verdict = Some(Verdict::Proceed);
                Self::record_locked(
                    &mut st,
                    &self.events,
                    Severity::Advice,
                    Kind::CollectiveStall,
                    Some(rank),
                    format!(
                        "collective epoch {epoch} ({}) rendezvous watchdog expired after \
                         {:?}; ran unverified",
                        op.describe(),
                        self.watchdog
                    ),
                );
                self.arrived.notify_all();
                return Verdict::Proceed;
            }
        }
    }

    // ----- blocked receives / deadlock --------------------------------------

    pub(crate) fn block_enter(&self, rank: usize, from: Option<usize>, tag: u64) {
        self.events.fetch_add(1, Ordering::Relaxed);
        self.state.lock().blocked.insert(rank, BlockedRecv { from, tag, rounds: 0 });
    }

    pub(crate) fn block_exit(&self, rank: usize) {
        self.state.lock().blocked.remove(&rank);
    }

    /// One watchdog slice elapsed while `rank` is blocked. Runs deadlock
    /// detection; returns true when the rank has been poisoned (its recv
    /// must synthesize a message and give up).
    pub(crate) fn block_tick(&self, rank: usize) -> bool {
        let mut st = self.state.lock();
        if st.poisoned[rank] {
            return true;
        }
        if let Some(b) = st.blocked.get_mut(&rank) {
            b.rounds += 1;
        }

        // Directed cycle: each blocked rank has at most one outgoing edge
        // (r → its awaited source). Follow the chain from here.
        let mature = |st: &State, r: usize| st.blocked.get(&r).is_some_and(|b| b.rounds >= 2);
        let next = |st: &State, r: usize| st.blocked.get(&r).and_then(|b| b.from);
        let mut path = vec![rank];
        let mut cur = rank;
        let cycle: Option<Vec<usize>> = loop {
            if !mature(&st, cur) {
                break None;
            }
            match next(&st, cur) {
                Some(s) => {
                    if let Some(pos) = path.iter().position(|&p| p == s) {
                        break Some(path[pos..].to_vec());
                    }
                    path.push(s);
                    cur = s;
                }
                None => break None,
            }
        };

        // Global stall: every rank blocked (directed or wildcard) and mature.
        let all_stalled = st.blocked.len() == self.size && (0..self.size).all(|r| mature(&st, r));

        let members = match (cycle, all_stalled) {
            (Some(c), _) => Some(c),
            (None, true) => Some((0..self.size).collect()),
            _ => None,
        };
        if let Some(members) = members {
            let stacks = members
                .iter()
                .map(|&r| {
                    let b = &st.blocked[&r];
                    let from = b.from.map_or_else(|| "any".to_string(), |f| f.to_string());
                    format!("rank {r}: recv(from={from}, tag={:#x})", b.tag)
                })
                .collect::<Vec<_>>()
                .join("; ");
            Self::record_locked(
                &mut st,
                &self.events,
                Severity::Error,
                Kind::Deadlock,
                Some(rank),
                format!("wait-for cycle among ranks {members:?} — {stacks}"),
            );
            for &r in &members {
                st.poisoned[r] = true;
            }
            return st.poisoned[rank];
        }
        false
    }

    // ----- teardown ---------------------------------------------------------

    /// Leak audit + report. Call after the world joins; consumes the
    /// findings (a second call reports only whatever was recorded since).
    pub fn finish(&self) -> CheckReport {
        let mut st = self.state.lock();
        if !st.inflight.is_empty() {
            let mut leaks: Vec<(&(usize, usize, u64), &u64)> = st.inflight.iter().collect();
            leaks.sort();
            let detail = leaks
                .iter()
                .map(|(&(from, to, tag), &n)| {
                    format!("{n} msg(s) {from}→{to} tag {tag:#x} never received")
                })
                .collect::<Vec<_>>()
                .join("; ");
            let reserved_only = leaks.iter().all(|(&(_, _, tag), _)| tags::is_reserved(tag));
            // Undrained ORB control traffic at teardown is routine (e.g. a
            // server drops out of its dispatch loop with forwards queued);
            // user-tag leaks are probably bugs.
            let severity = if reserved_only { Severity::Advice } else { Severity::Warning };
            Self::record_locked(&mut st, &self.events, severity, Kind::MessageLeak, None, detail);
            st.inflight.clear();
        }
        CheckReport { world_size: self.size, findings: std::mem::take(&mut st.findings) }
    }
}
