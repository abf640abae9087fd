//! # pardis-check — SPMD protocol analyzer for the PARDIS RTS
//!
//! The paper's §2.2 contract is the whole trust boundary between the ORB and
//! a parallel program: the ORB assumes a small message-passing interface
//! *plus* reserved-tag separation from application traffic, and SPMD
//! correctness assumes every computing thread enters the same collectives in
//! the same order. This crate checks both invariants online, in the spirit
//! of MPI verifiers (MUST-style collective matching, wait-for-graph deadlock
//! detection):
//!
//! * **Reserved-tag discipline** — a `send`/`recv` on a tag inside the
//!   reserved band ([`pardis_rts::tags::RESERVED_TAG_RANGE`]) is an error:
//!   the ORB sends nothing point-to-point, so only the application can.
//! * **Collective matching** — a per-world epoch log records which
//!   collective each rank entered; barrier-vs-broadcast divergence and root
//!   disagreement are flagged, and all ranks skip the doomed collective so
//!   the report is delivered instead of a hang.
//! * **Deadlock detection** — blocked receives form a wait-for graph; a
//!   cycle (or a global stall) is reported with each rank's pending
//!   operation, and the cycle members are released with synthesized
//!   messages so the world can tear down.
//! * **Message-leak audit** — sends that were never received are reported at
//!   [`Checker::finish`].
//! * **Wildcard-recv hazard** — a blocking `recv(from = None, ..)` with two
//!   or more eligible senders is nondeterministic; flagged as advice.
//!
//! ## Zero cost when off
//!
//! Like `pardis-obs`, the checker hides behind one global atomic gate:
//! [`enabled`] is a single relaxed load, and every [`CheckedRts`] method is
//! a passthrough when it returns false. [`wrap_if`] goes one step further
//! and does not even interpose the decorator.
//!
//! ## Wiring
//!
//! ```ignore
//! let chk = pardis_check::for_world(p);            // honours PARDIS_CHECK=1
//! let out = World::run(p, |rank| {
//!     let rts = pardis_check::wrap_if(&chk, Arc::new(MpiRts::new(rank)));
//!     ...
//! });
//! pardis_check::enforce(&chk);                     // panics on error/warning
//! ```

mod checked;
mod checker;
mod report;

pub use checked::CheckedRts;
pub use checker::{Checker, CollOp, Verdict};
pub use report::{CheckReport, Finding, Kind, Severity};

use pardis_rts::Rts;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is checking on? One relaxed atomic load — safe to call on hot paths.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the checker gate on.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn the checker gate off.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Was checking requested through the environment (`PARDIS_CHECK=1`)?
/// Read once per process; a hit also flips the global gate on.
pub fn env_requested() -> bool {
    static REQUESTED: OnceLock<bool> = OnceLock::new();
    let req = *REQUESTED.get_or_init(|| std::env::var("PARDIS_CHECK").is_ok_and(|v| v == "1"));
    if req {
        enable();
    }
    req
}

/// A checker for a world of `size` ranks, if checking is on (programmatic
/// [`enable`] or `PARDIS_CHECK=1`); `None` otherwise. The standard entry
/// point for wiring an SPMD launch.
pub fn for_world(size: usize) -> Option<Arc<Checker>> {
    (env_requested() || enabled()).then(|| Checker::new(size))
}

/// Wrap `inner` in a [`CheckedRts`] when `chk` is present; hand back
/// `inner` untouched otherwise (no decorator on the path at all).
pub fn wrap_if(chk: &Option<Arc<Checker>>, inner: Arc<dyn Rts>) -> Arc<dyn Rts> {
    match chk {
        Some(c) => Arc::new(CheckedRts::wrap(inner, c.clone())),
        None => inner,
    }
}

/// Finish the checker (if any) and fail loudly on findings: panics with the
/// rendered table when the report has warnings or errors; prints advice to
/// stderr. The e2e suites call this so `PARDIS_CHECK=1` turns every
/// scenario into a protocol-verification run.
pub fn enforce(chk: &Option<Arc<Checker>>) {
    if let Some(c) = chk {
        let report = c.finish();
        if !report.is_clean() {
            panic!("protocol check failed\n{}", report.render_table());
        }
        if !report.findings.is_empty() {
            eprintln!("{}", report.render_table());
        }
    }
}

#[cfg(test)]
mod tests;
