//! # pardis-audit — concurrency auditor for the PARDIS ORB core
//!
//! ROADMAP item 2 rewrites the ORB's locking; this crate is the gate that
//! refactor lands against. It audits the ORB's *thread synchronization*
//! the way `pardis-check` audits the SPMD *protocol*: an always-compiled,
//! zero-cost-when-off runtime analyzer plus model tests and CI gates.
//!
//! * **Lock-order deadlock detection** — every [`AuditMutex`]/
//!   [`AuditRwLock`] acquisition is tagged with a static [`Site`] (from
//!   [`lock_site!`]); nested acquisitions grow a global lock-order graph,
//!   and any cycle is reported as a *potential* deadlock with the witness
//!   stack of every participating edge — even when no run ever deadlocks.
//! * **Happens-before race auditing** — a vector-clock engine tracks
//!   acquire/release, channel send/recv ([`chan_send`]/[`chan_recv`]) and
//!   Arc-swap publish/load ([`publish`]/[`load_published`]) edges;
//!   [`access_read`]/[`access_write`]-instrumented shared tables (reply table, endpoint
//!   snapshot, registry lease map) are checked
//!   FastTrack-style for conflicting unsynchronized accesses.
//! * **Hazard patterns** — a lock held across a wire call
//!   ([`note_wire_call`]), hold time above an opt-in virtual-clock budget
//!   ([`set_hold_budget_us`]), and re-entrant acquisition.
//!
//! Findings render as a severity-tiered [`AuditReport`] (human table +
//! JSON), same shape as `pardis-check`'s `CheckReport`.
//!
//! ## Zero cost when off
//!
//! Everything hides behind one global atomic gate: [`enabled`] is a
//! single relaxed load, and every hook is a passthrough when it returns
//! false. Poison recovery (and its `lock.poisoned` obs counter) is the
//! one behaviour that stays on unconditionally — recovering a guard is
//! strictly better than cascading a panic across ORB threads.
//!
//! ## Wiring
//!
//! ```
//! use pardis_audit::{lock_site, AuditMutex};
//!
//! static TABLE: AuditMutex<Vec<u32>> = AuditMutex::new(
//!     lock_site!("example: shared table"),
//!     Vec::new(),
//! );
//!
//! pardis_audit::enable();
//! TABLE.lock().push(7);
//! let report = pardis_audit::report();
//! assert!(report.is_clean());
//! # pardis_audit::disable();
//! # pardis_audit::reset();
//! ```
//!
//! The e2e suites call [`enforce_env`] at teardown, so `PARDIS_AUDIT=1`
//! turns every chaos/failover scenario into a synchronization-verification
//! run.

mod core;
mod report;
mod sync;

pub use report::{AuditReport, Finding, Kind, Severity};
pub use sync::{
    AuditCondvar, AuditMutex, AuditMutexGuard, AuditQueue, AuditReadGuard, AuditRwLock,
    AuditWriteGuard,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// A static acquisition/access site: where in the source a lock lives (or
/// a shared table is touched) and what a human calls it. Identity is the
/// static's address; construct through [`lock_site!`].
#[derive(Debug)]
pub struct Site {
    /// Human label, e.g. `"client: reply router"`.
    pub label: &'static str,
    /// Crate the site lives in (`CARGO_PKG_NAME`).
    pub krate: &'static str,
    /// Source file (`file!`).
    pub file: &'static str,
    /// Source line (`line!`).
    pub line: u32,
}

/// Declare a static [`Site`] in place and evaluate to `&'static Site`.
///
/// Expands to a `static` item, so it is usable in `const`/`static`
/// initializers (e.g. a `static AuditMutex`), and the site's address is a
/// stable id for the whole process lifetime.
#[macro_export]
macro_rules! lock_site {
    ($label:expr) => {{
        static SITE: $crate::Site = $crate::Site {
            label: $label,
            krate: env!("CARGO_PKG_NAME"),
            file: file!(),
            line: line!(),
        };
        &SITE
    }};
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is auditing on? One relaxed atomic load — safe to call on hot paths.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the audit gate on.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn the audit gate off.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Was auditing requested through the environment (`PARDIS_AUDIT=1`)?
/// Read once per process; a hit also flips the global gate on.
pub fn env_requested() -> bool {
    static REQUESTED: OnceLock<bool> = OnceLock::new();
    let req = *REQUESTED.get_or_init(|| std::env::var("PARDIS_AUDIT").is_ok_and(|v| v == "1"));
    if req {
        enable();
    }
    req
}

/// Record a happens-before edge source: something was sent on the channel
/// identified by `chan` (callers pick any id stable for the channel's
/// lifetime, e.g. an endpoint's raw id).
#[inline]
pub fn chan_send(chan: u64) {
    if enabled() {
        core::on_chan_send(chan);
    }
}

/// Record a happens-before edge sink: something was received from `chan`.
#[inline]
pub fn chan_recv(chan: u64) {
    if enabled() {
        core::on_chan_recv(chan);
    }
}

/// Record an Arc-swap publish: the snapshot cell at address `cell` now
/// holds everything the calling thread did so far.
#[inline]
pub fn publish(cell: usize) {
    if enabled() {
        core::on_publish(cell);
    }
}

/// Record an Arc-swap load from the cell at address `cell`.
#[inline]
pub fn load_published(cell: usize) {
    if enabled() {
        core::on_load(cell);
    }
}

/// Race-check a read of the shared table named by `site`. `instance`
/// distinguishes independent tables reached through the same code path
/// (e.g. one reply router per client thread) — pass the table's address.
#[inline]
pub fn access_read(site: &'static Site, instance: usize) {
    if enabled() {
        core::on_access(site, instance, false);
    }
}

/// Race-check a write of the shared table named by `site`; see
/// [`access_read`] for `instance`.
#[inline]
pub fn access_write(site: &'static Site, instance: usize) {
    if enabled() {
        core::on_access(site, instance, true);
    }
}

/// The calling thread is about to block on a wire/network call described
/// by `what`; any audited lock currently held is flagged as a
/// [`Kind::WireCall`] hazard.
#[inline]
pub fn note_wire_call(what: &str) {
    if enabled() {
        core::on_wire_call(what);
    }
}

/// Set (or clear with `None`) the virtual-clock lock-hold budget in
/// micros. Off by default — the virtual clock is global, so wall-clock
/// unrelated threads advance it and a default budget would fire
/// spuriously; opt in per experiment, or set
/// `PARDIS_AUDIT_HOLD_BUDGET_US` in the environment.
pub fn set_hold_budget_us(us: Option<u64>) {
    core::set_hold_budget(us);
}

/// Snapshot the findings so far: accumulated hazards/races plus the
/// lock-order cycles currently in the graph. Does not clear state.
pub fn report() -> AuditReport {
    core::build_report()
}

/// Clear all auditor state: the order graph, every vector clock, access
/// histories and findings. Call between independent scenarios in one
/// process so edges from one workload cannot implicate another.
pub fn reset() {
    core::reset_state();
}

/// Fail loudly on findings: panics with the rendered table when the
/// report has warnings or errors; prints advice to stderr. State is reset
/// either way.
pub fn enforce() {
    let report = report();
    reset();
    if !report.is_clean() {
        panic!("concurrency audit failed\n{}", report.render_table());
    }
    if !report.findings.is_empty() {
        eprintln!("{}", report.render_table());
    }
}

/// [`enforce`], but only when auditing was requested via `PARDIS_AUDIT=1`
/// (the e2e-suite teardown hook; a no-op in ordinary runs).
pub fn enforce_env() {
    if env_requested() {
        enforce();
    }
}

#[cfg(test)]
mod tests;
