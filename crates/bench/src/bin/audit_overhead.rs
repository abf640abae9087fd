//! Concurrency-auditor overhead microbench: per-call cost of the audited
//! lock wrappers and instrumentation hooks, in nanoseconds.
//!
//! The contract `pardis-audit` makes with the ORB core is that a *disabled*
//! wrapper costs one relaxed atomic load over the bare `std` primitive —
//! cheap enough to leave every core lock wrapped unconditionally. This
//! harness measures that gate (lock/unlock, rwlock read, access/channel
//! hooks) against a raw `std::sync::Mutex` baseline, plus the enabled-path
//! costs, so a regression that sneaks bookkeeping ahead of the gate shows
//! up as a gated series.
//!
//! ```text
//! cargo run --release -p pardis-bench --bin audit_overhead
//! ... -- --compare results/BENCH_audit.json   (regression gate)
//! ```

use pardis::audit::{self, lock_site, AuditMutex, AuditRwLock};
use pardis_bench::util::{quick, row, BenchJson};
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per call of `f` over `iters` iterations.
fn per_op_ns(iters: u64, f: impl Fn(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(black_box(i));
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

fn main() {
    let iters: u64 = if quick() { 200_000 } else { 2_000_000 };
    audit::disable();
    audit::reset();

    let raw = std::sync::Mutex::new(0u64);
    let lock = AuditMutex::new(lock_site!("bench: audited mutex"), 0u64);
    let rw = AuditRwLock::new(lock_site!("bench: audited rwlock"), 0u64);
    let site = lock_site!("bench: audited table");

    // Baseline: the bare std primitive the wrappers delegate to.
    let std_lock = per_op_ns(iters, |i| {
        *raw.lock().unwrap() = i;
    });

    // The disabled gate: what every ORB lock pays when auditing is off.
    let disabled_lock = per_op_ns(iters, |i| {
        *lock.lock() = i;
    });
    let disabled_read = per_op_ns(iters, |_| {
        black_box(*rw.read());
    });
    let disabled_access = per_op_ns(iters, |_| audit::access_write(site, 1));
    let disabled_chan = per_op_ns(iters, |i| audit::chan_send(i & 7));

    // Enabled paths: full bookkeeping — held-stack push/pop, order-graph
    // probe, vector-clock joins. Reset afterwards so the bench leaves no
    // global state behind.
    audit::enable();
    let enabled_lock = per_op_ns(iters / 4, |i| {
        *lock.lock() = i;
    });
    let enabled_access = per_op_ns(iters / 4, |_| audit::access_write(site, 1));
    audit::disable();
    audit::reset();

    println!("# Concurrency-audit overhead — ns per call ({iters} iterations)");
    let cols = [iters as f64];
    println!("{}", row("iters", &cols));
    println!("{}", row("std mutex lock", &[std_lock]));
    println!("{}", row("disabled audited lock", &[disabled_lock]));
    println!("{}", row("disabled rwlock read", &[disabled_read]));
    println!("{}", row("disabled access hook", &[disabled_access]));
    println!("{}", row("disabled chan hook", &[disabled_chan]));
    println!("{}", row("enabled audited lock", &[enabled_lock]));
    println!("{}", row("enabled access hook", &[enabled_access]));

    let mut report = BenchJson::new("audit", "concurrency-audit hot-path overhead");
    report.param_usize("iters", iters as usize);
    report.columns(&cols);
    report.series("std_mutex_lock_ns", &[std_lock]);
    report.series("disabled_lock_ns", &[disabled_lock]);
    report.series("disabled_rwlock_read_ns", &[disabled_read]);
    report.series("disabled_access_ns", &[disabled_access]);
    report.series("disabled_chan_ns", &[disabled_chan]);
    report.series("enabled_lock_ns", &[enabled_lock]);
    report.series("enabled_access_ns", &[enabled_access]);
    report.write();
    report.gate_from_args();

    println!("#");
    println!("# contract: the disabled series track the std baseline to within a");
    println!("# few ns — one relaxed atomic load and a branch; no lock-order or");
    println!("# vector-clock work happens before the gate.");
}
