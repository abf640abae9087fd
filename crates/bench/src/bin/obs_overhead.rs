//! Observability overhead microbench: per-call cost of the tracing and
//! metrics hot paths, in nanoseconds.
//!
//! The contract the obs layer makes with the data path is that a *disabled*
//! hook costs one relaxed atomic load — cheap enough to leave compiled into
//! every marshal/transmit/dispatch path. This harness measures that gate
//! plus the enabled-path costs (ring append, span open/close, histogram
//! observe, counter bump) so a regression that sneaks a lock or an
//! allocation into a hook shows up as a gated series.
//!
//! ```text
//! cargo run --release -p pardis-bench --bin obs_overhead
//! ... -- --compare results/BENCH_obs.json   (regression gate)
//! ```

use pardis::obs::{self, ArgVal};
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
    obs::reset();

    // Warm both paths so lazy ring/metric registration is off the clock.
    obs::enable();
    per_op_ns(1_000, |i| obs::instant("bench", "obs.warm", None, vec![("i", i.into())]));
    let _ = obs::histogram("bench.obs.warm_us");
    obs::disable();
    per_op_ns(1_000, |_| obs::instant("bench", "obs.warm", None, vec![]));

    // The disabled gate: what every instrumented hot path pays when tracing
    // is off.
    let disabled_instant = per_op_ns(iters, |_| obs::instant("bench", "obs.gate", None, vec![]));
    let disabled_span = per_op_ns(iters, |_| {
        let _s = obs::Span::open("bench", "obs.gate_span", None, vec![]);
    });

    // Enabled paths: ring append with a typed arg, a full span open/close
    // pair, and the metrics primitives (registry-independent once cached).
    obs::enable();
    let enabled_instant = per_op_ns(iters, |i| {
        obs::instant("bench", "obs.tick", None, vec![("i", ArgVal::U64(i))]);
    });
    let enabled_span = per_op_ns(iters, |i| {
        let _s = obs::Span::open("bench", "obs.span", Some((1, i)), vec![]);
    });
    let hist = obs::histogram("bench.obs.lat_us");
    let observe = per_op_ns(iters, |i| hist.observe(i & 0xFFFF));
    let counter = obs::counter("bench.obs.count");
    let count = per_op_ns(iters, |_| counter.inc());
    obs::reset();

    println!("# Observability overhead — ns per call ({iters} iterations)");
    let cols = [iters as f64];
    println!("{}", row("iters", &cols));
    println!("{}", row("disabled instant", &[disabled_instant]));
    println!("{}", row("disabled span", &[disabled_span]));
    println!("{}", row("enabled instant", &[enabled_instant]));
    println!("{}", row("enabled span", &[enabled_span]));
    println!("{}", row("histogram observe", &[observe]));
    println!("{}", row("counter inc", &[count]));

    let mut report = BenchJson::new("obs", "observability hot-path overhead");
    report.param_usize("iters", iters as usize);
    report.columns(&cols);
    report.series("disabled_instant_ns", &[disabled_instant]);
    report.series("disabled_span_ns", &[disabled_span]);
    report.series("enabled_instant_ns", &[enabled_instant]);
    report.series("enabled_span_ns", &[enabled_span]);
    report.series("histogram_observe_ns", &[observe]);
    report.series("counter_inc_ns", &[count]);
    report.write();
    report.gate_from_args();

    println!("#");
    println!("# contract: the disabled series stay within a few ns — one relaxed");
    println!("# atomic load and a branch; no lock, no allocation.");
}
