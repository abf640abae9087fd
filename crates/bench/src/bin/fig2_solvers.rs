//! Figure 2 — "distributed vs local performance": execution time of the
//! solver metaapplication vs problem size, in modelled seconds: the direct
//! method alone (HOST_1, 4 computing threads), the iterative method alone
//! (HOST_2, 8 computing threads — the bigger, faster machine), different
//! servers (direct on HOST_1, iterative on HOST_2 over ATM; non-blocking +
//! blocking overlap: t = t_o + max(t_i, t_d)), the same with blocking
//! senders, and the same server (both objects on one HOST_1 server; the
//! invocations serialise: t ≈ t_i + t_d); plus the fraction of a bulk
//! transfer an overlapping sender hides. The solvers charge their modelled
//! flops to the netsim clock ([`pardis_apps::figures`]).
//!
//! ```text
//! cargo run --release -p pardis-bench --bin fig2_solvers
//! PARDIS_QUICK=1 ... (N = 100 and 200 only)
//! ```

use pardis_apps::figures::{
    fig2_point, Fig2Point, FIG2_CLIENT_THREADS, FIG2_DIRECT_THREADS, FIG2_FLOPS, FIG2_ITER_THREADS,
};
use pardis_bench::util::{env_f64, quick, row, BenchJson};

fn main() {
    // Modelled per-processor speed: HOST_1's R4400s at 40 MFLOP/s, HOST_2's
    // R8000s 1.8x faster — the figure-2 testbed asymmetry.
    let flops = env_f64("PARDIS_MFLOPS", FIG2_FLOPS / 1e6) * 1e6;
    let sizes: Vec<usize> =
        if quick() { vec![100, 200] } else { vec![100, 200, 400, 600, 800, 1000, 1200] };
    println!("# Figure 2 — distributed vs local performance (modelled seconds)");
    println!(
        "# client: {FIG2_CLIENT_THREADS} threads on HOST_1; direct: {FIG2_DIRECT_THREADS} \
         threads on HOST_1; iterative: {FIG2_ITER_THREADS} threads on HOST_2; ATM OC-3"
    );
    let columns: Vec<f64> = sizes.iter().map(|n| *n as f64).collect();
    println!("{}", row("N", &columns));
    let points: Vec<_> = sizes.iter().map(|&n| fig2_point(n, flops)).collect();

    let mut report = BenchJson::new("fig2", "distributed vs local performance");
    report.param_f64("mflops", flops / 1e6);
    report.param_usize("client_threads", FIG2_CLIENT_THREADS);
    report.param_usize("direct_threads", FIG2_DIRECT_THREADS);
    report.param_usize("iter_threads", FIG2_ITER_THREADS);
    report.param_bool("protocol_check", pardis::check::env_requested());
    report.columns(&columns);
    for (name, value) in [
        ("direct (HOST_1)", (|p: &Fig2Point| p.direct) as fn(&Fig2Point) -> f64),
        ("iterative (HOST_2)", |p| p.iterative),
        ("different servers", |p| p.different),
        ("different servers (blocking)", |p| p.different_blocking),
        ("same server (HOST_1)", |p| p.same),
        ("overlap_hidden_frac", |p| p.overlap_hidden_frac),
    ] {
        let series: Vec<f64> = points.iter().map(value).collect();
        println!("{}", row(name, &series));
        report.series(name, &series);
    }
    report.write();
    report.gate_from_args();

    println!("#");
    println!("# expected shape (paper): different ≈ t_o + max(direct, iterative);");
    println!("#                         same     ≈ direct + iterative (serialised);");
    println!("#                         overlap hides 1 − t_o/t of each transfer.");
}
