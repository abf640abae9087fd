//! Figure 5 — "overall performance vs performance of components": the
//! diffusion → gradient metaapplication with matched processor counts P,
//! in modelled seconds: the overall time from the diffusion client's
//! perspective (128x128 grid, 100 steps, every step shown to the diffusion
//! visualizer, every 5th step's field pipelined to the gradient unit, whose
//! result goes to its own visualizer), the same with blocking senders, the
//! diffusion component alone (no gradient requests) and the gradient
//! component alone (as many requests, back-to-back). The gradient charges
//! its modelled flops to the netsim clock ([`pardis_apps::figures`]).
//!
//! ```text
//! cargo run --release -p pardis-bench --bin fig5_pipeline
//! PARDIS_QUICK=1 ... (P = 1 and 2 only)
//! ```

use pardis_apps::figures::{fig5_point, Fig5Point, FIG5_FLOPS};
use pardis_apps::pipeline::PipelineConfig;
use pardis_bench::util::{quick, row, BenchJson};

fn main() {
    let procs: Vec<usize> = if quick() { vec![1, 2] } else { vec![1, 2, 4, 8] };
    let base = PipelineConfig::default();
    println!("# Figure 5 — overall performance vs performance of components (modelled seconds)");
    println!(
        "# {}x{} grid, {} steps, gradient every {}th step, Ethernet, {} MFLOP/s per node",
        base.nx,
        base.ny,
        base.steps,
        base.gradient_every,
        FIG5_FLOPS / 1e6
    );
    let columns: Vec<f64> = procs.iter().map(|p| *p as f64).collect();
    println!("{}", row("processors", &columns));
    let points: Vec<_> = procs.iter().map(|&p| fig5_point(p, base.steps)).collect();

    let mut report = BenchJson::new("fig5", "overall performance vs performance of components");
    report.param_usize("steps", base.steps);
    report.param_f64("mflops", FIG5_FLOPS / 1e6);
    report.param_bool("protocol_check", pardis::check::env_requested());
    report.columns(&columns);
    for (name, value) in [
        ("overall", (|p: &Fig5Point| p.overall) as fn(&Fig5Point) -> f64),
        ("overall (blocking)", |p| p.overall_blocking),
        ("diffusion (SGI_PC)", |p| p.diffusion),
        ("gradient (SP2)", |p| p.gradient),
    ] {
        let series: Vec<f64> = points.iter().map(value).collect();
        println!("{}", row(name, &series));
        report.series(name, &series);
    }
    report.write();
    report.gate_from_args();

    println!("#");
    println!("# expected shape (paper, fig 5): overall sits above both components and the");
    println!("# advantage of adding processors does not scale — the non-oneway sends and");
    println!("# pipeline congestion eat it (section 4.3).");
}
