//! Figure 5 — "overall performance vs performance of components": the
//! diffusion → gradient metaapplication with matched processor counts.
//!
//! Series, per processor count P:
//!
//! * overall time — the full metaapplication from the (diffusion) client's
//!   perspective: 128x128 grid, 100 steps, every step shown to the
//!   diffusion visualizer, every 5th step's field pipelined to the gradient
//!   unit, whose result goes to its own visualizer;
//! * diffusion (SGI_PC) — the diffusion component alone (no gradient
//!   requests);
//! * gradient (SP2) — the gradient component alone, driven back-to-back
//!   with the same number of requests.
//!
//! ```text
//! cargo run --release -p pardis-bench --bin fig5_pipeline
//! ```

use pardis::core::Orb;
use pardis::netsim::{Network, TimeScale};
use pardis_apps::pipeline::{
    run_diffusion, run_gradient_alone, spawn_gradient_server_paced, spawn_visualizer,
    PipelineConfig,
};
use pardis_apps::solvers::ComputePace;
use pardis_bench::util::{env_f64, quick, row, BenchJson};

fn main() {
    let scale = env_f64("PARDIS_TIME_SCALE", 0.2);
    let procs: Vec<usize> = if quick() { vec![1, 2] } else { vec![1, 2, 4, 8] };
    let base = PipelineConfig { steps: if quick() { 20 } else { 100 }, ..Default::default() };
    println!("# Figure 5 — overall performance vs performance of components");
    println!(
        "# {}x{} grid, {} steps, gradient every {}th step, Ethernet at time scale {scale}",
        base.nx, base.ny, base.steps, base.gradient_every
    );
    println!("{}", row("processors", &procs.iter().map(|p| *p as f64).collect::<Vec<_>>()));

    let mut overall = Vec::new();
    let mut overall_blocking = Vec::new();
    let mut diffusion = Vec::new();
    let mut gradient = Vec::new();

    for &p in &procs {
        let cfg = PipelineConfig { threads: p, ..base.clone() };
        let net = Network::paper_ethernet_testbed(TimeScale::new(scale));
        let pc = net.host_by_name("SGI_PC").unwrap();
        let sp2 = net.host_by_name("SP2").unwrap();
        let indy = net.host_by_name("INDY").unwrap();
        let orb = Orb::new(net);
        let trace = pardis::core::trace_from_env(&orb);

        let (vis_d, _sd) = spawn_visualizer(&orb, pc, "vis_diffusion");
        let (vis_g, _sg) = spawn_visualizer(&orb, indy, "vis_gradient");
        // The SP/2's modelled per-node speed: slow enough that the gradient
        // computation dominates at low processor counts, as in the paper.
        let pace = Some(ComputePace { flops_per_sec: 4.0e6, time_scale: scale });
        let grad = spawn_gradient_server_paced(
            &orb,
            sp2,
            "fops",
            p,
            Some("vis_gradient"),
            cfg.nx,
            cfg.ny,
            pace,
        );

        let (t_overall, _) =
            run_diffusion(&orb, pc, "vis_diffusion", Some("fops"), &cfg).expect("overall run");
        let (t_diffusion, _) =
            run_diffusion(&orb, pc, "vis_diffusion", None, &cfg).expect("diffusion alone");
        let t_gradient =
            run_gradient_alone(&orb, pc, "fops", p, cfg.nx, cfg.ny, cfg.steps / cfg.gradient_every)
                .expect("gradient alone");

        overall.push(t_overall);
        diffusion.push(t_diffusion);
        gradient.push(t_gradient);

        grad.shutdown();
        vis_d.shutdown();
        vis_g.shutdown();
        if let Some(session) = trace {
            match pardis::core::finish_env_trace(session) {
                Ok(path) => eprintln!("  trace written to {}", path.display()),
                Err(e) => eprintln!("  trace write failed: {e}"),
            }
        }

        // The full metaapplication once more with blocking senders
        // (`Network::blocking`): every visualizer/gradient send waits on
        // the sender's thread for its own arrival, so the pipeline
        // overlaps nothing.
        let net = Network::paper_ethernet_testbed(TimeScale::new(scale)).blocking();
        let pc = net.host_by_name("SGI_PC").unwrap();
        let sp2 = net.host_by_name("SP2").unwrap();
        let indy = net.host_by_name("INDY").unwrap();
        let orb = Orb::new(net);
        let (vis_d, _sd) = spawn_visualizer(&orb, pc, "vis_diffusion");
        let (vis_g, _sg) = spawn_visualizer(&orb, indy, "vis_gradient");
        let grad = spawn_gradient_server_paced(
            &orb,
            sp2,
            "fops",
            p,
            Some("vis_gradient"),
            cfg.nx,
            cfg.ny,
            pace,
        );
        let (t_blocking, _) =
            run_diffusion(&orb, pc, "vis_diffusion", Some("fops"), &cfg).expect("blocking run");
        overall_blocking.push(t_blocking);
        grad.shutdown();
        vis_d.shutdown();
        vis_g.shutdown();
        eprintln!("  done P = {p}");
    }

    println!("{}", row("overall", &overall));
    println!("{}", row("overall (blocking)", &overall_blocking));
    println!("{}", row("diffusion (SGI_PC)", &diffusion));
    println!("{}", row("gradient (SP2)", &gradient));

    let mut report = BenchJson::new("fig5", "overall performance vs performance of components");
    report.param_f64("time_scale", scale);
    report.param_usize("steps", base.steps);
    report.param_bool("protocol_check", pardis::check::env_requested());
    report.columns(&procs.iter().map(|p| *p as f64).collect::<Vec<_>>());
    report.series("overall", &overall);
    report.series("overall (blocking)", &overall_blocking);
    report.series("diffusion (SGI_PC)", &diffusion);
    report.series("gradient (SP2)", &gradient);
    match report.write() {
        Ok(path) => eprintln!("  wrote {}", path.display()),
        Err(e) => eprintln!("  JSON write failed: {e}"),
    }
    report.gate_from_args();

    println!("#");
    println!("# expected shape (paper, fig 5): overall sits above both components and the");
    println!("# advantage of adding processors does not scale — the non-oneway sends and");
    println!("# pipeline congestion eat it (section 4.3).");
}
