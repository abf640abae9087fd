//! §4.3 / figure 5 — pipelining POOMA diffusion into an HPC++ PSTL
//! gradient.
//!
//! ```text
//! cargo run --release --example pipeline [PROCESSORS]
//! ```
//!
//! The diffusion unit (a POOMA application on SGI_PC) runs a 128x128
//! 9-point-stencil simulation for 100 time-steps, pipelining every
//! completed step to its visualizer and every 5th step's field to the
//! gradient unit (an HPC++ PSTL application on the SP/2), which pipelines
//! its magnitude gradient to a visualizer on the Indy. All component
//! boundaries go through the compiler's pragma-mapped stubs
//! (`show_pooma_nb`, `gradient_pooma_nb`). Times are modelled seconds: the
//! gradient charges its flops at the SP/2's modelled speed to the netsim
//! clock.

use pardis::core::Orb;
use pardis::netsim::{Network, TimeScale};
use pardis_apps::figures::FIG5_FLOPS;
use pardis_apps::pipeline::{
    run_diffusion, run_gradient_alone, spawn_gradient_server_paced, spawn_visualizer,
    PipelineConfig,
};
use pardis_apps::solvers::ComputePace;

fn main() {
    let p: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let cfg = PipelineConfig { threads: p, ..Default::default() };
    println!(
        "pipeline: {}x{} grid, {} steps, gradient every {}th step, {p} matched processors",
        cfg.nx, cfg.ny, cfg.steps, cfg.gradient_every
    );

    // The paper's figure-5 testbed (Ethernet).
    let net = Network::paper_ethernet_testbed(TimeScale::off());
    let pc = net.host_by_name("SGI_PC").unwrap();
    let sp2 = net.host_by_name("SP2").unwrap();
    let indy = net.host_by_name("INDY").unwrap();
    let pace = Some(ComputePace { flops_per_sec: FIG5_FLOPS });
    let orb = Orb::new(net);

    let (vis_d, stats_d) = spawn_visualizer(&orb, pc, "vis_diffusion");
    let (vis_g, stats_g) = spawn_visualizer(&orb, indy, "vis_gradient");
    let (nx, ny) = (cfg.nx, cfg.ny);
    let grad =
        spawn_gradient_server_paced(&orb, sp2, "fops", p, Some("vis_gradient"), nx, ny, pace);

    // Overall metaapplication, from the diffusion client's perspective.
    let (t_overall, checksum) =
        run_diffusion(&orb, pc, "vis_diffusion", Some("fops"), &cfg).expect("pipeline run");
    println!("  overall          : {t_overall:7.3} modelled s   (field checksum {checksum:.6})");
    println!(
        "  frames shown     : diffusion visualizer {}, gradient visualizer {}",
        stats_d.lock().frames,
        stats_g.lock().frames
    );

    // The diffusion component alone (no gradient requests), then the
    // gradient alone, driven back-to-back with as many requests.
    let (t_diffusion, _) = run_diffusion(&orb, pc, "vis_diffusion", None, &cfg).expect("diffusion");
    println!("  diffusion alone  : {t_diffusion:7.3} modelled s");
    let requests = cfg.steps / cfg.gradient_every;
    let t_gradient =
        run_gradient_alone(&orb, pc, "fops", p, nx, ny, requests).expect("gradient alone");
    println!("  gradient alone   : {t_gradient:7.3} modelled s");

    grad.shutdown();
    vis_d.shutdown();
    vis_g.shutdown();
}
