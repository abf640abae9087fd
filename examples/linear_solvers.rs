//! §4.1 / figure 2 — concurrent execution of data-parallel components.
//!
//! ```text
//! cargo run --release --example linear_solvers [N]
//! ```
//!
//! The same linear system is solved by a direct method (HOST_1, 4 computing
//! threads) and an iterative method (HOST_2, the bigger machine); the
//! returned solutions are compared. The client program below mirrors the
//! paper's listing: `_spmd_bind` both solvers, non-blocking `solve_nb` on
//! the remote iterative solver, blocking `solve` on the local direct one,
//! then read the future. Run in distributed-servers and same-server mode
//! and compare the totals, in modelled seconds: the solvers charge their
//! flops at the testbed's mid-90s speeds to the netsim clock.

use pardis::core::{ClientGroup, DSequence, Distribution, Orb};
use pardis::generated::solvers::{DirectProxy, IterativeProxy};
use pardis::netsim::{Network, TimeScale};
use pardis::rts::{MpiRts, Rts, World};
use pardis_apps::figures::FIG2_FLOPS;
use pardis_apps::solvers::{
    compute_difference, gen_system, spawn_combined_server, spawn_direct_server,
    spawn_iterative_server, ComputePace,
};
use pardis_apps::start_case;
use std::sync::Arc;

const CLIENT_THREADS: usize = 2;

fn run_client(orb: &Orb, host: pardis::netsim::HostId, a: &[Vec<f64>], b: &[f64]) -> (f64, f64) {
    let client = ClientGroup::create(orb, host, CLIENT_THREADS);
    let out = World::run(CLIENT_THREADS, |rank| {
        let t = rank.rank();
        let rts: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
        let ct = client.attach(t, Some(rts.clone()));

        let d_solver = DirectProxy::spmd_bind(&ct, "direct_solver").expect("bind direct");
        let i_solver = IterativeProxy::spmd_bind(&ct, "itrt_solver").expect("bind iterative");

        let a_ds = DSequence::distribute(a, Distribution::Block, CLIENT_THREADS, t);
        let b_ds = DSequence::distribute(b, Distribution::Block, CLIENT_THREADS, t);

        // Start together, once everything sent before has landed.
        let net = orb.network();
        let start = start_case(rts.as_ref(), net, host);
        let tolerance = 0.000_001;
        // Non-blocking request to the (remote) iterative solver...
        let x1 =
            i_solver.solve_nb(&tolerance, &a_ds, &b_ds, Distribution::Block).expect("solve_nb");
        // ...own computation proceeds: blocking solve on the direct solver.
        let (x2_real,) = d_solver.solve(&a_ds, &b_ds, Distribution::Block).expect("solve");
        // Reading the future blocks until the result is delivered.
        let x1_real = x1.x.get().expect("future");
        let elapsed = net.thread_time(host) - start;
        let difference = compute_difference(&x1_real, &x2_real, Some(rts.as_ref()));
        (elapsed, difference)
    });
    let elapsed = out.iter().map(|(e, _)| *e).fold(0.0, f64::max);
    (elapsed, out[0].1)
}

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(300);
    // The paper's testbed: HOST_1 (4-node) and HOST_2 (10-node, 1.8x
    // faster processors) over a dedicated ATM link.
    let net = Network::paper_atm_testbed(TimeScale::off());
    let h1 = net.host_by_name("HOST_1").unwrap();
    let h2 = net.host_by_name("HOST_2").unwrap();
    let pace = |flops_per_sec| Some(ComputePace { flops_per_sec });
    let (a, b) = gen_system(n, 42);

    // Distributed-servers mode: direct on HOST_1, iterative on HOST_2.
    let orb = Orb::new(net.clone());
    let direct = spawn_direct_server(&orb, h1, "direct_solver", 4, pace(FIG2_FLOPS));
    let iterative = spawn_iterative_server(&orb, h2, "itrt_solver", 8, pace(FIG2_FLOPS * 1.8));
    let (t_diff, delta) = run_client(&orb, h1, &a, &b);
    println!("N = {n}");
    println!("  different servers : {t_diff:8.3} modelled s   (methods agree to {delta:.2e})");
    direct.shutdown();
    iterative.shutdown();

    // Same-server mode: both objects on one HOST_1 server — "switching
    // requires only a change of the host name" (§4.1); here it is one
    // launcher call.
    let orb = Orb::new(net.clone());
    let combined =
        spawn_combined_server(&orb, h1, "direct_solver", "itrt_solver", 4, pace(FIG2_FLOPS));
    let (t_same, delta) = run_client(&orb, h1, &a, &b);
    println!("  same server       : {t_same:8.3} modelled s   (methods agree to {delta:.2e})");
    combined.shutdown();

    println!(
        "  distributing the metaapplication {} the total by {:.1}%",
        if t_diff < t_same { "cut" } else { "changed" },
        (1.0 - t_diff / t_same) * 100.0
    );
}
