//! Figure 2 — "distributed vs local performance": execution time of the
//! solver metaapplication vs problem size, four series:
//!
//! * direct method alone (HOST_1, 4 computing threads),
//! * iterative method alone (HOST_2, 8 computing threads — the bigger,
//!   faster machine),
//! * different servers (direct on HOST_1, iterative on HOST_2, ATM link;
//!   non-blocking + blocking overlap: t = t_o + max(t_i, t_d)),
//! * same server (both objects share one HOST_1 server; the invocations
//!   serialise: t ≈ t_i + t_d).
//!
//! ```text
//! cargo run --release -p pardis-bench --bin fig2_solvers
//! PARDIS_QUICK=1 ... (tiny sweep)   PARDIS_TIME_SCALE=0.1 ... (slower link model)
//! ```

use pardis::core::{ClientGroup, DSequence, Distribution, Orb};
use pardis::generated::solvers::{DirectProxy, IterativeProxy};
use pardis::netsim::{Network, TimeScale};
use pardis::rts::{MpiRts, Rts, World};
use pardis_apps::solvers::{
    compute_difference, gen_system, spawn_combined_server_paced, spawn_direct_server_paced,
    spawn_iterative_server_paced, ComputePace,
};
use pardis_bench::util::{env_f64, quick, row, BenchJson};
use std::sync::Arc;
use std::time::Instant;

const CLIENT_THREADS: usize = 2;
const DIRECT_THREADS: usize = 4;
const ITER_THREADS: usize = 8;
const TOL: f64 = 1e-6;

struct Case {
    direct: bool,
    iterative: bool,
}

/// Run the client once; returns elapsed seconds (max over client threads).
fn run_case(orb: &Orb, host: pardis::netsim::HostId, a: &[Vec<f64>], b: &[f64], case: Case) -> f64 {
    let client = ClientGroup::create(orb, host, CLIENT_THREADS);
    let chk = pardis::check::for_world(CLIENT_THREADS);
    let out = World::run(CLIENT_THREADS, |rank| {
        let t = rank.rank();
        let rts: Arc<dyn Rts> = pardis::check::wrap_if(&chk, Arc::new(MpiRts::new(rank)));
        let ct = client.attach(t, Some(rts.clone()));
        let d_solver = case.direct.then(|| DirectProxy::spmd_bind(&ct, "direct_solver").unwrap());
        let i_solver =
            case.iterative.then(|| IterativeProxy::spmd_bind(&ct, "itrt_solver").unwrap());
        let a_ds = DSequence::distribute(a, Distribution::Block, CLIENT_THREADS, t);
        let b_ds = DSequence::distribute(b, Distribution::Block, CLIENT_THREADS, t);

        let start = Instant::now();
        match (&d_solver, &i_solver) {
            (Some(d), Some(i)) => {
                // The paper's client: non-blocking iterative, blocking
                // direct, then resolve the future and compare.
                let x1 = i.solve_nb(&TOL, &a_ds, &b_ds, Distribution::Block).unwrap();
                let (x2_real,) = d.solve(&a_ds, &b_ds, Distribution::Block).unwrap();
                let x1_real = x1.x.get().unwrap();
                let _difference = compute_difference(&x1_real, &x2_real, Some(rts.as_ref()));
            }
            (Some(d), None) => {
                let (_x,) = d.solve(&a_ds, &b_ds, Distribution::Block).unwrap();
            }
            (None, Some(i)) => {
                let (_x,) = i.solve(&TOL, &a_ds, &b_ds, Distribution::Block).unwrap();
            }
            (None, None) => unreachable!("a case always uses at least one solver"),
        }
        start.elapsed().as_secs_f64()
    });
    pardis::check::enforce(&chk);
    out.into_iter().fold(0.0, f64::max)
}

/// Netsim-level overlap probe: `K` bulk transfers of the N×N matrix payload
/// HOST_1 → HOST_2 over the ATM link, each followed by an equal slice of
/// modelled compute. A blocking sender waits out the full transfer on its
/// own thread; an overlapping sender pays only the software overhead
/// `t_o` while the wire share elapses concurrently with the compute. The
/// fraction of the modelled transfer time the overlap hides is
/// `(wall_blocking − wall_overlapped) / (K · t_transfer)`.
fn overlap_hidden_frac(n: usize, scale: f64) -> f64 {
    if scale <= 0.0 {
        return f64::NAN; // no real time injected: nothing to measure
    }
    const K: u32 = 4;
    let bytes = n * n * 8;
    let wall = |blocking: bool| -> (f64, f64) {
        let net = Network::paper_atm_testbed(TimeScale::new(scale));
        let net = if blocking { net.blocking() } else { net };
        let h1 = net.host_by_name("HOST_1").unwrap();
        let h2 = net.host_by_name("HOST_2").unwrap();
        let t = net.transfer_time(h1, h2, bytes).as_secs_f64();
        let compute = std::time::Duration::from_secs_f64(t * scale);
        let start = Instant::now();
        for _ in 0..K {
            net.transmit(h1, h2, bytes, || {});
            std::thread::sleep(compute);
        }
        net.quiesce();
        (start.elapsed().as_secs_f64(), t)
    };
    let (wall_blocking, t) = wall(true);
    let (wall_eng, _) = wall(false);
    let modelled = f64::from(K) * t * scale;
    ((wall_blocking - wall_eng) / modelled).max(0.0)
}

fn main() {
    let scale = env_f64("PARDIS_TIME_SCALE", 1.0);
    // Modelled per-processor speed: HOST_1's R4400s at 40 MFLOP/s, HOST_2's
    // R8000s 1.8x faster — the figure-2 testbed asymmetry.
    let mflops = env_f64("PARDIS_MFLOPS", 40.0) * 1e6;
    let sizes: Vec<usize> =
        if quick() { vec![100, 200] } else { vec![200, 400, 600, 800, 1000, 1200] };
    println!("# Figure 2 — distributed vs local performance");
    println!(
        "# client: {CLIENT_THREADS} threads on HOST_1; direct: {DIRECT_THREADS} threads on HOST_1; \
         iterative: {ITER_THREADS} threads on HOST_2; ATM OC-3 at time scale {scale}"
    );
    println!("{}", row("N", &sizes.iter().map(|n| *n as f64).collect::<Vec<_>>()));

    let mut direct_series = Vec::new();
    let mut iter_series = Vec::new();
    let mut diff_series = Vec::new();
    let mut blocking_series = Vec::new();
    let mut same_series = Vec::new();
    let mut hidden_series = Vec::new();

    for &n in &sizes {
        let (a, b) = gen_system(n, 42);
        let net = Network::paper_atm_testbed(TimeScale::new(scale));
        let h1 = net.host_by_name("HOST_1").unwrap();
        let h2 = net.host_by_name("HOST_2").unwrap();

        let pace_h1 = Some(ComputePace { flops_per_sec: mflops, time_scale: scale });
        let pace_h2 = Some(ComputePace { flops_per_sec: mflops * 1.8, time_scale: scale });

        // Distributed-servers configuration (also yields the two
        // single-method baselines).
        let orb = Orb::new(net.clone());
        let trace = pardis::core::trace_from_env(&orb);
        let direct = spawn_direct_server_paced(&orb, h1, "direct_solver", DIRECT_THREADS, pace_h1);
        let iterative =
            spawn_iterative_server_paced(&orb, h2, "itrt_solver", ITER_THREADS, pace_h2);
        direct_series.push(run_case(&orb, h1, &a, &b, Case { direct: true, iterative: false }));
        iter_series.push(run_case(&orb, h1, &a, &b, Case { direct: false, iterative: true }));
        diff_series.push(run_case(&orb, h1, &a, &b, Case { direct: true, iterative: true }));
        direct.shutdown();
        iterative.shutdown();
        if let Some(session) = trace {
            match pardis::core::finish_env_trace(session) {
                Ok(path) => eprintln!("  trace written to {}", path.display()),
                Err(e) => eprintln!("  trace write failed: {e}"),
            }
        }

        // The same distributed-servers client with blocking senders
        // (`Network::blocking`): the sender's thread waits out every
        // transfer in full, so nothing the non-blocking invocation could
        // hide is hidden.
        let blocking_net = Network::paper_atm_testbed(TimeScale::new(scale)).blocking();
        let orb = Orb::new(blocking_net);
        let direct = spawn_direct_server_paced(&orb, h1, "direct_solver", DIRECT_THREADS, pace_h1);
        let iterative =
            spawn_iterative_server_paced(&orb, h2, "itrt_solver", ITER_THREADS, pace_h2);
        blocking_series.push(run_case(&orb, h1, &a, &b, Case { direct: true, iterative: true }));
        direct.shutdown();
        iterative.shutdown();

        hidden_series.push(overlap_hidden_frac(n, scale));

        // Same-server configuration.
        let orb = Orb::new(net);
        let combined = spawn_combined_server_paced(
            &orb,
            h1,
            "direct_solver",
            "itrt_solver",
            DIRECT_THREADS,
            pace_h1,
        );
        same_series.push(run_case(&orb, h1, &a, &b, Case { direct: true, iterative: true }));
        combined.shutdown();
        eprintln!("  done N = {n}");
    }

    println!("{}", row("direct (HOST_1)", &direct_series));
    println!("{}", row("iterative (HOST_2)", &iter_series));
    println!("{}", row("different servers", &diff_series));
    println!("{}", row("different (blocking)", &blocking_series));
    println!("{}", row("same server (HOST_1)", &same_series));
    println!("{}", row("overlap hidden frac", &hidden_series));

    let mut report = BenchJson::new("fig2", "distributed vs local performance");
    report.param_f64("time_scale", scale);
    report.param_f64("mflops", mflops);
    report.param_usize("client_threads", CLIENT_THREADS);
    report.param_usize("direct_threads", DIRECT_THREADS);
    report.param_usize("iter_threads", ITER_THREADS);
    report.param_bool("protocol_check", pardis::check::env_requested());
    report.columns(&sizes.iter().map(|n| *n as f64).collect::<Vec<_>>());
    report.series("direct (HOST_1)", &direct_series);
    report.series("iterative (HOST_2)", &iter_series);
    report.series("different servers", &diff_series);
    report.series("different servers (blocking)", &blocking_series);
    report.series("same server (HOST_1)", &same_series);
    report.series("overlap_hidden_frac", &hidden_series);
    match report.write() {
        Ok(path) => eprintln!("  wrote {}", path.display()),
        Err(e) => eprintln!("  JSON write failed: {e}"),
    }
    report.gate_from_args();

    println!("#");
    println!("# expected shape (paper): different ≈ t_o + max(direct, iterative);");
    println!("#                         same     ≈ direct + iterative (serialised);");
    println!("#                         overlap hides ≥ 1 − t_o/t of each transfer.");
}
