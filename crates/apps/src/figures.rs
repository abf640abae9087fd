//! The runners behind figures 2 and 5, in modelled time.
//!
//! Every network here is built with [`TimeScale::off`], and the solvers
//! and the gradient charge their modelled compute to their threads'
//! timelines ([`ComputePace`]), so a figure point is a modelled duration:
//! the time from a case's start (all client threads ready, everything sent
//! before it landed) to its client's last completion. The figure binaries
//! and the tier-1 test of the figures' claims both call these functions.
//!
//! A host's send floor is shared by its threads in real-time order (see
//! `pardis_netsim`), so a point can depend on how the host's threads were
//! scheduled. The runners keep that out where the program allows: a
//! parallel client launches rank by rank, and an SPMD computation's ranks
//! end their compute together.

use crate::pipeline::{
    run_diffusion, run_gradient_alone, spawn_gradient_server_paced, spawn_visualizer,
    PipelineConfig,
};
use crate::solvers::{
    compute_difference, gen_system, spawn_combined_server, spawn_direct_server,
    spawn_iterative_server, ComputePace,
};
use crate::{in_turn, start_case};
use pardis::core::{ClientGroup, DSequence, Distribution, Orb, TraceSession};
use pardis::generated::solvers::{DirectProxy, IterativeProxy};
use pardis::netsim::{HostId, Network, TimeScale};
use pardis::rts::{MpiRts, Rts, World};
use std::sync::Arc;

/// Figure 2's parallel client: threads on HOST_1.
pub const FIG2_CLIENT_THREADS: usize = 2;
/// Figure 2's direct solver: computing threads on HOST_1.
pub const FIG2_DIRECT_THREADS: usize = 4;
/// Figure 2's iterative solver: computing threads on HOST_2.
pub const FIG2_ITER_THREADS: usize = 8;
/// Modelled per-processor speed of HOST_1 (its R4400s), in flop/s; HOST_2's
/// R8000s are 1.8× faster.
pub const FIG2_FLOPS: f64 = 40.0e6;
const TOL: f64 = 1e-6;

/// One column of figure 2: modelled seconds per series at one problem size.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Point {
    /// The direct solver alone (HOST_1).
    pub direct: f64,
    /// The iterative solver alone (HOST_2).
    pub iterative: f64,
    /// The paper's client: non-blocking iterative on HOST_2, blocking
    /// direct on HOST_1, then the future.
    pub different: f64,
    /// When, in that case, the blocking direct call returned. The model
    /// gives `different == max(different_direct, iterative)` (DESIGN.md §1).
    pub different_direct: f64,
    /// [`Fig2Point::different`] with blocking senders.
    pub different_blocking: f64,
    /// Both solvers on one HOST_1 server: the two invocations serialise.
    pub same: f64,
    /// Fraction of a bulk transfer an overlapping sender hides
    /// ([`overlap_hidden_frac`]).
    pub overlap_hidden_frac: f64,
}

/// Run figure 2's client once on `orb`, calling the solvers `direct` and
/// `iterative` select. Returns, over its threads, the latest return of the
/// direct call and the latest completion, in modelled seconds from the
/// case's start.
fn run_case(orb: &Orb, host: HostId, a: &[Vec<f64>], b: &[f64], calls: (bool, bool)) -> (f64, f64) {
    let (direct, iterative) = calls;
    let client = ClientGroup::create(orb, host, FIG2_CLIENT_THREADS);
    let chk = pardis::check::for_world(FIG2_CLIENT_THREADS);
    let net = orb.network();
    let out = World::run(FIG2_CLIENT_THREADS, |rank| {
        let t = rank.rank();
        let rts: Arc<dyn Rts> = pardis::check::wrap_if(&chk, Arc::new(MpiRts::new(rank)));
        let ct = client.attach(t, Some(rts.clone()));
        let d = DirectProxy::spmd_bind(&ct, "direct_solver").expect("bind direct");
        let i = IterativeProxy::spmd_bind(&ct, "itrt_solver").expect("bind iterative");
        let a_ds = DSequence::distribute(a, Distribution::Block, FIG2_CLIENT_THREADS, t);
        let b_ds = DSequence::distribute(b, Distribution::Block, FIG2_CLIENT_THREADS, t);
        let start = start_case(rts.as_ref(), net, host);
        // The paper's client: non-blocking iterative, blocking direct,
        // then resolve the future and compare.
        let x1 = iterative.then(|| {
            in_turn(rts.as_ref(), t, || i.solve_nb(&TOL, &a_ds, &b_ds, Distribution::Block))
                .expect("iterative solve_nb")
        });
        let x2 = direct.then(|| {
            let f = in_turn(rts.as_ref(), t, || d.solve_nb(&a_ds, &b_ds, Distribution::Block));
            f.expect("direct solve_nb").x.get().expect("direct solve")
        });
        let direct_done = net.thread_time(host) - start;
        let x1 = x1.map(|f| f.x.get().expect("iterative future"));
        let done = net.thread_time(host) - start;
        if let (Some(x1), Some(x2)) = (&x1, &x2) {
            compute_difference(x1, x2, Some(rts.as_ref()));
        }
        (direct_done, done)
    });
    pardis::check::enforce(&chk);
    out.into_iter().fold((0.0, 0.0), |(d, e), (d2, e2)| (f64::max(d, d2), f64::max(e, e2)))
}

/// Write a `PARDIS_TRACE` session's export, if one was started.
fn finish_trace(trace: Option<TraceSession>) {
    if let Some(session) = trace {
        match pardis::core::finish_env_trace(session) {
            Ok(path) => eprintln!("  trace written to {}", path.display()),
            Err(e) => eprintln!("  trace write failed: {e}"),
        }
    }
}

/// Netsim-level overlap probe: `K` bulk transfers of the N×N matrix payload
/// HOST_1 → HOST_2 over the ATM link, each followed by compute as long as
/// the transfer, charged to the sending host. A blocking sender waits out
/// the full transfer before computing; an overlapping sender pays only the
/// software overhead `t_o`, and the wire share elapses during the compute.
/// Returns `(makespan_blocking − makespan_overlapped) / (K · t)`, which the
/// model puts at `1 − t_o / t`.
pub fn overlap_hidden_frac(n: usize) -> f64 {
    const K: u32 = 4;
    let makespan = |blocking: bool| {
        let net = Network::paper_atm_testbed(TimeScale::off());
        let net = if blocking { net.blocking() } else { net };
        let h1 = net.host_by_name("HOST_1").expect("testbed host");
        let h2 = net.host_by_name("HOST_2").expect("testbed host");
        let t = net.transfer_time(h1, h2, n * n * 8);
        for _ in 0..K {
            net.transmit(h1, h2, n * n * 8, || {});
            net.charge_wait(h1, t);
        }
        (net.makespan(), t.as_secs_f64())
    };
    let ((blocking, t), (overlapped, _)) = (makespan(true), makespan(false));
    ((blocking - overlapped) / (f64::from(K) * t)).max(0.0)
}

/// Figure 2 at problem size `n`, with HOST_1's processors at
/// `flops_per_sec` (HOST_2's at 1.8× that).
pub fn fig2_point(n: usize, flops_per_sec: f64) -> Fig2Point {
    let (a, b) = gen_system(n, 42);
    let testbed = |blocking: bool| {
        let net = Network::paper_atm_testbed(TimeScale::off());
        let net = if blocking { net.blocking() } else { net };
        let h1 = net.host_by_name("HOST_1").expect("testbed host");
        let h2 = net.host_by_name("HOST_2").expect("testbed host");
        (Orb::new(net), h1, h2)
    };
    let pace_h1 = Some(ComputePace { flops_per_sec });
    let pace_h2 = Some(ComputePace { flops_per_sec: flops_per_sec * 1.8 });
    // Direct on HOST_1, iterative on HOST_2: each alone, then the paper's
    // client; with blocking senders (`Network::blocking`) nothing the
    // non-blocking invocation could hide is hidden.
    let distributed = |blocking: bool, cases: &[(bool, bool)]| {
        let (orb, h1, h2) = testbed(blocking);
        let trace = (!blocking).then(|| pardis::core::trace_from_env(&orb)).flatten();
        let direct = spawn_direct_server(&orb, h1, "direct_solver", FIG2_DIRECT_THREADS, pace_h1);
        let iterative = spawn_iterative_server(&orb, h2, "itrt_solver", FIG2_ITER_THREADS, pace_h2);
        let points: Vec<_> = cases.iter().map(|&c| run_case(&orb, h1, &a, &b, c)).collect();
        direct.shutdown();
        iterative.shutdown();
        finish_trace(trace);
        points
    };
    let cases = distributed(false, &[(true, false), (false, true), (true, true)]);
    let blocking = distributed(true, &[(true, true)])[0];
    // Both objects on one HOST_1 server.
    let (orb, h1, _) = testbed(false);
    let combined = spawn_combined_server(
        &orb,
        h1,
        "direct_solver",
        "itrt_solver",
        FIG2_DIRECT_THREADS,
        pace_h1,
    );
    let same = run_case(&orb, h1, &a, &b, (true, true)).1;
    combined.shutdown();
    Fig2Point {
        direct: cases[0].1,
        iterative: cases[1].1,
        different: cases[2].1,
        different_direct: cases[2].0,
        different_blocking: blocking.1,
        same,
        overlap_hidden_frac: overlap_hidden_frac(n),
    }
}

/// Modelled per-node speed of the SP/2 running the gradient, in flop/s:
/// slow enough that the gradient dominates, as in the paper. The
/// diffusion's stencil is charged nothing, so its component time is what
/// its visualizer traffic costs.
pub const FIG5_FLOPS: f64 = 4.0e6;

/// One column of figure 5: modelled seconds per series at one processor
/// count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Point {
    /// The full metaapplication from the diffusion client's perspective.
    pub overall: f64,
    /// [`Fig5Point::overall`] with blocking senders.
    pub overall_blocking: f64,
    /// The diffusion component alone (no gradient requests).
    pub diffusion: f64,
    /// The gradient component alone, driven back-to-back with as many
    /// requests.
    pub gradient: f64,
}

/// Figure 5 with `p` matched processors per component, `steps` diffusion
/// steps and the paper's 128×128 grid.
pub fn fig5_point(p: usize, steps: usize) -> Fig5Point {
    let cfg = PipelineConfig { threads: p, steps, ..Default::default() };
    let run = |blocking: bool| {
        let net = Network::paper_ethernet_testbed(TimeScale::off());
        let net = if blocking { net.blocking() } else { net };
        let host = |name| net.host_by_name(name).expect("testbed host");
        let (pc, sp2, indy) = (host("SGI_PC"), host("SP2"), host("INDY"));
        let pace = Some(ComputePace { flops_per_sec: FIG5_FLOPS });
        let orb = Orb::new(net.clone());
        let trace = (!blocking).then(|| pardis::core::trace_from_env(&orb)).flatten();
        let (vis_d, _) = spawn_visualizer(&orb, pc, "vis_diffusion");
        let (vis_g, _) = spawn_visualizer(&orb, indy, "vis_gradient");
        let (nx, ny, vis) = (cfg.nx, cfg.ny, Some("vis_gradient"));
        let grad = spawn_gradient_server_paced(&orb, sp2, "fops", p, vis, nx, ny, pace);
        let diffuse =
            |fops| run_diffusion(&orb, pc, "vis_diffusion", fops, &cfg).expect("diffusion run").0;
        let overall = diffuse(Some("fops"));
        // The components alone, measured once, on the overlapping network.
        let components = (!blocking).then(|| {
            let requests = cfg.steps / cfg.gradient_every;
            let gradient =
                run_gradient_alone(&orb, pc, "fops", p, nx, ny, requests).expect("gradient alone");
            (diffuse(None), gradient)
        });
        grad.shutdown();
        vis_d.shutdown();
        vis_g.shutdown();
        finish_trace(trace);
        (overall, components)
    };
    let (overall, components) = run(false);
    let (diffusion, gradient) = components.expect("the overlapping run measures the components");
    // Once more with blocking senders: every visualizer and gradient send
    // waits for its own arrival, so the pipeline overlaps nothing.
    let (overall_blocking, _) = run(true);
    Fig5Point { overall, overall_blocking, diffusion, gradient }
}
