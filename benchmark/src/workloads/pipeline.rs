//! `app_pipeline` — the paper's figure 5 metaapplication, unpaced.
//!
//! The servers are `pardis_apps::pipeline`'s own: a diffusion visualizer, a
//! two-rank gradient server and its visualizer on the paper's Ethernet
//! testbed. The client below is `run_diffusion`'s loop with the benchmark's
//! clock around it: a two-rank POOMA diffusion on a 128×128 field that shows
//! every step to its visualizer and sends every fifth to the gradient
//! server, through the generated `-pooma` stubs, one invocation deep. One
//! operation is one diffusion step.
//!
//! Generated stubs, halo exchange over windows, three servers, pipelined
//! non-blocking sends: every layer does a little and none dominates, which
//! makes this the guard against a change that wins a microcase and loses
//! the application.
//!
//! Every segment restarts from the same initial field, so its checksum can
//! be compared with `diffusion_checksum_seq` for that many steps.

use super::{close_out, orb_probe, SessionOut, SplitMix, Workload};
use crate::harness::{Budget, Driver, LaneOut};
use crate::trace;
use pardis::core::{ClientGroup, InvocationHandle, Orb, OrbResult};
use pardis::generated::pipeline::{FieldOperationsProxy, VisualizerProxy};
use pardis::netsim::{Network, TimeScale};
use pardis::pooma::{Field2D, Layout2D};
use pardis::rts::{MpiRts, ReduceOp, Rts, World};
use pardis_apps::pipeline::{
    diffusion_checksum_seq, spawn_gradient_server, spawn_visualizer, PipelineConfig,
};
use std::sync::Arc;
use std::time::Instant;

const RANKS: usize = 2;
const N: usize = 128;
const GRADIENT_EVERY: u64 = 5;

pub const WORKLOAD: Workload = Workload {
    name: "app_pipeline",
    seg_ops: 1_000,
    cold_ops: 5,
    layer_elems: N * N,
    trace_every: 1,
    run,
};

const _: () = assert!(
    WORKLOAD.seg_ops.is_multiple_of(GRADIENT_EVERY),
    "segments hold whole gradient periods"
);

/// The field `run_diffusion` starts from.
fn initial_field(layout: Layout2D, thread: usize) -> Field2D {
    let c = N as f64 / 2.0;
    Field2D::from_fn(layout, thread, |i, j| {
        let (dx, dy) = (i as f64 - c, j as f64 - c);
        (-(dx * dx + dy * dy) / 64.0).exp()
    })
}

fn run(seed: u64, budget: Budget) -> SessionOut {
    let steps = match budget {
        Budget::Ops(n) => n,
        Budget::Timed { .. } => WORKLOAD.seg_ops,
    };
    // The seed picks the diffusion coefficient; the reference is the
    // application's own sequential run of one segment.
    let alpha = 0.03 + 0.02 * (SplitMix(seed).next_f64() + 1.0);
    let reference = diffusion_checksum_seq(&PipelineConfig {
        nx: N,
        ny: N,
        steps: steps as usize,
        gradient_every: GRADIENT_EVERY as usize,
        alpha,
        threads: 1,
        show_every_step: true,
    });

    let net = Network::paper_ethernet_testbed(TimeScale::off());
    let host = |name: &str| net.host_by_name(name).expect("testbed host");
    let (pc, sp2, indy) = (host("SGI_PC"), host("SP2"), host("INDY"));
    let orb = Orb::new(net.clone());
    let drv = Driver::new(WORKLOAD.seg_ops, budget, orb_probe(&orb));

    let (vis_d, shown_d) = spawn_visualizer(&orb, pc, "vis_diffusion");
    let (vis_g, shown_g) = spawn_visualizer(&orb, indy, "vis_gradient");
    let grad = spawn_gradient_server(&orb, sp2, "fops", RANKS, Some("vis_gradient"), N, N);

    let clients = ClientGroup::create(&orb, pc, RANKS);
    let outs: Vec<(f64, LaneOut)> = World::run(RANKS, |rank| {
        let t = rank.rank();
        trace::label_thread(&format!("client/{t}"));
        let rts: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
        let client = clients.attach(t, Some(rts.clone()));
        let bind_started = Instant::now();
        let vis = VisualizerProxy::spmd_bind(&client, "vis_diffusion").expect("bind visualizer");
        let fops = FieldOperationsProxy::spmd_bind(&client, "fops").expect("bind gradient");
        let bind_us = bind_started.elapsed().as_secs_f64() * 1e6;

        let layout = Layout2D::new(N, N, RANKS);
        let mut lane = drv.lane(t);
        let mut steps_done = 0u64;
        rts.barrier();
        lane.start();
        while lane.may_issue() {
            let mut field = initial_field(layout.clone(), t);
            let mut ok = true;
            let mut prev_show = None;
            let mut prev_grad = None;
            for step in 1..=steps {
                trace::set_op(lane.issue());
                let _step = trace::span("app.step");
                {
                    let _s = trace::span("pooma.stencil9");
                    field.stencil9(alpha, rts.as_ref());
                }
                // One invocation deep: the previous show must have been
                // answered before the next is sent (they are non-blocking
                // but not oneway, §4.3).
                if let Some((t0, shown)) = prev_show.take() {
                    lane.complete(t0, wait(shown));
                }
                let t0 = Instant::now();
                prev_show = Some((t0, {
                    let _s = trace::span("client.invoke_nb");
                    vis.show_pooma_nb(&field).map(|f| f.handle)
                }));
                if step % GRADIENT_EVERY == 0 {
                    if let Some(sent) = prev_grad.take() {
                        ok &= wait(sent);
                    }
                    prev_grad = Some({
                        let _s = trace::span("client.invoke_nb");
                        fops.gradient_pooma_nb(&field).map(|f| f.handle)
                    });
                }
            }
            if let Some(sent) = prev_grad.take() {
                ok &= wait(sent);
            }
            steps_done += steps;
            // The segment's output: the field's checksum, and both
            // visualizers having seen every frame sent so far.
            let checksum = rts.all_reduce_f64(field.local_sum(), ReduceOp::Sum);
            ok &= (checksum - reference).abs() < 1e-9 * reference.abs().max(1.0);
            let (t0, shown) = prev_show.take().expect("a segment shows at least one step");
            ok &= wait(shown);
            ok &= shown_d.lock().frames as u64 == steps_done
                && shown_g.lock().frames as u64 == steps_done / GRADIENT_EVERY;
            lane.complete(t0, ok);
        }
        trace::flush_thread();
        (bind_us, lane.finish())
    });
    let bind_us = outs[0].0;
    let lanes = outs.into_iter().map(|(_, lane)| lane).collect();

    grad.shutdown();
    vis_d.shutdown();
    vis_g.shutdown();
    close_out(bind_us, &net, orb.retransmits(), &drv, lanes)
}

fn wait(sent: OrbResult<InvocationHandle>) -> bool {
    let _s = trace::span("client.wait");
    sent.and_then(|h| h.wait()).is_ok()
}
