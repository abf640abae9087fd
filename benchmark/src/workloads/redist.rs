//! `redist_cyclic` — the run-time system and the cached plan, nothing else.
//!
//! Two ranks on two hosts joined by an `AtmOc3` link ping-pong a
//! `DSequence<f64>` of 4 096 elements `Block -> Cyclic -> Block`; each
//! direction is one operation. No ORB, POA or protocol frame is involved:
//! the cost is the transfer plan (element-granular between these two
//! templates), the encode of each local block into a window, and the
//! vectored gets over `rts` windows, in the scatter and the gather
//! direction alike.
//!
//! The length is `dseq_cyclic`'s, so the two workloads walk the same 4 096
//! pieces with and without the ORB around them. It was 131 072 at first: a
//! 4 MB plan that lives in the last-level cache all guests of the host share,
//! where one build ran at 195 or at 310 operations a second (segments of one
//! run: 147 to 337) depending on what those guests were doing. At this length
//! the plan and the data stay in a core's own cache, CPU time per element is
//! within 12 % of the long sequence's, and ten runs in a quiet hour spread by
//! 2.8 % instead of 5.3 % (`README.md`, Noise).

use super::{close_out, SessionOut, SplitMix, Workload};
use crate::harness::{Budget, Driver, LaneOut, NetProbe};
use crate::trace;
use pardis::core::{DSequence, Distribution};
use pardis::netsim::{LinkPreset, Network, TimeScale};
use pardis::rts::{MpiRts, World};
use std::time::Instant;

const RANKS: usize = 2;

pub const WORKLOAD: Workload = Workload {
    name: "redist_cyclic",
    seg_ops: 1_200,
    cold_ops: 2,
    layer_elems: 4_096,
    trace_every: 1,
    run,
};

const _: () =
    assert!(WORKLOAD.seg_ops.is_multiple_of(2), "a segment ends with the data back in Block");

fn run(seed: u64, budget: Budget) -> SessionOut {
    let full = SplitMix(seed).f64_vec(WORKLOAD.layer_elems);
    // What each rank must hold after each direction, cut from the reference
    // by `Distribution::runs`.
    let reference = |dist: Distribution| -> Vec<DSequence<f64>> {
        (0..RANKS).map(|t| DSequence::distribute(&full, dist.clone(), RANKS, t)).collect()
    };
    let as_block = reference(Distribution::Block);
    let as_cyclic = reference(Distribution::Cyclic);

    let net = Network::new(TimeScale::off());
    net.set_default_link(LinkPreset::AtmOc3.link());
    let hosts: Vec<_> = (0..RANKS).map(|r| net.add_host(&format!("rank{r}"))).collect();
    let (world, ranks) = World::new(RANKS);
    world.attach_network(net.clone(), hosts);
    let probe_net = net.clone();
    let drv = Driver::new(WORKLOAD.seg_ops, budget, move || {
        probe_net.quiesce();
        let (frames, wire_bytes) = probe_net
            .per_link_usage()
            .iter()
            .fold((0, 0), |(f, b), (_, u)| (f + u.frames, b + u.bytes));
        NetProbe { virt_s: probe_net.clock().now(), frames, wire_bytes }
    });

    let lanes: Vec<LaneOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranks
            .into_iter()
            .map(|rank| {
                let (drv, as_block, as_cyclic) = (&drv, &as_block, &as_cyclic);
                scope.spawn(move || {
                    let t = rank.rank();
                    trace::label_thread(&format!("rank/{t}"));
                    let rts = MpiRts::new(rank);
                    let mut ds = as_block[t].clone();
                    let mut lane = drv.lane(t);
                    let mut step = |to: Distribution, span: &'static str, want: &DSequence<f64>| {
                        let _s = trace::span(span);
                        ds.redistribute(&rts, to);
                        ds.local() == want.local()
                    };
                    lane.start();
                    while lane.may_issue() {
                        // The two directions cost differently, so their times
                        // form two clusters with the median on the edge
                        // between them; each operation is charged half its
                        // round trip instead.
                        let t0 = Instant::now();
                        trace::set_op(lane.issue());
                        let _round_trip = trace::span("redist.round_trip");
                        let there =
                            step(Distribution::Cyclic, "dseq.redistribute_b2c", &as_cyclic[t]);
                        trace::set_op(lane.issue());
                        let back = step(Distribution::Block, "dseq.redistribute_c2b", &as_block[t]);
                        let half = t0.elapsed() / 2;
                        lane.complete_after(half, there);
                        lane.complete_after(half, back);
                    }
                    trace::flush_thread();
                    lane.finish()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread")).collect()
    });
    close_out(0.0, &net, 0, &drv, lanes)
}
