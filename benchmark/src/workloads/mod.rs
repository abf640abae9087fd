//! The five workloads. Each is one function `run(seed, budget)` that
//! generates its inputs and reference outputs from the seed, then builds
//! the system from nothing, drives it under the shared [`Driver`], checks
//! every reply and shuts everything down. A cold start is the same function
//! with a budget of a few operations, run in a process of its own.
//!
//! Every workload runs the default path only: no environment knob (the
//! runner refuses them), no ORB setter, no one-sided switch. Every network is
//! built with `TimeScale::off()`, so wall time is the program's own cost and
//! modelled time is read off the virtual clock.

pub mod dseq;
pub mod pipeline;
pub mod redist;
pub mod rpc_small;

use crate::harness::{Budget, Driver, Lane, LaneOut, Measured, NetProbe};
use crate::trace;
use pardis::core::{InvocationHandle, Orb, OrbResult, ReplyData};
use pardis::netsim::Network;
use std::collections::VecDeque;
use std::time::Instant;

/// One workload as the runner sees it.
pub struct Workload {
    pub name: &'static str,
    /// Operations per timed segment (a constant: see [`crate::harness`]).
    pub seg_ops: u64,
    /// Operations of one cold start.
    pub cold_ops: u64,
    /// Element count the standalone layer calls of the traced run use.
    pub layer_elems: usize,
    /// The traced run records the spans of every n-th operation.
    pub trace_every: u64,
    pub run: fn(u64, Budget) -> SessionOut,
}

/// All workloads, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 5] =
    [rpc_small::WORKLOAD, dseq::BLOCK, dseq::CYCLIC, redist::WORKLOAD, pipeline::WORKLOAD];

/// What one session reports.
#[derive(Debug, Clone, Default)]
pub struct SessionOut {
    /// Rank 0's bind, microseconds (0 where nothing binds).
    pub bind_us: f64,
    /// Busiest link's wire occupancy over the network makespan.
    pub link_busy_frac: f64,
    pub retransmits: u64,
    pub measured: Measured,
}

/// A splitmix64 stream: the benchmark's only source of input values.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    pub fn f64_vec(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next_f64()).collect()
    }
}

/// The splitmix64 finaliser: also the stateless "value number `i` of the
/// stream" the pipelined client uses instead of storing millions of inputs.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pipelined client loop: keep `depth` non-blocking invocations
/// outstanding until the lane's budget is spent. `before` runs ahead of each
/// launch and outside its timing; `launch` sends invocation `id`; `verify`
/// checks its reply against the reference.
fn drive_pipelined(
    lane: &mut Lane<'_>,
    depth: usize,
    mut before: impl FnMut(u64),
    mut launch: impl FnMut(u64) -> OrbResult<InvocationHandle>,
    mut verify: impl FnMut(u64, ReplyData) -> bool,
) {
    let mut queue: VecDeque<(u64, Instant, OrbResult<InvocationHandle>)> =
        VecDeque::with_capacity(depth);
    lane.start();
    loop {
        while queue.len() < depth && lane.may_issue() {
            before(lane.issued());
            let id = lane.issue();
            trace::set_op(id);
            let t0 = Instant::now();
            let handle = {
                let _s = trace::span("client.invoke_nb");
                launch(id)
            };
            queue.push_back((id, t0, handle));
        }
        let Some((id, t0, handle)) = queue.pop_front() else { break };
        trace::set_op(id);
        let reply = {
            let _s = trace::span("client.wait");
            handle.and_then(|h| h.wait())
        };
        lane.complete(t0, reply.is_ok_and(|r| verify(id, r)));
    }
}

fn orb_probe(orb: &Orb) -> impl Fn() -> NetProbe + Send + Sync + 'static {
    let orb = orb.clone();
    move || {
        orb.network().quiesce();
        let (frames, wire_bytes) = orb.traffic();
        NetProbe { virt_s: orb.network().clock().now(), frames, wire_bytes }
    }
}

fn link_busy_frac(net: &Network) -> f64 {
    let makespan = net.makespan();
    net.per_link_usage()
        .into_iter()
        .map(|(_, u)| u)
        .chain(net.shared_segment_usage())
        .map(|u| u.utilization(makespan))
        .fold(0.0, f64::max)
}

fn close_out(
    bind_us: f64,
    net: &Network,
    retransmits: u64,
    drv: &Driver,
    lanes: Vec<LaneOut>,
) -> SessionOut {
    net.quiesce();
    SessionOut {
        bind_us,
        link_busy_frac: link_busy_frac(net),
        retransmits,
        measured: drv.finish(lanes),
    }
}
