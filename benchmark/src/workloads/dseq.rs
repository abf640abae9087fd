//! `dseq_block` and `dseq_cyclic` — one transfer layer used both ways.
//!
//! A two-rank SPMD client invokes `y = 2x + 1` on a two-rank SPMD server
//! across an `Ethernet10` link, passing a `DSequence<f64>` in and getting
//! one back, with [`DEPTH`] collective invocations outstanding. The client
//! always holds and expects `Block`; the server's template decides the work:
//!
//! * `dseq_block` — 65 536 elements, server `Block`: one large piece per
//!   rank pair each way, so cost is per **byte** (bulk encode/decode,
//!   fragment framing copies) and the transfer plan has two pieces;
//! * `dseq_cyclic` — 4 096 elements, server `Cyclic`: the identical code
//!   path cut into 4 096 one-element pieces each way, so cost is per
//!   **piece** (plan walks, tiny fragments, reassembly, modelled `t_o`).
//!
//! A change that wins per byte but pays per piece, or the reverse, shows as
//! one row up and the other down.

use super::{close_out, drive_pipelined, orb_probe, SessionOut, SplitMix, Workload};
use crate::harness::{Budget, Driver, LaneOut};
use crate::trace;
use pardis::core::{
    ClientGroup, DSequence, DistPolicy, Distribution, Orb, Servant, ServerGroup, ServerReply,
    ServerRequest,
};
use pardis::netsim::{LinkPreset, Network, TimeScale};
use pardis::rts::{MpiRts, Rts, World};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

const RANKS: usize = 2;
/// Collective invocations kept outstanding per client rank.
const DEPTH: usize = 4;
/// The client ranks meet at a barrier of their own run-time system every
/// this many invocations. An SPMD client invokes collectively, but nothing in
/// a pipelined loop keeps its ranks in step, and the ORB relies on it: a
/// reply that reaches a rank more than a thousand invocations before that
/// rank issues the request is evicted from its bounded stash, and the
/// invocation then never completes. Left alone the ranks drifted 6 000
/// invocations apart within seconds.
const MAX_SKEW: u64 = 16;
/// Distinct seeded input sequences the client cycles through.
const INPUTS: usize = 4;
const OBJECT: &str = "vecop";

/// Do not raise the length: each POA keeps its last 1 024 replies, here
/// 1 024 × 256 KiB per server rank (the `peak_rss_mb` this workload shows).
pub const BLOCK: Workload = Workload {
    name: "dseq_block",
    seg_ops: 560,
    cold_ops: 1,
    layer_elems: 65_536,
    trace_every: 1,
    run: |seed, budget| run(&BLOCK, Distribution::Block, seed, budget),
};

pub const CYCLIC: Workload = Workload {
    name: "dseq_cyclic",
    seg_ops: 32,
    cold_ops: 1,
    layer_elems: 4_096,
    trace_every: 1,
    run: |seed, budget| run(&CYCLIC, Distribution::Cyclic, seed, budget),
};

struct VecOp {
    served: AtomicU64,
}

impl Servant for VecOp {
    fn interface(&self) -> &str {
        "vecop"
    }

    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        trace::set_op(self.served.fetch_add(1, Ordering::Relaxed));
        let x: DSequence<f64> = {
            let _s = trace::span("servant.unmarshal");
            req.dseq(0).map_err(|e| e.to_string())?
        };
        let y: Vec<f64> = {
            let _s = trace::span("servant.compute");
            x.local().iter().map(|v| 2.0 * v + 1.0).collect()
        };
        let _s = trace::span("servant.reply_build");
        let mut rep = ServerReply::new();
        // Returned in the server's own template; the POA cuts it to the
        // distribution the client asked for.
        rep.push_dseq(DSequence::from_local(
            y,
            x.len(),
            x.dist().clone(),
            x.nthreads(),
            x.thread(),
        ));
        Ok(rep)
    }
}

fn run(w: &Workload, server_dist: Distribution, seed: u64, budget: Budget) -> SessionOut {
    assert!(w.seg_ops > 2 * DEPTH as u64 + MAX_SKEW, "a segment must outlast pipeline and skew");
    let mut rng = SplitMix(seed);
    let inputs: Vec<Vec<f64>> = (0..INPUTS).map(|_| rng.f64_vec(w.layer_elems)).collect();
    let expected: Vec<Vec<f64>> =
        inputs.iter().map(|x| x.iter().map(|v| 2.0 * v + 1.0).collect()).collect();

    let net = Network::new(TimeScale::off());
    let client_host = net.add_host("client");
    let server_host = net.add_host("server");
    net.connect(client_host, server_host, LinkPreset::Ethernet10.link());
    let orb = Orb::new(net.clone());
    let drv = Arc::new(Driver::new(w.seg_ops, budget, orb_probe(&orb)));

    let group = ServerGroup::create(&orb, "vecop-server", server_host, RANKS);
    let (ready_tx, ready_rx) = mpsc::channel();
    let server = {
        let (group, drv) = (group.clone(), drv.clone());
        let policy = DistPolicy::new().with("scale", 0, server_dist);
        std::thread::spawn(move || {
            World::run(RANKS, |rank| {
                let t = rank.rank();
                trace::label_thread(&format!("server/{t}"));
                let rts: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
                let mut poa = group.attach(t, Some(rts));
                poa.activate_spmd(
                    OBJECT,
                    Arc::new(VecOp { served: AtomicU64::new(0) }),
                    policy.clone(),
                );
                drv.register_server_thread();
                ready_tx.send(()).expect("client waits for the server");
                poa.impl_is_ready();
                trace::flush_thread();
            });
        })
    };
    for _ in 0..RANKS {
        ready_rx.recv().expect("server ranks activate the object");
    }

    let clients = ClientGroup::create(&orb, client_host, RANKS);
    let outs: Vec<(f64, LaneOut)> = World::run(RANKS, |rank| {
        let t = rank.rank();
        trace::label_thread(&format!("client/{t}"));
        let rts: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
        let client = clients.attach(t, Some(rts.clone()));
        let bind_started = Instant::now();
        let proxy = client.spmd_bind(OBJECT).expect("collective bind to vecop");
        let bind_us = bind_started.elapsed().as_secs_f64() * 1e6;

        let mine: Vec<DSequence<f64>> = inputs
            .iter()
            .map(|x| DSequence::distribute(x, Distribution::Block, RANKS, t))
            .collect();
        let want: Vec<DSequence<f64>> = expected
            .iter()
            .map(|y| DSequence::distribute(y, Distribution::Block, RANKS, t))
            .collect();

        let mut lane = drv.lane(t);
        drive_pipelined(
            &mut lane,
            DEPTH,
            |issued| {
                if issued.is_multiple_of(MAX_SKEW) {
                    rts.barrier();
                }
            },
            |id| {
                proxy
                    .call("scale")
                    .dseq_in(&mine[id as usize % INPUTS])
                    .dseq_out(Distribution::Block)
                    .invoke_nb()
            },
            |id, reply| {
                reply.dseq::<f64>(0).is_ok_and(|y| y.local() == want[id as usize % INPUTS].local())
            },
        );
        trace::flush_thread();
        (bind_us, lane.finish())
    });
    let bind_us = outs[0].0;
    let lanes = outs.into_iter().map(|(_, lane)| lane).collect();

    group.shutdown();
    server.join().expect("server threads");
    close_out(bind_us, &net, orb.retransmits(), &drv, lanes)
}
