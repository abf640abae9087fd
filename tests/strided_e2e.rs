//! End-to-end checks of strided transfer plans: whatever the two templates,
//! a distributed argument crosses the wire as at most one frame per
//! (client thread, server thread) pair per direction, for fixed- and
//! variable-width elements alike; the requests and replies ride in those
//! frames, and the in-fragments carry the acknowledgements that bound the
//! reply cache. The funneled strategy is the template `Concentrated(0)` on
//! both ends of the same path, so only thread 0 of each side moves data.

use pardis::cdr::CdrCodec;
use pardis::core::{
    ClientGroup, DSequence, DistPolicy, Distribution, InvocationHandle, Orb, Servant, ServerGroup,
    ServerReply, ServerRequest, TransferStrategy,
};
use pardis::netsim::{Link, Network, TimeScale};
use pardis::rts::{MpiRts, Rts, World};
use std::sync::Arc;

/// Applies `f` to every element of the in-argument and returns the result in
/// the server's own template.
struct MapEach<T>(fn(&T) -> T);

impl<T: CdrCodec + Clone + Send + Sync + 'static> Servant for MapEach<T> {
    fn interface(&self) -> &str {
        "mapeach"
    }

    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        let x: DSequence<T> = req.dseq(0).map_err(|e| e.to_string())?;
        let y: Vec<T> = x.local().iter().map(self.0).collect();
        let mut rep = ServerReply::new();
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

const INVOCATIONS: u64 = 3;

/// Run [`INVOCATIONS`] collective `map` calls of `full` from a
/// `pc`-thread client holding `client_dist` to a `ps`-thread server wanting
/// `server_dist`; check every reply against `f` and return the frames one
/// invocation put on the wire.
fn frames_per_invocation<T>(
    full: Vec<T>,
    f: fn(&T) -> T,
    (pc, client_dist): (usize, Distribution),
    (ps, server_dist): (usize, Distribution),
    strategy: TransferStrategy,
) -> u64
where
    T: CdrCodec + Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static,
{
    let net = Network::paper_atm_testbed(TimeScale::off());
    let client_host = net.host_by_name("HOST_1").unwrap();
    let server_host = net.host_by_name("HOST_2").unwrap();
    let orb = Orb::new(net);
    orb.set_transfer_strategy(strategy);

    let group = ServerGroup::create(&orb, "mapeach-server", server_host, ps);
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let server = {
        let group = group.clone();
        let policy = DistPolicy::new().with("map", 0, server_dist.clone());
        std::thread::spawn(move || {
            World::run(ps, |rank| {
                let t = rank.rank();
                let rts: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
                let mut poa = group.attach(t, Some(rts));
                poa.activate_spmd("mapeach", Arc::new(MapEach(f)), policy.clone());
                ready_tx.send(()).unwrap();
                poa.impl_is_ready();
            });
        })
    };
    for _ in 0..ps {
        ready_rx.recv().unwrap();
    }

    let expected: Vec<T> = full.iter().map(f).collect();
    let client = ClientGroup::create(&orb, client_host, pc);
    let before = orb.traffic().0;
    World::run(pc, |rank| {
        let t = rank.rank();
        let rts: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
        let ct = client.attach(t, Some(rts));
        let proxy = ct.spmd_bind("mapeach").unwrap();
        let mine = DSequence::distribute(&full, client_dist.clone(), pc, t);
        let want = DSequence::distribute(&expected, client_dist.clone(), pc, t);
        for _ in 0..INVOCATIONS {
            let reply =
                proxy.call("map").dseq_in(&mine).dseq_out(client_dist.clone()).invoke().unwrap();
            let got: DSequence<T> = reply.dseq(0).unwrap();
            assert_eq!(
                got.local(),
                want.local(),
                "{strategy:?} {client_dist:?}/{pc} <-> {server_dist:?}/{ps}, client thread {t}"
            );
        }
    });
    let frames = orb.traffic().0 - before;
    group.shutdown();
    server.join().unwrap();
    assert_eq!(frames % INVOCATIONS, 0, "every invocation costs the same frames");
    frames / INVOCATIONS
}

/// The client/server template pairs of the issue's checklist, valid for
/// `len` elements over `pc` client and `ps` server threads.
fn shapes(len: u64, pc: usize) -> Vec<(Distribution, Distribution)> {
    let mut uneven = vec![1u64; pc];
    uneven[pc - 1] = len - (pc as u64 - 1);
    vec![
        (Distribution::Block, Distribution::Cyclic),
        (Distribution::Cyclic, Distribution::Block),
        (Distribution::BlockCyclic(3), Distribution::BlockCyclic(5)),
        (Distribution::BlockCyclic(5), Distribution::BlockCyclic(3)),
        (Distribution::Irregular(uneven), Distribution::Cyclic),
    ]
}

fn check_all<T>(full: Vec<T>, f: fn(&T) -> T)
where
    T: CdrCodec + Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static,
{
    for (pc, ps) in [(2usize, 2usize), (3, 2)] {
        for (shape, (client_dist, server_dist)) in
            shapes(full.len() as u64, pc).into_iter().enumerate()
        {
            for strategy in [TransferStrategy::Parallel, TransferStrategy::Funneled] {
                let frames = frames_per_invocation(
                    full.clone(),
                    f,
                    (pc, client_dist.clone()),
                    (ps, server_dist.clone()),
                    strategy,
                );
                let what = format!("{strategy:?} {client_dist:?}/{pc} <-> {server_dist:?}/{ps}");
                let want = match strategy {
                    TransferStrategy::Parallel => PARALLEL_FRAMES[usize::from(pc == 3)][shape],
                    TransferStrategy::Funneled => (pc + ps) as u64,
                };
                assert_eq!(frames, want, "{what}");
            }
        }
    }
}

/// Frames per parallel invocation of each [`shapes`] entry, for the 2x2 and
/// the 3x2 sweep: a request per server thread, a reply per client thread and
/// one frame per thread pair with elements to move, each way (every pair has
/// some, except those touching the one-element shares of `Irregular`), less
/// one frame for each server thread client thread 0 owes elements (its
/// request rides there) and for each client thread server thread 0 owes
/// elements (its reply rides there). 2x2: 4 + 8 - 4, and 4 + 6 - 3 for
/// `Irregular`; 3x2: 5 + 12 - 5, and 5 + 8 - 3.
///
/// A funneled invocation costs `pc + ps` frames whatever the shape, the same
/// as a scalar-only call: the one pair that moves data, thread 0 to thread
/// 0, carries the request one way and the reply the other.
const PARALLEL_FRAMES: [[u64; 5]; 2] = [[8, 8, 8, 8, 7], [12, 12, 12, 12, 10]];

#[test]
fn f64_elements_cost_one_frame_per_thread_pair() {
    let full: Vec<f64> = (0..211).map(|i| (i as f64 - 7.5) * 0.25).collect();
    check_all(full, |v| 2.0 * v + 1.0);
}

#[test]
fn string_elements_cost_one_frame_per_thread_pair() {
    let full: Vec<String> = (0..53).map(|i| format!("elem-{i}-{}", "x".repeat(i % 7))).collect();
    check_all(full, |s| format!("<{s}>"));
}

/// The count the benchmark's `dseq_cyclic` workload pays: 4 096 doubles,
/// Block on a 2-thread client, Cyclic on a 2-thread server — 8 frames, not
/// 8 158.
#[test]
fn block_to_cyclic_4096_is_eight_frames() {
    let full: Vec<f64> = (0..4096).map(|i| i as f64).collect();
    let frames = frames_per_invocation(
        full,
        |v| 2.0 * v + 1.0,
        (2, Distribution::Block),
        (2, Distribution::Cyclic),
        TransferStrategy::Parallel,
    );
    assert_eq!(
        frames, 8,
        "4 in-fragments (2 carrying the requests) + 4 out-fragments (2 carrying the replies)"
    );
}

/// Block to Block over 2x2 moves one run per direction between threads of
/// equal index: the lead's request rides to server thread 0 only, and server
/// thread 0's reply to client thread 0 only.
#[test]
fn block_to_block_2x2_is_six_frames() {
    let full: Vec<f64> = (0..4096).map(|i| i as f64).collect();
    let frames = frames_per_invocation(
        full,
        |v| 2.0 * v + 1.0,
        (2, Distribution::Block),
        (2, Distribution::Block),
        TransferStrategy::Parallel,
    );
    assert_eq!(frames, 6, "2 in-fragments, 2 out-fragments, 1 lone request, 1 lone reply");
}

/// Returns twice its scalar argument.
struct Twice;

impl Servant for Twice {
    fn interface(&self) -> &str {
        "twice"
    }

    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        let x: i64 = req.scalar(0).map_err(|e| e.to_string())?;
        let mut rep = ServerReply::new();
        rep.push_scalar(&(2 * x));
        Ok(rep)
    }
}

/// Without a distributed argument nothing rides: a scalar-only SPMD call
/// costs one request per server thread and one reply per client thread.
#[test]
fn scalar_only_spmd_call_is_one_frame_per_control() {
    for (pc, ps) in [(1usize, 1usize), (2, 2)] {
        let net = Network::paper_atm_testbed(TimeScale::off());
        let client_host = net.host_by_name("HOST_1").unwrap();
        let server_host = net.host_by_name("HOST_2").unwrap();
        let orb = Orb::new(net);
        let group = ServerGroup::create(&orb, "twice-server", server_host, ps);
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let server = {
            let group = group.clone();
            std::thread::spawn(move || {
                World::run(ps, |rank| {
                    let t = rank.rank();
                    let rts: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
                    let mut poa = group.attach(t, Some(rts));
                    poa.activate_spmd("twice", Arc::new(Twice), DistPolicy::new());
                    ready_tx.send(()).unwrap();
                    poa.impl_is_ready();
                });
            })
        };
        for _ in 0..ps {
            ready_rx.recv().unwrap();
        }
        let client = ClientGroup::create(&orb, client_host, pc);
        let before = orb.traffic().0;
        World::run(pc, |rank| {
            let t = rank.rank();
            let rts: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
            let ct = client.attach(t, Some(rts));
            let proxy = ct.spmd_bind("twice").unwrap();
            for x in 0..INVOCATIONS as i64 {
                let reply = proxy.call("twice").arg(&x).invoke().unwrap();
                assert_eq!(reply.scalar::<i64>(0).unwrap(), 2 * x);
            }
        });
        let frames = orb.traffic().0 - before;
        group.shutdown();
        server.join().unwrap();
        assert_eq!(frames, INVOCATIONS * (pc + ps) as u64, "{pc}x{ps}");
    }
}

/// The reply cache follows the client's pipeline, not its history: each
/// client thread acknowledges in its in-fragments how far it has completed,
/// so over 2 000 invocations kept 4 deep, each of 256 KiB replies per server
/// thread, the cache holds at most 8 replies per adapter thread at any
/// completion (without acknowledgements it holds 16 MiB, 64 of them).
#[test]
fn reply_cache_follows_the_pipeline_not_the_history() {
    const LEN: usize = 65_536;
    const CALLS: u64 = 2_000;
    const DEPTH: u64 = 4;
    let bound = 2 * 8 * (LEN / 2 * 8 + 512);

    let net = Network::new(TimeScale::off());
    let client_host = net.add_host("client");
    let server_host = net.add_host("server");
    net.connect(client_host, server_host, Link::free());
    let orb = Orb::new(net);
    let group = ServerGroup::create(&orb, "mapeach-server", server_host, 2);
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let server = {
        let group = group.clone();
        std::thread::spawn(move || {
            World::run(2, |rank| {
                let t = rank.rank();
                let rts: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
                let mut poa = group.attach(t, Some(rts));
                let servant = MapEach::<f64>(|v| 2.0 * v + 1.0);
                poa.activate_spmd("mapeach", Arc::new(servant), DistPolicy::new());
                ready_tx.send(()).unwrap();
                poa.impl_is_ready();
            });
        })
    };
    for _ in 0..2 {
        ready_rx.recv().unwrap();
    }

    let full: Vec<f64> = (0..LEN).map(|i| i as f64).collect();
    let expected: Vec<f64> = full.iter().map(|v| 2.0 * v + 1.0).collect();
    let client = ClientGroup::create(&orb, client_host, 2);
    let peaks = World::run(2, |rank| {
        let t = rank.rank();
        let rts: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
        let ct = client.attach(t, Some(rts));
        let proxy = ct.spmd_bind("mapeach").unwrap();
        let x = DSequence::distribute(&full, Distribution::Block, 2, t);
        let want = DSequence::distribute(&expected, Distribution::Block, 2, t);
        let mut inflight = std::collections::VecDeque::<InvocationHandle>::new();
        let mut peak = 0;
        for i in 0..CALLS + DEPTH {
            if i >= DEPTH {
                let reply = inflight.pop_front().unwrap().wait().unwrap();
                let y: DSequence<f64> = reply.dseq(0).unwrap();
                assert!(y.local() == want.local(), "client thread {t}, invocation {}", i - DEPTH);
                peak = peak.max(orb.reply_cache_bytes() as usize);
            }
            if i < CALLS {
                let call = proxy.call("map").dseq_in(&x).dseq_out(Distribution::Block);
                inflight.push_back(call.invoke_nb().unwrap());
            }
        }
        peak
    });
    group.shutdown();
    server.join().unwrap();
    for (t, peak) in peaks.into_iter().enumerate() {
        assert!(peak <= bound, "{peak} bytes cached at a completion on client thread {t}");
    }
}
