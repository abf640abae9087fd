//! Figure 4 — "centralized and distributed single objects on a parallel
//! server": execution time of a fixed batch of list-server queries while
//! the SPMD search runs, as a function of the server's processor count,
//! under the two placement schemes; plus the difference between the
//! schemes (the right-hand panel).
//!
//! The total single-object query *work* is the same for every point —
//! the paper's "total time spent in single object queries for both cases
//! was the same (30 seconds)", scaled down. The centralized scheme funnels
//! all of it through computing thread 0; the distributed scheme deals the
//! five objects round-robin, balancing by count not weight, which is why
//! the paper sees the 2→3 processor dip.
//!
//! ```text
//! cargo run --release -p pardis-bench --bin fig4_dna
//! ```

use pardis::core::{
    ClientGroup, Orb, Servant, ServerGroup, ServerReply, ServerRequest, DEFAULT_REPOSITORY,
};
use pardis::generated::dna::{DnaDbProxy, ListServerProxy};
use pardis::netsim::{Link, LinkPreset, Network, TimeScale};
use pardis::registry::{BindingPolicy, GroupProxy, RegistryClient, RegistryServer};
use pardis_apps::dna::{spawn_dna_server, DnaServerConfig, Placement, LIST_NAMES};
use pardis_bench::util::{env_usize, quick, row, BenchJson};
use std::sync::Arc;
use std::time::Instant;

/// Per-list modelled query cost in microseconds: unequal, as in the paper
/// ("different list servers take different time to process the queries").
/// The ordering is chosen so round-robin placement — which balances "by
/// numbers, not by weight" — misplaces the heavy lists when going from 2 to
/// 3 processors, reproducing the paper's dip in the difference curve.
const WEIGHTS: [u64; 5] = [24_000, 3_000, 3_000, 12_000, 6_000];

fn run_once(p: usize, placement: Placement, rounds: usize) -> f64 {
    // The paper's first testbed: the client on HOST_1, the parallel server
    // on HOST_2, over the dedicated ATM link (so invocations really cross
    // the wire; collocated calls would otherwise bypass the transport).
    let net = Network::paper_atm_testbed(TimeScale::off());
    let client_host = net.host_by_name("HOST_1").unwrap();
    let host = net.host_by_name("HOST_2").unwrap();
    let orb = Orb::new(net);
    let trace = pardis::core::trace_from_env(&orb);
    let cfg = DnaServerConfig {
        nthreads: p,
        db_size: 4_000, // fixed database: the search itself scales with P
        len_range: (40, 60),
        seed: 42,
        placement,
        chunk: 8,
        weights: WEIGHTS,
        scan_cost_us: 400, // the paper's heavier per-sequence analysis
    };
    let server = spawn_dna_server(&orb, host, cfg);

    let client = ClientGroup::create(&orb, client_host, 1).attach(0, None);
    let db = DnaDbProxy::spmd_bind(&client, "dna_db").expect("bind dna_db");
    let lists: Vec<ListServerProxy> =
        LIST_NAMES.iter().map(|n| ListServerProxy::bind(&client, n).expect("bind list")).collect();

    let start = Instant::now();
    let search = db.search_nb(&"ACGTA".to_string()).expect("search_nb");
    // A fixed batch of query work, issued concurrently across the five
    // lists each round.
    for round in 0..rounds {
        let sub = ["GAT", "TTA", "CGC"][round % 3].to_string();
        let pending: Vec<_> = lists.iter().map(|l| l.match_nb(&sub).expect("match_nb")).collect();
        for fut in pending {
            let _ = fut.l.get().expect("query result");
        }
    }
    let _ = search.ret.get().expect("search completes");
    let elapsed = start.elapsed().as_secs_f64();
    server.shutdown();
    if let Some(session) = trace {
        match pardis::core::finish_env_trace(session) {
            Ok(path) => eprintln!("  trace written to {}", path.display()),
            Err(e) => eprintln!("  trace write failed: {e}"),
        }
    }
    elapsed
}

/// Aggregate transfer bandwidth over `streams` concurrent fragment streams,
/// at the netsim level: one client host per stream, each bursting frames at
/// the same server. On dedicated per-pair ATM links every stream owns its
/// wire, so the overlapped engine's aggregate bandwidth scales with the
/// stream count; on shared 10 Mb/s Ethernet there is one segment and the
/// curve stays flat. Pure virtual time (`TimeScale::off`), so the numbers
/// are bit-stable run to run — Mbit/s = total bits / makespan.
fn aggregate_bandwidth_mbps(streams: usize, shared: bool) -> f64 {
    const FRAMES: usize = 16;
    const BYTES: usize = 64 * 1024;
    let net = Network::new(TimeScale::off());
    let server = net.add_host("server");
    let link = if shared { LinkPreset::Ethernet10.link() } else { LinkPreset::AtmOc3.link() };
    let clients: Vec<_> = (0..streams)
        .map(|i| {
            let h = net.add_host(&format!("client_{i}"));
            net.connect(h, server, link);
            h
        })
        .collect();
    for _ in 0..FRAMES {
        for &c in &clients {
            net.transmit(c, server, BYTES, || {});
        }
    }
    net.quiesce();
    (FRAMES * streams * BYTES * 8) as f64 / net.makespan() / 1e6
}

/// Per-replica work weight (virtual units per query) in a replicated
/// list-server fleet: deliberately unequal, echoing the figure's unequal
/// list weights, so balancing by count and balancing by reported load
/// separate.
const FLEET_WEIGHTS: [u64; 4] = [7, 1, 3, 5];

/// A fleet worker that identifies itself: `serve()` returns the replica
/// index, which is all the client needs to do the load bookkeeping.
struct FleetWorker {
    idx: u64,
}

impl Servant for FleetWorker {
    fn interface(&self) -> &str {
        "fleet_worker"
    }
    fn dispatch(&self, _req: ServerRequest<'_>) -> Result<ServerReply, String> {
        let mut rep = ServerReply::new();
        rep.push_scalar(&self.idx);
        Ok(rep)
    }
}

/// The registry-balanced fleet: `replicas` workers on their own hosts
/// register under one group, and the client issues `queries` invocations
/// through a [`GroupProxy`], heartbeating each replica's accumulated
/// weighted load back to the registry after every call. Returns the
/// heaviest per-replica accumulated load — the imbalance the binding policy
/// leaves behind. Pure virtual bookkeeping on free links: the numbers are
/// bit-stable run to run, so the series gates at the plain tolerance.
fn fleet_max_load(replicas: usize, queries: usize, policy: BindingPolicy) -> f64 {
    let net = Network::new(TimeScale::off());
    let ch = net.add_host("client");
    let hreg = net.add_host("registry");
    net.connect(ch, hreg, Link::free());
    let hosts: Vec<_> = (0..replicas)
        .map(|i| {
            let h = net.add_host(&format!("w{i}"));
            net.connect(ch, h, Link::free());
            h
        })
        .collect();
    let orb = Orb::new(net);
    let client = ClientGroup::create(&orb, ch, 1).attach(0, None);
    let registry = RegistryServer::spawn(&orb, hreg, "fleet-registry");
    orb.resolve(DEFAULT_REPOSITORY, "fleet-registry").expect("registry activates");

    let mut workers = Vec::new();
    for (i, &host) in hosts.iter().enumerate() {
        let group = ServerGroup::create(&orb, &format!("w{i}-server"), host, 1);
        let g = group.clone();
        let name = format!("fleet-w{i}");
        let n = name.clone();
        let thread = std::thread::spawn(move || {
            let mut poa = g.attach(0, None);
            poa.activate_single(&n, Arc::new(FleetWorker { idx: i as u64 }));
            poa.impl_is_ready();
        });
        let oref = orb.resolve(DEFAULT_REPOSITORY, &name).expect("worker activates");
        workers.push((group, thread, oref));
    }

    let admin = RegistryClient::bind(&client, "fleet-registry").expect("bind registry");
    for (i, (_, _, oref)) in workers.iter().enumerate() {
        admin.register_default("fleet", &format!("w{i}"), oref).expect("register worker");
    }

    let group = GroupProxy::bind(&client, "fleet-registry", "fleet", policy).expect("bind group");
    let mut loads = vec![0u64; replicas];
    for _ in 0..queries {
        let idx: u64 =
            group.call("serve").invoke().expect("serve").scalar(0).expect("worker index");
        let idx = idx as usize;
        loads[idx] += FLEET_WEIGHTS[idx % FLEET_WEIGHTS.len()];
        admin.heartbeat("fleet", &format!("w{idx}"), loads[idx]).expect("heartbeat");
    }

    registry.shutdown();
    for (group, thread, _) in workers {
        group.shutdown();
        thread.join().expect("worker thread");
    }
    *loads.iter().max().expect("at least one replica") as f64
}

fn main() {
    let rounds = env_usize("PARDIS_ROUNDS", if quick() { 4 } else { 24 });
    let procs: Vec<usize> = if quick() { vec![1, 2, 3] } else { (1..=8).collect() };
    println!("# Figure 4 — centralized vs distributed single objects on a parallel server");
    println!("# {rounds} rounds of queries over 5 list servers (weights {WEIGHTS:?})");
    println!("{}", row("processors", &procs.iter().map(|p| *p as f64).collect::<Vec<_>>()));

    let mut central = Vec::new();
    let mut distributed = Vec::new();
    for &p in &procs {
        central.push(run_once(p, Placement::Centralized, rounds));
        distributed.push(run_once(p, Placement::Distributed, rounds));
        eprintln!("  done P = {p}");
    }
    let difference: Vec<f64> = central.iter().zip(&distributed).map(|(c, d)| c - d).collect();

    // Aggregate bandwidth vs. concurrent streams, on the same processor
    // axis: the overlapped engine's scaling signature (and the shared
    // segment's lack of one).
    let agg_dedicated: Vec<f64> =
        procs.iter().map(|&s| aggregate_bandwidth_mbps(s, false)).collect();
    let agg_shared: Vec<f64> = procs.iter().map(|&s| aggregate_bandwidth_mbps(s, true)).collect();

    // The registry-balanced fleet on the same axis: max per-replica weighted
    // load after a fixed query batch, round-robin (balances by count, like
    // the figure's distributed placement) vs least-loaded (balances by the
    // heartbeat-reported weight).
    let fleet_queries = rounds * 5;
    let fleet_rr: Vec<f64> = procs
        .iter()
        .map(|&p| fleet_max_load(p, fleet_queries, BindingPolicy::RoundRobin))
        .collect();
    let fleet_ll: Vec<f64> = procs
        .iter()
        .map(|&p| fleet_max_load(p, fleet_queries, BindingPolicy::LeastLoaded))
        .collect();

    println!("{}", row("centralized", &central));
    println!("{}", row("distributed", &distributed));
    println!("{}", row("difference", &difference));
    println!("{}", row("agg bw ded (Mb/s)", &agg_dedicated));
    println!("{}", row("agg bw shared (Mb/s)", &agg_shared));
    println!("{}", row("fleet RR max load", &fleet_rr));
    println!("{}", row("fleet LL max load", &fleet_ll));

    let mut report =
        BenchJson::new("fig4", "centralized vs distributed single objects on a parallel server");
    report.param_usize("rounds", rounds);
    report.param_bool("protocol_check", pardis::check::env_requested());
    report.columns(&procs.iter().map(|p| *p as f64).collect::<Vec<_>>());
    report.series("centralized", &central);
    report.series("distributed", &distributed);
    report.series("difference", &difference);
    report.series("agg_bw_dedicated_mbps", &agg_dedicated);
    report.series("agg_bw_shared_mbps", &agg_shared);
    report.series("fleet_rr_max_load", &fleet_rr);
    report.series("fleet_ll_max_load", &fleet_ll);
    match report.write() {
        Ok(path) => eprintln!("  wrote {}", path.display()),
        Err(e) => eprintln!("  JSON write failed: {e}"),
    }
    report.gate_from_args();

    println!("#");
    println!("# expected shape (paper, fig 4): distributed below centralized for P >= 2;");
    println!("# the difference dips where count-based balancing misplaces the heavy lists");
    println!("# (the paper's 2 -> 3 processor note).");
}
