//! Load & concurrency sweep — the request core under 1 → 10k synthetic
//! clients.
//!
//! Each synthetic client is an independent binding with its own pipeline of
//! non-blocking invocations; clients are multiplexed over a small pool of
//! OS worker threads (each with its own client endpoint, pump, and
//! communication thread) against one single-threaded server over the
//! Ethernet10 netsim link. Per concurrency level the harness reports wall
//! and virtual-clock request throughput plus wall p50/p99 invocation
//! latency of the default core (one reply router per client thread, its
//! orphan stash and done set capped at 16 384 keys each, every frame sent
//! as it is made), under the `sharded_*` series names, which the committed
//! `results/BENCH_load.json` and its CI gate compare.
//!
//! Every frame holds the shared Ethernet segment for its software overhead
//! and its bytes, so `sharded_virt_rps` is the same at every client count.
//!
//! ```text
//! cargo run --release -p pardis-bench --bin fig_load
//! PARDIS_QUICK=1 ...                  (smoke sweep: 1/32/256 clients)
//! ... -- --compare results/BENCH_load.json   (regression gate)
//! ```

use pardis::core::{ClientGroup, Orb, Servant, ServerGroup, ServerReply, ServerRequest};
use pardis::netsim::{LinkPreset, Network, TimeScale};
use pardis_bench::util::{quick, row, BenchJson};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// OS worker threads multiplexing the synthetic clients.
const WORKERS: usize = 8;
/// Non-blocking pipeline depth per synthetic client.
const DEPTH: usize = 4;

struct Load;

impl Servant for Load {
    fn interface(&self) -> &str {
        "load"
    }
    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        let x: i64 = req.scalar(0).map_err(|e| e.to_string())?;
        let mut rep = ServerReply::new();
        rep.push_scalar(&(2 * x));
        Ok(rep)
    }
}

struct LevelOut {
    rps: f64,
    virt_rps: f64,
    p50_us: f64,
    p99_us: f64,
    frames: u64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One level's measurement.
fn run_level(clients: usize) -> LevelOut {
    let net = Network::new(TimeScale::off());
    let ch = net.add_host("clients");
    let sh = net.add_host("server");
    net.connect(ch, sh, LinkPreset::Ethernet10.link());
    let orb = Orb::new(net);

    let group = ServerGroup::create(&orb, "load-server", sh, 1);
    let g = group.clone();
    let server = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single("load", Arc::new(Load));
        poa.impl_is_ready();
    });

    let total_reqs = (clients * 2).clamp(2048, 20_000);
    let workers = WORKERS.min(clients);
    let wall_start = Instant::now();
    let mut joins = Vec::new();
    for w in 0..workers {
        let orb = orb.clone();
        // Split clients and requests as evenly as integer division allows.
        let cpw = clients / workers + usize::from(w < clients % workers);
        let reqs = total_reqs / workers + usize::from(w < total_reqs % workers);
        joins.push(std::thread::spawn(move || {
            let thread = ClientGroup::create(&orb, ch, 1).attach(0, None);
            let comm = thread.start_comm_thread();
            let proxies: Vec<_> =
                (0..cpw).map(|_| thread.bind("load").expect("bind load")).collect();
            let mut queues: Vec<VecDeque<(i64, Instant, pardis::core::InvocationHandle)>> =
                (0..cpw).map(|_| VecDeque::with_capacity(DEPTH)).collect();
            let mut lat_us: Vec<f64> = Vec::with_capacity(reqs);
            let mut issued = 0usize;
            loop {
                let mut open = false;
                for (q, proxy) in queues.iter_mut().zip(&proxies) {
                    while q.len() < DEPTH && issued < reqs {
                        let x = issued as i64;
                        let h = proxy.call("bump").arg(&x).invoke_nb().expect("launch");
                        q.push_back((x, Instant::now(), h));
                        issued += 1;
                    }
                    if let Some((x, t0, h)) = q.pop_front() {
                        let reply = h.wait().expect("invocation");
                        let y: i64 = reply.scalar(0).expect("scalar out");
                        assert_eq!(y, 2 * x, "reply routed to the wrong invocation");
                        lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                    open |= !q.is_empty();
                }
                if issued >= reqs && !open {
                    break;
                }
            }
            comm.stop();
            lat_us
        }));
    }
    let mut lat_us: Vec<f64> = Vec::with_capacity(total_reqs);
    for j in joins {
        lat_us.extend(j.join().expect("worker"));
    }
    let wall = wall_start.elapsed().as_secs_f64();
    orb.network().quiesce();
    let virt = orb.network().clock().now();
    let (frames, _bytes) = orb.traffic();
    group.shutdown();
    server.join().expect("server");

    assert_eq!(lat_us.len(), total_reqs, "every request must complete");
    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    LevelOut {
        rps: total_reqs as f64 / wall,
        virt_rps: if virt > 0.0 { total_reqs as f64 / virt } else { f64::NAN },
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
        frames,
    }
}

fn main() {
    let levels: Vec<usize> =
        if quick() { vec![1, 32, 256] } else { vec![1, 32, 256, 1000, 10_000] };

    let mut json = BenchJson::new("load", "Request throughput and latency vs client count");
    json.param_usize("workers", WORKERS);
    json.param_usize("pipeline_depth", DEPTH);
    json.columns(&levels.iter().map(|&l| l as f64).collect::<Vec<_>>());

    println!("fig_load: {} clients sweep", levels.len());
    println!("{}", row("clients", &levels.iter().map(|&l| l as f64).collect::<Vec<_>>()));
    let outs: Vec<LevelOut> = levels.iter().map(|&l| run_level(l)).collect();
    let series = |f: fn(&LevelOut) -> f64| outs.iter().map(f).collect::<Vec<f64>>();
    for (name, values) in [
        ("sharded_rps", series(|o| o.rps)),
        ("sharded_virt_rps", series(|o| o.virt_rps)),
        ("sharded_p50_us", series(|o| o.p50_us)),
        ("sharded_p99_us", series(|o| o.p99_us)),
    ] {
        println!("{}", row(name, &values));
        json.series(name, &values);
    }
    println!("{}", row("sharded_frames", &series(|o| o.frames as f64)));

    match json.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("write failed: {e}"),
    }
    json.gate_from_args();
}
