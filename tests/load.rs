//! Load & concurrency suite for the sharded, batching request core.
//!
//! Three guarantees, end to end over the simulated network:
//!
//! * **Cross-mode equivalence** — the same workload produces the same
//!   results with batching off, `adaptive`, and a fixed count, and
//!   batching strictly reduces the number of wire frames.
//! * **Concurrent correctness** — many client threads hammering one server
//!   through the sharded reply router all get their own answers back.
//! * **Chaos compatibility** — the at-most-once layer still holds with
//!   batching on over a lossy, duplicating link.
//!
//! Tests serialise on one mutex (retry backoffs race real time) and run
//! under the audit scope so `PARDIS_AUDIT=1 cargo test --test load` turns
//! the whole suite into a concurrency-audit gate.

use pardis::core::{BatchMode, ClientGroup, Orb, Servant, ServerGroup, ServerReply, ServerRequest};
use pardis::netsim::{FaultPlan, Link, LinkPreset, Network, TimeScale};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

/// Suite serialisation plus an audit scope: each test starts with a clean
/// concurrency auditor, and under `PARDIS_AUDIT=1` fails at teardown if its
/// workload produced any lock-order, race or hazard finding.
struct Serial(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

impl Drop for Serial {
    fn drop(&mut self) {
        if std::thread::panicking() {
            pardis::audit::reset();
        } else {
            pardis::audit::enforce_env();
        }
    }
}

fn serial() -> Serial {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    pardis::audit::reset();
    pardis::audit::env_requested();
    Serial(guard)
}

/// `bump(x) -> 2x` with an observable side effect, so at-most-once is
/// checkable under chaos and every reply is attributable to its request.
struct Bumper {
    hits: Arc<AtomicU64>,
}

impl Servant for Bumper {
    fn interface(&self) -> &str {
        "bumper"
    }
    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        self.hits.fetch_add(1, Ordering::SeqCst);
        let x: i64 = req.scalar(0).map_err(|e| e.to_string())?;
        let mut rep = ServerReply::new();
        rep.push_scalar(&(2 * x));
        Ok(rep)
    }
}

fn spawn_bumper(
    orb: &Orb,
    host: pardis::netsim::HostId,
    name: &str,
) -> (ServerGroup, std::thread::JoinHandle<()>, Arc<AtomicU64>) {
    let hits = Arc::new(AtomicU64::new(0));
    let group = ServerGroup::create(orb, "bump-server", host, 1);
    let g = group.clone();
    let h = hits.clone();
    let name = name.to_string();
    let server = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single(&name, Arc::new(Bumper { hits: h }));
        poa.impl_is_ready();
    });
    (group, server, hits)
}

/// Run `pipelines` waves of `depth` non-blocking invocations from one
/// client and harvest them all. Returns (results, frames, effect count).
fn pipelined_workload(mode: BatchMode, pipelines: usize, depth: usize) -> (Vec<i64>, u64, u64) {
    let net = Network::new(TimeScale::off());
    let ch = net.add_host("client");
    let sh = net.add_host("server");
    net.connect(ch, sh, LinkPreset::Ethernet10.link());
    let orb = Orb::new(net);
    orb.set_batch_mode(mode);

    let (group, server, hits) = spawn_bumper(&orb, sh, "bump_load");
    let client = ClientGroup::create(&orb, ch, 1).attach(0, None);
    let proxy = client.bind("bump_load").unwrap();

    let mut results = Vec::new();
    for wave in 0..pipelines {
        let handles: Vec<_> = (0..depth)
            .map(|i| proxy.call("bump").arg(&((wave * depth + i) as i64)).invoke_nb().unwrap())
            .collect();
        for h in handles {
            results.push(h.wait().unwrap().scalar::<i64>(0).unwrap());
        }
    }
    client.drain_pending();
    let (frames, _bytes) = orb.traffic();
    group.shutdown();
    server.join().unwrap();
    (results, frames, hits.load(Ordering::SeqCst))
}

/// The same pipelined workload under off / adaptive / fixed batching:
/// identical results and effects, strictly fewer frames when batching.
#[test]
fn cross_mode_outcomes_identical() {
    let _s = serial();
    let (pipelines, depth) = (6, 32);
    let calls = (pipelines * depth) as u64;
    let off = pipelined_workload(BatchMode::Off, pipelines, depth);
    let adaptive = pipelined_workload(BatchMode::Adaptive, pipelines, depth);
    let fixed = pipelined_workload(BatchMode::Fixed(8), pipelines, depth);

    assert_eq!(off.0, adaptive.0, "adaptive batching must not change results");
    assert_eq!(off.0, fixed.0, "fixed batching must not change results");
    assert_eq!(off.2, calls, "each invocation executes exactly once (off)");
    assert_eq!(adaptive.2, calls, "each invocation executes exactly once (adaptive)");
    assert_eq!(fixed.2, calls, "each invocation executes exactly once (fixed)");
    assert!(
        adaptive.1 < off.1,
        "adaptive batching must reduce wire frames ({} vs {})",
        adaptive.1,
        off.1
    );
    assert!(fixed.1 < off.1, "fixed batching must reduce wire frames ({} vs {})", fixed.1, off.1);
}

/// Many concurrent single-thread clients against one server with batching
/// on: the sharded router and the single-sender batch drains keep every
/// reply attributed to its own invocation.
#[test]
fn concurrent_clients_batched() {
    let _s = serial();
    let net = Network::new(TimeScale::off());
    let ch = net.add_host("clients");
    let sh = net.add_host("server");
    net.connect(ch, sh, LinkPreset::Ethernet10.link());
    let orb = Orb::new(net);
    orb.set_batch_mode(BatchMode::Adaptive);

    let (group, server, hits) = spawn_bumper(&orb, sh, "bump_many");
    let nclients = 8usize;
    let per_client = 40usize;
    let mut workers = Vec::new();
    for c in 0..nclients {
        let orb = orb.clone();
        workers.push(std::thread::spawn(move || {
            let client = ClientGroup::create(&orb, ch, 1).attach(0, None);
            let proxy = client.bind("bump_many").unwrap();
            let mut got = Vec::new();
            for i in 0..per_client {
                let x = (c * per_client + i) as i64;
                got.push((
                    x,
                    proxy.call("bump").arg(&x).invoke().unwrap().scalar::<i64>(0).unwrap(),
                ));
            }
            got
        }));
    }
    for w in workers {
        for (x, y) in w.join().unwrap() {
            assert_eq!(y, 2 * x, "reply routed to the wrong invocation");
        }
    }
    assert_eq!(hits.load(Ordering::SeqCst), (nclients * per_client) as u64);
    group.shutdown();
    server.join().unwrap();
}

/// Batching composed with the chaos layer: a lossy, duplicating link still
/// delivers exactly-once effects and correct replies with batching on.
#[test]
fn chaos_with_batching_keeps_at_most_once() {
    let _s = serial();
    let seed = 0x0B_A7C4_C405_u64;
    let net = Network::new(TimeScale::off());
    let ch = net.add_host("client");
    let sh = net.add_host("server");
    net.connect(ch, sh, Link::free());
    net.set_fault_plan(Some(FaultPlan::new(seed).with_drop(0.2).with_dup(0.05)));
    let orb = Orb::new(net);
    orb.set_batch_mode(BatchMode::Adaptive);
    orb.set_retry_limit(20);
    orb.set_retry_base(Duration::from_millis(100));
    orb.set_retry_seed(seed);

    let (group, server, hits) = spawn_bumper(&orb, sh, "bump_chaos");
    let client = ClientGroup::create(&orb, ch, 1).attach(0, None);
    let proxy = client.bind("bump_chaos").unwrap();

    let calls = 40i64;
    for i in 0..calls {
        let reply = proxy.call("bump").arg(&i).invoke().unwrap();
        assert_eq!(reply.scalar::<i64>(0).unwrap(), 2 * i);
    }
    // Let trailing duplicate copies drain before snapshotting: a duplicated
    // request may still be queued at the server after the last reply.
    std::thread::sleep(Duration::from_millis(50));
    client.drain_pending();
    let stats = orb.network().fault_stats();
    orb.network().set_fault_plan(None);
    assert!(stats.dropped > 0, "plan injected no drops: {stats:?}");
    assert_eq!(
        hits.load(Ordering::SeqCst),
        calls as u64,
        "at-most-once must hold with batching on"
    );
    group.shutdown();
    server.join().unwrap();
}
