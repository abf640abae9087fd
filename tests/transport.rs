//! One engine, end to end: a blocking send is an engine send that waits for
//! its own arrival. On a serial workload the clock is the sum of the
//! transfers whether senders block or not (causality chains make the
//! makespan equal the sum), and on concurrent ones it is the makespan, well
//! under the sum (independent transfer chains overlap instead of summing).
//!
//! Each test resets the process-wide concurrency auditor on entry, so the
//! whole binary serialises on a mutex.

use pardis::core::{ClientGroup, Orb, Servant, ServerGroup, ServerReply, ServerRequest};
use pardis::netsim::{FaultPlan, Link, LinkPreset, Network, TimeScale};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

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

/// Every frame's wire occupancy: the sum of the per-lane busy times.
fn busy_sum(net: &Network) -> f64 {
    let lanes = net.per_link_usage().into_iter().map(|(_, u)| u.busy_s).sum::<f64>();
    lanes + net.shared_segment_usage().map_or(0.0, |u| u.busy_s)
}

/// A network whose senders block or overlap.
fn network(blocking: bool) -> Network {
    let net = Network::new(TimeScale::off());
    if blocking {
        net.blocking()
    } else {
        net
    }
}

/// One client host, one server host, `calls` blocking invocations. Returns
/// (results, virtual clock reading, Σ per-lane busy time, frames, bytes).
fn serial_workload(blocking: bool, calls: i64) -> (Vec<i64>, f64, f64, u64, u64) {
    let net = network(blocking);
    let ch = net.add_host("client");
    let sh = net.add_host("server");
    net.connect(ch, sh, LinkPreset::AtmOc3.link());
    let orb = Orb::new(net);

    let hits = Arc::new(AtomicU64::new(0));
    let group = ServerGroup::create(&orb, "counter", sh, 1);
    let client = ClientGroup::create(&orb, ch, 1).attach(0, None);
    let g = group.clone();
    let h = hits.clone();
    let server = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single("bump_tp", Arc::new(Bumper { hits: h }));
        poa.impl_is_ready();
    });
    let proxy = client.bind("bump_tp").unwrap();
    let mut results = Vec::new();
    for i in 0..calls {
        let reply = proxy.call("bump").arg(&i).invoke().unwrap();
        results.push(reply.scalar::<i64>(0).unwrap());
    }
    let clock = orb.network().clock().now();
    let busy = busy_sum(orb.network());
    let (frames, bytes) = orb.traffic();
    group.shutdown();
    server.join().unwrap();
    (results, clock, busy, frames, bytes)
}

#[test]
fn serial_workload_clock_is_the_sum_of_transfers() {
    let _guard = serial();
    let (r_eng, clock_eng, busy_eng, frames_eng, bytes_eng) = serial_workload(false, 24);
    let (r_blk, clock_blk, busy_blk, frames_blk, bytes_blk) = serial_workload(true, 24);
    assert_eq!(r_eng, r_blk);
    assert_eq!((frames_eng, bytes_eng), (frames_blk, bytes_blk));
    // A client of blocking invocations chains every transfer: request
    // arrival gates the reply, the reply gates the next request. The
    // engine's makespan therefore is the sum of the transfers, and a
    // blocking sender — the engine plus a wait — reads the same clock.
    assert!(clock_eng > 0.0);
    assert!(
        (clock_eng - busy_eng).abs() < 1e-9,
        "serial: engine makespan {clock_eng} vs sum of transfers {busy_eng}"
    );
    assert!(
        (clock_blk - clock_eng).abs() < 1e-9 && (busy_blk - busy_eng).abs() < 1e-9,
        "serial: blocking clock {clock_blk} vs engine makespan {clock_eng}"
    );
}

/// `clients` hosts invoke concurrently against one server over dedicated
/// per-pair links, in lockstep: a barrier starts every call round, so no
/// client gets a round ahead. The modelled makespan then does not depend on
/// the real-time order in which the one server thread serves the clients:
/// a client running rounds ahead pulls the server host's clock forward, and
/// the replies owed to the clients behind it leave that much later. Returns
/// the network's virtual clock reading and the sum of every frame's
/// transfer time.
fn concurrent_workload(blocking: bool, clients: usize, calls: i64) -> (f64, f64) {
    let net = network(blocking);
    let sh = net.add_host("server");
    let hosts: Vec<_> = (0..clients).map(|c| net.add_host(&format!("client{c}"))).collect();
    // Latency-dominated dedicated links: the engine can pipeline them.
    for &h in &hosts {
        net.connect(h, sh, Link::new(0.010, 1.0e9, 0.0001));
    }
    let orb = Orb::new(net);

    let hits = Arc::new(AtomicU64::new(0));
    let group = ServerGroup::create(&orb, "counter", sh, 1);
    let g = group.clone();
    let h = hits.clone();
    let server = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single("bump_cc", Arc::new(Bumper { hits: h }));
        poa.impl_is_ready();
    });
    let rounds = Arc::new(Barrier::new(clients));
    let workers: Vec<_> = hosts
        .into_iter()
        .map(|host| {
            let orb = orb.clone();
            let rounds = rounds.clone();
            std::thread::spawn(move || {
                let client = ClientGroup::create(&orb, host, 1).attach(0, None);
                let proxy = client.bind("bump_cc").map_err(|e| e.to_string());
                // Every client meets every round, even after a failed call,
                // so a failure is reported at the join instead of hanging
                // the others at the barrier.
                (0..calls)
                    .map(|i| {
                        rounds.wait();
                        let proxy = proxy.as_ref().map_err(String::clone)?;
                        let reply =
                            proxy.call("bump").arg(&i).invoke().map_err(|e| e.to_string())?;
                        reply.scalar::<i64>(0).map_err(|e| e.to_string())
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for w in workers {
        let replies = w.join().unwrap();
        let want: Vec<_> = (0..calls).map(|i| Ok(2 * i)).collect();
        assert_eq!(replies, want);
    }
    let clock = orb.network().clock().now();
    let busy = busy_sum(orb.network());
    assert_eq!(hits.load(Ordering::SeqCst), clients as u64 * calls as u64);
    group.shutdown();
    server.join().unwrap();
    (clock, busy)
}

#[test]
fn concurrent_clients_overlap_under_the_engine() {
    let _guard = serial();
    let clients = 4;
    let calls = 8;
    // The clock is the makespan: each client pays only its own causal chain
    // (plus scheduling noise from the shared server endpoint), not the sum
    // of every client's transfers.
    let (clock, sum) = concurrent_workload(false, clients, calls);
    assert!(clock < 0.75 * sum, "engine makespan {clock} should be well under the sum {sum}");
    // But it can never beat a single client's own causal chain.
    assert!(clock > sum / (clients as f64) - 1e-9, "makespan {clock} below a single chain");
    // Blocking senders read the makespan too. The server's replies now wait
    // for each other on its own timeline, so the clock climbs towards the
    // sum — but the clients' requests still overlap, so it stays below it.
    let (clock, sum) = concurrent_workload(true, clients, calls);
    assert!(clock < sum, "blocking makespan {clock} should stay under the sum {sum}");
    assert!(clock > sum / (clients as f64) - 1e-9, "makespan {clock} below a single chain");
}

#[test]
fn blocking_and_overlapping_senders_feed_the_same_lanes() {
    let _guard = serial();
    for blocking in [false, true] {
        let (_, _, _, frames, _) = serial_workload(blocking, 4);
        assert!(frames > 0);

        let net = network(blocking);
        let a = net.add_host("a");
        let b = net.add_host("b");
        net.connect(a, b, LinkPreset::AtmOc3.link());
        net.transmit(a, b, 1024, || {});
        let usage = net.per_link_usage();
        assert_eq!(usage.len(), 1, "blocking {blocking}");
        assert_eq!(usage[0].1.frames, 1);
        assert_eq!(usage[0].1.bytes, 1024);
    }
}

/// An ORB over a blocking network delivers every frame through the same
/// `Network::transmit` path as the engine: with every frame duplicated,
/// each call still executes once and answers correctly, the duplicates are
/// counted, and the lane carries every copy.
#[test]
fn blocking_orb_delivers_duplicates_through_transmit() {
    let _guard = serial();
    let net = network(true);
    let ch = net.add_host("client");
    let sh = net.add_host("server");
    net.connect(ch, sh, LinkPreset::AtmOc3.link());
    net.set_fault_plan(Some(FaultPlan::new(7).with_dup(1.0)));
    let orb = Orb::new(net);

    let hits = Arc::new(AtomicU64::new(0));
    let group = ServerGroup::create(&orb, "counter", sh, 1);
    let g = group.clone();
    let h = hits.clone();
    let server = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single("bump_blk", Arc::new(Bumper { hits: h }));
        poa.impl_is_ready();
    });
    let client = ClientGroup::create(&orb, ch, 1).attach(0, None);
    let proxy = client.bind("bump_blk").unwrap();
    let calls = 6;
    for i in 0..calls {
        let reply = proxy.call("bump").arg(&i).invoke().unwrap();
        assert_eq!(reply.scalar::<i64>(0).unwrap(), 2 * i);
    }
    assert_eq!(hits.load(Ordering::SeqCst), calls as u64, "duplicates never re-execute");
    let stats = orb.network().fault_stats();
    assert!(stats.duplicated >= 2 * calls as u64, "request and reply both doubled: {stats:?}");
    assert_eq!(stats.dropped, 0);
    let carried: u64 = orb.network().per_link_usage().iter().map(|(_, u)| u.frames).sum();
    assert!(carried >= 2 * stats.duplicated, "every copy holds a lane slot: {carried}");
    assert!(orb.network().clock().now() > 0.0);
    group.shutdown();
    server.join().unwrap();
}

#[test]
fn an_unbounded_timeout_binds_and_calls() {
    // `Duration::MAX` is past what `Instant` can add: the bind's and the
    // call's deadlines are then no deadline, not an overflow panic.
    let _guard = serial();
    let net = network(false);
    let ch = net.add_host("client");
    let sh = net.add_host("server");
    net.connect(ch, sh, LinkPreset::AtmOc3.link());
    let orb = Orb::new(net);
    orb.set_timeout(std::time::Duration::MAX);
    let group = ServerGroup::create(&orb, "counter", sh, 1);
    let g = group.clone();
    let server = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single("bump_unbounded", Arc::new(Bumper { hits: Arc::default() }));
        poa.impl_is_ready();
    });
    let client = ClientGroup::create(&orb, ch, 1).attach(0, None);
    let proxy = client.bind("bump_unbounded").unwrap();
    let reply = proxy.call("bump").arg(&21i64).invoke().unwrap();
    assert_eq!(reply.scalar::<i64>(0).unwrap(), 42);
    group.shutdown();
    server.join().unwrap();
}
