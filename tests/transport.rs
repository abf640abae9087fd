//! Transport-mode end-to-end guarantees: an explicit `TransportMode::Sync`
//! network reproduces the legacy synchronous accounting, the overlapped
//! engine agrees with it exactly on serial workloads (causality chains make
//! the makespan equal the sum), and beats it on concurrent ones
//! (independent transfer chains overlap instead of summing).
//!
//! Each test resets the process-wide concurrency auditor on entry, so the
//! whole binary serialises on a mutex.

use pardis::core::{ClientGroup, Orb, Servant, ServerGroup, ServerReply, ServerRequest};
use pardis::netsim::{FaultPlan, Link, LinkPreset, Network, TimeScale, TransportMode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

/// One client host, one server host, `calls` blocking invocations. Returns
/// (results, virtual clock reading, frames, bytes).
fn serial_workload(mode: TransportMode, calls: i64) -> (Vec<i64>, f64, u64, u64) {
    let net = Network::with_transport(TimeScale::off(), mode);
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
    orb.network().quiesce();
    let clock = orb.network().clock().now();
    let (frames, bytes) = orb.traffic();
    group.shutdown();
    server.join().unwrap();
    (results, clock, frames, bytes)
}

#[test]
fn serial_workload_overlapped_matches_sync_accounting_exactly() {
    let _guard = serial();
    let (r_sync, clock_sync, frames_sync, bytes_sync) = serial_workload(TransportMode::Sync, 24);
    let (r_eng, clock_eng, frames_eng, bytes_eng) = serial_workload(TransportMode::Overlapped, 24);
    assert_eq!(r_sync, r_eng);
    assert_eq!((frames_sync, bytes_sync), (frames_eng, bytes_eng));
    // A blocking client chains every transfer: request arrival gates the
    // reply, the reply gates the next request. The engine's makespan
    // therefore degenerates to the sync transport's sum of transfers —
    // modulo the `Duration` nanosecond rounding on the sync charge path.
    assert!(
        (clock_sync - clock_eng).abs() < 1e-6,
        "serial: sync clock {clock_sync} vs engine makespan {clock_eng}"
    );
    assert!(clock_sync > 0.0);
}

/// `clients` hosts invoke concurrently against one server over dedicated
/// per-pair links. Returns the network's virtual clock reading.
fn concurrent_workload(mode: TransportMode, clients: usize, calls: i64) -> f64 {
    let net = Network::with_transport(TimeScale::off(), mode);
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
    let workers: Vec<_> = hosts
        .into_iter()
        .map(|host| {
            let orb = orb.clone();
            std::thread::spawn(move || {
                let client = ClientGroup::create(&orb, host, 1).attach(0, None);
                let proxy = client.bind("bump_cc").unwrap();
                for i in 0..calls {
                    let reply = proxy.call("bump").arg(&i).invoke().unwrap();
                    assert_eq!(reply.scalar::<i64>(0).unwrap(), 2 * i);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    orb.network().quiesce();
    let clock = orb.network().clock().now();
    assert_eq!(hits.load(Ordering::SeqCst), clients as u64 * calls as u64);
    group.shutdown();
    server.join().unwrap();
    clock
}

#[test]
fn concurrent_clients_overlap_under_the_engine() {
    let _guard = serial();
    let clients = 4;
    let calls = 8;
    let sync = concurrent_workload(TransportMode::Sync, clients, calls);
    let eng = concurrent_workload(TransportMode::Overlapped, clients, calls);
    // Sync sums every client's transfers; the engine only pays the longest
    // chain (plus scheduling noise from the shared server endpoint).
    assert!(eng < 0.75 * sync, "engine makespan {eng} should be well under the sync sum {sync}");
    // But it can never beat a single client's own causal chain.
    assert!(eng > sync / (clients as f64) - 1e-9, "makespan {eng} below a single chain");
}

#[test]
fn engine_reports_per_link_usage_sync_does_not() {
    let _guard = serial();
    let (_, _, frames, _) = serial_workload(TransportMode::Sync, 4);
    assert!(frames > 0);

    let net = Network::with_transport(TimeScale::off(), TransportMode::Sync);
    let a = net.add_host("a");
    let b = net.add_host("b");
    net.connect(a, b, LinkPreset::AtmOc3.link());
    net.deliver(a, b, 1024);
    assert!(net.per_link_usage().is_empty(), "sync transport does not feed lanes");

    let eng = Network::with_transport(TimeScale::off(), TransportMode::Overlapped);
    let a = eng.add_host("a");
    let b = eng.add_host("b");
    eng.connect(a, b, LinkPreset::AtmOc3.link());
    eng.transmit(a, b, 1024, || {});
    eng.quiesce();
    let usage = eng.per_link_usage();
    assert_eq!(usage.len(), 1);
    assert_eq!(usage[0].1.frames, 1);
    assert_eq!(usage[0].1.bytes, 1024);
}

/// An ORB over an explicitly Sync network delivers every frame through
/// the same `Network::transmit` path as the engine: with every frame
/// duplicated, each call still executes once and answers correctly, the
/// duplicates are counted, and no lane is fed.
#[test]
fn sync_orb_delivers_duplicates_through_transmit() {
    let _guard = serial();
    let net = Network::with_transport(TimeScale::off(), TransportMode::Sync);
    let ch = net.add_host("client");
    let sh = net.add_host("server");
    net.connect(ch, sh, LinkPreset::AtmOc3.link());
    net.set_fault_plan(Some(FaultPlan::new(7).with_dup(1.0)));
    let orb = Orb::new(net);
    assert_eq!(orb.network().transport_mode(), TransportMode::Sync);

    let hits = Arc::new(AtomicU64::new(0));
    let group = ServerGroup::create(&orb, "counter", sh, 1);
    let g = group.clone();
    let h = hits.clone();
    let server = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single("bump_sync", Arc::new(Bumper { hits: h }));
        poa.impl_is_ready();
    });
    let client = ClientGroup::create(&orb, ch, 1).attach(0, None);
    let proxy = client.bind("bump_sync").unwrap();
    let calls = 6;
    for i in 0..calls {
        let reply = proxy.call("bump").arg(&i).invoke().unwrap();
        assert_eq!(reply.scalar::<i64>(0).unwrap(), 2 * i);
    }
    assert_eq!(hits.load(Ordering::SeqCst), calls as u64, "duplicates never re-execute");
    let stats = orb.network().fault_stats();
    assert!(stats.duplicated >= 2 * calls as u64, "request and reply both doubled: {stats:?}");
    assert_eq!(stats.dropped, 0);
    assert!(orb.network().per_link_usage().is_empty(), "sync transport does not feed lanes");
    assert!(orb.network().clock().now() > 0.0);
    group.shutdown();
    server.join().unwrap();
}
