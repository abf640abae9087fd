//! Observability end-to-end: tracing a chaos workload must be deterministic
//! (same fault seed → byte-identical Chrome trace), complete (every finished
//! invocation opens and closes its span exactly once), and honest (the
//! retransmissions and duplicate suppressions that really happened show up
//! as events).
//!
//! The obs layer is process-global (rings, metrics, the enable flag), so
//! every test here serialises on one mutex.

use pardis::core::{
    ClientGroup, Orb, Servant, ServerGroup, ServerReply, ServerRequest, TraceReport, TraceSession,
};
use pardis::netsim::{FaultPlan, Link, Network, TimeScale};
use pardis::obs::{is_valid_json, Phase};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

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

/// The chaos counting workload, traced: `calls` blocking invocations over a
/// lossy link, 20% drop / 5% dup. With `latency > 0` the virtual clock
/// advances and timestamps become non-trivial — but the clock is shared
/// between the client and server threads, so the exact stamp an event gets
/// can race; only the zero-latency trace is byte-reproducible.
fn traced_workload(seed: u64, calls: i64, latency: f64) -> (Vec<i64>, TraceReport) {
    traced_workload_with(false, seed, calls, latency)
}

/// [`traced_workload`] with blocking or overlapping senders.
fn traced_workload_with(
    blocking: bool,
    seed: u64,
    calls: i64,
    latency: f64,
) -> (Vec<i64>, TraceReport) {
    let net = Network::new(TimeScale::off());
    let net = if blocking { net.blocking() } else { net };
    let ch = net.add_host("client");
    let sh = net.add_host("server");
    net.connect(ch, sh, if latency > 0.0 { Link::new(latency, 1.0e9, 0.0) } else { Link::free() });
    net.set_fault_plan(Some(FaultPlan::new(seed).with_drop(0.2).with_dup(0.05)));
    let orb = Orb::new(net);
    orb.set_retry_limit(20);
    orb.set_retry_base(Duration::from_millis(100));
    orb.set_retry_seed(seed);

    let session = TraceSession::start(&orb);

    let hits = Arc::new(AtomicU64::new(0));
    let group = ServerGroup::create(&orb, "counter", sh, 1);
    // Attach the client before spawning the server so id allocation cannot
    // interleave differently between runs; bind() below waits for
    // activation, after which the server thread allocates nothing more.
    let client = ClientGroup::create(&orb, ch, 1).attach(0, None);
    let g = group.clone();
    let h = hits.clone();
    let server = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single("bump1", Arc::new(Bumper { hits: h }));
        poa.impl_is_ready();
    });
    let proxy = client.bind("bump1").unwrap();
    let mut results = Vec::new();
    for i in 0..calls {
        let reply = proxy.call("bump").arg(&i).invoke().unwrap();
        results.push(reply.scalar::<i64>(0).unwrap());
    }

    // Quiesce before snapshotting: a duplicate of the final request may
    // still be queued at the adapter, and whether its thread handles it,
    // sending a cached reply that lands at once, before the snapshot would
    // be a race (nothing pumps the client endpoint between invocations).
    pardis::core::quiesce_endpoints(&[&client]);

    // Snapshot before lifting the fault plan — that reset would zero the
    // fault counters the report mirrors.
    let report = session.finish();
    orb.network().set_fault_plan(None);
    group.shutdown();
    server.join().unwrap();
    (results, report)
}

/// Per-thread event sequences with timestamps zeroed: what stays
/// deterministic even when concurrent threads race for virtual-clock
/// stamps.
fn structure(report: &TraceReport) -> Vec<(String, Vec<pardis::obs::Event>)> {
    report
        .threads
        .iter()
        .map(|t| {
            let events = t
                .events
                .iter()
                .map(|e| {
                    let mut e = e.clone();
                    e.ts_us = 0;
                    e
                })
                .collect();
            (t.label.clone(), events)
        })
        .collect()
}

#[test]
fn same_seed_exports_byte_identical_traces() {
    let _guard = SERIAL.lock().unwrap();
    let (r1, t1) = traced_workload(0x0B5_7ACE, 16, 0.0);
    let (r2, t2) = traced_workload(0x0B5_7ACE, 16, 0.0);
    assert_eq!(r1, r2);
    let (j1, j2) = (t1.chrome_json(), t2.chrome_json());
    assert!(!j1.is_empty());
    assert_eq!(j1, j2, "same fault seed must export byte-identical traces");
    // A different seed schedules different faults — and a different trace.
    let (_, t3) = traced_workload(0x0B5_7ACF, 16, 0.0);
    assert_ne!(j1, t3.chrome_json());

    // With modelled latency the virtual clock advances concurrently, so
    // stamps may race — but the event sequences themselves still replay.
    let (_, l1) = traced_workload(0x0B5_7ACE, 16, 0.001);
    let (_, l2) = traced_workload(0x0B5_7ACE, 16, 0.001);
    assert_eq!(structure(&l1), structure(&l2), "event sequences must replay deterministically");
    assert!(
        l1.threads.iter().flat_map(|t| &t.events).any(|e| e.ts_us > 0),
        "latency must advance virtual timestamps"
    );
}

#[test]
fn both_transports_export_byte_identical_traces_for_a_seed() {
    let _guard = SERIAL.lock().unwrap();
    // Engine replays against the engine...
    let (r1, t1) = traced_workload_with(false, 0x7A_CE5, 16, 0.0);
    let (r2, t2) = traced_workload_with(false, 0x7A_CE5, 16, 0.0);
    assert_eq!(r1, r2);
    assert_eq!(t1.chrome_json(), t2.chrome_json(), "engine traces must replay byte-identically");
    // ...blocking senders against blocking senders...
    let (r3, t3) = traced_workload_with(true, 0x7A_CE5, 16, 0.0);
    let (_, t4) = traced_workload_with(true, 0x7A_CE5, 16, 0.0);
    assert_eq!(t3.chrome_json(), t4.chrome_json(), "blocking traces must replay byte-identically");
    // ...and across the two the *workload* agrees (same replies, same fault
    // schedule, same frames on the same lanes).
    assert_eq!(r1, r3);
    for c in ["net.fault.dropped", "net.fault.duplicated", "orb.frames_sent", "net.link.0-1.frames"]
    {
        assert_eq!(t1.counter(c), t3.counter(c), "{c} must not depend on blocking");
    }
    // Both report per-link timeline metrics. (On a free link the busy time
    // itself rounds to zero micros, so presence is the signal.)
    for t in [&t1, &t3] {
        assert!(t.counter("net.link.0-1.frames").unwrap() > 0);
        assert!(t.counter("net.link.0-1.busy_us").is_some());
        assert!(t.counter("net.makespan_us").is_some());
    }
}

#[test]
fn trace_is_valid_chrome_json_with_fault_events() {
    let _guard = SERIAL.lock().unwrap();
    let calls = 24;
    let (results, report) = traced_workload(0xC7A0_5EED, calls, 0.001);
    assert_eq!(results, (0..calls).map(|i| 2 * i).collect::<Vec<_>>());

    let json = report.chrome_json();
    assert!(is_valid_json(&json), "export must be valid JSON");
    assert!(json.starts_with("{\"traceEvents\":["));

    // The chaos layer really bit, and the trace shows it: retransmissions on
    // the client, duplicate suppression at the POA (the client-side dup
    // observation is a counter, not an event — its timing is racy).
    assert!(json.contains("\"client.retransmit\""), "no retransmission events in trace");
    let suppressed = json.contains("\"poa.dup_suppressed\"")
        || json.contains("\"poa.replay\"")
        || json.contains("\"client.dup_replies\"");
    assert!(suppressed, "no duplicate-suppression evidence in trace");
    // Network verdicts are instants with a fate argument.
    assert!(json.contains("\"net.transit\""));
    assert!(json.contains("\"fate\":\"dropped\""));

    // The metrics registry agrees with the ORB's own counters, and the
    // retransmission count sits inside the bounds the seeded fault schedule
    // dictates: one retransmission per unmasked drop (a Duplicated verdict
    // masks at most two drops — the extra request copy and the extra reply
    // it provokes), plus at most the odd wall-clock straggler per call.
    let dropped = report.counter("net.fault.dropped").unwrap();
    let duplicated = report.counter("net.fault.duplicated").unwrap();
    let retransmits = report.counter("orb.retransmits").unwrap();
    let floor = dropped.saturating_sub(2 * duplicated).max(1);
    let ceil = dropped + calls as u64;
    assert!(
        (floor..=ceil).contains(&retransmits),
        "{retransmits} retransmissions outside the schedule-derived bounds \
         [{floor}, {ceil}] ({dropped} dropped, {duplicated} duplicated)"
    );
    assert!(dropped > 0);
    assert!(report.counter("poa.reply_cache_misses").unwrap() >= calls as u64);

    // The summary table renders and names the client thread.
    let summary = report.summary();
    assert!(summary.contains("client"), "summary must list thread labels:\n{summary}");
}

#[test]
fn every_completed_invocation_has_balanced_spans() {
    let _guard = SERIAL.lock().unwrap();
    let calls = 16usize;
    let (_, report) = traced_workload(0xBA1A_11CE, calls as i64, 0.001);

    // Count invoke-span begins and ends per (binding, req) key across all
    // threads (the End can land on a pump thread).
    let mut begins: HashMap<(u64, u64), u64> = HashMap::new();
    let mut ends: HashMap<(u64, u64), u64> = HashMap::new();
    for t in &report.threads {
        assert_eq!(t.dropped, 0, "ring overflow in thread {}", t.label);
        for e in &t.events {
            if e.name == "client.invoke" {
                let key = e.key.expect("invoke spans carry the invocation key");
                match e.phase {
                    Phase::Begin => *begins.entry(key).or_default() += 1,
                    Phase::End => *ends.entry(key).or_default() += 1,
                    Phase::Instant => panic!("invoke is a span, not an instant"),
                }
            }
        }
    }
    assert_eq!(begins.len(), calls, "one invoke span per invocation");
    assert_eq!(begins, ends, "every opened invoke span must close");
    assert!(begins.values().all(|&n| n == 1), "spans open exactly once: {begins:?}");

    // Each traced invocation also reached the servant and fulfilled its
    // future.
    let dispatched: Vec<&pardis::obs::Event> = report
        .threads
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.name == "poa.dispatch" && e.phase == Phase::Begin)
        .collect();
    assert_eq!(dispatched.len(), calls, "exactly one dispatch per invocation (at-most-once)");
    let fulfilled = report
        .threads
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.name == "client.future_fulfilled");
    assert_eq!(fulfilled.count(), calls);
}

#[test]
fn profile_reconstructs_and_reconciles_the_traced_workload() {
    use pardis::obs::profile::{profile_trace, SEGMENTS};
    let _guard = SERIAL.lock().unwrap();
    let calls = 16i64;
    // Modelled latency so end-to-end times (and the wire segment) are
    // non-trivial.
    let (_, report) = traced_workload(0x9409_F11E, calls, 0.001);
    let prof = profile_trace(&report.chrome_json(), 0.01).expect("trace must be analyzable");
    assert_eq!(prof.invocations.len(), calls as usize, "one profiled invocation per call");
    let err = prof.reconcile().expect("segment attribution must reconcile end-to-end time");
    assert!(err <= 0.01, "acceptance bound: reconcile within 1%, got {err}");
    let ops = prof.per_op();
    assert_eq!(ops.len(), 1, "one op in this workload: {ops:?}");
    assert_eq!(ops[0].op, "bump");
    assert!(ops[0].mean_total_us > 0.0);
    let wire = SEGMENTS.iter().position(|s| *s == "wire").unwrap();
    assert!(
        ops[0].mean_segments[wire] > 0.0,
        "modelled link latency must be attributed to the wire segment: {ops:?}"
    );
    let table = prof.table();
    assert!(table.contains("bump"), "table must list the op:\n{table}");
    assert!(table.contains(") OK"), "table must report reconciliation:\n{table}");
    assert!(is_valid_json(&prof.json()));

    // The profile is a pure function of the trace, and zero-latency traces
    // replay byte-identically — so same-seed profiles must too.
    let (_, a) = traced_workload(0x0B5_7ACE, calls, 0.0);
    let (_, b) = traced_workload(0x0B5_7ACE, calls, 0.0);
    let pa = profile_trace(&a.chrome_json(), 0.01).unwrap().json();
    let pb = profile_trace(&b.chrome_json(), 0.01).unwrap().json();
    assert_eq!(pa, pb, "same seed must profile byte-identically");
}

#[test]
fn disabled_tracing_records_nothing_across_a_workload() {
    let _guard = SERIAL.lock().unwrap();
    pardis::obs::reset();
    let net = Network::new(TimeScale::off());
    let ch = net.add_host("client");
    let sh = net.add_host("server");
    net.connect(ch, sh, Link::free());
    let orb = Orb::new(net);

    let hits = Arc::new(AtomicU64::new(0));
    let group = ServerGroup::create(&orb, "counter", sh, 1);
    let g = group.clone();
    let h = hits.clone();
    let server = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single("bump_off", Arc::new(Bumper { hits: h }));
        poa.impl_is_ready();
    });
    let client = ClientGroup::create(&orb, ch, 1).attach(0, None);
    let proxy = client.bind("bump_off").unwrap();
    for i in 0..8i64 {
        let reply = proxy.call("bump").arg(&i).invoke().unwrap();
        assert_eq!(reply.scalar::<i64>(0).unwrap(), 2 * i);
    }
    group.shutdown();
    server.join().unwrap();

    let threads = pardis::obs::drain();
    let total: usize = threads.iter().map(|t| t.events.len()).sum();
    assert_eq!(total, 0, "tracing disabled must record zero events");
}
