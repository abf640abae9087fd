//! Acceptance suite for pardis-check, the SPMD protocol analyzer: each
//! detector catches its seeded violation with rank attribution, detections
//! terminate (no hangs — degraded values instead), and a clean full ORB
//! run stays clean.

use pardis::check::{disable, enable, CheckReport, CheckedRts, Checker, Kind, Severity};
use pardis::core::{ClientGroup, DSequence, Distribution, Orb};
use pardis::generated::solvers::DirectProxy;
use pardis::rts::{tags, Bytes, MpiRts, Rts, World};
use pardis_apps::solvers::{gen_system, solve_seq, spawn_direct_server};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// enable()/disable() toggle process-global state; serialize every test
/// that touches the gate (same pattern as tests/obs_trace.rs).
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

/// Run an SPMD world where every rank talks through the checker.
fn checked_world<R: Send>(
    size: usize,
    chk: &Arc<Checker>,
    f: impl Fn(Arc<dyn Rts>) -> R + Send + Sync,
) -> Vec<R> {
    World::run(size, |rank| {
        let inner: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
        f(Arc::new(CheckedRts::wrap(inner, chk.clone())))
    })
}

fn failure_details(report: &CheckReport, kind: Kind) -> String {
    report
        .findings
        .iter()
        .filter(|f| f.kind == kind)
        .map(|f| f.detail.clone())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Acceptance: one rank enters a barrier while the other enters a
/// broadcast. The mismatch must be reported — attributed to both ranks'
/// operations — and the world must still terminate.
#[test]
fn mismatched_collective_is_detected_and_attributed() {
    let _g = lock();
    enable();
    let chk = Checker::new(2);
    checked_world(2, &chk, |rts| {
        if rts.rank() == 0 {
            rts.barrier();
        } else {
            rts.broadcast(1, Some(b("payload")));
        }
    });
    disable();
    let report = chk.finish();
    assert!(!report.is_clean());
    assert_eq!(report.count(Kind::CollectiveMismatch), 1, "{}", report.render_table());
    let detail = failure_details(&report, Kind::CollectiveMismatch);
    assert!(detail.contains("rank 0: barrier"), "{detail}");
    assert!(detail.contains("rank 1: broadcast(root=1)"), "{detail}");
    let failure = report.failures().next().unwrap();
    assert_eq!(failure.severity, Severity::Error);
}

/// Acceptance: an application send inside the reserved ORB band is flagged
/// on both the sending and the receiving rank.
#[test]
fn reserved_tag_application_send_is_detected() {
    let _g = lock();
    enable();
    let chk = Checker::new(2);
    let bad = tags::pardis(0xBAD); // reserved band
    checked_world(2, &chk, |rts| {
        if rts.rank() == 0 {
            rts.send(1, bad, b("contraband"));
        } else {
            rts.recv(Some(0), bad);
        }
    });
    disable();
    let report = chk.finish();
    assert_eq!(report.count(Kind::ReservedTag), 2, "{}", report.render_table());
    let mut ranks: Vec<Option<usize>> =
        report.findings.iter().filter(|f| f.kind == Kind::ReservedTag).map(|f| f.rank).collect();
    ranks.sort();
    assert_eq!(ranks, vec![Some(0), Some(1)], "both sides attributed");
}

/// Acceptance: a head-to-head receive cycle is reported as a deadlock —
/// well inside the test timeout, not as a hang.
#[test]
fn seeded_recv_deadlock_is_reported_not_hung() {
    let _g = lock();
    enable();
    let chk = Checker::with_watchdog(2, Duration::from_millis(40));
    let start = Instant::now();
    checked_world(2, &chk, |rts| {
        let other = 1 - rts.rank();
        // Both ranks wait for a message the other never sends.
        rts.recv(Some(other), 0x77);
    });
    let elapsed = start.elapsed();
    disable();
    let report = chk.finish();
    assert_eq!(report.count(Kind::Deadlock), 1, "{}", report.render_table());
    let detail = failure_details(&report, Kind::Deadlock);
    assert!(detail.contains("rank 0") && detail.contains("rank 1"), "{detail}");
    assert!(detail.contains("tag=0x77"), "per-rank pending ops listed: {detail}");
    // Detection is bounded by a few watchdog rounds, not the test harness.
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");
}

/// Messages still in flight at teardown are audited as a leak.
#[test]
fn unreceived_message_is_reported_at_teardown() {
    let _g = lock();
    enable();
    let chk = Checker::new(2);
    checked_world(2, &chk, |rts| {
        if rts.rank() == 0 {
            rts.send(1, 5, b("lost"));
        }
        rts.barrier();
    });
    disable();
    let report = chk.finish();
    assert_eq!(report.count(Kind::MessageLeak), 1, "{}", report.render_table());
    assert!(!report.is_clean(), "user-tag leaks are warnings");
    let detail = failure_details(&report, Kind::MessageLeak);
    assert!(detail.contains("0→1"), "{detail}");
}

/// A wildcard receive with two eligible senders is a nondeterminism
/// hazard — advice only, so the report stays clean.
#[test]
fn wildcard_recv_with_competing_senders_is_advice() {
    let _g = lock();
    enable();
    let chk = Checker::new(3);
    checked_world(3, &chk, |rts| {
        if rts.rank() != 0 {
            rts.send(0, 9, b("race"));
        }
        rts.barrier(); // both messages are in flight before the recv
        if rts.rank() == 0 {
            rts.recv(None, 9);
            rts.recv(None, 9);
        }
    });
    disable();
    let report = chk.finish();
    assert!(report.count(Kind::WildcardRecv) >= 1, "{}", report.render_table());
    assert!(report.is_clean(), "advice must not fail a run:\n{}", report.render_table());
}

/// A full ORB round trip — client group, generated stubs, parallel server —
/// produces a clean report: the ORB's own traffic respects its protocol.
#[test]
fn clean_full_orb_run_produces_clean_report() {
    let _g = lock();
    enable();
    let (orb, host) = Orb::single_host();
    let server = spawn_direct_server(&orb, host, "chk_direct", 2, None);
    let (a, bb) = gen_system(16, 9);
    let expect = solve_seq(&a, &bb);

    let chk = Checker::new(2);
    let client = ClientGroup::create(&orb, host, 2);
    let out = World::run(2, |rank| {
        let t = rank.rank();
        let inner: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
        let rts: Arc<dyn Rts> = Arc::new(CheckedRts::wrap(inner, chk.clone()));
        let ct = client.attach(t, Some(rts));
        let proxy = DirectProxy::spmd_bind(&ct, "chk_direct").unwrap();
        let a_ds = DSequence::distribute(&a, Distribution::Block, 2, t);
        let b_ds = DSequence::distribute(&bb, Distribution::Block, 2, t);
        let (x,) = proxy.solve(&a_ds, &b_ds, Distribution::Block).unwrap();
        x.local().to_vec()
    });
    server.shutdown();
    disable();

    let report = chk.finish();
    assert!(report.is_clean(), "{}", report.render_table());
    let got: Vec<f64> = out.into_iter().flatten().collect();
    for (g, w) in got.iter().zip(expect.iter()) {
        assert!((g - w).abs() < 1e-7, "{g} vs {w}");
    }
}

/// With the gate off, the decorator is a transparent passthrough: no
/// events, no findings, violations and all.
#[test]
fn disabled_gate_records_nothing() {
    let _g = lock();
    disable();
    let chk = Checker::new(2);
    checked_world(2, &chk, |rts| {
        if rts.rank() == 0 {
            rts.send(1, tags::pardis(0xBAD), b("unseen"));
        } else {
            rts.recv(Some(0), tags::pardis(0xBAD));
        }
        rts.barrier();
    });
    assert_eq!(chk.events_recorded(), 0);
    let report = chk.finish();
    assert!(report.is_clean() && report.findings.is_empty(), "{}", report.render_table());
}

/// The report renders both human and machine forms with world size and
/// rank attribution intact.
#[test]
fn report_formats_cover_table_and_json() {
    let _g = lock();
    enable();
    let chk = Checker::new(2);
    checked_world(2, &chk, |rts| {
        if rts.rank() == 0 {
            rts.send(1, tags::pardis(1), b("x"));
        } else {
            rts.recv(Some(0), tags::pardis(1));
        }
    });
    disable();
    let report = chk.finish();
    let table = report.render_table();
    assert!(table.contains("world of 2 rank(s)"), "{table}");
    assert!(table.contains("reserved-tag"), "{table}");
    let json = report.render_json();
    assert!(json.contains("\"world_size\":2"), "{json}");
    assert!(json.contains("\"kind\":\"reserved-tag\""), "{json}");
}
