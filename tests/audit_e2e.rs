//! Concurrency-audit end-to-end: real ORB workloads run with the auditor's
//! gate hard-enabled (the same instrumentation `PARDIS_AUDIT=1` turns on)
//! and must come out with zero findings — the chaos invocation path and the
//! registry failover path both cross every audited lock in the core, and a
//! networked two-rank world crosses the run-time system's and netsim's. The
//! negative control is a deliberately inverted test-only lock pair, which
//! must produce exactly one lock-cycle finding naming both sites.
//!
//! The auditor's state is process-global, so the suite serialises on one
//! mutex and resets the engine around every test.

use pardis::audit;
use pardis::core::{
    ClientGroup, DSequence, Distribution, Orb, Servant, ServerGroup, ServerReply, ServerRequest,
};
use pardis::netsim::{FaultPlan, Link, LinkPreset, Network, TimeScale};
use pardis::registry::{BindingPolicy, GroupProxy, RegistryClient, RegistryServer};
use pardis::rts::{Bytes, MpiRts, Rts, World};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

/// Serialise, reset the engine, force the gate on; the returned guard
/// restores a disabled, clean auditor on drop (even on panic).
fn audited() -> impl Drop {
    struct Restore(#[allow(dead_code)] Option<std::sync::MutexGuard<'static, ()>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            audit::disable();
            audit::reset();
        }
    }
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    audit::reset();
    audit::enable();
    Restore(Some(guard))
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

/// The chaos suite's counting workload: blocking invocations across a lossy
/// link (drops force retransmissions, duplicates force reply-cache replay),
/// exercising the reply table, reply cache, endpoint snapshot and plan
/// cache with the auditor watching every acquisition.
#[test]
fn chaos_workload_under_audit_reports_zero_findings() {
    let _g = audited();
    let net = Network::new(TimeScale::off());
    let ch = net.add_host("client");
    let sh = net.add_host("server");
    net.connect(ch, sh, Link::free());
    net.set_fault_plan(Some(FaultPlan::new(0xA0D17).with_drop(0.2).with_dup(0.05)));
    let orb = Orb::new(net);
    orb.set_retry_limit(20);
    orb.set_retry_base(Duration::from_millis(100));
    orb.set_retry_seed(0xA0D17);

    let hits = Arc::new(AtomicU64::new(0));
    let group = ServerGroup::create(&orb, "counter", sh, 1);
    let g = group.clone();
    let h = hits.clone();
    let server = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single("bump_audit", Arc::new(Bumper { hits: h }));
        poa.impl_is_ready();
    });

    let client = ClientGroup::create(&orb, ch, 1).attach(0, None);
    let proxy = client.bind("bump_audit").unwrap();
    for i in 0..40i64 {
        let reply = proxy.call("bump").arg(&i).invoke().unwrap();
        assert_eq!(reply.scalar::<i64>(0).unwrap(), 2 * i);
    }
    pardis::core::quiesce_endpoints(&[&client]);
    group.shutdown();
    server.join().unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 40, "at-most-once under chaos");

    let report = audit::report();
    assert!(report.is_clean(), "chaos workload must audit clean:\n{}", report.render_table());
    assert!(report.findings.is_empty(), "{}", report.render_table());
    assert!(report.sites_seen > 0, "the workload must actually cross audited locks");
}

/// Registry failover mid-kill under the auditor: registration, heartbeat
/// sweeps (the lease map), group binding and client-side failover across a
/// killed replica — zero findings.
#[test]
fn registry_failover_under_audit_reports_zero_findings() {
    let _g = audited();
    let net = Network::new(TimeScale::off());
    let ch = net.add_host("client");
    let hreg = net.add_host("registry");
    net.connect(ch, hreg, Link::free());
    let h0 = net.add_host("r0");
    let h1 = net.add_host("r1");
    net.connect(ch, h0, Link::free());
    net.connect(ch, h1, Link::free());
    let orb = Orb::new(net);

    let client = ClientGroup::create(&orb, ch, 1).attach(0, None);
    let registry = RegistryServer::spawn(&orb, hreg, "registry");
    orb.resolve(pardis::core::DEFAULT_REPOSITORY, "registry").expect("registry must activate");

    let mut replicas = Vec::new();
    for (i, host) in [h0, h1].into_iter().enumerate() {
        let name = format!("bump-audit-r{i}");
        let hits = Arc::new(AtomicU64::new(0));
        let group = ServerGroup::create(&orb, &format!("r{i}-server"), host, 1);
        let g = group.clone();
        let h = hits.clone();
        let n = name.clone();
        let thread = std::thread::spawn(move || {
            let mut poa = g.attach(0, None);
            poa.activate_single(&n, Arc::new(Bumper { hits: h }));
            poa.impl_is_ready();
        });
        let oref =
            orb.resolve(pardis::core::DEFAULT_REPOSITORY, &name).expect("replica must activate");
        replicas.push((host, format!("r{i}"), oref, hits, group, thread));
    }

    let admin = RegistryClient::bind(&client, "registry").unwrap();
    for (_, member, oref, _, _, _) in &replicas {
        admin.register_default("bumpers-audit", member, oref).unwrap();
    }

    orb.set_timeout(Duration::from_millis(250));
    orb.set_retry_limit(2);
    orb.set_retry_base(Duration::from_millis(10));
    orb.set_retry_seed(0x0F01_0BE5);

    let group =
        GroupProxy::bind(&client, "registry", "bumpers-audit", BindingPolicy::RoundRobin).unwrap();
    for i in 0..4i64 {
        let reply = group.call("bump").arg(&i).invoke().unwrap();
        assert_eq!(reply.scalar::<i64>(0).unwrap(), 2 * i);
    }
    // Kill r1; the remaining calls must fail over to the survivor.
    orb.network().kill_host(replicas[1].0);
    for i in 4..8i64 {
        let reply = group.call("bump").arg(&i).invoke().unwrap();
        assert_eq!(reply.scalar::<i64>(0).unwrap(), 2 * i);
    }
    let total: u64 = replicas.iter().map(|r| r.3.load(Ordering::SeqCst)).sum();
    assert_eq!(total, 8, "at-most-once across failover");

    // Teardown: revive the killed host so Close frames arrive.
    for (host, ..) in &replicas {
        orb.network().revive_host(*host);
    }
    registry.shutdown();
    for (_, _, _, _, group, thread) in replicas {
        group.shutdown();
        thread.join().unwrap();
    }

    let report = audit::report();
    assert!(report.is_clean(), "failover workload must audit clean:\n{}", report.render_table());
    assert!(report.findings.is_empty(), "{}", report.render_table());
}

/// A two-rank world on an ATM link, armed: a barrier, a send/recv and one
/// pull redistribution cross the mailboxes, the barrier, the window table,
/// a window's bytes, the collective turn, the in-flight counts and the
/// operation completions, plus netsim's topology mutation and its retained
/// snapshots. All of them are audited, and the run is clean. Before the
/// run-time system's and netsim's locks went through the auditor, this
/// scenario saw one site: the retained snapshots.
#[test]
fn rts_world_under_audit_sees_the_runtime_locks() {
    let _g = audited();
    let net = Network::new(TimeScale::off());
    net.set_default_link(LinkPreset::AtmOc3.link());
    let hosts = (0..2).map(|r| net.add_host(&format!("rank{r}"))).collect();
    let (world, ranks) = World::new(2);
    world.attach_network(net.clone(), hosts);
    let full: Vec<f64> = (0..64).map(f64::from).collect();
    std::thread::scope(|s| {
        for rank in ranks {
            let full = &full;
            s.spawn(move || {
                let t = rank.rank();
                let rts = MpiRts::new(rank);
                rts.barrier();
                if t == 0 {
                    rts.send(1, 5, Bytes::from_static(b"ping"));
                } else {
                    assert_eq!(&rts.recv(Some(0), 5).data[..], b"ping");
                }
                let mut ds = DSequence::distribute(full, Distribution::Block, 2, t);
                ds.redistribute(&rts, Distribution::Cyclic);
                let want = DSequence::distribute(full, Distribution::Cyclic, 2, t);
                assert_eq!(ds.local(), want.local());
            });
        }
    });

    let report = audit::report();
    assert!(report.is_clean(), "the runtime must audit clean:\n{}", report.render_table());
    assert!(report.sites_seen >= 8, "sites seen: {}\n{}", report.sites_seen, report.render_table());
}

/// Negative control: a test-only pair of locks acquired in both orders is a
/// potential deadlock, and the auditor must say so — exactly one cycle
/// finding, naming both sites, with a witness stack for each direction.
#[test]
fn inverted_test_lock_pair_reports_exactly_one_cycle() {
    let _g = audited();
    let first =
        audit::AuditMutex::new(pardis::audit::lock_site!("audit-e2e: inverted pair first"), ());
    let second =
        audit::AuditMutex::new(pardis::audit::lock_site!("audit-e2e: inverted pair second"), ());
    {
        let _a = first.lock();
        let _b = second.lock();
    }
    {
        let _b = second.lock();
        let _a = first.lock();
    }
    let report = audit::report();
    assert_eq!(
        report.count(audit::Kind::LockCycle),
        1,
        "exactly one cycle finding:\n{}",
        report.render_table()
    );
    let f = report
        .findings
        .iter()
        .find(|f| f.kind == audit::Kind::LockCycle)
        .expect("cycle finding present");
    assert_eq!(f.severity, audit::Severity::Error);
    assert!(
        f.detail.contains("`audit-e2e: inverted pair first`")
            && f.detail.contains("`audit-e2e: inverted pair second`"),
        "both sites named: {}",
        f.detail
    );
    assert!(f.detail.matches("witness:").count() >= 2, "both witness stacks: {}", f.detail);
}
