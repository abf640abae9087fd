//! Registry + failover end-to-end: a replicated object group behind the
//! naming service survives a replica host dying mid-workload. The suite
//! proves the tentpole guarantees:
//!
//! * a client invocation in flight against a killed replica completes
//!   against a survivor, with no double dispatch (at-most-once holds across
//!   the rebind);
//! * [`OrbError::NoReplicaAvailable`] surfaces only when the registry lists
//!   no live member at all — a group that is merely unreachable keeps timing
//!   out instead;
//! * TTL/heartbeat liveness runs on the simulated virtual clock, so lapse
//!   and renewal replay deterministically;
//! * binding policies pick the replica they advertise;
//! * a traced failover run is byte-identical for a seed.
//!
//! The obs layer is process-global, so every test serialises on one mutex.

use pardis::core::{
    ClientGroup, ClientThread, ObjectRef, Orb, OrbError, Servant, ServerGroup, ServerReply,
    ServerRequest, TraceReport, TraceSession, DEFAULT_REPOSITORY,
};
use pardis::netsim::{HostId, Link, Network, TimeScale};
use pardis::obs::{ArgVal, Event, Phase};
use pardis::registry::{BindingPolicy, GroupProxy, RegistryClient, RegistryServer};
use std::collections::{HashMap, HashSet};
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

/// The chaos suite's counting servant: `bump(x)` increments a shared
/// counter and returns `2 * x`. The counter is how the suite proves
/// at-most-once across failover — replayed invocations must not land twice.
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

/// One running replica of the group.
struct Replica {
    host: HostId,
    member: String,
    oref: ObjectRef,
    hits: Arc<AtomicU64>,
    group: ServerGroup,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// A registry plus N counting replicas on their own hosts, all reachable
/// from one single-threaded client.
struct Fleet {
    orb: Orb,
    client: ClientThread,
    session: Option<TraceSession>,
    registry: Option<RegistryServer>,
    replicas: Vec<Replica>,
}

/// Build the fleet. `reg_latency` models the client↔registry link,
/// `replica_latencies` the client↔replica links (0.0 → a free link, so the
/// virtual clock never advances and TTLs never lapse on their own).
///
/// Construction is fully sequenced — the client attaches first, then each
/// server is spawned and *waited for* (its name resolves) before the next —
/// so id allocation and obs ring registration cannot interleave differently
/// between runs; that is what makes the traced run byte-reproducible.
fn spawn_fleet(reg_latency: f64, replica_latencies: &[f64], trace: bool) -> Fleet {
    let link = |latency: f64| {
        if latency > 0.0 {
            Link::new(latency, 1.0e9, 0.0)
        } else {
            Link::free()
        }
    };
    let net = Network::new(TimeScale::off());
    let ch = net.add_host("client");
    let hreg = net.add_host("registry");
    net.connect(ch, hreg, link(reg_latency));
    let hosts: Vec<HostId> = replica_latencies
        .iter()
        .enumerate()
        .map(|(i, &lat)| {
            let h = net.add_host(&format!("r{i}"));
            net.connect(ch, h, link(lat));
            h
        })
        .collect();
    let orb = Orb::new(net);
    let session = trace.then(|| TraceSession::start(&orb));

    let client = ClientGroup::create(&orb, ch, 1).attach(0, None);
    let registry = RegistryServer::spawn(&orb, hreg, "registry");
    orb.resolve(DEFAULT_REPOSITORY, "registry").expect("registry must activate");

    let replicas = hosts
        .into_iter()
        .enumerate()
        .map(|(i, host)| {
            let member = format!("r{i}");
            let name = format!("bump-{member}");
            let hits = Arc::new(AtomicU64::new(0));
            let group = ServerGroup::create(&orb, &format!("{member}-server"), host, 1);
            let g = group.clone();
            let h = hits.clone();
            let n = name.clone();
            let thread = std::thread::spawn(move || {
                let mut poa = g.attach(0, None);
                poa.activate_single(&n, Arc::new(Bumper { hits: h }));
                poa.impl_is_ready();
            });
            let oref = orb.resolve(DEFAULT_REPOSITORY, &name).expect("replica must activate");
            Replica { host, member, oref, hits, group, thread: Some(thread) }
        })
        .collect();

    Fleet { orb, client, session, registry: Some(registry), replicas }
}

impl Fleet {
    /// Register every replica under `group` with the ORB's default TTL.
    fn register_all(&self, admin: &RegistryClient, group: &str) {
        for r in &self.replicas {
            admin.register_default(group, &r.member, &r.oref).unwrap();
        }
    }

    fn hits(&self) -> Vec<u64> {
        self.replicas.iter().map(|r| r.hits.load(Ordering::SeqCst)).collect()
    }

    /// Revive every host (a Close frame cannot reach a killed replica) and
    /// join all server threads.
    fn teardown(mut self) {
        for r in &self.replicas {
            self.orb.network().revive_host(r.host);
        }
        if let Some(reg) = self.registry.take() {
            reg.shutdown();
        }
        for r in &mut self.replicas {
            r.group.shutdown();
            if let Some(t) = r.thread.take() {
                t.join().unwrap();
            }
        }
    }
}

/// Mid-workload host kill: the in-flight invocation replays against a
/// survivor, every call completes, and the servant counters prove no effect
/// landed twice. Only the dead replica turns suspect, and a revived one
/// serves again.
#[test]
fn failover_completes_against_survivor_mid_kill() {
    let _guard = serial();
    let fleet = spawn_fleet(0.0, &[0.0, 0.0, 0.0], false);
    let admin = RegistryClient::bind(&fleet.client, "registry").unwrap();
    fleet.register_all(&admin, "bumpers");

    // Tight deadlines so a dead replica is declared lost quickly; the retry
    // seed pins the backoff schedule.
    fleet.orb.set_timeout(Duration::from_millis(250));
    fleet.orb.set_retry_limit(2);
    fleet.orb.set_retry_base(Duration::from_millis(10));
    fleet.orb.set_retry_seed(0x0F01_0BE5);

    let group =
        GroupProxy::bind(&fleet.client, "registry", "bumpers", BindingPolicy::RoundRobin).unwrap();
    for i in 0..6i64 {
        let reply = group.call("bump").arg(&i).invoke().unwrap();
        assert_eq!(reply.scalar::<i64>(0).unwrap(), 2 * i);
    }
    assert_eq!(fleet.hits(), vec![2, 2, 2], "round-robin spreads the healthy calls");

    // Kill r1 mid-workload: the next call routed to it must fail over.
    fleet.orb.network().kill_host(fleet.replicas[1].host);
    for i in 6..12i64 {
        let reply = group.call("bump").arg(&i).invoke().unwrap();
        assert_eq!(reply.scalar::<i64>(0).unwrap(), 2 * i, "failover must not corrupt replies");
    }
    // Every invocation executed exactly once: the replay against a survivor
    // did not double-dispatch (the dead replica never saw its frames), and
    // the survivors absorbed all six post-kill calls.
    assert_eq!(fleet.hits().iter().sum::<u64>(), 12, "at-most-once across failover");
    assert_eq!(fleet.replicas[1].hits.load(Ordering::SeqCst), 2, "dead replica gained no hits");
    assert_eq!(group.suspects(), vec!["r1".to_string()], "only the dead replica turns suspect");
    assert!(
        fleet.orb.network().fault_stats().down_dropped > 0,
        "frames to the killed host must be dropped and counted"
    );

    // Revive and forgive: round-robin folds r1 back in.
    fleet.orb.network().revive_host(fleet.replicas[1].host);
    group.clear_suspects();
    for i in 12..15i64 {
        let reply = group.call("bump").arg(&i).invoke().unwrap();
        assert_eq!(reply.scalar::<i64>(0).unwrap(), 2 * i);
    }
    assert_eq!(fleet.hits().iter().sum::<u64>(), 15);
    assert_eq!(fleet.replicas[1].hits.load(Ordering::SeqCst), 3, "revived replica serves again");

    fleet.teardown();
}

/// `NoReplicaAvailable` semantics: a group whose members are all *dead but
/// still registered* keeps timing out (the registry cannot distinguish a
/// partition from a crash until the TTL lapses); only once every lease has
/// lapsed does the error become `NoReplicaAvailable`. Re-registration
/// revives the group.
#[test]
fn no_replica_available_only_when_group_is_gone() {
    let _guard = serial();
    // 1 ms of modelled latency per frame: invocations advance the virtual
    // clock, and charge_wait below can walk it past the TTL.
    let fleet = spawn_fleet(0.001, &[0.001, 0.001], false);
    fleet.orb.set_registry_ttl_ms(400);
    let admin = RegistryClient::bind(&fleet.client, "registry").unwrap();
    fleet.register_all(&admin, "bumpers");

    fleet.orb.set_timeout(Duration::from_millis(250));
    fleet.orb.set_retry_limit(2);
    fleet.orb.set_retry_base(Duration::from_millis(10));
    fleet.orb.set_retry_seed(0x0DEA_D5E7);
    fleet.orb.set_failover_limit(2);

    let group =
        GroupProxy::bind(&fleet.client, "registry", "bumpers", BindingPolicy::RoundRobin).unwrap();
    let reply = group.call("bump").arg(&1i64).invoke().unwrap();
    assert_eq!(reply.scalar::<i64>(0).unwrap(), 2);
    assert!(admin.heartbeat("bumpers", "r0", 0).unwrap());
    assert!(admin.heartbeat("bumpers", "r1", 0).unwrap());

    // Kill the whole group. Both leases are still live, so the failover loop
    // tries every member (suspecting each in turn, then resetting the
    // all-suspect set for one last chance) and surfaces the transport
    // timeout — NOT NoReplicaAvailable: the group still exists.
    for r in &fleet.replicas {
        fleet.orb.network().kill_host(r.host);
    }
    let err = group.call("bump").arg(&2i64).invoke().unwrap_err();
    assert!(
        matches!(err, OrbError::Timeout { .. }),
        "registered-but-dead group must time out, got {err:?}"
    );
    assert!(group.suspects().is_empty(), "the all-suspect reset forgave the group");
    assert!(fleet.orb.network().fault_stats().down_dropped > 0);

    // Walk the virtual clock past the TTL without any live traffic; the
    // next sweep lapses both leases.
    let net = fleet.orb.network();
    let ch = fleet.client.host();
    let deadline = net.clock().now() + 0.6;
    while net.clock().now() < deadline {
        net.charge_wait(ch, Duration::from_millis(1));
    }
    let err = group.call("bump").arg(&3i64).invoke().unwrap_err();
    match err {
        OrbError::NoReplicaAvailable { group } => assert_eq!(group, "bumpers"),
        other => panic!("lapsed group must report NoReplicaAvailable, got {other:?}"),
    }
    assert!(admin.resolve("bumpers").unwrap().is_empty(), "no live member survives the lapse");
    assert!(!admin.heartbeat("bumpers", "r0", 0).unwrap(), "a lapsed lease cannot be renewed");

    // Revive the hosts and re-register one member: the group serves again.
    for r in &fleet.replicas {
        fleet.orb.network().revive_host(r.host);
    }
    admin.register_default("bumpers", "r0", &fleet.replicas[0].oref).unwrap();
    let reply = group.call("bump").arg(&4i64).invoke().unwrap();
    assert_eq!(reply.scalar::<i64>(0).unwrap(), 8);

    fleet.teardown();
}

/// TTL/heartbeat liveness on the virtual clock: heartbeats extend the
/// lease and update the advertised load, silence lapses it, `watch` sees
/// every membership epoch, and `list`/`deregister` agree.
#[test]
fn heartbeat_liveness_runs_on_the_virtual_clock() {
    let _guard = serial();
    let fleet = spawn_fleet(0.001, &[0.001], false);
    fleet.orb.set_registry_ttl_ms(400);
    let admin = RegistryClient::bind(&fleet.client, "registry").unwrap();
    let r0 = &fleet.replicas[0];

    let net = fleet.orb.network();
    let ch = fleet.client.host();
    let advance = |secs: f64| {
        let deadline = net.clock().now() + secs;
        while net.clock().now() < deadline {
            net.charge_wait(ch, Duration::from_millis(1));
        }
    };

    let epoch = admin.register_default("g", "r0", &r0.oref).unwrap();
    let live = admin.resolve("g").unwrap();
    assert_eq!(live.len(), 1);
    assert_eq!((live[0].member.as_str(), live[0].load), ("r0", 0));
    assert_eq!(live[0].host, r0.host, "the resolved reference carries the replica's host");

    // Renew at t+250ms of a 400ms TTL: still alive, load updated.
    advance(0.25);
    assert!(admin.heartbeat("g", "r0", 7).unwrap());
    let live = admin.resolve("g").unwrap();
    assert_eq!(live[0].load, 7, "heartbeat load must be advertised");

    // t+250ms after the renewal: the original deadline has passed but the
    // renewed one has not.
    advance(0.25);
    assert_eq!(admin.resolve("g").unwrap().len(), 1, "renewal must extend the lease");

    // 500ms of silence blows through the TTL: the lease lapses, the epoch
    // moves, and a late heartbeat is refused.
    advance(0.5);
    assert!(admin.resolve("g").unwrap().is_empty(), "silence must lapse the lease");
    let (lapsed_epoch, members) = admin.watch("g", epoch).unwrap();
    assert!(lapsed_epoch > epoch, "a lapse is a membership change");
    assert!(members.is_empty());
    assert!(!admin.heartbeat("g", "r0", 0).unwrap());
    assert!(admin.list().unwrap().is_empty(), "a lapsed group has no live members to list");

    // Re-registration starts a fresh lease.
    admin.register_default("g", "r0", &r0.oref).unwrap();
    assert_eq!(admin.resolve("g").unwrap().len(), 1);
    assert_eq!(admin.list().unwrap(), vec!["g".to_string()]);
    assert!(admin.deregister("g", "r0").unwrap());
    assert!(!admin.deregister("g", "r0").unwrap(), "double deregistration is not an error");
    assert!(admin.resolve("g").unwrap().is_empty());

    fleet.teardown();
}

/// Binding policies pick the replica they advertise: least-loaded follows
/// the heartbeat-reported load, locality follows the modelled link cost.
#[test]
fn binding_policies_pick_the_advertised_replica() {
    let _guard = serial();

    // Least-loaded: three equal replicas, loads 5/1/9 → every call lands on
    // r1 until its load report changes.
    let fleet = spawn_fleet(0.0, &[0.0, 0.0, 0.0], false);
    let admin = RegistryClient::bind(&fleet.client, "registry").unwrap();
    fleet.register_all(&admin, "bumpers");
    for (member, load) in [("r0", 5u64), ("r1", 1), ("r2", 9)] {
        assert!(admin.heartbeat("bumpers", member, load).unwrap());
    }
    let group =
        GroupProxy::bind(&fleet.client, "registry", "bumpers", BindingPolicy::LeastLoaded).unwrap();
    for i in 0..4i64 {
        let reply = group.call("bump").arg(&i).invoke().unwrap();
        assert_eq!(reply.scalar::<i64>(0).unwrap(), 2 * i);
    }
    assert_eq!(fleet.hits(), vec![0, 4, 0], "least-loaded must follow the heartbeat loads");
    // The load report changes: so does the pick.
    assert!(admin.heartbeat("bumpers", "r1", 20).unwrap());
    group.call("bump").arg(&4i64).invoke().unwrap();
    assert_eq!(fleet.hits(), vec![1, 4, 0], "r0 takes over once r1 reports busier");
    fleet.teardown();

    // Locality: the cheapest modelled link wins — r1 at 0.1 ms beats r2 at
    // 5 ms and r0 at 10 ms from the client's host.
    let fleet = spawn_fleet(0.0, &[0.010, 0.000_1, 0.005], false);
    let admin = RegistryClient::bind(&fleet.client, "registry").unwrap();
    fleet.register_all(&admin, "bumpers");
    let group =
        GroupProxy::bind(&fleet.client, "registry", "bumpers", BindingPolicy::Locality).unwrap();
    for i in 0..3i64 {
        let reply = group.call("bump").arg(&i).invoke().unwrap();
        assert_eq!(reply.scalar::<i64>(0).unwrap(), 2 * i);
    }
    assert_eq!(fleet.hits(), vec![0, 3, 0], "locality must follow the link costs");
    fleet.teardown();
}

/// A traced failover run: same seed → byte-identical Chrome trace, with the
/// rebind visible as an event and the counters agreeing with the network.
fn traced_failover(seed: u64) -> (Vec<i64>, TraceReport) {
    let mut fleet = spawn_fleet(0.0, &[0.0, 0.0, 0.0], true);
    let admin = RegistryClient::bind(&fleet.client, "registry").unwrap();
    fleet.register_all(&admin, "bumpers");

    // A generous deadline with a short, seeded backoff: the dead attempt
    // always fires its full retry budget long before the deadline, so the
    // event sequence is a function of the seed alone.
    fleet.orb.set_timeout(Duration::from_secs(2));
    fleet.orb.set_retry_limit(2);
    fleet.orb.set_retry_base(Duration::from_millis(10));
    fleet.orb.set_retry_seed(seed);

    let group =
        GroupProxy::bind(&fleet.client, "registry", "bumpers", BindingPolicy::RoundRobin).unwrap();
    let mut results = Vec::new();
    for i in 0..3i64 {
        results.push(group.call("bump").arg(&i).invoke().unwrap().scalar::<i64>(0).unwrap());
    }
    fleet.orb.network().kill_host(fleet.replicas[1].host);
    for i in 3..6i64 {
        results.push(group.call("bump").arg(&i).invoke().unwrap().scalar::<i64>(0).unwrap());
    }

    // Nothing is in flight (the dead host's frames were dropped, not
    // delayed), but drain the endpoint anyway before snapshotting.
    fleet.client.drain_pending();
    // Snapshot only once every adapter has made its last record: a POA
    // records a reply in its cache (the `poa.reply_cache_bytes` gauge) after
    // the frame has left, so the client can hold the reply before the gauge
    // counts it. Joining the server threads orders each record first.
    let session = fleet.session.take().expect("fleet was spawned traced");
    fleet.teardown();
    (results, session.finish())
}

#[test]
fn same_seed_failover_traces_are_byte_identical() {
    let _guard = serial();
    let (r1, t1) = traced_failover(0x0FA1_10E4);
    let (r2, t2) = traced_failover(0x0FA1_10E4);
    assert_eq!(r1, (0..6i64).map(|i| 2 * i).collect::<Vec<_>>());
    assert_eq!(r1, r2);
    let (j1, j2) = (t1.chrome_json(), t2.chrome_json());
    assert!(!j1.is_empty());
    assert_eq!(j1, j2, "same seed must export byte-identical failover traces");

    // The failover is visible, and the trace's counters agree with the
    // network: exactly one rebind, provoked by down-dropped frames.
    assert!(j1.contains("\"failover.rebind\""), "the rebind must appear as a trace event");
    assert_eq!(t1.counter("failover.rebinds"), Some(1));
    assert_eq!(t1.counter("failover.suspects"), Some(1));
    assert!(t1.counter("net.fault.down_dropped").unwrap() > 0);
    assert!(t1.counter("orb.retransmits").unwrap() >= 1, "the dead attempt must have retried");
    assert_eq!(t1.counter("registry.registers"), Some(3));
    // Six calls resolve once each, plus one re-resolve on failover.
    assert_eq!(t1.counter("registry.resolves"), Some(7));
}

/// A `u64`-valued event argument by name.
fn arg_u64(e: &Event, name: &str) -> Option<u64> {
    e.args.iter().find_map(|(k, v)| match v {
        ArgVal::U64(x) if *k == name => Some(*x),
        _ => None,
    })
}

/// A string-valued event argument by name.
fn arg_str<'a>(e: &'a Event, name: &str) -> Option<&'a str> {
    e.args.iter().find_map(|(k, v)| match v {
        ArgVal::Str(s) if *k == name => Some(s.as_ref()),
        _ => None,
    })
}

/// Causal-tree property under chaos: a host killed mid-workload forces an
/// invocation to time out, rebind and retry — and the trace must still
/// stitch into complete trees. Every stamped event belongs to a recorded
/// root, every `parent` pointer resolves to a recorded span of the same
/// trace (no orphans), span begins/ends balance globally (the End may land
/// on another thread), and the rebind instant rides the *retried*
/// invocation's trace together with both of its `client.invoke` attempts.
#[test]
fn killed_host_trace_forms_complete_causal_trees() {
    let _guard = serial();
    let (results, report) = traced_failover(0xCA05_A17E);
    assert_eq!(results, (0..6i64).map(|i| 2 * i).collect::<Vec<_>>());
    let events: Vec<&Event> = report.threads.iter().flat_map(|t| &t.events).collect();
    for t in &report.threads {
        assert_eq!(t.dropped, 0, "ring overflow in thread {}", t.label);
    }

    // Recorded spans: every event that declares its own `span` id. Roots
    // declare `span == trace` (the span *is* the trace's origin).
    let mut spans: HashSet<(u64, u64)> = HashSet::new();
    let mut roots: HashSet<u64> = HashSet::new();
    for e in &events {
        if let (Some(trace), Some(span)) = (arg_u64(e, "trace"), arg_u64(e, "span")) {
            spans.insert((trace, span));
            if trace == span {
                roots.insert(trace);
            }
        }
    }
    // Each of the six group invocations opened exactly one failover root.
    let failover_roots: Vec<u64> = events
        .iter()
        .filter(|e| e.name == "failover.invoke" && e.phase == Phase::Begin)
        .map(|e| {
            let trace = arg_u64(e, "trace").expect("failover roots are stamped");
            assert_eq!(arg_u64(e, "span"), Some(trace), "failover.invoke must be a root");
            trace
        })
        .collect();
    assert_eq!(failover_roots.len(), 6, "one failover root per group invocation");
    assert_eq!(failover_roots.iter().collect::<HashSet<_>>().len(), 6, "roots are distinct");

    // No orphans: every stamped event hangs off a known root, and its
    // parent pointer resolves to a span recorded under the same trace.
    let mut stamped = 0usize;
    for e in &events {
        let Some(trace) = arg_u64(e, "trace") else { continue };
        stamped += 1;
        assert!(roots.contains(&trace), "event {} on rootless trace {trace:#x}", e.name);
        if let Some(parent) = arg_u64(e, "parent") {
            assert!(
                spans.contains(&(trace, parent)),
                "orphan: {} parented to unrecorded span {parent:#x} of trace {trace:#x}",
                e.name
            );
        }
    }
    assert!(stamped > events.len() / 2, "most chaos events must carry trace context");

    // Spans balance globally — the kill must not leak a dangling Begin.
    type SpanKey<'a> = (&'a str, Option<(u64, u64)>);
    let mut open: HashMap<SpanKey<'_>, i64> = HashMap::new();
    for e in &events {
        match e.phase {
            Phase::Begin => *open.entry((e.name.as_ref(), e.key)).or_default() += 1,
            Phase::End => *open.entry((e.name.as_ref(), e.key)).or_default() -= 1,
            Phase::Instant => {}
        }
    }
    for ((name, key), n) in &open {
        assert_eq!(*n, 0, "unbalanced span {name} (key {key:?}) after mid-workload kill");
    }

    // The rebind is attached to the retried invocation's trace: that trace
    // carries at least two `bump` attempts (the one the dead host swallowed
    // and its replay against a survivor); healthy traces carry exactly one.
    // The registry `resolve` each root performs is also a client.invoke
    // child, so attempts are told apart by op.
    let rebinds: Vec<&&Event> = events.iter().filter(|e| e.name == "failover.rebind").collect();
    assert_eq!(rebinds.len(), 1, "exactly one rebind for one killed host");
    let rb_trace = arg_u64(rebinds[0], "trace").expect("the rebind must be stamped");
    assert!(failover_roots.contains(&rb_trace), "rebind must ride a failover root's trace");
    let attempts_by_trace = |trace: u64| {
        events
            .iter()
            .filter(|e| {
                e.name == "client.invoke"
                    && e.phase == Phase::Begin
                    && arg_str(e, "op") == Some("bump")
                    && arg_u64(e, "trace") == Some(trace)
            })
            .count()
    };
    assert!(
        attempts_by_trace(rb_trace) >= 2,
        "the rebound trace must carry the dead attempt and its retry"
    );
    for &root in &failover_roots {
        if root != rb_trace {
            assert_eq!(attempts_by_trace(root), 1, "healthy invocations bind once");
        }
    }
}
