//! End-to-end tests: single clients and single-threaded servers.

use crate::*;
use pardis_cdr::{Any, TypeCode, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A small arithmetic servant.
struct Calc {
    calls: Arc<AtomicUsize>,
}

impl Servant for Calc {
    fn interface(&self) -> &str {
        "calc"
    }
    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let mut rep = ServerReply::new();
        match req.op {
            "add" => {
                let a: i32 = req.scalar(0).map_err(|e| e.to_string())?;
                let b: i32 = req.scalar(1).map_err(|e| e.to_string())?;
                rep.push_scalar(&(a + b));
                Ok(rep)
            }
            "divmod" => {
                let a: i64 = req.scalar(0).map_err(|e| e.to_string())?;
                let b: i64 = req.scalar(1).map_err(|e| e.to_string())?;
                if b == 0 {
                    return Err("division by zero".into());
                }
                rep.push_scalar(&(a / b));
                rep.push_scalar(&(a % b));
                Ok(rep)
            }
            "slow_echo" => {
                let s: String = req.scalar(0).map_err(|e| e.to_string())?;
                std::thread::sleep(Duration::from_millis(30));
                rep.push_scalar(&s);
                Ok(rep)
            }
            "noop" => Ok(rep),
            other => Err(format!("calc has no operation {other:?}")),
        }
    }
}

fn spawn_calc_server(
    orb: &Orb,
    host: pardis_netsim::HostId,
    name: &str,
) -> (ServerGroup, std::thread::JoinHandle<()>, Arc<AtomicUsize>) {
    let calls = Arc::new(AtomicUsize::new(0));
    let group = ServerGroup::create(orb, "calc-server", host, 1);
    let g = group.clone();
    let c = calls.clone();
    let name = name.to_string();
    let handle = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single(&name, Arc::new(Calc { calls: c }));
        poa.impl_is_ready();
    });
    (group, handle, calls)
}

#[test]
fn blocking_invocation_roundtrip() {
    let (orb, host) = Orb::single_host();
    orb.set_local_bypass(false); // exercise the wire path
    let (group, handle, calls) = spawn_calc_server(&orb, host, "calc1");

    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let proxy = client.bind("calc1").unwrap();
    let reply = proxy.call("add").arg(&3i32).arg(&4i32).invoke().unwrap();
    assert_eq!(reply.scalar::<i32>(0).unwrap(), 7);
    assert_eq!(calls.load(Ordering::SeqCst), 1);

    group.shutdown();
    handle.join().unwrap();
}

#[test]
fn multiple_out_slots() {
    let (orb, host) = Orb::single_host();
    let (group, handle, _) = spawn_calc_server(&orb, host, "calc2");
    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let proxy = client.bind("calc2").unwrap();
    let reply = proxy.call("divmod").arg(&17i64).arg(&5i64).invoke().unwrap();
    assert_eq!(reply.scalar::<i64>(0).unwrap(), 3);
    assert_eq!(reply.scalar::<i64>(1).unwrap(), 2);
    group.shutdown();
    handle.join().unwrap();
}

#[test]
fn server_exception_propagates() {
    let (orb, host) = Orb::single_host();
    let (group, handle, _) = spawn_calc_server(&orb, host, "calc3");
    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let proxy = client.bind("calc3").unwrap();
    let err = proxy.call("divmod").arg(&1i64).arg(&0i64).invoke().unwrap_err();
    assert_eq!(err, OrbError::ServerException("division by zero".into()));
    let err = proxy.call("bogus").invoke().unwrap_err();
    assert!(matches!(err, OrbError::ServerException(_)));
    group.shutdown();
    handle.join().unwrap();
}

#[test]
fn unknown_object_times_out() {
    let (orb, host) = Orb::single_host();
    orb.set_timeout(Duration::from_millis(50));
    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let err = client.bind("ghost").unwrap_err();
    assert_eq!(err, OrbError::ObjectNotFound("default/ghost".into()));
}

#[test]
fn nonblocking_future_resolves() {
    let (orb, host) = Orb::single_host();
    orb.set_local_bypass(false);
    let (group, handle, _) = spawn_calc_server(&orb, host, "calc4");
    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let proxy = client.bind("calc4").unwrap();

    let inv = proxy.call("slow_echo").arg(&"later".to_string()).invoke_nb().unwrap();
    let fut: PFuture<String> = inv.scalar_future(0);
    // The servant sleeps 30ms; the future should not be resolved instantly.
    assert!(!fut.resolved(), "future resolved before the servant finished");
    assert_eq!(fut.get().unwrap(), "later");
    assert!(fut.resolved());
    // Futures are handles: reading twice is fine.
    assert_eq!(fut.get().unwrap(), "later");
    group.shutdown();
    handle.join().unwrap();
}

#[test]
fn invocation_order_preserved_per_binding() {
    // The sequencing guarantee (§2.1): requests from one binding are served
    // in invocation order even when issued back-to-back without waiting.
    struct Recorder {
        seen: Arc<std::sync::Mutex<Vec<i32>>>,
    }
    impl Servant for Recorder {
        fn interface(&self) -> &str {
            "recorder"
        }
        fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
            let v: i32 = req.scalar(0).map_err(|e| e.to_string())?;
            self.seen.lock().unwrap().push(v);
            Ok(ServerReply::new())
        }
    }

    let (orb, host) = Orb::single_host();
    let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
    let group = ServerGroup::create(&orb, "rec", host, 1);
    let (g, s) = (group.clone(), seen.clone());
    let handle = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single("rec1", Arc::new(Recorder { seen: s }));
        poa.impl_is_ready();
    });

    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let proxy = client.bind("rec1").unwrap();
    let handles: Vec<_> =
        (0..20).map(|i| proxy.call("record").arg(&{ i }).invoke_nb().unwrap()).collect();
    for h in handles {
        h.wait().unwrap();
    }
    assert_eq!(*seen.lock().unwrap(), (0..20).collect::<Vec<i32>>());
    group.shutdown();
    handle.join().unwrap();
}

#[test]
fn oneway_invocation_has_no_reply() {
    let (orb, host) = Orb::single_host();
    let (group, handle, calls) = spawn_calc_server(&orb, host, "calc5");
    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let proxy = client.bind("calc5").unwrap();
    proxy.call("noop").invoke_oneway().unwrap();
    // No reply to wait on; poll the side effect.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while calls.load(Ordering::SeqCst) == 0 {
        assert!(std::time::Instant::now() < deadline, "oneway never dispatched");
        std::thread::sleep(Duration::from_millis(1));
    }
    group.shutdown();
    handle.join().unwrap();
}

#[test]
fn local_bypass_dispatches_without_polling() {
    // With the collocated direct-call optimisation, the invocation executes
    // on the caller's thread — the server loop never even runs.
    let (orb, host) = Orb::single_host();
    let group = ServerGroup::create(&orb, "lazy", host, 1);
    let mut poa = group.attach(0, None);
    poa.activate_single("lazy1", Arc::new(Calc { calls: Arc::new(AtomicUsize::new(0)) }));
    // No impl_is_ready.

    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let proxy = client.bind("lazy1").unwrap();
    let reply = proxy.call("add").arg(&1i32).arg(&2i32).invoke().unwrap();
    assert_eq!(reply.scalar::<i32>(0).unwrap(), 3);
    let (frames, _) = orb.traffic();
    assert_eq!(frames, 0, "bypassed call must not touch the transport");

    // With bypass off the same call must time out (nobody polls).
    orb.set_local_bypass(false);
    orb.set_timeout(Duration::from_millis(50));
    let err = proxy.call("add").arg(&1i32).arg(&2i32).invoke().unwrap_err();
    assert!(matches!(err, OrbError::Timeout { .. }));
}

#[test]
fn activation_agent_launches_server_on_bind() {
    let (orb, host) = Orb::single_host();
    let orb2 = orb.clone();
    orb.impls().register(
        "default",
        "ondemand",
        Arc::new(move || {
            let group = ServerGroup::create(&orb2, "ondemand-server", host, 1);
            let g = group.clone();
            std::thread::spawn(move || {
                let mut poa = g.attach(0, None);
                poa.activate_single(
                    "ondemand",
                    Arc::new(Calc { calls: Arc::new(AtomicUsize::new(0)) }),
                );
                poa.impl_is_ready();
            });
        }),
    );

    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let proxy = client.bind("ondemand").unwrap();
    let reply = proxy.call("add").arg(&20i32).arg(&22i32).invoke().unwrap();
    assert_eq!(reply.scalar::<i32>(0).unwrap(), 42);
}

#[test]
fn non_activating_agent_refuses() {
    let (orb, host) = Orb::single_host();
    orb.set_activation(ActivationMode::NonActivating);
    orb.set_timeout(Duration::from_millis(50));
    orb.impls().register("default", "dormant", Arc::new(|| panic!("must not launch")));
    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    assert!(matches!(client.bind("dormant"), Err(OrbError::ObjectNotFound(_))));
}

#[test]
fn namespaces_split_bindings() {
    let (orb, host) = Orb::single_host();
    let calls = Arc::new(AtomicUsize::new(0));
    let group = ServerGroup::create(&orb, "ns-server", host, 1).with_namespace("physics");
    let (g, c) = (group.clone(), calls.clone());
    let handle = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single("solver", Arc::new(Calc { calls: c }));
        poa.impl_is_ready();
    });

    orb.set_timeout(Duration::from_millis(100));
    // Default namespace does not see it...
    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    assert!(client.bind("solver").is_err());
    // ...the right one does.
    let client = ClientGroup::create(&orb, host, 1).with_namespace("physics").attach(0, None);
    assert!(client.bind("solver").is_ok());
    group.shutdown();
    handle.join().unwrap();
}

#[test]
fn dii_any_arguments() {
    // The dynamic invocation interface: no generated stubs at all.
    struct Dyn;
    impl Servant for Dyn {
        fn interface(&self) -> &str {
            "dyn"
        }
        fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
            let x: f64 = req.scalar(0).map_err(|e| e.to_string())?;
            let mut rep = ServerReply::new();
            rep.push_scalar(&(x * 2.0));
            Ok(rep)
        }
    }
    let (orb, host) = Orb::single_host();
    let group = ServerGroup::create(&orb, "dyn", host, 1);
    let g = group.clone();
    let handle = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single("dyn1", Arc::new(Dyn));
        poa.impl_is_ready();
    });
    orb.set_local_bypass(false);
    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let proxy = client.bind("dyn1").unwrap();
    let arg = Any::new(TypeCode::Double, Value::Double(21.0)).unwrap();
    let reply = proxy.call("double").any_arg(&arg).invoke().unwrap();
    let out = reply.any(0, &TypeCode::Double).unwrap();
    assert_eq!(out.value, Value::Double(42.0));
    group.shutdown();
    handle.join().unwrap();
}

#[test]
fn object_ref_stringify_roundtrip() {
    let (orb, host) = Orb::single_host();
    let (group, handle, _) = spawn_calc_server(&orb, host, "calc6");
    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let proxy = client.bind("calc6").unwrap();
    let s = proxy.object().stringify();
    assert!(s.starts_with("PARDIS:"));
    let back = ObjectRef::destringify(&s).unwrap();
    assert_eq!(&back, proxy.object());
    assert!(ObjectRef::destringify("garbage").is_none());
    group.shutdown();
    handle.join().unwrap();
}

#[test]
fn distributed_args_rejected_on_single_objects() {
    let (orb, host) = Orb::single_host();
    let (group, handle, _) = spawn_calc_server(&orb, host, "calc7");
    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let proxy = client.bind("calc7").unwrap();
    let ds = DSequence::concentrated(vec![1.0f64]);
    let err = proxy.call("add").dseq_in(&ds).invoke().unwrap_err();
    assert!(matches!(err, OrbError::Protocol(_)));
    group.shutdown();
    handle.join().unwrap();
}

#[test]
fn cancel_unregisters_invocation() {
    let (orb, host) = Orb::single_host();
    let group = ServerGroup::create(&orb, "idle", host, 1);
    let mut _poa = group.attach(0, None);
    _poa.activate_single("idle1", Arc::new(Calc { calls: Arc::new(AtomicUsize::new(0)) }));
    orb.set_local_bypass(false);

    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let proxy = client.bind("idle1").unwrap();
    let inv = proxy.call("noop").invoke_nb().unwrap();
    inv.cancel(); // nobody is polling; must not hang or panic
}

#[test]
fn network_delay_is_charged_between_hosts() {
    use pardis_netsim::{Link, Network, TimeScale};
    let net = Network::new(TimeScale::off());
    let h1 = net.add_host("h1");
    let h2 = net.add_host("h2");
    net.connect(h1, h2, Link::new(0.25, 1e9, 0.0));
    let orb = Orb::new(net);

    let group = ServerGroup::create(&orb, "remote", host_of(&orb, "h2"), 1);
    let g = group.clone();
    let handle = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single("remote1", Arc::new(Calc { calls: Arc::new(AtomicUsize::new(0)) }));
        poa.impl_is_ready();
    });

    let client = ClientGroup::create(&orb, host_of(&orb, "h1"), 1).attach(0, None);
    let proxy = client.bind("remote1").unwrap();
    let before = orb.network().clock().now();
    proxy.call("add").arg(&1i32).arg(&1i32).invoke().unwrap();
    let elapsed = orb.network().clock().now() - before;
    // Request + reply each pay 0.25 s modelled latency.
    assert!(elapsed >= 0.5, "modelled time {elapsed}");
    group.shutdown();
    handle.join().unwrap();
}

/// A send to an endpoint whose receiver has gone away is a drop, not an
/// error, whether the sender blocks or not; an endpoint never registered is
/// one.
#[test]
fn send_to_vanished_receiver_is_a_drop_in_both_modes() {
    use crate::protocol::Message;
    use pardis_netsim::{Network, TimeScale};
    for blocking in [true, false] {
        let net = Network::new(TimeScale::off());
        let net = if blocking { net.blocking() } else { net };
        let host = net.add_host("h");
        let orb = Orb::new(net);
        let (ep, rx) = orb.register_endpoint(host);
        orb.send(host, ep, &Message::Close).unwrap();
        assert!(rx.try_recv().is_some(), "blocking {blocking}: delivered");
        drop(rx);
        assert!(
            orb.send(host, ep, &Message::Close).is_ok(),
            "blocking {blocking}: vanished receiver"
        );
        orb.unregister_endpoint(ep);
        assert!(
            matches!(orb.send(host, ep, &Message::Close), Err(OrbError::Disconnected)),
            "blocking {blocking}: unknown endpoint"
        );
    }
}

/// The endpoint table never forgets an endpoint, so a frame for one whose
/// receiver is gone must be dropped, not queued: its queue stays empty.
#[test]
fn a_dead_endpoint_queues_nothing() {
    use crate::protocol::Message;
    let (orb, host) = Orb::single_host();
    let (ep, rx) = orb.register_endpoint(host);
    drop(rx);
    for _ in 0..1_000 {
        assert!(orb.send_wire(host, ep, Message::Close.encode().into()).is_ok());
    }
    assert_eq!(orb.queued_frames(ep), Some(0));
}

fn host_of(orb: &Orb, name: &str) -> pardis_netsim::HostId {
    orb.network().host_by_name(name).unwrap()
}
