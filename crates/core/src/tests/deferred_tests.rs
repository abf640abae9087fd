//! Deferred replies and cross-binding dispatch ordering.

use crate::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A servant that defers every `slow` call and answers `fast` immediately.
struct Mixed {
    log: Arc<Mutex<Vec<String>>>,
}

impl Servant for Mixed {
    fn interface(&self) -> &str {
        "mixed"
    }
    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        self.log.lock().unwrap().push(format!("fast:{}", req.op));
        let mut rep = ServerReply::new();
        rep.push_scalar(&"now".to_string());
        Ok(rep)
    }
    fn dispatch_deferred(&self, req: ServerRequest<'_>) -> Result<DispatchResult, String> {
        if req.op == "slow" {
            self.log.lock().unwrap().push("deferred:slow".to_string());
            Ok(DispatchResult::Defer)
        } else {
            self.dispatch(req).map(DispatchResult::Reply)
        }
    }
}

#[test]
fn deferred_reply_completes_later() {
    let (orb, host) = Orb::single_host();
    orb.set_local_bypass(false);
    let log = Arc::new(Mutex::new(Vec::new()));
    let group = ServerGroup::create(&orb, "mixed", host, 1);
    let (g, l) = (group.clone(), log.clone());
    let server = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single("mixed1", Arc::new(Mixed { log: l }));
        let mut parked = Vec::new();
        while !poa.is_closed() {
            poa.process_requests();
            parked.extend(poa.take_deferred());
            // Complete parked calls after one extra loop turn, proving the
            // reply really is decoupled from the dispatch.
            if parked.len() >= 2 {
                for call in parked.drain(..) {
                    assert_eq!(call.op(), "slow");
                    let mut rep = ServerReply::new();
                    rep.push_scalar(&"later".to_string());
                    poa.reply_deferred(call, Ok(rep));
                }
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    });

    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let proxy = client.bind("mixed1").unwrap();
    let slow1 = proxy.call("slow").invoke_nb().unwrap();
    let slow2 = proxy.call("slow").invoke_nb().unwrap();
    // Both parked calls resolve once the server completes them.
    assert_eq!(slow1.wait().unwrap().scalar::<String>(0).unwrap(), "later");
    assert_eq!(slow2.wait().unwrap().scalar::<String>(0).unwrap(), "later");

    // Entity ordering: both dispatches happened before either reply.
    let seen = log.lock().unwrap().clone();
    assert_eq!(seen, vec!["deferred:slow", "deferred:slow"]);

    group.shutdown();
    server.join().unwrap();
}

#[test]
fn deferred_exception_propagates() {
    let (orb, host) = Orb::single_host();
    orb.set_local_bypass(false);
    let group = ServerGroup::create(&orb, "mixed", host, 1);
    let g = group.clone();
    let server = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single("m2", Arc::new(Mixed { log: Arc::new(Mutex::new(Vec::new())) }));
        while !poa.is_closed() {
            poa.process_requests();
            for call in poa.take_deferred() {
                poa.reply_deferred(call, Err("gave up".into()));
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    });
    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let proxy = client.bind("m2").unwrap();
    let err = proxy.call("slow").invoke().unwrap_err();
    assert_eq!(err, OrbError::ServerException("gave up".into()));
    group.shutdown();
    server.join().unwrap();
}

/// Two SPMD objects on one parallel server invoked back-to-back by one
/// client must dispatch in the same order on every computing thread —
/// otherwise their servants' internal collectives would cross (this is the
/// regression test for the entity-sequencing fix).
#[test]
fn cross_binding_collective_order_is_consistent() {
    use pardis_rts::{MpiRts, ReduceOp, Rts, World};

    struct Reducer {
        tag: f64,
    }
    impl Servant for Reducer {
        fn interface(&self) -> &str {
            "reducer"
        }
        fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
            // A collective inside the servant: if thread dispatch order ever
            // diverged between objects, these reductions would pair up
            // wrongly across objects and the sums would be garbage (or the
            // server would deadlock).
            let total = req.ctx.rts().all_reduce_f64(self.tag, ReduceOp::Sum);
            let mut rep = ServerReply::new();
            rep.push_scalar(&total);
            Ok(rep)
        }
    }

    let (orb, host) = Orb::single_host();
    let n = 3;
    let group = ServerGroup::create(&orb, "two-objs", host, n);
    let g = group.clone();
    let server = std::thread::spawn(move || {
        World::run(n, |rank| {
            let t = rank.rank();
            let rts: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
            let mut poa = g.attach(t, Some(rts));
            poa.activate_spmd("obj_a", Arc::new(Reducer { tag: 1.0 }), DistPolicy::new());
            poa.activate_spmd("obj_b", Arc::new(Reducer { tag: 10.0 }), DistPolicy::new());
            poa.impl_is_ready();
        });
    });

    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let a = client.spmd_bind("obj_a").unwrap();
    let b = client.spmd_bind("obj_b").unwrap();
    for round in 0..10 {
        // Fire both non-blocking so they are in flight together.
        let (first, second) = if round % 2 == 0 { (&a, &b) } else { (&b, &a) };
        let f1 = first.call("go").invoke_nb().unwrap();
        let f2 = second.call("go").invoke_nb().unwrap();
        let v1 = f1.wait().unwrap().scalar::<f64>(0).unwrap();
        let v2 = f2.wait().unwrap().scalar::<f64>(0).unwrap();
        let mut got = [v1, v2];
        got.sort_by(f64::total_cmp);
        assert_eq!(got, [3.0, 30.0], "round {round}: collectives crossed objects");
    }
    group.shutdown();
    server.join().unwrap();
}

#[test]
fn interleaved_bindings_from_one_thread_keep_fifo_per_binding() {
    struct Tagger;
    impl Servant for Tagger {
        fn interface(&self) -> &str {
            "tagger"
        }
        fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
            let v: i64 = req.scalar(0).map_err(|e| e.to_string())?;
            let mut rep = ServerReply::new();
            rep.push_scalar(&(v * 2));
            Ok(rep)
        }
    }
    let (orb, host) = Orb::single_host();
    orb.set_local_bypass(false);
    let group = ServerGroup::create(&orb, "tagger", host, 1);
    let g = group.clone();
    let server = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single("t1", Arc::new(Tagger));
        poa.activate_single("t2", Arc::new(Tagger));
        poa.impl_is_ready();
    });
    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let p1 = client.bind("t1").unwrap();
    let p2 = client.bind("t2").unwrap();
    let mut handles = Vec::new();
    for i in 0..10i64 {
        handles.push(p1.call("x").arg(&i).invoke_nb().unwrap());
        handles.push(p2.call("x").arg(&(100 + i)).invoke_nb().unwrap());
    }
    let mut results: Vec<i64> =
        handles.into_iter().map(|h| h.wait().unwrap().scalar::<i64>(0).unwrap()).collect();
    let expect: Vec<i64> = (0..10i64).flat_map(|i| [i * 2, (100 + i) * 2]).collect();
    assert_eq!(results, expect);
    results.sort_unstable();
    group.shutdown();
    server.join().unwrap();
}
