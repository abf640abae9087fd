//! End-to-end tests: SPMD objects, parallel clients, distributed arguments.

use crate::*;
use pardis_rts::{MpiRts, ReduceOp, Rts, World};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// SPMD vector servant: scale (dseq in → dseq out), sum (collective
/// reduction inside the servant), len (scalar round trip).
struct VecOps;

impl Servant for VecOps {
    fn interface(&self) -> &str {
        "vecops"
    }
    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        let mut rep = ServerReply::new();
        match req.op {
            "scale" => {
                let factor: f64 = req.scalar(0).map_err(|e| e.to_string())?;
                let v: DSequence<f64> = req.dseq(0).map_err(|e| e.to_string())?;
                let scaled: Vec<f64> = v.local().iter().map(|x| x * factor).collect();
                let out = DSequence::from_local(
                    scaled,
                    v.len(),
                    v.dist().clone(),
                    v.nthreads(),
                    v.thread(),
                );
                rep.push_scalar(&(v.len() as i64));
                rep.push_dseq(out);
                Ok(rep)
            }
            "sum" => {
                let v: DSequence<f64> = req.dseq(0).map_err(|e| e.to_string())?;
                let local: f64 = v.local().iter().sum();
                let total = if req.ctx.nthreads > 1 {
                    req.ctx.rts().all_reduce_f64(local, ReduceOp::Sum)
                } else {
                    local
                };
                rep.push_scalar(&total);
                Ok(rep)
            }
            "rev_rows" => {
                // Nested dynamic elements (the paper's `matrix`).
                let m: DSequence<Vec<f64>> = req.dseq(0).map_err(|e| e.to_string())?;
                let rev: Vec<Vec<f64>> =
                    m.local().iter().map(|row| row.iter().rev().copied().collect()).collect();
                let out =
                    DSequence::from_local(rev, m.len(), m.dist().clone(), m.nthreads(), m.thread());
                rep.push_dseq(out);
                Ok(rep)
            }
            other => Err(format!("vecops has no operation {other:?}")),
        }
    }
}

/// Start a parallel VecOps server with `n` computing threads; returns the
/// group handle and the join handle.
fn spawn_vec_server(
    orb: &Orb,
    host: pardis_netsim::HostId,
    name: &str,
    n: usize,
    policy: DistPolicy,
) -> (ServerGroup, std::thread::JoinHandle<()>) {
    let group = ServerGroup::create(orb, "vec-server", host, n);
    let g = group.clone();
    let name = name.to_string();
    let handle = std::thread::spawn(move || {
        World::run(n, |rank| {
            let t = rank.rank();
            let rts: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
            let mut poa = g.attach(t, Some(rts));
            poa.activate_spmd(&name, Arc::new(VecOps), policy.clone());
            poa.impl_is_ready();
        });
    });
    (group, handle)
}

/// Run `f` as an SPMD client of `m` threads; returns per-thread results.
fn run_client<R: Send>(
    orb: &Orb,
    host: pardis_netsim::HostId,
    m: usize,
    f: impl Fn(&ClientThread) -> R + Send + Sync,
) -> Vec<R> {
    let group = ClientGroup::create(orb, host, m);
    World::run(m, |rank| {
        let t = rank.rank();
        let rts: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
        let ct = group.attach(t, if m > 1 { Some(rts) } else { None });
        f(&ct)
    })
}

#[test]
fn spmd_scale_block_to_block() {
    let (orb, host) = Orb::single_host();
    let (group, handle) = spawn_vec_server(&orb, host, "vec1", 3, DistPolicy::new());

    let full: Vec<f64> = (0..20).map(|i| i as f64).collect();
    let expect: Vec<f64> = full.iter().map(|x| x * 2.5).collect();
    let out = run_client(&orb, host, 2, |ct| {
        let proxy = ct.spmd_bind("vec1").unwrap();
        let v = DSequence::distribute(&full, Distribution::Block, 2, ct.thread());
        let reply = proxy
            .call("scale")
            .arg(&2.5f64)
            .dseq_in(&v)
            .dseq_out(Distribution::Block)
            .invoke()
            .unwrap();
        let len: i64 = reply.scalar(0).unwrap();
        assert_eq!(len, 20);
        let r: DSequence<f64> = reply.dseq(0).unwrap();
        (r.thread(), r.local().to_vec())
    });
    assert_eq!(out[0].1, expect[..10].to_vec());
    assert_eq!(out[1].1, expect[10..].to_vec());

    group.shutdown();
    handle.join().unwrap();
}

#[test]
fn completed_invocation_lets_go_of_its_request_frames() {
    // The control and in-fragment frames are kept for retransmission only
    // while a retransmission can still happen: holding the results of a
    // finished call must not pin a copy of its arguments.
    let (orb, host) = Orb::single_host();
    let (group, handle) = spawn_vec_server(&orb, host, "vec-replay", 2, DistPolicy::new());
    let full: Vec<f64> = (0..64).map(|i| i as f64).collect();
    run_client(&orb, host, 2, |ct| {
        let proxy = ct.spmd_bind("vec-replay").unwrap();
        let v = DSequence::distribute(&full, Distribution::Block, 2, ct.thread());
        let call = proxy.call("scale").arg(&2.0f64).dseq_in(&v).dseq_out(Distribution::Block);
        let pending = call.invoke_nb().unwrap();
        // Thread 0 (the lead) owes server thread 0 its fragment, which
        // carries the control there: one merged frame plus the lone control
        // to server thread 1. Thread 1 keeps both controls and its fragment.
        let expected = if ct.thread() == 0 { 2 } else { 3 };
        assert_eq!(pending.replay_frames(), expected, "client thread {}", ct.thread());
        let reply = pending.wait().unwrap();
        assert_eq!(reply.replay_frames(), 0);
        assert_eq!(reply.dseq::<f64>(0).unwrap().local().len(), 32);
    });
    group.shutdown();
    handle.join().unwrap();
}

#[test]
fn spmd_scale_cyclic_client_distribution() {
    let (orb, host) = Orb::single_host();
    let (group, handle) = spawn_vec_server(&orb, host, "vec2", 2, DistPolicy::new());

    let full: Vec<f64> = (0..15).map(|i| i as f64).collect();
    let out = run_client(&orb, host, 3, |ct| {
        let proxy = ct.spmd_bind("vec2").unwrap();
        let v = DSequence::distribute(&full, Distribution::Cyclic, 3, ct.thread());
        let reply = proxy
            .call("scale")
            .arg(&-1.0f64)
            .dseq_in(&v)
            .dseq_out(Distribution::Cyclic)
            .invoke()
            .unwrap();
        let r: DSequence<f64> = reply.dseq(0).unwrap();
        r.local_iter().map(|(g, v)| (g, *v)).collect::<Vec<_>>()
    });
    for (t, pairs) in out.iter().enumerate() {
        for (g, v) in pairs {
            assert_eq!(*g % 3, t as u64);
            assert_eq!(*v, -(*g as f64));
        }
    }
    group.shutdown();
    handle.join().unwrap();
}

#[test]
fn servant_collectives_inside_dispatch() {
    let (orb, host) = Orb::single_host();
    let (group, handle) = spawn_vec_server(&orb, host, "vec3", 4, DistPolicy::new());

    let full: Vec<f64> = (1..=10).map(|i| i as f64).collect();
    let out = run_client(&orb, host, 2, |ct| {
        let proxy = ct.spmd_bind("vec3").unwrap();
        let v = DSequence::distribute(&full, Distribution::Block, 2, ct.thread());
        let reply = proxy.call("sum").dseq_in(&v).invoke().unwrap();
        reply.scalar::<f64>(0).unwrap()
    });
    assert_eq!(out, vec![55.0, 55.0], "every client thread gets the reduction");
    group.shutdown();
    handle.join().unwrap();
}

#[test]
fn nested_matrix_rows_roundtrip() {
    let (orb, host) = Orb::single_host();
    let (group, handle) = spawn_vec_server(&orb, host, "vec4", 2, DistPolicy::new());

    let rows: Vec<Vec<f64>> = (0..9).map(|i| (0..i).map(|j| j as f64).collect()).collect();
    let out = run_client(&orb, host, 2, |ct| {
        let proxy = ct.spmd_bind("vec4").unwrap();
        let m = DSequence::distribute(&rows, Distribution::Block, 2, ct.thread());
        let reply =
            proxy.call("rev_rows").dseq_in(&m).dseq_out(Distribution::Block).invoke().unwrap();
        let r: DSequence<Vec<f64>> = reply.dseq(0).unwrap();
        r.local_iter().map(|(g, row)| (g, row.clone())).collect::<Vec<_>>()
    });
    for pairs in out {
        for (g, row) in pairs {
            let mut expect: Vec<f64> = (0..g).map(|j| j as f64).collect();
            expect.reverse();
            assert_eq!(row, expect);
        }
    }
    group.shutdown();
    handle.join().unwrap();
}

#[test]
fn funneled_strategy_gives_same_answers() {
    let (orb, host) = Orb::single_host();
    orb.set_transfer_strategy(TransferStrategy::Funneled);
    let (group, handle) = spawn_vec_server(&orb, host, "vec5", 3, DistPolicy::new());

    let full: Vec<f64> = (0..25).map(|i| i as f64).collect();
    let expect: Vec<f64> = full.iter().map(|x| x * 3.0).collect();
    let out = run_client(&orb, host, 2, |ct| {
        let proxy = ct.spmd_bind("vec5").unwrap();
        let v = DSequence::distribute(&full, Distribution::Block, 2, ct.thread());
        let reply = proxy
            .call("scale")
            .arg(&3.0f64)
            .dseq_in(&v)
            .dseq_out(Distribution::Block)
            .invoke()
            .unwrap();
        let r: DSequence<f64> = reply.dseq(0).unwrap();
        r.local().to_vec()
    });
    assert_eq!(out[0], expect[..13].to_vec());
    assert_eq!(out[1], expect[13..].to_vec());
    group.shutdown();
    handle.join().unwrap();
}

/// Counts the calls each server thread ran.
struct Tally(Arc<Vec<AtomicU64>>);

impl Servant for Tally {
    fn interface(&self) -> &str {
        "tally"
    }
    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        self.0[req.ctx.thread].fetch_add(1, Ordering::SeqCst);
        Ok(ServerReply::new())
    }
}

#[test]
fn funneled_binding_order_survives_oneway_calls_and_strategy_switches() {
    // Funneled, a reply leaves only once every server thread has run the
    // call, and a oneway call waits for that reply: when it returns, its
    // control has reached every thread.
    let (orb, host) = Orb::single_host();
    orb.set_transfer_strategy(TransferStrategy::Funneled);
    let tally = Arc::new((0..3).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
    let group = ServerGroup::create(&orb, "tally-server", host, 3);
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let server = {
        let (group, tally) = (group.clone(), tally.clone());
        std::thread::spawn(move || {
            World::run(3, |rank| {
                let t = rank.rank();
                let mut poa = group.attach(t, Some(Arc::new(MpiRts::new(rank))));
                poa.activate_spmd("tally1", Arc::new(Tally(tally.clone())), DistPolicy::new());
                ready_tx.send(()).unwrap();
                poa.impl_is_ready();
            });
        })
    };
    for _ in 0..3 {
        ready_rx.recv().unwrap();
    }
    run_client(&orb, host, 1, |ct| {
        let proxy = ct.spmd_bind("tally1").unwrap();
        for i in 1..=3 {
            proxy.call("hit").invoke_oneway().unwrap();
            let ran: Vec<u64> = tally.iter().map(|h| h.load(Ordering::SeqCst)).collect();
            assert_eq!(ran, [i; 3], "after oneway call {i}");
        }
        // A binding's parallel calls between its funneled ones leave no gap
        // in the request ids its funneled calls wait for.
        orb.set_timeout(std::time::Duration::from_secs(5));
        for strategy in [TransferStrategy::Parallel, TransferStrategy::Funneled] {
            orb.set_transfer_strategy(strategy);
            proxy.call("hit").invoke().unwrap();
        }
    });
    group.shutdown();
    server.join().unwrap();
}

#[test]
fn single_client_uses_nondistributed_stub() {
    // The second stub PARDIS generates: a single client passes whole
    // sequences to an SPMD object (§3.1).
    let (orb, host) = Orb::single_host();
    let (group, handle) = spawn_vec_server(&orb, host, "vec6", 3, DistPolicy::new());

    let full: Vec<f64> = (0..11).map(|i| i as f64).collect();
    let out = run_client(&orb, host, 1, |ct| {
        let proxy = ct.spmd_bind("vec6").unwrap();
        let reply = proxy
            .call("scale")
            .arg(&10.0f64)
            .dseq_in_full(full.clone())
            .dseq_out(Distribution::Concentrated(0))
            .invoke()
            .unwrap();
        let r: DSequence<f64> = reply.dseq(0).unwrap();
        r.local().to_vec()
    });
    assert_eq!(out[0], full.iter().map(|x| x * 10.0).collect::<Vec<f64>>());
    group.shutdown();
    handle.join().unwrap();
}

#[test]
fn server_in_dist_policy_is_honoured() {
    // Server declares it wants `scale`'s vector concentrated on its thread
    // 1; the transfer plan must deliver everything there.
    let (orb, host) = Orb::single_host();
    let policy = DistPolicy::new().with("scale", 1, Distribution::Concentrated(1));
    let (group, handle) = spawn_vec_server(&orb, host, "vec7", 2, policy);

    let full: Vec<f64> = (0..8).map(|i| i as f64).collect();
    let out = run_client(&orb, host, 2, |ct| {
        let proxy = ct.spmd_bind("vec7").unwrap();
        let v = DSequence::distribute(&full, Distribution::Block, 2, ct.thread());
        let reply = proxy
            .call("scale")
            .arg(&1.0f64)
            .dseq_in(&v)
            .dseq_out(Distribution::Block)
            .invoke()
            .unwrap();
        let r: DSequence<f64> = reply.dseq(0).unwrap();
        r.local().to_vec()
    });
    // The servant kept the concentrated dist for its out arg; the ORB still
    // delivered the expected block distribution to the client.
    assert_eq!(out[0], full[..4].to_vec());
    assert_eq!(out[1], full[4..].to_vec());
    group.shutdown();
    handle.join().unwrap();
}

#[test]
fn nonblocking_spmd_futures_resolve_on_all_threads() {
    let (orb, host) = Orb::single_host();
    let (group, handle) = spawn_vec_server(&orb, host, "vec8", 2, DistPolicy::new());

    let full: Vec<f64> = (0..12).map(|i| i as f64).collect();
    let out = run_client(&orb, host, 2, |ct| {
        let proxy = ct.spmd_bind("vec8").unwrap();
        let v = DSequence::distribute(&full, Distribution::Block, 2, ct.thread());
        let inv = proxy
            .call("scale")
            .arg(&0.5f64)
            .dseq_in(&v)
            .dseq_out(Distribution::Block)
            .invoke_nb()
            .unwrap();
        let len_fut: PFuture<i64> = inv.scalar_future(0);
        let vec_fut: DSeqFuture<f64> = inv.dseq_future(0);
        // Blocking read; both futures resolve together.
        let r = vec_fut.get().unwrap();
        assert!(len_fut.resolved());
        assert_eq!(len_fut.get().unwrap(), 12);
        r.local().to_vec()
    });
    assert_eq!(out[0], (0..6).map(|i| i as f64 * 0.5).collect::<Vec<f64>>());
    assert_eq!(out[1], (6..12).map(|i| i as f64 * 0.5).collect::<Vec<f64>>());
    group.shutdown();
    handle.join().unwrap();
}

/// Fig-4-style shape: an SPMD object plus single objects owned by different
/// computing threads of the same parallel server.
#[test]
fn single_objects_share_a_parallel_server() {
    struct ThreadTag;
    impl Servant for ThreadTag {
        fn interface(&self) -> &str {
            "tag"
        }
        fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
            let mut rep = ServerReply::new();
            rep.push_scalar(&(req.ctx.thread as i64));
            Ok(rep)
        }
    }

    let (orb, host) = Orb::single_host();
    orb.set_local_bypass(false); // force the wire so thread routing is tested
    let n = 3;
    let group = ServerGroup::create(&orb, "multi", host, n);
    let g = group.clone();
    let handle = std::thread::spawn(move || {
        World::run(n, |rank| {
            let t = rank.rank();
            let rts: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
            let mut poa = g.attach(t, Some(rts));
            poa.activate_spmd("spmd-main", Arc::new(VecOps), DistPolicy::new());
            // Each computing thread owns one single object.
            poa.activate_single(&format!("tag{t}"), Arc::new(ThreadTag));
            poa.impl_is_ready();
        });
    });

    let out = run_client(&orb, host, 1, |ct| {
        (0..n)
            .map(|t| {
                let proxy = ct.bind(&format!("tag{t}")).unwrap();
                let reply = proxy.call("who").invoke().unwrap();
                reply.scalar::<i64>(0).unwrap()
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(out[0], vec![0, 1, 2], "each single object dispatches on its owner thread");
    group.shutdown();
    handle.join().unwrap();
}

#[test]
fn spmd_exception_reaches_all_client_threads() {
    let (orb, host) = Orb::single_host();
    let (group, handle) = spawn_vec_server(&orb, host, "vec9", 2, DistPolicy::new());
    let out = run_client(&orb, host, 2, |ct| {
        let proxy = ct.spmd_bind("vec9").unwrap();
        proxy.call("nonsense").invoke().unwrap_err()
    });
    for err in out {
        assert!(matches!(err, OrbError::ServerException(_)));
    }
    group.shutdown();
    handle.join().unwrap();
}

#[test]
fn many_inflight_nonblocking_invocations() {
    // Stress fragment routing: 16 nb invocations in flight at once from
    // both client threads, resolved out of order.
    let (orb, host) = Orb::single_host();
    let (group, handle) = spawn_vec_server(&orb, host, "vec_stress", 3, DistPolicy::new());

    let full: Vec<f64> = (0..30).map(|i| i as f64).collect();
    let out = run_client(&orb, host, 2, |ct| {
        let proxy = ct.spmd_bind("vec_stress").unwrap();
        let v = DSequence::distribute(&full, Distribution::Block, 2, ct.thread());
        let invs: Vec<_> = (0..16)
            .map(|k| {
                proxy
                    .call("scale")
                    .arg(&(k as f64))
                    .dseq_in(&v)
                    .dseq_out(Distribution::Block)
                    .invoke_nb()
                    .unwrap()
            })
            .collect();
        // Resolve newest-first to exercise out-of-order delivery.
        let mut sums = vec![0.0; 16];
        for (k, inv) in invs.into_iter().enumerate().rev() {
            let r: DSequence<f64> = inv.dseq_future(0).get().unwrap();
            sums[k] = r.local().iter().sum::<f64>();
        }
        sums
    });
    let base0: f64 = full[..15].iter().sum();
    let base1: f64 = full[15..].iter().sum();
    for (t, sums) in out.iter().enumerate() {
        let base = if t == 0 { base0 } else { base1 };
        for (k, s) in sums.iter().enumerate() {
            assert!((s - base * k as f64).abs() < 1e-9, "thread {t}, call {k}: {s}");
        }
    }
    group.shutdown();
    handle.join().unwrap();
}

mod orb_property {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// A full SPMD round trip preserves values under random sizes,
        /// client thread counts, server thread counts, and distribution
        /// template choices on both sides.
        #[test]
        fn random_shapes_roundtrip(
            len in 1usize..60,
            server_n in 1usize..4,
            client_n in 1usize..4,
            client_cyclic in any::<bool>(),
            server_choice in 0usize..3,
            factor in -4.0f64..4.0,
        ) {
            let server_dist = match server_choice {
                0 => Distribution::Block,
                1 => Distribution::Cyclic,
                _ => Distribution::BlockCyclic(3),
            };
            let policy = DistPolicy::new().with("scale", 1, server_dist);
            let (orb, host) = Orb::single_host();
            let (group, handle) = spawn_vec_server(&orb, host, "vec_prop", server_n, policy);
            let full: Vec<f64> = (0..len).map(|i| i as f64 * 0.5).collect();
            let client_dist =
                if client_cyclic { Distribution::Cyclic } else { Distribution::Block };
            let expect: Vec<f64> = full.iter().map(|x| x * factor).collect();
            let out = run_client(&orb, host, client_n, |ct| {
                let proxy = ct.spmd_bind("vec_prop").unwrap();
                let v = DSequence::distribute(&full, client_dist.clone(), client_n, ct.thread());
                let reply = proxy
                    .call("scale")
                    .arg(&factor)
                    .dseq_in(&v)
                    .dseq_out(client_dist.clone())
                    .invoke()
                    .unwrap();
                let r: DSequence<f64> = reply.dseq(0).unwrap();
                r.local_iter().map(|(g, v)| (g, *v)).collect::<Vec<_>>()
            });
            let mut seen = vec![false; len];
            for pairs in out {
                for (g, v) in pairs {
                    prop_assert!((v - expect[g as usize]).abs() < 1e-9);
                    prop_assert!(!seen[g as usize], "element delivered twice");
                    seen[g as usize] = true;
                }
            }
            prop_assert!(seen.iter().all(|&b| b), "every element delivered");
            group.shutdown();
            handle.join().unwrap();
        }
    }
}

#[test]
fn cross_host_spmd_transfer_charges_interhost_link() {
    use pardis_netsim::{LinkPreset, Network, TimeScale};
    let net = Network::new(TimeScale::off());
    let h1 = net.add_host("client-host");
    let h2 = net.add_host("server-host");
    net.connect(h1, h2, LinkPreset::AtmOc3.link());
    let orb = Orb::new(net);

    let (group, handle) = spawn_vec_server(&orb, h2, "vecx", 2, DistPolicy::new());
    let full: Vec<f64> = (0..1000).map(|i| i as f64).collect();
    let before = orb.network().clock().now();
    let out = run_client(&orb, h1, 2, |ct| {
        let proxy = ct.spmd_bind("vecx").unwrap();
        let v = DSequence::distribute(&full, Distribution::Block, 2, ct.thread());
        let reply = proxy
            .call("scale")
            .arg(&2.0f64)
            .dseq_in(&v)
            .dseq_out(Distribution::Block)
            .invoke()
            .unwrap();
        let r: DSequence<f64> = reply.dseq(0).unwrap();
        r.local().iter().sum::<f64>()
    });
    let modelled = orb.network().clock().now() - before;
    assert!(modelled > 0.0, "inter-host traffic must charge the ATM link");
    let total: f64 = out.iter().sum();
    assert_eq!(total, (0..1000).map(|i| i as f64 * 2.0).sum::<f64>());
    group.shutdown();
    handle.join().unwrap();
}
