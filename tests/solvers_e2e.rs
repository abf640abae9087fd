//! End-to-end §4.1: the solver metaapplication through generated stubs.

use pardis::core::{ClientGroup, DSequence, Distribution, Orb, OrbError};
use pardis::generated::solvers::{DirectProxy, IterativeProxy};
use pardis::netsim::{Network, TimeScale};
use pardis::rts::{MpiRts, World};
use pardis_apps::solvers::{
    compute_difference, gen_system, solve_seq, spawn_combined_server, spawn_direct_server,
    spawn_iterative_server,
};
use std::sync::Arc;

fn atm_orb() -> (Orb, pardis::netsim::HostId, pardis::netsim::HostId) {
    let net = Network::paper_atm_testbed(TimeScale::off());
    let h1 = net.host_by_name("HOST_1").unwrap();
    let h2 = net.host_by_name("HOST_2").unwrap();
    (Orb::new(net), h1, h2)
}

/// The client program of §4.1, nearly line for line: spmd_bind both
/// solvers, non-blocking solve on the iterative one, blocking solve on the
/// direct one, then resolve the future and compare.
#[test]
fn paper_client_program_distributed_servers() {
    let (orb, h1, h2) = atm_orb();
    let direct = spawn_direct_server(&orb, h1, "direct_solver", 2, None);
    let iterative = spawn_iterative_server(&orb, h2, "itrt_solver", 3, None);

    let n = 48;
    let (a, b) = gen_system(n, 11);
    let expect = solve_seq(&a, &b);

    let client = ClientGroup::create(&orb, h1, 2);
    let chk = pardis::check::for_world(2);
    let out = World::run(2, |rank| {
        let t = rank.rank();
        let rts = pardis::check::wrap_if(&chk, Arc::new(MpiRts::new(rank)));
        let ct = client.attach(t, Some(rts.clone()));

        // 00-01: bind.
        let d_solver = DirectProxy::spmd_bind(&ct, "direct_solver").unwrap();
        let i_solver = IterativeProxy::spmd_bind(&ct, "itrt_solver").unwrap();
        // 02-04: the system, distributed over the client's threads.
        let a_ds = DSequence::distribute(&a, Distribution::Block, 2, t);
        let b_ds = DSequence::distribute(&b, Distribution::Block, 2, t);
        // 05-08: non-blocking invocation on the iterative solver.
        let tolerance = 0.000_001;
        let x1_fut = i_solver.solve_nb(&tolerance, &a_ds, &b_ds, Distribution::Block).unwrap();
        // 09: blocking invocation on the direct solver (own computation).
        let (x2_real,) = d_solver.solve(&a_ds, &b_ds, Distribution::Block).unwrap();
        // 10: reading the future blocks until resolved.
        let x1_real = x1_fut.x.get().unwrap();
        assert!(x1_fut.resolved());
        // 11: compare.
        let difference = compute_difference(&x1_real, &x2_real, Some(rts.as_ref()));
        (difference, x2_real.local().to_vec())
    });
    pardis::check::enforce(&chk);

    let mut got = Vec::new();
    for (difference, local) in out {
        assert!(difference < 1e-5, "methods disagree by {difference}");
        got.extend(local);
    }
    for (g, w) in got.iter().zip(expect.iter()) {
        assert!((g - w).abs() < 1e-7, "direct solution wrong: {g} vs {w}");
    }

    // The reliability layer is pay-nothing when no fault plan is installed:
    // nothing was retransmitted and the fault layer touched no frame.
    assert_eq!(orb.retransmits(), 0, "fault-free run must not retransmit");
    assert_eq!(orb.network().fault_stats(), pardis::netsim::FaultStats::default());

    direct.shutdown();
    iterative.shutdown();
}

#[test]
fn single_client_uses_nondistributed_stub() {
    let (orb, h1, _h2) = atm_orb();
    let server = spawn_direct_server(&orb, h1, "direct1", 3, None);
    let (a, b) = gen_system(30, 5);
    let expect = solve_seq(&a, &b);

    let client = ClientGroup::create(&orb, h1, 1).attach(0, None);
    let proxy = DirectProxy::spmd_bind(&client, "direct1").unwrap();
    let (x,) = proxy.solve_single(a.clone(), b.clone()).unwrap();
    assert_eq!(x.len(), 30);
    for (g, w) in x.iter().zip(expect.iter()) {
        assert!((g - w).abs() < 1e-7);
    }
    server.shutdown();
}

#[test]
fn combined_server_serialises_the_two_solves() {
    // The same-server configuration: both solver objects on one parallel
    // server; the two requests share its computing threads.
    let (orb, h1, _h2) = atm_orb();
    let server = spawn_combined_server(&orb, h1, "d", "i", 2, None);
    let (a, b) = gen_system(24, 8);

    let client = ClientGroup::create(&orb, h1, 1).attach(0, None);
    let d = DirectProxy::spmd_bind(&client, "d").unwrap();
    let i = IterativeProxy::spmd_bind(&client, "i").unwrap();

    let fut = i
        .solve_nb(
            &1e-8,
            &DSequence::concentrated(a.clone()),
            &DSequence::concentrated(b.clone()),
            Distribution::Concentrated(0),
        )
        .unwrap();
    let (x2,) = d.solve_single(a, b).unwrap();
    let x1 = fut.x.get().unwrap();
    let diff = compute_difference(&x1, &DSequence::concentrated(x2), None);
    assert!(diff < 1e-5, "solvers disagree by {diff}");
    server.shutdown();
}

#[test]
fn dimension_mismatch_raises_server_exception() {
    let (orb, h1, _h2) = atm_orb();
    let server = spawn_direct_server(&orb, h1, "direct2", 2, None);
    let (a, _) = gen_system(10, 1);
    let b_wrong = vec![0.0; 7];

    let client = ClientGroup::create(&orb, h1, 1).attach(0, None);
    let proxy = DirectProxy::spmd_bind(&client, "direct2").unwrap();
    let err = proxy.solve_single(a, b_wrong).unwrap_err();
    assert!(matches!(err, OrbError::ServerException(_)), "got {err:?}");
    server.shutdown();
}

#[test]
fn funneled_transfer_same_answers() {
    let (orb, h1, h2) = atm_orb();
    orb.set_transfer_strategy(pardis::core::TransferStrategy::Funneled);
    let server = spawn_iterative_server(&orb, h2, "itrt2", 2, None);
    let (a, b) = gen_system(20, 3);
    let expect = solve_seq(&a, &b);

    let client = ClientGroup::create(&orb, h1, 2);
    let chk = pardis::check::for_world(2);
    let out = World::run(2, |rank| {
        let t = rank.rank();
        let rts = pardis::check::wrap_if(&chk, Arc::new(MpiRts::new(rank)));
        let ct = client.attach(t, Some(rts));
        let proxy = IterativeProxy::spmd_bind(&ct, "itrt2").unwrap();
        let a_ds = DSequence::distribute(&a, Distribution::Block, 2, t);
        let b_ds = DSequence::distribute(&b, Distribution::Block, 2, t);
        let (x,) = proxy.solve(&1e-9, &a_ds, &b_ds, Distribution::Block).unwrap();
        x.local().to_vec()
    });
    pardis::check::enforce(&chk);
    let got: Vec<f64> = out.into_iter().flatten().collect();
    for (g, w) in got.iter().zip(expect.iter()) {
        assert!((g - w).abs() < 1e-5, "{g} vs {w}");
    }
    server.shutdown();
}
