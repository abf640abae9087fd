//! Transfer-strategy ablation checks: the parallel (direct thread-to-thread)
//! and funneled (everything through thread 0) strategies must agree on
//! results while differing in traffic pattern, across hosts.

use pardis::core::{ClientGroup, DSequence, Distribution, Orb, TransferStrategy};
use pardis::generated::solvers::IterativeProxy;
use pardis::netsim::{Network, TimeScale};
use pardis::rts::{MpiRts, World};
use pardis_apps::solvers::{gen_system, solve_seq, spawn_iterative_server};
use std::sync::Arc;

fn run_strategy(strategy: TransferStrategy) -> (Vec<f64>, u64, u64) {
    let net = Network::paper_atm_testbed(TimeScale::off());
    let h1 = net.host_by_name("HOST_1").unwrap();
    let h2 = net.host_by_name("HOST_2").unwrap();
    let orb = Orb::new(net);
    orb.set_transfer_strategy(strategy);
    let server = spawn_iterative_server(&orb, h2, "it", 3, None);

    let (a, b) = gen_system(24, 77);
    let client = ClientGroup::create(&orb, h1, 2);
    let chk = pardis::check::for_world(2);
    let out = World::run(2, |rank| {
        let t = rank.rank();
        let rts = pardis::check::wrap_if(&chk, Arc::new(MpiRts::new(rank)));
        let ct = client.attach(t, Some(rts));
        let proxy = IterativeProxy::spmd_bind(&ct, "it").unwrap();
        let a_ds = DSequence::distribute(&a, Distribution::Block, 2, t);
        let b_ds = DSequence::distribute(&b, Distribution::Block, 2, t);
        let (x,) = proxy.solve(&1e-9, &a_ds, &b_ds, Distribution::Block).unwrap();
        x.local().to_vec()
    });
    pardis::check::enforce(&chk);
    let (frames, bytes) = orb.traffic();
    server.shutdown();
    (out.into_iter().flatten().collect(), frames, bytes)
}

#[test]
fn strategies_agree_on_results_but_not_on_traffic() {
    let (x_par, frames_par, bytes_par) = run_strategy(TransferStrategy::Parallel);
    let (x_fun, frames_fun, bytes_fun) = run_strategy(TransferStrategy::Funneled);

    let (a, b) = gen_system(24, 77);
    let expect = solve_seq(&a, &b);
    for (got, want) in x_par.iter().zip(expect.iter()) {
        assert!((got - want).abs() < 1e-6, "parallel: {got} vs {want}");
    }
    for (p, f) in x_par.iter().zip(x_fun.iter()) {
        assert!((p - f).abs() < 1e-12, "strategies disagree: {p} vs {f}");
    }

    // Parallel sends more, smaller frames (per-thread-pair pieces + one
    // control per server thread); funneled collapses onto thread 0's
    // connection.
    assert_ne!(
        (frames_par, bytes_par),
        (frames_fun, bytes_fun),
        "strategies should differ in traffic shape"
    );
    assert!(frames_par > 0 && frames_fun > 0);
}

/// The §3.2 server-side template choice: the server can demand its in-args
/// concentrated (the paper's own IDL example) and the ORB funnels them
/// there regardless of the client-side template.
#[test]
fn concentrated_server_policy_under_both_strategies() {
    use pardis::core::{DistPolicy, ServantCtx, ServerGroup};
    use pardis::generated::solvers::{IterativeImpl, IterativeSkel};

    struct WhereIsMyData;
    impl IterativeImpl for WhereIsMyData {
        fn solve(
            &self,
            ctx: &ServantCtx,
            _tol: f64,
            a: DSequence<Vec<f64>>,
            b: DSequence<f64>,
        ) -> Result<(DSequence<f64>,), String> {
            // Everything must have landed on thread 1.
            let expect_rows = if ctx.thread == 1 { a.len() } else { 0 };
            if a.local().len() as u64 != expect_rows {
                return Err(format!(
                    "thread {} holds {} rows, expected {expect_rows}",
                    ctx.thread,
                    a.local().len()
                ));
            }
            let x: Vec<f64> = if ctx.thread == 1 { b.local().to_vec() } else { Vec::new() };
            Ok((DSequence::from_local(
                x,
                b.len(),
                Distribution::Concentrated(1),
                ctx.nthreads,
                ctx.thread,
            ),))
        }
    }

    for strategy in [TransferStrategy::Parallel, TransferStrategy::Funneled] {
        let (orb, host) = Orb::single_host();
        orb.set_transfer_strategy(strategy);
        let policy = DistPolicy::new().with("solve", 0, Distribution::Concentrated(1)).with(
            "solve",
            1,
            Distribution::Concentrated(1),
        );
        let group = ServerGroup::create(&orb, "conc", host, 3);
        let g = group.clone();
        let server = std::thread::spawn(move || {
            let chk = pardis::check::for_world(3);
            World::run(3, |rank| {
                let t = rank.rank();
                let rts = pardis::check::wrap_if(&chk, Arc::new(MpiRts::new(rank)));
                let mut poa = g.attach(t, Some(rts));
                poa.activate_spmd("conc1", Arc::new(IterativeSkel(WhereIsMyData)), policy.clone());
                poa.impl_is_ready();
            });
            pardis::check::enforce(&chk);
        });

        let (a, b) = gen_system(12, 5);
        let client = ClientGroup::create(&orb, host, 2);
        let chk = pardis::check::for_world(2);
        let out = World::run(2, |rank| {
            let t = rank.rank();
            let rts = pardis::check::wrap_if(&chk, Arc::new(MpiRts::new(rank)));
            let ct = client.attach(t, Some(rts));
            let proxy = IterativeProxy::spmd_bind(&ct, "conc1").unwrap();
            let a_ds = DSequence::distribute(&a, Distribution::Block, 2, t);
            let b_ds = DSequence::distribute(&b, Distribution::Block, 2, t);
            let (x,) = proxy.solve(&1e-6, &a_ds, &b_ds, Distribution::Block).unwrap();
            x.local().to_vec()
        });
        let got: Vec<f64> = out.into_iter().flatten().collect();
        pardis::check::enforce(&chk);
        assert_eq!(got, b, "{strategy:?}: echo through the concentrated servant");
        group.shutdown();
        server.join().unwrap();
    }
}
