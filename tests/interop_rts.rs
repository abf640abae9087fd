//! Interoperability with different run-time systems (§3.4): the same
//! generated skeletons and the same ORB served over the MPI-like runtime,
//! the Tulip one-sided runtime, and POOMA's communication abstraction —
//! the paper's three RTS ports.

use pardis::core::{ClientGroup, DSequence, Distribution, Orb};
use pardis::generated::solvers::{DirectProxy, DirectSkel};
use pardis::pooma::PoomaComm;
use pardis::rts::{Rts, TulipWorld, World};
use pardis_apps::solvers::{direct_policy, gen_system, solve_seq, DirectSolver};
use std::sync::Arc;

fn solve_against(orb: &Orb, host: pardis::netsim::HostId, a: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
    let client = ClientGroup::create(orb, host, 1).attach(0, None);
    let proxy = DirectProxy::spmd_bind(&client, "direct_rts").unwrap();
    let (x,) = proxy.solve_single(a.to_vec(), b.to_vec()).unwrap();
    x
}

#[test]
fn direct_server_over_tulip_one_sided_rts() {
    let (orb, host) = Orb::single_host();
    let group = pardis::core::ServerGroup::create(&orb, "tulip-server", host, 3);
    let g = group.clone();
    let (_tw, endpoints) = TulipWorld::new(3);
    let join = std::thread::spawn(move || {
        std::thread::scope(|scope| {
            for ep in endpoints {
                let g = g.clone();
                scope.spawn(move || {
                    let t = ep.rank();
                    let rts: Arc<dyn Rts> = Arc::new(ep);
                    let mut poa = g.attach(t, Some(rts));
                    poa.activate_spmd(
                        "direct_rts",
                        Arc::new(DirectSkel(DirectSolver::default())),
                        direct_policy(),
                    );
                    poa.impl_is_ready();
                });
            }
        });
    });

    let (a, b) = gen_system(30, 17);
    let expect = solve_seq(&a, &b);
    let x = solve_against(&orb, host, &a, &b);
    for (g, w) in x.iter().zip(expect.iter()) {
        assert!((g - w).abs() < 1e-8, "{g} vs {w}");
    }
    group.shutdown();
    join.join().unwrap();
}

#[test]
fn direct_server_over_pooma_comm() {
    let (orb, host) = Orb::single_host();
    let group = pardis::core::ServerGroup::create(&orb, "pooma-server", host, 2);
    let g = group.clone();
    let join = std::thread::spawn(move || {
        World::run(2, |rank| {
            let t = rank.rank();
            let rts: Arc<dyn Rts> = Arc::new(PoomaComm::new(rank));
            let mut poa = g.attach(t, Some(rts));
            poa.activate_spmd(
                "direct_rts",
                Arc::new(DirectSkel(DirectSolver::default())),
                direct_policy(),
            );
            poa.impl_is_ready();
        });
    });

    let (a, b) = gen_system(22, 23);
    let expect = solve_seq(&a, &b);
    let x = solve_against(&orb, host, &a, &b);
    for (g, w) in x.iter().zip(expect.iter()) {
        assert!((g - w).abs() < 1e-8, "{g} vs {w}");
    }
    group.shutdown();
    join.join().unwrap();
}

/// A parallel *client* over Tulip talking to a server over MPI — mixed
/// run-time systems interoperating in distributed mode, as §3.4 describes.
#[test]
fn mixed_rts_client_and_server() {
    let (orb, host) = Orb::single_host();
    let server = pardis_apps::solvers::spawn_direct_server(&orb, host, "direct_rts", 2, None);

    let (a, b) = gen_system(26, 31);
    let expect = solve_seq(&a, &b);
    let client_group = ClientGroup::create(&orb, host, 2);
    let (_tw, endpoints) = TulipWorld::new(2);
    let results: Vec<Vec<f64>> = std::thread::scope(|scope| {
        endpoints
            .into_iter()
            .map(|ep| {
                let client_group = client_group.clone();
                let (a, b) = (a.clone(), b.clone());
                scope.spawn(move || {
                    let t = ep.rank();
                    let rts: Arc<dyn Rts> = Arc::new(ep);
                    let ct = client_group.attach(t, Some(rts));
                    let proxy = DirectProxy::spmd_bind(&ct, "direct_rts").unwrap();
                    let a_ds = DSequence::distribute(&a, Distribution::Block, 2, t);
                    let b_ds = DSequence::distribute(&b, Distribution::Block, 2, t);
                    let (x,) = proxy.solve(&a_ds, &b_ds, Distribution::Block).unwrap();
                    x.local().to_vec()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    let got: Vec<f64> = results.into_iter().flatten().collect();
    for (g, w) in got.iter().zip(expect.iter()) {
        assert!((g - w).abs() < 1e-8, "{g} vs {w}");
    }
    server.shutdown();
}
