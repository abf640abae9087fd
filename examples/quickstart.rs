//! Quickstart: one SPMD server, one parallel client, one invocation.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Uses the `direct` solver interface generated from `idl/solvers.idl` to
//! solve a small linear system on a 2-thread SPMD server, from a 2-thread
//! SPMD client, with the matrix distributed over the client's address
//! spaces.

use pardis::core::{ClientGroup, DSequence, Distribution, Orb};
use pardis::generated::solvers::DirectProxy;
use pardis::rts::{MpiRts, Rts, World};
use pardis_apps::solvers::{gen_system, spawn_direct_server};
use std::sync::Arc;

fn main() {
    // 1. An ORB over a trivial one-host network (no delay injection).
    let (orb, host) = Orb::single_host();

    // 2. A parallel server: 2 computing threads implementing the SPMD
    //    object "direct_solver". The launcher spawns the threads, attaches
    //    each to the ORB, activates the generated skeleton and enters
    //    impl_is_ready().
    let server = spawn_direct_server(&orb, host, "direct_solver", 2, None);

    // 3. A parallel client: 2 computing threads acting as one entity.
    let n = 64;
    let (a, b) = gen_system(n, 1);
    let client = ClientGroup::create(&orb, host, 2);
    let x = World::run(2, |rank| {
        let t = rank.rank();
        let rts: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
        let ct = client.attach(t, Some(rts));

        // Collective bind; the proxy type comes from the IDL compiler.
        let solver = DirectProxy::spmd_bind(&ct, "direct_solver").expect("bind");

        // The arguments are sequences distributed over the client's two
        // address spaces; the ORB plans the transfer to the server's
        // distribution on its own.
        let a_ds = DSequence::distribute(&a, Distribution::Block, 2, t);
        let b_ds = DSequence::distribute(&b, Distribution::Block, 2, t);
        let (x,) = solver.solve(&a_ds, &b_ds, Distribution::Block).expect("solve");
        x.local().to_vec()
    });

    // 4. Check the residual of the assembled solution.
    let full: Vec<f64> = x.into_iter().flatten().collect();
    let mut worst: f64 = 0.0;
    for (i, row) in a.iter().enumerate() {
        let ax: f64 = row.iter().zip(&full).map(|(r, v)| r * v).sum();
        worst = worst.max((ax - b[i]).abs());
    }
    println!("solved {n}x{n} system over PARDIS; max residual {worst:.3e}");
    assert!(worst < 1e-8);

    server.shutdown();
    println!("done.");
}
