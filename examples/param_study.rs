//! Parameter study: the §4.1 motivation ("similar interactions occur in
//! parameter study for physical simulation and algorithm development").
//!
//! ```text
//! cargo run --release --example param_study [N]
//! ```
//!
//! The client fires one non-blocking `solve` per tolerance value at the
//! iterative solver — all of them in flight at once, on one binding, so the
//! server processes them in invocation order while the client keeps the
//! pipeline full — then resolves the futures and compares accuracy against
//! the direct method.

use pardis::core::{ClientGroup, DSequence, Distribution, Orb};
use pardis::generated::solvers::{DirectProxy, IterativeProxy};
use pardis::rts::{MpiRts, Rts, World};
use pardis_apps::solvers::{
    compute_difference, gen_system, spawn_direct_server, spawn_iterative_server,
};
use std::sync::Arc;

const CLIENT_THREADS: usize = 2;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(120);
    let tolerances = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10];

    let (orb, host) = Orb::single_host();
    let direct = spawn_direct_server(&orb, host, "direct_solver", 2, None);
    let iterative = spawn_iterative_server(&orb, host, "itrt_solver", 4, None);

    let (a, b) = gen_system(n, 7);
    println!("parameter study over {} tolerances, {n}x{n} system", tolerances.len());

    let client = ClientGroup::create(&orb, host, CLIENT_THREADS);
    let rows = World::run(CLIENT_THREADS, |rank| {
        let t = rank.rank();
        let rts: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
        let ct = client.attach(t, Some(rts.clone()));
        let i_solver = IterativeProxy::spmd_bind(&ct, "itrt_solver").expect("bind iterative");
        let d_solver = DirectProxy::spmd_bind(&ct, "direct_solver").expect("bind direct");

        let a_ds = DSequence::distribute(&a, Distribution::Block, CLIENT_THREADS, t);
        let b_ds = DSequence::distribute(&b, Distribution::Block, CLIENT_THREADS, t);

        // The reference solution (blocking), then the whole sweep
        // non-blocking: every request is in flight before the first result
        // is read.
        let (x_ref,) = d_solver.solve(&a_ds, &b_ds, Distribution::Block).expect("direct");
        let sweep: Vec<_> = tolerances
            .iter()
            .map(|tol| i_solver.solve_nb(tol, &a_ds, &b_ds, Distribution::Block).expect("solve_nb"))
            .collect();

        sweep
            .into_iter()
            .zip(tolerances)
            .map(|(futs, tol)| {
                let x = futs.x.get().expect("future");
                (tol, compute_difference(&x, &x_ref, Some(rts.as_ref())))
            })
            .collect::<Vec<_>>()
    });

    println!("{:>12}  {:>14}", "tolerance", "‖x - x_ref‖∞");
    let mut prev = f64::INFINITY;
    for (tol, diff) in &rows[0] {
        println!("{tol:>12.0e}  {diff:>14.3e}");
        assert!(
            *diff <= prev * 1.5 + 1e-12,
            "accuracy should not regress as the tolerance tightens"
        );
        prev = *diff;
    }

    direct.shutdown();
    iterative.shutdown();
    println!("done: tighter tolerances track the direct solution more closely.");
}
