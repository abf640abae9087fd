//! §4.1 / figure 2 — direct and iterative linear-system solvers as SPMD
//! objects.
//!
//! The direct method is dense Gaussian elimination without pivoting over
//! row-cyclic distributed matrices (stable for the diagonally dominant
//! systems the generator produces); the iterative method is Jacobi over
//! row-block matrices, run to a caller-supplied tolerance. Both are
//! parallelised over the run-time system exactly as a mid-90s
//! message-passing code would be: broadcast of the pivot row, all-gather of
//! the iterate.

use crate::ServerHandle;
use bytes::Bytes;
use pardis::core::{DSequence, DistPolicy, Distribution, Orb, Poa, ServantCtx, ServerGroup};
use pardis::generated::solvers::{DirectImpl, DirectSkel, IterativeImpl, IterativeSkel};
use pardis::netsim::{HostId, Network};
use pardis::rts::{tags, MpiRts, ReduceOp, Rts, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Generate a dense diagonally dominant system `(A, b)` of size `n`
/// (deterministic in `seed`). Diagonal dominance makes both pivot-free
/// elimination and Jacobi well-behaved.
pub fn gen_system(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Vec::with_capacity(n);
    for i in 0..n {
        // Positive off-diagonal entries: with mixed signs Jacobi's errors
        // cancel and it converges in a handful of sweeps; all-positive rows
        // with a thin dominance margin give the few-hundred-sweep behaviour
        // of a real mid-90s iterative workload.
        let mut row: Vec<f64> = (0..n).map(|_| rng.random_range(0.1..1.0)).collect();
        let off: f64 = row.iter().map(|v| v.abs()).sum::<f64>() - row[i].abs();
        row[i] = 1.005 * off + 0.1;
        a.push(row);
    }
    let b: Vec<f64> = (0..n).map(|_| rng.random_range(-10.0..10.0)).collect();
    (a, b)
}

/// Sequential Gaussian elimination (no pivoting) — the reference the
/// parallel solvers are tested against.
pub fn solve_seq(a: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
    let n = b.len();
    let mut a: Vec<Vec<f64>> = a.to_vec();
    let mut b: Vec<f64> = b.to_vec();
    for k in 0..n {
        let (pivot_rows, rest) = a.split_at_mut(k + 1);
        let pivot = &pivot_rows[k];
        for (off, row) in rest.iter_mut().enumerate() {
            let f = row[k] / pivot[k];
            for (rj, pj) in row[k..n].iter_mut().zip(&pivot[k..n]) {
                *rj -= f * pj;
            }
            b[k + 1 + off] -= f * b[k];
        }
    }
    let mut x = vec![0.0; n];
    for k in (0..n).rev() {
        let s: f64 = (k + 1..n).map(|j| a[k][j] * x[j]).sum();
        x[k] = (b[k] - s) / a[k][k];
    }
    x
}

/// Tags for solver-internal communication (user band — application traffic,
/// separate from ORB traffic per §2.2).
const GE_ROW_TAG: u64 = 0x0501;
const GE_X_TAG: u64 = 0x0502;

fn pack_row(row: &[f64], bk: f64) -> Bytes {
    let mut out = Vec::with_capacity(row.len() * 8 + 8);
    for v in row {
        out.extend_from_slice(&v.to_be_bytes());
    }
    out.extend_from_slice(&bk.to_be_bytes());
    Bytes::from(out)
}

fn unpack_row(data: &[u8]) -> (Vec<f64>, f64) {
    let n = data.len() / 8 - 1;
    let mut row = Vec::with_capacity(n);
    for chunk in data[..n * 8].chunks_exact(8) {
        row.push(f64::from_be_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    let bk = f64::from_be_bytes(data[n * 8..].try_into().expect("8-byte tail"));
    (row, bk)
}

/// Parallel Gaussian elimination over row-cyclic data. Collective. Each
/// thread holds the rows `i` with `i % P == rank`, in ascending order;
/// returns the full solution vector on every thread.
pub fn ge_solve_cyclic(
    rts: &dyn Rts,
    n: usize,
    my_rows: &mut [Vec<f64>],
    my_b: &mut [f64],
) -> Vec<f64> {
    let p = rts.size();
    let me = rts.rank();
    debug_assert!(tags::is_user(GE_ROW_TAG));

    // Forward elimination.
    for k in 0..n {
        let owner = k % p;
        let (pivot_row, pivot_b) = if owner == me {
            let local_k = k / p;
            let data = pack_row(&my_rows[local_k], my_b[local_k]);
            // Hand the pivot row to everyone else.
            for t in 0..p {
                if t != me {
                    rts.send(t, GE_ROW_TAG, data.clone());
                }
            }
            (my_rows[local_k].clone(), my_b[local_k])
        } else {
            let msg = rts.recv(Some(owner), GE_ROW_TAG);
            unpack_row(&msg.data)
        };
        // Eliminate column k from my rows below k.
        let first_local = if me > k % p { k / p } else { k / p + 1 };
        for li in first_local..my_rows.len() {
            let gi = li * p + me;
            if gi <= k {
                continue;
            }
            let f = my_rows[li][k] / pivot_row[k];
            if f != 0.0 {
                let row = &mut my_rows[li];
                for (rj, pj) in row[k..n].iter_mut().zip(&pivot_row[k..n]) {
                    *rj -= f * pj;
                }
                my_b[li] -= f * pivot_b;
            }
        }
    }

    // Back substitution: x_k computed by the owner, shipped to everyone.
    let mut x = vec![0.0; n];
    for k in (0..n).rev() {
        let owner = k % p;
        if owner == me {
            let local_k = k / p;
            let s: f64 = (k + 1..n).map(|j| my_rows[local_k][j] * x[j]).sum();
            x[k] = (my_b[local_k] - s) / my_rows[local_k][k];
            let data = Bytes::copy_from_slice(&x[k].to_be_bytes());
            for t in 0..p {
                if t != me {
                    rts.send(t, GE_X_TAG, data.clone());
                }
            }
        } else {
            let msg = rts.recv(Some(owner), GE_X_TAG);
            x[k] = f64::from_be_bytes(msg.data[..8].try_into().expect("8 bytes"));
        }
    }
    x
}

/// Parallel Jacobi over row-block data. Collective. Iterates until the
/// max-norm update drops below `tol` (or `max_iters`); returns the full
/// solution on every thread plus the iteration count.
pub fn jacobi_solve_block(
    rts: &dyn Rts,
    n: usize,
    my_rows: &[Vec<f64>],
    my_b: &[f64],
    first_row: usize,
    tol: f64,
    max_iters: usize,
) -> (Vec<f64>, usize) {
    let mut x = vec![0.0; n];
    for iter in 1..=max_iters {
        // Local sweep.
        let mut local_new = Vec::with_capacity(my_rows.len());
        let mut local_delta: f64 = 0.0;
        for (li, row) in my_rows.iter().enumerate() {
            let gi = first_row + li;
            let mut s = my_b[li];
            for (j, v) in row.iter().enumerate() {
                if j != gi {
                    s -= v * x[j];
                }
            }
            let xi = s / row[gi];
            local_delta = local_delta.max((xi - x[gi]).abs());
            local_new.push(xi);
        }
        // Assemble the full iterate.
        let mut packed = Vec::with_capacity(local_new.len() * 8);
        for v in &local_new {
            packed.extend_from_slice(&v.to_be_bytes());
        }
        let parts = rts.all_gather(Bytes::from(packed));
        let mut pos = 0;
        for part in parts {
            for chunk in part.chunks_exact(8) {
                x[pos] = f64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
                pos += 1;
            }
        }
        debug_assert_eq!(pos, n, "gathered iterate covers the vector");
        let delta = rts.all_reduce_f64(local_delta, ReduceOp::Max);
        if delta < tol {
            return (x, iter);
        }
    }
    (x, max_iters)
}

/// Models the compute speed of a mid-90s host on the netsim clock: a
/// computing thread charges `flops / flops_per_sec` to its own timeline on
/// its server's host ([`Network::charge_thread`]), so its next send — a
/// servant's reply, or an RTS message to a sibling rank, which raises the
/// sibling to it — departs that much later. Nothing sleeps: concurrent
/// threads overlap in modelled time, one thread's charges add, on any
/// machine. The server launchers take it and charge the network and host
/// they launch on.
#[derive(Debug, Clone, Copy)]
pub struct ComputePace {
    /// Modelled per-processor floating-point rate (the paper's R4400s and
    /// R8000s were tens of MFLOP/s).
    pub flops_per_sec: f64,
}

impl ComputePace {
    /// This pace for computing threads on `host` of `orb`'s network.
    pub(crate) fn on(self, orb: &Orb, host: HostId) -> HostPace {
        HostPace { net: orb.network().clone(), host, flops_per_sec: self.flops_per_sec }
    }
}

/// A [`ComputePace`] on the host a server's computing threads run on. The
/// ranks of an SPMD servant need nothing more to end together: their RTS
/// messages carry their times, so the data they exchange after a dispatch
/// puts them at one time before their equal charges.
#[derive(Debug, Clone)]
pub(crate) struct HostPace {
    net: Network,
    host: HostId,
    flops_per_sec: f64,
}

impl HostPace {
    /// Charge `flops` of work to the calling thread's timeline.
    pub(crate) fn charge(&self, flops: f64) {
        self.net.charge_thread(self.host, Duration::from_secs_f64(flops / self.flops_per_sec));
    }
}

/// The direct-solver servant (implements the generated `direct` skeleton).
#[derive(Default)]
pub struct DirectSolver {
    /// Optional modelled compute speed (see [`ComputePace`]).
    pace: Option<HostPace>,
}

impl DirectImpl for DirectSolver {
    fn solve(
        &self,
        ctx: &ServantCtx,
        a: DSequence<Vec<f64>>,
        b: DSequence<f64>,
    ) -> Result<(DSequence<f64>,), String> {
        let n = a.len() as usize;
        if b.len() as usize != n {
            return Err(format!("matrix is {n} rows but vector has {} entries", b.len()));
        }
        let mut my_rows: Vec<Vec<f64>> = a.local().to_vec();
        let mut my_b: Vec<f64> = b.local().to_vec();
        let x = if ctx.nthreads == 1 {
            solve_seq(&my_rows, &my_b)
        } else {
            ge_solve_cyclic(ctx.rts().as_ref(), n, &mut my_rows, &mut my_b)
        };
        if let Some(pace) = &self.pace {
            // Elimination is ~n^3/3 flops, split over the computing threads.
            let flops = (n as f64).powi(3) / 3.0 / ctx.nthreads as f64;
            pace.charge(flops);
        }
        // Return this thread's block of the (replicated) solution.
        let out = DSequence::distribute(&x, Distribution::Block, ctx.nthreads, ctx.thread);
        Ok((out,))
    }
}

/// The iterative-solver servant (implements the generated `iterative`
/// skeleton).
pub struct IterativeSolver {
    /// Iteration cap (guards against non-convergent inputs).
    pub max_iters: usize,
    /// Optional modelled compute speed (see [`ComputePace`]).
    pace: Option<HostPace>,
}

impl Default for IterativeSolver {
    fn default() -> Self {
        IterativeSolver { max_iters: 20_000, pace: None }
    }
}

impl IterativeImpl for IterativeSolver {
    fn solve(
        &self,
        ctx: &ServantCtx,
        tol: f64,
        a: DSequence<Vec<f64>>,
        b: DSequence<f64>,
    ) -> Result<(DSequence<f64>,), String> {
        let n = a.len() as usize;
        if b.len() as usize != n {
            return Err(format!("matrix is {n} rows but vector has {} entries", b.len()));
        }
        let first_row = a.my_runs().first().map(|r| r.start as usize).unwrap_or(0);
        let my_rows: Vec<Vec<f64>> = a.local().to_vec();
        let my_b: Vec<f64> = b.local().to_vec();
        // A sequential server has no RTS of its own: it solves over a
        // world of one rank.
        let alone = (ctx.nthreads == 1).then(|| MpiRts::new(World::new(1).1.remove(0)));
        let rts = alone.as_ref().map_or_else(|| ctx.rts().as_ref(), |one| one as &dyn Rts);
        let (x, iters) =
            jacobi_solve_block(rts, n, &my_rows, &my_b, first_row, tol, self.max_iters);
        if let Some(pace) = &self.pace {
            // Each sweep is ~2n^2 flops, split over the computing threads.
            let flops = 2.0 * (n as f64).powi(2) * iters as f64 / ctx.nthreads as f64;
            pace.charge(flops);
        }
        let out = DSequence::distribute(&x, Distribution::Block, ctx.nthreads, ctx.thread);
        Ok((out,))
    }
}

/// Distribution policy the direct server publishes: row-cyclic matrix and
/// vector (what elimination wants delivered).
pub fn direct_policy() -> DistPolicy {
    DistPolicy::new().with("solve", 0, Distribution::Cyclic).with("solve", 1, Distribution::Cyclic)
}

/// Distribution policy the iterative server publishes: row-block (what
/// Jacobi wants delivered). Block is the default, so this is explicit
/// documentation more than configuration.
pub fn iterative_policy() -> DistPolicy {
    DistPolicy::new().with("solve", 1, Distribution::Block).with("solve", 2, Distribution::Block)
}

/// Launch a solver server labelled `label` with `nthreads` computing
/// threads on `host`; `activate` puts its objects on each thread's adapter,
/// with a modelled compute speed if `pace` is given.
fn spawn_solver_server(
    orb: &Orb,
    host: HostId,
    label: &str,
    nthreads: usize,
    pace: Option<ComputePace>,
    activate: impl Fn(&mut Poa, Option<HostPace>) + Send + Sync + 'static,
) -> ServerHandle {
    let pace = pace.map(|pace| pace.on(orb, host));
    let group = ServerGroup::create(orb, label, host, nthreads);
    let g = group.clone();
    let chk = pardis::check::for_world(nthreads);
    let join = std::thread::spawn(move || {
        World::run(nthreads, |rank| {
            let t = rank.rank();
            let rts = pardis::check::wrap_if(&chk, Arc::new(MpiRts::new(rank)));
            let mut poa = g.attach(t, Some(rts));
            activate(&mut poa, pace.clone());
            poa.impl_is_ready();
        });
        pardis::check::enforce(&chk);
    });
    ServerHandle::new(group, join)
}

/// Launch a direct-solver server with `nthreads` computing threads on
/// `host`, registering object `name`, with a modelled compute speed if
/// `pace` is given.
pub fn spawn_direct_server(
    orb: &Orb,
    host: HostId,
    name: &str,
    nthreads: usize,
    pace: Option<ComputePace>,
) -> ServerHandle {
    let name = name.to_string();
    spawn_solver_server(orb, host, "direct-server", nthreads, pace, move |poa, pace| {
        poa.activate_spmd(&name, Arc::new(DirectSkel(DirectSolver { pace })), direct_policy());
    })
}

/// Launch an iterative-solver server, as [`spawn_direct_server`] does.
pub fn spawn_iterative_server(
    orb: &Orb,
    host: HostId,
    name: &str,
    nthreads: usize,
    pace: Option<ComputePace>,
) -> ServerHandle {
    let name = name.to_string();
    spawn_solver_server(orb, host, "iterative-server", nthreads, pace, move |poa, pace| {
        let servant = IterativeSolver { pace, ..Default::default() };
        poa.activate_spmd(&name, Arc::new(IterativeSkel(servant)), iterative_policy());
    })
}

/// Launch one parallel server hosting *both* solver objects — the paper's
/// single-server configuration, where the two invocations share the same
/// computing threads and therefore serialise.
pub fn spawn_combined_server(
    orb: &Orb,
    host: HostId,
    direct_name: &str,
    iterative_name: &str,
    nthreads: usize,
    pace: Option<ComputePace>,
) -> ServerHandle {
    let (dn, itn) = (direct_name.to_string(), iterative_name.to_string());
    spawn_solver_server(orb, host, "combined-solver-server", nthreads, pace, move |poa, pace| {
        let direct = DirectSolver { pace: pace.clone() };
        poa.activate_spmd(&dn, Arc::new(DirectSkel(direct)), direct_policy());
        let iterative = IterativeSolver { pace, ..Default::default() };
        poa.activate_spmd(&itn, Arc::new(IterativeSkel(iterative)), iterative_policy());
    })
}

/// Max-norm distance between two distributed vectors sharing a
/// distribution (collective when `rts` spans several threads) — the
/// client-side `compute_difference` of §4.1.
pub fn compute_difference(x1: &DSequence<f64>, x2: &DSequence<f64>, rts: Option<&dyn Rts>) -> f64 {
    assert_eq!(x1.len(), x2.len(), "vectors differ in length");
    let local =
        x1.local().iter().zip(x2.local().iter()).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    match rts {
        Some(rts) if rts.size() > 1 => rts.all_reduce_f64(local, ReduceOp::Max),
        _ => local,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_diagonally_dominant_and_deterministic() {
        let (a, b) = gen_system(40, 7);
        let (a2, b2) = gen_system(40, 7);
        assert_eq!(a, a2);
        assert_eq!(b, b2);
        for (i, row) in a.iter().enumerate() {
            let off: f64 =
                row.iter().enumerate().filter(|(j, _)| *j != i).map(|(_, v)| v.abs()).sum();
            assert!(row[i].abs() > off, "row {i} not dominant");
        }
    }

    #[test]
    fn sequential_ge_solves() {
        let (a, b) = gen_system(30, 1);
        let x = solve_seq(&a, &b);
        for (i, row) in a.iter().enumerate() {
            let ax: f64 = row.iter().zip(&x).map(|(r, v)| r * v).sum();
            assert!((ax - b[i]).abs() < 1e-8, "residual {} at row {i}", ax - b[i]);
        }
    }

    #[test]
    fn parallel_ge_matches_sequential() {
        let (a, b) = gen_system(37, 2);
        let expect = solve_seq(&a, &b);
        for p in [1usize, 2, 3, 4] {
            let (a, b, expect) = (a.clone(), b.clone(), expect.clone());
            let out = World::run(p, move |rank| {
                let me = rank.rank();
                let rts = MpiRts::new(rank);
                let mut my_rows: Vec<Vec<f64>> = a
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % p == me)
                    .map(|(_, r)| r.clone())
                    .collect();
                let mut my_b: Vec<f64> =
                    b.iter().enumerate().filter(|(i, _)| i % p == me).map(|(_, v)| *v).collect();
                ge_solve_cyclic(&rts, a.len(), &mut my_rows, &mut my_b)
            });
            for x in out {
                for (got, want) in x.iter().zip(expect.iter()) {
                    assert!((got - want).abs() < 1e-8, "p={p}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn parallel_jacobi_converges_to_ge_solution() {
        let (a, b) = gen_system(25, 3);
        let expect = solve_seq(&a, &b);
        for p in [1usize, 3] {
            let (a, b, expect) = (a.clone(), b.clone(), expect.clone());
            let out = World::run(p, move |rank| {
                let me = rank.rank();
                let rts = MpiRts::new(rank);
                let n = a.len();
                let base = n / p;
                let extra = n % p;
                let first = if me < extra {
                    me * (base + 1)
                } else {
                    extra * (base + 1) + (me - extra) * base
                };
                let count = base + usize::from(me < extra);
                let my_rows: Vec<Vec<f64>> = a[first..first + count].to_vec();
                let my_b: Vec<f64> = b[first..first + count].to_vec();
                let (x, iters) = jacobi_solve_block(&rts, n, &my_rows, &my_b, first, 1e-10, 10_000);
                assert!(iters < 10_000, "did not converge");
                (x, expect.clone())
            });
            for (x, expect) in out {
                for (got, want) in x.iter().zip(expect.iter()) {
                    assert!((got - want).abs() < 1e-6, "p={p}: {got} vs {want}");
                }
            }
        }
    }
}
