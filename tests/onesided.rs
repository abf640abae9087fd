//! End-to-end suite for the one-sided RTS layer.
//!
//! Whether a redistribution pulls through windows or pushes through
//! send/recv — and whether a halo exchange puts or sends — is decided by
//! the RTS alone: one that offers windows gets the one-sided path, one
//! whose `windows()` is `None` gets the two-sided path. The workload tests
//! run on a windowed RTS and on the same RTS wrapped in [`TwoSided`], and
//! assert bit-for-bit identical outcomes; redistributions are also checked
//! against the target distribution sliced straight out of the global
//! vector. The rest pin the window layer's own contract on a networked
//! world: a pull's modelled time, and a put that lands late.

use pardis::core::{DSequence, Distribution};
use pardis::netsim::{LinkPreset, Network, TimeScale};
use pardis::pooma::{Field2D, Layout2D, PoomaComm};
use pardis::rts::{Bytes, MpiRts, Msg, ReduceOp, Rts, TulipWorld, Windows, World};
use std::time::Duration;

/// A purely two-sided view of an RTS: forwards every call except
/// `windows()`, which returns `None`, so callers take their send/recv
/// paths.
struct TwoSided<R: Rts>(R);

impl<R: Rts> Rts for TwoSided<R> {
    fn rank(&self) -> usize {
        self.0.rank()
    }
    fn size(&self) -> usize {
        self.0.size()
    }
    fn send(&self, to: usize, tag: u64, data: Bytes) {
        self.0.send(to, tag, data)
    }
    fn recv(&self, from: Option<usize>, tag: u64) -> Msg {
        self.0.recv(from, tag)
    }
    fn recv_timeout(&self, from: Option<usize>, tag: u64, timeout: Duration) -> Option<Msg> {
        self.0.recv_timeout(from, tag, timeout)
    }
    fn try_recv(&self, from: Option<usize>, tag: u64) -> Option<Msg> {
        self.0.try_recv(from, tag)
    }
    fn barrier(&self) {
        self.0.barrier()
    }
    fn broadcast(&self, root: usize, data: Option<Bytes>) -> Bytes {
        self.0.broadcast(root, data)
    }
    fn gather(&self, root: usize, part: Bytes) -> Option<Vec<Bytes>> {
        self.0.gather(root, part)
    }
    fn scatter(&self, root: usize, parts: Option<Vec<Bytes>>) -> Bytes {
        self.0.scatter(root, parts)
    }
    fn windows(&self) -> Option<&Windows> {
        None
    }
    fn all_gather(&self, part: Bytes) -> Vec<Bytes> {
        self.0.all_gather(part)
    }
    fn all_reduce_f64(&self, value: f64, op: ReduceOp) -> f64 {
        self.0.all_reduce_f64(value, op)
    }
}

/// Run `f` on `rts` as it is (one-sided) or behind [`TwoSided`].
fn on_path<R: Rts, T>(one_sided: bool, rts: R, f: impl FnOnce(&dyn Rts) -> T) -> T {
    if one_sided {
        assert!(rts.windows().is_some(), "the one-sided leg needs a windowed RTS");
        f(&rts)
    } else {
        f(&TwoSided(rts))
    }
}

/// The elements thread `t` owns under `dist`, in global-index order, picked
/// element by element with [`Distribution::owner`].
fn expected_local<T: Clone>(full: &[T], dist: &Distribution, n: usize, t: usize) -> Vec<T> {
    let len = full.len() as u64;
    (0..len).filter(|&i| dist.owner(len, n, i) == t).map(|i| full[i as usize].clone()).collect()
}

/// Deterministic but non-trivial payload (negative, fractional values) so
/// byte-level mix-ups cannot cancel out.
fn payload(len: usize) -> Vec<f64> {
    (0..len).map(|i| (i as f64 - 3.25) * 1.000_000_1).collect()
}

/// Per-rank local contents, as raw bits, after redistributing `len` f64
/// elements from `src` to `dst` over `n` ranks.
fn redistribute_bits(
    one_sided: bool,
    len: usize,
    n: usize,
    src: Distribution,
    dst: Distribution,
) -> Vec<Vec<u64>> {
    let full = payload(len);
    World::run(n, move |rank| {
        let t = rank.rank();
        on_path(one_sided, MpiRts::new(rank), |rts| {
            let mut ds = DSequence::distribute(&full, src.clone(), n, t);
            ds.redistribute(rts, dst.clone());
            ds.local().iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
        })
    })
}

/// What [`redistribute_bits`] must return: the target distribution sliced
/// out of the global vector.
fn expected_bits(len: usize, n: usize, dst: &Distribution) -> Vec<Vec<u64>> {
    let full = payload(len);
    (0..n)
        .map(|t| expected_local(&full, dst, n, t).into_iter().map(f64::to_bits).collect())
        .collect()
}

#[test]
fn redistribution_identical_across_modes() {
    let shapes = [
        (17, 4, Distribution::Block, Distribution::Cyclic),
        (64, 3, Distribution::Cyclic, Distribution::Block),
        (40, 4, Distribution::Block, Distribution::BlockCyclic(3)),
        (29, 2, Distribution::BlockCyclic(5), Distribution::Concentrated(1)),
        (9, 3, Distribution::Concentrated(2), Distribution::Cyclic),
        (1, 2, Distribution::Block, Distribution::Cyclic),
    ];
    for (len, n, src, dst) in shapes {
        let expected = expected_bits(len, n, &dst);
        let pull = redistribute_bits(true, len, n, src.clone(), dst.clone());
        let push = redistribute_bits(false, len, n, src.clone(), dst.clone());
        assert_eq!(pull, expected, "pull wrong for len={len} n={n} {src:?}->{dst:?}");
        assert_eq!(push, expected, "push wrong for len={len} n={n} {src:?}->{dst:?}");
    }
}

#[test]
fn repeated_redistributions_identical_across_modes() {
    let full: Vec<f64> = (0..50).map(|i| (i * i) as f64 / 7.0).collect();
    let run = |one_sided: bool| {
        let full = full.clone();
        World::run(3, move |rank| {
            let t = rank.rank();
            on_path(one_sided, MpiRts::new(rank), |rts| {
                let mut ds = DSequence::distribute(&full, Distribution::Block, 3, t);
                ds.redistribute(rts, Distribution::Cyclic);
                ds.redistribute(rts, Distribution::BlockCyclic(4));
                ds.redistribute(rts, Distribution::Block);
                ds.local().to_vec()
            })
        })
    };
    let expected: Vec<Vec<f64>> =
        (0..3).map(|t| expected_local(&full, &Distribution::Block, 3, t)).collect();
    assert_eq!(run(true), expected);
    assert_eq!(run(false), expected);
}

/// Variable-width elements have no fixed wire size, so a windowed RTS
/// still falls back to push — and keeps working.
#[test]
fn string_redistribution_identical_across_modes() {
    let full: Vec<String> = (0..13).map(|i| format!("elem-{i}-{}", "x".repeat(i))).collect();
    let run = |one_sided: bool| {
        let full = full.clone();
        World::run(3, move |rank| {
            let t = rank.rank();
            on_path(one_sided, MpiRts::new(rank), |rts| {
                let mut ds = DSequence::distribute(&full, Distribution::Block, 3, t);
                ds.redistribute(rts, Distribution::Cyclic);
                ds.gather(rts)
            })
        })
    };
    let windowed = run(true);
    assert_eq!(windowed, run(false));
    assert!(windowed.iter().all(|g| *g == full));
}

/// The Tulip RTS port drives the same pull path through its own window
/// layer.
#[test]
fn tulip_redistribution_identical_across_modes() {
    let full: Vec<i64> = (0..37).map(|i| i * 31 - 400).collect();
    let run = |one_sided: bool| {
        let (_tw, endpoints) = TulipWorld::new(4);
        std::thread::scope(|scope| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .map(|ep| {
                    let full = full.clone();
                    scope.spawn(move || {
                        let t = ep.rank();
                        on_path(one_sided, ep, |rts| {
                            let mut ds = DSequence::distribute(&full, Distribution::Cyclic, 4, t);
                            ds.redistribute(rts, Distribution::Block);
                            ds.local().to_vec()
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        })
    };
    let expected: Vec<Vec<i64>> =
        (0..4).map(|t| expected_local(&full, &Distribution::Block, 4, t)).collect();
    assert_eq!(run(true), expected);
    assert_eq!(run(false), expected);
}

/// Stencil iteration over the POOMA field: the one-sided halo exchange must
/// produce bit-identical fields to the send/recv exchange.
fn stencil_bits(one_sided: bool) -> Vec<Vec<u64>> {
    let layout = Layout2D::new(12, 17, 3);
    World::run(3, move |rank| {
        let t = rank.rank();
        on_path(one_sided, PoomaComm::new(rank), |rts| {
            let mut field =
                Field2D::from_fn(layout.clone(), t, |i, j| ((i * 7 + j * 3) % 11) as f64 / 3.0);
            for _ in 0..5 {
                field.stencil9(0.05, rts);
                field.stencil5(0.1, rts);
            }
            field.interior().into_iter().map(f64::to_bits).collect::<Vec<u64>>()
        })
    })
}

#[test]
fn pooma_stencil_identical_across_modes() {
    assert_eq!(stencil_bits(true), stencil_bits(false));
}

/// Both paths also agree with an engine-mode network attached (transfers
/// charged on modelled lanes), and one-sided traffic books strictly less
/// virtual wire time than the rendezvous-based push.
#[test]
fn networked_redistribution_agrees_and_pull_is_cheaper() {
    let full: Vec<f64> = (0..96).map(|i| i as f64 * 0.5).collect();
    let run = |one_sided: bool| {
        let net = Network::new(TimeScale::off());
        net.set_default_link(LinkPreset::AtmOc3.link());
        let hosts: Vec<_> = (0..4).map(|r| net.add_host(&format!("h{r}"))).collect();
        let (world, ranks) = World::new(4);
        world.attach_network(net.clone(), hosts);
        let out = std::thread::scope(|scope| {
            let handles: Vec<_> = ranks
                .into_iter()
                .map(|rank| {
                    let full = full.clone();
                    scope.spawn(move || {
                        let t = rank.rank();
                        on_path(one_sided, MpiRts::new(rank), |rts| {
                            let mut ds = DSequence::distribute(&full, Distribution::Block, 4, t);
                            ds.redistribute(rts, Distribution::BlockCyclic(2));
                            ds.local().to_vec()
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        (out, net.makespan())
    };
    let (pull, pull_time) = run(true);
    let (push, push_time) = run(false);
    let expected: Vec<Vec<f64>> =
        (0..4).map(|t| expected_local(&full, &Distribution::BlockCyclic(2), 4, t)).collect();
    assert_eq!(pull, expected, "networked pull wrong");
    assert_eq!(push, expected, "networked push wrong");
    assert!(
        pull_time < push_time,
        "pull should beat rendezvous push on the virtual clock: pull={pull_time:.6}s push={push_time:.6}s"
    );
}

/// A seeded pseudo-random stream (SplitMix64).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A world of `n` ranks on a network of `AtmOc3` links, one host per rank.
fn networked_world(n: usize) -> (Network, Vec<pardis::rts::Rank>) {
    let net = Network::new(TimeScale::off());
    net.set_default_link(LinkPreset::AtmOc3.link());
    let hosts: Vec<_> = (0..n).map(|r| net.add_host(&format!("h{r}"))).collect();
    let (world, ranks) = World::new(n);
    world.attach_network(net.clone(), hosts);
    (net, ranks)
}

/// The pull's modelled time is fixed by its plan, not by which thread
/// wakes first: every rank sleeps a seeded random 0–200 µs before each
/// call, and the makespan of 20 `Block -> Cyclic -> Block` round trips is
/// bit-identical for every sleep seed.
#[test]
fn pull_modelled_time_does_not_depend_on_thread_timing() {
    let full = payload(256);
    for n in [2, 4] {
        let makespans: Vec<u64> = (1..=5u64)
            .map(|seed| {
                let (net, ranks) = networked_world(n);
                std::thread::scope(|scope| {
                    for rank in ranks {
                        let full = &full;
                        scope.spawn(move || {
                            let t = rank.rank();
                            let mut rng = SplitMix(seed << 8 | t as u64);
                            let rts = MpiRts::new(rank);
                            let mut ds = DSequence::distribute(full, Distribution::Block, n, t);
                            for _ in 0..20 {
                                for to in [Distribution::Cyclic, Distribution::Block] {
                                    let pause = Duration::from_micros(rng.next() % 201);
                                    std::thread::sleep(pause);
                                    ds.redistribute(&rts, to);
                                }
                            }
                            assert_eq!(
                                ds.local(),
                                expected_local(full, &Distribution::Block, n, t)
                            );
                        });
                    }
                });
                net.makespan().to_bits()
            })
            .collect();
        assert!(
            makespans.windows(2).all(|w| w[0] == w[1]),
            "{n} ranks: makespans differ across sleep seeds: {:?}",
            makespans.iter().map(|&b| f64::from_bits(b)).collect::<Vec<_>>()
        );
    }
}

/// A halo exchange and a pull redistribution alternate on one networked
/// world of 3 ranks for 200 rounds: both users of the window layer finish
/// (under a timeout), agree bit for bit with the two-sided paths, and leave
/// no round's window exposed.
#[test]
fn halo_exchanges_and_pulls_interleave_on_one_networked_world() {
    const N: usize = 3;
    const ROUNDS: usize = 200;
    let run = |one_sided: bool| {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let full = payload(50);
            let layout = Layout2D::new(12, 17, N);
            let (_net, ranks) = networked_world(N);
            let shared = ranks[0].windows().shared().clone();
            let out = std::thread::scope(|scope| {
                let handles: Vec<_> = ranks
                    .into_iter()
                    .map(|rank| {
                        let (full, layout) = (&full, layout.clone());
                        scope.spawn(move || {
                            let t = rank.rank();
                            on_path(one_sided, PoomaComm::new(rank), |rts| {
                                let mut field = Field2D::from_fn(layout, t, |i, j| {
                                    ((i * 5 + j * 3) % 13) as f64 / 7.0
                                });
                                let mut ds = DSequence::distribute(full, Distribution::Block, N, t);
                                for round in 0..ROUNDS {
                                    field.stencil5(0.1, rts);
                                    let to = [Distribution::Cyclic, Distribution::Block][round % 2]
                                        .clone();
                                    ds.redistribute(rts, to);
                                }
                                assert_eq!(ds.local(), expected_local(full, ds.dist(), N, t));
                                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
                                (bits(&field.interior()), bits(ds.local()))
                            })
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<(Vec<u64>, _)>>()
            });
            // A fresh endpoint replays the world's collective bases.
            let replay = Windows::endpoint(shared, 0);
            let exposed: Vec<_> = (0..2 * ROUNDS)
                .map(|_| replay.collective_window_base())
                .flat_map(|base| (0..N).map(move |owner| pardis::rts::WindowId { owner, base }))
                .filter(|&id| replay.window_len(id).is_ok())
                .collect();
            done.send((out, exposed)).expect("test thread waits");
        });
        finished.recv_timeout(Duration::from_secs(120)).expect("200 rounds finish")
    };
    let (one_sided, exposed) = run(true);
    let (two_sided, _) = run(false);
    assert_eq!(one_sided, two_sided, "windowed and two-sided rounds disagree");
    assert!(exposed.is_empty(), "windows of finished rounds still exposed: {exposed:?}");
}

/// A put still in flight when its window is withdrawn lands in a
/// buffer nobody reads: `deregister` hands back a copy, the engine's
/// timer thread survives the landing and the network drains. The case
/// runs on a helper thread, so a regression fails by timeout instead of
/// hanging the suite.
#[test]
fn a_put_landing_after_deregister_is_not_a_crash() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let net = Network::new(TimeScale::new(1.0));
        let h0 = net.add_host("A");
        let h1 = net.add_host("B");
        net.connect(h0, h1, LinkPreset::AtmOc3.link());
        let (world, ranks) = World::new(2);
        world.attach_network(net.clone(), vec![h0, h1]);
        let id = ranks[0].windows().expose(0, vec![3u8; 64]).expect("expose");
        let put = ranks[1].windows().put_nb(id, 0, Bytes::from(vec![9u8; 64])).expect("put");
        let bytes = ranks[0].windows().deregister(id).expect("deregister");
        net.quiesce();
        put.wait();
        done.send(bytes).expect("test thread waits");
    });
    let bytes = finished
        .recv_timeout(Duration::from_secs(30))
        .expect("the late put landed and the network drained");
    // 0.9 ms of modelled wire time at scale 1: the put is almost surely
    // still in flight at the withdrawal, and lands after it.
    assert!(bytes == [3u8; 64] || bytes == [9u8; 64], "{bytes:?}");
}

mod property {
    use super::*;
    use proptest::prelude::*;

    /// Template from a generated selector, valid for any world of `n > 0`
    /// ranks.
    fn dist_from(kind: usize, param: u64, n: usize) -> Distribution {
        match kind % 4 {
            0 => Distribution::Block,
            1 => Distribution::Cyclic,
            2 => Distribution::Concentrated(param as usize % n),
            _ => Distribution::BlockCyclic(1 + param % 6),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Pull and push both land exactly the target slice of the global
        /// vector on random (len, src, dst) grids.
        #[test]
        fn pull_matches_push(
            len in 1usize..80,
            n in 2usize..5,
            src_kind in 0usize..4,
            src_param in 0u64..16,
            dst_kind in 0usize..4,
            dst_param in 0u64..16,
        ) {
            let src = dist_from(src_kind, src_param, n);
            let dst = dist_from(dst_kind, dst_param, n);
            let expected = expected_bits(len, n, &dst);
            let pull = redistribute_bits(true, len, n, src.clone(), dst.clone());
            let push = redistribute_bits(false, len, n, src.clone(), dst.clone());
            prop_assert_eq!(&pull, &expected, "pull: len={} n={} {:?}->{:?}", len, n, src, dst);
            prop_assert_eq!(&push, &expected, "push: len={} n={} {:?}->{:?}", len, n, src, dst);
        }
    }
}
