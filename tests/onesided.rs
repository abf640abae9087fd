//! End-to-end suite for the one-sided RTS layer and the transports built
//! on it.
//!
//! A redistribution takes one of four transports, picked by its templates
//! and its element type: a gather to a `Concentrated` target, a scatter
//! from a `Concentrated` source, a strided pull of fixed-width elements
//! between distributed templates, and a pull of packed shares for
//! variable-width ones. The "identical across modes" tests run shapes that
//! cover those transports and check each result against its oracle: a
//! redistribution against the target distribution sliced straight out of
//! the global vector ([`expected_local`]), a halo-exchanging stencil
//! against the same field stepped on one thread. The rest pin the window
//! layer's own contract on a networked world: a pull's modelled time, and
//! a put that lands late.

use pardis::cdr::CdrCodec;
use pardis::core::{DSequence, Distribution};
use pardis::netsim::{LinkPreset, Network, TimeScale};
use pardis::pooma::{Field2D, Layout2D, PoomaComm};
use pardis::rts::{Bytes, MpiRts, Rts, TulipWorld, Windows, World};
use std::time::Duration;

/// The elements thread `t` owns under `dist`, in global-index order, picked
/// element by element with [`Distribution::owner`].
fn expected_local<T: Clone>(full: &[T], dist: &Distribution, n: usize, t: usize) -> Vec<T> {
    let len = full.len() as u64;
    (0..len).filter(|&i| dist.owner(len, n, i) == t).map(|i| full[i as usize].clone()).collect()
}

/// [`expected_local`] for every thread of `n`.
fn expected_locals<T: Clone>(full: &[T], dist: &Distribution, n: usize) -> Vec<Vec<T>> {
    (0..n).map(|t| expected_local(full, dist, n, t)).collect()
}

/// Deterministic but non-trivial payload (negative, fractional values, none
/// of them zero) so byte-level mix-ups cannot cancel out.
fn payload(len: usize) -> Vec<f64> {
    (0..len).map(|i| (i as f64 - 3.25) * 1.000_000_1).collect()
}

/// Strings of varying width, so no two shares pack to the same size.
fn words(len: usize) -> Vec<String> {
    (0..len).map(|i| format!("elem-{i}-{}", "x".repeat(i % 11))).collect()
}

/// Per-rank local contents after redistributing `full` from `src` to `dst`
/// over `n` ranks of an [`MpiRts`] world.
fn redistributed<T>(full: &[T], n: usize, src: &Distribution, dst: &Distribution) -> Vec<Vec<T>>
where
    T: CdrCodec + Clone + Send + Sync + 'static,
{
    World::run(n, |rank| {
        let t = rank.rank();
        let rts = MpiRts::new(rank);
        let mut ds = DSequence::distribute(full, src.clone(), n, t);
        ds.redistribute(&rts, dst.clone());
        ds.local().to_vec()
    })
}

/// Shapes that take every transport: pulls between distributed templates,
/// a gather to `Concentrated`, a scatter from it, and both ends at once.
fn shapes() -> [(usize, usize, Distribution, Distribution); 7] {
    [
        (17, 4, Distribution::Block, Distribution::Cyclic),
        (64, 3, Distribution::Cyclic, Distribution::Block),
        (40, 4, Distribution::Block, Distribution::BlockCyclic(3)),
        (29, 2, Distribution::BlockCyclic(5), Distribution::Concentrated(1)),
        (9, 3, Distribution::Concentrated(2), Distribution::Cyclic),
        (12, 3, Distribution::Concentrated(0), Distribution::Concentrated(2)),
        (1, 2, Distribution::Block, Distribution::Cyclic),
    ]
}

#[test]
fn redistribution_identical_across_modes() {
    for (len, n, src, dst) in shapes() {
        let full = payload(len);
        let got = redistributed(&full, n, &src, &dst);
        assert_eq!(got, expected_locals(&full, &dst, n), "len={len} n={n} {src:?}->{dst:?}");
    }
}

#[test]
fn repeated_redistributions_identical_across_modes() {
    let full: Vec<f64> = (0..50).map(|i| (i * i) as f64 / 7.0).collect();
    let got = World::run(3, |rank| {
        let t = rank.rank();
        let rts = MpiRts::new(rank);
        let mut ds = DSequence::distribute(&full, Distribution::Block, 3, t);
        ds.redistribute(&rts, Distribution::Cyclic);
        ds.redistribute(&rts, Distribution::BlockCyclic(4));
        ds.redistribute(&rts, Distribution::Concentrated(1));
        ds.redistribute(&rts, Distribution::Block);
        ds.local().to_vec()
    });
    assert_eq!(got, expected_locals(&full, &Distribution::Block, 3));
}

/// Variable-width elements take the packed pull between distributed
/// templates and the gather and scatter at `Concentrated` ends; every shape
/// lands the target slice.
#[test]
fn string_redistribution_identical_across_modes() {
    for (len, n, src, dst) in shapes() {
        let full = words(len);
        let got = redistributed(&full, n, &src, &dst);
        assert_eq!(got, expected_locals(&full, &dst, n), "len={len} n={n} {src:?}->{dst:?}");
    }
}

/// The Tulip RTS port drives the same pull path through its own window
/// layer.
#[test]
fn tulip_redistribution_identical_across_modes() {
    let full: Vec<i64> = (0..37).map(|i| i * 31 - 400).collect();
    let (_tw, endpoints) = TulipWorld::new(4);
    let got = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| {
                let full = &full;
                scope.spawn(move || {
                    let t = ep.rank();
                    let mut ds = DSequence::distribute(full, Distribution::Cyclic, 4, t);
                    ds.redistribute(&ep, Distribution::Block);
                    ds.local().to_vec()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
    });
    assert_eq!(got, expected_locals(&full, &Distribution::Block, 4));
}

/// The field [`stencil_on`] starts from.
fn initial(i: usize, j: usize) -> f64 {
    ((i * 7 + j * 3) % 11) as f64 / 3.0
}

/// A 12 x 17 field over `n` threads of a [`PoomaComm`] world after `steps`
/// rounds of `step`, as the bits of its interior in global row-major order.
fn stencil_on(n: usize, steps: usize, step: fn(&mut Field2D, &dyn Rts)) -> Vec<u64> {
    let layout = Layout2D::new(12, 17, n);
    let bands = World::run(n, |rank| {
        let t = rank.rank();
        let comm = PoomaComm::new(rank);
        let mut field = Field2D::from_fn(layout.clone(), t, initial);
        for _ in 0..steps {
            step(&mut field, &comm);
        }
        field.interior()
    });
    bands.concat().into_iter().map(f64::to_bits).collect()
}

/// Stencil iteration over the POOMA field: the halo-exchanging field on
/// three threads is bit-identical to the same field stepped on one thread,
/// which exchanges nothing.
#[test]
fn pooma_stencil_identical_across_modes() {
    let step: fn(&mut Field2D, &dyn Rts) = |field, rts| {
        field.stencil9(0.05, rts);
        field.stencil5(0.1, rts);
    };
    assert_eq!(stencil_on(3, 5, step), stencil_on(1, 5, step));
}

/// With an engine-mode network attached (transfers charged on modelled
/// lanes), a strided pull of doubles and a packed pull of strings land the
/// target slice.
#[test]
fn networked_redistribution_lands_the_target_slice() {
    fn run<T: CdrCodec + Clone + Send + Sync + 'static>(
        full: &[T],
        to: Distribution,
    ) -> Vec<Vec<T>> {
        let (_net, ranks) = networked_world(4);
        std::thread::scope(|scope| {
            let handles: Vec<_> = ranks
                .into_iter()
                .map(|rank| {
                    let to = to.clone();
                    scope.spawn(move || {
                        let t = rank.rank();
                        let rts = MpiRts::new(rank);
                        let mut ds = DSequence::distribute(full, Distribution::Block, 4, t);
                        ds.redistribute(&rts, to);
                        ds.local().to_vec()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }
    let full: Vec<f64> = (0..96).map(|i| i as f64 * 0.5).collect();
    let to = Distribution::BlockCyclic(2);
    assert_eq!(run(&full, to.clone()), expected_locals(&full, &to, 4), "doubles");
    let full = words(45);
    assert_eq!(run(&full, to.clone()), expected_locals(&full, &to, 4), "strings");
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
/// (under a timeout), land what their oracles say (the target slice, and
/// the field stepped on one thread), and leave no round's window exposed.
#[test]
fn halo_exchanges_and_pulls_interleave_on_one_networked_world() {
    const N: usize = 3;
    const ROUNDS: usize = 200;
    let step: fn(&mut Field2D, &dyn Rts) = |field, rts| field.stencil5(0.1, rts);
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let full = payload(50);
        let layout = Layout2D::new(12, 17, N);
        let (_net, ranks) = networked_world(N);
        let shared = ranks[0].windows().shared().clone();
        let bands = std::thread::scope(|scope| {
            let handles: Vec<_> = ranks
                .into_iter()
                .map(|rank| {
                    let (full, layout) = (&full, layout.clone());
                    scope.spawn(move || {
                        let t = rank.rank();
                        let comm = PoomaComm::new(rank);
                        let mut field = Field2D::from_fn(layout, t, initial);
                        let mut ds = DSequence::distribute(full, Distribution::Block, N, t);
                        for round in 0..ROUNDS {
                            step(&mut field, &comm);
                            let to = [Distribution::Cyclic, Distribution::Block][round % 2].clone();
                            ds.redistribute(&comm, to);
                        }
                        assert_eq!(ds.local(), expected_local(full, ds.dist(), N, t));
                        field.interior()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        // A fresh endpoint replays the world's collective bases.
        let replay = Windows::endpoint(shared, 0);
        let exposed: Vec<_> = (0..2 * ROUNDS)
            .map(|_| replay.collective_window_base())
            .flat_map(|base| (0..N).map(move |owner| pardis::rts::WindowId { owner, base }))
            .filter(|&id| replay.window_len(id).is_ok())
            .collect();
        let field: Vec<u64> = bands.concat().into_iter().map(f64::to_bits).collect();
        done.send((field, exposed)).expect("test thread waits");
    });
    let (field, exposed) =
        finished.recv_timeout(Duration::from_secs(120)).expect("200 rounds finish");
    assert_eq!(field, stencil_on(1, ROUNDS, step), "the networked field is not the one-thread one");
    assert!(exposed.is_empty(), "windows of finished rounds still exposed: {exposed:?}");
}

/// A put racing the withdrawal of its window either is refused (the
/// window is gone when the put looks it up), lands before the withdrawal
/// (`deregister` hands back its bytes) or lands after it, in a buffer
/// nobody reads: none of the three is a crash, and the put completes. The
/// put is released on its sender's thread, so it races the withdrawal in
/// real time on a second thread. The case runs on a helper thread, so a
/// regression fails by timeout instead of hanging the suite.
#[test]
fn a_put_landing_after_deregister_is_not_a_crash() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let net = Network::new(TimeScale::off());
        let h0 = net.add_host("A");
        let h1 = net.add_host("B");
        net.connect(h0, h1, LinkPreset::AtmOc3.link());
        let (world, ranks) = World::new(2);
        world.attach_network(net, vec![h0, h1]);
        let id = ranks[0].windows().expose(0, vec![3u8; 64]).expect("expose");
        let (bytes, put) = std::thread::scope(|s| {
            let put = s.spawn(|| {
                ranks[1].windows().put_nb(id, 0, Bytes::from(vec![9u8; 64])).map(|c| c.wait())
            });
            let bytes = ranks[0].windows().deregister(id).expect("deregister");
            (bytes, put.join().expect("the put does not panic"))
        });
        done.send((bytes, put)).expect("test thread waits");
    });
    let (bytes, put) =
        finished.recv_timeout(Duration::from_secs(30)).expect("the put and the withdrawal finish");
    assert!(bytes == [3u8; 64] || bytes == [9u8; 64], "{bytes:?}");
    assert!(
        matches!(put, Ok(()) | Err(pardis::rts::RtsError::UnknownWindow(_))),
        "the racing put ends as a landing or a refusal: {put:?}"
    );
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

        /// Every transport lands exactly the target slice of the global
        /// vector, for doubles and for strings, on random (len, src, dst)
        /// grids over all four template kinds.
        #[test]
        fn target_slice_lands(
            len in 1usize..80,
            n in 2usize..5,
            src_kind in 0usize..4,
            src_param in 0u64..16,
            dst_kind in 0usize..4,
            dst_param in 0u64..16,
        ) {
            let src = dist_from(src_kind, src_param, n);
            let dst = dist_from(dst_kind, dst_param, n);
            let full = payload(len);
            let got = redistributed(&full, n, &src, &dst);
            prop_assert_eq!(got, expected_locals(&full, &dst, n), "f64: len={} n={} {:?}->{:?}", len, n, src, dst);
            let full = words(len);
            let got = redistributed(&full, n, &src, &dst);
            prop_assert_eq!(got, expected_locals(&full, &dst, n), "String: len={} n={} {:?}->{:?}", len, n, src, dst);
        }
    }
}
