use super::elementwise_plan::{plan_elementwise, ElemPiece};
use crate::dist::*;
use crate::strided::{pair_plan, plan_transfer, PlanPiece, Strided};

#[test]
fn block_owner_and_local_len_consistent() {
    // 10 elements over 3 threads: 4,3,3.
    let d = Distribution::Block;
    assert_eq!(d.local_len(10, 3, 0), 4);
    assert_eq!(d.local_len(10, 3, 1), 3);
    assert_eq!(d.local_len(10, 3, 2), 3);
    assert_eq!(d.owner(10, 3, 0), 0);
    assert_eq!(d.owner(10, 3, 3), 0);
    assert_eq!(d.owner(10, 3, 4), 1);
    assert_eq!(d.owner(10, 3, 6), 1);
    assert_eq!(d.owner(10, 3, 7), 2);
    assert_eq!(d.owner(10, 3, 9), 2);
}

#[test]
fn block_runs_are_contiguous_and_cover() {
    let d = Distribution::Block;
    let r0 = d.runs(10, 3, 0);
    let r1 = d.runs(10, 3, 1);
    let r2 = d.runs(10, 3, 2);
    assert_eq!(r0, vec![Run { start: 0, count: 4 }]);
    assert_eq!(r1, vec![Run { start: 4, count: 3 }]);
    assert_eq!(r2, vec![Run { start: 7, count: 3 }]);
}

#[test]
fn block_more_threads_than_elements() {
    let d = Distribution::Block;
    // 2 elements over 5 threads: threads 0 and 1 get one each.
    assert_eq!(d.local_len(2, 5, 0), 1);
    assert_eq!(d.local_len(2, 5, 1), 1);
    assert_eq!(d.local_len(2, 5, 2), 0);
    assert_eq!(d.owner(2, 5, 1), 1);
    assert!(d.runs(2, 5, 3).is_empty());
}

#[test]
fn cyclic_owner_and_locals() {
    let d = Distribution::Cyclic;
    assert_eq!(d.owner(10, 3, 0), 0);
    assert_eq!(d.owner(10, 3, 4), 1);
    assert_eq!(d.owner(10, 3, 5), 2);
    assert_eq!(d.local_len(10, 3, 0), 4); // 0,3,6,9
    assert_eq!(d.local_len(10, 3, 1), 3); // 1,4,7
    assert_eq!(d.global_to_local(10, 3, 7), (1, 2));
    assert_eq!(d.local_to_global(10, 3, 1, 2), 7);
}

#[test]
fn concentrated_owns_everything() {
    let d = Distribution::Concentrated(2);
    assert_eq!(d.owner(5, 4, 3), 2);
    assert_eq!(d.local_len(5, 4, 2), 5);
    assert_eq!(d.local_len(5, 4, 0), 0);
    assert_eq!(d.runs(5, 4, 2), vec![Run { start: 0, count: 5 }]);
}

#[test]
fn irregular_follows_counts() {
    let d = Distribution::Irregular(vec![2, 0, 3]);
    assert_eq!(d.owner(5, 3, 0), 0);
    assert_eq!(d.owner(5, 3, 1), 0);
    assert_eq!(d.owner(5, 3, 2), 2);
    assert_eq!(d.local_len(5, 3, 1), 0);
    assert!(d.runs(5, 3, 1).is_empty());
    assert_eq!(d.runs(5, 3, 2), vec![Run { start: 2, count: 3 }]);
}

#[test]
fn block_cyclic_owner_and_locals() {
    let d = Distribution::BlockCyclic(3);
    // 11 elements, 2 threads, blocks of 3: [0..3)->t0, [3..6)->t1,
    // [6..9)->t0, [9..11)->t1.
    assert_eq!(d.owner(11, 2, 0), 0);
    assert_eq!(d.owner(11, 2, 4), 1);
    assert_eq!(d.owner(11, 2, 7), 0);
    assert_eq!(d.owner(11, 2, 10), 1);
    assert_eq!(d.local_len(11, 2, 0), 6);
    assert_eq!(d.local_len(11, 2, 1), 5);
    assert_eq!(d.runs(11, 2, 1), vec![Run { start: 3, count: 3 }, Run { start: 9, count: 2 }]);
    assert_eq!(d.global_to_local(11, 2, 7), (0, 4));
    assert_eq!(d.local_to_global(11, 2, 0, 4), 7);
}

#[test]
fn block_cyclic_of_one_equals_cyclic() {
    let bc = Distribution::BlockCyclic(1);
    let c = Distribution::Cyclic;
    for idx in 0..17 {
        assert_eq!(bc.owner(17, 3, idx), c.owner(17, 3, idx));
    }
    for t in 0..3 {
        assert_eq!(bc.local_len(17, 3, t), c.local_len(17, 3, t));
    }
}

#[test]
fn validate_catches_mismatches() {
    assert!(Distribution::Irregular(vec![1, 2]).validate(4, 2).is_err());
    assert!(Distribution::Irregular(vec![1, 2]).validate(3, 3).is_err());
    assert!(Distribution::Concentrated(3).validate(5, 3).is_err());
    assert!(Distribution::Block.validate(5, 3).is_ok());
    assert!(Distribution::BlockCyclic(0).validate(5, 3).is_err());
    assert!(Distribution::BlockCyclic(2).validate(5, 3).is_ok());
}

#[test]
#[should_panic(expected = "out of range")]
fn owner_out_of_range_panics() {
    Distribution::Block.owner(5, 2, 5);
}

#[test]
fn global_local_roundtrip_all_dists() {
    for dist in [
        Distribution::Block,
        Distribution::Cyclic,
        Distribution::Concentrated(1),
        Distribution::Irregular(vec![3, 0, 7, 2]),
        Distribution::BlockCyclic(3),
        Distribution::BlockCyclic(5),
    ] {
        let (len, n) = (12u64, 4usize);
        if dist.validate(len, n).is_err() {
            continue;
        }
        for idx in 0..len {
            let (t, local) = dist.global_to_local(len, n, idx);
            assert_eq!(dist.local_to_global(len, n, t, local), idx, "{dist:?} idx {idx}");
        }
    }
}

#[test]
fn owned_sets_are_closed_forms() {
    // 11 elements, blocks of 3 over 2 threads: t0 owns [0,3) and [6,9),
    // t1 owns [3,6) and the short tail [9,11).
    let bc = Distribution::BlockCyclic(3);
    let t0: Vec<Strided> = bc.owned(11, 2, 0).iter().copied().collect();
    assert_eq!(t0, vec![Strided { start: 0, stride: 6, block: 3, count: 2 }]);
    let t1: Vec<Strided> = bc.owned(11, 2, 1).iter().copied().collect();
    assert_eq!(t1, vec![Strided::run(3, 3), Strided::run(9, 2)]);
    // Cyclic is stride n, block 1, whatever the length.
    for len in [10u64, 10_000_000] {
        let c: Vec<Strided> = Distribution::Cyclic.owned(len, 4, 1).iter().copied().collect();
        let count = Distribution::Cyclic.local_len(len, 4, 1);
        assert_eq!(c, vec![Strided { start: 1, stride: 4, block: 1, count }]);
    }
    // One thread owns one run under any template; a block longer than the
    // sequence is the whole sequence.
    let whole = vec![Strided::run(0, 7)];
    assert_eq!(Distribution::Cyclic.owned(7, 1, 0).iter().copied().collect::<Vec<_>>(), whole);
    assert_eq!(
        Distribution::BlockCyclic(u64::MAX).owned(7, 3, 0).iter().copied().collect::<Vec<_>>(),
        whole
    );
    assert_eq!(Distribution::BlockCyclic(u64::MAX).owned(7, 3, 2), Default::default());
}

#[test]
fn plan_block_to_block_same_shape_is_identity_diagonal() {
    let plan = plan_transfer(12, &Distribution::Block, 3, &Distribution::Block, 3);
    assert_eq!(plan.len(), 3);
    for (i, piece) in plan.iter().enumerate() {
        assert_eq!(*piece, PlanPiece { src: i, dst: i, set: Strided::run(4 * i as u64, 4) });
    }
}

#[test]
fn plan_block_to_concentrated_funnels() {
    let plan = plan_transfer(10, &Distribution::Block, 2, &Distribution::Concentrated(0), 1);
    assert_eq!(
        plan,
        vec![
            PlanPiece { src: 0, dst: 0, set: Strided::run(0, 5) },
            PlanPiece { src: 1, dst: 0, set: Strided::run(5, 5) },
        ]
    );
}

#[test]
fn plan_block_to_cyclic_is_one_descriptor_per_pair() {
    // The benchmark's shape: 4 descriptors at any length, where the
    // element-wise plan had `len` one-element pieces.
    for len in [4_096u64, 65_536, 1 << 40] {
        let plan = plan_transfer(len, &Distribution::Block, 2, &Distribution::Cyclic, 2);
        let half = len / 2;
        assert_eq!(
            plan,
            vec![
                PlanPiece {
                    src: 0,
                    dst: 0,
                    set: Strided { start: 0, stride: 2, block: 1, count: half / 2 }
                },
                PlanPiece {
                    src: 0,
                    dst: 1,
                    set: Strided { start: 1, stride: 2, block: 1, count: half / 2 }
                },
                PlanPiece {
                    src: 1,
                    dst: 0,
                    set: Strided { start: half, stride: 2, block: 1, count: half / 2 }
                },
                PlanPiece {
                    src: 1,
                    dst: 1,
                    set: Strided { start: half + 1, stride: 2, block: 1, count: half / 2 }
                },
            ]
        );
    }
}

#[test]
fn plan_block_cyclic_pair_walks_one_period_by_runs() {
    // BlockCyclic(3) over 2 -> BlockCyclic(5) over 2: strides 6 and 10,
    // period 30. Source 0 owns [0,3) [6,9) [12,15) [18,21) [24,27) per
    // period, destination 0 owns [0,5) [10,15) [20,25): the pair shares
    // [0,3) [12,15) [20,21) [24,25) each period.
    let mut sets = Vec::new();
    let (s, d) = (Distribution::BlockCyclic(3), Distribution::BlockCyclic(5));
    pair_plan(300, &s, 2, 0, &d, 2, 0, &mut sets);
    assert_eq!(
        sets,
        vec![
            Strided { start: 0, stride: 30, block: 3, count: 10 },
            Strided { start: 12, stride: 30, block: 3, count: 10 },
            Strided { start: 20, stride: 30, block: 1, count: 10 },
            Strided { start: 24, stride: 30, block: 1, count: 10 },
        ]
    );
}

#[test]
fn plan_zero_length_is_empty() {
    assert!(plan_transfer(0, &Distribution::Block, 2, &Distribution::Block, 3).is_empty());
}

#[test]
fn localize_rejects_foreign_and_out_of_range_sets() {
    let (len, n) = (20u64, 2usize);
    let c = Distribution::Cyclic;
    // Thread 0 owns the evens: locals are global / 2, local stride 1.
    let evens = Strided { start: 4, stride: 2, block: 1, count: 5 };
    assert_eq!(evens.localize(len, &c, n, 0), Some((2, 1)));
    assert_eq!(evens.localize(len, &c, n, 1), None, "wrong owner");
    assert_eq!(Strided::run(4, 2).localize(len, &c, n, 0), None, "run crosses owners");
    assert_eq!(Strided::run(18, 4).localize(len, &Distribution::Block, n, 1), None, "past len");
    assert_eq!(Strided::run(u64::MAX, 2).localize(len, &c, n, 0), None, "overflow");
    assert_eq!(Strided { start: 0, stride: 0, block: 0, count: 0 }.localize(len, &c, n, 0), None);
    let huge = Strided { start: 0, stride: u64::MAX, block: 1, count: u64::MAX };
    assert_eq!(huge.localize(len, &c, n, 0), None, "count * stride overflow");
}

#[test]
fn distribution_cdr_roundtrip() {
    for d in [
        Distribution::Block,
        Distribution::Cyclic,
        Distribution::Concentrated(7),
        Distribution::Irregular(vec![1, 2, 3]),
        Distribution::BlockCyclic(64),
    ] {
        let b = pardis_cdr::to_bytes(&d);
        assert_eq!(pardis_cdr::from_bytes::<Distribution>(&b).unwrap(), d);
    }
}

mod property {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::ValueTree;

    fn arb_dist(n: usize, len: u64) -> impl Strategy<Value = Distribution> {
        prop_oneof![
            Just(Distribution::Block),
            Just(Distribution::Cyclic),
            (0..n).prop_map(Distribution::Concentrated),
            (1u64..9).prop_map(Distribution::BlockCyclic),
            // Random irregular template summing to len.
            proptest::collection::vec(0u64..=len, n - 1).prop_map(move |mut cuts| {
                cuts.sort_unstable();
                let mut counts = Vec::with_capacity(n);
                let mut prev = 0;
                for c in cuts {
                    counts.push(c - prev);
                    prev = c;
                }
                counts.push(len - prev);
                Distribution::Irregular(counts)
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Ownership partitions indices: local_lens sum to len and owner is
        /// consistent with local_len.
        #[test]
        fn ownership_partitions(
            len in 0u64..200,
            n in 1usize..8,
            seed in any::<u64>(),
        ) {
            let dist = {
                let mut runner = proptest::test_runner::TestRunner::deterministic();
                let _ = seed;
                arb_dist(n, len).new_tree(&mut runner).unwrap().current()
            };
            prop_assume!(dist.validate(len, n).is_ok());
            let total: u64 = (0..n).map(|t| dist.local_len(len, n, t)).sum();
            prop_assert_eq!(total, len);
            let mut per_thread = vec![0u64; n];
            for idx in 0..len {
                per_thread[dist.owner(len, n, idx)] += 1;
            }
            for (t, count) in per_thread.iter().enumerate() {
                prop_assert_eq!(*count, dist.local_len(len, n, t));
            }
        }

        /// Runs exactly cover each thread's owned set, in order.
        #[test]
        fn runs_cover_ownership(len in 0u64..150, n in 1usize..6) {
            for dist in [
                Distribution::Block,
                Distribution::Cyclic,
                Distribution::BlockCyclic(4),
            ] {
                for t in 0..n {
                    let mut covered = Vec::new();
                    for run in dist.runs(len, n, t) {
                        for idx in run.start..run.start + run.count {
                            covered.push(idx);
                        }
                    }
                    let owned: Vec<u64> =
                        (0..len).filter(|&i| dist.owner(len, n, i) == t).collect();
                    prop_assert_eq!(covered, owned);
                }
            }
        }

        /// The strided plan expands to exactly the partition the
        /// element-wise planner produces, for every pairing of the five
        /// template kinds; both sides' local offsets of every descriptor
        /// are themselves strided; and the descriptor count does not grow
        /// with the length.
        #[test]
        fn strided_plan_matches_elementwise_oracle(
            len in 0u64..3_000,
            src_n in 1usize..8,
            dst_n in 1usize..8,
            src_kind in 0usize..5,
            dst_kind in 0usize..5,
            src_param in 0u64..64,
            dst_param in 0u64..64,
            cuts in proptest::collection::vec(0u64..3_000, 12),
        ) {
            let src = dist_from(src_kind, src_param, &cuts[..6], src_n, len);
            let dst = dist_from(dst_kind, dst_param, &cuts[6..], dst_n, len);
            check_against_oracle(len, &src, src_n, &dst, dst_n)?;
        }
    }

    /// A template of the selected kind, valid for `len` elements over `n`
    /// threads (`BlockCyclic(b1)` -> `BlockCyclic(b2)` pairings included).
    fn dist_from(kind: usize, param: u64, cuts: &[u64], n: usize, len: u64) -> Distribution {
        match kind {
            0 => Distribution::Block,
            1 => Distribution::Cyclic,
            2 => Distribution::Concentrated(param as usize % n),
            3 => Distribution::BlockCyclic(1 + param % 9),
            _ => {
                let mut cuts: Vec<u64> = cuts[..n - 1].iter().map(|c| c % (len + 1)).collect();
                cuts.sort_unstable();
                cuts.push(len);
                let mut prev = 0;
                let counts = cuts.into_iter().map(|c| c - std::mem::replace(&mut prev, c));
                Distribution::Irregular(counts.collect())
            }
        }
    }

    /// Every pairing of the five kinds at fixed awkward shapes (the random
    /// test above only samples pairings): `len < n`, `len == 0`, block sizes
    /// that do not divide each other, uneven irregular counts.
    #[test]
    fn every_kind_pairing_matches_the_oracle() {
        for len in [0u64, 1, 2, 5, 97, 360, 1_001] {
            for (src_n, dst_n) in [(1, 1), (2, 2), (3, 2), (2, 7), (7, 5)] {
                let kinds = |n: usize| {
                    let mut uneven = vec![0u64; n];
                    uneven[n / 2] = len / 3;
                    uneven[n - 1] += len - len / 3;
                    vec![
                        Distribution::Block,
                        Distribution::Cyclic,
                        Distribution::Concentrated(n - 1),
                        Distribution::Irregular(uneven),
                        Distribution::BlockCyclic(3),
                        Distribution::BlockCyclic(5),
                        Distribution::BlockCyclic(64),
                    ]
                };
                for src in kinds(src_n) {
                    for dst in kinds(dst_n) {
                        check_against_oracle(len, &src, src_n, &dst, dst_n).unwrap();
                    }
                }
            }
        }
    }

    /// Descriptor count is a function of thread counts and block sizes
    /// only: at lengths where every block boundary of both templates
    /// realigns, `len` and `16 * len` plan to the same number of
    /// descriptors (the element-wise plan grew 16-fold).
    #[test]
    fn descriptor_count_is_independent_of_len() {
        for (src, src_n, dst, dst_n) in [
            (Distribution::Block, 2, Distribution::Cyclic, 2),
            (Distribution::Cyclic, 3, Distribution::Block, 4),
            (Distribution::Cyclic, 2, Distribution::Cyclic, 3),
            (Distribution::BlockCyclic(3), 2, Distribution::BlockCyclic(5), 2),
            (Distribution::BlockCyclic(4), 3, Distribution::Block, 2),
            (Distribution::Concentrated(1), 2, Distribution::BlockCyclic(2), 5),
        ] {
            // A multiple of both periods and both thread counts.
            let unit = 3 * 2 * 5 * 2 * 4 * 3 * 5;
            let count = |len: u64| plan_transfer(len, &src, src_n, &dst, dst_n).len();
            assert_eq!(count(unit), count(16 * unit), "{src:?}/{src_n} -> {dst:?}/{dst_n}");
            assert!(count(16 * unit) <= 64, "{src:?}/{src_n} -> {dst:?}/{dst_n}");
        }
        // And at any length at all the count is bounded by the shape.
        for len in [1u64, 7, 100, 4_096, 65_536, 1 << 33] {
            let plan = plan_transfer(len, &Distribution::Block, 2, &Distribution::Cyclic, 2);
            assert!(plan.len() <= 4, "len {len}: {} descriptors", plan.len());
        }
    }

    fn check_against_oracle(
        len: u64,
        src: &Distribution,
        src_n: usize,
        dst: &Distribution,
        dst_n: usize,
    ) -> Result<(), TestCaseError> {
        if src.validate(len, src_n).is_err() || dst.validate(len, dst_n).is_err() {
            return Ok(());
        }
        let plan = plan_transfer(len, src, src_n, dst, dst_n);
        let mut expanded: Vec<ElemPiece> = plan
            .iter()
            .flat_map(|p| {
                p.set.runs().map(|r| ElemPiece {
                    start: r.start,
                    count: r.count,
                    src: p.src,
                    dst: p.dst,
                })
            })
            .collect();
        expanded.sort_unstable();
        prop_assert_eq!(
            &expanded,
            &plan_elementwise(len, src, src_n, dst, dst_n),
            "{:?}/{} -> {:?}/{} at len {}",
            src,
            src_n,
            dst,
            dst_n,
            len
        );
        // Plan order: by (src, dst), ascending first index within a pair.
        for w in plan.windows(2) {
            prop_assert!(
                (w[0].src, w[0].dst, w[0].set.start) < (w[1].src, w[1].dst, w[1].set.start)
            );
        }
        for p in &plan {
            for (dist, n, t) in [(src, src_n, p.src), (dst, dst_n, p.dst)] {
                let (lo, lstride) = p.set.localize(len, dist, n, t).expect("owned by its thread");
                for k in 0..p.set.count {
                    for j in 0..p.set.block {
                        let global = p.set.start + k * p.set.stride + j;
                        prop_assert_eq!(
                            dist.global_to_local(len, n, global),
                            (t, lo + k * lstride + j),
                            "{:?} on {:?}/{}",
                            p,
                            dist,
                            n
                        );
                    }
                }
            }
        }
        Ok(())
    }
}
