use crate::dist::Distribution;
use crate::dseq::DSequence;
use pardis_rts::{MpiRts, World};
use std::sync::Arc;

#[test]
fn distribute_block_splits_correctly() {
    let full: Vec<f64> = (0..10).map(|i| i as f64).collect();
    let d0 = DSequence::distribute(&full, Distribution::Block, 3, 0);
    let d1 = DSequence::distribute(&full, Distribution::Block, 3, 1);
    let d2 = DSequence::distribute(&full, Distribution::Block, 3, 2);
    assert_eq!(d0.local(), &[0.0, 1.0, 2.0, 3.0]);
    assert_eq!(d1.local(), &[4.0, 5.0, 6.0]);
    assert_eq!(d2.local(), &[7.0, 8.0, 9.0]);
    assert_eq!(d0.len(), 10);
}

#[test]
fn distribute_cyclic_strides() {
    let full: Vec<i32> = (0..7).collect();
    let d1 = DSequence::distribute(&full, Distribution::Cyclic, 3, 1);
    assert_eq!(d1.local(), &[1, 4]);
}

#[test]
fn local_iter_pairs_global_indices() {
    let full: Vec<i32> = (0..6).collect();
    let d = DSequence::distribute(&full, Distribution::Cyclic, 2, 1);
    let pairs: Vec<(u64, i32)> = d.local_iter().map(|(g, v)| (g, *v)).collect();
    assert_eq!(pairs, vec![(1, 1), (3, 3), (5, 5)]);
}

#[test]
fn from_shared_is_no_copy() {
    let storage = Arc::new(vec![1.0f64, 2.0, 3.0]);
    let ds = DSequence::from_shared(storage.clone(), 3, Distribution::Concentrated(0), 1, 0);
    assert_eq!(ds.local().as_ptr(), storage.as_ptr());
    assert_eq!(ds.take_local(), vec![1.0, 2.0, 3.0]);
}

#[test]
#[should_panic(expected = "local storage holds")]
fn from_shared_wrong_length_rejected() {
    let _ = DSequence::from_shared(Arc::new(vec![1i32]), 5, Distribution::Block, 1, 0);
}

#[test]
fn encode_range_roundtrips_through_decoder() {
    let full: Vec<f64> = (0..8).map(|i| i as f64 * 1.5).collect();
    let ds = DSequence::distribute(&full, Distribution::Block, 2, 1);
    let bytes = ds.encode_range(4, 4);
    let mut d = pardis_cdr::Decoder::new(bytes, pardis_cdr::ByteOrder::native());
    for expected in &full[4..8] {
        assert_eq!(f64::decode_from(&mut d), *expected);
    }
}

trait DecodeFrom {
    fn decode_from(d: &mut pardis_cdr::Decoder) -> Self;
}
impl DecodeFrom for f64 {
    fn decode_from(d: &mut pardis_cdr::Decoder) -> f64 {
        d.read_f64().unwrap()
    }
}

#[test]
#[should_panic(expected = "is not local to thread 0")]
fn encode_range_rejects_remote_elements() {
    let full: Vec<f64> = (0..8).map(|i| i as f64).collect();
    let ds = DSequence::distribute(&full, Distribution::Block, 2, 0);
    let _ = ds.encode_range(4, 2); // thread 1's elements
}

#[test]
fn gather_reassembles_global_order() {
    let full: Vec<i64> = (0..23).map(|i| i * i).collect();
    let expect = full.clone();
    let out = World::run(3, move |rank| {
        let t = rank.rank();
        let rts = MpiRts::new(rank);
        let ds = DSequence::distribute(&full, Distribution::Cyclic, 3, t);
        ds.gather(&rts)
    });
    for got in out {
        assert_eq!(got, expect);
    }
}

#[test]
fn redistribute_block_to_cyclic_preserves_content() {
    let full: Vec<i32> = (0..17).collect();
    let expect = full.clone();
    let out = World::run(4, move |rank| {
        let t = rank.rank();
        let rts = MpiRts::new(rank);
        let mut ds = DSequence::distribute(&full, Distribution::Block, 4, t);
        ds.redistribute(&rts, Distribution::Cyclic);
        assert_eq!(ds.dist(), &Distribution::Cyclic);
        ds.gather(&rts)
    });
    for got in out {
        assert_eq!(got, expect);
    }
}

#[test]
fn redistribute_to_concentrated_collects_everything() {
    let full: Vec<String> = (0..9).map(|i| format!("s{i}")).collect();
    let out = World::run(3, move |rank| {
        let t = rank.rank();
        let rts = MpiRts::new(rank);
        let mut ds = DSequence::distribute(&full, Distribution::Block, 3, t);
        ds.redistribute(&rts, Distribution::Concentrated(1));
        ds.local().to_vec()
    });
    assert!(out[0].is_empty());
    assert_eq!(out[1].len(), 9);
    assert_eq!(out[1][4], "s4");
    assert!(out[2].is_empty());
}

#[test]
fn redistribute_through_block_cyclic() {
    let full: Vec<i32> = (0..29).collect();
    let expect = full.clone();
    let out = World::run(3, move |rank| {
        let t = rank.rank();
        let rts = MpiRts::new(rank);
        let mut ds = DSequence::distribute(&full, Distribution::Block, 3, t);
        ds.redistribute(&rts, Distribution::BlockCyclic(4));
        ds.redistribute(&rts, Distribution::Cyclic);
        ds.redistribute(&rts, Distribution::BlockCyclic(7));
        ds.gather(&rts)
    });
    for got in out {
        assert_eq!(got, expect);
    }
}

#[test]
fn redistribute_nested_rows() {
    // The paper's matrix type: dynamically-sized rows.
    let rows: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64; i]).collect();
    let expect = rows.clone();
    let out = World::run(2, move |rank| {
        let t = rank.rank();
        let rts = MpiRts::new(rank);
        let mut ds = DSequence::distribute(&rows, Distribution::Block, 2, t);
        ds.redistribute(&rts, Distribution::Cyclic);
        ds.gather(&rts)
    });
    for got in out {
        assert_eq!(got, expect);
    }
}

mod property {
    use super::*;
    use pardis_cdr::CdrCodec;
    use proptest::prelude::*;

    /// A template of kind `kind % 4`, valid for any world of `n > 0`.
    fn template(kind: usize, param: u64, n: usize) -> Distribution {
        match kind % 4 {
            0 => Distribution::Block,
            1 => Distribution::Cyclic,
            2 => Distribution::Concentrated(param as usize % n),
            _ => Distribution::BlockCyclic(1 + param % 5),
        }
    }

    /// Distribute `full` over `n` threads under `src`, redistribute it to
    /// `dst`, and gather it back on every thread.
    fn roundtrip<T: CdrCodec + Clone + Send + Sync + 'static>(
        full: &[T],
        n: usize,
        src: &Distribution,
        dst: &Distribution,
    ) -> Vec<Vec<T>> {
        World::run(n, |rank| {
            let t = rank.rank();
            let rts = MpiRts::new(rank);
            let mut ds = DSequence::distribute(full, src.clone(), n, t);
            ds.redistribute(&rts, dst.clone());
            ds.gather(&rts)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// redistribute is content-preserving for any (src, dst) pair of
        /// the four template kinds over any world size, for fixed-width
        /// elements (`i64`) and variable-width ones (`String`, and the
        /// paper's `Vec<f64>` matrix rows).
        #[test]
        fn redistribute_roundtrip(
            len in 0usize..60,
            n in 1usize..5,
            src_kind in 0usize..4,
            dst_kind in 0usize..4,
            param in 0u64..16,
        ) {
            let src = template(src_kind, param, n);
            let dst = template(dst_kind, param / 3, n);
            let ints: Vec<i64> = (0..len as i64).collect();
            let words: Vec<String> = (0..len).map(|i| "w".repeat(i % 7) + &i.to_string()).collect();
            let rows: Vec<Vec<f64>> = (0..len).map(|i| vec![i as f64 / 4.0; i % 5]).collect();
            for got in roundtrip(&ints, n, &src, &dst) {
                prop_assert_eq!(&got, &ints, "i64 {:?}->{:?} over {}", &src, &dst, n);
            }
            for got in roundtrip(&words, n, &src, &dst) {
                prop_assert_eq!(&got, &words, "String {:?}->{:?} over {}", &src, &dst, n);
            }
            for got in roundtrip(&rows, n, &src, &dst) {
                prop_assert_eq!(&got, &rows, "Vec<f64> {:?}->{:?} over {}", &src, &dst, n);
            }
        }

        /// distribute + local parts reassemble to the original under any
        /// template.
        #[test]
        fn distribute_partitions(len in 0usize..80, n in 1usize..6, cyclic in any::<bool>()) {
            let full: Vec<i32> = (0..len as i32).collect();
            let dist = if cyclic { Distribution::Cyclic } else { Distribution::Block };
            let mut seen = vec![false; len];
            for t in 0..n {
                let ds = DSequence::distribute(&full, dist.clone(), n, t);
                for (g, v) in ds.local_iter() {
                    prop_assert_eq!(*v, full[g as usize]);
                    prop_assert!(!seen[g as usize], "element owned twice");
                    seen[g as usize] = true;
                }
            }
            prop_assert!(seen.iter().all(|&b| b));
        }
    }
}
