//! The assembler: each source thread's share is planned from the source
//! template, taken at most once, and stored set by set in one bulk call
//! into a vector that holds values throughout, so a teardown at any point
//! drops each value once and leaks nothing. Then `assemble`'s choice between
//! adopting a payload that is the whole local part and copying, its
//! refusals, and a property test of both against the `distribute` oracle.

use crate::dist::Distribution;
use crate::error::{OrbError, OrbResult};
use crate::object::BindingId;
use crate::protocol::{ArgDir, FragmentMsg};
use crate::strided::{assemble, pair_plan, Assembler, Pack, Strided};
use crate::DSequence;
use bytes::Bytes;
use pardis_cdr::{ByteOrder, CdrCodec, Decoder, Encoder};

const WHOLE: Distribution = Distribution::Concentrated(0);

fn encode<T: CdrCodec>(items: &[T]) -> Bytes {
    let mut e = Encoder::new(ByteOrder::native());
    T::encode_elems(items, &mut e);
    e.finish()
}

fn payload<T: CdrCodec>(items: &[T]) -> Decoder {
    Decoder::new(encode(items), ByteOrder::native())
}

fn words(indices: impl Iterator<Item = u64>) -> Vec<String> {
    indices.map(|i| format!("element number {i}")).collect()
}

/// The elements of `sets`, in plan order.
fn planned<T: Clone>(all: &[T], sets: &[Strided]) -> Vec<T> {
    let runs = sets.iter().flat_map(Strided::runs);
    runs.flat_map(|r| all[r.start as usize..(r.start + r.count) as usize].to_vec()).collect()
}

#[test]
fn each_source_is_taken_once_and_fills_its_share() {
    // 200 words held Cyclic over 3 threads land on thread 0 of 1: each
    // source's share is one strided set of one-slot blocks, decoded in one
    // call.
    let len = 200u64;
    let all = words(0..len);
    let cyclic = Distribution::Cyclic;
    let mut asm = Assembler::<String>::new(len, (&cyclic, 3), (&WHOLE, 1, 0));
    for (s, count) in [(2, 66), (0, 67)] {
        let sets = asm.source(s).unwrap().to_vec();
        assert_eq!(sets, vec![Strided { start: s as u64, stride: 3, block: 1, count }]);
        asm.decode(&mut payload(&planned(&all, &sets))).unwrap();
    }
    // A source taken already, and one the sender does not have, are refused.
    for s in [0, 2, 3, usize::MAX] {
        assert!(matches!(asm.source(s), Err(OrbError::Protocol(_))), "source {s}");
    }
    let sets = asm.source(1).unwrap().to_vec();
    asm.decode(&mut payload(&planned(&all, &sets))).unwrap();
    assert_eq!(asm.finish().unwrap(), all);
}

#[test]
fn a_missing_source_is_refused_at_finish() {
    let all = words(0..100);
    let b = Distribution::Block;
    let mut asm = Assembler::<String>::new(100, (&b, 2), (&WHOLE, 1, 0));
    assert_eq!(asm.source(1).unwrap(), &[Strided::run(50, 50)]);
    asm.decode(&mut payload(&all[50..])).unwrap();
    match asm.finish() {
        Err(OrbError::Protocol(msg)) => assert!(msg.contains("50 of thread 0's 100"), "{msg}"),
        other => panic!("expected the shortfall, got {other:?}"),
    }
    // Nothing at all placed, zero-length sequences included.
    assert!(Assembler::<String>::new(64, (&b, 2), (&WHOLE, 1, 0)).finish().is_err());
    let empty = Assembler::<String>::new(0, (&b, 2), (&WHOLE, 1, 0)).finish().unwrap();
    assert_eq!(empty, Vec::<String>::new());
}

#[test]
fn own_share_is_copied_and_the_rest_decoded() {
    // A redistribution step, Block to Cyclic over two threads, at thread 1:
    // it keeps the odd indices of its own half and takes the others'.
    let values: Vec<f64> = (0..64).map(|i| i as f64 * 0.75).collect();
    let (b, c) = (Distribution::Block, Distribution::Cyclic);
    let mut asm = Assembler::<f64>::new(64, (&b, 2), (&c, 2, 1));
    asm.copy(&values[32..]).unwrap();
    assert!(matches!(asm.copy(&values[32..]), Err(OrbError::Protocol(_))), "copied twice");
    let sets = asm.source(0).unwrap().to_vec();
    asm.decode(&mut payload(&planned(&values, &sets))).unwrap();
    let odd: Vec<f64> = values.iter().copied().skip(1).step_by(2).collect();
    assert_eq!(asm.finish().unwrap(), odd);
    // A local part too short for the share is refused, not indexed past.
    let mut asm = Assembler::<f64>::new(64, (&b, 2), (&c, 2, 1));
    assert!(matches!(asm.copy(&values[32..40]), Err(OrbError::Protocol(_))));
}

thread_local! {
    /// `Counted` values decoded or cloned, and dropped, on this test's thread.
    static MADE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static DROPPED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A string that counts its making and its drops.
#[derive(Debug, PartialEq)]
struct Counted(String);

impl Clone for Counted {
    fn clone(&self) -> Self {
        MADE.with(|n| n.set(n.get() + 1));
        Counted(self.0.clone())
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        DROPPED.with(|n| n.set(n.get() + 1));
    }
}

impl CdrCodec for Counted {
    fn encode(&self, e: &mut Encoder) {
        self.0.encode(e);
    }
    fn decode(d: &mut Decoder) -> Result<Self, pardis_cdr::CdrError> {
        let s = String::decode(d)?;
        MADE.with(|n| n.set(n.get() + 1));
        Ok(Counted(s))
    }
    fn type_code() -> pardis_cdr::TypeCode {
        String::type_code()
    }
}

/// Values made and dropped since `from`.
fn counted_since(from: (usize, usize)) -> (usize, usize) {
    (MADE.get() - from.0, DROPPED.get() - from.1)
}

#[test]
fn truncated_payload_tears_down_cleanly() {
    // The decoder runs dry inside a strided share, and inside a run: a
    // typed error, and the half-built vector — the elements decoded and the
    // values the other slots held — is dropped with the assembler, each
    // value exactly once.
    let all = words(0..64);
    for (src, n) in [(Distribution::Cyclic, 2), (Distribution::Block, 1)] {
        let from = (MADE.get(), DROPPED.get());
        let mut asm = Assembler::<Counted>::new(64, (&src, n), (&WHOLE, 1, 0));
        asm.source(0).unwrap();
        let err = asm.decode(&mut payload(&all[..20]));
        assert!(matches!(err, Err(OrbError::Marshal(_))), "{src:?}: {err:?}");
        drop(asm);
        let (made, dropped) = counted_since(from);
        assert!(made > 20, "{src:?}: {made} made");
        assert_eq!(made, dropped, "{src:?}: every value made is dropped once");
    }
    // Finished, the vector holds exactly the decoded elements, and the
    // values they replaced are gone already.
    let from = (MADE.get(), DROPPED.get());
    let mut asm = Assembler::<Counted>::new(64, (&Distribution::Block, 1), (&WHOLE, 1, 0));
    asm.source(0).unwrap();
    asm.decode(&mut payload(&all)).unwrap();
    let done = asm.finish().unwrap();
    assert_eq!(done.iter().map(|c| c.0.clone()).collect::<Vec<_>>(), all);
    let (made, dropped) = counted_since(from);
    assert_eq!(made - dropped, 64, "the vector's 64 values, nothing else, are alive");
    drop(done);
    assert_eq!(counted_since(from).0, counted_since(from).1);
}

#[test]
fn foreign_order_doubles_decode_in_bulk_as_they_do_one_by_one() {
    let foreign = match ByteOrder::native() {
        ByteOrder::Big => ByteOrder::Little,
        ByteOrder::Little => ByteOrder::Big,
    };
    let values: Vec<f64> = (0..64).map(|i| (i as f64 - 20.5).exp()).collect();
    // A run, one-slot blocks, and blocks of four: the share of the source
    // under test, the other sources' shares decoded after it.
    let sources = [
        (Distribution::Block, 1, 0),
        (Distribution::Cyclic, 3, 1),
        (Distribution::BlockCyclic(4), 2, 1),
    ];
    for (order, (src, n, s)) in
        [foreign, ByteOrder::native()].into_iter().flat_map(|o| sources.clone().map(|s| (o, s)))
    {
        let mut asm = Assembler::<f64>::new(64, (&src, n), (&WHOLE, 1, 0));
        let mine = planned(&values, asm.source(s).unwrap());
        // A leading octet leaves the doubles unaligned in the buffer.
        let mut e = Encoder::new(order);
        e.write_u8(1);
        for v in &mine {
            v.encode(&mut e);
        }
        let wire = e.finish();
        let mut one_by_one = Decoder::new(wire.clone(), order);
        one_by_one.read_u8().unwrap();
        let want: Vec<f64> = mine.iter().map(|_| f64::decode(&mut one_by_one).unwrap()).collect();
        assert_eq!(want, mine);
        let mut d = Decoder::new(wire, order);
        d.read_u8().unwrap();
        asm.decode(&mut d).unwrap();
        assert_eq!(d.remaining(), 0);
        for other in (0..n).filter(|&o| o != s) {
            let theirs = planned(&values, asm.source(other).unwrap());
            asm.decode(&mut payload(&theirs)).unwrap();
        }
        assert_eq!(asm.finish().unwrap(), values, "{order:?} {src:?}");
    }
}

/// `assemble` of doubles as thread `t` of `n` under `dist`, from pieces cut
/// under `src`: the local part, and where it lives.
fn assembled(
    len: u64,
    src: (&Distribution, usize),
    (dist, n, t): (&Distribution, usize, usize),
    pieces: &[FragmentMsg],
) -> OrbResult<(Vec<f64>, *const u8)> {
    let local = assemble::<f64>(len, src, (dist, n, t), pieces)?;
    let ds = DSequence::from_shared(local, len, dist.clone(), n, t);
    Ok((ds.local().to_vec(), ds.local().as_ptr().cast()))
}

/// The same bytes one byte past an odd address: never aligned for a number
/// wider than a byte.
pub(super) fn misaligned(data: &Bytes) -> Bytes {
    let mut raw = vec![0u8];
    raw.extend_from_slice(data);
    Bytes::from(raw).slice(1..)
}

/// A received fragment of `count` elements from `start`, out of `src_thread`.
pub(super) fn piece(start: u64, count: u64, src_thread: u32, data: Bytes) -> FragmentMsg {
    FragmentMsg {
        start,
        count,
        data,
        ..FragmentMsg::head(0, BindingId(0), 0, ArgDir::In, src_thread)
    }
}

#[test]
fn a_whole_part_payload_is_adopted_and_anything_else_copied() {
    let len = 100u64;
    let values: Vec<f64> = (0..len).map(|i| i as f64 * 0.5 - 7.0).collect();
    let (b, c) = (Distribution::Block, Distribution::Cyclic);
    // Thread 1 of a Block pair owns 50..100; a one-thread sender's body for
    // that run is its own storage, as `cut_fragments` sends it.
    let mine = values[50..].to_vec();
    let sender = DSequence::distribute(&values, b.clone(), 1, 0);
    let body = sender.body(&[Strided::run(50, 50)]).expect("a dense run of doubles");
    let one = (&b, 1);
    let at_b1 = (&b, 2, 1);

    let (got, at) = assembled(len, one, at_b1, &[piece(50, 50, 0, body.clone())]).unwrap();
    assert_eq!((got, at), (mine.clone(), body.as_ptr()), "adopted in place");
    // Sent on, an adopted part is a slice of what was received.
    let local = assemble::<f64>(len, one, at_b1, &[piece(50, 50, 0, body.clone())]).unwrap();
    let adopted = DSequence::from_shared(local, len, b.clone(), 2, 1);
    let part = adopted.body(&[Strided::run(60, 10)]).expect("a dense run of doubles");
    assert_eq!(part, body.slice(80..160));
    assert_eq!(part.as_ptr(), body[80..].as_ptr(), "forwarded without a copy");

    // A strided set whose image on both sides is dense — thread 1 to
    // thread 1 of two Cyclic pairs — is adopted the same way.
    let sender_c = DSequence::distribute(&values, c.clone(), 2, 1);
    let mut sets = Vec::new();
    pair_plan(len, &c, 2, 1, &c, 2, 1, &mut sets);
    let odd = sender_c.body(&sets).expect("a dense run of the sender's storage");
    let cyclic = |start, src_thread, data| piece(start, 50, src_thread, data);
    let at_c1 = (&c, 2, 1);
    let (got, at) = assembled(len, (&c, 2), at_c1, &[cyclic(1, 1, odd.clone())]).unwrap();
    assert_eq!((got, at), (sender_c.local().to_vec(), odd.as_ptr()));

    // A misaligned payload, the part in two pieces, or a payload longer than
    // the part: copied, with the same result.
    let mut longer = values.clone();
    longer.push(1e9);
    let longer = DSequence::distribute(&longer, b.clone(), 1, 0);
    let longer = longer.body(&[Strided::run(50, 51)]).expect("a dense run of doubles");
    let split = Distribution::Irregular(vec![75, 25]);
    for (what, src, pieces) in [
        ("odd offset", one, vec![piece(50, 50, 0, misaligned(&body))]),
        (
            "two pieces",
            (&split, 2),
            vec![piece(75, 25, 1, body.slice(200..)), piece(50, 25, 0, body.slice(..200))],
        ),
        ("payload past the part", one, vec![piece(50, 50, 0, longer)]),
    ] {
        let (got, at) = assembled(len, src, at_b1, &pieces).unwrap();
        assert_eq!(got, mine, "{what}");
        assert!(pieces.iter().all(|p| p.data.as_ptr() != at), "{what} was adopted");
    }
    let (got, _) = assembled(len, (&c, 2), at_c1, &[cyclic(1, 1, misaligned(&odd))]).unwrap();
    assert_eq!(got, sender_c.local());

    // A whole-part piece that is wrong is refused as before, not viewed.
    for (what, src, at, p) in [
        ("count short of the part", one, at_b1, piece(50, 49, 0, body.clone())),
        ("payload short of the count", one, at_b1, piece(50, 50, 0, body.slice(..392))),
        ("the part of another thread", one, at_b1, piece(0, 50, 0, body.clone())),
        ("start not the plan's", (&c, 2), at_c1, cyclic(3, 1, odd.clone())),
        ("plan of another template", (&b, 2), at_c1, cyclic(1, 1, odd.clone())),
        ("unknown source thread", (&c, 2), at_c1, cyclic(1, 2, odd.clone())),
    ] {
        match assembled(len, src, at, &[p]) {
            Err(OrbError::Protocol(_)) => {}
            other => panic!("{what}: expected a protocol error, got {other:?}"),
        }
    }
}

/// A template of each kind for `len` elements over `n` threads: Block,
/// Cyclic, BlockCyclic(`b`), Concentrated, or Irregular cut at `cuts`.
pub(super) fn template(kind: u8, b: u64, cuts: &[u64], len: u64, n: usize) -> Distribution {
    match kind {
        0 => Distribution::Block,
        1 => Distribution::Cyclic,
        2 => Distribution::BlockCyclic(b),
        3 => Distribution::Concentrated(b as usize % n),
        _ => {
            // `n - 1` cut points split `0..len` into `n` counts.
            let mut ends: Vec<u64> = cuts[..n - 1].iter().map(|c| c % (len + 1)).collect();
            ends.sort_unstable();
            ends.push(len);
            let starts = std::iter::once(0).chain(ends.iter().copied());
            Distribution::Irregular(starts.zip(&ends).map(|(lo, hi)| hi - lo).collect())
        }
    }
}

mod property {
    use super::*;
    use proptest::prelude::*;

    /// What every source of `src` sends thread `t` of `dst` for `full`: one
    /// piece per source that owes it elements, cut by `pair_plan`.
    fn planned_pieces(
        full: &[f64],
        src: (&Distribution, usize),
        (dist, n, t): (&Distribution, usize, usize),
    ) -> Vec<FragmentMsg> {
        let len = full.len() as u64;
        let mut pieces = Vec::new();
        for s in 0..src.1 {
            let mut sets = Vec::new();
            pair_plan(len, src.0, src.1, s, dist, n, t, &mut sets);
            if let Some(first) = sets.first() {
                let count = sets.iter().map(Strided::total).sum();
                let data = encode(&planned(full, &sets));
                pieces.push(piece(first.start, count, s as u32, data));
            }
        }
        pieces
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5_000))]

        #[test]
        fn planned_pieces_assemble_to_the_oracle(
            len in 0u64..200,
            src_n in 1usize..6,
            dst_n in 1usize..6,
            kinds in (0u8..5, 0u8..5),
            blocks in (1u64..20, 1u64..20),
            cuts in proptest::collection::vec(any::<u64>(), 10),
            t in any::<usize>(),
            reversed in any::<bool>(),
        ) {
            let src_dist = template(kinds.0, blocks.0, &cuts[..5], len, src_n);
            let dst_dist = template(kinds.1, blocks.1, &cuts[5..], len, dst_n);
            let t = t % dst_n;
            let full: Vec<f64> = (0..len).map(|i| i as f64 * 0.25 - 3.0).collect();
            let dst = (&dst_dist, dst_n, t);
            let mut pieces = planned_pieces(&full, (&src_dist, src_n), dst);
            if reversed {
                pieces.reverse();
            }
            let local = assemble::<f64>(len, (&src_dist, src_n), dst, &pieces);
            let ds = DSequence::from_shared(local.unwrap(), len, dst_dist.clone(), dst_n, t);
            let want = DSequence::distribute(&full, dst_dist.clone(), dst_n, t);
            prop_assert_eq!(ds.local(), want.local());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6_000))]

        #[test]
        fn arbitrary_pieces_are_assembled_or_refused(
            len in 0u64..120,
            src_n in 1usize..5,
            dst_n in 1usize..5,
            kinds in (0u8..5, 0u8..5),
            blocks in (1u64..12, 1u64..12),
            cuts in proptest::collection::vec(any::<u64>(), 8),
            t in any::<usize>(),
            // 1..=3 break the source template; anything else keeps it.
            broken in 0u8..12,
            // Each edit: what to change, which piece, and a value.
            edits in proptest::collection::vec((0u8..8, any::<usize>(), any::<u64>()), 0..4),
        ) {
            let mut src_dist = template(kinds.0, blocks.0, &cuts[..4], len, src_n);
            let dst_dist = template(kinds.1, blocks.1, &cuts[4..], len, dst_n);
            let t = t % dst_n;
            let full: Vec<f64> = (0..len).map(|i| i as f64).collect();
            let dst = (&dst_dist, dst_n, t);
            let mut pieces = planned_pieces(&full, (&src_dist, src_n), dst);
            src_dist = match broken {
                1 => Distribution::BlockCyclic(0),
                2 => Distribution::Concentrated(src_n),
                3 => Distribution::Irregular(vec![len + 1; src_n]),
                _ => src_dist,
            };
            for (what, at, value) in edits {
                let wild = |v: u64| match v % 4 {
                    0 => v,
                    1 => u64::MAX - v % 3,
                    _ => v % (len + 2),
                };
                let Some(i) = (!pieces.is_empty()).then(|| at % pieces.len()) else {
                    pieces.push(piece(wild(value), wild(value >> 7), 0, encode(&full)));
                    continue;
                };
                let p = &mut pieces[i];
                match what {
                    0 => p.start = wild(value),
                    1 => p.count = wild(value),
                    2 => p.src_thread = (value % (src_n as u64 + 2)) as u32,
                    3 => p.data = p.data.slice(..(value as usize % (p.data.len() + 1))),
                    4 => p.data = misaligned(&p.data),
                    5 => {
                        let dup = p.clone();
                        pieces.push(dup);
                    }
                    6 => {
                        pieces.remove(i);
                    }
                    _ => pieces.push(piece(wild(value), wild(value >> 9), 0, encode(&full))),
                }
            }
            let got = assemble::<f64>(len, (&src_dist, src_n), dst, &pieces);
            prop_assert!(
                matches!(got, Ok(_) | Err(OrbError::Protocol(_))),
                "neither assembled nor refused: {:?}", got.err()
            );
            if (1..=3).contains(&broken) {
                prop_assert!(got.is_err(), "assembled under an invalid source template");
            }
        }
    }
}
