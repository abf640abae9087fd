//! The scatter helper's write-once slots: runs that straddle bitmap words,
//! refusal of overlap and of out-of-range runs before anything is read,
//! the missing-element report, clean teardown of a half-filled vector of
//! heap-owning elements, and every set — contiguous or strided, any block
//! length — decoded in one bulk call straight into its slots. Then
//! `assemble`'s choice between adopting a payload that is the whole local
//! part and copying: the same elements either way, and the same refusals.

use crate::dist::Distribution;
use crate::error::{OrbError, OrbResult};
use crate::protocol::SrcTemplate;
use crate::strided::{assemble, pair_plan, Assembler, Pack, Piece, Strided};
use crate::DSequence;
use bytes::Bytes;
use pardis_cdr::{ByteOrder, CdrCodec, Decoder, Encoder};

const WHOLE: Distribution = Distribution::Concentrated(0);

fn payload(words: &[String]) -> Decoder {
    let mut e = Encoder::new(ByteOrder::native());
    String::encode_elems(words, &mut e);
    Decoder::new(e.finish(), ByteOrder::native())
}

fn words(indices: impl Iterator<Item = u64>) -> Vec<String> {
    indices.map(|i| format!("element number {i}")).collect()
}

#[test]
fn runs_across_word_boundaries_assemble_in_place() {
    // 200 slots = 3 full bitmap words and a partial one. Evens arrive as
    // one strided set of one-slot blocks in one decode call, odds are cloned
    // in one at a time, so every word is filled through single-bit masks.
    let len = 200u64;
    let all = words(0..len);
    let mut asm = Assembler::<String>::new(len, &WHOLE, 1, 0);
    let evens = Strided { start: 0, stride: 2, block: 1, count: 100 };
    asm.decode(&evens, &mut payload(&words((0..len).step_by(2)))).unwrap();
    for odd in (1..len).step_by(2) {
        asm.copy(&Strided::run(odd, 1), &all, &WHOLE).unwrap();
    }
    assert_eq!(asm.finish().unwrap(), all);
}

#[test]
fn long_runs_are_marked_a_word_at_a_time() {
    let len = 1_000u64;
    let all = words(0..len);
    let mut asm = Assembler::<String>::new(len, &WHOLE, 1, 0);
    // Bulk-decoded runs with ragged ends: [0,70) [70,130) [130,1000).
    for (start, count) in [(70u64, 60u64), (0, 70), (130, 870)] {
        let part = &all[start as usize..(start + count) as usize];
        asm.decode(&Strided::run(start, count), &mut payload(part)).unwrap();
    }
    assert_eq!(asm.finish().unwrap(), all);
}

#[test]
fn dense_runs_mark_edge_words_masked_and_whole_words_at_once() {
    // Runs of f64 over 512 slots (8 bitmap words) that start or end mid-word
    // or exactly on a word edge, filling the vector between them. Each run
    // then refuses a second delivery of its first, last and middle slots,
    // and the slots just outside it stay free until their own run comes.
    let len = 512u64;
    let values: Vec<f64> = (0..len).map(|i| i as f64 * 1.5).collect();
    let runs = [(0u64, 64u64), (64, 3), (67, 61), (128, 192), (320, 1), (321, 190), (511, 1)];
    let mut asm = Assembler::<f64>::new(len, &WHOLE, 1, 0);
    let doubles = |lo: u64, n: u64| {
        let mut e = Encoder::new(ByteOrder::native());
        f64::encode_elems(&values[lo as usize..(lo + n) as usize], &mut e);
        Decoder::new(e.finish(), ByteOrder::native())
    };
    for (k, &(start, count)) in runs.iter().enumerate() {
        if let Some(&(next, _)) = runs.get(k + 1) {
            assert_eq!(start + count, next, "the runs tile the vector");
        }
        asm.decode(&Strided::run(start, count), &mut doubles(start, count)).unwrap();
        for slot in [start, start + count - 1, start + count / 2] {
            let mut d = doubles(slot, 1);
            assert!(asm.decode(&Strided::run(slot, 1), &mut d).is_err(), "slot {slot}");
            assert_eq!(d.position(), 0, "slot {slot} was read");
        }
    }
    // An overlap found only at a whole word in the middle of the run: the
    // edges of 100..400 are free, word 3 (slots 192..256) is taken.
    let mut asm2 = Assembler::<f64>::new(len, &WHOLE, 1, 0);
    asm2.decode(&Strided::run(192, 64), &mut doubles(192, 64)).unwrap();
    let mut d = doubles(100, 300);
    assert!(matches!(asm2.decode(&Strided::run(100, 300), &mut d), Err(OrbError::Protocol(_))));
    assert_eq!(d.position(), 0, "the refused run was read");
    for (start, count) in [(0, 192), (256, 256)] {
        asm2.decode(&Strided::run(start, count), &mut doubles(start, count)).unwrap();
    }
    assert_eq!(asm2.finish().unwrap(), values);
    assert_eq!(asm.finish().unwrap(), values);
}

#[test]
fn overlap_out_of_range_and_gaps_are_typed_errors() {
    let all = words(0..100);
    let mut asm = Assembler::<String>::new(100, &WHOLE, 1, 0);
    asm.decode(&Strided::run(10, 60), &mut payload(&all[10..70])).unwrap();
    for (what, set) in [
        ("overlap at the front", Strided::run(5, 6)),
        ("overlap at the back", Strided::run(69, 4)),
        ("overlap inside, bulk", Strided::run(20, 30)),
        ("overlap across a word", Strided { start: 60, stride: 8, block: 1, count: 3 }),
        // Free slots first, then one taken: nothing is read or stored.
        ("strided, last slot taken", Strided { start: 1, stride: 9, block: 1, count: 2 }),
        ("strided blocks, last taken", Strided { start: 0, stride: 10, block: 5, count: 2 }),
    ] {
        let n = set.total() as usize;
        let mut d = payload(&all[..n]);
        let err = asm.decode(&set, &mut d).unwrap_err();
        assert!(matches!(err, OrbError::Protocol(_)), "{what}: {err:?}");
        assert_eq!(d.position(), 0, "{what} was read");
    }
    let err = asm.decode(&Strided::run(90, 20), &mut payload(&all[..20])).unwrap_err();
    assert!(matches!(err, OrbError::Protocol(_)), "past the end: {err:?}");
    // The refused deliveries stored nothing: the free slots are still free.
    asm.decode(&Strided::run(0, 10), &mut payload(&all[..10])).unwrap();
    asm.decode(&Strided::run(70, 30), &mut payload(&all[70..])).unwrap();
    assert_eq!(asm.finish().unwrap(), all);
    // The report names the first slot nothing covered.
    let mut asm = Assembler::<String>::new(100, &WHOLE, 1, 0);
    asm.decode(&Strided::run(0, 70), &mut payload(&all[..70])).unwrap();
    asm.decode(&Strided::run(71, 29), &mut payload(&all[71..])).unwrap();
    match asm.finish() {
        Err(OrbError::Protocol(msg)) => assert!(msg.contains("element 70"), "{msg}"),
        other => panic!("expected the first missing element, got {other:?}"),
    }
}

#[test]
fn truncated_payload_tears_down_cleanly() {
    // The decoder runs dry halfway through a strided set: the elements
    // already placed are dropped with the assembler, the rest never existed.
    let all = words(0..64);
    let mut short = payload(&all[..20]);
    let mut asm = Assembler::<String>::new(64, &WHOLE, 1, 0);
    let err = asm.decode(&Strided { start: 0, stride: 2, block: 1, count: 32 }, &mut short);
    assert!(matches!(err, Err(OrbError::Marshal(_))), "{err:?}");
    drop(asm);
    // Nothing at all placed, zero-length sequences included.
    assert!(Assembler::<String>::new(64, &WHOLE, 1, 0).finish().is_err());
    assert_eq!(Assembler::<String>::new(0, &WHOLE, 1, 0).finish().unwrap(), Vec::<String>::new());
}

thread_local! {
    /// `Counted` values decoded and dropped on this test's thread.
    static MADE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static DROPPED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A string that counts its decodes and its drops.
#[derive(Debug, Clone, PartialEq)]
struct Counted(String);

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

#[test]
fn bulk_decode_into_place_keeps_exactly_what_it_decoded() {
    // A 40-element run, decoded by one bulk hook call, whose payload ends
    // after 25: a typed error, and the 25 stay in their slots.
    let all = words(0..40);
    let mut asm = Assembler::<Counted>::new(40, &WHOLE, 1, 0);
    let err = asm.decode(&Strided::run(0, 40), &mut payload(&all[..25]));
    assert!(matches!(err, Err(OrbError::Marshal(_))), "{err:?}");
    assert_eq!((MADE.get(), DROPPED.get()), (25, 0));
    // A second delivery over the decoded prefix and a run past the end are
    // refused before anything is read, let alone written.
    for set in [Strided::run(0, 25), Strided::run(10, 20), Strided::run(30, 20)] {
        let mut d = payload(&all[..set.total() as usize]);
        let err = asm.decode(&set, &mut d);
        assert!(matches!(err, Err(OrbError::Protocol(_))), "{set:?}: {err:?}");
        assert_eq!(d.position(), 0, "{set:?} was read");
    }
    assert_eq!((MADE.get(), DROPPED.get()), (25, 0));
    // The slots the failed decode never reached are still free.
    asm.decode(&Strided::run(25, 15), &mut payload(&all[25..])).unwrap();
    let done = asm.finish().unwrap();
    assert_eq!(done.iter().map(|c| c.0.clone()).collect::<Vec<_>>(), all);
    assert_eq!((MADE.get(), DROPPED.get()), (40, 0));
    drop(done);
    assert_eq!(DROPPED.get(), 40);

    // Torn down half-filled, the prefix is dropped once and only once.
    let mut asm = Assembler::<Counted>::new(40, &WHOLE, 1, 0);
    assert!(asm.decode(&Strided::run(0, 40), &mut payload(&all[..25])).is_err());
    drop(asm);
    assert_eq!((MADE.get(), DROPPED.get()), (65, 65));

    // A strided set — one slot per block, or blocks of 5 — whose payload
    // runs dry inside a block keeps exactly the elements it decoded, each
    // in its strided slot: every other slot still takes an element, every
    // decoded one refuses a second without reading it.
    for block in [1u64, 5] {
        let set = Strided { start: 0, stride: 3 * block, block, count: 8 };
        let len = set.end();
        let all = words(0..len);
        let mine: Vec<u64> = set.runs().flat_map(|r| r.start..r.start + r.count).collect();
        let decoded = mine.len() - 3;
        let sent: Vec<String> = mine[..decoded].iter().map(|&i| all[i as usize].clone()).collect();
        let (made, dropped) = (MADE.get(), DROPPED.get());
        let mut asm = Assembler::<Counted>::new(len, &WHOLE, 1, 0);
        let err = asm.decode(&set, &mut payload(&sent));
        assert!(matches!(err, Err(OrbError::Marshal(_))), "block {block}: {err:?}");
        assert_eq!((MADE.get() - made, DROPPED.get() - dropped), (decoded, 0), "block {block}");
        for i in 0..len {
            let mut d = payload(&all[i as usize..=i as usize]);
            let taken = mine[..decoded].contains(&i);
            assert_eq!(asm.decode(&Strided::run(i, 1), &mut d).is_err(), taken, "slot {i}");
            assert_eq!(d.position() == 0, taken, "block {block}, slot {i}");
        }
        let done = asm.finish().unwrap();
        assert_eq!(done.iter().map(|c| c.0.clone()).collect::<Vec<_>>(), all, "block {block}");
        assert_eq!((MADE.get() - made, DROPPED.get() - dropped), (len as usize, 0));
        drop(done);
        assert_eq!(DROPPED.get() - dropped, len as usize);
    }
}

#[test]
fn foreign_order_doubles_decode_in_bulk_as_they_do_one_by_one() {
    let foreign = match ByteOrder::native() {
        ByteOrder::Big => ByteOrder::Little,
        ByteOrder::Little => ByteOrder::Big,
    };
    let values: Vec<f64> = (0..64).map(|i| (i as f64 - 20.5).exp()).collect();
    let sets = [
        Strided::run(0, 64),
        Strided { start: 1, stride: 3, block: 1, count: 21 },
        Strided { start: 2, stride: 7, block: 4, count: 9 },
    ];
    for (order, set) in
        [foreign, ByteOrder::native()].into_iter().flat_map(|o| sets.map(|s| (o, s)))
    {
        let mine: Vec<usize> =
            set.runs().flat_map(|r| r.start as usize..(r.start + r.count) as usize).collect();
        // A leading octet leaves the doubles unaligned in the buffer.
        let mut e = Encoder::new(order);
        e.write_u8(1);
        for &i in &mine {
            values[i].encode(&mut e);
        }
        let wire = e.finish();
        let mut one_by_one = Decoder::new(wire.clone(), order);
        one_by_one.read_u8().unwrap();
        let want: Vec<f64> = mine.iter().map(|_| f64::decode(&mut one_by_one).unwrap()).collect();
        assert_eq!(want, mine.iter().map(|&i| values[i]).collect::<Vec<_>>());
        let mut d = Decoder::new(wire, order);
        d.read_u8().unwrap();
        let mut asm = Assembler::<f64>::new(64, &WHOLE, 1, 0);
        asm.decode(&set, &mut d).unwrap();
        assert_eq!(d.remaining(), 0);
        // The slots between the blocks are still free, and take the rest.
        for i in (0..64).filter(|i| !mine.contains(i)) {
            asm.copy(&Strided::run(i as u64, 1), &values, &WHOLE).unwrap();
        }
        assert_eq!(asm.finish().unwrap(), values, "{order:?} {set:?}");
    }
}

/// `assemble` of doubles as thread `t` of `n` under `dist`: the local part,
/// and where it lives.
fn assembled(
    len: u64,
    dist: &Distribution,
    n: usize,
    t: usize,
    pieces: &[Piece],
) -> OrbResult<(Vec<f64>, *const u8)> {
    let local = assemble::<f64>(len, dist, n, t, pieces)?;
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
    let plain =
        |start, count, data: Bytes| Piece { start, count, src_thread: 0, template: None, data };

    let (got, at) = assembled(len, &b, 2, 1, &[plain(50, 50, body.clone())]).unwrap();
    assert_eq!((got, at), (mine.clone(), body.as_ptr()), "adopted in place");
    // Sent on, an adopted part is a slice of what was received.
    let local = assemble::<f64>(len, &b, 2, 1, &[plain(50, 50, body.clone())]).unwrap();
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
    let cyclic = |start, src_thread, data| Piece {
        start,
        count: 50,
        src_thread,
        template: Some(SrcTemplate { dist: c.clone(), nthreads: 2 }),
        data,
    };
    let (got, at) = assembled(len, &c, 2, 1, &[cyclic(1, 1, odd.clone())]).unwrap();
    assert_eq!((got, at), (sender_c.local().to_vec(), odd.as_ptr()));

    // A misaligned payload, the part in two pieces, or a payload longer than
    // the part: copied, with the same result.
    let mut longer = values.clone();
    longer.push(1e9);
    let longer = DSequence::distribute(&longer, b.clone(), 1, 0);
    let longer = longer.body(&[Strided::run(50, 51)]).expect("a dense run of doubles");
    for (what, pieces) in [
        ("odd offset", vec![plain(50, 50, misaligned(&body))]),
        ("two pieces", vec![plain(75, 25, body.slice(200..)), plain(50, 25, body.slice(..200))]),
        ("payload past the part", vec![plain(50, 50, longer)]),
    ] {
        let (got, at) = assembled(len, &b, 2, 1, &pieces).unwrap();
        assert_eq!(got, mine, "{what}");
        assert!(pieces.iter().all(|p| p.data.as_ptr() != at), "{what} was adopted");
    }
    let (got, _) = assembled(len, &c, 2, 1, &[cyclic(1, 1, misaligned(&odd))]).unwrap();
    assert_eq!(got, sender_c.local());

    // A whole-part piece that is wrong is refused as before, not viewed.
    for (what, dist, piece) in [
        ("count short of the part", &b, plain(50, 49, body.clone())),
        ("payload short of the count", &b, plain(50, 50, body.slice(..392))),
        ("the part of another thread", &b, plain(0, 50, body.clone())),
        ("start not the plan's", &c, cyclic(3, 1, odd.clone())),
        (
            "plan of another template",
            &c,
            Piece {
                template: Some(SrcTemplate { dist: b.clone(), nthreads: 2 }),
                ..cyclic(1, 1, odd.clone())
            },
        ),
        ("unknown source thread", &c, cyclic(1, 2, odd.clone())),
    ] {
        match assembled(len, dist, 2, 1, &[piece]) {
            Err(OrbError::Protocol(_)) => {}
            other => panic!("{what}: expected a protocol error, got {other:?}"),
        }
    }
}
