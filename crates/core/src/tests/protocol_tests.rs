use crate::dist::Distribution;
use crate::object::{BindingId, ClientId, EndpointId, ObjectKey};
use crate::protocol::*;
use bytes::Bytes;
use pardis_cdr::Encoder;

pub(super) fn sample_request() -> RequestMsg {
    RequestMsg {
        req_id: 42,
        binding: BindingId(7),
        entity: 6,
        client_seq: 9,
        client: ClientId(3),
        object: ObjectKey(11),
        op: "solve".into(),
        oneway: false,
        funneled: true,
        reply_to: vec![EndpointId(100), EndpointId(101)],
        client_threads: 2,
        client_host: 1,
        ins: vec![Bytes::from(vec![1, 2, 3]), Bytes::new()],
        dargs: vec![
            DArgDesc { dir: ArgDir::In, len: 1024, client_dist: Distribution::Block },
            DArgDesc {
                dir: ArgDir::Out,
                len: 0,
                client_dist: Distribution::Irregular(vec![10, 20]),
            },
        ],
    }
}

#[test]
fn request_roundtrip() {
    let msg = Message::Request(sample_request());
    let wire = msg.encode();
    assert_eq!(&wire[..4], b"PRDS");
    assert_eq!(Message::decode(&wire).unwrap(), msg);
}

#[test]
fn a_control_framed_from_borrowed_fields_is_the_request_frame() {
    // Slots of every length modulo 4, so each length word after the first
    // needs its own padding, and a stream with alignment of its own.
    let slots: Vec<Vec<u8>> = vec![vec![], vec![7], vec![1, 2, 3], vec![9; 8], vec![5; 13]];
    for n in 0..=slots.len() {
        let mut msg = sample_request();
        msg.ins = slots[..n].iter().cloned().map(Bytes::from).collect();
        let mut framed = Encoder::new(pardis_cdr::ByteOrder::native());
        for slot in &slots[..n] {
            framed.write_byte_seq_with(0, |e| e.write_raw(slot));
        }
        let view = RequestView {
            ins: InArgs::Framed { count: n as u32, bytes: framed.as_slice() },
            ..RequestView::of(&msg)
        };
        assert_eq!(view.encode(), Message::Request(msg.clone()).encode(), "{n} slots");
    }
}

#[test]
fn reply_roundtrip_ok_and_exception() {
    for status in [
        ReplyStatus::Ok,
        ReplyStatus::Exception("boom".into()),
        ReplyStatus::UserException { id: "overflow".into(), data: vec![1, 2, 3] },
    ] {
        let msg = Message::Reply(ReplyMsg {
            req_id: 1,
            binding: BindingId(2),
            status,
            outs: vec![Bytes::from(vec![9, 9])],
            douts: vec![DOutDesc {
                len: 512,
                dist: Distribution::Irregular(vec![200, 312]),
                nthreads: 2,
            }],
        });
        let wire = msg.encode();
        assert_eq!(Message::decode(&wire).unwrap(), msg);
    }
}

#[test]
fn fragment_roundtrip() {
    let msg = Message::Fragment(FragmentMsg {
        req_id: 5,
        binding: BindingId(6),
        arg: 2,
        dir: ArgDir::Out,
        start: 128,
        count: 64,
        dst_thread: 3,
        src_thread: 1,
        data: Bytes::from((0..200u8).collect::<Vec<u8>>()),
    });
    let wire = msg.encode();
    assert_eq!(Message::decode(&wire).unwrap(), msg);
}

/// A fragment frame's acknowledgement lag: decoded beside the message,
/// alone or riding behind a request, traced or not, at no cost in length;
/// `Message::decode` drops it, and no other frame carries one.
#[test]
fn fragment_ack_lag_roundtrips_at_no_length() {
    let frag = FragmentMsg {
        req_id: 5,
        binding: BindingId(6),
        arg: 2,
        dir: ArgDir::In,
        start: 128,
        count: 64,
        dst_thread: 3,
        src_thread: 1,
        data: Bytes::from((0..200u8).collect::<Vec<u8>>()),
    };
    let request = Message::Request(sample_request()).encode();
    let frame = |rider: Option<&Bytes>, lag| frame_fragment(&frag, rider, lag, packed(&frag.data));
    for traced in [false, true] {
        let _ctx = traced.then(|| {
            pardis_obs::enter_ctx(pardis_obs::TraceCtx { trace_id: 0x1111, span_id: 0x2222 })
        });
        let plain = Message::Fragment(frag.clone()).encode();
        for lag in [0u16, 1, 0x1234, u16::MAX] {
            let wire = frame(None, lag);
            assert_eq!(wire.len(), plain.len(), "lag {lag}");
            let (msg, ctx, got) = Message::decode_traced(&wire).unwrap();
            assert_eq!((msg, ctx.is_some(), got), (Message::Fragment(frag.clone()), traced, lag));
            assert_eq!(Message::decode(&wire.head).unwrap(), Message::Fragment(frag.clone()));

            let merged = frame(Some(&request), lag);
            assert_eq!(Message::decode_traced(&merged).unwrap().2, 0, "the envelope has no lag");
            let Message::Batch(subs) = Message::decode(&merged.head).unwrap() else {
                panic!("batch")
            };
            assert_eq!(subs, vec![request.clone().into(), wire.clone()]);
            assert_eq!(Message::decode_traced(&subs[1]).unwrap().2, lag);
        }
        assert_eq!(frame(None, 0).head, plain, "lag 0 is the plain frame");
    }
    for msg in sample_messages().into_iter().filter(|m| m.kind() != "fragment") {
        assert_eq!(Message::decode_traced(&msg.encode().into()).unwrap().2, 0, "{}", msg.kind());
    }
}

#[test]
fn cancel_and_close_roundtrip() {
    for msg in [Message::Cancel { binding: BindingId(1), req_id: 9 }, Message::Close] {
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }
}

#[test]
fn bad_magic_rejected() {
    let mut wire = Message::Close.encode().to_vec();
    wire[0] = b'X';
    assert!(Message::decode(&Bytes::from(wire)).is_err());
}

#[test]
fn truncated_frame_rejected() {
    let wire = Message::Request(sample_request()).encode();
    let cut = wire.slice(0..wire.len() / 2);
    assert!(Message::decode(&cut).is_err());
    assert!(Message::decode(&wire.slice(0..3)).is_err());
}

#[test]
fn unknown_type_tag_rejected() {
    let mut wire = Message::Close.encode().to_vec();
    wire[6] = 250;
    assert!(Message::decode(&Bytes::from(wire)).is_err());
}

#[test]
fn version_mismatch_rejected() {
    for msg in [Message::Close, Message::Request(sample_request())] {
        let mut wire = msg.encode().to_vec();
        assert_eq!(wire[4], VERSION);
        wire[4] = VERSION.wrapping_add(1);
        let err = Message::decode(&Bytes::from(wire)).unwrap_err();
        assert!(err.to_string().contains("version"), "error was: {err}");
    }
}

/// One of each of the five message types, for mutation fuzzing.
fn sample_messages() -> Vec<Message> {
    vec![
        Message::Request(sample_request()),
        Message::Reply(ReplyMsg {
            req_id: 1,
            binding: BindingId(2),
            status: ReplyStatus::UserException { id: "overflow".into(), data: vec![1, 2, 3] },
            outs: vec![Bytes::from(vec![9, 9])],
            douts: vec![DOutDesc {
                len: 512,
                dist: Distribution::Irregular(vec![200, 312]),
                nthreads: 2,
            }],
        }),
        Message::Fragment(FragmentMsg {
            req_id: 5,
            binding: BindingId(6),
            arg: 2,
            dir: ArgDir::Out,
            start: 128,
            count: 64,
            dst_thread: 3,
            src_thread: 1,
            data: Bytes::from((0..200u8).collect::<Vec<u8>>()),
        }),
        Message::Cancel { binding: BindingId(1), req_id: 9 },
        Message::Close,
    ]
}

mod property {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fragment_fuzz_roundtrip(
            req_id in any::<u64>(),
            arg in any::<u32>(),
            start in any::<u64>(),
            count in any::<u64>(),
            ack_lag in any::<u16>(),
            data in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let frag = FragmentMsg {
                req_id,
                binding: BindingId(1),
                arg,
                dir: ArgDir::In,
                start,
                count,
                dst_thread: 0,
                src_thread: 0,
                data: Bytes::from(data),
            };
            let msg = Message::Fragment(frag.clone());
            prop_assert_eq!(Message::decode(&msg.encode()).unwrap(), msg.clone());
            let wire = frame_fragment(&frag, None, ack_lag, packed(&frag.data));
            prop_assert_eq!(Message::decode_traced(&wire).unwrap(), (msg, None, ack_lag));
        }

        #[test]
        fn decode_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = Message::decode(&Bytes::from(data));
        }

        #[test]
        fn decode_never_panics_on_mutated_frames(
            flip in 0usize..64,
            val in any::<u8>(),
        ) {
            let mut wire = Message::Request(sample_request()).encode().to_vec();
            let idx = flip % wire.len();
            wire[idx] = val;
            let _ = Message::decode(&Bytes::from(wire));
        }

        #[test]
        fn decode_never_panics_on_truncation_of_any_type(cut in 0.0f64..1.0) {
            // Truncate each of the five message types at a proportional
            // offset: decode must error or succeed, never panic.
            for msg in sample_messages() {
                let wire = msg.encode();
                let keep = (wire.len() as f64 * cut) as usize;
                let _ = Message::decode(&wire.slice(0..keep));
            }
        }

        #[test]
        fn decode_never_panics_on_bit_flips_of_any_type(
            pos in any::<usize>(),
            bit in 0u8..8,
        ) {
            for msg in sample_messages() {
                let mut wire = msg.encode().to_vec();
                let idx = pos % wire.len();
                wire[idx] ^= 1 << bit;
                let _ = Message::decode(&Bytes::from(wire));
            }
        }
    }
}

/// The frames a receiver's decoder meets at the head/body seam, each as the
/// sender built it: a request, a reply, a fragment whose payload travels as
/// its body, and a batch envelope whose last sub-frame is that fragment.
fn seam_frames() -> [(&'static str, Wire); 4] {
    let frag = FragmentMsg {
        req_id: 5,
        binding: BindingId(6),
        arg: 2,
        dir: ArgDir::In,
        start: 128,
        count: 25,
        dst_thread: 3,
        src_thread: 1,
        data: Bytes::new(),
    };
    let body = Bytes::from((0..200u8).collect::<Vec<u8>>());
    let fragment =
        |rider| frame_fragment(&frag, rider, 7, Payload::<fn(&mut Encoder)>::Body(body.clone()));
    let request = Message::Request(sample_request()).encode();
    let reply = sample_messages().swap_remove(1).encode();
    [
        ("request", request.clone().into()),
        ("reply", reply.into()),
        ("fragment", fragment(None)),
        ("batch", fragment(Some(&request))),
    ]
}

/// `frame` re-cut at `cut` into a head and a body, the body's storage one
/// byte off an aligned address when `misalign` is set.
fn split_at(frame: &[u8], cut: usize, misalign: bool) -> Wire {
    let mut storage = vec![0u8; usize::from(misalign)];
    storage.extend_from_slice(&frame[cut..]);
    let body = Bytes::from(storage).slice(usize::from(misalign)..);
    Wire { head: Bytes::copy_from_slice(&frame[..cut]), body }
}

/// Every seam of every frame, aligned and not: the decoder returns a value
/// or a typed error, and the sender's own seam gives back the message.
#[test]
fn decode_traced_survives_every_head_body_seam() {
    for (kind, wire) in seam_frames() {
        let frame = wire.to_bytes();
        let expected = Message::decode_traced(&wire).unwrap();
        for cut in 0..=frame.len() {
            for misalign in [false, true] {
                let got = Message::decode_traced(&split_at(&frame, cut, misalign));
                if cut == wire.head.len() {
                    assert_eq!(got.as_ref(), Ok(&expected), "{kind} at its own seam");
                }
            }
        }
    }
}

mod seam_fuzz {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        /// Each case corrupts one byte of every seam frame (an `xor` of 0
        /// leaves it intact), cuts it into a head and a body at any byte
        /// and may misalign the body: decoding returns `Ok` or a typed
        /// `CdrError`, and a panic fails the case. 10 000 cases per kind.
        #[test]
        fn decode_traced_never_panics_across_the_seam(
            cut in any::<usize>(),
            pos in any::<usize>(),
            xor in any::<u8>(),
            misalign in any::<bool>(),
        ) {
            for (_, wire) in seam_frames() {
                let mut frame = wire.to_bytes().to_vec();
                let at = pos % frame.len();
                frame[at] ^= xor;
                let wire = split_at(&frame, cut % (frame.len() + 1), misalign);
                let _: Result<_, pardis_cdr::CdrError> = Message::decode_traced(&wire);
            }
        }
    }
}
