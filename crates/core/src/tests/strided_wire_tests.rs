//! What strided transfers put on the wire, and what a receiver does with
//! frames it cannot trust: every thread pair's share travels as one plain
//! `Fragment` frame, byte for byte the contiguous frame of old, the reply
//! names the server's template, and no malformed piece gets past
//! `assemble` as anything but a typed error.

use crate::dist::Distribution;
use crate::error::OrbError;
use crate::object::{BindingId, ClientId, ObjectKey, ObjectKind, ObjectRef, ServerId};
use crate::orb::ObjectMeta;
use crate::protocol::*;
use crate::repository::DEFAULT_REPOSITORY;
use crate::servant::{DInLocal, Servant, ServantCtx, ServerReply, ServerRequest};
use crate::strided::{pair_plan, Strided};
use crate::tests::assembler_tests::{piece, template};
use crate::{ClientGroup, DSequence, DistPolicy, Orb, OrbResult, ServerGroup};
use bytes::Bytes;
use pardis_cdr::{ByteOrder, CdrCodec, Encoder};
use pardis_netsim::{Link, Network, TimeScale};
use pardis_rts::{MpiRts, Rts, World};
use std::sync::Arc;
use std::time::Duration;

fn head(arg: u32, dir: ArgDir, start: u64, count: u64, dst: u32, src: u32) -> FragmentMsg {
    FragmentMsg {
        req_id: 0,
        binding: BindingId(0),
        arg,
        dir,
        start,
        count,
        dst_thread: dst,
        src_thread: src,
        data: Bytes::new(),
    }
}

/// The message a received frame holds.
fn decode(wire: &Wire) -> Message {
    Message::decode_traced(wire).unwrap().0
}

fn encode_elems<T: CdrCodec>(items: &[T]) -> Bytes {
    let mut e = Encoder::new(ByteOrder::native());
    T::encode_elems(items, &mut e);
    e.finish()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

/// Frames produced by `encode_fragment_frame` and `Message::Reply(..)
/// .encode()` for these exact inputs (little-endian host). The fragment is
/// the frame contiguous pairs have always had; the reply's out-argument
/// descriptor is its length, the server's thread count and its template.
#[cfg(target_endian = "little")]
#[test]
fn plain_fragment_and_reply_frames_match_golden_bytes() {
    let golden_fragment = unhex(concat!(
        "5052445301010200",
        "0807060504030201",
        "1817161514131211",
        "03000000",
        "01000000",
        "2800000000000000",
        "0200000000000000",
        "01000000",
        "02000000",
        "10000000",
        "000102030405060708090a0b0c0d0e0f",
    ));
    let head = FragmentMsg {
        req_id: 0x0102030405060708,
        binding: BindingId(0x1112131415161718),
        arg: 3,
        dir: ArgDir::Out,
        start: 40,
        count: 2,
        dst_thread: 1,
        src_thread: 2,
        data: Bytes::new(),
    };
    let payload: Vec<u8> = (0u8..16).collect();
    assert_eq!(encode_fragment_frame(&head, &payload)[..], golden_fragment[..]);
    let lagged = |lag| frame_fragment(&head, None, lag, packed(&payload)).head;
    assert_eq!(lagged(0)[..], golden_fragment[..], "lag 0 acknowledges nothing, byte for byte");
    // A lag fills two of the three padding bytes after `dir`, nothing else.
    let mut golden_lagged = golden_fragment.clone();
    golden_lagged[30..32].copy_from_slice(&0xbeefu16.to_le_bytes());
    assert_eq!(lagged(0xbeef)[..], golden_lagged[..]);
    let msg = Message::Fragment(FragmentMsg { data: Bytes::from(payload.clone()), ..head });
    assert_eq!(msg.encode()[..], golden_fragment[..]);

    let golden_reply = unhex(concat!(
        "5052445301010100",
        "0500000000000000",
        "0600000000000000",
        "00000000",
        "01000000",
        "02000000",
        "0708",
        "0000",
        "01000000",
        "00000000",
        "0900000000000000",
        "02000000",
        "01000000",
    ));
    let reply = Message::Reply(ReplyMsg {
        req_id: 5,
        binding: BindingId(6),
        status: ReplyStatus::Ok,
        outs: vec![Bytes::from(vec![7u8, 8])],
        douts: vec![DOutDesc { len: 9, dist: Distribution::Cyclic, nthreads: 2 }],
    });
    assert_eq!(reply.encode()[..], golden_reply[..]);
    assert_eq!(Message::decode(&Bytes::from(golden_reply)).unwrap(), reply);
}

/// A two-endpoint server that executes nothing: it only lets a real client
/// bind, launch, and show what it put on the wire.
fn fake_spmd_server(
    orb: &Orb,
    host: pardis_netsim::HostId,
    name: &str,
    policy: DistPolicy,
) -> Vec<crate::orb::Inbox> {
    let server = ServerId(orb.alloc_id());
    let (endpoints, inboxes): (Vec<_>, Vec<_>) =
        (0..2).map(|_| orb.register_endpoint(host)).unzip();
    orb.inner.servers.write().insert(server, endpoints);
    let oref = ObjectRef {
        key: ObjectKey(orb.alloc_id()),
        interface: "fake".into(),
        server,
        host,
        nthreads: 2,
        kind: ObjectKind::Spmd,
    };
    orb.register_object(DEFAULT_REPOSITORY, name, Arc::new(ObjectMeta { oref, policy }));
    inboxes
}

/// Launch `op(x)` twice from a 2-thread client holding `x` in Block,
/// cancelling each, and return the bulk-data frames of the second that each
/// fake server endpoint received, each flagged with whether it rode behind
/// the request in a `Batch` envelope. The first is gone by then, so the
/// second's frames acknowledge it.
fn client_in_frames(server_dist: Distribution) -> Vec<Vec<(Message, Wire, bool)>> {
    let net = Network::new(TimeScale::off());
    let (ch, sh) = (net.add_host("client"), net.add_host("server"));
    net.connect(ch, sh, Link::free());
    let orb = Orb::new(net);
    let policy = DistPolicy::new().with("op", 0, server_dist);
    let inboxes = fake_spmd_server(&orb, sh, "fake", policy);

    let full: Vec<f64> = (0..64).map(|i| i as f64 * 0.5).collect();
    let client = ClientGroup::create(&orb, ch, 2);
    World::run(2, |rank| {
        let t = rank.rank();
        let rts: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
        let ct = client.attach(t, Some(rts));
        let proxy = ct.spmd_bind("fake").unwrap();
        let x = DSequence::distribute(&full, Distribution::Block, 2, t);
        for _ in 0..2 {
            proxy.call("op").dseq_in(&x).invoke_nb().unwrap().cancel();
        }
    });
    inboxes
        .into_iter()
        .map(|rx| {
            let mut frames = Vec::new();
            while let Some(env) = rx.recv_timeout(Duration::from_millis(200)) {
                let subs = match decode(&env.wire) {
                    Message::Batch(subs) => {
                        assert_eq!(subs.len(), 2, "[request, fragment]");
                        let first = decode(&subs[0]);
                        assert!(matches!(first, Message::Request(_)), "got {first:?}");
                        subs
                    }
                    _ => vec![env.wire],
                };
                let merged = subs.len() > 1;
                for wire in subs {
                    match decode(&wire) {
                        Message::Fragment(f) if f.req_id == 0 => {}
                        msg @ Message::Fragment(_) => frames.push((msg, wire, merged)),
                        _ => {}
                    }
                }
            }
            frames
        })
        .collect()
}

#[test]
fn client_keeps_the_plain_frame_for_contiguous_pairs() {
    // Block -> Block over 2x2: client thread t owes server thread t one
    // run, and the frame is exactly what the element-wise planner's single
    // piece used to produce, carrying the thread's acknowledgement — on its
    // own, or (from the lead thread) as the sub-frame that follows the
    // request.
    let full: Vec<f64> = (0..64).map(|i| i as f64 * 0.5).collect();
    for (t, frames) in client_in_frames(Distribution::Block).into_iter().enumerate() {
        assert_eq!(frames.len(), 1, "server thread {t}");
        let (msg, wire, merged) = &frames[0];
        assert_eq!(*merged, t == 0, "only the lead's fragment carries the request");
        let Message::Fragment(f) = msg else { panic!("plain fragment expected, got {msg:?}") };
        let old_head = FragmentMsg {
            req_id: f.req_id,
            binding: f.binding,
            ..head(0, ArgDir::In, 32 * t as u64, 32, t as u32, t as u32)
        };
        let (_, _, lag) = Message::decode_traced(wire).unwrap();
        assert_eq!(lag, 1, "request 1 acknowledges request 0");
        let payload = encode_elems(&full[32 * t..32 * (t + 1)]);
        let want = frame_fragment(&old_head, None, lag, packed(&payload));
        assert_eq!(wire.to_bytes(), want.head, "server thread {t}");
        assert_eq!(wire.body, payload, "a dense run of doubles travels as its storage");
    }
}

#[test]
fn client_sends_one_plain_frame_per_thread_pair() {
    // Block -> Cyclic over 2x2: every pair shares 16 interleaved elements,
    // in one plain fragment that names no template: the request does.
    let full: Vec<f64> = (0..64).map(|i| i as f64 * 0.5).collect();
    for (d, frames) in client_in_frames(Distribution::Cyclic).into_iter().enumerate() {
        assert_eq!(frames.len(), 2, "one frame from each client thread at server thread {d}");
        for (msg, wire, merged) in frames {
            assert_eq!(Message::decode_traced(&wire).unwrap().2, 1, "request 1 acknowledges 0");
            let Message::Fragment(f) = msg else { panic!("plain fragment expected, got {msg:?}") };
            let s = f.src_thread as usize;
            assert_eq!(merged, s == 0, "the lead's frame carries the request");
            assert_eq!(wire.to_bytes()[6], 2, "fragment type tag");
            assert_eq!((f.start, f.count), (32 * s as u64 + d as u64, 16));
            let want: Vec<f64> = (0..16).map(|k| full[32 * s + d + 2 * k]).collect();
            assert_eq!(f.data, encode_elems(&want), "packed in ascending global order");
        }
    }
}

/// Echoes its distributed in-argument back in the server's template.
struct Echo;

impl Servant for Echo {
    fn interface(&self) -> &str {
        "echo"
    }
    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        let x: DSequence<f64> = req.dseq(0).map_err(|e| e.to_string())?;
        let mut rep = ServerReply::new();
        rep.push_dseq(x);
        Ok(rep)
    }
}

#[test]
fn poa_keeps_the_plain_frame_for_contiguous_pairs() {
    // A hand-driven single-thread client against a real single-thread POA:
    // Concentrated -> Block over 1x1 is one run each way, so the
    // out-fragment must be the old frame, bytes and all.
    let net = Network::new(TimeScale::off());
    let (ch, sh) = (net.add_host("client"), net.add_host("server"));
    net.connect(ch, sh, Link::free());
    let orb = Orb::new(net);
    let group = ServerGroup::create(&orb, "echo-server", sh, 1);
    let g = group.clone();
    let server = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_spmd("echo", Arc::new(Echo), DistPolicy::new());
        poa.impl_is_ready();
    });
    let obj = orb.resolve(DEFAULT_REPOSITORY, "echo").unwrap();
    let server_ep = orb.server_endpoints(group.id()).unwrap()[0];
    let (reply_ep, reply_rx) = orb.register_endpoint(ch);

    let elems = [1.5f64, -2.0, 8.25];
    let payload = encode_elems(&elems);
    let dargs = vec![
        DArgDesc { dir: ArgDir::In, len: 3, client_dist: Distribution::Concentrated(0) },
        DArgDesc { dir: ArgDir::Out, len: 0, client_dist: Distribution::Block },
    ];
    let request = Message::Request(RequestMsg {
        req_id: 4,
        binding: BindingId(77),
        entity: 77,
        client_seq: 0,
        client: ClientId(9),
        object: obj.key,
        op: "echo".into(),
        oneway: false,
        funneled: false,
        reply_to: vec![reply_ep],
        client_threads: 1,
        client_host: ch.raw(),
        ins: vec![],
        dargs,
    });
    let in_head =
        FragmentMsg { req_id: 4, binding: BindingId(77), ..head(0, ArgDir::In, 0, 3, 0, 0) };
    orb.send_wire(ch, server_ep, request.encode().into()).unwrap();
    orb.send_wire(ch, server_ep, encode_fragment_frame(&in_head, &payload).into()).unwrap();

    // The reply rides in the out-fragment's frame: one envelope, reply
    // first, the fragment sub-frame byte for byte the standalone frame.
    let out_head = FragmentMsg { arg: 1, dir: ArgDir::Out, ..in_head };
    let wire = reply_rx.recv_timeout(Duration::from_secs(10)).expect("reply frame").wire;
    let Message::Batch(subs) = decode(&wire) else {
        panic!("expected one [reply, out-fragment] envelope")
    };
    assert_eq!(subs.len(), 2);
    let Message::Reply(reply) = decode(&subs[0]) else { panic!("reply first") };
    let out = DOutDesc { len: 3, dist: Distribution::Block, nthreads: 1 };
    assert_eq!((reply.req_id, reply.binding, reply.douts), (4, BindingId(77), vec![out]));
    assert_eq!(subs[1].to_bytes(), encode_fragment_frame(&out_head, &payload));
    assert_eq!(Message::decode_traced(&subs[1]).unwrap().2, 0, "out-fragments acknowledge nothing");
    assert!(reply_rx.recv_timeout(Duration::from_millis(200)).is_none(), "nothing else");

    group.shutdown();
    server.join().unwrap();
}

/// `ServerRequest::dseq` over hand-built pieces, as server thread `t` of 2
/// expecting 12 elements under `dist`, from a client that names `client` as
/// its template.
fn assemble_at<T: CdrCodec + Clone + Send + Sync + 'static>(
    client: (Distribution, usize),
    dist: &Distribution,
    t: usize,
    pieces: Vec<FragmentMsg>,
) -> OrbResult<Vec<T>> {
    let din = DInLocal {
        desc: DArgDesc { dir: ArgDir::In, len: 12, client_dist: client.0 },
        server_dist: dist.clone(),
        wire_dist: dist.clone(),
        pieces,
    };
    let ctx = ServantCtx { thread: t, nthreads: 2, client_threads: client.1, rts: None };
    let req = ServerRequest { op: "op", ins: &[], dins: &[din], ctx: &ctx };
    req.dseq::<T>(0).map(|ds| ds.local().to_vec())
}

fn block_of_2() -> (Distribution, usize) {
    (Distribution::Block, 2)
}

fn doubles(start: u64, count: u64, src: u32, elems: &[f64]) -> FragmentMsg {
    piece(start, count, src, encode_elems(elems))
}

#[test]
fn assemble_places_every_source_by_its_plan() {
    // Server thread 0 of a Cyclic pair owns 0,2,..,10: client thread 0
    // (Block: 0..6) sends 0,2,4, client thread 1 sends 6,8,10.
    let c = Distribution::Cyclic;
    let pieces = vec![doubles(6, 3, 1, &[6.0, 8.0, 10.0]), doubles(0, 3, 0, &[0.0, 2.0, 4.0])];
    let got = assemble_at::<f64>(block_of_2(), &c, 0, pieces);
    assert_eq!(got.unwrap(), vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
    // Runs in any order, Block thread 1 owning 6..12.
    let b = Distribution::Block;
    let pieces = vec![doubles(9, 3, 1, &[9.0, 10.0, 11.0]), doubles(6, 3, 0, &[6.0, 7.0, 8.0])];
    let got = assemble_at::<f64>((Distribution::Irregular(vec![9, 3]), 2), &b, 1, pieces);
    assert_eq!(got.unwrap(), vec![6.0, 7.0, 8.0, 9.0, 10.0, 11.0]);
}

#[test]
fn assemble_rejects_every_malformed_piece_with_a_typed_error() {
    let c = Distribution::Cyclic;
    let b = Distribution::Block;
    let good = |src: u32| doubles(6 * src as u64, 3, src, &[0.0; 3]);
    let whole = |src: u32| doubles(0, 6, src, &[0.0; 6]);
    let irregular = |counts: Vec<u64>| (Distribution::Irregular(counts), 2);
    let cases = vec![
        ("missing source", block_of_2(), &c, vec![good(0)]),
        ("count larger than payload", block_of_2(), &b, vec![doubles(0, 6, 0, &[0.0; 3])]),
        ("count * width overflows", block_of_2(), &b, vec![doubles(0, u64::MAX, 0, &[0.0; 3])]),
        ("range past len", block_of_2(), &b, vec![doubles(9, 6, 0, &[0.0; 6])]),
        ("start past len", block_of_2(), &b, vec![doubles(u64::MAX - 1, 6, 0, &[0.0; 6])]),
        ("wrong owner", block_of_2(), &b, vec![doubles(6, 6, 0, &[0.0; 6])]),
        ("a second piece from one source", block_of_2(), &c, vec![good(0), good(0)]),
        ("a source with nothing to send", block_of_2(), &b, vec![whole(0), doubles(6, 0, 1, &[])]),
        ("zero-stride template", (Distribution::BlockCyclic(0), 2), &c, vec![good(0), good(1)]),
        ("zero-thread template", (b.clone(), 0), &c, vec![good(0), good(1)]),
        ("concentrated past its threads", (Distribution::Concentrated(2), 2), &b, vec![whole(0)]),
        (
            "source thread out of range",
            block_of_2(),
            &c,
            vec![doubles(0, 3, 7, &[0.0; 3]), good(1)],
        ),
        ("irregular template of the wrong length", irregular(vec![5, 5]), &c, vec![good(0)]),
        ("irregular template that overflows", irregular(vec![u64::MAX, 13]), &c, vec![good(0)]),
        ("start not the plan's", block_of_2(), &c, vec![doubles(2, 3, 0, &[0.0; 3]), good(1)]),
        (
            "count not the plan's",
            block_of_2(),
            &c,
            vec![doubles(0, 2, 0, &[0.0; 2]), doubles(6, 4, 1, &[0.0; 4])],
        ),
        // Block/2 sends thread 0 of Block one run; Cyclic/2 would send it
        // every other element, so the runs are off the plan.
        ("pieces of another template", (c.clone(), 2), &b, vec![doubles(0, 3, 0, &[0.0; 3])]),
    ];
    for (what, client, dist, pieces) in cases {
        match assemble_at::<f64>(client, dist, 0, pieces) {
            Err(OrbError::Protocol(_)) => {}
            other => panic!("{what}: expected a protocol error, got {other:?}"),
        }
    }
    // A payload cut short mid-element is the decoder's error (a fixed-width
    // payload cannot be: its size is checked against the count up front).
    let words: Vec<String> = (0..6).map(|i| format!("word-{i}")).collect();
    let data = encode_elems(&words);
    let one = (Distribution::Block, 1);
    let whole = piece(0, 6, 0, data.clone());
    assert_eq!(assemble_at::<String>(one.clone(), &b, 0, vec![whole.clone()]).unwrap(), words);
    let short = FragmentMsg { data: data.slice(0..data.len() - 3), ..whole };
    assert!(matches!(assemble_at::<String>(one, &b, 0, vec![short]), Err(OrbError::Marshal(_))));
}

#[test]
fn mutated_fragment_frames_never_panic() {
    // Flip every byte of a valid fragment frame of a strided share through a
    // few values and truncate it at every length: decoding yields a message
    // or an error, and whatever decodes is assembled or refused — never a
    // panic, never an allocation the payload does not back.
    let mut sets = Vec::new();
    pair_plan(12, &Distribution::Block, 2, 0, &Distribution::Cyclic, 2, 0, &mut sets);
    assert_eq!(sets, vec![Strided { start: 0, stride: 2, block: 1, count: 3 }]);
    let payload = encode_elems(&[0.0f64, 2.0, 4.0]);
    let wire = encode_fragment_frame(&head(0, ArgDir::In, 0, 3, 0, 0), &payload);
    let other = doubles(6, 3, 1, &[6.0, 8.0, 10.0]);
    let try_frame = |bytes: Vec<u8>| {
        let Ok(Message::Fragment(f)) = Message::decode(&Bytes::from(bytes)) else {
            return;
        };
        let pieces = vec![f, other.clone()];
        let _ = assemble_at::<f64>(block_of_2(), &Distribution::Cyclic, 0, pieces);
    };
    for cut in 0..wire.len() {
        try_frame(wire[..cut].to_vec());
    }
    for at in 8..wire.len() {
        for value in [0x00, 0x01, 0x7f, 0x80, 0xff] {
            let mut bytes = wire.to_vec();
            bytes[at] = value;
            try_frame(bytes);
        }
    }
    // The untouched frame does assemble.
    let Ok(Message::Fragment(f)) = Message::decode(&wire) else { panic!() };
    assert_eq!(
        assemble_at::<f64>(block_of_2(), &Distribution::Cyclic, 0, vec![f, other]).unwrap(),
        vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    );
}

/// Launch `op() -> out` from a one-thread client against a fake two-thread
/// server, and answer it by hand: a reply naming `named` as the server's
/// template, then the fragments `Block` over two threads cuts for the
/// client's `Block`. The client's view of the out-argument.
fn out_arg_under_reply_template(named: Distribution) -> OrbResult<Vec<f64>> {
    let net = Network::new(TimeScale::off());
    let (ch, sh) = (net.add_host("client"), net.add_host("server"));
    net.connect(ch, sh, Link::free());
    let orb = Orb::new(net);
    let inboxes = fake_spmd_server(&orb, sh, "fake", DistPolicy::new());
    let client = ClientGroup::create(&orb, ch, 1).attach(0, None);
    let proxy = client.spmd_bind("fake").unwrap();
    let handle = proxy.call("op").dseq_out(Distribution::Block).invoke_nb().unwrap();
    let env = inboxes[0].recv_timeout(Duration::from_secs(10)).expect("the request");
    let Message::Request(req) = decode(&env.wire) else { panic!("a request") };
    let to = req.reply_to[0];
    let reply = Message::Reply(ReplyMsg {
        req_id: req.req_id,
        binding: req.binding,
        status: ReplyStatus::Ok,
        outs: vec![],
        douts: vec![DOutDesc { len: 8, dist: named, nthreads: 2 }],
    });
    orb.send_wire(sh, to, reply.encode().into()).unwrap();
    let full: Vec<f64> = (0..8).map(|i| i as f64 + 0.5).collect();
    for s in 0..2u32 {
        let at = 4 * s as usize;
        let f = FragmentMsg {
            req_id: req.req_id,
            binding: req.binding,
            ..head(0, ArgDir::Out, at as u64, 4, 0, s)
        };
        let frame = encode_fragment_frame(&f, &encode_elems(&full[at..at + 4]));
        orb.send_wire(sh, to, frame.into()).unwrap();
    }
    handle.wait()?.dseq::<f64>(0).map(|ds| ds.local().to_vec())
}

#[test]
fn a_reply_whose_template_disagrees_with_its_frames_is_refused() {
    let full: Vec<f64> = (0..8).map(|i| i as f64 + 0.5).collect();
    assert_eq!(out_arg_under_reply_template(Distribution::Block).unwrap(), full);
    // Cyclic/2 would send thread 1's elements 1,3,5,7 from 1; the frame from
    // server thread 1 starts at 4.
    match out_arg_under_reply_template(Distribution::Cyclic) {
        Err(OrbError::Protocol(_)) => {}
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

/// `cut_fragments` packs each pair's elements straight into the frame, or
/// hands over a dense run of native-image elements as the frame's body. The
/// bytes must be those of the two-step path it replaced — pack the payload
/// on its own from stream offset 0, then frame it — or a receiver, which
/// decodes the payload as a stream of its own, would see different padding.
mod in_place {
    use super::*;
    use crate::strided::{assemble, cut_fragments};
    use crate::tests::assembler_tests::misaligned;
    use proptest::prelude::*;

    /// A reply frame `d % 5` bytes of scalar data long.
    fn rider(d: usize) -> Bytes {
        Message::Reply(ReplyMsg {
            req_id: 9,
            binding: BindingId(3),
            status: ReplyStatus::Ok,
            outs: vec![Bytes::from(vec![7u8; d % 5])],
            douts: vec![],
        })
        .encode()
    }

    /// Every frame cut from `full` on its way `src` -> `dst` with `ack_lag`,
    /// against the frame helper applied to the separately packed payload —
    /// alone, and as the second sub-frame of an envelope that carries a
    /// rider. `head ++ body` is that frame, the body is the sender's storage
    /// exactly when the pair is one dense run of a native-image type, and
    /// the split frame decodes as the joined one does. Then each receiving
    /// thread assembles what it got twice, as received and with every
    /// payload moved off its alignment, into its share of `full` both times.
    fn check<T: CdrCodec + Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static>(
        full: Vec<T>,
        src: (&Distribution, usize),
        dst: (&Distribution, usize),
        ack_lag: u16,
    ) -> Result<(), TestCaseError> {
        let len = full.len() as u64;
        let mut received: Vec<Vec<(FragmentMsg, bool)>> = vec![Vec::new(); dst.1];
        for s in 0..src.1 {
            let ds = DSequence::distribute(&full, src.0.clone(), src.1, s);
            let head = FragmentMsg::head(9, BindingId(3), 1, ArgDir::In, s as u32);
            let cut = |riders: &mut [Option<Bytes>]| {
                let mut frames = Vec::new();
                cut_fragments(head.clone(), ack_lag, len, src, dst, &ds, riders, |f, wire| {
                    frames.push((f.clone(), wire));
                    Ok(())
                })
                .unwrap();
                frames
            };
            let frames = cut(&mut []);
            // A rider of a different length per destination, so the padding
            // after it varies: each merged frame is the envelope around the
            // rider and the very frame cut without one.
            let riders: Vec<Bytes> = (0..dst.1).map(rider).collect();
            let mut slots: Vec<Option<Bytes>> = riders.iter().cloned().map(Some).collect();
            let merged = cut(&mut slots);
            prop_assert_eq!(merged.len(), frames.len());
            for ((f, plain), (_, wire)) in frames.iter().zip(&merged) {
                let d = f.dst_thread as usize;
                prop_assert!(slots[d].is_none(), "thread {} -> {} kept its rider", s, d);
                let Ok((Message::Batch(subs), ..)) = Message::decode_traced(wire) else {
                    return Err(TestCaseError::fail("merged frame is not a batch"));
                };
                prop_assert_eq!(&subs, &vec![riders[d].clone().into(), plain.clone()]);
                prop_assert_eq!(&wire.body, &plain.body, "the envelope keeps the body");
                let Ok(Message::Batch(joined)) = Message::decode(&wire.to_bytes()) else {
                    return Err(TestCaseError::fail("joined frame is not a batch"));
                };
                let bytes = |subs: &[Wire]| subs.iter().map(Wire::to_bytes).collect::<Vec<_>>();
                prop_assert_eq!(bytes(&subs), bytes(&joined));
                prop_assert_eq!(Message::decode_traced(&subs[1]).unwrap().2, ack_lag);
                let envelope = wire.len() - riders[d].len() - plain.len();
                prop_assert!((20..=23).contains(&envelope), "{} envelope bytes", envelope);
            }
            let mut sent = 0;
            for (f, wire) in frames {
                let mut sets = Vec::new();
                pair_plan(len, src.0, src.1, s, dst.0, dst.1, f.dst_thread as usize, &mut sets);
                let mut payload = Encoder::new(ByteOrder::native());
                ds.pack_into(&sets, &mut payload);
                let payload = payload.finish();
                // The packed payload is the plan's elements encoded one by
                // one, global index by global index.
                let mut oracle = Encoder::new(ByteOrder::native());
                for r in sets.iter().flat_map(Strided::runs) {
                    for i in r.start..r.start + r.count {
                        full[i as usize].encode(&mut oracle);
                    }
                }
                prop_assert_eq!(
                    &payload[..],
                    &oracle.finish()[..],
                    "thread {} -> {}",
                    s,
                    f.dst_thread
                );
                let want = frame_fragment(&f, None, ack_lag, packed(&payload));
                prop_assert!(want.body.is_empty());
                let joined = wire.to_bytes();
                prop_assert_eq!(&joined[..], &want.head[..], "thread {} -> {}", s, f.dst_thread);
                let decoded = Message::decode_traced(&wire).unwrap();
                prop_assert_eq!(&decoded, &Message::decode_traced(&joined.into()).unwrap());
                let (msg, _, lag) = decoded;
                prop_assert_eq!(lag, ack_lag);
                let Message::Fragment(got) = msg else {
                    return Err(TestCaseError::fail(format!("{msg:?} is no fragment")));
                };
                received[f.dst_thread as usize].push((got, !wire.body.is_empty()));
                // A body exactly for one dense local run of a type whose
                // memory image is its encoding, and then it is that memory.
                let at = sets[0].layout(len, src.0, src.1, s).unwrap();
                let dense = sets.len() == 1 && at.count == 1;
                let native = T::native_image(ds.local()).is_some();
                prop_assert_eq!(!wire.body.is_empty(), dense && native);
                if !wire.body.is_empty() {
                    let width = std::mem::size_of::<T>();
                    let at_ptr = ds.local()[at.lo..].as_ptr() as usize;
                    prop_assert_eq!(wire.body.as_ptr() as usize, at_ptr);
                    prop_assert_eq!(wire.body.len(), at.block * width);
                }
                sent += f.count;
            }
            prop_assert_eq!(sent, ds.local().len() as u64, "thread {} sent its whole share", s);
        }
        for (d, got) in received.into_iter().enumerate() {
            let want = DSequence::distribute(&full, dst.0.clone(), dst.1, d);
            let (pieces, bodies): (Vec<FragmentMsg>, Vec<bool>) = got.into_iter().unzip();
            let local = assemble::<T>(len, src, (dst.0, dst.1, d), &pieces).unwrap();
            let ds = DSequence::from_shared(local, len, dst.0.clone(), dst.1, d);
            prop_assert_eq!(ds.local(), want.local(), "thread {} as received", d);
            // A payload is adopted only when it is the whole part, and then
            // it is the part; a sender's body that is the whole part always is.
            let at = ds.local().as_ptr().cast::<u8>();
            let adopted = pieces.iter().any(|p| p.data.as_ptr() == at && !p.data.is_empty());
            let whole = pieces.iter().filter(|p| p.count > 0).count() == 1;
            prop_assert!(!adopted || whole, "thread {} adopted a part of its part", d);
            prop_assert!(adopted || !(whole && bodies[0]), "thread {} copied a body", d);
            // Off their alignment, the same pieces are copied (a one-byte
            // type is aligned everywhere) into the same part.
            let shifted: Vec<FragmentMsg> = pieces
                .iter()
                .map(|p| FragmentMsg { data: misaligned(&p.data), ..p.clone() })
                .collect();
            let local = assemble::<T>(len, src, (dst.0, dst.1, d), &shifted).unwrap();
            let copied = DSequence::from_shared(local, len, dst.0.clone(), dst.1, d);
            prop_assert_eq!(copied.local(), want.local(), "thread {} copied", d);
            let at = copied.local().as_ptr().cast::<u8>();
            let adopted = shifted.iter().any(|p| p.data.as_ptr() == at && !p.data.is_empty());
            prop_assert!(!adopted || std::mem::size_of::<T>() == 1, "thread {} adopted", d);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn frames_equal_the_staged_encoding(
            len in 0u64..300,
            src_n in 1usize..5,
            dst_n in 1usize..5,
            src_kind in 0u8..5,
            dst_kind in 0u8..5,
            // Block-cyclic blocks from one element to 39, short and long.
            src_b in 1u64..40,
            dst_b in 1u64..40,
            cuts in proptest::collection::vec(any::<u64>(), 8),
            traced in any::<bool>(),
            lag in any::<u16>(),
        ) {
            let src_dist = template(src_kind, src_b, &cuts[..4], len, src_n);
            let dst_dist = template(dst_kind, dst_b, &cuts[4..], len, dst_n);
            let (src, dst) = ((&src_dist, src_n), (&dst_dist, dst_n));
            // A traced header is 16 bytes longer: both sides of the
            // comparison stamp the same ambient context.
            let _ctx = traced.then(|| {
                pardis_obs::enter_ctx(pardis_obs::TraceCtx { trace_id: 0x1111, span_id: 0x2222 })
            });
            check((0..len).map(|i| i as f64 * 0.25).collect(), src, dst, lag)?;
            check((0..len).map(|i| i as u8).collect(), src, dst, lag)?;
            check((0..len).map(|i| "x".repeat(i as usize % 7)).collect(), src, dst, lag)?;
            // One octet then a double: seven bytes of padding per element,
            // placed by the payload's own origin and not the frame's.
            check((0..len).map(|i| (i as u8, i as f64)).collect(), src, dst, lag)?;
        }
    }
}
