//! Batch-envelope and router tests: the envelope round trip, the
//! orphan-stash eviction regression, and the frames a receiver refuses
//! unread — envelopes nested past the depth bound and frames no sender
//! builds, such as a fragment for a sibling thread.

use super::protocol_tests::sample_request;
use crate::object::BindingId;
use crate::protocol::{
    encode_batch_frame, encode_fragment_frame, frame_fragment, ArgDir, FragmentMsg, Message,
    Payload, ReplyMsg, ReplyStatus, Wire, MAGIC, MAX_BATCH_DEPTH, VERSION,
};
use crate::*;
use bytes::Bytes;
use pardis_cdr::{ByteOrder, CdrCodec, CdrError, Encoder};
use pardis_netsim::{Link, Network, TimeScale};
use pardis_rts::{MpiRts, World};
use std::sync::Arc;

/// Held by every test that counts `orb.frames_refused`, a process-wide
/// counter: one test's refusals must not land in another's window.
static REFUSALS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn counting_refusals() -> std::sync::MutexGuard<'static, ()> {
    REFUSALS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A minimal echo servant for the end-to-end legs.
struct Echo;
impl Servant for Echo {
    fn interface(&self) -> &str {
        "echo"
    }
    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        let text: String = req.scalar(0).map_err(|e| e.to_string())?;
        let mut rep = ServerReply::new();
        rep.push_scalar(&format!("echo: {text}"));
        Ok(rep)
    }
}

/// A reply on a binding no test binds.
fn small_frame(i: u64) -> Bytes {
    Message::Reply(ReplyMsg {
        req_id: i,
        binding: BindingId(0xBAD),
        status: ReplyStatus::Ok,
        outs: Vec::new(),
        douts: Vec::new(),
    })
    .encode()
}

/// Batch envelopes survive an encode/decode round trip unchanged.
#[test]
fn batch_envelope_roundtrip() {
    let frames: Vec<Wire> = (0..5).map(|i| small_frame(i).into()).collect();
    let wire = encode_batch_frame(&frames);
    assert_eq!(wire[0..4], MAGIC);
    assert_eq!(wire[6], 5, "batch type tag");
    match Message::decode(&wire).expect("valid envelope") {
        Message::Batch(subs) => assert_eq!(subs, frames),
        other => panic!("expected Batch, got {}", other.kind()),
    }
}

/// A stray-reply storm (unknown keys, e.g. replies outliving a crashed
/// retry layer) must evict oldest-first past the stash cap — counted on
/// `client.orphans.evicted` — and leave live invocations unharmed.
#[test]
fn orphan_stash_eviction_regression() {
    let net = Network::new(TimeScale::off());
    let host = net.add_host("localhost");
    let orb = Orb::new(net);

    let group = ServerGroup::create(&orb, "echo-server", host, 1);
    let g2 = group.clone();
    let server = std::thread::spawn(move || {
        let mut poa = g2.attach(0, None);
        poa.activate_single("echo1", std::sync::Arc::new(Echo));
        poa.impl_is_ready();
    });

    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let before = pardis_obs::counter("client.orphans.evicted").get();

    let cap = crate::client::PUMP_MEMORY_CAP;
    let extra = 10usize;
    let strays = (0u64..).map(|i| (BindingId(0xDEAD_0000_0000 | i), i)).take(cap + extra);
    for (binding, req_id) in strays {
        let stray = Message::Reply(ReplyMsg {
            req_id,
            binding,
            status: ReplyStatus::Ok,
            outs: Vec::new(),
            douts: Vec::new(),
        });
        orb.send(host, client.test_reply_ep(), &stray).unwrap();
    }
    client.drain_pending();

    let evicted = pardis_obs::counter("client.orphans.evicted").get() - before;
    assert_eq!(evicted as usize, extra, "strays past the cap evict oldest-first");

    // The pump still routes real traffic after the storm.
    let proxy = client.bind("echo1").unwrap();
    let reply = proxy.call("shout").arg(&"hi".to_string()).invoke().unwrap();
    assert_eq!(reply.scalar::<String>(0).unwrap(), "echo: hi");

    group.shutdown();
    server.join().unwrap();
}

/// `inner` inside `depth` single-frame batch envelopes, built in one pass:
/// every envelope is a 16-byte head (header, count, length word) followed by
/// the next one in.
fn nested_in_batches(inner: &Bytes, depth: usize) -> Bytes {
    let mut out = Vec::with_capacity(16 * depth + inner.len());
    for level in 0..depth {
        let len = 16 * (depth - level - 1) + inner.len();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&[VERSION, ByteOrder::native().flag(), 5, 0]);
        out.extend_from_slice(&1u32.to_ne_bytes());
        out.extend_from_slice(&(len as u32).to_ne_bytes());
    }
    out.extend_from_slice(inner);
    Bytes::from(out)
}

/// Receivers unpack one envelope level and drop a nested envelope unread,
/// counting it on `orb.frames_refused`: a crafted frame of 100 000 nested
/// envelopes (1.6 MB) must not walk either side down its stack. Frames no
/// sender builds are refused the same way rather than panicking an adapter
/// or a pump: a malformed frame, a fragment for a thread the receiver does
/// not have, and a reply at a POA. After each, both the POA and the client
/// pump go on serving.
#[test]
fn nested_batch_envelopes_are_refused_past_the_depth_bound() {
    let _serial = counting_refusals();
    // A cancel for an unknown invocation: harmless wherever it lands.
    let stray = Message::Cancel { binding: BindingId(0xBAD), req_id: 1 }.encode();
    let one = |frame: &Bytes| encode_batch_frame(&[frame.clone().into()]);
    assert_eq!(nested_in_batches(&stray, 1), one(&stray));
    let twice = one(&one(&stray));
    assert_eq!(nested_in_batches(&stray, 2), twice);
    let wrong_thread = {
        let mut head = FragmentMsg::head(1, BindingId(0xBAD), 0, ArgDir::In, 0);
        head.dst_thread = 1;
        encode_fragment_frame(&head, &[0; 8])
    };

    let net = Network::new(TimeScale::off());
    let (ch, sh) = (net.add_host("client"), net.add_host("server"));
    net.connect(ch, sh, Link::free());
    let orb = Orb::new(net);
    let group = ServerGroup::create(&orb, "echo-server", sh, 1);
    let g2 = group.clone();
    let server = std::thread::spawn(move || {
        let mut poa = g2.attach(0, None);
        poa.activate_single("echo-deep", std::sync::Arc::new(Echo));
        poa.impl_is_ready();
    });
    let client = ClientGroup::create(&orb, ch, 1).attach(0, None);
    let proxy = client.bind("echo-deep").unwrap();
    let server_ep = orb.server_endpoints(group.id()).unwrap()[0];
    let refused = || pardis_obs::counter("orb.frames_refused").get();

    // Each frame with how often it is refused: at the 1-thread POA, then at
    // the 1-thread client.
    let cases = [
        ("one envelope", nested_in_batches(&stray, MAX_BATCH_DEPTH), [0, 0]),
        ("nested envelope", nested_in_batches(&stray, MAX_BATCH_DEPTH + 1), [1, 1]),
        ("100 000 envelopes", nested_in_batches(&stray, 100_000), [1, 1]),
        ("fragment for thread 1", wrong_thread.clone(), [1, 1]),
        ("truncated fragment", wrong_thread.slice(..wrong_thread.len() - 1), [1, 1]),
        // A client stashes a stray reply for a registration that may yet
        // come.
        ("reply", small_frame(1), [1, 0]),
    ];
    for (name, frame, [at_server, at_client]) in cases {
        let before = refused();
        orb.send_wire(ch, server_ep, frame.clone().into()).unwrap();
        let reply = proxy.call("shout").arg(&name.to_string()).invoke().unwrap();
        assert_eq!(reply.scalar::<String>(0).unwrap(), format!("echo: {name}"));
        assert_eq!(refused() - before, at_server, "{name} at the server");
        orb.send_wire(sh, client.test_reply_ep(), frame.into()).unwrap();
        client.drain_pending();
        assert_eq!(refused() - before, at_server + at_client, "{name} at the client");
    }

    group.shutdown();
    server.join().unwrap();
}

/// A frame whose body ([`Wire::body`]) breaks the rule that it is the
/// frame's last byte sequence, counted by the head's last length word, and
/// bulk data, decodes to a typed error; the POA and the client pump each
/// refuse it unread, on `orb.frames_refused`, and go on serving.
#[test]
fn malformed_gather_frames_are_refused() {
    let _serial = counting_refusals();
    let body = Bytes::from(vec![0x5a; 16]);
    let fragment = {
        let head = FragmentMsg::head(1, BindingId(0xBAD), 0, ArgDir::In, 0);
        frame_fragment(&head, None, 0, Payload::<fn(&mut Encoder)>::Body(body.clone()))
    };
    assert_eq!(Message::decode_traced(&fragment).unwrap().0.kind(), "fragment");
    let stray = Message::Cancel { binding: BindingId(0xBAD), req_id: 1 }.encode();
    let behind = |head: Bytes| Wire { head, body: body.clone() };
    // A one-frame envelope whose length word counts the body behind a
    // cancel.
    let cancel_then_body = {
        let mut e = Encoder::new(ByteOrder::native());
        e.write_raw(&MAGIC);
        e.write_raw(&[VERSION, ByteOrder::native().flag(), 5, 0]);
        e.write_u32(1);
        e.write_byte_seq_with(body.len(), |e| e.write_raw(&stray));
        behind(e.finish())
    };
    let cases = [
        ("a shorter body", Wire { body: body.slice(..8), ..fragment.clone() }),
        ("a longer body", Wire { body: Bytes::from(vec![0x5a; 17]), ..fragment.clone() }),
        (
            "payload bytes in the head",
            Wire {
                head: Bytes::from([&fragment.head[..], &body[..4]].concat()),
                body: body.slice(4..),
            },
        ),
        ("a body behind a request", behind(Message::Request(sample_request()).encode())),
        ("a body behind a reply", behind(small_frame(1))),
        ("a body behind a cancel", behind(stray.clone())),
        ("a body behind a close", behind(Message::Close.encode())),
        ("a body after a cancel in an envelope", cancel_then_body),
    ];
    refused_at_both_ends(&cases);
}

/// A frame of type 6, which once carried a bulk-data pair's source template
/// between the fragment's fields and its payload. The template travels in
/// the controls now, so type 6 is an unknown type like any other: a typed
/// error, refused unread at both ends.
#[test]
fn retired_strided_frames_are_refused() {
    let _serial = counting_refusals();
    let mut e = Encoder::new(ByteOrder::native());
    e.write_raw(&MAGIC);
    e.write_raw(&[VERSION, ByteOrder::native().flag(), 6, 0]);
    e.write_u64(1); // request
    e.write_u64(0xBAD); // binding
    e.write_u32(0); // argument
    e.write_raw(&[0, 0, 0, 0]); // in, no acknowledgement
    e.write_u64(0); // start
    e.write_u64(1); // count
    e.write_u32(0); // destination thread
    e.write_u32(0); // source thread
    e.write_u32(2); // the sender's thread count
    Distribution::Cyclic.encode(&mut e);
    e.write_byte_seq(&[0; 8]);
    let strided = e.finish();
    let err = Message::decode(&strided).unwrap_err();
    assert!(matches!(err, CdrError::InvalidEnumDiscriminant { value: 6, .. }), "{err:?}");
    refused_at_both_ends(&[("a type-6 frame", strided.into())]);
}

/// Send each frame, which must not decode, to a one-thread POA and to a
/// client's reply endpoint: each end counts it on `orb.frames_refused` and
/// goes on serving.
fn refused_at_both_ends(cases: &[(&str, Wire)]) {
    let net = Network::new(TimeScale::off());
    let (ch, sh) = (net.add_host("client"), net.add_host("server"));
    net.connect(ch, sh, Link::free());
    let orb = Orb::new(net);
    let group = ServerGroup::create(&orb, "echo-server", sh, 1);
    let g2 = group.clone();
    let server = std::thread::spawn(move || {
        let mut poa = g2.attach(0, None);
        poa.activate_single("echo-gather", std::sync::Arc::new(Echo));
        poa.impl_is_ready();
    });
    let client = ClientGroup::create(&orb, ch, 1).attach(0, None);
    let proxy = client.bind("echo-gather").unwrap();
    let server_ep = orb.server_endpoints(group.id()).unwrap()[0];
    let refused = || pardis_obs::counter("orb.frames_refused").get();

    for (name, wire) in cases {
        assert!(Message::decode_traced(wire).is_err(), "{name} decodes");
        let before = refused();
        orb.send_wire(ch, server_ep, wire.clone()).unwrap();
        let reply = proxy.call("shout").arg(&name.to_string()).invoke().unwrap();
        assert_eq!(reply.scalar::<String>(0).unwrap(), format!("echo: {name}"));
        assert_eq!(refused() - before, 1, "{name} at the server");
        orb.send_wire(sh, client.test_reply_ep(), wire.clone()).unwrap();
        client.drain_pending();
        assert_eq!(refused() - before, 2, "{name} at the client");
    }

    group.shutdown();
    server.join().unwrap();
}

/// A fragment addressed to the other thread of a 2-thread POA or a 2-thread
/// client is a frame no sender builds: every fragment goes to its own
/// thread's endpoint. The endpoint it reaches refuses it unread, on
/// `orb.frames_refused`, and goes on serving.
#[test]
fn fragments_for_a_sibling_thread_are_refused() {
    let _serial = counting_refusals();
    let for_thread_1 = {
        let mut head = FragmentMsg::head(1, BindingId(0xBAD), 0, ArgDir::In, 0);
        head.dst_thread = 1;
        encode_fragment_frame(&head, &[0; 8])
    };

    let net = Network::new(TimeScale::off());
    let (ch, sh) = (net.add_host("client"), net.add_host("server"));
    net.connect(ch, sh, Link::free());
    let orb = Orb::new(net);
    let group = ServerGroup::create(&orb, "echo-server", sh, 2);
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let server = {
        let group = group.clone();
        std::thread::spawn(move || {
            World::run(2, |rank| {
                let t = rank.rank();
                let mut poa = group.attach(t, Some(Arc::new(MpiRts::new(rank))));
                poa.activate_spmd("echo-sibling", Arc::new(Echo), DistPolicy::new());
                ready_tx.send(()).unwrap();
                poa.impl_is_ready();
            });
        })
    };
    for _ in 0..2 {
        ready_rx.recv().unwrap();
    }
    let server_ep = orb.server_endpoints(group.id()).unwrap()[0];
    let refused = || pardis_obs::counter("orb.frames_refused").get();

    let client = ClientGroup::create(&orb, ch, 2);
    World::run(2, |rank| {
        let t = rank.rank();
        let ct = client.attach(t, Some(Arc::new(MpiRts::new(rank))));
        let proxy = ct.spmd_bind("echo-sibling").unwrap();
        for at_server in [true, false] {
            let name = if at_server { "at server thread 0" } else { "at client thread 0" };
            let before = refused();
            if t == 0 {
                let (from, to) = if at_server { (ch, server_ep) } else { (sh, ct.test_reply_ep()) };
                orb.send_wire(from, to, for_thread_1.clone().into()).unwrap();
            }
            let reply = proxy.call("shout").arg(&name.to_string()).invoke().unwrap();
            assert_eq!(reply.scalar::<String>(0).unwrap(), format!("echo: {name}"));
            ct.drain_pending();
            if t == 0 {
                assert_eq!(refused() - before, 1, "{name}");
            }
        }
    });

    group.shutdown();
    server.join().unwrap();
}

/// The refusal above reads a binding's kind from its `SINGLE_BINDING` bit,
/// so a binding's sequence number must never reach that bit: minting the
/// first one past its field fails instead.
#[test]
fn binding_sequence_numbers_stay_inside_their_field() {
    let limit = 1 << 23;
    let counter = std::sync::atomic::AtomicU64::new(limit - 1);
    assert_eq!(crate::client::binding_seq(&counter, limit).unwrap(), limit - 1);
    assert!(crate::client::binding_seq(&counter, limit).is_err());
}
