//! Request batcher and sharded-router tests: off-mode wire identity,
//! coalescing, flush invariants (property-based), deadline flushes, the
//! orphan-stash eviction regression, and the bound on nested envelopes.

use crate::batch::{BatchMode, Batcher, FlushReason};
use crate::object::{BindingId, EndpointId};
use crate::protocol::{
    encode_batch_frame, Message, ReplyMsg, ReplyStatus, MAGIC, MAX_BATCH_DEPTH, VERSION,
};
use crate::*;
use bytes::Bytes;
use pardis_cdr::ByteOrder;
use pardis_netsim::{Link, Network, TimeScale};
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

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

/// An ORB plus a tap endpoint: every frame sent to `ep` lands on `rx`.
fn orb_with_tap(
) -> (Orb, pardis_netsim::HostId, EndpointId, crossbeam::channel::Receiver<crate::orb::Envelope>) {
    let net = Network::new(TimeScale::off());
    let host = net.add_host("tap-host");
    let orb = Orb::new(net);
    let (ep, rx) = orb.register_endpoint(host);
    (orb, host, ep, rx)
}

fn small_frame(i: u64) -> Bytes {
    Message::Reply(ReplyMsg {
        req_id: i,
        binding: BindingId(7),
        status: ReplyStatus::Ok,
        outs: Vec::new(),
        dout_lens: Vec::new(),
    })
    .encode()
}

/// With batching off the wire is the pre-batching protocol, frame for
/// frame and byte for byte: no envelope, no reorder, no extra traffic.
#[test]
fn off_mode_wire_is_byte_identical() {
    let (orb, host, ep, rx) = orb_with_tap();
    orb.set_batch_mode(BatchMode::Off);
    let frames: Vec<Bytes> = (0..16).map(small_frame).collect();
    for f in &frames {
        orb.send_wire(host, ep, f.clone()).unwrap();
    }
    for expected in &frames {
        let env = rx.try_recv().expect("one wire frame per send");
        assert_eq!(&env.wire, expected, "off-mode frame must be byte-identical");
    }
    assert!(rx.try_recv().is_err(), "no extra frames");
}

/// Fixed-count batching coalesces bursts into envelopes whose sub-frames
/// are the original wires, byte for byte and in order.
#[test]
fn fixed_mode_coalesces_preserving_frames() {
    let (orb, host, ep, rx) = orb_with_tap();
    orb.set_batch_mode(BatchMode::Fixed(4));
    let frames: Vec<Bytes> = (0..8).map(small_frame).collect();
    for f in &frames {
        orb.send_wire(host, ep, f.clone()).unwrap();
    }
    orb.flush_batches();
    let mut flat: Vec<Bytes> = Vec::new();
    let mut envelopes = 0usize;
    while let Ok(env) = rx.try_recv() {
        match Message::decode(&env.wire).expect("valid frame") {
            Message::Batch(subs) => {
                envelopes += 1;
                assert!(subs.len() >= 2, "singleton runs must ship raw");
                flat.extend(subs);
            }
            _ => flat.push(env.wire.clone()),
        }
    }
    assert_eq!(flat, frames, "sub-frames must be the original wires, in order");
    assert!(envelopes >= 1, "a burst of 8 at target 4 must coalesce");
}

/// A queued frame leaves within the flush window even when nothing else is
/// ever sent: the deadline flusher, not follow-on traffic, drives it out.
#[test]
fn deadline_flush_fires_without_follow_on_traffic() {
    let (orb, host, ep, rx) = orb_with_tap();
    // A huge fixed target: no demand trigger will ever fire.
    orb.set_batch_mode(BatchMode::Fixed(1_000_000));
    let f = small_frame(1);
    orb.send_wire(host, ep, f.clone()).unwrap();
    let env =
        rx.recv_timeout(Duration::from_secs(5)).expect("deadline flusher must ship the lone frame");
    assert_eq!(env.wire, f);
}

/// Batch envelopes survive an encode/decode round trip unchanged.
#[test]
fn batch_envelope_roundtrip() {
    let frames: Vec<Bytes> = (0..5).map(small_frame).collect();
    let wire = crate::protocol::encode_batch_frame(&frames);
    assert_eq!(wire[0..4], MAGIC);
    assert_eq!(wire[6], 5, "batch type tag");
    match Message::decode(&wire).expect("valid envelope") {
        Message::Batch(subs) => assert_eq!(subs, frames),
        other => panic!("expected Batch, got {}", other.kind()),
    }
}

/// Expand a shipped wire stream: envelopes into their sub-frames, raw
/// frames as-is. Test payloads never start with the protocol magic, so the
/// distinction is unambiguous.
fn expand(frames: &[Bytes], max_bytes: usize) -> Vec<Bytes> {
    let mut flat = Vec::new();
    for f in frames {
        if f.len() >= 8 && f[0..4] == MAGIC && f[6] == 5 {
            let Ok(Message::Batch(subs)) = Message::decode(f) else {
                panic!("undecodable envelope");
            };
            assert!(subs.len() >= 2, "singleton runs must ship raw");
            let total: usize = subs.iter().map(|s| s.len()).sum();
            assert!(total <= max_bytes, "envelope payload exceeds max_bytes");
            flat.extend(subs);
        } else {
            flat.push(f.clone());
        }
    }
    flat
}

proptest! {
    /// Drive the batcher with an arbitrary interleaving of destinations and
    /// frame sizes, flushing whenever it asks (plus a final barrier), and
    /// check the queue-discipline invariants: every frame ships exactly
    /// once, per-destination order is preserved, no frame straddles two
    /// envelopes, and no envelope exceeds the byte ceiling.
    #[test]
    fn batcher_flush_invariants(
        ops in proptest::collection::vec((0u64..3, 1usize..600), 1..120),
        max_bytes in 64usize..1500,
    ) {
        let net = Network::new(TimeScale::off());
        let host = net.add_host("prop-host");
        let b = Batcher::new(BatchMode::Adaptive, max_bytes);
        let mut expected: HashMap<u64, Vec<Bytes>> = HashMap::new();
        let mut shipped: HashMap<u64, Vec<Bytes>> = HashMap::new();
        for (i, (dest, len)) in ops.iter().enumerate() {
            // Opaque payload that cannot be mistaken for a protocol frame.
            let mut v = vec![0xFFu8; *len];
            v[0] = 0xFF;
            let tag = (i as u32).to_le_bytes();
            let n = v.len().min(5);
            v[1..n].copy_from_slice(&tag[..n - 1]);
            let wire = Bytes::from(v);
            let key = (host, EndpointId(*dest));
            expected.entry(*dest).or_default().push(wire.clone());
            let passthrough = wire.len() >= max_bytes;
            if b.enqueue(key, wire, passthrough) {
                let out = shipped.entry(*dest).or_default();
                b.drain(key, FlushReason::Demand, &mut |f| out.push(f));
            }
        }
        for key in b.pending_keys() {
            let out = shipped.entry(key.1 .0).or_default();
            b.drain(key, FlushReason::Demand, &mut |f| out.push(f));
        }
        prop_assert!(b.pending_keys().is_empty(), "barrier must drain everything");
        for (dest, frames) in &expected {
            let got = expand(shipped.get(dest).map(|v| v.as_slice()).unwrap_or(&[]), max_bytes);
            prop_assert_eq!(&got, frames, "per-destination FIFO and exactly-once");
        }
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

    // Every stray key hashes to one router shard, so the cap applies to
    // one stash and the count is exact.
    let cap = crate::client::PUMP_MEMORY_CAP;
    let extra = 10usize;
    let strays = (0u64..)
        .map(|i| (BindingId(0xDEAD_0000_0000 | i), i))
        .filter(|&key| crate::client::router_shard_of(key) == 0)
        .take(cap + extra);
    for (binding, req_id) in strays {
        let stray = Message::Reply(ReplyMsg {
            req_id,
            binding,
            status: ReplyStatus::Ok,
            outs: Vec::new(),
            dout_lens: Vec::new(),
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

/// Receivers unpack envelopes two deep (a merged control and fragment
/// inside a batcher envelope) and drop anything deeper unread, counting it
/// on `orb.frames_refused`: a crafted frame of 100 000 nested envelopes
/// (1.6 MB) must not walk either side down its stack, and both the POA and
/// the client pump go on serving.
#[test]
fn nested_batch_envelopes_are_refused_past_the_depth_bound() {
    // A cancel for an unknown invocation: harmless wherever it lands.
    let stray = Message::Cancel { binding: BindingId(0xBAD), req_id: 1 }.encode();
    assert_eq!(nested_in_batches(&stray, 1), encode_batch_frame(std::slice::from_ref(&stray)));
    let twice = encode_batch_frame(&[encode_batch_frame(std::slice::from_ref(&stray))]);
    assert_eq!(nested_in_batches(&stray, 2), twice);

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
    let before = refused();

    for depth in [MAX_BATCH_DEPTH, MAX_BATCH_DEPTH + 1, 100_000] {
        let frame = nested_in_batches(&stray, depth);
        orb.send_wire(ch, server_ep, frame.clone()).unwrap();
        let reply = proxy.call("shout").arg(&format!("{depth}")).invoke().unwrap();
        assert_eq!(reply.scalar::<String>(0).unwrap(), format!("echo: {depth}"));
        orb.send_wire(sh, client.test_reply_ep(), frame).unwrap();
        client.drain_pending();
    }

    group.shutdown();
    server.join().unwrap();
    // The two deeper frames, once at each side; the two-deep ones unpacked.
    assert_eq!(refused() - before, 4);
}
