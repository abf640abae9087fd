//! The bounded reply cache: replay while cached, FIFO eviction at the entry
//! cap and at the byte budget, and — once evicted — exactly one re-execution
//! of a duplicate request; frames let go of once their client thread
//! acknowledges them, marks kept.
//!
//! These tests drive the POA with handcrafted wire frames, because a real
//! client never *voluntarily* resends: duplicates only arise from timeouts
//! or network duplication, neither of which can target a specific cache
//! state.

use crate::dist::Distribution;
use crate::object::{BindingId, ClientId, EndpointId};
use crate::poa::{RecentInvocations, REPLY_CACHE_BYTES, REPLY_CACHE_MIN_ENTRIES};
use crate::protocol::{
    frame_fragment, packed, ArgDir, DArgDesc, FragmentMsg, Message, ReplyStatus, RequestMsg, Wire,
};
use crate::repository::DEFAULT_REPOSITORY;
use crate::servant::{DispatchResult, Servant, ServerReply, ServerRequest};
use crate::{ClientGroup, DSequence, DistPolicy, Orb, ServerGroup};
use pardis_cdr::{ByteOrder, CdrCodec, Encoder};
use pardis_netsim::{Link, Network, TimeScale};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Bumper {
    hits: Arc<AtomicU64>,
}

impl Servant for Bumper {
    fn interface(&self) -> &str {
        "bumper"
    }
    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        self.hits.fetch_add(1, Ordering::SeqCst);
        let x: i64 = req.scalar(0).map_err(|e| e.to_string())?;
        let mut rep = ServerReply::new();
        rep.push_scalar(&(2 * x));
        Ok(rep)
    }
}

fn encode_i64(v: i64) -> bytes::Bytes {
    let mut e = Encoder::new(ByteOrder::native());
    v.encode(&mut e);
    e.finish()
}

#[test]
fn evicted_reply_cache_entry_forces_one_reexecution() {
    let net = Network::new(TimeScale::off());
    let ch = net.add_host("client");
    let sh = net.add_host("server");
    net.connect(ch, sh, Link::free());
    let orb = Orb::new(net);
    let cap = 3;
    orb.set_reply_cache_cap(cap);

    let hits = Arc::new(AtomicU64::new(0));
    let group = ServerGroup::create(&orb, "counter", sh, 1);
    let g = group.clone();
    let h = hits.clone();
    let server = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single("bump_rc", Arc::new(Bumper { hits: h }));
        poa.impl_is_ready();
    });

    // Resolve waits for activation; then address frames straight at the
    // server's (single) request endpoint, with our own reply endpoint.
    let obj = orb.resolve(DEFAULT_REPOSITORY, "bump_rc").unwrap();
    let server_ep = orb.server_endpoints(group.id()).unwrap()[0];
    let (reply_ep, reply_rx) = orb.register_endpoint(ch);

    // Distinct entities so sequencing never holds a request back; req_id is
    // only unique per binding, so distinct bindings keep cache keys apart.
    let mk_req = |binding: u64, x: i64| {
        Message::Request(RequestMsg {
            req_id: 1,
            binding: BindingId(binding),
            entity: binding,
            client_seq: 0,
            client: ClientId(9000),
            object: obj.key,
            op: "bump".into(),
            oneway: false,
            funneled: false,
            reply_to: vec![reply_ep],
            client_threads: 1,
            client_host: ch.raw(),
            ins: vec![encode_i64(x)],
            dargs: vec![],
        })
        .encode()
    };
    let send = |wire: &bytes::Bytes| orb.send_wire(ch, server_ep, wire.clone().into()).unwrap();
    let recv_reply = || {
        let env = reply_rx.recv_timeout(Duration::from_secs(10)).expect("reply arrives");
        match Message::decode_traced(&env.wire).unwrap().0 {
            Message::Reply(rep) => rep,
            other => panic!("expected a reply, got {other:?}"),
        }
    };

    // First delivery executes the servant.
    let original = mk_req(500, 7);
    send(&original);
    let rep = recv_reply();
    assert_eq!(rep.status, ReplyStatus::Ok);
    assert_eq!(hits.load(Ordering::SeqCst), 1);

    // A duplicate while cached replays the recorded reply: no re-execution.
    send(&original);
    let rep = recv_reply();
    assert_eq!(rep.status, ReplyStatus::Ok);
    assert_eq!(hits.load(Ordering::SeqCst), 1, "cached duplicate must not re-execute");

    // `cap` newer invocations push the original out (FIFO at the limit).
    for i in 0..cap as u64 {
        send(&mk_req(600 + i, i as i64));
        recv_reply();
    }
    assert_eq!(hits.load(Ordering::SeqCst), 1 + cap as u64);

    // Evicted: the duplicate is indistinguishable from a new request and
    // re-executes — exactly once.
    send(&original);
    let rep = recv_reply();
    assert_eq!(rep.status, ReplyStatus::Ok);
    assert_eq!(
        hits.load(Ordering::SeqCst),
        2 + cap as u64,
        "an evicted entry must re-execute exactly once"
    );

    // And the re-execution re-entered the cache: one more duplicate replays.
    send(&original);
    recv_reply();
    assert_eq!(hits.load(Ordering::SeqCst), 2 + cap as u64);

    group.shutdown();
    server.join().unwrap();
}

#[test]
fn reply_cache_cap_applies_to_later_poas() {
    // The knob rejects zero and is picked up by POAs attached afterwards.
    let net = Network::new(TimeScale::off());
    let host = net.add_host("solo");
    let orb = Orb::new(net);
    orb.set_reply_cache_cap(2);
    assert_eq!(orb.config().reply_cache_cap, 2);

    // End-to-end sanity with a tiny cache: a real client's lockstep calls
    // never need more than one live entry, so nothing breaks.
    let hits = Arc::new(AtomicU64::new(0));
    let group = ServerGroup::create(&orb, "tiny", host, 1);
    let g = group.clone();
    let h = hits.clone();
    let server = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single("bump_tiny", Arc::new(Bumper { hits: h }));
        poa.impl_is_ready();
    });
    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let proxy = client.bind("bump_tiny").unwrap();
    for i in 0..8i64 {
        let reply = proxy.call("bump").arg(&i).invoke().unwrap();
        assert_eq!(reply.scalar::<i64>(0).unwrap(), 2 * i);
    }
    assert_eq!(hits.load(Ordering::SeqCst), 8);
    group.shutdown();
    server.join().unwrap();
}

#[test]
#[should_panic(expected = "reply cache cap must be positive")]
fn zero_reply_cache_cap_is_rejected() {
    let net = Network::new(TimeScale::off());
    net.add_host("solo");
    let orb = Orb::new(net);
    orb.set_reply_cache_cap(0);
}

/// Counts its executions and answers each with `len` octets of `x` — except
/// the call for `park`, which it defers and never answers.
struct Blob {
    hits: Arc<AtomicU64>,
    len: usize,
    park: Option<i64>,
}

impl Servant for Blob {
    fn interface(&self) -> &str {
        "blob"
    }
    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        self.hits.fetch_add(1, Ordering::SeqCst);
        let x: i64 = req.scalar(0).map_err(|e| e.to_string())?;
        let mut rep = ServerReply::new();
        rep.push_scalar(&vec![x as u8; self.len]);
        Ok(rep)
    }
    fn dispatch_deferred(&self, req: ServerRequest<'_>) -> Result<DispatchResult, String> {
        if self.park.is_some() && req.scalar::<i64>(0).ok() == self.park {
            self.hits.fetch_add(1, Ordering::SeqCst);
            return Ok(DispatchResult::Defer);
        }
        self.dispatch(req).map(DispatchResult::Reply)
    }
}

/// A single-thread server of [`Blob`]s driven by handcrafted requests,
/// request `i` on a binding (and client entity) of its own.
struct BlobRig {
    orb: Orb,
    hits: Arc<AtomicU64>,
    group: ServerGroup,
    server: Option<std::thread::JoinHandle<()>>,
    object: crate::ObjectKey,
    hosts: (pardis_netsim::HostId, pardis_netsim::HostId),
    reply: (crate::EndpointId, crate::orb::Inbox),
}

impl BlobRig {
    fn new(reply_len: usize, entry_cap: usize) -> BlobRig {
        BlobRig::parking(reply_len, entry_cap, None)
    }

    /// A rig whose servant parks request `park` for good.
    fn parking(reply_len: usize, entry_cap: usize, park: Option<i64>) -> BlobRig {
        let net = Network::new(TimeScale::off());
        let hosts = (net.add_host("client"), net.add_host("server"));
        net.connect(hosts.0, hosts.1, Link::free());
        let orb = Orb::new(net);
        orb.set_reply_cache_cap(entry_cap);
        let hits = Arc::new(AtomicU64::new(0));
        let group = ServerGroup::create(&orb, "blobs", hosts.1, 1);
        let (g, h) = (group.clone(), hits.clone());
        let server = std::thread::spawn(move || {
            let mut poa = g.attach(0, None);
            poa.activate_single("blob", Arc::new(Blob { hits: h, len: reply_len, park }));
            poa.impl_is_ready();
        });
        let object = orb.resolve(DEFAULT_REPOSITORY, "blob").unwrap().key;
        let reply = orb.register_endpoint(hosts.0);
        BlobRig { orb, hits, group, server: Some(server), object, hosts, reply }
    }

    /// Deliver request `i` (again) and return the reply frame's length.
    fn call(&self, i: u64) -> usize {
        self.send(i);
        let env = self.reply.1.recv_timeout(Duration::from_secs(10)).expect("reply arrives");
        match Message::decode_traced(&env.wire).unwrap().0 {
            Message::Reply(rep) => assert_eq!(rep.status, ReplyStatus::Ok),
            other => panic!("expected a reply, got {other:?}"),
        }
        env.wire.len()
    }

    /// Deliver request `i` (again) without waiting for a reply.
    fn send(&self, i: u64) {
        let request = Message::Request(RequestMsg {
            req_id: 1,
            binding: BindingId(i),
            entity: i,
            client_seq: 0,
            client: ClientId(9000),
            object: self.object,
            op: "blob".into(),
            oneway: false,
            funneled: false,
            reply_to: vec![self.reply.0],
            client_threads: 1,
            client_host: self.hosts.0.raw(),
            ins: vec![encode_i64(i as i64)],
            dargs: vec![],
        });
        let server_ep = self.orb.server_endpoints(self.group.id()).unwrap()[0];
        self.orb.send_wire(self.hosts.0, server_ep, request.encode().into()).unwrap();
    }

    fn hits(&self) -> u64 {
        self.hits.load(Ordering::SeqCst)
    }
}

impl Drop for BlobRig {
    fn drop(&mut self) {
        self.group.shutdown();
        let joined = self.server.take().expect("joined once").join();
        if !std::thread::panicking() {
            joined.unwrap();
        }
    }
}

#[test]
fn bulk_replies_are_retained_by_weight() {
    // 1 MiB replies against a 16 MiB budget: the entry cap (1 024) is far
    // away, so every eviction here is the byte budget's.
    let rig = BlobRig::new(1 << 20, 1024);
    let calls = 40;
    let mut frame = 0;
    for i in 0..calls {
        frame = rig.call(i);
        assert!(frame > 1 << 20);
        // The adapter records a reply after sending it, so this read may
        // miss the newest one — never see more than the bound.
        let retained = rig.orb.reply_cache_bytes() as usize;
        assert!(retained <= REPLY_CACHE_BYTES + frame, "{retained} bytes after call {i}");
    }
    assert_eq!(rig.hits(), calls);
    // The newest reply is retained: its duplicate replays. (The adapter is
    // one thread, so by now it has recorded everything it sent.)
    rig.call(calls - 1);
    assert_eq!(rig.hits(), calls, "a retained reply must replay");
    let retained = rig.orb.reply_cache_bytes() as usize;
    assert!(retained <= REPLY_CACHE_BYTES, "{retained} bytes at rest");
    assert!(retained + frame > REPLY_CACHE_BYTES, "evicted further than the budget asks");
    // The oldest went long ago: its duplicate re-executes, exactly once.
    rig.call(0);
    assert_eq!(rig.hits(), calls + 1, "an evicted reply must re-execute");
    rig.call(0);
    assert_eq!(rig.hits(), calls + 1, "and is retained again afterwards");
}

#[test]
fn the_newest_replies_outlive_the_byte_budget() {
    // Replies so large that the guaranteed newest entries alone weigh more
    // than the budget: they all stay replayable, and nothing older does.
    let keep = REPLY_CACHE_MIN_ENTRIES as u64;
    let reply_len = REPLY_CACHE_BYTES / (REPLY_CACHE_MIN_ENTRIES - 2);
    let rig = BlobRig::new(reply_len, 1024);
    let calls = keep + 4;
    for i in 0..calls {
        rig.call(i);
    }
    assert!(rig.orb.reply_cache_bytes() as usize > REPLY_CACHE_BYTES);
    for i in calls - keep..calls {
        rig.call(i);
    }
    assert_eq!(rig.hits(), calls, "the newest {keep} replies replay");
    rig.call(calls - keep - 1);
    assert_eq!(rig.hits(), calls + 1, "the one before them was evicted");
}

#[test]
fn small_replies_are_still_bounded_by_the_entry_cap() {
    let cap = 5;
    let rig = BlobRig::new(100, cap);
    let calls = 60;
    let mut frame = 0;
    for i in 0..calls {
        frame = rig.call(i);
    }
    // Replaying the newest waits until the adapter has recorded it.
    rig.call(calls - 1);
    assert_eq!(rig.hits(), calls);
    assert_eq!(rig.orb.reply_cache_bytes() as usize, cap * frame);
    rig.call(calls - 1 - cap as u64);
    assert_eq!(rig.hits(), calls + 1, "the entry before the newest {cap} was evicted");
    // Adapters give their share of the total back when they go.
    let orb = rig.orb.clone();
    drop(rig);
    assert_eq!(orb.reply_cache_bytes(), 0);
}

#[test]
fn a_parked_call_does_not_pin_the_byte_budget() {
    // Request 0 is deferred and never answered: its mark sits at the front
    // of the cache, executing, while 40 MiB of replies pass behind it.
    let rig = BlobRig::parking(1 << 20, 1024, Some(0));
    rig.send(0);
    for i in 1..=40 {
        let frame = rig.call(i);
        let retained = rig.orb.reply_cache_bytes() as usize;
        assert!(retained <= REPLY_CACHE_BYTES + frame, "{retained} bytes after call {i}");
    }
    // The parked call keeps its mark: its duplicate is dropped, not run.
    rig.send(0);
    rig.call(40);
    assert_eq!(rig.hits(), 41, "a parked call's duplicate must not re-execute");
}

/// Echoes its distributed in-argument back, counting executions.
struct CountingEcho {
    hits: Arc<AtomicU64>,
}

impl Servant for CountingEcho {
    fn interface(&self) -> &str {
        "echo"
    }
    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        self.hits.fetch_add(1, Ordering::SeqCst);
        let x: DSequence<f64> = req.dseq(0).map_err(|e| e.to_string())?;
        let mut rep = ServerReply::new();
        rep.push_dseq(x);
        Ok(rep)
    }
}

/// Elements of the echoed sequence each client thread holds.
const HALF: u64 = 512;

/// A one-thread server of a [`CountingEcho`] SPMD object, driven by a
/// handcrafted two-thread client on one binding. Request `id` carries
/// `2 * HALF` doubles in Block: one in-fragment from each client thread,
/// each with an acknowledgement lag of its own. Each client thread gets one
/// frame back: the reply riding with its half of the echo.
struct AckRig {
    orb: Orb,
    hits: Arc<AtomicU64>,
    group: ServerGroup,
    server: Option<std::thread::JoinHandle<()>>,
    object: crate::ObjectKey,
    hosts: (pardis_netsim::HostId, pardis_netsim::HostId),
    replies: Vec<(crate::EndpointId, crate::orb::Inbox)>,
}

impl AckRig {
    fn new() -> AckRig {
        let net = Network::new(TimeScale::off());
        let hosts = (net.add_host("client"), net.add_host("server"));
        net.connect(hosts.0, hosts.1, Link::free());
        let orb = Orb::new(net);
        let hits = Arc::new(AtomicU64::new(0));
        let group = ServerGroup::create(&orb, "echoes", hosts.1, 1);
        let (g, h) = (group.clone(), hits.clone());
        let server = std::thread::spawn(move || {
            let mut poa = g.attach(0, None);
            poa.activate_spmd("echo", Arc::new(CountingEcho { hits: h }), DistPolicy::new());
            poa.impl_is_ready();
        });
        let object = orb.resolve(DEFAULT_REPOSITORY, "echo").unwrap().key;
        let replies = (0..2).map(|_| orb.register_endpoint(hosts.0)).collect();
        AckRig { orb, hits, group, server: Some(server), object, hosts, replies }
    }

    fn send(&self, wire: impl Into<Wire>) {
        let server_ep = self.orb.server_endpoints(self.group.id()).unwrap()[0];
        self.orb.send_wire(self.hosts.0, server_ep, wire.into()).unwrap();
    }

    fn send_request(&self, id: u64) {
        let dargs = vec![
            DArgDesc { dir: ArgDir::In, len: 2 * HALF, client_dist: Distribution::Block },
            DArgDesc { dir: ArgDir::Out, len: 0, client_dist: Distribution::Block },
        ];
        self.send(
            Message::Request(RequestMsg {
                req_id: id,
                binding: BindingId(77),
                entity: 77,
                client_seq: id,
                client: ClientId(9000),
                object: self.object,
                op: "echo".into(),
                oneway: false,
                funneled: false,
                reply_to: self.replies.iter().map(|r| r.0).collect(),
                client_threads: 2,
                client_host: self.hosts.0.raw(),
                ins: vec![],
                dargs,
            })
            .encode(),
        );
    }

    /// Client thread `thread`'s in-fragment of request `id`.
    fn send_fragment(&self, id: u64, thread: u32, ack_lag: u16) {
        let head = FragmentMsg {
            start: thread as u64 * HALF,
            count: HALF,
            ..FragmentMsg::head(id, BindingId(77), 0, ArgDir::In, thread)
        };
        let mut payload = Encoder::new(ByteOrder::native());
        f64::encode_elems(&vec![id as f64; HALF as usize], &mut payload);
        let payload = payload.finish();
        self.send(frame_fragment(&head, None, ack_lag, packed(&payload)));
    }

    /// The frame client thread `thread` got back for request `id`, if one
    /// arrives: its length.
    fn recv(&self, thread: usize, id: u64) -> Option<usize> {
        let env = self.replies[thread].1.recv_timeout(Duration::from_secs(10))?;
        let Message::Batch(subs) = Message::decode_traced(&env.wire).unwrap().0 else {
            panic!("expected a [reply, out-fragment] envelope")
        };
        let Message::Reply(reply) = Message::decode_traced(&subs[0]).unwrap().0 else {
            panic!("reply")
        };
        assert_eq!((reply.req_id, reply.status), (id, ReplyStatus::Ok));
        Some(env.wire.len())
    }

    /// Nothing more arrives at client thread `thread`.
    fn quiet(&self, thread: usize) -> bool {
        self.replies[thread].1.recv_timeout(Duration::from_millis(200)).is_none()
    }

    /// Deliver request `id` whole, client thread `c` acknowledging with
    /// `lags[c]`, and return the length of the frame each got back.
    fn invoke(&self, id: u64, lags: [u16; 2]) -> [usize; 2] {
        self.send_request(id);
        self.send_fragment(id, 0, lags[0]);
        self.send_fragment(id, 1, lags[1]);
        [self.recv(0, id).expect("thread 0's frame"), self.recv(1, id).expect("thread 1's frame")]
    }

    /// Replay request `id` to both client threads, which also waits until
    /// the adapter has recorded everything it sent before.
    fn settle(&self, id: u64) {
        self.send_request(id);
        self.recv(0, id).expect("replayed to thread 0");
        self.recv(1, id).expect("replayed to thread 1");
    }

    fn bytes(&self) -> usize {
        self.orb.reply_cache_bytes() as usize
    }

    fn hits(&self) -> u64 {
        self.hits.load(Ordering::SeqCst)
    }
}

impl Drop for AckRig {
    fn drop(&mut self) {
        self.group.shutdown();
        let joined = self.server.take().expect("joined once").join();
        if !std::thread::panicking() {
            joined.unwrap();
        }
    }
}

#[test]
fn an_acknowledgement_lets_go_of_exactly_that_threads_frames() {
    let rig = AckRig::new();
    let sent: Vec<[usize; 2]> = (0..3).map(|id| rig.invoke(id, [0, 0])).collect();
    rig.settle(2);
    let unacked: usize = sent.iter().flatten().sum();
    assert_eq!(rig.bytes(), unacked, "lag 0 acknowledges nothing");

    // Request 3: client thread 0 has completed everything through 1.
    let third = rig.invoke(3, [2, 0]);
    rig.settle(3);
    assert_eq!(rig.bytes(), unacked + third[0] + third[1] - sent[0][0] - sent[1][0]);

    // A late duplicate of request 0 does not run again, and replays only
    // what client thread 1, which has not acknowledged it, may still need.
    rig.send_request(0);
    assert_eq!(rig.recv(1, 0), Some(sent[0][1]));
    assert!(rig.quiet(0), "client thread 0 acknowledged request 0");
    assert_eq!(rig.hits(), 4, "an acknowledged request must not re-execute");

    // The adapter gives its share of the total back when it goes.
    let orb = rig.orb.clone();
    drop(rig);
    assert_eq!(orb.reply_cache_bytes(), 0);
}

#[test]
fn a_lag_reaching_below_request_zero_is_ignored() {
    let rig = AckRig::new();
    let first = rig.invoke(0, [0, 0]);
    // Request 1 claims a lag of 5: it cannot have launched 5 requests.
    let second = rig.invoke(1, [5, 0]);
    rig.settle(1);
    assert_eq!(rig.bytes(), first[0] + first[1] + second[0] + second[1]);
    // A lag of exactly the request id acknowledges request 0.
    let third = rig.invoke(2, [2, 0]);
    rig.settle(2);
    assert_eq!(rig.bytes(), first[1] + second[0] + second[1] + third[0] + third[1]);
}

#[test]
fn an_acknowledgement_ahead_of_its_reply_still_applies() {
    let rig = AckRig::new();
    // Client thread 0's fragment of request 1, acknowledging request 0,
    // arrives before request 0 itself.
    rig.send_fragment(1, 0, 1);
    let first = rig.invoke(0, [0, 0]);
    rig.send_request(0);
    assert_eq!(rig.recv(1, 0), Some(first[1]));
    assert!(rig.quiet(0), "nothing was kept for client thread 0");
    assert_eq!(rig.bytes(), first[1]);
    // Request 1 completes as usual.
    rig.send_request(1);
    rig.send_fragment(1, 1, 0);
    assert!(rig.recv(0, 1).is_some() && rig.recv(1, 1).is_some());
    assert_eq!(rig.hits(), 2);
}

/// Owns a frame body and counts its drops.
struct Storage(Vec<u8>, Arc<AtomicU64>);

impl AsRef<[u8]> for Storage {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Drop for Storage {
    fn drop(&mut self) {
        self.1.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn an_acknowledged_entry_retains_no_frame_storage() {
    // Two client threads' frames of one reply, each with a body over the
    // same storage. Once both threads acknowledge the request, the entry
    // keeps its mark but neither frames, nor room for them, nor the storage.
    let drops = Arc::new(AtomicU64::new(0));
    let body = bytes::Bytes::from_owner(Storage(vec![7; 4096], drops.clone()));
    let wire = |half: usize| Wire {
        head: Message::Close.encode(),
        body: body.slice(half * 2048..(half + 1) * 2048),
    };
    let mut recent = RecentInvocations::new(16);
    let (binding, key) = (BindingId(5), (BindingId(5), 0));
    assert!(recent.accept(key));
    recent.record(key, vec![(0, EndpointId(1), wire(0)), (1, EndpointId(2), wire(1))]);
    drop(body);
    assert_eq!(recent.retained(key), Some((2, 2)));
    recent.acknowledge(binding, 0, 0);
    recent.acknowledge(binding, 1, 0);
    // Acknowledged frames go when the next reply is recorded.
    assert!(recent.accept((binding, 1)));
    assert_eq!(recent.record((binding, 1), Vec::new()), 2);
    assert_eq!(recent.retained(key), Some((0, 0)), "the emptied list keeps no room");
    assert_eq!(drops.load(Ordering::SeqCst), 1, "the storage went with its last frame");
    assert!(!recent.accept(key), "the mark stays");
}
