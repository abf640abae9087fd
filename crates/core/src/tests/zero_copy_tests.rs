//! Pins the zero-copy invariants of the marshaling path: decoded fragment
//! payloads borrow the wire frame, a dense run of doubles arrives as the
//! sender's own storage and is the receiver's argument as it stands (a
//! strided one is assembled), the lead's N per-thread control sends deliver
//! one shared wire allocation (not N copies), `DSequence::take_local` moves
//! the storage when it is the sole owner — also once a call that sent it
//! has completed.

use crate::dist::Distribution;
use crate::object::BindingId;
use crate::protocol::{ArgDir, FragmentMsg, Message};
use crate::servant::{Servant, ServerReply, ServerRequest};
use crate::{ClientGroup, DSequence, DistPolicy, Orb, ServerGroup, TransferStrategy};
use bytes::Bytes;
use pardis_rts::{MpiRts, Rts, World};
use std::sync::{Arc, Mutex};

fn alloc_range(b: &Bytes) -> (usize, usize) {
    let lo = b.as_ptr() as usize;
    (lo, lo + b.len())
}

#[test]
fn fragment_payload_borrows_the_wire_buffer() {
    // Decoding a Fragment must slice the payload out of the frame by
    // reference; a copy here would cost O(bytes) per hop.
    let msg = Message::Fragment(FragmentMsg {
        req_id: 1,
        binding: BindingId(2),
        arg: 0,
        dir: ArgDir::In,
        start: 0,
        count: 4096,
        dst_thread: 0,
        src_thread: 0,
        data: Bytes::from(vec![0xc3u8; 4096]),
    });
    let wire = msg.encode();
    let (lo, hi) = alloc_range(&wire);
    let Message::Fragment(f) = Message::decode(&wire).unwrap() else {
        panic!("fragment expected");
    };
    let (plo, phi) = alloc_range(&f.data);
    assert!(plo >= lo && phi <= hi, "fragment payload was copied out of the wire frame");
}

#[test]
fn request_in_args_borrow_the_wire_buffer() {
    use crate::object::{ClientId, EndpointId, ObjectKey};
    use crate::protocol::RequestMsg;
    let msg = Message::Request(RequestMsg {
        req_id: 9,
        binding: BindingId(1),
        entity: 1,
        client_seq: 0,
        client: ClientId(1),
        object: ObjectKey(1),
        op: "probe".into(),
        oneway: false,
        funneled: true,
        reply_to: vec![EndpointId(1)],
        client_threads: 1,
        client_host: 0,
        ins: vec![Bytes::from(vec![0x5au8; 1024])],
        dargs: vec![],
    });
    let wire = msg.encode();
    let (lo, hi) = alloc_range(&wire);
    let Message::Request(req) = Message::decode(&wire).unwrap() else {
        panic!("request expected");
    };
    let (plo, phi) = alloc_range(&req.ins[0]);
    assert!(plo >= lo && phi <= hi, "scalar in-arg was copied out of the wire frame");
}

/// Records the backing pointer of the first scalar in-arg blob each time it
/// is dispatched — one entry per server thread of an SPMD call.
struct PtrProbe {
    seen: Arc<Mutex<Vec<usize>>>,
}

impl Servant for PtrProbe {
    fn interface(&self) -> &str {
        "ptrprobe"
    }
    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        self.seen.lock().unwrap().push(req.ins[0].as_ptr() as usize);
        let x: i64 = req.scalar(0).map_err(|e| e.to_string())?;
        let mut rep = ServerReply::new();
        rep.push_scalar(&x);
        Ok(rep)
    }
}

#[test]
fn lead_control_sends_share_one_wire_allocation() {
    // The lead sends its request control to every server thread. All `n`
    // dispatches must see in-arg blobs backed by the *same* allocation: each
    // send is a refcount bump of the one encoded frame, not a deep copy per
    // destination.
    let n = 4;
    let (orb, host) = Orb::single_host();
    // Funneled, the reply leaves only once every server thread has run the
    // call, so all `n` have dispatched by the time it returns.
    orb.set_transfer_strategy(TransferStrategy::Funneled);
    let seen = Arc::new(Mutex::new(Vec::new()));

    let group = ServerGroup::create(&orb, "probe-server", host, n);
    let g = group.clone();
    let s = seen.clone();
    let server = std::thread::spawn(move || {
        World::run(n, |rank| {
            let t = rank.rank();
            let rts: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
            let mut poa = g.attach(t, Some(rts));
            poa.activate_spmd("probe", Arc::new(PtrProbe { seen: s.clone() }), DistPolicy::new());
            poa.impl_is_ready();
        });
    });

    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let proxy = client.spmd_bind("probe").unwrap();
    let reply = proxy.call("echo").arg(&7i64).invoke().unwrap();
    assert_eq!(reply.scalar::<i64>(0).unwrap(), 7);

    group.shutdown();
    server.join().unwrap();

    let ptrs = seen.lock().unwrap().clone();
    assert_eq!(ptrs.len(), n, "every server thread dispatches the request");
    assert!(
        ptrs.iter().all(|p| *p == ptrs[0]),
        "control sends deep-copied the wire: in-arg pointers differ across threads {ptrs:?}"
    );
}

#[test]
fn take_local_moves_storage_when_solely_owned() {
    let full: Vec<f64> = (0..64).map(|i| i as f64).collect();
    let ds = DSequence::distribute(&full, Distribution::Block, 1, 0);
    let before = ds.local().as_ptr();
    let taken = ds.take_local();
    assert_eq!(taken.as_ptr(), before, "sole-owner take_local must move, not copy");
    assert_eq!(taken, full);
}

#[test]
fn take_local_clones_only_when_shared() {
    let full: Vec<f64> = (0..32).map(|i| i as f64).collect();
    let ds = DSequence::distribute(&full, Distribution::Block, 1, 0);
    let handle = ds.clone(); // second owner forces the clone path
    let before = ds.local().as_ptr();
    let taken = ds.take_local();
    assert_ne!(taken.as_ptr(), before, "shared storage must be cloned, not stolen");
    assert_eq!(taken, handle.local());
}

/// Where one server thread saw the call's data: the in-payload it was sent,
/// the in-argument's local part, and the reply's storage.
#[derive(Debug, Clone, Copy)]
struct Seen {
    payload: usize,
    arg: usize,
    reply: usize,
}

/// Doubles its distributed in-argument into a fresh reply sequence, and
/// records where the in-payload, the in-argument and the reply live.
struct Doubler {
    seen: Arc<Mutex<Vec<Seen>>>,
}

impl Servant for Doubler {
    fn interface(&self) -> &str {
        "doubler"
    }
    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        let payload = req.dins[0].pieces[0].data.as_ptr() as usize;
        let x: DSequence<f64> = req.dseq(0).map_err(|e| e.to_string())?;
        let doubled: Vec<f64> = x.local().iter().map(|v| v * 2.0).collect();
        // Taking the elements out of a received sequence gives equal data
        // in storage of its own, whether the sequence adopted its payload
        // or assembled a copy.
        let taken = x.clone().take_local();
        assert_eq!(taken, x.local());
        assert_ne!(taken.as_ptr(), x.local().as_ptr(), "the payload is shared, not stolen");
        let (n, t) = (x.nthreads(), x.thread());
        let y = DSequence::from_local(doubled, x.len(), x.dist().clone(), n, t);
        let arg = x.local().as_ptr() as usize;
        self.seen.lock().unwrap().push(Seen { payload, arg, reply: y.local().as_ptr() as usize });
        let mut rep = ServerReply::new();
        rep.push_dseq(y);
        Ok(rep)
    }
}

/// One `double` call from a single client thread holding 4 096 doubles in
/// `Block`, on a server of `server_n` threads that takes the argument in
/// `server_dist`, checking where each side's data lives.
fn double_on(server_n: usize, server_dist: Distribution) {
    let (orb, host) = Orb::single_host();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let group = ServerGroup::create(&orb, "doubler-server", host, server_n);
    let (g, s) = (group.clone(), seen.clone());
    let policy = DistPolicy::new().with("double", 0, server_dist);
    let server = std::thread::spawn(move || {
        World::run(server_n, |rank| {
            let t = rank.rank();
            let rts: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
            let mut poa = g.attach(t, Some(rts));
            let servant = Arc::new(Doubler { seen: s.clone() });
            poa.activate_spmd("doubler", servant, policy.clone());
            poa.impl_is_ready();
        });
    });

    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let proxy = client.spmd_bind("doubler").unwrap();
    let full: Vec<f64> = (0..4096).map(|i| i as f64).collect();
    let x = DSequence::distribute(&full, Distribution::Block, 1, 0);
    let sent = x.local().as_ptr() as usize;
    let reply = proxy.call("double").dseq_in(&x).dseq_out(Distribution::Block).invoke().unwrap();
    let seen = seen.lock().unwrap().clone();
    assert_eq!(seen.len(), server_n, "every server thread dispatched once");
    let y: DSequence<f64> = reply.dseq(0).unwrap();
    assert_eq!(y.local(), full.iter().map(|v| v * 2.0).collect::<Vec<_>>());
    let storage = sent..sent + 4096 * 8;
    if server_n == 1 {
        // One dense run each way: the POA's in-payload and the servant's
        // in-argument are the client's storage, the client's reply payload
        // and its out-argument are the servant's.
        let [only] = seen[..] else { unreachable!() };
        assert_eq!(only.payload, sent, "the in-payload at the POA is the client's storage");
        assert_eq!(only.arg, sent, "the servant's in-argument is the client's storage");
        assert_eq!(reply.piece_ptrs(0), vec![only.reply], "the reply payload is the servant's");
        assert_eq!(y.local().as_ptr() as usize, only.reply, "the out-argument is the servant's");
        let taken = y.clone().take_local();
        assert_eq!(taken, y.local(), "taking an adopted sequence copies it whole");
    } else {
        // A strided share is packed into its frame: no server thread's
        // in-argument is the client's storage.
        for s in &seen {
            assert!(!storage.contains(&s.payload), "{s:?} is the client's storage");
            assert!(!storage.contains(&s.arg), "{s:?} is the client's storage");
        }
    }
    drop((reply, y));

    // Nothing the call left behind pins the input: not the replay list,
    // not a reply cache, not a frame in flight, not the servant's view.
    group.shutdown();
    server.join().unwrap();
    let taken = x.take_local();
    assert_eq!(taken.as_ptr() as usize, sent, "take_local moved the storage");
}

#[test]
fn block_payloads_travel_as_the_senders_storage() {
    double_on(1, Distribution::Block);
}

#[test]
fn cyclic_in_arguments_are_assembled_not_adopted() {
    double_on(2, Distribution::Cyclic);
}
