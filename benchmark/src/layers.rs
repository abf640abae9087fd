//! Standalone calls into each layer's public functions, on inputs the size
//! the workload uses: each layer measured against the layer beneath it.
//!
//! These run in the traced binary only, after the traced session. Each
//! figure is a median over [`BATCHES`] batches, for the reason the harness
//! reports medians over segments.

use crate::report::Metric;
use crate::stats::median;
use pardis::cdr::{self, ByteOrder, CdrCodec, Encoder};
use pardis::core::dist::plan_transfer_cached;
use pardis::core::protocol::{encode_fragment_frame, ArgDir, FragmentMsg, Message, RequestMsg};
use pardis::core::{
    plan_transfer, BindingId, ClientId, DSequence, Distribution, EndpointId, ObjectKey,
};
use pardis::netsim::{LinkPreset, Network, TimeScale};
use pardis::pooma::{Field2D, Layout2D};
use pardis::rts::{Bytes, MpiRts, Rts, World};
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCHES: usize = 9;
const BATCH_TARGET: Duration = Duration::from_millis(4);
/// Payload of the bulk fragment figures.
const BULK_FRAGMENT_BYTES: usize = 256 * 1024;

/// Nanoseconds per call of `f`: median over batches sized to
/// [`BATCH_TARGET`].
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u32;
    let per_batch = loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let took = t.elapsed();
        if took >= BATCH_TARGET / 4 || iters >= 1 << 22 {
            break (iters as f64 * BATCH_TARGET.as_secs_f64() / took.as_secs_f64().max(1e-9))
                .clamp(1.0, (1u32 << 22) as f64) as u32;
        }
        iters *= 2;
    };
    batches(per_batch as usize, f)
}

/// Nanoseconds per call over [`BATCHES`] batches of exactly `iters` calls
/// (collective calls need every rank to make the same number).
fn batches(iters: usize, mut f: impl FnMut()) -> f64 {
    let per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per)
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / ns * 1e3
}

/// Run `f` on two ranks with no network attached and return rank 0's result.
fn on_pair<R: Send>(f: impl Fn(&MpiRts, usize) -> R + Send + Sync) -> R {
    let mut out = World::run(2, |rank| {
        let t = rank.rank();
        f(&MpiRts::new(rank), t)
    });
    out.swap_remove(0)
}

/// Every standalone layer figure, for a workload of `elems` elements.
pub fn measure(elems: usize) -> Vec<Metric> {
    let mut out = Vec::new();
    cdr_layer(elems, &mut out);
    protocol_layer(&mut out);
    let pieces = dist_layer(elems, &mut out);
    dseq_layer(elems, &mut out);
    netsim_layer(&mut out);
    rts_layer(elems, pieces, &mut out);
    pooma_layer(&mut out);
    out
}

fn cdr_layer(elems: usize, out: &mut Vec<Metric>) {
    let values: Vec<f64> = (0..elems).map(|i| (i as f64).sin()).collect();
    let bytes = elems * 8;
    let ns = ns_per_call(|| {
        let mut e = Encoder::with_capacity(ByteOrder::native(), 16 + bytes);
        black_box(&values).encode(&mut e);
        black_box(e.len());
    });
    out.push(Metric::new("cdr.encode_f64_mb_s", "MB/s", mb_per_s(bytes, ns)));
    let wire = cdr::to_bytes(&values);
    let ns = ns_per_call(|| {
        black_box(cdr::from_bytes::<Vec<f64>>(black_box(&wire)).expect("decode").len());
    });
    out.push(Metric::new("cdr.decode_f64_mb_s", "MB/s", mb_per_s(bytes, ns)));
    let x = 0x0123_4567_89ab_i64;
    let ns = ns_per_call(|| {
        let b = cdr::to_bytes(black_box(&x));
        black_box(cdr::from_bytes::<i64>(&b).expect("decode"));
    });
    out.push(Metric::new("cdr.scalar_roundtrip_ns", "ns", ns));
}

fn protocol_layer(out: &mut Vec<Metric>) {
    let request = Message::Request(RequestMsg {
        req_id: 7,
        binding: BindingId(1),
        entity: 1,
        client_seq: 7,
        client: ClientId(1),
        object: ObjectKey(2),
        op: "double".into(),
        oneway: false,
        funneled: false,
        reply_to: vec![EndpointId(3)],
        client_threads: 1,
        client_host: 0,
        ins: vec![cdr::to_bytes(&42i64)],
        dargs: Vec::new(),
    });
    out.push(Metric::new(
        "protocol.request_encode_ns",
        "ns",
        ns_per_call(|| drop(black_box(request.encode()))),
    ));
    let wire = request.encode();
    out.push(Metric::new(
        "protocol.request_decode_ns",
        "ns",
        ns_per_call(|| drop(black_box(Message::decode(black_box(&wire)).expect("request")))),
    ));

    let head = |count: u64| FragmentMsg {
        req_id: 7,
        binding: BindingId(1),
        arg: 0,
        dir: ArgDir::In,
        start: 0,
        count,
        dst_thread: 0,
        src_thread: 0,
        data: Bytes::new(),
    };
    let bulk = vec![0x5au8; BULK_FRAGMENT_BYTES];
    let bulk_head = head((BULK_FRAGMENT_BYTES / 8) as u64);
    let ns = ns_per_call(|| drop(black_box(encode_fragment_frame(&bulk_head, black_box(&bulk)))));
    out.push(Metric::new(
        "protocol.fragment_encode_mb_s",
        "MB/s",
        mb_per_s(BULK_FRAGMENT_BYTES, ns),
    ));
    let frame = encode_fragment_frame(&bulk_head, &bulk);
    let ns = ns_per_call(|| drop(black_box(Message::decode(black_box(&frame)).expect("fragment"))));
    out.push(Metric::new(
        "protocol.fragment_decode_mb_s",
        "MB/s",
        mb_per_s(BULK_FRAGMENT_BYTES, ns),
    ));
    let (small, small_head) = ([0u8; 8], head(1));
    out.push(Metric::new(
        "protocol.fragment_small_encode_ns",
        "ns",
        ns_per_call(|| drop(black_box(encode_fragment_frame(&small_head, black_box(&small))))),
    ));
}

/// Returns the Block→Cyclic piece count, which sizes the vectored get.
fn dist_layer(elems: usize, out: &mut Vec<Metric>) -> usize {
    let len = elems as u64;
    let (b, c) = (Distribution::Block, Distribution::Cyclic);
    let ns = ns_per_call(|| drop(black_box(plan_transfer(black_box(len), &b, 2, &c, 2))));
    out.push(Metric::new("dist.plan_uncached_us", "us", ns / 1e3));
    let pieces = plan_transfer_cached(len, &b, 2, &c, 2).len();
    let ns = ns_per_call(|| drop(black_box(plan_transfer_cached(black_box(len), &b, 2, &c, 2))));
    out.push(Metric::new("dist.plan_cached_ns", "ns", ns));
    out.push(Metric::new("dist.plan_pieces", "count", pieces as f64));
    pieces
}

fn dseq_layer(elems: usize, out: &mut Vec<Metric>) {
    let values: Vec<f64> = (0..elems).map(|i| (i as f64).cos()).collect();
    let half = (elems / 2) as u64;
    let ds = DSequence::distribute(&values, Distribution::Block, 2, 0);
    let ns = ns_per_call(|| drop(black_box(ds.encode_range(0, black_box(half)))));
    out.push(Metric::new("dseq.encode_range_mb_s", "MB/s", mb_per_s(half as usize * 8, ns)));

    let reps = ((1usize << 20) / elems.max(1)).clamp(BATCHES, 200);
    let (b2c, c2b, gather) = on_pair(|rts, t| {
        let mut ds = DSequence::distribute(&values, Distribution::Block, 2, t);
        let (mut b2c, mut c2b, mut gather) = (Vec::new(), Vec::new(), Vec::new());
        for rep in 0..=reps {
            let t0 = Instant::now();
            ds.redistribute(rts, Distribution::Cyclic);
            let t1 = Instant::now();
            ds.redistribute(rts, Distribution::Block);
            let t2 = Instant::now();
            black_box(ds.gather(rts).len());
            // The first round fills the plan cache.
            if rep > 0 {
                b2c.push((t1 - t0).as_nanos() as f64 / 1e3);
                c2b.push((t2 - t1).as_nanos() as f64 / 1e3);
                gather.push(t2.elapsed().as_nanos() as f64 / 1e3);
            }
        }
        (median(&b2c), median(&c2b), median(&gather))
    });
    out.push(Metric::new("dseq.redistribute_b2c_us", "us", b2c));
    out.push(Metric::new("dseq.redistribute_c2b_us", "us", c2b));
    out.push(Metric::new("dseq.gather_us", "us", gather));
}

fn netsim_layer(out: &mut Vec<Metric>) {
    let net = Network::new(TimeScale::off());
    let (a, b) = (net.add_host("a"), net.add_host("b"));
    net.connect(a, b, LinkPreset::Ethernet10.link());
    out.push(Metric::new(
        "net.transmit_ns",
        "ns",
        ns_per_call(|| {
            black_box(net.transmit(a, b, 64, || {}));
        }),
    ));
}

fn rts_layer(elems: usize, pieces: usize, out: &mut Vec<Metric>) {
    const TAG: u64 = 17;
    let block = Bytes::from(vec![0xa5u8; elems * 4]);
    let ping_pong = |rts: &MpiRts, t: usize, payload: &Bytes, iters: usize| {
        batches(iters, || {
            if t == 0 {
                rts.send(1, TAG, payload.clone());
                black_box(rts.recv(Some(1), TAG));
            } else {
                let msg = rts.recv(Some(0), TAG);
                rts.send(0, TAG, msg.data);
            }
        }) / 2.0
    };
    let (small_ns, block_ns, barrier_ns) = on_pair(|rts, t| {
        let small = ping_pong(rts, t, &Bytes::from(vec![0u8; 8]), 300);
        let big = ping_pong(rts, t, &block, 300);
        (small, big, batches(300, || rts.barrier()))
    });
    out.push(Metric::new("rts.send_recv_small_us", "us", small_ns / 1e3));
    out.push(Metric::new("rts.send_recv_block_mb_s", "MB/s", mb_per_s(block.len(), block_ns)));
    out.push(Metric::new("rts.barrier_us", "us", barrier_ns / 1e3));

    // One-sided: rank 1 exposes a block, rank 0 drives it.
    let spans: Vec<(u64, u64)> = (0..(pieces / 4).max(1) as u64).map(|i| (i * 16, 8)).collect();
    let (put_ns, get_ns, vec_ns) = on_pair(|rts, t| {
        let w = rts.windows().expect("MpiRts has windows");
        let base = w.collective_window_base();
        if t == 1 {
            w.expose(base, vec![0u8; block.len()]).expect("fresh base");
        }
        rts.barrier();
        let id = pardis::rts::WindowId { owner: 1, base };
        let timed = (t == 0).then(|| {
            let put = ns_per_call(|| w.put_nb(id, 0, block.clone()).expect("in bounds").wait());
            let get = ns_per_call(|| {
                black_box(w.get_nb(id, 0, block.len() as u64).expect("in bounds").wait());
            });
            let vec = ns_per_call(|| {
                black_box(w.get_vec_nb(id, &spans).expect("in bounds").wait());
            });
            (put, get, vec)
        });
        rts.barrier();
        if t == 1 {
            w.deregister(id).expect("exposed above");
        }
        timed.unwrap_or_default()
    });
    out.push(Metric::new("rts.win_put_mb_s", "MB/s", mb_per_s(block.len(), put_ns)));
    out.push(Metric::new("rts.win_get_mb_s", "MB/s", mb_per_s(block.len(), get_ns)));
    out.push(Metric::new("rts.win_get_vec_us", "us", vec_ns / 1e3));
}

fn pooma_layer(out: &mut Vec<Metric>) {
    let ns = on_pair(|rts, t| {
        let mut field = Field2D::from_fn(Layout2D::new(128, 128, 2), t, |i, j| (i * 31 + j) as f64);
        field.stencil9(0.05, rts);
        batches(100, || field.stencil9(0.05, rts))
    });
    out.push(Metric::new("pooma.stencil_step_us", "us", ns / 1e3));
}
