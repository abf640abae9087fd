//! Marshaling & transfer microbenchmarks — the §4.1/§4.2 cost spine.
//!
//! Records the throughput/latency of the argument-transfer hot path so the
//! perf trajectory of the marshal/transfer layers is pinned in
//! `results/BENCH_marshal.json`:
//!
//! * large-sequence CDR marshal/unmarshal throughput (`Vec<f64>`),
//! * fragment frame encode/decode throughput (the ORB's bulk-data unit),
//! * redistribution latency across distribution-template pairs.
//!
//! ```text
//! cargo run --release -p pardis-bench --bin fig_marshal
//! PARDIS_QUICK=1 ...                        (16K-element smoke sweep)
//! fig_marshal --compare results/BENCH_marshal.json
//!                                           (regression gate: exit 1 when a
//!                                            shared series/column is >30%
//!                                            worse than the baseline;
//!                                            PARDIS_BENCH_TOL overrides)
//! ```

use pardis::cdr::{ByteOrder, CdrCodec, Encoder};
use pardis::core::protocol::{ArgDir, FragmentMsg, Message};
use pardis::core::{BindingId, DSequence, Distribution};
use pardis::rts::{MpiRts, Rts, World};
use pardis_bench::util::{env_usize, quick, row, BenchJson};
use std::time::Instant;

const THREADS: usize = 4;

/// Best-of-`reps` wall time of `f`, in seconds (one untimed warmup call).
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn mb(n_elems: usize) -> f64 {
    (n_elems * 8) as f64 / 1e6
}

/// A fragment message over `payload` (global range `[0, count)`).
fn fragment(count: u64, payload: &[u8]) -> Message {
    Message::Fragment(FragmentMsg {
        req_id: 1,
        binding: BindingId(1),
        arg: 0,
        dir: ArgDir::In,
        start: 0,
        count,
        dst_thread: 0,
        src_thread: 0,
        data: payload.to_vec().into(),
    })
}

/// Per-redistribute wall milliseconds (max over threads) for an `a` → `b` →
/// `a` round-trip ping-pong, so repeated calls hit any plan reuse the same
/// way a real iterative application would.
fn redist_ms(n: usize, reps: usize, a: &Distribution, b: &Distribution) -> f64 {
    let full: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
    let (a, b) = (a.clone(), b.clone());
    let times = World::run(THREADS, move |rank| {
        let t = rank.rank();
        let rts = MpiRts::new(rank);
        let mut ds = DSequence::distribute(&full, a.clone(), THREADS, t);
        ds.redistribute(&rts, b.clone());
        ds.redistribute(&rts, a.clone());
        rts.barrier();
        let start = Instant::now();
        for _ in 0..reps {
            ds.redistribute(&rts, b.clone());
            ds.redistribute(&rts, a.clone());
        }
        let elapsed = start.elapsed().as_secs_f64();
        rts.barrier();
        if t == 0 && n > 0 {
            assert_eq!(ds.local().first().copied(), Some(0.0), "round-trip must restore data");
        }
        elapsed
    });
    times.into_iter().fold(0.0, f64::max) / (reps * 2) as f64 * 1e3
}

struct Measured {
    columns: Vec<f64>,
    series: Vec<(&'static str, Vec<f64>)>,
}

fn measure() -> Measured {
    let sizes: Vec<usize> = if quick() { vec![1 << 14] } else { vec![1 << 14, 1 << 17, 1 << 20] };
    let reps = env_usize("PARDIS_BENCH_REPS", if quick() { 3 } else { 5 });

    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut frag_enc = Vec::new();
    let mut frag_dec = Vec::new();
    let mut r_b2c = Vec::new();
    let mut r_b2k = Vec::new();
    let mut r_c2b = Vec::new();

    for &n in &sizes {
        let values: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();

        // Large-sequence CDR marshal / unmarshal. Encode measures CDR byte
        // production into a presized buffer — the ORB's fragment-staging
        // path — so the number tracks the encoder, not allocator churn.
        let mut sink = 0usize;
        let cap = 16 + n * 8;
        enc.push(
            mb(n)
                / best_of(reps, || {
                    let mut e = Encoder::with_capacity(ByteOrder::native(), cap);
                    values.encode(&mut e);
                    sink ^= e.len();
                }),
        );
        let wire = pardis::cdr::to_bytes(&values);
        dec.push(
            mb(n)
                / best_of(reps, || {
                    sink ^= pardis::cdr::from_bytes::<Vec<f64>>(&wire).expect("decode").len();
                }),
        );

        // Fragment framing: one bulk in-argument fragment of n doubles
        // (message built once; the loop times frame encoding).
        let payload = pardis::cdr::to_bytes(&values).to_vec();
        let count = n as u64;
        let frag_msg = fragment(count, &payload);
        frag_enc.push(mb(n) / best_of(reps, || sink ^= frag_msg.encode().len()));
        let frag_wire = fragment(count, &payload).encode();
        frag_dec.push(
            mb(n)
                / best_of(reps, || match Message::decode(&frag_wire).expect("fragment") {
                    Message::Fragment(f) => sink ^= f.data.len(),
                    other => panic!("unexpected {other:?}"),
                }),
        );

        assert_ne!(sink, usize::MAX, "keep the measured work observable");

        // Redistribution latency across template pairs.
        let rreps = env_usize("PARDIS_REDIST_REPS", if n >= 1 << 20 { 2 } else { 4 });
        r_b2c.push(redist_ms(n, rreps, &Distribution::Block, &Distribution::Cyclic));
        r_b2k.push(redist_ms(n, rreps, &Distribution::Block, &Distribution::Concentrated(0)));
        r_c2b.push(redist_ms(n, rreps, &Distribution::Cyclic, &Distribution::Block));
    }

    Measured {
        columns: sizes.iter().map(|&n| n as f64).collect(),
        series: vec![
            ("seq_encode_mb_s", enc),
            ("seq_decode_mb_s", dec),
            ("frag_encode_mb_s", frag_enc),
            ("frag_decode_mb_s", frag_dec),
            ("redist_block_cyclic_ms", r_b2c),
            ("redist_block_conc_ms", r_b2k),
            ("redist_cyclic_block_ms", r_c2b),
        ],
    }
}

fn main() {
    let m = measure();

    println!("{}", row("n elements", &m.columns));
    for (name, vals) in &m.series {
        println!("{}", row(name, vals));
    }

    let mut json = BenchJson::new("marshal", "Marshaling & transfer performance");
    json.param_usize("threads", THREADS);
    json.columns(&m.columns);
    for (name, vals) in &m.series {
        json.series(name, vals);
    }
    json.write();
    json.gate_from_args();
}
