use super::*;

/// The crate's state (gate, rings, metrics, clock) is process-global, so
/// tests that exercise it must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn with_clean_state<R>(f: impl FnOnce() -> R) -> R {
    let _guard = lock(&SERIAL);
    reset();
    let r = f();
    reset();
    r
}

#[test]
fn disabled_records_nothing() {
    with_clean_state(|| {
        instant("test", "never", None, vec![]);
        span_begin("test", "never", None, vec![]);
        span_end("test", "never", None, vec![]);
        enable();
        let threads = drain();
        assert!(threads.iter().all(|t| t.events.is_empty()));
    });
}

#[test]
fn events_round_trip_in_order() {
    with_clean_state(|| {
        enable();
        set_thread_label("unit");
        instant("test", "a", Some((7, 1)), vec![("n", 3u64.into())]);
        span_begin("test", "b", None, vec![]);
        span_end("test", "b", None, vec![]);
        let threads = drain();
        let t = threads.iter().find(|t| t.label == "unit").expect("labelled ring");
        let shape: Vec<(Phase, &str)> =
            t.events.iter().map(|e| (e.phase, e.name.as_ref())).collect();
        assert_eq!(shape, vec![(Phase::Instant, "a"), (Phase::Begin, "b"), (Phase::End, "b")]);
        assert_eq!(t.events[0].key, Some((7, 1)));
        // Drain removed them.
        assert!(drain().iter().all(|t| t.events.is_empty()));
    });
}

#[test]
fn ring_drops_oldest_when_full() {
    with_clean_state(|| {
        enable();
        set_thread_label("full");
        for i in 0..(RING_CAP as u64 + 10) {
            instant("test", "tick", None, vec![("i", i.into())]);
        }
        let threads = drain();
        let t = threads.iter().find(|t| t.label == "full").unwrap();
        assert_eq!(t.events.len(), RING_CAP);
        assert_eq!(t.dropped, 10);
        // The *oldest* events were discarded: the first survivor is i == 10.
        assert_eq!(t.events[0].args[0].1, ArgVal::U64(10));
    });
}

#[test]
fn span_guard_balances_across_disable() {
    with_clean_state(|| {
        enable();
        set_thread_label("guard");
        {
            let _s = Span::open("test", "work", Some((1, 2)), vec![]);
        }
        // Opened while disabled: must emit nothing, even though tracing is
        // re-enabled before the guard drops.
        disable();
        let s = Span::open("test", "ghost", None, vec![]);
        enable();
        drop(s);
        let threads = drain();
        let t = threads.iter().find(|t| t.label == "guard").unwrap();
        let names: Vec<&str> = t.events.iter().map(|e| e.name.as_ref()).collect();
        assert_eq!(names, vec!["work", "work"]);
        assert_eq!(t.events[0].phase, Phase::Begin);
        assert_eq!(t.events[1].phase, Phase::End);
    });
}

#[test]
fn clock_injection_and_default_zero() {
    with_clean_state(|| {
        enable();
        set_thread_label("clock");
        instant("test", "untimed", None, vec![]);
        set_clock_micros(Arc::new(|| 42));
        instant("test", "timed", None, vec![]);
        let threads = drain();
        let t = threads.iter().find(|t| t.label == "clock").unwrap();
        assert_eq!(t.events[0].ts_us, 0);
        assert_eq!(t.events[1].ts_us, 42);
    });
}

#[test]
fn metrics_counter_and_histogram() {
    with_clean_state(|| {
        let c = counter("test.count");
        c.inc();
        c.add(4);
        counter("test.count").inc(); // same underlying counter
        let h = histogram("test.hist");
        h.observe(0);
        h.observe(3);
        h.observe(1000);
        set_counter("test.gauge", 99);
        let snap = metrics_snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["test.count", "test.gauge", "test.hist"]); // sorted
        assert_eq!(snap[0].1, MetricSnapshot::Counter(6));
        assert_eq!(snap[1].1, MetricSnapshot::Counter(99));
        match &snap[2].1 {
            MetricSnapshot::Histogram { count, sum, buckets } => {
                assert_eq!(*count, 3);
                assert_eq!(*sum, 1003);
                assert_eq!(buckets.as_slice(), &[(0, 1), (3, 1), (1023, 1)]);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    });
}

#[test]
fn export_is_valid_and_deterministic() {
    with_clean_state(|| {
        let run = || {
            reset();
            enable();
            set_thread_label("exporter");
            set_clock_micros(Arc::new(|| 5));
            span_begin("test", "op", Some((1, 1)), vec![("len", 16u64.into())]);
            instant("test", "odd \"name\"\n", None, vec![("s", "tab\there".into())]);
            span_end("test", "op", Some((1, 1)), vec![]);
            counter("x.count").add(2);
            histogram("x.hist").observe(7);
            chrome_trace_json(&drain(), &metrics_snapshot())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same inputs must export byte-identical JSON");
        assert!(is_valid_json(&a), "exported trace must be valid JSON: {a}");
        assert!(a.contains("\"ph\":\"B\""));
        assert!(a.contains("\"ph\":\"E\""));
        assert!(a.contains("\"ph\":\"i\""));
        assert!(a.contains("\"ph\":\"M\""));
        assert!(a.contains("\"ph\":\"C\""));
        assert!(a.contains("\"binding\":1"));
        assert!(a.contains("x.hist"));
    });
}

#[test]
fn summary_table_lists_threads_and_metrics() {
    with_clean_state(|| {
        enable();
        set_thread_label("summary");
        instant("test", "e", None, vec![]);
        counter("s.count").inc();
        histogram("s.hist").observe(10);
        let table = summary_table(&drain(), &metrics_snapshot());
        assert!(table.contains("summary"));
        assert!(table.contains("s.count"));
        assert!(table.contains("count=1 sum=10 mean=10.0"));
    });
}

#[test]
fn json_validator_accepts_and_rejects() {
    assert!(is_valid_json("{}"));
    assert!(is_valid_json("[1,2.5,-3e2,\"a\\n\",true,false,null,{\"k\":[]}]"));
    assert!(is_valid_json("  {\"a\": {\"b\": [1, 2]}}  "));
    assert!(!is_valid_json(""));
    assert!(!is_valid_json("{"));
    assert!(!is_valid_json("[1,]"));
    assert!(!is_valid_json("{\"a\":}"));
    assert!(!is_valid_json("{'a':1}"));
    assert!(!is_valid_json("01"));
    assert!(!is_valid_json("1 2"));
    assert!(!is_valid_json("\"unterminated"));
    assert!(!is_valid_json("nul"));
}

/// Exact nearest-rank percentile of a sorted sample set: sample
/// `ceil(q·n)` (1-based) — the convention [`quantile_from_buckets`]
/// estimates with bucket-bounded error.
fn exact_nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    sorted[target - 1]
}

/// The inclusive `[lo, hi]` range of the power-of-two bucket holding `v`.
fn bucket_of(v: u64) -> (u64, u64) {
    if v == 0 {
        return (0, 0);
    }
    let idx = (64 - v.leading_zeros() as usize).min(metrics::HIST_BUCKETS - 1);
    let hi = ((1u128 << idx) - 1).min(u64::MAX as u128) as u64;
    ((hi >> 1) + 1, hi)
}

#[test]
fn quantile_estimate_lands_in_the_exact_samples_bucket() {
    // The documented accuracy contract: the estimated quantile always lies
    // inside the bucket containing the exact nearest-rank sample, so its
    // error is bounded by the bucket width (a factor of two in value).
    // Exercised on adversarial shapes: point masses, bucket-boundary
    // straddles, uniform ramps, heavy tails reaching `u64::MAX`, and a
    // bimodal gap spanning many empty buckets.
    with_clean_state(|| {
        let heavy_tail: Vec<u64> = {
            let mut v = vec![1u64; 990];
            v.extend([u64::MAX; 10]);
            v
        };
        let cases: Vec<(&str, Vec<u64>)> = vec![
            ("single_zero", vec![0]),
            ("single_one", vec![1]),
            ("single_mid", vec![100]),
            ("point_mass", vec![777; 128]),
            ("boundaries", (0..16).flat_map(|k| [1u64 << k, (1u64 << k) - 1]).collect()),
            ("uniform_ramp", (1..=1000).collect()),
            ("heavy_tail", heavy_tail),
            ("bimodal_gap", [vec![2u64; 50], vec![1 << 40; 50]].concat()),
        ];
        for (name, samples) in &cases {
            let h = histogram(&format!("q.{name}"));
            for &v in samples {
                h.observe(v);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                let est = h.quantile(q).expect("non-empty histogram");
                let exact = exact_nearest_rank(&sorted, q);
                let (lo, hi) = bucket_of(exact);
                assert!(
                    est >= lo as f64 && est <= hi as f64,
                    "{name} q={q}: estimate {est} outside bucket [{lo}, {hi}] \
                     of exact nearest-rank sample {exact}"
                );
            }
        }
    });
}

#[test]
fn quantile_is_exact_on_degenerate_buckets() {
    // Buckets 0 and 1 are single-valued ([0,0] and [1,1]): interpolation
    // has no width to smear over, so the estimate is exact. A point mass of
    // zeros must report 0 at every quantile, not an upper-bound artifact.
    with_clean_state(|| {
        let zeros = histogram("q.exact_zeros");
        let ones = histogram("q.exact_ones");
        for _ in 0..10 {
            zeros.observe(0);
            ones.observe(1);
        }
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(zeros.quantile(q), Some(0.0));
            assert_eq!(ones.quantile(q), Some(1.0));
        }
    });
}

#[test]
fn quantile_is_monotone_and_clamped() {
    with_clean_state(|| {
        let h = histogram("q.monotone");
        for v in [0u64, 1, 5, 9, 100, 4096, 70_000, 1 << 33] {
            h.observe(v);
        }
        let qs = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 1.0];
        let ests: Vec<f64> = qs.iter().map(|&q| h.quantile(q).unwrap()).collect();
        for w in ests.windows(2) {
            assert!(w[0] <= w[1], "quantile must be monotone in q: {ests:?}");
        }
        // Out-of-range q clamps to the endpoints.
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
    });
}

#[test]
fn quantile_from_buckets_edge_cases() {
    // Empty distribution: no answer.
    assert_eq!(quantile_from_buckets(&[], 0, 0.5), None);
    assert_eq!(quantile_from_buckets(&[(7, 1)], 0, 0.5), None);
    // Rank arithmetic across omitted empty buckets: 5 zeros + 5 ones,
    // q=0.5 targets sample 5 (a zero), anything above targets the ones.
    let b = [(0u64, 5u64), (1, 5)];
    assert_eq!(quantile_from_buckets(&b, 10, 0.5), Some(0.0));
    assert_eq!(quantile_from_buckets(&b, 10, 0.51), Some(1.0));
    assert_eq!(quantile_from_buckets(&b, 10, 1.0), Some(1.0));
    // Torn snapshot (count exceeds bucket totals, concurrent observe):
    // falls back to the top bucket's bound rather than panicking.
    assert_eq!(quantile_from_buckets(&[(3, 1)], 5, 0.99), Some(3.0));
    // The top bucket saturates at u64::MAX without overflow.
    let top = [(u64::MAX, 4u64)];
    let est = quantile_from_buckets(&top, 4, 0.5).unwrap();
    assert!(est >= ((u64::MAX >> 1) + 1) as f64 && est <= u64::MAX as f64);
}

#[test]
fn reset_invalidates_old_rings() {
    with_clean_state(|| {
        enable();
        set_thread_label("gen");
        instant("test", "before", None, vec![]);
        reset();
        enable();
        instant("test", "after", None, vec![]);
        let threads = drain();
        let t = threads.iter().find(|t| t.label == "gen").unwrap();
        let names: Vec<&str> = t.events.iter().map(|e| e.name.as_ref()).collect();
        assert_eq!(names, vec!["after"], "reset must discard pre-reset events");
    });
}
