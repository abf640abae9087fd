use crate::*;
use std::time::Duration;

#[test]
fn link_transfer_time_is_alpha_beta() {
    let l = Link::new(0.001, 1000.0, 0.0005);
    // 1000 bytes at 1000 B/s = 1 s, plus 1.5 ms fixed.
    let t = l.transfer_seconds(1000);
    assert!((t - 1.0015).abs() < 1e-12, "got {t}");
}

#[test]
fn zero_byte_message_still_pays_latency() {
    let l = LinkPreset::AtmOc3.link();
    assert!(l.transfer_seconds(0) > 0.0);
    assert_eq!(l.transfer_time(0), Duration::from_secs_f64(l.latency_s + l.overhead_s));
}

#[test]
fn atm_is_faster_than_ethernet_for_bulk() {
    let atm = LinkPreset::AtmOc3.link();
    let eth = LinkPreset::Ethernet10.link();
    let n = 1 << 20;
    assert!(atm.transfer_seconds(n) < eth.transfer_seconds(n));
}

#[test]
fn loopback_is_fastest() {
    let lo = LinkPreset::Loopback.link();
    for preset in [LinkPreset::AtmOc3, LinkPreset::Ethernet10, LinkPreset::Ethernet100] {
        assert!(lo.transfer_seconds(4096) < preset.link().transfer_seconds(4096));
    }
}

#[test]
fn effective_throughput_approaches_bandwidth() {
    let l = LinkPreset::Ethernet100.link();
    let small = l.effective_throughput(64);
    let large = l.effective_throughput(64 << 20);
    assert!(small < large);
    assert!(large <= l.bandwidth_bps);
    assert!(large > 0.95 * l.bandwidth_bps);
}

#[test]
fn n_half_reaches_half_bandwidth() {
    let l = LinkPreset::AtmOc3.link();
    let n = l.n_half();
    let tp = l.effective_throughput(n);
    assert!((tp - l.bandwidth_bps / 2.0).abs() / l.bandwidth_bps < 0.01, "tp {tp}");
}

#[test]
#[should_panic(expected = "bandwidth must be finite and positive")]
fn zero_bandwidth_rejected() {
    let _ = Link::new(0.0, 0.0, 0.0);
}

#[test]
#[should_panic(expected = "latency must be finite and non-negative")]
fn negative_latency_rejected() {
    let _ = Link::new(-1.0, 1.0, 0.0);
}

#[test]
fn network_registration_and_lookup() {
    let net = Network::new(TimeScale::off());
    let a = net.add_host("alpha");
    let b = net.add_host("beta");
    assert_ne!(a, b);
    assert_eq!(net.host_by_name("alpha"), Some(a));
    assert_eq!(net.host_by_name("gamma"), None);
    assert_eq!(net.host(a).name, "alpha");
    assert_eq!(net.host_count(), 2);
}

#[test]
#[should_panic(expected = "already registered")]
fn duplicate_host_rejected() {
    let net = Network::new(TimeScale::off());
    net.add_host("x");
    net.add_host("x");
}

#[test]
fn intra_host_uses_loopback() {
    let net = Network::new(TimeScale::off());
    let a = net.add_host("a");
    assert_eq!(net.link_between(a, a), LinkPreset::Loopback.link());
}

#[test]
fn explicit_link_is_symmetric() {
    let net = Network::new(TimeScale::off());
    let a = net.add_host("a");
    let b = net.add_host("b");
    let l = LinkPreset::AtmOc3.link();
    net.connect(a, b, l);
    assert_eq!(net.link_between(a, b), l);
    assert_eq!(net.link_between(b, a), l);
}

#[test]
fn unconnected_pair_uses_default_link() {
    let net = Network::new(TimeScale::off());
    let a = net.add_host("a");
    let b = net.add_host("b");
    assert_eq!(net.link_between(a, b), LinkPreset::Ethernet10.link());
    net.set_default_link(Link::free());
    assert_eq!(net.link_between(a, b), Link::free());
}

#[test]
fn blocking_sends_sum_on_the_virtual_clock() {
    let net = Network::new(TimeScale::off()).blocking();
    let a = net.add_host("a");
    let b = net.add_host("b");
    net.connect(a, b, Link::new(0.5, 1.0e6, 0.0));
    net.transmit(a, b, 1_000_000, || {}); // 0.5 + 1.0 = 1.5 s modelled
    net.transmit(a, b, 0, || {}); // +0.5 s, departing at the first's arrival
    let now = net.clock().now();
    assert!((now - 2.0).abs() < 1e-9, "clock {now}");
}

#[test]
fn blocking_send_sleeps_scaled_queueing_plus_transfer() {
    let net = Network::new(TimeScale::new(0.01));
    let hosts: Vec<_> = ["a", "b", "c", "d"].iter().map(|n| net.add_host(n)).collect();
    let (a, b, c, d) = (hosts[0], hosts[1], hosts[2], hosts[3]);
    let link = Link::new(1.0, 1.0e9, 0.0).shared_medium(); // 1 s modelled latency
    net.connect(a, b, link);
    net.connect(c, d, link);
    // An overlapping sender takes the segment for [0, 1].
    net.transmit(c, d, 0, || {});
    // A blocking sender on the same segment departs at 1 and arrives at 2:
    // from its base of 0 it sleeps 0.01 × 2 s, queueing included.
    let blocking = net.clone().blocking();
    let start = std::time::Instant::now();
    assert_eq!(blocking.transmit(a, b, 0, || {}), Verdict::Delivered);
    let waited = start.elapsed();
    assert!(waited >= Duration::from_millis(19), "waited {waited:?}");
    assert!(waited < Duration::from_millis(500), "waited {waited:?}");
    assert!((net.makespan() - 2.0).abs() < 1e-12);
    net.quiesce();
}

/// Four blocking senders on four hosts, started together: on one shared
/// segment they serialise (the last waits for all four transfers), on
/// dedicated links each owns its wire and they overlap.
#[test]
fn blocking_senders_serialise_on_a_shared_segment() {
    let run = |shared: bool| {
        let net = Network::new(TimeScale::new(1.0)).blocking();
        let server = net.add_host("server");
        let link = Link::new(0.02, 1.0e9, 0.0);
        let link = if shared { link.shared_medium() } else { link };
        let clients: Vec<_> = (0..4)
            .map(|i| {
                let h = net.add_host(&format!("c{i}"));
                net.connect(h, server, link);
                h
            })
            .collect();
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for &c in &clients {
                let net = net.clone();
                s.spawn(move || net.transmit(c, server, 0, || {}));
            }
        });
        (start.elapsed(), net.makespan())
    };
    let (waited, makespan) = run(true);
    assert!((makespan - 0.08).abs() < 1e-12, "segment makespan {makespan}");
    assert!(waited >= Duration::from_millis(75), "shared wire overlapped: {waited:?}");
    let (waited, makespan) = run(false);
    assert!((makespan - 0.02).abs() < 1e-12, "dedicated makespan {makespan}");
    assert!(waited < Duration::from_millis(60), "dedicated wire serialised: {waited:?}");
}

#[test]
fn paper_testbeds_have_expected_shape() {
    let atm = Network::paper_atm_testbed(TimeScale::off());
    let h1 = atm.host_by_name("HOST_1").unwrap();
    let h2 = atm.host_by_name("HOST_2").unwrap();
    assert!(atm.host_speed(h2) > atm.host_speed(h1), "HOST_2 is the faster machine");
    assert_eq!(atm.link_between(h1, h2), LinkPreset::AtmOc3.link());

    let eth = Network::paper_ethernet_testbed(TimeScale::off());
    assert_eq!(eth.host_count(), 3);
    let pc = eth.host_by_name("SGI_PC").unwrap();
    let sp2 = eth.host_by_name("SP2").unwrap();
    assert_eq!(eth.link_between(pc, sp2), LinkPreset::Ethernet10.link());
}

#[test]
fn virtual_clock_advance_to_is_monotone() {
    let c = VirtualClock::new();
    assert_eq!(c.advance_to(2.0), 2.0);
    assert_eq!(c.advance_to(1.0), 2.0); // never goes backwards
    assert_eq!(c.advance_to(3.5), 3.5);
    c.reset();
    assert_eq!(c.now(), 0.0);
}

#[test]
fn time_scale_shared_between_clones() {
    let s = TimeScale::new(1.0);
    let s2 = s.clone();
    s2.set(0.25);
    assert_eq!(s.get(), 0.25);
    assert_eq!(s.apply(Duration::from_secs(4)), Duration::from_secs(1));
}

#[test]
#[should_panic(expected = "time scale must be finite")]
fn nan_time_scale_rejected() {
    let _ = TimeScale::new(f64::NAN);
}

#[test]
fn transmit_without_plan_is_lossless_and_free() {
    let net = Network::new(TimeScale::off()).blocking();
    let a = net.add_host("a");
    let b = net.add_host("b");
    net.connect(a, b, Link::new(0.5, 1.0e6, 0.0));
    for _ in 0..100 {
        assert_eq!(net.transmit(a, b, 1000, || {}), Verdict::Delivered);
    }
    // No plan installed: the fault layer records nothing at all, and the
    // blocking sender's clock is the sum of its transfers.
    assert_eq!(net.fault_stats(), FaultStats::default());
    let expected = 100.0 * (0.5 + 1000.0 / 1.0e6);
    assert!((net.clock().now() - expected).abs() < 1e-9);
}

#[test]
fn drop_rate_tracks_probability() {
    let net = Network::new(TimeScale::off());
    let a = net.add_host("a");
    let b = net.add_host("b");
    net.connect(a, b, Link::free());
    net.set_fault_plan(Some(FaultPlan::new(42).with_drop(0.2)));
    let n = 10_000;
    let mut dropped = 0;
    for _ in 0..n {
        if net.transmit(a, b, 64, || {}) == Verdict::Dropped {
            dropped += 1;
        }
    }
    let rate = dropped as f64 / n as f64;
    assert!((0.15..=0.25).contains(&rate), "drop rate {rate}");
    assert_eq!(net.fault_stats().dropped, dropped as u64);
}

#[test]
fn fault_schedule_is_deterministic() {
    let run = || {
        let net = Network::new(TimeScale::off());
        let a = net.add_host("a");
        let b = net.add_host("b");
        net.connect(a, b, Link::free());
        net.set_fault_plan(Some(FaultPlan::new(7).with_drop(0.3).with_dup(0.1)));
        let verdicts: Vec<Verdict> =
            (0..500).map(|i| net.transmit(a, b, 64 + (i % 7), || {})).collect();
        (verdicts, net.fault_stats())
    };
    let (v1, s1) = run();
    let (v2, s2) = run();
    assert_eq!(v1, v2);
    assert_eq!(s1, s2);
    assert!(s1.dropped > 0 && s1.duplicated > 0, "stats {s1:?}");
}

#[test]
fn reinstalling_a_plan_restarts_its_schedule() {
    let net = Network::new(TimeScale::off());
    let a = net.add_host("a");
    let b = net.add_host("b");
    net.connect(a, b, Link::free());
    let plan = FaultPlan::new(3).with_drop(0.5);
    net.set_fault_plan(Some(plan.clone()));
    let first: Vec<Verdict> = (0..100).map(|_| net.transmit(a, b, 8, || {})).collect();
    net.set_fault_plan(Some(plan));
    let second: Vec<Verdict> = (0..100).map(|_| net.transmit(a, b, 8, || {})).collect();
    assert_eq!(first, second);
}

#[test]
fn burst_extends_every_drop() {
    let net = Network::new(TimeScale::off());
    let a = net.add_host("a");
    let b = net.add_host("b");
    net.connect(a, b, Link::free());
    net.set_fault_plan(Some(FaultPlan::new(11).with_drop(0.05).with_burst(3)));
    let verdicts: Vec<Verdict> = (0..2000).map(|_| net.transmit(a, b, 8, || {})).collect();
    // Every drop is followed by at least 3 more: drops come in runs of >= 4.
    let mut i = 0;
    while i < verdicts.len() {
        if verdicts[i] == Verdict::Dropped {
            let run = verdicts[i..].iter().take_while(|v| **v == Verdict::Dropped).count();
            assert!(run >= 4 || i + run == verdicts.len(), "short drop run {run} at {i}");
            i += run;
        } else {
            i += 1;
        }
    }
    assert!(net.fault_stats().dropped >= 4, "burst never triggered");
}

#[test]
fn link_down_window_drops_everything_inside_it() {
    let net = Network::new(TimeScale::off()).blocking();
    let a = net.add_host("a");
    let b = net.add_host("b");
    // 1 s per frame and a blocking sender, so frame k completes at virtual
    // second k+1.
    net.connect(a, b, Link::new(1.0, 1.0e9, 0.0));
    net.set_fault_plan(Some(FaultPlan::new(0).with_down_window(2.5, 5.5)));
    let verdicts: Vec<Verdict> = (0..8).map(|_| net.transmit(a, b, 0, || {})).collect();
    // Completion times 1..=8; those in [2.5, 5.5) — seconds 3, 4, 5 — die.
    let expected: Vec<Verdict> =
        (1..=8)
            .map(|s| {
                if (2.5..5.5).contains(&(s as f64)) {
                    Verdict::Dropped
                } else {
                    Verdict::Delivered
                }
            })
            .collect();
    assert_eq!(verdicts, expected);
}

#[test]
fn duplication_charges_and_counts_twice() {
    let net = Network::new(TimeScale::off()).blocking();
    let a = net.add_host("a");
    let b = net.add_host("b");
    net.connect(a, b, Link::new(1.0, 1.0e9, 0.0).shared_medium());
    net.set_fault_plan(Some(FaultPlan::new(0).with_dup(1.0)));
    let copies = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let c = copies.clone();
    let verdict = net.transmit(a, b, 0, move || {
        c.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    });
    assert_eq!(verdict, Verdict::Duplicated);
    assert_eq!(copies.load(std::sync::atomic::Ordering::SeqCst), 2);
    assert_eq!(net.fault_stats().duplicated, 1);
    // Both copies traversed the one segment: two latencies on the clock.
    assert!((net.clock().now() - 2.0).abs() < 1e-9);
}

#[test]
fn fault_stats_break_down_loss_causes() {
    let net = Network::new(TimeScale::off()).blocking();
    let a = net.add_host("a");
    let b = net.add_host("b");
    // 1 s per frame and a blocking sender, so frame k completes at virtual
    // second k+1.
    net.connect(a, b, Link::new(1.0, 1.0e9, 0.0));
    // Down for seconds [2.5, 4.5): frames completing at 3 and 4 die there.
    net.set_fault_plan(Some(
        FaultPlan::new(5).with_drop(0.3).with_burst(2).with_down_window(2.5, 4.5),
    ));
    for _ in 0..500 {
        net.transmit(a, b, 0, || {});
    }
    let s = net.fault_stats();
    assert_eq!(s.down_dropped, 2, "stats {s:?}");
    assert!(s.burst_dropped > 0, "burst tail never hit: {s:?}");
    assert!(s.random_dropped() > 0, "no random drops: {s:?}");
    assert_eq!(s.dropped, s.random_dropped() + s.burst_dropped + s.down_dropped);
    assert_eq!(s.delivered + s.dropped + s.duplicated, 500);
}

#[test]
fn per_link_stats_snapshot_is_directed_and_sorted() {
    let net = Network::new(TimeScale::off());
    let a = net.add_host("a");
    let b = net.add_host("b");
    let c = net.add_host("c");
    net.set_default_link(Link::free());
    net.set_fault_plan(Some(FaultPlan::new(9).with_drop(0.5)));
    for _ in 0..200 {
        net.transmit(a, b, 8, || {});
        net.transmit(b, a, 8, || {});
    }
    net.transmit(a, c, 8, || {});
    let per_link = net.per_link_fault_stats();
    let keys: Vec<_> = per_link.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, vec![(a, b), (a, c), (b, a)], "sorted directed keys");
    // Directed totals add up to the network-wide counters.
    let total: u64 = per_link.iter().map(|(_, s)| s.delivered + s.dropped + s.duplicated).sum();
    assert_eq!(total, 401);
    let ab = net.link_fault_stats(a, b);
    assert_eq!(ab.delivered + ab.dropped + ab.duplicated, 200);
    // An untouched direction reports zeros.
    assert_eq!(net.link_fault_stats(c, a), FaultStats::default());
    // Resetting zeroes per-link counters too.
    net.reset_fault_stats();
    assert_eq!(net.link_fault_stats(a, b), FaultStats::default());
    assert_eq!(net.fault_stats(), FaultStats::default());
}

#[test]
fn per_link_override_and_loopback_exemption() {
    let net = Network::new(TimeScale::off());
    let a = net.add_host("a");
    let b = net.add_host("b");
    let c = net.add_host("c");
    net.set_default_link(Link::free());
    net.set_fault_plan(Some(FaultPlan::new(1).with_drop(1.0)));
    // Exempt a<->b explicitly; a<->c stays under the global plan; loopback
    // is exempt by construction.
    net.set_link_fault_plan(a, b, None);
    for _ in 0..50 {
        assert_eq!(net.transmit(a, b, 8, || {}), Verdict::Delivered);
        assert_eq!(net.transmit(b, a, 8, || {}), Verdict::Delivered);
        assert_eq!(net.transmit(a, a, 8, || {}), Verdict::Delivered);
        assert_eq!(net.transmit(a, c, 8, || {}), Verdict::Dropped);
    }
    // Clearing the global plan turns the layer off for a<->c too.
    net.set_fault_plan(None);
    net.set_link_fault_plan(a, b, None);
    assert_eq!(net.transmit(a, c, 8, || {}), Verdict::Delivered);
}

#[test]
fn fault_plan_encoding_round_trips() {
    let plan = FaultPlan::new(0xDEAD_BEEF)
        .with_drop(0.2)
        .with_dup(0.05)
        .with_burst(4)
        .with_down_window(1.0, 2.5)
        .with_down_window(10.0, 11.0);
    let decoded = FaultPlan::decode(&plan.encode()).unwrap();
    assert_eq!(plan, decoded);
}

#[test]
fn fault_plan_decode_rejects_garbage() {
    assert!(FaultPlan::decode(b"").is_err());
    assert!(FaultPlan::decode(b"NOPE").is_err());
    let mut enc = FaultPlan::new(1).with_drop(0.5).encode();
    enc[4] = 99; // bad version
    assert!(FaultPlan::decode(&enc).is_err());
    let mut enc = FaultPlan::new(1).encode();
    enc.push(0); // trailing byte
    assert!(FaultPlan::decode(&enc).is_err());
    let enc = FaultPlan::new(1).with_drop(0.5).encode();
    assert!(FaultPlan::decode(&enc[..enc.len() - 1]).is_err());
}

mod property {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn transfer_time_monotone_in_size(
            lat in 0.0f64..0.1,
            bw in 1.0f64..1e9,
            ovh in 0.0f64..0.1,
            a in 0usize..1_000_000,
            b in 0usize..1_000_000,
        ) {
            let l = Link::new(lat, bw, ovh);
            let (small, big) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(l.transfer_seconds(small) <= l.transfer_seconds(big));
        }

        #[test]
        fn transfer_time_superadditive_split(
            bw in 1.0f64..1e9,
            lat in 1e-9f64..0.1,
            n in 2usize..1_000_000,
        ) {
            // Splitting a message into two never beats sending it whole
            // (each piece re-pays latency).
            let l = Link::new(lat, bw, 0.0);
            let whole = l.transfer_seconds(n);
            let half = l.transfer_seconds(n / 2) + l.transfer_seconds(n - n / 2);
            prop_assert!(half >= whole - 1e-12);
        }

        #[test]
        fn fault_plan_round_trips(
            seed in any::<u64>(),
            drop_p in 0.0f64..=1.0,
            dup_p in 0.0f64..=1.0,
            burst in 0u32..100,
            windows in proptest::collection::vec((0.0f64..1e6, 1e-6f64..1e3), 0..8),
        ) {
            let mut plan = FaultPlan::new(seed)
                .with_drop(drop_p)
                .with_dup(dup_p)
                .with_burst(burst);
            for (start, len) in windows {
                plan = plan.with_down_window(start, start + len);
            }
            let decoded = FaultPlan::decode(&plan.encode()).unwrap();
            prop_assert_eq!(plan, decoded);
        }

        #[test]
        fn fault_plan_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = FaultPlan::decode(&data);
        }

        #[test]
        fn blocking_clock_sums_serial_transfers(
            sizes in proptest::collection::vec(0usize..100_000, 0..50),
        ) {
            let net = Network::new(TimeScale::off()).blocking();
            let a = net.add_host("a");
            let b = net.add_host("b");
            let link = Link::new(0.001, 1.0e6, 0.0001);
            net.connect(a, b, link);
            let mut total = 0.0;
            for &n in &sizes {
                net.transmit(a, b, n, || {});
                total += link.transfer_seconds(n);
            }
            prop_assert!((net.clock().now() - total).abs() < 1e-9);
        }
    }
}

mod engine {
    use crate::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Constructors build overlapping senders; `blocking()` makes the
    /// sender wait, and nothing else changes.
    #[test]
    fn constructors_overlap_and_blocking_waits() {
        let two_sends = |net: Network| {
            let h1 = net.host_by_name("HOST_1").unwrap();
            let h2 = net.host_by_name("HOST_2").unwrap();
            net.transmit(h1, h2, 64, || {});
            net.transmit(h1, h2, 64, || {});
            net.makespan()
        };
        let t = LinkPreset::AtmOc3.link().transfer_seconds(64);
        let overlapped = two_sends(Network::paper_atm_testbed(TimeScale::off()));
        assert!(overlapped < 1.5 * t, "second send overlapped the first: {overlapped}");
        let blocking = two_sends(Network::paper_atm_testbed(TimeScale::off()).blocking());
        assert_eq!(blocking, 2.0 * t, "second send departs at the first's arrival");
    }

    #[test]
    fn published_readers_see_latest_store() {
        let p = Published::new(1u64);
        assert_eq!(*p.read(), 1);
        let held = p.read();
        p.store(2);
        assert_eq!(*p.read(), 2);
        // A reader that loaded before the swap keeps its snapshot.
        assert_eq!(*held, 1);
        assert_eq!(p.generations(), 2);
    }

    fn engine_pair(link: Link) -> (Network, HostId, HostId) {
        let net = Network::new(TimeScale::off());
        let a = net.add_host("A");
        let b = net.add_host("B");
        net.connect(a, b, link);
        (net, a, b)
    }

    #[test]
    fn dedicated_link_pipelines_latency() {
        let link = LinkPreset::AtmOc3.link();
        let (net, a, b) = engine_pair(link);
        // Small frames: latency dominates, so pipelining it matters.
        let bytes = 64;
        let k = 8;
        for _ in 0..k {
            net.transmit(a, b, bytes, || {});
        }
        net.quiesce();
        let t = link.transfer_seconds(bytes);
        let step = link.overhead_s + bytes as f64 / link.bandwidth_bps;
        let sum = k as f64 * t;
        let expected = (k - 1) as f64 * step + t;
        let makespan = net.makespan();
        assert!((makespan - expected).abs() < 1e-9, "makespan {makespan}, expected {expected}");
        // The wire's latency share overlaps across back-to-back frames —
        // only software overhead + byte serialisation stay serial.
        assert!(makespan < 0.55 * sum, "makespan {makespan} vs serial {sum}");
    }

    #[test]
    fn shared_medium_serialises_in_queue_order() {
        let link = LinkPreset::Ethernet10.link();
        assert!(link.shared);
        let (net, a, b) = engine_pair(link);
        let bytes = 100_000;
        let k = 5;
        for _ in 0..k {
            net.transmit(a, b, bytes, || {});
        }
        net.quiesce();
        let sum = k as f64 * link.transfer_seconds(bytes);
        assert!((net.makespan() - sum).abs() < 1e-9, "shared medium must serialise");
    }

    #[test]
    fn shared_segment_serialises_across_host_pairs() {
        // Two disjoint host pairs on the same 10 Mb/s Ethernet: there is one
        // cable, so their transfers serialise even though the pairs never
        // exchange a frame.
        let link = LinkPreset::Ethernet10.link();
        let bytes = 100_000;
        let k = 4;
        let shared = Network::new(TimeScale::off());
        let hosts: Vec<_> = ["A", "B", "C", "D"].iter().map(|n| shared.add_host(n)).collect();
        shared.connect(hosts[0], hosts[1], link);
        shared.connect(hosts[2], hosts[3], link);
        for _ in 0..k {
            shared.transmit(hosts[0], hosts[1], bytes, || {});
            shared.transmit(hosts[2], hosts[3], bytes, || {});
        }
        shared.quiesce();
        let sum = 2.0 * k as f64 * link.transfer_seconds(bytes);
        assert!(
            (shared.makespan() - sum).abs() < 1e-9,
            "one segment must serialise both pairs: {} vs {sum}",
            shared.makespan()
        );
        let u = shared.shared_segment_usage().expect("segment carried traffic");
        assert_eq!(u.frames, 2 * k as u64);

        // The same pairs on dedicated point-to-point links of identical
        // speed overlap: each pair owns its wire.
        let p2p = Link::new(link.latency_s, link.bandwidth_bps, link.overhead_s);
        let ded = Network::new(TimeScale::off());
        let dh: Vec<_> = ["A", "B", "C", "D"].iter().map(|n| ded.add_host(n)).collect();
        ded.connect(dh[0], dh[1], p2p);
        ded.connect(dh[2], dh[3], p2p);
        for _ in 0..k {
            ded.transmit(dh[0], dh[1], bytes, || {});
            ded.transmit(dh[2], dh[3], bytes, || {});
        }
        ded.quiesce();
        assert!(
            ded.makespan() < 0.6 * sum,
            "dedicated pairs must overlap: {} vs serial {sum}",
            ded.makespan()
        );
        assert!(ded.shared_segment_usage().is_none());
        assert_eq!(ded.per_link_usage().len(), 2);
    }

    #[test]
    fn reply_cannot_depart_before_request_arrives() {
        let link = LinkPreset::AtmOc3.link();
        let (net, a, b) = engine_pair(link);
        let t = link.transfer_seconds(4096);
        net.transmit(a, b, 4096, || {});
        // The reply is enqueued after the request's arrival advanced the
        // clock, so its own lane timeline starts there.
        net.transmit(b, a, 4096, || {});
        net.quiesce();
        assert!(net.makespan() >= 2.0 * t - 1e-12, "makespan {}", net.makespan());
    }

    #[test]
    fn release_runs_once_per_arriving_copy_inline() {
        let (net, a, b) = engine_pair(LinkPreset::AtmOc3.link());
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        let verdict = net.transmit(a, b, 64, move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(verdict, Verdict::Delivered);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn blocking_fault_schedule_matches_engine_schedule() {
        let plan = FaultPlan::new(17).with_drop(0.3).with_dup(0.2).with_burst(1);
        let link = LinkPreset::AtmOc3.link();
        let run = |blocking: bool| {
            let (net, a, b) = engine_pair(link);
            let net = if blocking { net.blocking() } else { net };
            net.set_fault_plan(Some(plan.clone()));
            let verdicts: Vec<_> = (0..200).map(|_| net.transmit(a, b, 512, || {})).collect();
            net.quiesce();
            (verdicts, net.fault_stats(), net.link_fault_stats(a, b))
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn dropped_and_duplicated_frames_occupy_the_wire() {
        let link = LinkPreset::Ethernet10.link();
        let (net, a, b) = engine_pair(link);
        net.set_fault_plan(Some(FaultPlan::new(3).with_drop(0.5).with_dup(0.3)));
        let hits = Arc::new(AtomicUsize::new(0));
        let mut copies = 0u64;
        let mut frames = 0u64;
        for _ in 0..100 {
            let h = hits.clone();
            let verdict = net.transmit(a, b, 1000, move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
            frames += 1;
            match verdict {
                Verdict::Delivered => copies += 1,
                Verdict::Duplicated => {
                    copies += 2;
                    frames += 1; // second copy reserves its own slot
                }
                Verdict::Dropped => {}
            }
        }
        net.quiesce();
        assert_eq!(hits.load(Ordering::SeqCst) as u64, copies);
        // Shared-medium traffic lands on the segment timeline, not a
        // per-pair lane.
        assert!(net.per_link_usage().is_empty());
        let u = net.shared_segment_usage().expect("segment carried traffic");
        assert_eq!(u.frames, frames, "every copy, dropped or not, holds a slot");
        // Shared medium: total busy time equals the serialised timeline.
        let t = link.transfer_seconds(1000);
        assert!((u.busy_s - frames as f64 * t).abs() < 1e-9);
        assert!((net.makespan() - u.busy_until_s).abs() < 1e-12);
    }

    #[test]
    fn per_link_usage_reports_overlap_as_concurrency() {
        let link = LinkPreset::AtmOc3.link();
        let (net, a, b) = engine_pair(link);
        for _ in 0..16 {
            net.transmit(a, b, 64, || {});
        }
        net.quiesce();
        let usage = net.per_link_usage();
        let (_, u) = usage[0];
        // 16 latency-overlapped transfers: occupancy above the timeline span.
        let util = u.utilization(net.makespan());
        assert!(util > 2.0, "utilization {util}");
    }

    #[test]
    fn blocking_transmit_releases_inline_and_sums_the_clock() {
        let link = LinkPreset::AtmOc3.link();
        let net = Network::new(TimeScale::new(0.01)).blocking();
        let a = net.add_host("A");
        let b = net.add_host("B");
        net.connect(a, b, link);
        let hits = Arc::new(AtomicUsize::new(0));
        let k = 4;
        for i in 0..k {
            let h = hits.clone();
            net.transmit(a, b, 1 << 20, move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
            // Released on the sender's thread before it returned, even
            // though real time is injected.
            assert_eq!(hits.load(Ordering::SeqCst), i + 1);
        }
        // Each send departs at the previous one's arrival: the clock is the
        // sum of the transfers.
        let sum = k as f64 * link.transfer_seconds(1 << 20);
        assert!((net.clock().now() - sum).abs() < 1e-9);
        // The lane still saw every frame.
        assert_eq!(net.per_link_usage()[0].1.frames, k as u64);
    }

    #[test]
    fn topology_mutation_does_not_invalidate_lane_state() {
        let (net, a, b) = engine_pair(LinkPreset::AtmOc3.link());
        net.transmit(a, b, 1024, || {});
        let before = net.per_link_usage()[0].1.frames;
        // Registering another host republishes the topology snapshot...
        let c = net.add_host("C");
        net.transmit(a, b, 1024, || {});
        net.transmit(a, c, 1024, || {});
        net.quiesce();
        // ...but the (a, b) lane keeps its counters across generations.
        let usage = net.per_link_usage();
        let ab = usage.iter().find(|(k, _)| *k == (a, b)).expect("lane survived").1;
        assert_eq!(ab.frames, before + 1);
        // The unconnected (a, c) pair fell back to the default link — shared
        // Ethernet — so its frame is on the segment, not a dedicated lane.
        assert_eq!(usage.len(), 1);
        assert_eq!(net.shared_segment_usage().expect("default link is shared").frames, 1);
    }
}

#[test]
fn id_hasher_is_one_seeded_function_per_process_that_separates_ids() {
    use crate::{IdBuild, IdMap};
    use std::hash::BuildHasher;
    // One seed per process: every table hashes a key the same way.
    let (a, b) = (IdBuild::default(), IdBuild::default());
    assert_eq!(a.hash_one((3u64, 4u64)), b.hash_one((3u64, 4u64)));
    // Small, dense ids and their swapped pairs all land apart.
    let mut seen = std::collections::HashSet::new();
    for x in 0..64u64 {
        for y in 0..64u64 {
            assert!(seen.insert(a.hash_one((x, y))), "({x}, {y}) collides");
        }
    }
    // No difference in one word is cancelled by a difference in the next:
    // flipping any bit of the first word and any bit of the second still
    // changes the hash (so a peer that picks both words cannot pair keys
    // up without the seed).
    for (x, y) in [(0u64, 0u64), (7, 1 << 40), (u64::MAX, 12345)] {
        let base = a.hash_one((x, y));
        for i in 0..64 {
            for j in 0..64 {
                let flipped = (x ^ (1 << i), y ^ (1 << j));
                assert_ne!(a.hash_one(flipped), base, "bits {i}, {j} of ({x}, {y}) cancel");
            }
        }
    }
    let mut map: IdMap<(u32, u32), u32> = IdMap::default();
    for i in 0..1000 {
        map.insert((i, i + 1), i);
    }
    assert!((0..1000).all(|i| map[&(i, i + 1)] == i));
}
