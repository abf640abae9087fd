use crate::*;
use bytes::Bytes;
use std::time::Duration;

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

#[test]
fn send_recv_between_two_ranks() {
    let out = World::run(2, |rank| {
        if rank.rank() == 0 {
            rank.send(1, 7, b("hello"));
            String::new()
        } else {
            let msg = rank.recv(Some(0), 7);
            assert_eq!(msg.from, 0);
            String::from_utf8(msg.data.to_vec()).unwrap()
        }
    });
    assert_eq!(out[1], "hello");
}

#[test]
fn recv_matches_by_tag_out_of_order() {
    World::run(2, |rank| {
        if rank.rank() == 0 {
            rank.send(1, 1, b("first"));
            rank.send(1, 2, b("second"));
        } else {
            // Receive tag 2 first even though tag 1 arrived earlier.
            let m2 = rank.recv(Some(0), 2);
            assert_eq!(&m2.data[..], b"second");
            let m1 = rank.recv(Some(0), 1);
            assert_eq!(&m1.data[..], b"first");
        }
    });
}

#[test]
fn recv_any_source() {
    World::run(3, |rank| {
        if rank.rank() == 0 {
            let m1 = rank.recv(None, 5);
            let m2 = rank.recv(None, 5);
            let mut froms = vec![m1.from, m2.from];
            froms.sort_unstable();
            assert_eq!(froms, vec![1, 2]);
        } else {
            rank.send(0, 5, b("x"));
        }
    });
}

#[test]
fn try_recv_and_probe() {
    World::run(2, |rank| {
        if rank.rank() == 0 {
            assert!(rank.try_recv(None, 9).is_none());
            assert!(!rank.probe(None, 9));
            rank.barrier();
            rank.barrier();
            assert!(rank.probe(Some(1), 9));
            assert_eq!(rank.pending(), 1);
            assert!(rank.try_recv(None, 9).is_some());
            assert_eq!(rank.pending(), 0);
        } else {
            rank.barrier();
            rank.send(0, 9, b("m"));
            rank.barrier();
        }
    });
}

#[test]
fn recv_timeout_expires() {
    World::run(1, |rank| {
        let start = std::time::Instant::now();
        assert!(rank.recv_timeout(None, 1, Duration::from_millis(30)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(25));
    });
}

#[test]
fn barrier_synchronises() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let before = AtomicUsize::new(0);
    World::run(4, |rank| {
        before.fetch_add(1, Ordering::SeqCst);
        rank.barrier();
        // After the barrier every rank must observe all 4 increments.
        assert_eq!(before.load(Ordering::SeqCst), 4);
    });
}

#[test]
fn repeated_barriers_do_not_deadlock() {
    World::run(3, |rank| {
        for _ in 0..100 {
            rank.barrier();
        }
    });
}

/// `World::run` over `size` ranks with rank 1 panicking while the others
/// block in `wait`, on a watchdog thread: its panic message, or `None` when
/// it has not panicked within 10 s.
fn run_with_a_failing_rank(size: usize, wait: fn(&Rank)) -> Option<String> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(|| {
            World::run(size, |rank| {
                if rank.rank() == 1 {
                    // Most likely the others are parked by now; if not,
                    // they enter the wait after the panic, which must fail
                    // them just the same.
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("rank 1 fails");
                }
                wait(&rank);
            })
        });
        let msg = outcome.err().map(|p| match p.downcast::<String>() {
            Ok(msg) => *msg,
            Err(p) => p.downcast_ref::<&str>().unwrap_or(&"").to_string(),
        });
        let _ = tx.send(msg);
    });
    rx.recv_timeout(Duration::from_secs(10)).ok().flatten()
}

#[test]
fn a_panicking_rank_fails_its_world_instead_of_hanging_it() {
    fn in_barrier(rank: &Rank) {
        rank.barrier();
    }
    fn in_recv(rank: &Rank) {
        rank.recv(Some(1), 7);
    }
    for (what, wait) in [("barrier", in_barrier as fn(&Rank)), ("recv", in_recv)] {
        let msg = run_with_a_failing_rank(3, wait)
            .unwrap_or_else(|| panic!("World::run hung with its peers in {what}"));
        assert!(
            msg.contains("rank 1: rank 1 fails"),
            "{what}: run re-raises rank 1's panic: {msg}"
        );
    }
}

/// Window waits fail with the world too: on a networked two-rank world,
/// rank 0 parked for a put notification, or for rank 1's turn of a
/// collective round, panics when rank 1 does, and `run` re-raises rank 1's
/// panic.
#[test]
fn a_panicking_rank_fails_window_waits_instead_of_hanging_them() {
    fn networked(rank: &Rank) -> &crate::Windows {
        let net = pardis_netsim::Network::new(pardis_netsim::TimeScale::off());
        let hosts = vec![net.add_host("h0"), net.add_host("h1")];
        let windows = rank.windows();
        windows.shared().attach(net, hosts);
        windows
    }
    fn in_wait_notify(rank: &Rank) {
        networked(rank).wait_notify(5);
    }
    fn in_turn(rank: &Rank) {
        let windows = networked(rank);
        // Rank 1 issues first; rank 0 waits for its pass.
        windows.in_turn(windows.collective_window_base(), || ());
    }
    for (what, wait) in [("wait_notify", in_wait_notify as fn(&Rank)), ("in_turn", in_turn)] {
        let msg = run_with_a_failing_rank(2, wait)
            .unwrap_or_else(|| panic!("World::run hung with rank 0 in {what}"));
        assert!(
            msg.contains("rank 1: rank 1 fails"),
            "{what}: run re-raises rank 1's panic: {msg}"
        );
    }
}

/// A barrier is unpriced, so it carries time only between ranks on one
/// host: on a networked world with ranks 0 and 1 on one host and rank 2 on
/// another, rank 0's charge raises rank 1 and leaves rank 2 alone.
#[test]
fn a_barrier_carries_no_time_between_hosts() {
    use pardis_netsim::{Network, TimeScale};
    let net = Network::new(TimeScale::off());
    let (h0, h1) = (net.add_host("h0"), net.add_host("h1"));
    let (world, ranks) = World::new(3);
    world.attach_network(net.clone(), vec![h0, h0, h1]);
    let hosts = [h0, h0, h1];
    let after: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranks
            .into_iter()
            .map(|rank| {
                let net = &net;
                scope.spawn(move || {
                    if rank.rank() == 0 {
                        net.charge_thread(h0, Duration::from_secs(1));
                    }
                    rank.barrier();
                    net.thread_time(hosts[rank.rank()])
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank")).collect()
    });
    assert_eq!(after, [1.0, 1.0, 0.0]);
}

#[test]
fn broadcast_delivers_to_all() {
    let out = World::run(4, |rank| {
        let data = if rank.rank() == 2 { Some(b("payload")) } else { None };
        rank.broadcast(2, data)
    });
    for part in out {
        assert_eq!(&part[..], b"payload");
    }
}

#[test]
fn gather_collects_in_rank_order() {
    let out = World::run(4, |rank| {
        let part = Bytes::from(vec![rank.rank() as u8]);
        rank.gather(1, part)
    });
    assert!(out[0].is_none());
    let parts = out[1].as_ref().unwrap();
    assert_eq!(parts.len(), 4);
    for (i, p) in parts.iter().enumerate() {
        assert_eq!(p[0] as usize, i);
    }
}

#[test]
fn scatter_routes_per_rank() {
    let out = World::run(3, |rank| {
        let parts =
            (rank.rank() == 0).then(|| (0..3).map(|i| Bytes::from(vec![i as u8 * 10])).collect());
        rank.scatter(0, parts)
    });
    for (i, p) in out.iter().enumerate() {
        assert_eq!(p[0] as usize, i * 10);
    }
}

#[test]
fn all_gather_gives_everyone_everything() {
    let out = World::run(5, |rank| {
        let part = Bytes::from(format!("r{}", rank.rank()));
        MpiRts::new(rank).all_gather(part)
    });
    for parts in out {
        assert_eq!(parts.len(), 5);
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(&p[..], format!("r{i}").as_bytes());
        }
    }
}

#[test]
fn collectives_interleave_with_point_to_point() {
    World::run(2, |rank| {
        // Point-to-point traffic between collectives must not confuse the
        // collective tag matching.
        if rank.rank() == 0 {
            rank.send(1, 3, b("p2p"));
        }
        let bc = rank.broadcast(0, (rank.rank() == 0).then(|| b("bc1")));
        assert_eq!(&bc[..], b"bc1");
        if rank.rank() == 1 {
            assert_eq!(&rank.recv(Some(0), 3).data[..], b"p2p");
        }
        let bc2 = rank.broadcast(1, (rank.rank() == 1).then(|| b("bc2")));
        assert_eq!(&bc2[..], b"bc2");
    });
}

#[test]
fn mixed_roots_sequence_correctly() {
    World::run(3, |rank| {
        for round in 0..10u8 {
            let root = (round as usize) % 3;
            let data = (rank.rank() == root).then(|| Bytes::from(vec![round]));
            let got = rank.broadcast(root, data);
            assert_eq!(got[0], round);
            rank.barrier();
        }
    });
}

#[test]
#[should_panic(expected = "world size must be at least 1")]
fn zero_size_world_rejected() {
    let _ = World::new(0);
}

#[test]
fn single_rank_world_collectives_are_identities() {
    World::run(1, |rank| {
        assert_eq!(rank.size(), 1);
        rank.barrier();
        assert_eq!(&rank.broadcast(0, Some(b("x")))[..], b"x");
        assert_eq!(rank.gather(0, b("g")).unwrap().len(), 1);
        assert_eq!(&rank.scatter(0, Some(vec![b("s")]))[..], b"s");
        assert_eq!(MpiRts::new(rank).all_gather(b("a")).len(), 1);
    });
}

#[test]
fn reduce_op_apply() {
    assert_eq!(ReduceOp::Sum.apply(&[1.0, 2.0, 3.0]), 6.0);
    assert_eq!(ReduceOp::Max.apply(&[1.0, 5.0, 3.0]), 5.0);
    assert_eq!(ReduceOp::Min.apply(&[1.0, 5.0, 3.0]), 1.0);
}

#[test]
fn tags_bands_are_disjoint() {
    assert!(tags::is_user(0));
    assert!(tags::is_user(tags::PARDIS_BASE - 1));
    assert!(!tags::is_user(tags::PARDIS_BASE));
    assert!(!tags::is_user(tags::pardis(42)));
    assert!(tags::pardis(42) < tags::COLLECTIVE_BASE);
}

#[test]
fn reserved_range_covers_the_pardis_and_collective_bands() {
    // §2.2: the reserved range starts exactly at the PARDIS band and covers
    // the collective band too.
    assert_eq!(tags::RESERVED_TAG_RANGE.start, tags::PARDIS_BASE);
    assert!(tags::is_reserved(tags::COLLECTIVE_BASE));
    assert!(tags::is_collective(tags::COLLECTIVE_BASE));
    assert!(!tags::is_reserved(tags::PARDIS_BASE - 1));
}

mod rts_trait_tests {
    use super::*;

    #[test]
    fn mpi_rts_wraps_rank() {
        let out = World::run(3, |rank| {
            let r = rank.rank();
            let rts = MpiRts::new(rank);
            exercise(&rts, r, 3)
        });
        assert_eq!(out, vec![3.0, 3.0, 3.0]);
    }

    #[test]
    fn tulip_rts_meets_the_same_contract() {
        let (_world, endpoints) = TulipWorld::new(3);
        let out: Vec<f64> = std::thread::scope(|s| {
            endpoints
                .into_iter()
                .enumerate()
                .map(|(i, ep)| s.spawn(move || exercise(&ep, i, 3)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(out, vec![3.0, 3.0, 3.0]);
    }

    #[test]
    fn mpi_rts_timeout_beyond_instant_range_waits_for_the_message() {
        let out = World::run(2, |rank| late_message(&MpiRts::new(rank)));
        assert_eq!(out[0].as_deref(), Some(&b"late"[..]));
    }

    #[test]
    fn tulip_rts_timeout_beyond_instant_range_waits_for_the_message() {
        let (_world, endpoints) = TulipWorld::new(2);
        let out: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> =
                endpoints.into_iter().map(|ep| s.spawn(move || late_message(&ep))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(out[0].as_deref(), Some(&b"late"[..]));
    }

    /// Rank 1 sends 10 ms late; rank 0 waits with a timeout whose deadline
    /// `Instant` cannot represent, which is no deadline.
    fn late_message(rts: &dyn Rts) -> Option<Bytes> {
        if rts.rank() == 1 {
            std::thread::sleep(Duration::from_millis(10));
            rts.send(0, 7, b("late"));
            return None;
        }
        rts.recv_timeout(Some(1), 7, Duration::MAX).map(|m| m.data)
    }

    /// Shared conformance exercise run against any [`Rts`] implementation:
    /// point-to-point ring, barrier, broadcast, gather/scatter, all-reduce.
    fn exercise(rts: &dyn Rts, expect_rank: usize, expect_size: usize) -> f64 {
        assert_eq!(rts.rank(), expect_rank);
        assert_eq!(rts.size(), expect_size);
        let n = rts.size();
        let me = rts.rank();

        // Ring: send to the right, receive from the left.
        rts.send((me + 1) % n, 11, Bytes::from(vec![me as u8]));
        let from_left = rts.recv(Some((me + n - 1) % n), 11);
        assert_eq!(from_left.data[0] as usize, (me + n - 1) % n);

        rts.barrier();

        let bc = rts.broadcast(0, (me == 0).then(|| b("z")));
        assert_eq!(&bc[..], b"z");

        let gathered = rts.gather(0, Bytes::from(vec![me as u8]));
        let scattered = if me == 0 {
            let parts = gathered.unwrap();
            assert_eq!(parts.len(), n);
            rts.scatter(0, Some(parts))
        } else {
            rts.scatter(0, None)
        };
        assert_eq!(scattered[0] as usize, me);

        assert!(rts.try_recv(None, 999).is_none());
        assert!(rts.recv_timeout(None, 999, Duration::from_millis(5)).is_none());

        // Each rank contributes 1.0; the sum is the world size.
        rts.all_reduce_f64(1.0, ReduceOp::Sum)
    }
}

mod tulip_one_sided {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let (_w, eps) = TulipWorld::new(2);
        let id = eps[0].register_region(1, vec![0u8; 8]);
        eps[1].put(id, 2, &[0xaa, 0xbb]).expect("in-bounds put");
        assert_eq!(eps[0].get(id, 0, 8).expect("get"), vec![0, 0, 0xaa, 0xbb, 0, 0, 0, 0]);
        assert_eq!(
            eps[0].unregister_region(id).expect("deregister"),
            vec![0, 0, 0xaa, 0xbb, 0, 0, 0, 0]
        );
    }

    #[test]
    fn put_out_of_bounds_rejected() {
        let (_w, eps) = TulipWorld::new(1);
        let id = eps[0].register_region(1, vec![0u8; 4]);
        // Typed error, not a panic: the write 2..5 exceeds the 4-byte region.
        match eps[0].put(id, 2, &[1, 2, 3]) {
            Err(RtsError::OutOfBounds { offset: 2, len: 3, size: 4, .. }) => {}
            other => panic!("expected OutOfBounds, got {other:?}"),
        }
        // The region is untouched by the rejected write.
        assert_eq!(eps[0].get(id, 0, 4).expect("get"), vec![0; 4]);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_region_rejected() {
        let (_w, eps) = TulipWorld::new(1);
        eps[0].register_region(1, vec![]);
        eps[0].register_region(1, vec![]);
    }

    #[test]
    fn unknown_region_rejected() {
        let (_w, eps) = TulipWorld::new(1);
        match eps[0].get(RegionId { owner: 0, number: 99 }, 0, 0) {
            Err(RtsError::UnknownWindow(_)) => {}
            other => panic!("expected UnknownWindow, got {other:?}"),
        }
    }
}

mod windows {
    use super::*;
    use pardis_netsim::{LinkPreset, Network, TimeScale};

    #[test]
    fn put_nb_completes_and_notifies() {
        let (_w, ranks) = World::new(2);
        let id = ranks[0].windows().expose(0x100, vec![0u8; 16]).expect("expose");
        let c =
            ranks[1].windows().put_nb_notify(id, 4, Bytes::from(vec![9u8; 4]), 77).expect("put");
        c.wait();
        let n = ranks[0].windows().wait_notify(77);
        assert_eq!(n.from, 1);
        assert_eq!(n.window, id);
        let back = ranks[0].windows().read_local(id, 0, 16).expect("read");
        assert_eq!(&back[4..8], &[9, 9, 9, 9]);
    }

    #[test]
    fn get_vec_concatenates_spans() {
        let (_w, ranks) = World::new(2);
        let data: Vec<u8> = (0..32).collect();
        let id = ranks[0].windows().expose(0, data).expect("expose");
        let got =
            ranks[1].windows().get_vec_nb(id, &[(4, 2), (30, 2), (0, 1)]).expect("get").wait();
        assert_eq!(&got[..], &[4, 5, 30, 31, 0]);
    }

    #[test]
    fn get_strided_reads_blocks_in_entry_order() {
        let (_w, ranks) = World::new(2);
        let data: Vec<u8> = (0..32).collect();
        let id = ranks[0].windows().expose(0, data).expect("expose");
        let w = ranks[1].windows();
        // 3 blocks of 2 bytes 8 apart from 1, then one plain span, then an
        // empty entry: the same bytes a span-per-block vectored get returns.
        let strided = w.get_strided_nb(id, [(1, 8, 2, 3), (30, 2, 2, 1), (0, 1, 1, 0)]);
        let spans = w.get_vec_nb(id, &[(1, 2), (9, 2), (17, 2), (30, 2)]);
        let got = strided.expect("get").wait();
        assert_eq!(&got[..], &[1, 2, 9, 10, 17, 18, 30, 31]);
        assert_eq!(got, spans.expect("get").wait());
    }

    #[test]
    fn get_strided_bounds_are_overflow_safe() {
        let (_w, ranks) = World::new(2);
        let id = ranks[0].windows().expose(0, vec![0u8; 32]).expect("expose");
        let w = ranks[1].windows();
        for entry in [
            (0, 8, 2, 5),               // last block ends at 34
            (31, 1, 2, 1),              // single block past the end
            (0, u64::MAX, 1, 3),        // (count - 1) * stride overflows
            (0, u64::MAX / 2, 1, 3),    // reach overflows on the add
            (u64::MAX, 1, 1, 1),        // offset + reach overflows
            (0, 0, u64::MAX, u64::MAX), // byte total overflows
        ] {
            assert!(
                matches!(w.get_strided_nb(id, [entry]), Err(RtsError::OutOfBounds { .. })),
                "{entry:?}"
            );
        }
        assert_eq!(w.pending_ops(), 0, "a refused get starts nothing");
    }

    #[test]
    fn fence_drains_inflight_ops() {
        let (_w, ranks) = World::new(2);
        let id = ranks[0].windows().expose(0, vec![0u8; 64]).expect("expose");
        for k in 0..8u8 {
            ranks[1].windows().put_nb(id, k as u64 * 8, Bytes::from(vec![k; 8])).expect("put");
        }
        ranks[1].windows().fence();
        assert_eq!(ranks[1].windows().pending_ops(), 0);
        let all = ranks[0].windows().read_local(id, 0, 64).expect("read");
        for k in 0..8usize {
            assert!(all[k * 8..(k + 1) * 8].iter().all(|&b| b == k as u8));
        }
    }

    #[test]
    fn deregister_requires_owner() {
        let (_w, ranks) = World::new(2);
        let id = ranks[0].windows().expose(0, vec![1, 2, 3]).expect("expose");
        assert!(matches!(
            ranks[1].windows().deregister(id),
            Err(RtsError::NotOwner { rank: 1, .. })
        ));
        assert_eq!(ranks[0].windows().deregister(id).expect("deregister"), vec![1, 2, 3]);
        assert!(matches!(ranks[1].windows().get_nb(id, 0, 1), Err(RtsError::UnknownWindow(_))));
    }

    #[test]
    fn a_window_for_planned_gets_withdraws_at_the_last() {
        let (_w, ranks) = World::new(3);
        let w0 = ranks[0].windows();
        w0.expose_for_gets(0x40, (0..16).collect(), 2).expect("expose");
        let id = WindowId { owner: 0, base: 0x40 };
        let first = ranks[1].windows().get_nb(id, 0, 4).expect("first planned get");
        assert_eq!(w0.window_len(id), Ok(16), "one planned get left");
        let second = ranks[2].windows().get_strided_nb(id, [(1, 4, 1, 4)]).expect("second");
        assert_eq!(w0.window_len(id), Err(RtsError::UnknownWindow(id)));
        assert!(matches!(ranks[1].windows().get_nb(id, 0, 1), Err(RtsError::UnknownWindow(_))));
        assert_eq!(&first.wait()[..], &[0, 1, 2, 3]);
        assert_eq!(&second.wait()[..], &[1, 5, 9, 13]);
        // No reader, no window.
        w0.expose_for_gets(0x80, vec![1; 8], 0).expect("nothing to expose");
        let unread = WindowId { owner: 0, base: 0x80 };
        assert_eq!(w0.window_len(unread), Err(RtsError::UnknownWindow(unread)));
    }

    /// A get whose spans are rejected changes nothing: it takes none of the
    /// window's planned gets, so the reader still to come finds it.
    #[test]
    fn a_rejected_get_takes_no_planned_get() {
        let (_w, ranks) = World::new(2);
        let w0 = ranks[0].windows();
        w0.expose_for_gets(0, vec![5; 8], 1).expect("expose");
        let id = WindowId { owner: 0, base: 0 };
        let w1 = ranks[1].windows();
        assert!(matches!(w1.get_nb(id, 4, 8), Err(RtsError::OutOfBounds { .. })));
        assert_eq!(w0.window_len(id), Ok(8), "the rejected get took nothing");
        assert_eq!(&w1.get_nb(id, 0, 8).expect("the planned get").wait()[..], &[5; 8]);
        assert_eq!(w0.window_len(id), Err(RtsError::UnknownWindow(id)));
    }

    /// Zero-length gets and zero-length spans read no bytes, with no
    /// network and when the owner serves them over one. The networked case
    /// runs on a helper thread, so a panic there fails by timeout instead
    /// of hanging the suite.
    #[test]
    fn empty_gets_read_nothing() {
        let reads = |ranks: &[Rank]| {
            let id = ranks[0].windows().expose(0, (0..8).collect()).expect("expose");
            let w = ranks[1].windows();
            let got = [
                w.get_nb(id, 0, 0).expect("empty get"),
                w.get_nb(id, 8, 0).expect("empty get at the end"),
                w.get_vec_nb(id, &[(3, 0)]).expect("one empty span"),
                w.get_vec_nb(id, &[(3, 0), (1, 2), (8, 0)]).expect("empty spans around one"),
                w.get_strided_nb(id, [(2, 4, 0, 2)]).expect("blocks of no bytes"),
            ];
            got.map(|h| h.wait().to_vec())
        };
        let want: [Vec<u8>; 5] = [vec![], vec![], vec![], vec![1, 2], vec![]];
        let (_w, ranks) = World::new(2);
        assert_eq!(reads(&ranks), want, "no network");

        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let net = Network::new(TimeScale::off());
            let h: Vec<_> = (0..2).map(|r| net.add_host(&format!("h{r}"))).collect();
            net.set_default_link(LinkPreset::AtmOc3.link());
            let (world, ranks) = World::new(2);
            world.attach_network(net, h);
            done.send(reads(&ranks)).expect("test thread waits");
        });
        let got = finished.recv_timeout(Duration::from_secs(30)).expect("the owner served them");
        assert_eq!(got, want, "served over the network");
    }

    /// Over a network that duplicates every frame: a duplicated request
    /// frame does not take a second planned get, and the last get, which
    /// withdraws the window at its lookup, still reads the bytes it
    /// resolved when its request lands.
    #[test]
    fn planned_gets_are_counted_at_lookup_not_at_delivery() {
        let net = Network::new(TimeScale::off());
        let h: Vec<_> = (0..3).map(|r| net.add_host(&format!("h{r}"))).collect();
        net.set_default_link(LinkPreset::AtmOc3.link());
        net.set_fault_plan(Some(pardis_netsim::FaultPlan::new(7).with_dup(1.0)));
        let (world, ranks) = World::new(3);
        world.attach_network(net.clone(), h);
        let w0 = ranks[0].windows();
        w0.expose_for_gets(0, (0..32).collect(), 2).expect("expose");
        let id = WindowId { owner: 0, base: 0 };
        let first = ranks[1].windows().get_nb(id, 8, 8).expect("first planned get");
        assert_eq!(&first.wait()[..], &[8, 9, 10, 11, 12, 13, 14, 15]);
        assert_eq!(w0.window_len(id), Ok(32), "duplicates took no planned get");
        let last = ranks[2].windows().get_nb(id, 0, 4).expect("last planned get");
        assert_eq!(w0.window_len(id), Err(RtsError::UnknownWindow(id)));
        assert_eq!(&last.wait()[..], &[0, 1, 2, 3]);
    }

    /// On a networked world a collective round's turns run from the
    /// highest rank down, whatever order the threads arrive in; rounds that
    /// take no turn hold nothing up. Without a network nobody waits.
    #[test]
    fn turns_run_in_rank_order_on_a_networked_world() {
        let net = Network::new(TimeScale::off());
        let h: Vec<_> = (0..3).map(|r| net.add_host(&format!("h{r}"))).collect();
        let (world, ranks) = World::new(3);
        world.attach_network(net, h);
        let order = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for rank in ranks {
                let order = &order;
                scope.spawn(move || {
                    let w = rank.windows();
                    for round in 0..30u64 {
                        let skipped = w.collective_window_base();
                        let base = w.collective_window_base();
                        assert_ne!(skipped, base);
                        rank.barrier();
                        let pause = (round * 7 + rank.rank() as u64 * 13) % 50;
                        std::thread::sleep(Duration::from_micros(pause));
                        w.in_turn(base, || order.lock().unwrap().push(rank.rank()));
                    }
                });
            }
        });
        let order = order.into_inner().unwrap();
        assert!(order.chunks(3).all(|round| round == [2, 1, 0]), "{order:?}");

        let (_w, ranks) = World::new(3);
        let w = ranks[1].windows();
        assert_eq!(w.in_turn(w.collective_window_base(), || 5), 5, "no network, no turn");
    }

    /// With a network attached, one-sided transfers accrue modelled wire
    /// time on the lanes (and still deliver the bytes).
    #[test]
    fn attached_network_accrues_wire_time() {
        let net = Network::new(TimeScale::off());
        let h0 = net.add_host("A");
        let h1 = net.add_host("B");
        net.connect(h0, h1, LinkPreset::AtmOc3.link());
        let (world, ranks) = World::new(2);
        world.attach_network(net.clone(), vec![h0, h1]);
        let id = ranks[0].windows().expose(0, vec![0u8; 1024]).expect("expose");
        ranks[1].windows().put_nb(id, 0, Bytes::from(vec![7u8; 1024])).expect("put").wait();
        let got = ranks[1].windows().get_nb(id, 0, 1024).expect("get").wait();
        assert!(got.iter().all(|&b| b == 7));
        // One put frame + a get request/reply pair went over the wire.
        assert!(net.makespan() > 0.0, "one-sided traffic must advance the virtual clock");
    }

    /// On a networked world a collective's messages pay what a send pays: a
    /// scatter from rank 0 over 3 ranks advances the modelled clock exactly
    /// as sending the same parts with `send` does, and so does a broadcast.
    #[test]
    fn collectives_pay_the_modelled_cost_of_send() {
        let parts = || vec![b(""), Bytes::from(vec![1u8; 700]), Bytes::from(vec![2u8; 1500])];
        let makespan = |run: &(dyn Fn(&Rank) + Sync)| {
            let net = Network::new(TimeScale::off());
            net.set_default_link(LinkPreset::AtmOc3.link());
            let h: Vec<_> = (0..3).map(|r| net.add_host(&format!("h{r}"))).collect();
            let (world, ranks) = World::new(3);
            world.attach_network(net.clone(), h);
            std::thread::scope(|scope| {
                for rank in ranks {
                    scope.spawn(move || run(&rank));
                }
            });
            net.makespan()
        };
        let sent = makespan(&|rank| match rank.rank() {
            0 => parts().into_iter().enumerate().skip(1).for_each(|(to, p)| rank.send(to, 9, p)),
            r => assert_eq!(rank.recv(Some(0), 9).data, parts()[r]),
        });
        let scattered = makespan(&|rank| {
            let got = rank.scatter(0, (rank.rank() == 0).then(parts));
            assert_eq!(got, parts()[rank.rank()]);
        });
        assert!(sent > 0.0);
        assert_eq!(scattered, sent, "a scatter costs what its sends cost");

        let one = || Bytes::from(vec![3u8; 900]);
        let sent = makespan(&|rank| match rank.rank() {
            0 => (1..3).for_each(|to| rank.send(to, 9, one())),
            _ => assert_eq!(rank.recv(Some(0), 9).data, one()),
        });
        let broadcast = makespan(&|rank| {
            assert_eq!(rank.broadcast(0, (rank.rank() == 0).then(one)), one());
        });
        assert_eq!(broadcast, sent, "a broadcast costs what its sends cost");
    }

    /// Two-sided sends over an attached network pay the rendezvous chain,
    /// which costs strictly more than a one-sided put of the same payload.
    #[test]
    fn rendezvous_costs_more_than_put() {
        let cost = |one_sided: bool| {
            let net = Network::new(TimeScale::off());
            let h0 = net.add_host("A");
            let h1 = net.add_host("B");
            net.connect(h0, h1, LinkPreset::AtmOc3.link());
            let (world, ranks) = World::new(2);
            world.attach_network(net.clone(), vec![h0, h1]);
            if one_sided {
                let id = ranks[1].windows().expose(0, vec![0u8; 256]).expect("expose");
                ranks[0].windows().put_nb(id, 0, Bytes::from(vec![1u8; 256])).expect("put").wait();
            } else {
                ranks[0].send(1, 5, Bytes::from(vec![1u8; 256]));
                ranks[1].recv(Some(0), 5);
            }
            net.makespan()
        };
        let put = cost(true);
        let send = cost(false);
        assert!(
            send > put * 1.5,
            "rendezvous send ({send:.6}s) should cost well over the one-sided put ({put:.6}s)"
        );
    }
}

mod property {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Messages between a fixed (sender, receiver, tag) triple are
        /// delivered in FIFO order regardless of world size.
        #[test]
        fn p2p_fifo_order(n in 2usize..6, count in 1usize..20) {
            World::run(n, |rank| {
                if rank.rank() == 0 {
                    for i in 0..count {
                        rank.send(1, 4, Bytes::from(vec![i as u8]));
                    }
                } else if rank.rank() == 1 {
                    for i in 0..count {
                        let m = rank.recv(Some(0), 4);
                        assert_eq!(m.data[0] as usize, i);
                    }
                }
            });
        }

        /// all_gather result is identical on every rank and ordered by rank.
        #[test]
        fn all_gather_consistency(n in 1usize..6) {
            let out = World::run(n, |rank| {
                let part = Bytes::from(vec![rank.rank() as u8; rank.rank() + 1]);
                MpiRts::new(rank).all_gather(part)
            });
            for parts in &out {
                prop_assert_eq!(parts.len(), n);
                for (i, p) in parts.iter().enumerate() {
                    prop_assert_eq!(p.len(), i + 1);
                    prop_assert!(p.iter().all(|&x| x as usize == i));
                }
            }
        }

        /// all-reduce agrees with a sequential reduction on every rank.
        #[test]
        fn all_reduce_matches_sequential(
            n in 1usize..6,
            values in proptest::collection::vec(-1e6f64..1e6, 6),
        ) {
            let vals = values.clone();
            let out = World::run(n, move |rank| {
                let rts = MpiRts::new(rank);
                let mine = vals[rts.rank()];
                (
                    rts.all_reduce_f64(mine, ReduceOp::Sum),
                    rts.all_reduce_f64(mine, ReduceOp::Max),
                )
            });
            let expected_sum: f64 = values[..n].iter().sum();
            let expected_max = values[..n].iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for (sum, max) in out {
                prop_assert!((sum - expected_sum).abs() < 1e-6);
                prop_assert_eq!(max, expected_max);
            }
        }

        /// put-then-get roundtrips arbitrary in-bounds (offset, len) spans;
        /// out-of-bounds spans are rejected with a typed error and leave the
        /// window untouched.
        #[test]
        fn window_put_get_roundtrip(
            size in 1usize..256,
            offset in 0u64..256,
            len in 0usize..256,
            fill in any::<u8>(),
        ) {
            let (_w, ranks) = World::new(2);
            let id = ranks[0].windows().expose(0x1000, vec![0u8; size]).expect("expose");
            let payload = Bytes::from(vec![fill; len]);
            let in_bounds = offset as usize + len <= size;
            match ranks[1].windows().put_nb(id, offset, payload) {
                Ok(c) => {
                    prop_assert!(in_bounds);
                    c.wait();
                    let got = ranks[1].windows().get_nb(id, offset, len as u64).expect("get").wait();
                    prop_assert!(got.iter().all(|&b| b == fill));
                    // Bytes outside the span are untouched.
                    let all = ranks[0].windows().read_local(id, 0, size as u64).expect("read");
                    for (i, &b) in all.iter().enumerate() {
                        let inside = i as u64 >= offset && i < offset as usize + len;
                        prop_assert_eq!(b, if inside { fill } else { 0 });
                    }
                }
                Err(RtsError::OutOfBounds { .. }) => {
                    prop_assert!(!in_bounds);
                    let all = ranks[0].windows().read_local(id, 0, size as u64).expect("read");
                    prop_assert!(all.iter().all(|&b| b == 0));
                }
                Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            }
        }

        /// expose accepts exactly the non-overlapping base placements:
        /// acceptance must match interval arithmetic on the byte address
        /// space.
        #[test]
        fn window_overlap_rejection_matches_intervals(
            base_a in 0u64..64,
            len_a in 1usize..32,
            base_b in 0u64..64,
            len_b in 1usize..32,
        ) {
            let (_w, ranks) = World::new(1);
            let w = ranks[0].windows();
            let a = w.expose(base_a, vec![0u8; len_a]).expect("first expose");
            let disjoint = base_b + len_b as u64 <= base_a || base_a + len_a as u64 <= base_b;
            match w.expose(base_b, vec![0u8; len_b]) {
                Ok(b) => {
                    prop_assert!(disjoint, "accepted overlapping [{base_b}, +{len_b})");
                    w.deregister(b).expect("deregister b");
                }
                Err(RtsError::WindowOverlap { .. }) => prop_assert!(!disjoint),
                Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            }
            w.deregister(a).expect("deregister a");
        }
    }
}
