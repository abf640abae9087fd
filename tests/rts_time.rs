//! Modelled time crosses the run-time system (DESIGN.md §1, timeline
//! rule): what a rank takes in through its world raises it to the time its
//! sender carried, as Lamport's clocks do, in modelled seconds.
//!
//! Each case runs a three-rank parallel client attached to an ORB. The
//! ranks leave a barrier together, rank 0 charges compute, and the ranks
//! run an exchange. Then each rank, one after another in real time, calls a
//! server of its own, which replies with its thread's modelled time at
//! dispatch: the arrival of that rank's request. A reply raises the client
//! host's send floor when it lands, so the ranks call from the highest
//! down, and rank 0, which charged, calls last. A case runs twice, with
//! rank 0 charging 1 s and then 2 s, and compares the arrivals. A rank the
//! exchange raised sends exactly 1 s later in the second run, to the
//! modelled nanosecond; a rank it did not raise sends when it did before.
//! Real-time order comes from a `std` barrier, which carries no time.

use pardis::core::{ClientGroup, Orb, Servant, ServerGroup, ServerReply, ServerRequest};
use pardis::netsim::{HostId, LinkPreset, Network, TimeScale};
use pardis::rts::{Bytes, MpiRts, Rts, WindowId, World};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const RANKS: usize = 3;

/// Replies with its thread's modelled time at dispatch.
struct Stamp {
    net: Network,
    host: HostId,
}

impl Servant for Stamp {
    fn interface(&self) -> &str {
        "stamp"
    }

    fn dispatch(&self, _req: ServerRequest<'_>) -> Result<ServerReply, String> {
        let mut rep = ServerReply::new();
        rep.push_scalar(&self.net.thread_time(self.host));
        Ok(rep)
    }
}

/// The world the exchange runs over.
#[derive(Clone, Copy)]
enum Via {
    /// The world the ORB attached the client's threads with.
    Orb,
    /// That world, also attached to the ORB's network with every rank on
    /// the client's host, so its gets are priced frames. A frame that lands
    /// on the client's host raises its floor, which every rank sends from,
    /// so only an exchange whose frames do not depend on the charge can
    /// tell the raised rank from the others here.
    Network,
    /// A second world of the same size that nothing binds.
    Unbound,
}

/// What the ranks do between rank 0's charge and their calls. The barrier
/// orders real time without carrying modelled time.
type Exchange = dyn Fn(&MpiRts, &Barrier) + Sync;

/// Run `exchange` over `via` with rank 0 charging `charge` seconds first,
/// and return the arrival of each rank's call at its server.
fn arrivals(charge: f64, via: Via, exchange: &Exchange) -> Vec<f64> {
    let net = Network::new(TimeScale::off());
    let client = net.add_host("client");
    let server = net.add_host("server");
    net.connect(client, server, LinkPreset::AtmOc3.link());
    let orb = Orb::new(net.clone());
    // A retransmission is a wall-clock event: on a loaded host it would put
    // an extra frame on the modelled wire in one run and not the other.
    orb.set_retry_base(Duration::from_secs(60));
    let servers: Vec<_> = (0..RANKS)
        .map(|r| {
            let group = ServerGroup::create(&orb, "stamp", server, 1);
            let (ready_tx, ready_rx) = std::sync::mpsc::channel();
            let stamp = Arc::new(Stamp { net: net.clone(), host: server });
            let g = group.clone();
            let join = std::thread::spawn(move || {
                let mut poa = g.attach(0, None);
                poa.activate_single(&format!("stamp{r}"), stamp);
                ready_tx.send(()).expect("the test waits for activation");
                poa.impl_is_ready();
            });
            ready_rx.recv().expect("the server activates its object");
            (group, join)
        })
        .collect();

    let group = ClientGroup::create(&orb, client, RANKS);
    let (world, ranks) = World::new(RANKS);
    if let Via::Network = via {
        world.attach_network(net.clone(), vec![client; RANKS]);
    }
    let (_spare, spares) = World::new(RANKS);
    let turns = Barrier::new(RANKS);
    let out: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranks
            .into_iter()
            .zip(spares)
            .map(|(rank, spare)| {
                let (group, net, turns) = (&group, &net, &turns);
                scope.spawn(move || {
                    let t = rank.rank();
                    let mpi = Arc::new(MpiRts::new(rank));
                    let ct = group.attach(t, Some(mpi.clone() as Arc<dyn Rts>));
                    let proxy = ct.bind(&format!("stamp{t}")).expect("bind");
                    mpi.barrier();
                    if t == 0 {
                        net.charge_thread(client, Duration::from_secs_f64(charge));
                    }
                    let spare = MpiRts::new(spare);
                    exchange(if let Via::Unbound = via { &spare } else { &mpi }, turns);
                    turns.wait();
                    let mut at = 0.0;
                    for turn in (0..RANKS).rev() {
                        if turn == t {
                            let reply = proxy.call("stamp").invoke().expect("stamp");
                            at = reply.scalar::<f64>(0).expect("arrival");
                        }
                        turns.wait();
                    }
                    at
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client rank")).collect()
    });
    for (group, join) in servers {
        group.shutdown();
        join.join().expect("server thread");
    }
    out
}

/// How far, in modelled nanoseconds, 1 s more compute on rank 0 before
/// `exchange` moves each rank's next send.
fn moved(via: Via, exchange: &Exchange) -> Vec<i64> {
    let (before, after) = (arrivals(1.0, via, exchange), arrivals(2.0, via, exchange));
    before.iter().zip(&after).map(|(b, a)| ((a - b) * 1e9).round() as i64).collect()
}

const S: i64 = 1_000_000_000;

#[test]
fn a_message_raises_its_receiver_and_no_one_else() {
    let exchange = |rts: &MpiRts, _: &Barrier| match rts.rank() {
        0 => rts.raw().send(1, 7, Bytes::from_static(b"row")),
        1 => assert_eq!(&rts.raw().recv(Some(0), 7).data[..], b"row"),
        _ => {}
    };
    assert_eq!(moved(Via::Orb, &exchange), [S, S, 0], "rank 2 received nothing");
    let polled = |rts: &MpiRts, turns: &Barrier| {
        if rts.rank() == 0 {
            rts.raw().send(1, 7, Bytes::new());
        }
        turns.wait();
        if rts.rank() == 1 {
            rts.raw().try_recv(Some(0), 7).expect("sent before the turn");
        }
    };
    assert_eq!(moved(Via::Orb, &polled), [S, S, 0], "try_recv");
    let timed = |rts: &MpiRts, _: &Barrier| match rts.rank() {
        0 => rts.raw().send(1, 7, Bytes::new()),
        1 => drop(rts.raw().recv_timeout(Some(0), 7, Duration::from_secs(30)).expect("sent")),
        _ => {}
    };
    assert_eq!(moved(Via::Orb, &timed), [S, S, 0], "recv_timeout");
}

#[test]
fn a_barrier_raises_every_rank() {
    let exchange = |rts: &MpiRts, _: &Barrier| rts.raw().barrier();
    assert_eq!(moved(Via::Orb, &exchange), [S, S, S]);
}

#[test]
fn a_gather_raises_its_root() {
    let exchange = |rts: &MpiRts, _: &Barrier| {
        let parts = rts.raw().gather(1, Bytes::from(vec![rts.rank() as u8]));
        assert_eq!(parts.is_some(), rts.rank() == 1);
    };
    assert_eq!(moved(Via::Orb, &exchange), [S, S, 0]);
}

#[test]
fn a_completed_get_raises_its_getter() {
    let exchange = |rts: &MpiRts, turns: &Barrier| {
        let w = rts.raw().windows();
        if rts.rank() == 0 {
            w.expose(0x40, vec![9; 16]).expect("expose");
        }
        turns.wait();
        if rts.rank() == 1 {
            let got = w.get_nb(WindowId { owner: 0, base: 0x40 }, 4, 8).expect("get").wait();
            assert_eq!(&got[..], &[9; 8]);
        }
    };
    assert_eq!(moved(Via::Orb, &exchange), [S, S, 0], "a local world");
    assert_eq!(moved(Via::Network, &exchange), [S, S, 0], "a networked world");
}

#[test]
fn a_notice_raises_the_window_owner() {
    let exchange = |rts: &MpiRts, turns: &Barrier| {
        let w = rts.raw().windows();
        if rts.rank() == 1 {
            w.expose(0x40, vec![0; 8]).expect("expose");
        }
        turns.wait();
        match rts.rank() {
            0 => {
                let id = WindowId { owner: 1, base: 0x40 };
                w.put_nb_notify(id, 0, Bytes::from(vec![1; 8]), 3).expect("put").wait();
            }
            1 => assert_eq!(w.wait_notify(3).from, 0),
            _ => {}
        }
    };
    assert_eq!(moved(Via::Orb, &exchange), [S, S, 0]);
}

/// With no compute charged a rank's time never passes its host's floor,
/// so nothing the RTS carries moves a send: every call arrives when it
/// does after the same exchange over a world nothing binds.
#[test]
fn with_no_compute_the_rts_moves_no_send() {
    let exchange = |rts: &MpiRts, turns: &Barrier| {
        let me = rts.rank();
        let parts = rts.all_gather(Bytes::from(vec![me as u8; me + 1]));
        assert_eq!(parts.len(), RANKS);
        if me == 0 {
            rts.raw().windows().expose(0x40, vec![5; 8]).expect("expose");
        }
        turns.wait();
        if me == 2 {
            rts.raw()
                .windows()
                .get_nb(WindowId { owner: 0, base: 0x40 }, 0, 8)
                .expect("get")
                .wait();
        }
        rts.raw().barrier();
    };
    let (bound, unbound) =
        (arrivals(0.0, Via::Orb, &exchange), arrivals(0.0, Via::Unbound, &exchange));
    let ns = |v: Vec<f64>| v.into_iter().map(|t| (t * 1e9).round() as i64).collect::<Vec<_>>();
    assert_eq!(ns(bound), ns(unbound));
}

/// A charge on an unbound world's rank reaches nobody: the exchange over a
/// world nothing binds moves only rank 0, which charged.
#[test]
fn a_world_bound_to_nothing_moves_no_timeline() {
    let exchange = |rts: &MpiRts, _: &Barrier| {
        match rts.rank() {
            0 => rts.raw().send(1, 7, Bytes::new()),
            1 => drop(rts.raw().recv(Some(0), 7)),
            _ => {}
        }
        rts.raw().barrier();
    };
    assert_eq!(moved(Via::Unbound, &exchange), [S, 0, 0]);
}
