//! `Poa::wait_for_work`: thread 0 of a two-thread server parks in it and
//! returns for each thing it waits on — an RTS message from its sibling, an
//! ORB request, a `Close` frame — and panics instead of hanging once the
//! sibling's panic poisons the world. Under `PARDIS_AUDIT=1` each run also
//! leaves the concurrency auditor with zero findings.

use crate::*;
use bytes::Bytes;
use pardis_rts::{MpiRts, Rts, World};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// How long the waking side waits, so that thread 0 is parked when it acts.
const PAUSE: Duration = Duration::from_millis(20);
/// A user tag for the sibling's message.
const TAG: u64 = 7;

struct Doubler;

impl Servant for Doubler {
    fn interface(&self) -> &str {
        "doubler"
    }
    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        let x: i64 = req.scalar(0).map_err(|e| e.to_string())?;
        let mut rep = ServerReply::new();
        rep.push_scalar(&(2 * x));
        Ok(rep)
    }
}

/// Run a two-thread server on its own ORB: thread 0 activates `name`, parks
/// once in `wait_for_work` and then runs `woken`; thread 1 runs `sibling`
/// after [`PAUSE`]; the calling thread runs `act` after [`PAUSE`]. Returns
/// how the server's `World::run` ended, and fails if it has not ended
/// within 10 s.
fn park_once(
    name: &'static str,
    sibling: fn(&dyn Rts),
    woken: fn(&dyn Rts, &mut Poa),
    act: impl FnOnce(&Orb, &ServerGroup),
) -> std::thread::Result<()> {
    pardis_audit::env_requested();
    let (orb, host) = Orb::single_host();
    orb.set_local_bypass(false);
    let group = ServerGroup::create(&orb, "parked", host, 2);
    let (ready_tx, ready_rx) = mpsc::channel();
    let (ended_tx, ended_rx) = mpsc::channel();
    let server = {
        let group = group.clone();
        std::thread::spawn(move || {
            let ended = std::panic::catch_unwind(|| {
                World::run(2, |rank| {
                    let t = rank.rank();
                    let rts: Arc<dyn Rts> = Arc::new(MpiRts::new(rank));
                    let mut poa = group.attach(t, Some(rts.clone()));
                    if t == 0 {
                        poa.activate_single(name, Arc::new(Doubler));
                        ready_tx.send(()).unwrap();
                        poa.wait_for_work();
                        woken(&*rts, &mut poa);
                    } else {
                        std::thread::sleep(PAUSE);
                        sibling(&*rts);
                    }
                });
            });
            let _ = ended_tx.send(ended);
        })
    };
    ready_rx.recv().unwrap();
    std::thread::sleep(PAUSE);
    act(&orb, &group);
    let ended = ended_rx.recv_timeout(Duration::from_secs(10)).expect("the parked rank returned");
    server.join().unwrap();
    pardis_audit::enforce_env();
    ended
}

#[test]
fn wait_for_work_returns_for_a_sibling_message() {
    let ended = park_once(
        "parked_msg",
        |rts| rts.send(0, TAG, Bytes::from_static(b"up")),
        |rts, _| assert_eq!(rts.try_recv(Some(1), TAG).unwrap().data, &b"up"[..]),
        |_, _| {},
    );
    assert!(ended.is_ok());
}

#[test]
fn wait_for_work_returns_for_an_orb_request() {
    let ended = park_once(
        "parked_req",
        |_| {},
        |_, poa| assert_eq!(poa.process_requests(), 1),
        |orb, _| {
            let host = orb.network().host_by_name("localhost").unwrap();
            let client = ClientGroup::create(orb, host, 1).attach(0, None);
            let proxy = client.bind("parked_req").unwrap();
            let reply = proxy.call("double").arg(&21i64).invoke().unwrap();
            assert_eq!(reply.scalar::<i64>(0).unwrap(), 42);
        },
    );
    assert!(ended.is_ok());
}

#[test]
fn wait_for_work_returns_for_a_close_frame() {
    let ended = park_once(
        "parked_close",
        |_| {},
        |_, poa| {
            poa.process_requests();
            assert!(poa.is_closed());
        },
        |_, group| group.shutdown(),
    );
    assert!(ended.is_ok());
}

#[test]
fn wait_for_work_panics_when_a_sibling_panics() {
    let ended = park_once(
        "parked_poison",
        |_| panic!("sibling failed"),
        |_, _| unreachable!("a poisoned world's park panics"),
        |_, _| {},
    );
    let payload = ended.expect_err("the world is poisoned");
    let msg = payload.downcast_ref::<String>().expect("a formatted panic");
    assert!(msg.contains("rank 1: sibling failed"), "{msg}");
}
