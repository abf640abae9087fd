//! Communication threads (the §6 future-work experiment).

use crate::*;
use pardis_rts::{MpiRts, World};
use std::sync::Arc;
use std::time::Duration;

struct Doubler;

impl Servant for Doubler {
    fn interface(&self) -> &str {
        "doubler"
    }
    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        let v: i64 = req.scalar(0).map_err(|e| e.to_string())?;
        let mut rep = ServerReply::new();
        rep.push_scalar(&(v * 2));
        Ok(rep)
    }
}

fn serve(
    orb: &Orb,
    host: pardis_netsim::HostId,
    name: &str,
) -> (ServerGroup, std::thread::JoinHandle<()>) {
    let group = ServerGroup::create(orb, "doubler", host, 1);
    let g = group.clone();
    let name = name.to_string();
    let join = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single(&name, Arc::new(Doubler));
        poa.impl_is_ready();
    });
    (group, join)
}

#[test]
fn comm_thread_resolves_futures_while_client_computes() {
    let (orb, host) = Orb::single_host();
    orb.set_local_bypass(false);
    let (group, join) = serve(&orb, host, "d1");

    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let comm = client.start_comm_thread();
    let proxy = client.bind("d1").unwrap();

    let inv = proxy.call("x").arg(&21i64).invoke_nb().unwrap();
    // The client "computes" without ever pumping; the communication thread
    // must ingest the reply on its own. `peek` never pumps.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while !inv.peek() {
        assert!(std::time::Instant::now() < deadline, "comm thread never ingested the reply");
        std::thread::sleep(Duration::from_millis(1));
    }
    let fut: PFuture<i64> = inv.scalar_future(0);
    assert_eq!(fut.get().unwrap(), 42);

    comm.stop();
    group.shutdown();
    join.join().unwrap();
}

#[test]
fn without_comm_thread_peek_stays_false() {
    let (orb, host) = Orb::single_host();
    orb.set_local_bypass(false);
    let (group, join) = serve(&orb, host, "d2");

    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let proxy = client.bind("d2").unwrap();
    let inv = proxy.call("x").arg(&1i64).invoke_nb().unwrap();
    // Nobody drains the endpoint, so without pumping nothing resolves...
    std::thread::sleep(Duration::from_millis(30));
    assert!(!inv.peek(), "reply ingested without any pump");
    // ...until the owner pumps.
    assert!(inv.wait().is_ok());
    group.shutdown();
    join.join().unwrap();
}

#[test]
fn comm_thread_and_owner_pumping_coexist() {
    // Both the comm thread and the future's own blocking get() drain the
    // endpoint concurrently; every reply must still reach its invocation.
    let (orb, host) = Orb::single_host();
    orb.set_local_bypass(false);
    let (group, join) = serve(&orb, host, "d3");

    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let comm = client.start_comm_thread();
    let proxy = client.bind("d3").unwrap();

    for i in 0..50i64 {
        let inv = proxy.call("x").arg(&i).invoke_nb().unwrap();
        let fut: PFuture<i64> = inv.scalar_future(0);
        assert_eq!(fut.get().unwrap(), i * 2);
    }
    comm.stop();
    group.shutdown();
    join.join().unwrap();
}

/// Negates its distributed argument and returns it in the server's template.
struct Negate;

impl Servant for Negate {
    fn interface(&self) -> &str {
        "negate"
    }
    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        let x: DSequence<f64> = req.dseq(0).map_err(|e| e.to_string())?;
        let y = x.local().iter().map(|v| -v).collect();
        let mut rep = ServerReply::new();
        rep.push_dseq(DSequence::from_local(
            y,
            x.len(),
            x.dist().clone(),
            x.nthreads(),
            x.thread(),
        ));
        Ok(rep)
    }
}

#[test]
fn comm_threads_serve_funneled_distributed_calls() {
    // Funneled, the pumps only ingest frames: the redistributions to and
    // from thread 0 run on the computing threads, so a comm thread per
    // client thread drains its endpoint as on the parallel strategy.
    let (orb, host) = Orb::single_host();
    orb.set_local_bypass(false);
    orb.set_transfer_strategy(TransferStrategy::Funneled);
    let group = ServerGroup::create(&orb, "negate", host, 2);
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let server = {
        let group = group.clone();
        let policy = DistPolicy::new().with("neg", 0, Distribution::Cyclic);
        std::thread::spawn(move || {
            World::run(2, |rank| {
                let t = rank.rank();
                let mut poa = group.attach(t, Some(Arc::new(MpiRts::new(rank))));
                poa.activate_spmd("neg1", Arc::new(Negate), policy.clone());
                ready_tx.send(()).unwrap();
                poa.impl_is_ready();
            });
        })
    };
    for _ in 0..2 {
        ready_rx.recv().unwrap();
    }

    let full: Vec<f64> = (0..37).map(|i| i as f64 * 0.5).collect();
    let negated: Vec<f64> = full.iter().map(|v| -v).collect();
    let client = ClientGroup::create(&orb, host, 2);
    World::run(2, |rank| {
        let t = rank.rank();
        let ct = client.attach(t, Some(Arc::new(MpiRts::new(rank))));
        let comm = ct.start_comm_thread();
        let proxy = ct.spmd_bind("neg1").unwrap();
        let x = DSequence::distribute(&full, Distribution::Block, 2, t);
        let want = DSequence::distribute(&negated, Distribution::Block, 2, t);
        for i in 0..20 {
            let inv =
                proxy.call("neg").dseq_in(&x).dseq_out(Distribution::Block).invoke_nb().unwrap();
            let got: DSequence<f64> = inv.dseq_future(0).get().unwrap();
            assert_eq!(got.local(), want.local(), "call {i}, client thread {t}");
        }
        comm.stop();
    });
    group.shutdown();
    server.join().unwrap();
}

/// Doubles its argument once the test lets it, so the reply lands while
/// the caller is waiting.
struct HeldDoubler(std::sync::Mutex<std::sync::mpsc::Receiver<()>>);

impl Servant for HeldDoubler {
    fn interface(&self) -> &str {
        "doubler"
    }
    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        self.0.lock().unwrap().recv().map_err(|e| e.to_string())?;
        Doubler.dispatch(req)
    }
}

/// A thread blocks in `wait` on an invocation while a comm thread pumps the
/// same endpoint. The servant answers once the waiter has counted itself
/// and is on its way to park; the comm thread and the waiter then race for
/// the reply frame, and when the comm thread wins it completes the
/// invocation and must wake the parked waiter. Under a 30-s timeout every
/// wait returns within 50 ms. Under `PARDIS_AUDIT=1` the run must also leave
/// the concurrency auditor with zero findings.
fn comm_thread_wakes_a_parked_waiter(name: &str, wait: fn(InvocationHandle) -> i64) {
    pardis_audit::env_requested();
    let (orb, host) = Orb::single_host();
    orb.set_local_bypass(false);
    orb.set_timeout(Duration::from_secs(30));
    let (release, held) = std::sync::mpsc::channel();
    let group = ServerGroup::create(&orb, "doubler", host, 1);
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let server = {
        let group = group.clone();
        let name = name.to_string();
        std::thread::spawn(move || {
            let mut poa = group.attach(0, None);
            poa.activate_single(&name, Arc::new(HeldDoubler(std::sync::Mutex::new(held))));
            ready_tx.send(()).unwrap();
            poa.impl_is_ready();
        })
    };
    ready_rx.recv().unwrap();

    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let comm = client.start_comm_thread();
    let proxy = client.bind(name).unwrap();
    for i in 0..200i64 {
        let inv = proxy.call("x").arg(&i).invoke_nb().unwrap();
        let waiters = inv.waiters_probe();
        std::thread::scope(|s| {
            let waiter = s.spawn(move || {
                let t0 = std::time::Instant::now();
                (wait(inv), t0.elapsed())
            });
            while waiters() == 0 {
                std::thread::yield_now();
            }
            release.send(()).unwrap();
            let (got, took) = waiter.join().unwrap();
            assert_eq!(got, 2 * i);
            assert!(took < Duration::from_millis(50), "call {i}: the wait took {took:?}");
        });
    }
    comm.stop();
    group.shutdown();
    server.join().unwrap();
    pardis_audit::enforce_env();
}

#[test]
fn comm_thread_wakes_a_thread_parked_in_wait() {
    comm_thread_wakes_a_parked_waiter("held1", |inv| inv.wait().unwrap().scalar(0).unwrap());
}

#[test]
fn comm_thread_wakes_a_thread_parked_in_future_get() {
    comm_thread_wakes_a_parked_waiter("held2", |inv| {
        let fut: PFuture<i64> = inv.scalar_future(0);
        fut.get().unwrap()
    });
}

#[test]
fn dropping_the_handle_stops_the_thread() {
    let (orb, host) = Orb::single_host();
    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let comm = client.start_comm_thread();
    drop(comm); // must join without hanging
}
