//! Load & concurrency suite for the request core: many client threads,
//! each with its own reply router, hammering one server all get their own
//! answers back.
//!
//! Tests serialise on one mutex and run under the audit scope, so
//! `PARDIS_AUDIT=1 cargo test --test load` turns the suite into a
//! concurrency-audit gate.

use pardis::core::{ClientGroup, Orb, Servant, ServerGroup, ServerReply, ServerRequest};
use pardis::netsim::{LinkPreset, Network, TimeScale};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

static SERIAL: Mutex<()> = Mutex::new(());

/// Suite serialisation plus an audit scope: each test starts with a clean
/// concurrency auditor, and under `PARDIS_AUDIT=1` fails at teardown if its
/// workload produced any lock-order, race or hazard finding.
struct Serial(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

impl Drop for Serial {
    fn drop(&mut self) {
        if std::thread::panicking() {
            pardis::audit::reset();
        } else {
            pardis::audit::enforce_env();
        }
    }
}

fn serial() -> Serial {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    pardis::audit::reset();
    pardis::audit::env_requested();
    Serial(guard)
}

/// `bump(x) -> 2x` with an observable side effect, so every execution is
/// counted and every reply is attributable to its request.
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

fn spawn_bumper(
    orb: &Orb,
    host: pardis::netsim::HostId,
    name: &str,
) -> (ServerGroup, std::thread::JoinHandle<()>, Arc<AtomicU64>) {
    let hits = Arc::new(AtomicU64::new(0));
    let group = ServerGroup::create(orb, "bump-server", host, 1);
    let g = group.clone();
    let h = hits.clone();
    let name = name.to_string();
    let server = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single(&name, Arc::new(Bumper { hits: h }));
        poa.impl_is_ready();
    });
    (group, server, hits)
}

/// Many concurrent single-thread clients against one server: each
/// client's router keeps every reply attributed to its own invocation.
#[test]
fn concurrent_clients() {
    let _s = serial();
    let net = Network::new(TimeScale::off());
    let ch = net.add_host("clients");
    let sh = net.add_host("server");
    net.connect(ch, sh, LinkPreset::Ethernet10.link());
    let orb = Orb::new(net);

    let (group, server, hits) = spawn_bumper(&orb, sh, "bump_many");
    let nclients = 8usize;
    let per_client = 40usize;
    let mut workers = Vec::new();
    for c in 0..nclients {
        let orb = orb.clone();
        workers.push(std::thread::spawn(move || {
            let client = ClientGroup::create(&orb, ch, 1).attach(0, None);
            let proxy = client.bind("bump_many").unwrap();
            let mut got = Vec::new();
            for i in 0..per_client {
                let x = (c * per_client + i) as i64;
                got.push((
                    x,
                    proxy.call("bump").arg(&x).invoke().unwrap().scalar::<i64>(0).unwrap(),
                ));
            }
            got
        }));
    }
    for w in workers {
        for (x, y) in w.join().unwrap() {
            assert_eq!(y, 2 * x, "reply routed to the wrong invocation");
        }
    }
    assert_eq!(hits.load(Ordering::SeqCst), (nclients * per_client) as u64);
    group.shutdown();
    server.join().unwrap();
}
