//! An idle ORB sleeps: no thread wakes up unless a frame, a deadline or a
//! stop asks it to.
//!
//! One single-threaded server, one client after one call, and the client's
//! communication thread sit idle for 300 ms. The voluntary context switches
//! of every thread of the process, summed from `/proc/self/task/*/status`,
//! must stay at a handful over that time: an adapter or a pump that polled
//! in 200 µs slices would make thousands. The count is process-wide, so this
//! binary holds this one test only. Under `PARDIS_AUDIT=1` the run must
//! also leave the concurrency auditor with zero findings.
#![cfg(target_os = "linux")]

use pardis::core::{ClientGroup, Orb, Servant, ServerGroup, ServerReply, ServerRequest};
use pardis::netsim::{LinkPreset, Network, TimeScale};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Voluntary context switches an idle process may make in the window: the
/// test thread's own sleep and a few stray wake-ups.
const IDLE_SWITCHES: u64 = 20;

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

/// `voluntary_ctxt_switches` of every thread of this process, by thread id.
fn voluntary_switches() -> HashMap<String, u64> {
    let mut out = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs lists this process's threads") {
        let task = task.expect("a task entry");
        // A thread that exits between the listing and the read is skipped.
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else { continue };
        let switches = status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|n| n.trim().parse().ok())
            .expect("status reports voluntary_ctxt_switches");
        out.insert(task.file_name().to_string_lossy().into_owned(), switches);
    }
    out
}

#[test]
fn an_idle_orb_makes_no_wakeups() {
    pardis::audit::env_requested();
    let net = Network::new(TimeScale::off());
    let client_host = net.add_host("client");
    let server_host = net.add_host("server");
    net.connect(client_host, server_host, LinkPreset::Ethernet10.link());
    let orb = Orb::new(net);
    let group = ServerGroup::create(&orb, "doubler", server_host, 1);
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let server = {
        let group = group.clone();
        std::thread::spawn(move || {
            let mut poa = group.attach(0, None);
            poa.activate_single("doubler", Arc::new(Doubler));
            ready_tx.send(()).expect("the test waits for activation");
            poa.impl_is_ready();
        })
    };
    ready_rx.recv().expect("the server activates its object");
    let client = ClientGroup::create(&orb, client_host, 1).attach(0, None);
    let comm = client.start_comm_thread();
    let proxy = client.bind("doubler").expect("bind");
    let reply = proxy.call("double").arg(&21i64).invoke().expect("invoke");
    assert_eq!(reply.scalar::<i64>(0).expect("result"), 42);

    let before = voluntary_switches();
    std::thread::sleep(Duration::from_millis(300));
    let after = voluntary_switches();
    let woke: u64 =
        after.iter().map(|(tid, n)| n.saturating_sub(before.get(tid).copied().unwrap_or(0))).sum();
    println!("voluntary context switches over 300 ms idle: {woke}");

    comm.stop();
    drop(proxy);
    drop(client);
    group.shutdown();
    server.join().expect("server thread");
    assert!(woke <= IDLE_SWITCHES, "{woke} voluntary context switches in 300 ms of idling");
    pardis::audit::enforce_env();
}
