//! `rpc_small` — the smallest message, pipelined.
//!
//! One client thread keeps [`DEPTH`] non-blocking invocations of
//! `i64 -> 2·i64` outstanding against one single-threaded server across an
//! `Ethernet10` link. The payload is eight bytes, so what is measured is
//! the per-message cost of the client (launch, router, pump), the protocol
//! frames, the POA and the network model; bulk marshaling, transfer
//! planning, sequences and the run-time system do nothing.

use super::{close_out, drive_pipelined, mix, orb_probe, SessionOut, Workload};
use crate::harness::{Budget, Driver};
use crate::trace;
use pardis::core::{ClientGroup, Orb, Servant, ServerGroup, ServerReply, ServerRequest};
use pardis::netsim::{LinkPreset, Network, TimeScale};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Invocations kept outstanding: enough that neither the client thread nor
/// the server thread ever sleeps, which is what makes the run repeat (a
/// depth-1 loop is a sleep/wake hand-off whose speed depends on whether the
/// two threads share a vCPU).
const DEPTH: usize = 16;

pub const WORKLOAD: Workload = Workload {
    name: "rpc_small",
    seg_ops: 64_000,
    cold_ops: 1,
    layer_elems: 1024,
    trace_every: 8,
    run,
};

struct Doubler {
    served: AtomicU64,
}

impl Servant for Doubler {
    fn interface(&self) -> &str {
        "doubler"
    }

    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        // One client entity's requests are dispatched in issue order, so
        // the count of requests served is the client's operation id.
        trace::set_op(self.served.fetch_add(1, Ordering::Relaxed));
        let x: i64 = {
            let _s = trace::span("servant.unmarshal");
            req.scalar(0).map_err(|e| e.to_string())?
        };
        let y = {
            let _s = trace::span("servant.compute");
            2 * x
        };
        let _s = trace::span("servant.reply_build");
        let mut rep = ServerReply::new();
        rep.push_scalar(&y);
        Ok(rep)
    }
}

/// Input number `id` of the seeded stream, small enough to double.
fn input(seed: u64, id: u64) -> i64 {
    (mix(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 2) as i64
}

fn run(seed: u64, budget: Budget) -> SessionOut {
    let net = Network::new(TimeScale::off());
    let client_host = net.add_host("client");
    let server_host = net.add_host("server");
    net.connect(client_host, server_host, LinkPreset::Ethernet10.link());
    let orb = Orb::new(net.clone());
    let drv = Arc::new(Driver::new(WORKLOAD.seg_ops, budget, orb_probe(&orb)));

    let group = ServerGroup::create(&orb, "rpc-small-server", server_host, 1);
    let (ready_tx, ready_rx) = mpsc::channel();
    let server = {
        let (group, drv) = (group.clone(), drv.clone());
        std::thread::spawn(move || {
            trace::label_thread("server/0");
            let mut poa = group.attach(0, None);
            poa.activate_single("doubler", Arc::new(Doubler { served: AtomicU64::new(0) }));
            drv.register_server_thread();
            ready_tx.send(()).expect("client waits for the server");
            poa.impl_is_ready();
            trace::flush_thread();
        })
    };

    trace::label_thread("client/0");
    let client = ClientGroup::create(&orb, client_host, 1).attach(0, None);
    ready_rx.recv().expect("server thread activates its object");
    let bind_started = Instant::now();
    let proxy = client.bind("doubler").expect("bind to the doubler");
    let bind_us = bind_started.elapsed().as_secs_f64() * 1e6;

    let mut lane = drv.lane(0);
    drive_pipelined(
        &mut lane,
        DEPTH,
        |_| {},
        |id| proxy.call("double").arg(&input(seed, id)).invoke_nb(),
        |id, reply| reply.scalar::<i64>(0).is_ok_and(|y| y == 2 * input(seed, id)),
    );
    let lanes = vec![lane.finish()];
    drop(proxy);
    drop(client);
    trace::flush_thread();

    group.shutdown();
    server.join().expect("server thread");
    close_out(bind_us, &net, orb.retransmits(), &drv, lanes)
}
