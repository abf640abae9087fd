//! An invocation's record lives as long as its holders — the handle and the
//! futures minted from it — and no longer: the client forgets a completed
//! invocation once the last holder is gone, and keeps routing and
//! retransmitting one dropped before it completed until its reply lands.
//!
//! The client closes an invocation's `client.invoke` trace span at the
//! moment it forgets the invocation, so the traces below count what the
//! client still remembers. The obs layer is process-global, so the tests
//! serialise on one mutex.

use pardis::core::{ClientGroup, Orb, Servant, ServerGroup, ServerReply, ServerRequest};
use pardis::core::{TraceReport, TraceSession};
use pardis::netsim::{FaultPlan, Link, Network, TimeScale};
use pardis::obs::Phase;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

struct Doubler {
    hits: Arc<AtomicU64>,
}

impl Servant for Doubler {
    fn interface(&self) -> &str {
        "doubler"
    }
    fn dispatch(&self, req: ServerRequest<'_>) -> Result<ServerReply, String> {
        self.hits.fetch_add(1, Ordering::SeqCst);
        let x: i64 = req.scalar(0).map_err(|e| e.to_string())?;
        let mut rep = ServerReply::new();
        rep.push_scalar(&(2 * x));
        Ok(rep)
    }
}

/// The `client.invoke` span events of request `req_id` (any request when
/// `None`) with phase `phase`.
fn invoke_spans(report: &TraceReport, phase: Phase, req_id: Option<u64>) -> usize {
    report
        .threads
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.name == "client.invoke" && e.phase == phase)
        .filter(|e| req_id.is_none_or(|id| e.key.is_some_and(|(_, r)| r == id)))
        .count()
}

/// A client host and a server host joined by `link`, one doubler served
/// on the server host: the network, the ORB and the servant's hit count.
fn serve(
    link: Link,
    plan: Option<FaultPlan>,
) -> (Orb, ServerGroup, std::thread::JoinHandle<()>, Arc<AtomicU64>) {
    let net = Network::new(TimeScale::off());
    let ch = net.add_host("client");
    let sh = net.add_host("server");
    net.connect(ch, sh, link);
    net.set_fault_plan(plan);
    let orb = Orb::new(net);
    let hits = Arc::new(AtomicU64::new(0));
    let group = ServerGroup::create(&orb, "doubler", sh, 1);
    let (g, h) = (group.clone(), hits.clone());
    let server = std::thread::spawn(move || {
        let mut poa = g.attach(0, None);
        poa.activate_single("doubler", Arc::new(Doubler { hits: h }));
        poa.impl_is_ready();
    });
    (orb, group, server, hits)
}

#[test]
fn futures_read_alone_leave_no_invocation_behind() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (orb, group, server, _) = serve(Link::new(0.0, 1.0e9, 0.0), None);
    let client =
        ClientGroup::create(&orb, orb.network().host_by_name("client").unwrap(), 1).attach(0, None);
    let proxy = client.bind("doubler").unwrap();

    let session = TraceSession::start(&orb);
    for i in 0..1_000i64 {
        // The handle is gone at the end of this statement: only the future
        // holds the invocation while it is read.
        let future = proxy.call("double").arg(&i).invoke_nb().unwrap().scalar_future::<i64>(0);
        assert_eq!(future.get().unwrap(), 2 * i);
    }
    pardis::core::quiesce_endpoints(&[&client]);
    let report = session.finish();

    assert_eq!(invoke_spans(&report, Phase::Begin, None), 1_000);
    assert_eq!(
        invoke_spans(&report, Phase::End, None),
        1_000,
        "every invocation read through its future alone must be forgotten once the future goes"
    );
    group.shutdown();
    server.join().unwrap();
}

#[test]
fn a_dropped_handle_is_retransmitted_until_its_reply_lands() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // 5 ms of modelled latency per frame and the link down for the first
    // 40 ms: both calls' first controls are lost, and the blocking call's
    // backoff walks the client's clock out of the window.
    let plan = FaultPlan::new(7).with_down_window(0.0, 0.04);
    let (orb, group, server, hits) = serve(Link::new(0.005, 1.0e9, 0.0), Some(plan));
    orb.set_retry_limit(50);
    orb.set_retry_base(Duration::from_millis(1));
    let client =
        ClientGroup::create(&orb, orb.network().host_by_name("client").unwrap(), 1).attach(0, None);
    let proxy = client.bind("doubler").unwrap();

    let session = TraceSession::start(&orb);
    let lost = proxy.call("double").arg(&1i64).invoke_nb().unwrap();
    drop(lost);
    let reply = proxy.call("double").arg(&2i64).invoke().unwrap();
    assert_eq!(reply.scalar::<i64>(0).unwrap(), 4);
    pardis::core::quiesce_endpoints(&[&client]);
    let report = session.finish();

    assert!(orb.retransmits() >= 1, "the down window must have forced retries");
    assert_eq!(
        hits.load(Ordering::SeqCst),
        2,
        "the invocation whose handle was dropped must still reach the server"
    );
    assert_eq!(invoke_spans(&report, Phase::Begin, Some(0)), 1);
    assert_eq!(
        invoke_spans(&report, Phase::End, Some(0)),
        1,
        "the dropped invocation must be forgotten once its reply lands"
    );
    assert_eq!(invoke_spans(&report, Phase::End, Some(1)), 1);

    orb.network().set_fault_plan(None);
    group.shutdown();
    server.join().unwrap();
}
