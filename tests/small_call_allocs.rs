//! What a small blocking call allocates, counted.
//!
//! One client thread makes blocking `i64 -> i64` calls on one single-threaded
//! server over a network with no delay injection. After a warm-up (tables
//! grown, caches full), the process-wide allocation count over 1 000 calls
//! must stay at what the small-call path was cut to (DESIGN.md §4.5), with
//! one allocation per call of slack. The counter is process-wide, so this
//! binary holds this one test only.

use pardis::core::{ClientGroup, Orb, Servant, ServerGroup, ServerReply, ServerRequest};
use pardis::netsim::{LinkPreset, Network, TimeScale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Allocations (fresh or grown) since the process started.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches one atomic only,
// so it cannot allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` come from a previous call on this
        // allocator, which handed them to `System` unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations per blocking call the small-call path makes: client,
/// adapter and servant together (DESIGN.md §4.5).
const ALLOCS_PER_CALL: f64 = 15.0;

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

#[test]
fn a_small_blocking_call_allocates_what_it_was_cut_to() {
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
    let proxy = client.bind("doubler").expect("bind");
    let call = |x: i64| {
        let reply = proxy.call("double").arg(&x).invoke().expect("invoke");
        assert_eq!(reply.scalar::<i64>(0).expect("result"), 2 * x);
    };

    // Warm-up: past the reply cache's capacity, so it evicts as it records.
    for x in 0..3_000 {
        call(x);
    }
    const CALLS: i64 = 1_000;
    let before = ALLOCS.load(Ordering::Relaxed);
    for x in 0..CALLS {
        call(x);
    }
    let per_call = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / CALLS as f64;
    println!("allocations per call: {per_call:.2}");

    drop(proxy);
    drop(client);
    group.shutdown();
    server.join().expect("server thread");
    assert!(
        per_call <= ALLOCS_PER_CALL + 1.0,
        "{per_call:.2} allocations per call, cut to {ALLOCS_PER_CALL}"
    );
}
