//! Loom models of the ORB core's hottest synchronization protocols.
//!
//! Each model re-states a protocol from `pardis-core` in loom primitives
//! and asserts its invariant under explored interleavings:
//!
//! 1. **Reply-table rendezvous** (`client.rs`): a waiter registers an
//!    invocation slot in the router table; the pump routes a reply into
//!    the slot; the waiter observes it exactly once and unregisters.
//! 2. **Arc-swap endpoint republish vs. concurrent `send_wire`**
//!    (`orb.rs`/`publish.rs`): a publisher installs a new endpoint
//!    snapshot while senders load; a sender must observe a complete
//!    snapshot of *some* generation, never a torn one.
//! 3. **Sleeper-counted wake-up** (`pardis-audit`'s `AuditCondvar`): a
//!    waiter counts itself while it holds the mutex, then parks; a
//!    notifier changes the state under the mutex and, after unlocking,
//!    notifies only if it reads a nonzero count. The waiter always wakes.
//! 4. **A wake two queues share** (`pardis-audit`'s `SharedWake`): a waiter
//!    counts itself, then looks at both queues with the wake's lock held
//!    and parks; each pusher pushes under its queue's lock and, after
//!    unlocking, takes the wake's lock and notifies only if it reads a
//!    nonzero count. The waiter always sees both pushes.
//!
//! The in-tree `loom` stand-in explores seeded randomized interleavings
//! (see `vendor/loom`); against the real crate these same tests run under
//! exhaustive model checking.

use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use std::collections::HashMap;

/// Protocol 1: reply-table rendezvous. The waiter's slot, registered
/// under the router lock, receives the reply exactly once; unregistration
/// leaves the table empty.
#[test]
fn reply_table_rendezvous() {
    loom::model(|| {
        type Slot = Arc<Mutex<Option<u32>>>;
        let router: Arc<Mutex<HashMap<u64, Slot>>> = Arc::new(Mutex::new(HashMap::new()));

        let waiter_router = router.clone();
        let waiter = loom::thread::spawn(move || {
            let slot: Slot = Arc::new(Mutex::new(None));
            waiter_router.lock().unwrap().insert(1, slot.clone());
            // Rendezvous: wait for the pump to route the reply in.
            let got = loop {
                if let Some(v) = *slot.lock().unwrap() {
                    break v;
                }
                loom::thread::yield_now();
            };
            let removed = waiter_router.lock().unwrap().remove(&1);
            assert!(removed.is_some(), "waiter unregisters its own slot");
            got
        });

        let pump_router = router.clone();
        let pump = loom::thread::spawn(move || loop {
            let slot = pump_router.lock().unwrap().get(&1).cloned();
            if let Some(slot) = slot {
                let prev = slot.lock().unwrap().replace(42);
                assert_eq!(prev, None, "a reply is routed exactly once");
                break;
            }
            loom::thread::yield_now();
        });

        pump.join().unwrap();
        assert_eq!(waiter.join().unwrap(), 42);
        assert!(router.lock().unwrap().is_empty(), "table empty after rendezvous");
    });
}

/// Protocol 2: endpoint republish vs. concurrent send. Generation `g`'s
/// snapshot is fully constructed before `g` is published; a sender that
/// loads `g` must find the complete snapshot for `g`.
#[test]
fn republish_vs_concurrent_send_wire() {
    loom::model(|| {
        // `snapshots` plays the retired-snapshot keeper; `current` is the
        // Arc-swap pointer (a generation id here).
        let snapshots: Arc<Mutex<HashMap<u64, Vec<u64>>>> = Arc::new(Mutex::new(HashMap::new()));
        let current = Arc::new(AtomicU64::new(0));
        snapshots.lock().unwrap().insert(0, vec![0; 3]);

        let pub_snaps = snapshots.clone();
        let pub_cur = current.clone();
        let publisher = loom::thread::spawn(move || {
            for generation in 1..=3u64 {
                // Build the whole table, install it, then swap the pointer.
                pub_snaps.lock().unwrap().insert(generation, vec![generation; 3]);
                pub_cur.store(generation, Ordering::Release);
            }
        });

        let send_snaps = snapshots.clone();
        let send_cur = current.clone();
        let sender = loom::thread::spawn(move || {
            for _ in 0..4 {
                let generation = send_cur.load(Ordering::Acquire);
                let table = send_snaps
                    .lock()
                    .unwrap()
                    .get(&generation)
                    .cloned()
                    .expect("published generation has an installed snapshot");
                assert_eq!(table, vec![generation; 3], "snapshot is never torn");
            }
        });

        publisher.join().unwrap();
        sender.join().unwrap();
        assert_eq!(current.load(Ordering::Acquire), 3);
    });
}

/// Protocol 3: the sleeper-counted wake-up. The notify is skipped when the
/// count reads 0, so a lost wake-up would leave the waiter parked for
/// good: the model runs on a watchdog thread, and a model that has not
/// finished in 60 s fails the test instead of hanging it.
#[test]
fn sleeper_counted_notify_always_wakes_the_waiter() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let model = std::thread::spawn(move || {
        loom::model(|| {
            let shared = Arc::new((Mutex::new(false), Condvar::new(), AtomicUsize::new(0)));

            let waiter_shared = shared.clone();
            let woke = Arc::new(AtomicBool::new(false));
            let waiter_woke = woke.clone();
            let waiter = loom::thread::spawn(move || {
                let (state, cv, sleepers) = &*waiter_shared;
                let mut ready = state.lock().unwrap();
                while !*ready {
                    // Counted under the mutex, before the wait releases it.
                    sleepers.fetch_add(1, Ordering::SeqCst);
                    ready = cv.wait(ready).unwrap();
                    sleepers.fetch_sub(1, Ordering::SeqCst);
                }
                waiter_woke.store(true, Ordering::SeqCst);
            });

            let notifier_shared = shared.clone();
            let notifier = loom::thread::spawn(move || {
                let (state, cv, sleepers) = &*notifier_shared;
                *state.lock().unwrap() = true;
                // Read after unlocking: the gate a notify with nobody parked
                // takes.
                if sleepers.load(Ordering::SeqCst) > 0 {
                    cv.notify_all();
                }
            });

            notifier.join().unwrap();
            waiter.join().unwrap();
            assert!(woke.load(Ordering::SeqCst), "the waiter saw the state change");
            assert_eq!(shared.2.load(Ordering::SeqCst), 0, "the waiter uncounted itself");
        });
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(std::time::Duration::from_secs(60)).is_ok(),
        "a waiter stayed parked: a wake-up was lost"
    );
    model.join().unwrap();
}

/// Protocol 4: the wake two queues share. One pusher per queue; the waiter
/// parks until it has seen an item in each. A lost wake-up leaves it parked
/// for good, so the model runs on a watchdog as protocol 3's does.
#[test]
fn shared_wake_sees_a_push_to_either_queue() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let model = std::thread::spawn(move || {
        loom::model(|| {
            let wake = Arc::new((Mutex::new(()), Condvar::new(), AtomicUsize::new(0)));
            let queues = Arc::new([Mutex::new(0u32), Mutex::new(0u32)]);

            let (waiter_wake, waiter_queues) = (wake.clone(), queues.clone());
            let waiter = loom::thread::spawn(move || {
                let (lock, cv, waiting) = &*waiter_wake;
                let mut held = lock.lock().unwrap();
                // Counted before the look, while the wake's lock is held.
                waiting.fetch_add(1, Ordering::SeqCst);
                while waiter_queues.iter().any(|q| *q.lock().unwrap() == 0) {
                    held = cv.wait(held).unwrap();
                }
                waiting.fetch_sub(1, Ordering::SeqCst);
            });

            let pushers: Vec<_> = (0..2)
                .map(|i| {
                    let (wake, queues) = (wake.clone(), queues.clone());
                    loom::thread::spawn(move || {
                        *queues[i].lock().unwrap() += 1;
                        let (lock, cv, waiting) = &*wake;
                        // Read after the push: the gate a push nobody waits
                        // for takes.
                        if waiting.load(Ordering::SeqCst) > 0 {
                            drop(lock.lock().unwrap());
                            cv.notify_all();
                        }
                    })
                })
                .collect();

            for pusher in pushers {
                pusher.join().unwrap();
            }
            waiter.join().unwrap();
            assert_eq!(wake.2.load(Ordering::SeqCst), 0, "the waiter uncounted itself");
        });
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(std::time::Duration::from_secs(60)).is_ok(),
        "the waiter stayed parked: a wake-up was lost"
    );
    model.join().unwrap();
}
