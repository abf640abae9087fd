//! Lock-free publication of immutable snapshots.
//!
//! [`Published<T>`] holds a snapshot that readers borrow with a single
//! atomic load, no lock acquisition and no reference-count write — the
//! mechanism behind the steady-state zero-lock guarantee of frame routing
//! ([`crate::Network`]'s topology snapshot and the ORB's endpoint table).
//! Writers install a whole new snapshot; readers that raced keep borrowing
//! the old one, which stays alive.
//!
//! Reclamation is deliberately deferred: every snapshot ever stored stays
//! alive until the `Published` itself drops, which is what makes the
//! unsynchronised pointer read safe without epochs or hazard pointers.
//! Memory therefore grows with the number of *stores*, not reads — fine for
//! topologies and endpoint tables, which mutate during setup and then go
//! read-only.

use pardis_audit::{lock_site, AuditMutex};
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

/// An atomically swappable, lock-free-readable `Arc<T>` slot.
pub struct Published<T> {
    /// Raw pointer of the current snapshot. Always points into one of the
    /// `Arc`s retained in `kept`, so it can never dangle.
    current: AtomicPtr<T>,
    /// Every snapshot ever stored (including the current one). Drained only
    /// when the `Published` drops.
    kept: AuditMutex<Vec<Arc<T>>>,
}

impl<T> Published<T> {
    /// Publish an initial snapshot.
    pub fn new(value: T) -> Published<T> {
        let arc = Arc::new(value);
        let ptr = Arc::as_ptr(&arc) as *mut T;
        Published {
            current: AtomicPtr::new(ptr),
            kept: AuditMutex::new(lock_site!("publish: retained snapshots"), vec![arc]),
        }
    }

    /// Borrow the current snapshot without acquiring any lock or touching
    /// its reference count: every snapshot lives as long as the
    /// `Published`, so the borrow can last as long as `self`'s. Readers on
    /// hot paths use this, so that looking a table up writes no shared
    /// cache line.
    pub fn read(&self) -> &T {
        pardis_audit::load_published(self as *const _ as *const () as usize);
        let ptr = self.current.load(Ordering::Acquire);
        // SAFETY: `ptr` was produced by `Arc::as_ptr` on an `Arc` that `kept`
        // retains until `self` drops, and nothing mutates a stored snapshot,
        // so the pointee is alive and shared-immutable for the lifetime of
        // `&self`.
        unsafe { &*ptr }
    }

    /// Install a new snapshot. Readers switch over atomically; borrows of
    /// the previous snapshot stay valid.
    pub fn store(&self, value: T) {
        let arc = Arc::new(value);
        let ptr = Arc::as_ptr(&arc) as *mut T;
        let mut kept = self.kept.lock();
        kept.push(arc);
        // Record the happens-before edge before the pointer swap: no reader
        // can observe the new snapshot without the publish clock already
        // holding everything this thread did.
        pardis_audit::publish(self as *const _ as *const () as usize);
        self.current.store(ptr, Ordering::Release);
    }

    /// Number of snapshots retained (diagnostics; grows by one per store).
    pub fn generations(&self) -> usize {
        self.kept.lock().len()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Published<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Published").field("current", self.read()).finish()
    }
}
