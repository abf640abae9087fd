//! The workspace's synchronization primitives: audited locks, a condvar,
//! and one blocking queue, all over `std::sync`.
//!
//! Every lock, condvar and blocking queue on the runtime path (ORB, RTS,
//! netsim, protocol checker) is one of these, so the auditor sees them
//! all. The locks hand out guards directly (`lock()` returns the guard,
//! `try_lock()` an `Option`, `AuditCondvar::wait` takes `&mut guard`), and
//! the constructors are `const` so a lock can live in a static. Three
//! behaviours are layered on top of `std::sync`:
//!
//! * **Poison recovery** (always on): a poisoned guard is recovered via
//!   [`std::sync::PoisonError::into_inner`] instead of cascading the
//!   panic across ORB threads, and the `lock.poisoned` obs counter is
//!   bumped so the event is visible in metrics even with auditing off.
//! * **Audit hooks** (behind the gate): acquisition/release bookkeeping
//!   feeds the lock-order graph, the vector-clock engine and the hazard
//!   detectors in [`crate::core`]. With the gate off the only cost is one
//!   relaxed atomic load per operation.
//! * **Sleeper counting** (always on): an [`AuditCondvar`] counts the
//!   threads parked on it, and a notify with none parked returns after one
//!   atomic load instead of making a `futex` call. A waiter counts itself
//!   while it still holds the mutex, so a notifier that changes the state
//!   under that mutex and notifies afterwards always sees it.
//!
//! Whether a given guard participates in auditing is decided at
//! *acquisition* and remembered in the guard, so a gate flip mid-hold
//! never unbalances the held-lock stack.

use crate::core::{self, Acq};
use crate::Site;
use std::collections::VecDeque;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn recover<G>(r: Result<G, std::sync::PoisonError<G>>, site: &'static Site) -> G {
    r.unwrap_or_else(|e| {
        pardis_obs::counter("lock.poisoned").inc();
        if crate::enabled() {
            core::on_poison_recovered(site);
        }
        e.into_inner()
    })
}

/// A mutex whose acquisitions are tagged with a static [`Site`] and fed to
/// the audit engine when the gate is on.
pub struct AuditMutex<T> {
    site: &'static Site,
    inner: std::sync::Mutex<T>,
}

impl<T> AuditMutex<T> {
    /// Wrap `value`; `site` (from [`crate::lock_site!`]) names every
    /// acquisition of this lock in findings. `const` so audited locks can
    /// live in statics.
    pub const fn new(site: &'static Site, value: T) -> AuditMutex<T> {
        AuditMutex { site, inner: std::sync::Mutex::new(value) }
    }

    fn instance(&self) -> usize {
        &self.inner as *const _ as usize
    }

    /// Acquire, blocking; recovers poisoned guards (recording
    /// `lock.poisoned`) instead of panicking.
    pub fn lock(&self) -> AuditMutexGuard<'_, T> {
        let guard = recover(self.inner.lock(), self.site);
        let audited = crate::enabled();
        if audited {
            core::on_locked(self.site, self.instance(), Acq::Write);
        }
        AuditMutexGuard { lock: self, guard: Some(guard), audited }
    }

    /// Try to acquire without blocking.
    pub fn try_lock(&self) -> Option<AuditMutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => {
                let audited = crate::enabled();
                if audited {
                    core::on_locked(self.site, self.instance(), Acq::Write);
                }
                Some(AuditMutexGuard { lock: self, guard: Some(guard), audited })
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
            Err(std::sync::TryLockError::Poisoned(e)) => {
                pardis_obs::counter("lock.poisoned").inc();
                let audited = crate::enabled();
                if audited {
                    core::on_poison_recovered(self.site);
                    core::on_locked(self.site, self.instance(), Acq::Write);
                }
                Some(AuditMutexGuard { lock: self, guard: Some(e.into_inner()), audited })
            }
        }
    }

    /// Exclusive access without locking (no audit hooks: `&mut self`
    /// proves no concurrency).
    pub fn get_mut(&mut self) -> &mut T {
        let site = self.site;
        recover(self.inner.get_mut(), site)
    }

    /// Consume the mutex, returning the value.
    pub fn into_inner(self) -> T {
        let site = self.site;
        recover(self.inner.into_inner(), site)
    }
}

impl<T: fmt::Debug> fmt::Debug for AuditMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuditMutex").field("site", &self.site.label).finish_non_exhaustive()
    }
}

/// Guard for [`AuditMutex`]; release bookkeeping runs on drop when the
/// acquisition was audited.
pub struct AuditMutexGuard<'a, T> {
    lock: &'a AuditMutex<T>,
    /// `Option` so [`AuditCondvar::wait`] can hand the inner guard to the
    /// condvar and reinstall the re-acquired one.
    guard: Option<std::sync::MutexGuard<'a, T>>,
    audited: bool,
}

impl<T> Deref for AuditMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present outside wait")
    }
}

impl<T> DerefMut for AuditMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present outside wait")
    }
}

impl<T> Drop for AuditMutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.audited {
            core::on_unlocked(self.lock.site, self.lock.instance());
        }
    }
}

/// The lock-instance id behind a guard — the engine's re-entrancy key.
/// Test-only: lets the suite drive a synthetic second acquisition of a
/// held instance without actually self-deadlocking on the std mutex.
#[cfg(test)]
pub(crate) fn guard_instance<T>(guard: &AuditMutexGuard<'_, T>) -> usize {
    guard.lock.instance()
}

/// A reader-writer lock whose acquisitions are tagged with a static
/// [`Site`] and fed to the audit engine when the gate is on.
pub struct AuditRwLock<T> {
    site: &'static Site,
    inner: std::sync::RwLock<T>,
}

impl<T> AuditRwLock<T> {
    /// Wrap `value`; see [`AuditMutex::new`].
    pub const fn new(site: &'static Site, value: T) -> AuditRwLock<T> {
        AuditRwLock { site, inner: std::sync::RwLock::new(value) }
    }

    fn instance(&self) -> usize {
        &self.inner as *const _ as usize
    }

    /// Acquire shared, blocking; recovers poison.
    pub fn read(&self) -> AuditReadGuard<'_, T> {
        let guard = recover(self.inner.read(), self.site);
        let audited = crate::enabled();
        if audited {
            core::on_locked(self.site, self.instance(), Acq::Read);
        }
        AuditReadGuard { lock: self, guard, audited }
    }

    /// Acquire exclusive, blocking; recovers poison.
    pub fn write(&self) -> AuditWriteGuard<'_, T> {
        let guard = recover(self.inner.write(), self.site);
        let audited = crate::enabled();
        if audited {
            core::on_locked(self.site, self.instance(), Acq::Write);
        }
        AuditWriteGuard { lock: self, guard, audited }
    }

    /// Exclusive access without locking (no audit hooks).
    pub fn get_mut(&mut self) -> &mut T {
        let site = self.site;
        recover(self.inner.get_mut(), site)
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        let site = self.site;
        recover(self.inner.into_inner(), site)
    }
}

impl<T: fmt::Debug> fmt::Debug for AuditRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuditRwLock").field("site", &self.site.label).finish_non_exhaustive()
    }
}

/// Shared guard for [`AuditRwLock`].
pub struct AuditReadGuard<'a, T> {
    lock: &'a AuditRwLock<T>,
    guard: std::sync::RwLockReadGuard<'a, T>,
    audited: bool,
}

impl<T> Deref for AuditReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> Drop for AuditReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.audited {
            core::on_unlocked(self.lock.site, self.lock.instance());
        }
    }
}

/// Exclusive guard for [`AuditRwLock`].
pub struct AuditWriteGuard<'a, T> {
    lock: &'a AuditRwLock<T>,
    guard: std::sync::RwLockWriteGuard<'a, T>,
    audited: bool,
}

impl<T> Deref for AuditWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for AuditWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for AuditWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.audited {
            core::on_unlocked(self.lock.site, self.lock.instance());
        }
    }
}

/// Condition variable paired with [`AuditMutex`]: a wait releases and
/// re-acquires the mutex, and the audit bookkeeping mirrors that (the
/// held-lock stack does not show the mutex while the thread is parked).
///
/// A notify wakes only when a thread is parked: [`AuditCondvar::wait`]
/// counts the thread before the mutex is released and uncounts it after
/// the mutex is re-acquired, so a notify with nobody parked is one atomic
/// load. The rule this asks of a user: change the waited-for state under
/// the mutex (or take the mutex after changing it), then notify. Every
/// waiter re-checks its condition under the mutex before it parks, so a
/// notifier that took the mutex after a waiter's check sees that waiter
/// counted.
pub struct AuditCondvar {
    inner: std::sync::Condvar,
    /// Threads between counting themselves in a wait and re-acquiring the
    /// mutex after it.
    sleepers: AtomicUsize,
}

impl Default for AuditCondvar {
    fn default() -> AuditCondvar {
        AuditCondvar::new()
    }
}

impl AuditCondvar {
    /// A fresh condvar.
    pub const fn new() -> AuditCondvar {
        AuditCondvar { inner: std::sync::Condvar::new(), sleepers: AtomicUsize::new(0) }
    }

    /// Park until notified, releasing the guard's mutex while parked.
    pub fn wait<T>(&self, guard: &mut AuditMutexGuard<'_, T>) {
        let site = guard.lock.site;
        let instance = guard.lock.instance();
        if guard.audited {
            core::on_unlocked(site, instance);
        }
        let inner = guard.guard.take().expect("guard present outside wait");
        // Counted while the mutex is still held: see the type's doc.
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let inner = recover(self.inner.wait(inner), site);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        if guard.audited {
            core::on_locked(site, instance, Acq::Write);
        }
        guard.guard = Some(inner);
    }

    /// Park until notified or `timeout` elapses; true when notified.
    pub fn wait_timeout<T>(&self, guard: &mut AuditMutexGuard<'_, T>, timeout: Duration) -> bool {
        let site = guard.lock.site;
        let instance = guard.lock.instance();
        if guard.audited {
            core::on_unlocked(site, instance);
        }
        let inner = guard.guard.take().expect("guard present outside wait");
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let (inner, res) = match self.inner.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, !r.timed_out()),
            Err(e) => {
                pardis_obs::counter("lock.poisoned").inc();
                if crate::enabled() {
                    core::on_poison_recovered(site);
                }
                let (g, r) = e.into_inner();
                (g, !r.timed_out())
            }
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        if guard.audited {
            core::on_locked(site, instance, Acq::Write);
        }
        guard.guard = Some(inner);
        res
    }

    /// Wake one waiter, if any is parked.
    pub fn notify_one(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            self.inner.notify_one();
        }
    }

    /// Wake all waiters, if any is parked.
    pub fn notify_all(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            self.inner.notify_all();
        }
    }

    /// Threads parked (or about to park, or just woken and re-acquiring
    /// the mutex) in a wait on this condvar.
    #[cfg(test)]
    pub(crate) fn sleepers(&self) -> usize {
        self.sleepers.load(Ordering::SeqCst)
    }
}

impl fmt::Debug for AuditCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuditCondvar").finish_non_exhaustive()
    }
}

/// A blocking queue: an [`AuditMutex`]-guarded `VecDeque` plus an
/// [`AuditCondvar`]. Items are pushed at the back; a take removes the
/// first item matching a predicate (the always-true predicate makes it a
/// FIFO `pop_front`), so one type serves both an ORB endpoint's inbox and
/// an RTS mailbox with MPI-style tag matching.
///
/// [`AuditQueue::close`] marks the receiving side gone: the queued items
/// are dropped and every later push is refused, so a queue nobody reads
/// never grows.
pub struct AuditQueue<T> {
    items: AuditMutex<VecDeque<T>>,
    arrived: AuditCondvar,
    /// Set once by `close`; read under the items lock.
    closed: AtomicBool,
}

impl<T> AuditQueue<T> {
    /// An empty queue whose lock acquisitions are named by `site`.
    pub const fn new(site: &'static Site) -> AuditQueue<T> {
        AuditQueue {
            items: AuditMutex::new(site, VecDeque::new()),
            arrived: AuditCondvar::new(),
            closed: AtomicBool::new(false),
        }
    }

    /// Append `item` and wake the waiters. Once the queue is closed the
    /// push is refused and the item handed back.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut items = self.items.lock();
        if self.closed.load(Ordering::Relaxed) {
            return Err(item);
        }
        items.push_back(item);
        drop(items);
        self.arrived.notify_all();
        Ok(())
    }

    /// Remove the first item matching `pred`, without blocking. Items it
    /// passes over keep their order.
    pub fn take(&self, pred: impl FnMut(&T) -> bool) -> Option<T> {
        take_first(&mut self.items.lock(), pred)
    }

    /// Block until an item matching `pred` is queued, and take it.
    pub fn wait(&self, mut pred: impl FnMut(&T) -> bool) -> T {
        let mut items = self.items.lock();
        loop {
            if let Some(item) = take_first(&mut items, &mut pred) {
                return item;
            }
            self.arrived.wait(&mut items);
        }
    }

    /// [`AuditQueue::wait`] for at most `timeout`; `None` when it elapses
    /// first. A timeout whose deadline `Instant` cannot represent waits
    /// without one.
    pub fn wait_timeout(&self, pred: impl FnMut(&T) -> bool, timeout: Duration) -> Option<T> {
        match Instant::now().checked_add(timeout) {
            Some(deadline) => self.wait_until(pred, || false, Some(deadline)),
            None => Some(self.wait(pred)),
        }
    }

    /// Block until an item matching `pred` is queued (and take it), until
    /// `done()` holds, or until `deadline` passes; `None` in the last two
    /// cases. `done` is checked under the queue's lock before every park,
    /// so a thread that makes it hold and then calls [`AuditQueue::wake`]
    /// cannot be missed.
    pub fn wait_until(
        &self,
        mut pred: impl FnMut(&T) -> bool,
        mut done: impl FnMut() -> bool,
        deadline: Option<Instant>,
    ) -> Option<T> {
        let mut items = self.items.lock();
        loop {
            if let Some(item) = take_first(&mut items, &mut pred) {
                return Some(item);
            }
            if done() {
                return None;
            }
            match deadline {
                None => self.arrived.wait(&mut items),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    self.arrived.wait_timeout(&mut items, left);
                }
            }
        }
    }

    /// Wake the threads parked in a wait so they re-check their `done`
    /// condition: call it after making one hold. Costs a lock and one
    /// atomic load when nobody is parked.
    pub fn wake(&self) {
        drop(self.items.lock());
        self.arrived.notify_all();
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether any queued item matches `pred`.
    pub fn any(&self, pred: impl FnMut(&T) -> bool) -> bool {
        self.items.lock().iter().any(pred)
    }

    /// The receiving side is gone: drop what is queued and refuse every
    /// later push.
    pub fn close(&self) {
        // Stored before the lock is taken, so every push that locks after
        // this one sees it; the items are dropped after the lock is released.
        self.closed.store(true, Ordering::Relaxed);
        let _dropped = std::mem::take(&mut *self.items.lock());
    }
}

impl<T> fmt::Debug for AuditQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuditQueue").field("site", &self.items.site.label).finish_non_exhaustive()
    }
}

fn take_first<T>(items: &mut VecDeque<T>, pred: impl FnMut(&T) -> bool) -> Option<T> {
    let at = items.iter().position(pred)?;
    items.remove(at)
}
