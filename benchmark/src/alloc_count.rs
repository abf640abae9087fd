//! A counting allocator for the traced binary.
//!
//! `pardis-bench-traced` installs [`Counting`] as its `#[global_allocator]`;
//! `pardis-bench` does not, so the end-to-end numbers never pay for it and
//! [`totals`] reads zero there. Counts go to one of a few cache-line-sized
//! shards chosen per thread, so two busy threads do not bounce one line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const SHARDS: usize = 16;

#[repr(align(64))]
struct Shard {
    count: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Shard = Shard { count: AtomicU64::new(0), bytes: AtomicU64::new(0) };
static COUNTS: [Shard; SHARDS] = [EMPTY; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor runs after teardown.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn note(bytes: usize) {
    let shard = MY_SHARD
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            s.get()
        })
        .unwrap_or(0);
    COUNTS[shard].count.fetch_add(1, Ordering::Relaxed);
    COUNTS[shard].bytes.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// The system allocator, counting every allocation and its size.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// a destructor-free thread-local, so it cannot allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` come from a previous call on this
        // allocator, which handed them to `System` unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` so far; `(0, 0)` unless [`Counting`] is
/// the global allocator.
pub fn totals() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(c, b), s| {
        (c + s.count.load(Ordering::Relaxed), b + s.bytes.load(Ordering::Relaxed))
    })
}
