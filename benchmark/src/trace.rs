//! The benchmark's own span recorder.
//!
//! A span is `(name, start_ns, end_ns, parent, op_id)`; it is opened around
//! each call the benchmark makes into a layer's public function. Spans
//! nest per thread, so a span's self time is its duration minus the time
//! its children cover. Every span feeds the per-name totals; the first
//! [`KEPT_PER_THREAD`] of each thread are also kept whole and written to
//! the trace file when the benchmark ends (keeping all of them would cost
//! the traced `rpc_small` run hundreds of megabytes and move the numbers it
//! is there to explain).
//!
//! Only the traced binary switches the recorder on. Switched off, a span
//! costs one relaxed load. Switched on, a span costs two clock readings and
//! some bookkeeping, about 0.25 µs on the builder's machine: too much to put
//! five of them into each 4 µs `rpc_small` operation, so a workload may have
//! only every n-th operation's spans recorded ([`enable`]). Means per span
//! stay unbiased; totals cover the sampled operations only.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Whole spans kept per thread for the trace file.
pub const KEPT_PER_THREAD: usize = 20_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static DONE: Mutex<Vec<ThreadTrace>> = Mutex::new(Vec::new());

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's list, if it was kept.
    pub parent: Option<u32>,
    pub op_id: u64,
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Everything one thread recorded.
#[derive(Debug, Default)]
pub struct ThreadTrace {
    pub label: String,
    pub spans: Vec<Span>,
    pub totals: Vec<(&'static str, Total)>,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    kept: Option<u32>,
}

#[derive(Default)]
struct Local {
    label: String,
    op_id: u64,
    /// Spans of the current operation are dropped, not recorded.
    skip: bool,
    open: Vec<Open>,
    trace: ThreadTrace,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Switch the recorder on, recording the spans of every `sample_every`-th
/// operation (the traced binary does, once, before any thread starts).
pub fn enable(sample_every: u64) {
    EPOCH.get_or_init(Instant::now);
    SAMPLE_EVERY.store(sample_every.max(1), Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Is the recorder on?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Name the calling thread in the trace file.
pub fn label_thread(label: &str) {
    if enabled() {
        LOCAL.with(|l| l.borrow_mut().label = label.to_string());
    }
}

/// Set the operation the calling thread's next spans belong to.
pub fn set_op(op_id: u64) {
    if enabled() {
        let skip = !op_id.is_multiple_of(SAMPLE_EVERY.load(Ordering::Relaxed));
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.op_id = op_id;
            l.skip = skip;
        });
    }
}

/// An open span; closes when dropped.
pub struct SpanGuard(bool);

/// Open a span on the calling thread.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(false);
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.skip {
            return SpanGuard(false);
        }
        let kept = (l.trace.spans.len() < KEPT_PER_THREAD).then(|| {
            let parent = l.open.last().and_then(|o| o.kept);
            let op_id = l.op_id;
            l.trace.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, op_id });
            (l.trace.spans.len() - 1) as u32
        });
        let start_ns = now_ns();
        l.open.push(Open { name, start_ns, child_ns: 0, kept });
        SpanGuard(true)
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let Some(open) = l.open.pop() else { return };
            let dur = end_ns.saturating_sub(open.start_ns);
            if let Some(parent) = l.open.last_mut() {
                parent.child_ns += dur;
            }
            if let Some(idx) = open.kept {
                let s = &mut l.trace.spans[idx as usize];
                s.start_ns = open.start_ns;
                s.end_ns = end_ns;
            }
            let totals = &mut l.trace.totals;
            // A thread uses a handful of names: a linear scan on the
            // pointer beats hashing the string.
            let slot = match totals.iter().position(|(n, _)| std::ptr::eq(*n, open.name)) {
                Some(i) => i,
                None => {
                    totals.push((open.name, Total::default()));
                    totals.len() - 1
                }
            };
            let t = &mut totals[slot].1;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(open.child_ns);
        });
    }
}

/// Hand the calling thread's spans to the collector. Every thread that
/// opened spans calls this before it ends.
pub fn flush_thread() {
    if !enabled() {
        return;
    }
    let mut trace = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let label = std::mem::take(&mut l.label);
        let mut t = std::mem::take(&mut l.trace);
        t.label = label;
        t
    });
    if trace.label.is_empty() {
        trace.label = format!("{:?}", std::thread::current().id());
    }
    if !trace.totals.is_empty() {
        DONE.lock().expect("trace collector poisoned").push(trace);
    }
}

/// Take every flushed thread's spans.
pub fn take_all() -> Vec<ThreadTrace> {
    std::mem::take(&mut *DONE.lock().expect("trace collector poisoned"))
}

/// Totals per span name over a set of threads.
pub fn sum_totals(threads: &[ThreadTrace]) -> BTreeMap<&'static str, Total> {
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for t in threads {
        for (name, tot) in &t.totals {
            let e = out.entry(name).or_default();
            e.count += tot.count;
            e.total_ns += tot.total_ns;
            e.self_ns += tot.self_ns;
        }
    }
    out
}
