//! # pardis-obs — tracing and metrics for the PARDIS runtime
//!
//! The paper's whole evaluation is an exercise in knowing where invocation
//! time goes: marshaling, transfer, redistribution, overlap. This crate is
//! the instrumentation layer that makes those phases visible in the
//! reproduction — and makes the reliability machinery of the fault-injected
//! network (retransmissions, duplicate suppression, reply-cache replays)
//! inspectable instead of guessable.
//!
//! Three pieces:
//!
//! * **Event rings** — every instrumented thread records [`Event`]s
//!   (span begin/end, instants) into its own bounded ring. Recording is a
//!   single uncontended lock on the thread's own ring; when tracing is
//!   disabled the *only* cost at an instrumentation point is one relaxed
//!   atomic load ([`enabled`]) — the same zero-cost discipline as the
//!   fault layer.
//! * **Metrics registry** ([`metrics`]) — named counters and histograms
//!   (retransmissions, backoff delays, reply-cache hits, fragments
//!   reassembled, per-link traffic ...), snapshot in deterministic
//!   (sorted) order.
//! * **Exporters** ([`chrome`], [`expo`]) — Chrome trace-event JSON
//!   (loadable in `chrome://tracing` or Perfetto), a human summary table,
//!   and Prometheus-text / JSON metric expositions with p50/p95/p99
//!   estimates per histogram.
//!
//! Two more arrived with pardis-obs v2:
//!
//! * **Causal trace context** ([`trace`]) — a `(trace_id, span_id)` pair
//!   carried in the ORB's frame header and an ambient thread-local slot, so
//!   client, network, POA and failover events of one invocation stitch into
//!   a single causal tree across retransmissions and rebinds.
//! * **The profile analyzer** ([`profile`], `pardis-profile`) — reads an
//!   exported trace back and attributes each invocation's end-to-end
//!   latency to fig2-style segments (marshal, wire, queueing, dispatch,
//!   backoff, rebind, residual software overhead `t_o`).
//!
//! ## Determinism
//!
//! Timestamps come from an injectable clock ([`set_clock_micros`]); the ORB
//! installs the netsim *virtual* clock, so on a deterministic workload two
//! runs with the same fault seed export byte-identical traces. With no
//! clock installed every timestamp is 0 — never wall time — so enabling
//! tracing can never smuggle nondeterminism into a test.
//!
//! ## Usage
//!
//! Most users never touch this crate directly: `pardis_core::obs`'s
//! `TraceSession` (or the `PARDIS_TRACE=out.json` environment hook honoured
//! by the figure harnesses and the chaos suite) enables tracing, runs the
//! workload, and writes the export.

pub mod chrome;
pub mod expo;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use chrome::{chrome_trace_json, is_valid_json, summary_table};
pub use expo::{metrics_json, metrics_json_with_snapshots, render_prometheus};
pub use metrics::{
    counter, histogram, metrics_reset, metrics_snapshot, quantile_from_buckets, set_counter,
    Counter, Histogram, MetricSnapshot,
};
pub use trace::{current_ctx, derive_trace_id, enter_ctx, mix64, CtxGuard, TraceCtx};

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Lock `m`, recovering the guard if a holder panicked: a trace or metric
/// recorded mid-panic is still worth exporting.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bound on the number of events a single thread's ring retains. When full,
/// the oldest events are discarded (and counted in [`ThreadTrace::dropped`]).
pub const RING_CAP: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bumped by [`reset`]; threads whose cached ring belongs to an older
/// generation re-register lazily on their next record.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// Is tracing on? This is the *only* instruction instrumentation points pay
/// when tracing is off: one relaxed atomic load and a branch.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn event recording on.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn event recording off. Already-recorded events stay until [`drain`]
/// or [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

type ClockFn = dyn Fn() -> u64 + Send + Sync;

static CLOCK: Mutex<Option<Arc<ClockFn>>> = Mutex::new(None);

/// Install the timestamp source (microseconds). The ORB installs the netsim
/// virtual clock here so traces are deterministic in the fault seed.
pub fn set_clock_micros(f: Arc<ClockFn>) {
    *lock(&CLOCK) = Some(f);
}

/// Remove the installed clock; timestamps fall back to 0.
pub fn clear_clock() {
    *lock(&CLOCK) = None;
}

/// Current timestamp in microseconds: the installed clock's reading, or 0
/// when none is installed (deterministic by default — never wall time).
pub fn now_micros() -> u64 {
    lock(&CLOCK).as_ref().map(|f| f()).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Chrome-trace phase of an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span open (`"B"`).
    Begin,
    /// Span close (`"E"`).
    End,
    /// Point event (`"i"`).
    Instant,
}

/// A typed event argument.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgVal {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String.
    Str(Cow<'static, str>),
}

impl From<u64> for ArgVal {
    fn from(v: u64) -> Self {
        ArgVal::U64(v)
    }
}
impl From<usize> for ArgVal {
    fn from(v: usize) -> Self {
        ArgVal::U64(v as u64)
    }
}
impl From<u32> for ArgVal {
    fn from(v: u32) -> Self {
        ArgVal::U64(v as u64)
    }
}
impl From<i64> for ArgVal {
    fn from(v: i64) -> Self {
        ArgVal::I64(v)
    }
}
impl From<f64> for ArgVal {
    fn from(v: f64) -> Self {
        ArgVal::F64(v)
    }
}
impl From<&'static str> for ArgVal {
    fn from(v: &'static str) -> Self {
        ArgVal::Str(Cow::Borrowed(v))
    }
}
impl From<String> for ArgVal {
    fn from(v: String) -> Self {
        ArgVal::Str(Cow::Owned(v))
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Timestamp in microseconds (virtual-clock when the ORB installed it).
    pub ts_us: u64,
    /// Span begin/end or instant.
    pub phase: Phase,
    /// Category, e.g. `"client"`, `"poa"`, `"net"`.
    pub cat: &'static str,
    /// Event name, e.g. `"invoke"`, `"client.retransmit"`.
    pub name: Cow<'static, str>,
    /// Invocation correlation key `(binding, req_id)`, when applicable.
    pub key: Option<(u64, u64)>,
    /// Extra arguments (rendered into the trace's `args` object).
    pub args: Vec<(&'static str, ArgVal)>,
}

/// One thread's drained events.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadTrace {
    /// The thread's label (see [`set_thread_label`]).
    pub label: String,
    /// Events in recording order.
    pub events: Vec<Event>,
    /// Events discarded because the ring overflowed.
    pub dropped: u64,
}

// ---------------------------------------------------------------------------
// Per-thread rings
// ---------------------------------------------------------------------------

struct Ring {
    label: Mutex<String>,
    /// Registration index — tie-breaker for identically-labelled rings.
    index: usize,
    events: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
}

static REGISTRY: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());

thread_local! {
    /// (generation, ring) cache; invalidated by [`reset`].
    static LOCAL_RING: RefCell<Option<(u64, Arc<Ring>)>> = const { RefCell::new(None) };
    /// Sticky label, surviving generations.
    static LOCAL_LABEL: RefCell<Option<String>> = const { RefCell::new(None) };
}

fn with_ring<R>(f: impl FnOnce(&Ring) -> R) -> R {
    LOCAL_RING.with(|cell| {
        let gen = GENERATION.load(Ordering::Acquire);
        let mut slot = cell.borrow_mut();
        let stale = match &*slot {
            Some((g, _)) => *g != gen,
            None => true,
        };
        if stale {
            let label = LOCAL_LABEL
                .with(|l| l.borrow().clone())
                .unwrap_or_else(|| format!("thread-{}", lock(&REGISTRY).len()));
            let mut registry = lock(&REGISTRY);
            let ring = Arc::new(Ring {
                label: Mutex::new(label),
                index: registry.len(),
                events: Mutex::new(VecDeque::new()),
                dropped: AtomicU64::new(0),
            });
            registry.push(ring.clone());
            *slot = Some((gen, ring));
        }
        f(&slot.as_ref().expect("just set").1)
    })
}

/// Name the calling thread in exported traces (e.g. `"client1/0"`,
/// `"poa3/2"`). Cheap; call from attach paths. The label sticks to the
/// thread across [`reset`] generations.
pub fn set_thread_label(label: &str) {
    LOCAL_LABEL.with(|l| *l.borrow_mut() = Some(label.to_string()));
    LOCAL_RING.with(|cell| {
        if let Some((gen, ring)) = &*cell.borrow() {
            if *gen == GENERATION.load(Ordering::Acquire) {
                *lock(&ring.label) = label.to_string();
            }
        }
    });
}

fn push(event: Event) {
    with_ring(|ring| {
        let mut q = lock(&ring.events);
        if q.len() >= RING_CAP {
            q.pop_front();
            ring.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(event);
    });
}

/// Append the ambient trace context (when one is entered and the caller
/// did not already stamp a `trace` arg) so every event recorded under a
/// context joins its causal tree without per-call-site plumbing.
fn stamp_ctx(args: &mut Vec<(&'static str, ArgVal)>) {
    if let Some(ctx) = trace::current_ctx() {
        if !args.iter().any(|(k, _)| *k == "trace") {
            args.push(("trace", ArgVal::U64(ctx.trace_id)));
            args.push(("parent", ArgVal::U64(ctx.span_id)));
        }
    }
}

/// Record an event if tracing is enabled. Prefer the shaped helpers
/// ([`instant`], [`span_begin`], [`span_end`]).
pub fn record(
    phase: Phase,
    cat: &'static str,
    name: impl Into<Cow<'static, str>>,
    key: Option<(u64, u64)>,
    mut args: Vec<(&'static str, ArgVal)>,
) {
    if !enabled() {
        return;
    }
    stamp_ctx(&mut args);
    push(Event { ts_us: now_micros(), phase, cat, name: name.into(), key, args });
}

/// Record a point event.
pub fn instant(
    cat: &'static str,
    name: impl Into<Cow<'static, str>>,
    key: Option<(u64, u64)>,
    args: Vec<(&'static str, ArgVal)>,
) {
    record(Phase::Instant, cat, name, key, args);
}

/// Open a span. Must be closed by [`span_end`] with the same name on the
/// same thread.
pub fn span_begin(
    cat: &'static str,
    name: impl Into<Cow<'static, str>>,
    key: Option<(u64, u64)>,
    args: Vec<(&'static str, ArgVal)>,
) {
    record(Phase::Begin, cat, name, key, args);
}

/// Close a span opened by [`span_begin`].
pub fn span_end(
    cat: &'static str,
    name: impl Into<Cow<'static, str>>,
    key: Option<(u64, u64)>,
    args: Vec<(&'static str, ArgVal)>,
) {
    record(Phase::End, cat, name, key, args);
}

/// RAII span: opens on construction (when tracing is enabled), closes on
/// drop. If tracing was off at construction the drop emits nothing, so
/// spans stay balanced across enable/disable edges.
pub struct Span {
    cat: &'static str,
    name: Cow<'static, str>,
    key: Option<(u64, u64)>,
    live: bool,
}

impl Span {
    /// Open a span guard.
    pub fn open(
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        key: Option<(u64, u64)>,
        mut args: Vec<(&'static str, ArgVal)>,
    ) -> Span {
        let name = name.into();
        let live = enabled();
        if live {
            stamp_ctx(&mut args);
            push(Event {
                ts_us: now_micros(),
                phase: Phase::Begin,
                cat,
                name: name.clone(),
                key,
                args,
            });
        }
        Span { cat, name, key, live }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.live {
            push(Event {
                ts_us: now_micros(),
                phase: Phase::End,
                cat: self.cat,
                name: self.name.clone(),
                key: self.key,
                args: Vec::new(),
            });
        }
    }
}

/// Drain every thread's ring: events leave the rings and are returned
/// grouped per thread, threads sorted by label (ties by registration
/// order). Rings stay registered so their threads keep recording.
pub fn drain() -> Vec<ThreadTrace> {
    let rings: Vec<Arc<Ring>> = lock(&REGISTRY).clone();
    let mut out: Vec<(usize, ThreadTrace)> = rings
        .iter()
        .map(|ring| {
            let events: Vec<Event> = std::mem::take(&mut *lock(&ring.events)).into();
            (
                ring.index,
                ThreadTrace {
                    label: lock(&ring.label).clone(),
                    events,
                    dropped: ring.dropped.swap(0, Ordering::Relaxed),
                },
            )
        })
        .collect();
    out.sort_by(|(ia, a), (ib, b)| a.label.cmp(&b.label).then(ia.cmp(ib)));
    out.into_iter().map(|(_, t)| t).collect()
}

/// Clear everything: disable tracing, drop all rings and recorded events,
/// zero the metrics registry, and remove the clock. Live threads re-register
/// their rings lazily on their next recorded event.
pub fn reset() {
    disable();
    GENERATION.fetch_add(1, Ordering::Release);
    lock(&REGISTRY).clear();
    metrics::metrics_reset();
    clear_clock();
}

#[cfg(test)]
mod tests;
