//! ORB-level observability: trace sessions and the `PARDIS_TRACE` hook.
//!
//! [`pardis_obs`] owns the raw machinery (event rings, metrics registry,
//! exporters); this module ties it to an [`Orb`]: a [`TraceSession`] installs
//! the netsim *virtual* clock as the timestamp source (so a deterministic
//! workload exports a byte-identical trace for the same fault seed), and on
//! finish folds the ORB's and the network's accumulated statistics into the
//! metrics snapshot.
//!
//! The figure harnesses and the chaos suite use the environment hook: set
//! `PARDIS_TRACE=out.json` and the first traced workload of the process
//! writes a Chrome trace-event file there (load it in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev)).

use crate::client::ClientThread;
use crate::orb::Orb;
use pardis_obs::{MetricSnapshot, ThreadTrace};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// An active tracing window over one ORB's workload.
///
/// Starting a session resets all previously recorded events and metrics,
/// installs the ORB's virtual clock as the (deterministic) timestamp
/// source, and enables recording. [`TraceSession::finish`] disables
/// recording and returns the collected [`TraceReport`].
pub struct TraceSession {
    orb: Orb,
}

impl TraceSession {
    /// Begin tracing `orb`'s activity.
    pub fn start(orb: &Orb) -> TraceSession {
        pardis_obs::reset();
        let clock = orb.network().clock().clone();
        pardis_obs::set_clock_micros(Arc::new(move || (clock.now() * 1e6) as u64));
        pardis_obs::enable();
        TraceSession { orb: orb.clone() }
    }

    /// Settle in-flight traffic before [`finish`]: see
    /// [`quiesce_endpoints`]. Replaces the hand-rolled quiesce/sleep/drain
    /// loops the e2e suites used to carry.
    ///
    /// [`finish`]: TraceSession::finish
    pub fn quiesce(&self, clients: &[&ClientThread]) {
        quiesce_endpoints(&self.orb, clients);
    }

    /// Stop recording and collect everything: per-thread events plus a
    /// metrics snapshot that folds in the ORB's traffic/retransmission
    /// counters and the network's fault statistics (network-wide and per
    /// directed link).
    pub fn finish(self) -> TraceReport {
        pardis_obs::disable();
        feed_orb_metrics(&self.orb);
        TraceReport { threads: pardis_obs::drain(), metrics: pardis_obs::metrics_snapshot() }
    }
}

/// Settle in-flight traffic: drain the transmit engine's scheduled
/// releases, give the adapters a moment to flush retransmission
/// by-products (duplicate replies ride the network after the client has
/// moved on), then ingest whatever reached the given client threads'
/// endpoints. Useful with or without an active trace session — fault
/// counters read after this reflect a settled network.
pub fn quiesce_endpoints(orb: &Orb, clients: &[&ClientThread]) {
    orb.network().quiesce();
    std::thread::sleep(Duration::from_millis(200));
    for client in clients {
        client.drain_pending();
    }
}

/// Mirror externally-accumulated ORB and network statistics into the
/// metrics registry (pull model, at export time).
fn feed_orb_metrics(orb: &Orb) {
    use pardis_obs::set_counter;
    let (frames, bytes) = orb.traffic();
    set_counter("orb.frames_sent", frames);
    set_counter("orb.bytes_sent", bytes);
    set_counter("orb.retransmits", orb.retransmits());
    set_counter("poa.reply_cache_bytes", orb.reply_cache_bytes());
    let net = orb.network();
    let fs = net.fault_stats();
    set_counter("net.fault.delivered", fs.delivered);
    set_counter("net.fault.dropped", fs.dropped);
    set_counter("net.fault.duplicated", fs.duplicated);
    set_counter("net.fault.burst_dropped", fs.burst_dropped);
    set_counter("net.fault.down_dropped", fs.down_dropped);
    for ((from, to), s) in net.per_link_fault_stats() {
        let link = format!("net.link.{}-{}", from.raw(), to.raw());
        set_counter(&format!("{link}.delivered"), s.delivered);
        set_counter(&format!("{link}.dropped"), s.dropped);
        set_counter(&format!("{link}.duplicated"), s.duplicated);
        set_counter(&format!("{link}.burst_dropped"), s.burst_dropped);
        set_counter(&format!("{link}.down_dropped"), s.down_dropped);
    }
    // Engine timelines (virtual seconds → micros; deterministic). Under the
    // overlapped transport the clock reading is the network makespan, and
    // each lane that carried traffic exposes its occupancy — `busy_us`
    // against the makespan is the link's utilization (above 1.0 = overlap).
    set_counter("net.makespan_us", (net.makespan() * 1e6) as u64);
    for ((from, to), u) in net.per_link_usage() {
        let link = format!("net.link.{}-{}", from.raw(), to.raw());
        set_counter(&format!("{link}.frames"), u.frames);
        set_counter(&format!("{link}.bytes"), u.bytes);
        set_counter(&format!("{link}.busy_us"), (u.busy_s * 1e6) as u64);
        set_counter(&format!("{link}.busy_until_us"), (u.busy_until_s * 1e6) as u64);
    }
    // Shared-medium traffic serialises on one segment timeline, whatever
    // the host pair — report it as its own pseudo-link.
    if let Some(u) = net.shared_segment_usage() {
        set_counter("net.link.shared.frames", u.frames);
        set_counter("net.link.shared.bytes", u.bytes);
        set_counter("net.link.shared.busy_us", (u.busy_s * 1e6) as u64);
        set_counter("net.link.shared.busy_until_us", (u.busy_until_s * 1e6) as u64);
    }
}

/// A finished tracing window: everything needed to export or inspect.
pub struct TraceReport {
    /// Drained per-thread event sequences, sorted by thread label.
    pub threads: Vec<ThreadTrace>,
    /// Metrics snapshot, sorted by name.
    pub metrics: Vec<(String, MetricSnapshot)>,
}

impl TraceReport {
    /// The Chrome trace-event JSON export.
    pub fn chrome_json(&self) -> String {
        pardis_obs::chrome_trace_json(&self.threads, &self.metrics)
    }

    /// The human summary table.
    pub fn summary(&self) -> String {
        pardis_obs::summary_table(&self.threads, &self.metrics)
    }

    /// Look a counter metric up by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find_map(|(n, s)| match s {
            MetricSnapshot::Counter(v) if n == name => Some(*v),
            _ => None,
        })
    }
}

/// First-trace-wins guard for the `PARDIS_TRACE` environment hook: a process
/// that runs many workload configurations traces the first one only.
static ENV_TRACE_TAKEN: AtomicBool = AtomicBool::new(false);

/// If `PARDIS_TRACE` is set (to the output path) and no other workload in
/// this process claimed it yet, start a trace session over `orb`. Callers
/// pass the returned session back to [`finish_env_trace`] when the workload
/// completes; with the variable unset this is a no-op returning `None`.
pub fn trace_from_env(orb: &Orb) -> Option<TraceSession> {
    let path = std::env::var("PARDIS_TRACE").ok()?;
    if path.is_empty() || ENV_TRACE_TAKEN.swap(true, Ordering::SeqCst) {
        return None;
    }
    Some(TraceSession::start(orb))
}

/// Finish an environment-hook session and write the Chrome trace to the
/// `PARDIS_TRACE` path, with the metrics expositions (`<path>.prom`,
/// `<path>.metrics.json`) beside it. Returns the trace path.
pub fn finish_env_trace(session: TraceSession) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(
        std::env::var("PARDIS_TRACE").unwrap_or_else(|_| "pardis_trace.json".to_string()),
    );
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let report = session.finish();
    std::fs::write(&path, report.chrome_json())?;
    // Prometheus text (histogram families with cumulative buckets plus
    // p50/p95/p99 gauges) and the JSON metrics exposition.
    let beside = |ext: &str| {
        let mut p = path.as_os_str().to_owned();
        p.push(ext);
        PathBuf::from(p)
    };
    std::fs::write(beside(".prom"), pardis_obs::render_prometheus(&report.metrics))?;
    std::fs::write(beside(".metrics.json"), pardis_obs::metrics_json(&report.metrics))?;
    Ok(path)
}
