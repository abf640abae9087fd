//! The closed-loop driver every workload runs under.
//!
//! A run is one untimed warm-up segment followed by a fixed number of timed
//! segments of a fixed number of operations each, so that per-operation
//! figures (modelled time, frames, bytes, allocations) and the memory the
//! program grows to compare like with like between runs and commits.
//! `--seconds` is the cap: a host too slow to fit all the segments into it
//! runs fewer. Each timing is the median over the segments: the host's speed
//! drifts by ±20 % over seconds, and a median of many short segments lands
//! in the same regime on every run where one long interval does not.
//!
//! Every client rank owns a [`Lane`]. Rank 0 samples the process at each
//! segment boundary and decides, one segment ahead, where the run stops;
//! the other ranks learn it through one shared atomic, never through the
//! run-time system under test.

use crate::stats::{iqr_frac, median, percentile_ns};
use crate::sys::{self, ThreadClock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Fewest timed segments a run reports from, however slow the host.
const MIN_SEGMENTS: u64 = 8;

/// How long a session runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Exactly this many operations, untimed: a cold start.
    Ops(u64),
    /// One warm-up segment, then `segments` timed ones, or as many as end
    /// within `seconds` of the warm-up's end if that is fewer.
    Timed { segments: u64, seconds: f64 },
}

/// What rank 0 reads off the network model at a boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetProbe {
    /// Virtual clock, modelled seconds.
    pub virt_s: f64,
    pub frames: u64,
    pub wire_bytes: u64,
}

#[derive(Debug, Clone, Copy)]
struct Boundary {
    cpu_ns: u64,
    client_cpu_ns: u64,
    server_cpu_ns: u64,
    net: NetProbe,
    allocs: u64,
    alloc_bytes: u64,
    vol_ctx: u64,
}

type ProbeFn = Box<dyn Fn() -> NetProbe + Send + Sync>;

/// Shared state of one session.
pub struct Driver {
    seg_ops: u64,
    budget: Budget,
    stop_at: AtomicU64,
    probe: ProbeFn,
    boundaries: Mutex<Vec<Boundary>>,
    client_clocks: Mutex<Vec<ThreadClock>>,
    server_clocks: Mutex<Vec<ThreadClock>>,
}

impl Driver {
    /// A session of `seg_ops` operations per segment under `budget`;
    /// `probe` reads the network model.
    pub fn new(
        seg_ops: u64,
        budget: Budget,
        probe: impl Fn() -> NetProbe + Send + Sync + 'static,
    ) -> Driver {
        assert!(seg_ops > 0, "a segment holds at least one operation");
        let stop_at = match budget {
            Budget::Ops(n) => n,
            Budget::Timed { segments, .. } => (1 + segments) * seg_ops,
        };
        Driver {
            seg_ops,
            budget,
            stop_at: AtomicU64::new(stop_at),
            probe: Box::new(probe),
            boundaries: Mutex::new(Vec::new()),
            client_clocks: Mutex::new(Vec::new()),
            server_clocks: Mutex::new(Vec::new()),
        }
    }

    /// Called by each server computing thread before it starts serving, so
    /// the traced run can split process CPU into client and server side.
    pub fn register_server_thread(&self) {
        self.server_clocks.lock().expect("clock list").push(ThreadClock::current());
    }

    /// A client rank's lane.
    pub fn lane(&self, rank: usize) -> Lane<'_> {
        self.client_clocks.lock().expect("clock list").push(ThreadClock::current());
        Lane {
            drv: self,
            rank,
            issued: 0,
            done: 0,
            failed: 0,
            lat_ns: Vec::with_capacity(self.seg_ops.min(1 << 20) as usize),
            marks: Vec::new(),
            lat_p50_ns: Vec::new(),
            lat_p99_ns: Vec::new(),
            timed_from: None,
        }
    }

    fn timed(&self) -> Option<f64> {
        match self.budget {
            Budget::Timed { seconds, .. } => Some(seconds),
            Budget::Ops(_) => None,
        }
    }

    fn sample(&self) {
        let sum = |clocks: &Mutex<Vec<ThreadClock>>| {
            clocks.lock().expect("clock list").iter().map(|c| c.cpu_ns()).sum()
        };
        let (allocs, alloc_bytes) = crate::alloc_count::totals();
        let b = Boundary {
            cpu_ns: sys::process_cpu_ns(),
            client_cpu_ns: sum(&self.client_clocks),
            server_cpu_ns: sum(&self.server_clocks),
            net: (self.probe)(),
            allocs,
            alloc_bytes,
            vol_ctx: sys::voluntary_ctx_switches(),
        };
        self.boundaries.lock().expect("boundary list").push(b);
    }

    /// Fold the ranks' lanes into the session's numbers.
    pub fn finish(&self, lanes: Vec<LaneOut>) -> Measured {
        let attempted = lanes.iter().map(|l| l.done).max().unwrap_or(0);
        let failed = lanes.iter().map(|l| l.failed).sum();
        let bounds = self.boundaries.lock().expect("boundary list").clone();
        // Boundary 0 opens the warm-up segment, boundary 1 closes it. Every
        // rank closes the same segments unless an operation failed for good.
        let closed = lanes.iter().map(|l| l.marks.len()).min().unwrap_or(0).min(bounds.len());
        let nseg = closed.saturating_sub(2);
        let n = self.seg_ops as f64;
        let mut m = Measured { attempted, failed, segments: nseg, ..Measured::default() };
        if nseg == 0 {
            return m;
        }
        let per_seg = |f: &dyn Fn(&Boundary, &Boundary) -> f64| -> Vec<f64> {
            (1..=nseg).map(|k| f(&bounds[k], &bounds[k + 1])).collect()
        };
        let wall_s: Vec<f64> = (1..=nseg)
            .map(|k| {
                lanes
                    .iter()
                    .map(|l| l.marks[k + 1].duration_since(l.marks[k]).as_secs_f64())
                    .fold(0.0, f64::max)
            })
            .collect();
        let rates: Vec<f64> = wall_s.iter().map(|w| n / w).collect();
        let mean_over_ranks = |pick: &dyn Fn(&LaneOut) -> &Vec<u32>| -> Vec<f64> {
            (1..=nseg)
                .map(|k| {
                    lanes.iter().map(|l| pick(l)[k] as f64).sum::<f64>() / lanes.len() as f64 / 1e3
                })
                .collect()
        };
        m.ops_per_s = median(&rates);
        m.seg_iqr_frac = iqr_frac(&rates);
        m.op_p50_us = median(&mean_over_ranks(&|l| &l.lat_p50_ns));
        m.op_p99_us = median(&mean_over_ranks(&|l| &l.lat_p99_ns));
        m.samples = nseg as u64 * self.seg_ops * lanes.len() as u64;
        m.cpu_us_per_op = median(&per_seg(&|a, b| (b.cpu_ns - a.cpu_ns) as f64 / 1e3 / n));
        m.client_cpu_us_per_op = median(&per_seg(&|a, b| {
            b.client_cpu_ns.saturating_sub(a.client_cpu_ns) as f64 / 1e3 / n
        }));
        m.server_cpu_us_per_op = median(&per_seg(&|a, b| {
            b.server_cpu_ns.saturating_sub(a.server_cpu_ns) as f64 / 1e3 / n
        }));
        // What the program counts is conserved, so these are totals over
        // the timed segments: a per-segment figure would carry the jitter
        // of where the other ranks and the servers stood at each boundary.
        let (first, last) = (&bounds[1], &bounds[nseg + 1]);
        let ops = n * nseg as f64;
        m.virt_us_per_op = (last.net.virt_s - first.net.virt_s) * 1e6 / ops;
        m.frames_per_op = (last.net.frames - first.net.frames) as f64 / ops;
        m.wire_bytes_per_op = (last.net.wire_bytes - first.net.wire_bytes) as f64 / ops;
        m.allocs_per_op = (last.allocs - first.allocs) as f64 / ops;
        m.alloc_bytes_per_op = (last.alloc_bytes - first.alloc_bytes) as f64 / ops;
        m.vol_ctx_per_op = (last.vol_ctx - first.vol_ctx) as f64 / ops;
        m.measured_s = wall_s.iter().sum();
        m
    }
}

/// One client rank's view of the session.
pub struct Lane<'d> {
    drv: &'d Driver,
    rank: usize,
    issued: u64,
    done: u64,
    failed: u64,
    lat_ns: Vec<u32>,
    marks: Vec<Instant>,
    lat_p50_ns: Vec<u32>,
    lat_p99_ns: Vec<u32>,
    timed_from: Option<Instant>,
}

/// What a rank hands back when its loop ends.
pub struct LaneOut {
    done: u64,
    failed: u64,
    marks: Vec<Instant>,
    lat_p50_ns: Vec<u32>,
    lat_p99_ns: Vec<u32>,
}

impl Lane<'_> {
    /// Open the warm-up segment. Call right before the first operation.
    pub fn start(&mut self) {
        self.marks.push(Instant::now());
        self.lat_p50_ns.push(0);
        self.lat_p99_ns.push(0);
        if self.rank == 0 && self.drv.timed().is_some() {
            self.drv.sample();
        }
    }

    /// May this rank issue another operation?
    #[inline]
    pub fn may_issue(&self) -> bool {
        self.issued < self.drv.stop_at.load(Ordering::Relaxed)
    }

    /// Operations issued so far.
    #[inline]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Count one issued operation and return its id.
    #[inline]
    pub fn issue(&mut self) -> u64 {
        let id = self.issued;
        self.issued += 1;
        id
    }

    /// Count one completed operation: `t0` is when its invocation began,
    /// `ok` whether its reply arrived and verified.
    #[inline]
    pub fn complete(&mut self, t0: Instant, ok: bool) {
        self.complete_after(t0.elapsed(), ok);
    }

    /// [`Lane::complete`] for an operation whose time the caller measured.
    #[inline]
    pub fn complete_after(&mut self, took: Duration, ok: bool) {
        self.lat_ns.push(took.as_nanos().min(u32::MAX as u128) as u32);
        self.failed += u64::from(!ok);
        self.done += 1;
        if self.done.is_multiple_of(self.drv.seg_ops) {
            self.boundary();
        }
    }

    fn boundary(&mut self) {
        let Some(seconds) = self.drv.timed() else { return };
        let now = Instant::now();
        self.marks.push(now);
        self.lat_p50_ns.push(percentile_ns(&mut self.lat_ns, 0.50));
        self.lat_p99_ns.push(percentile_ns(&mut self.lat_ns, 0.99));
        self.lat_ns.clear();
        if self.rank != 0 {
            return;
        }
        self.drv.sample();
        // The other ranks may already be issuing into the next segment, so
        // the earliest stop that every rank is sure to see in time is the
        // end of that one.
        let closed = self.done / self.drv.seg_ops; // segments closed, warm-up included
        let from = *self.timed_from.get_or_insert(now);
        let elapsed = now.duration_since(from).as_secs_f64();
        let seg = if closed > 1 {
            elapsed / (closed - 1) as f64
        } else {
            now.duration_since(self.marks[0]).as_secs_f64()
        };
        if closed > MIN_SEGMENTS && elapsed + 1.5 * seg >= seconds {
            self.drv.stop_at.fetch_min((closed + 1) * self.drv.seg_ops, Ordering::Relaxed);
        }
    }

    /// Close the lane.
    pub fn finish(self) -> LaneOut {
        LaneOut {
            done: self.done,
            failed: self.failed,
            marks: self.marks,
            lat_p50_ns: self.lat_p50_ns,
            lat_p99_ns: self.lat_p99_ns,
        }
    }
}

/// A session's numbers: medians over its timed segments.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub segments: usize,
    pub samples: u64,
    pub measured_s: f64,
    pub ops_per_s: f64,
    pub seg_iqr_frac: f64,
    pub op_p50_us: f64,
    pub op_p99_us: f64,
    pub cpu_us_per_op: f64,
    pub client_cpu_us_per_op: f64,
    pub server_cpu_us_per_op: f64,
    pub virt_us_per_op: f64,
    pub frames_per_op: f64,
    pub wire_bytes_per_op: f64,
    pub allocs_per_op: f64,
    pub alloc_bytes_per_op: f64,
    pub vol_ctx_per_op: f64,
}
