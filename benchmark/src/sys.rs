//! What the benchmark reads from the operating system: CPU clocks, peak
//! memory, context switches and hypervisor steal. Linux only.
//!
//! The three libc calls are declared here because the repository vendors no
//! `libc` crate; `std` already links the C library they live in.

use std::ffi::{c_int, c_long, c_ulong};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` of Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

extern "C" {
    fn clock_gettime(clk: c_int, ts: *mut Timespec) -> c_int;
    fn pthread_self() -> c_ulong;
    fn pthread_getcpuclockid(thread: c_ulong, clk: *mut c_int) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const RUSAGE_SELF: c_int = 0;

fn read_clock(clk: c_int) -> Option<u64> {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec`; the call writes
    // nothing else and keeps no pointer.
    let rc = unsafe { clock_gettime(clk, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID).expect("CLOCK_PROCESS_CPUTIME_ID is always readable")
}

/// The CPU-time clock of one thread, readable from any thread of the
/// process while that thread is alive.
#[derive(Debug, Clone, Copy)]
pub struct ThreadClock(c_int);

impl ThreadClock {
    /// The calling thread's clock.
    pub fn current() -> ThreadClock {
        let mut clk: c_int = 0;
        // SAFETY: `pthread_self` has no preconditions; `clk` is a valid
        // out-pointer for `pthread_getcpuclockid`.
        let rc = unsafe { pthread_getcpuclockid(pthread_self(), &mut clk) };
        assert_eq!(rc, 0, "pthread_getcpuclockid failed for the calling thread");
        ThreadClock(clk)
    }

    /// CPU nanoseconds the thread has consumed; 0 once it has exited.
    pub fn cpu_ns(self) -> u64 {
        read_clock(self.0).unwrap_or(0)
    }
}

/// Voluntary context switches of the whole process so far (threads that
/// have exited included).
pub fn voluntary_ctx_switches() -> u64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage` with the kernel's
    // layout for Linux.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ru.ru_nvcsw as u64
}

/// Peak resident set size (`VmHWM`) in megabytes (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// `(steal, total)` jiffies summed over all CPUs since boot: the share of
/// time the hypervisor ran something else while this guest wanted the CPU.
pub fn steal_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("/proc/stat");
    let cols: Vec<u64> = stat
        .lines()
        .next()
        .expect("cpu line")
        .split_whitespace()
        .skip(1)
        .filter_map(|c| c.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already inside user, so only the first eight add up.
    let total = cols.iter().take(8).sum();
    (cols.get(7).copied().unwrap_or(0), total)
}
