//! The PARDIS benchmark: five saturating closed-loop workloads measured end
//! to end (wall, modelled and CPU time, memory, set-up) and, in a separate
//! traced run, layer by layer. `README.md` beside this crate says what each
//! number means and which layer should move it.
//!
//! Two binaries share this library. `pardis-bench` produces the end-to-end
//! metrics and records no span. `pardis-bench-traced` switches the span
//! recorder on, counts allocations, runs the standalone layer calls and
//! reports the per-layer metrics; it runs `pardis-bench` beside itself to
//! price its own overhead.

pub mod alloc_count;
pub mod harness;
pub mod layers;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use harness::Budget;
use report::Metric;
use stats::median;
use std::process::ExitCode;
use workloads::Workload;

/// Timed segments of an end-to-end run, and of a traced one.
const SEGMENTS: u64 = 60;
const TRACED_SEGMENTS: u64 = 20;
/// How far past `--seconds` a run may go before it is abandoned.
const GRACE_S: f64 = 60.0;
/// Cold starts whose median is `setup_s`. Each is a process of its own: a
/// second start in one process finds the transfer-plan cache, the allocator
/// and the buffer pools already filled, and its time, a few thread hand-offs,
/// took one of several values for the life of the process (0.07 to 0.3 ms on
/// `rpc_small`), which no number of repeats inside that process averages out.
const COLD_STARTS: usize = 15;
/// Shares of `--seconds` the traced run gives its untraced reference and
/// its traced session; the standalone layer calls take the rest.
const REFERENCE_SHARE: f64 = 0.3;
const TRACED_SHARE: f64 = 0.4;

/// The command line the benchmark's driver passes.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set by the benchmark itself on the processes it starts for `setup_s`.
    cold_start: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut cold_start = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: not {what}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
                "--seconds" => {
                    seconds = Some(
                        value.parse().ok().filter(|s| *s > 0.0).ok_or(bad("a positive number"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                "--cold-start" => cold_start = value == "1",
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            cold_start,
        })
    }
}

/// Refuse to measure anything but the default path on a machine that can
/// keep the workloads' two busy threads running.
fn guard_rails() -> Result<(), String> {
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("PARDIS_"))
    {
        return Err(format!(
            "{} is set: the benchmark measures the default path only and refuses every such variable",
            name.to_string_lossy()
        ));
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < 2 {
        return Err(format!(
            "{cpus} CPU available: the workloads keep two threads busy and need 2"
        ));
    }
    Ok(())
}

/// An operation that never completes (a lost reply costs the ORB's 30 s
/// timeout, and every later one may follow it) must end the run with no
/// result, not hold the driver for hours.
fn give_up_after(seconds: f64) {
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs_f64(seconds));
        eprintln!("pardis-bench: still running after {seconds:.0} s, giving up without a result");
        std::process::exit(3);
    });
}

/// Entry point of both binaries; `traced` says which one is running.
pub fn main_with(traced: bool) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Args::parse(&argv).and_then(|args| {
        guard_rails()?;
        if args.trace != traced {
            return Err(format!(
                "--trace {} is the other binary's job (benchmark/run.sh picks it)",
                u8::from(args.trace)
            ));
        }
        let workload = workloads::ALL
            .iter()
            .find(|w| w.name == args.workload)
            .ok_or_else(|| format!("unknown workload {}", args.workload))?;
        give_up_after(args.seconds + GRACE_S);
        if args.cold_start {
            Ok((workload.run)(args.seed, Budget::Ops(workload.cold_ops)).measured.failed == 0)
        } else if traced {
            run_traced(workload, &args)
        } else {
            run_untraced(workload, &args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("pardis-bench: {msg}");
            ExitCode::from(2)
        }
    }
}

fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// The end-to-end run. Returns whether every reply verified.
fn run_untraced(w: &Workload, args: &Args) -> Result<bool, String> {
    let cold = (0..COLD_STARTS)
        .map(|_| report::cold_start(w.name, args.seed))
        .collect::<Result<Vec<_>, _>>()?;
    let setup_s = median(&cold.iter().map(|c| c.seconds).collect::<Vec<_>>());

    let steal_before = sys::steal_jiffies();
    let out = (w.run)(args.seed, Budget::Timed { segments: SEGMENTS, seconds: args.seconds });
    let steal = steal_frac(steal_before, sys::steal_jiffies());
    let m = &out.measured;

    // A cold start reports through its exit status only, so one that failed
    // counts every operation it made.
    let attempted = m.attempted + w.cold_ops * cold.len() as u64;
    let failed = m.failed + w.cold_ops * cold.iter().filter(|c| !c.verified).count() as u64;
    report::print_info(&[
        ("segments", m.segments as f64),
        ("seg_ops", w.seg_ops as f64),
        ("latency_samples", m.samples as f64),
        ("measured_s", m.measured_s),
        ("op_p99_us", m.op_p99_us),
        ("noise.seg_iqr_frac", m.seg_iqr_frac),
        ("noise.steal_frac", steal),
        ("net.frames_per_op", m.frames_per_op),
        ("net.wire_bytes_per_op", m.wire_bytes_per_op),
    ]);
    report::print_result(
        attempted,
        failed,
        &[
            Metric::new("ops_per_s", "1/s", m.ops_per_s),
            Metric::new("op_p50_us", "us", m.op_p50_us),
            Metric::new("cpu_us_per_op", "us", m.cpu_us_per_op),
            Metric::new("virt_us_per_op", "us", m.virt_us_per_op),
            Metric::new("peak_rss_mb", "MB", sys::peak_rss_mb()),
            Metric::new("setup_s", "s", setup_s),
        ],
    );
    Ok(failed == 0)
}

/// The traced run: an untraced reference beside it, the traced session, the
/// standalone layer calls, then the trace file and the per-layer metrics.
fn run_traced(w: &Workload, args: &Args) -> Result<bool, String> {
    let reference = report::run_reference(w.name, args.seed, args.seconds * REFERENCE_SHARE)?;

    trace::enable(w.trace_every);
    let steal_before = sys::steal_jiffies();
    let budget = Budget::Timed { segments: TRACED_SEGMENTS, seconds: args.seconds * TRACED_SHARE };
    let out = (w.run)(args.seed, budget);
    let steal = steal_frac(steal_before, sys::steal_jiffies());
    let threads = trace::take_all();
    let layer_calls = layers::measure(w.layer_elems);

    let m = &out.measured;
    let totals = trace::sum_totals(&threads);
    // Mean microseconds per span of a name; 0 where the workload bypasses it.
    let span_us = |name: &str| {
        totals.get(name).map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64 / 1e3)
    };
    // Time inside the benchmark's servant per operation, all server ranks.
    let servant_us_per_op = ["servant.unmarshal", "servant.compute", "servant.reply_build"]
        .iter()
        .filter_map(|n| totals.get(n))
        .map(|t| t.total_ns as f64 / 1e3)
        .sum::<f64>()
        / m.attempted.div_ceil(w.trace_every).max(1) as f64;
    let uses_orb = totals.contains_key("client.invoke_nb");
    // Where the benchmark owns no server thread (the application's servers)
    // the server side is what the client threads did not use.
    let server_cpu = if m.server_cpu_us_per_op > 0.0 {
        m.server_cpu_us_per_op
    } else if uses_orb {
        (m.cpu_us_per_op - m.client_cpu_us_per_op).max(0.0)
    } else {
        0.0
    };

    let mut metrics = layer_calls;
    let mut push = |name: &'static str, unit: &'static str, value: f64| {
        metrics.push(Metric::new(name, unit, value));
    };
    push("client.launch_us", "us", span_us("client.invoke_nb"));
    push("client.wait_us", "us", span_us("client.wait"));
    push("client.bind_us", "us", out.bind_us);
    push("client.thread_cpu_us_per_op", "us", if uses_orb { m.client_cpu_us_per_op } else { 0.0 });
    push("client.op_p99_us", "us", if uses_orb { m.op_p99_us } else { 0.0 });
    push("servant.unmarshal_us", "us", span_us("servant.unmarshal"));
    push("servant.compute_us", "us", span_us("servant.compute"));
    push("servant.reply_build_us", "us", span_us("servant.reply_build"));
    push("poa.thread_cpu_us_per_op", "us", server_cpu);
    push(
        "poa.self_cpu_us_per_op",
        "us",
        if m.server_cpu_us_per_op > 0.0 { (server_cpu - servant_us_per_op).max(0.0) } else { 0.0 },
    );
    push("net.frames_per_op", "count", m.frames_per_op);
    push("net.wire_bytes_per_op", "B", m.wire_bytes_per_op);
    push("net.link_busy_frac", "1", out.link_busy_frac);
    push("net.retransmits", "count", out.retransmits as f64);
    push("alloc.count_per_op", "count", m.allocs_per_op);
    push("alloc.bytes_per_op", "B", m.alloc_bytes_per_op);
    push("sched.vol_ctx_switches_per_op", "count", m.vol_ctx_per_op);
    push("noise.seg_iqr_frac", "1", m.seg_iqr_frac);
    push("noise.steal_frac", "1", steal);
    push("trace.overhead_frac", "1", 1.0 - m.ops_per_s / reference.ops_per_s);

    let path = report::write_trace_file(w.name, args.seed, &threads, &totals)
        .map_err(|e| format!("writing the trace file: {e}"))?;
    report::print_info(&[
        ("segments", m.segments as f64),
        ("seg_ops", w.seg_ops as f64),
        ("traced.ops_per_s", m.ops_per_s),
        ("untraced.ops_per_s", reference.ops_per_s),
        ("traced.cpu_us_per_op", m.cpu_us_per_op),
        ("untraced.cpu_us_per_op", reference.cpu_us_per_op),
        ("traced.client_plus_server_cpu_us_per_op", m.client_cpu_us_per_op + server_cpu),
    ]);
    eprintln!("pardis-bench: spans written to {}", path.display());
    let attempted = m.attempted + reference.attempted;
    let failed = m.failed + reference.failed;
    report::print_result(attempted, failed, &metrics);
    Ok(failed == 0)
}
