//! What the benchmark prints and writes: the result line its driver reads,
//! an information line for people and `aa.sh`, and the trace file.

use crate::trace::{ThreadTrace, Total};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// JSON has no NaN or infinity; a figure that came out as one reads 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The last line of standard output: what the driver parses.
pub fn print_result(attempted: u64, failed: u64, metrics: &[Metric]) {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        failed == 0,
        attempted.max(1),
        failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        )
        .expect("writing to a String");
    }
    line.push_str("}}");
    println!("{line}");
}

/// A line of figures that are not gated metrics, printed before the result.
pub fn print_info(items: &[(&str, f64)]) {
    let body: Vec<String> = items.iter().map(|(k, v)| format!("\"{k}\": {}", num(*v))).collect();
    println!("{{\"info\": {{{}}}}}", body.join(", "));
}

/// What the traced run needs from the untraced binary.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub ops_per_s: f64,
    pub cpu_us_per_op: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// The number after `"key": ` (optionally inside `{"value": …}`) in `line`.
fn number_after(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let rest = rest.trim_start().strip_prefix("{\"value\":").unwrap_or(rest).trim_start();
    let end = rest.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))?;
    rest[..end].parse().ok()
}

/// Run the untraced binary that sits beside this one for `seconds` and read
/// its result line. The child is waited for before this returns.
pub fn run_reference(workload: &str, seed: u64, seconds: f64) -> Result<Reference, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let untraced = exe.with_file_name("pardis-bench");
    let out = Command::new(&untraced)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {}: {e}", untraced.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let field = |key: &str| {
        number_after(line, key)
            .ok_or_else(|| format!("no {key} in the untraced run's result line: {line:?}"))
    };
    Ok(Reference {
        ops_per_s: field("ops_per_s")?,
        cpu_us_per_op: field("cpu_us_per_op")?,
        attempted: field("attempted")? as u64,
        failed: field("failed")? as u64,
    })
}

/// One cold start, as its parent saw it.
#[derive(Debug, Clone, Copy)]
pub struct ColdStart {
    /// From starting the process to its exit.
    pub seconds: f64,
    /// Whether every reply of it verified.
    pub verified: bool,
}

/// Start this binary again for one cold start of `workload` (process start,
/// inputs from the seed, building the system, the first verified
/// operations, shutdown, exit), wait for it and time the whole of it.
pub fn cold_start(workload: &str, seed: u64) -> Result<ColdStart, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let started = Instant::now();
    let status = Command::new(&exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "0", "--cold-start", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running {}: {e}", exe.display()))?;
    let seconds = started.elapsed().as_secs_f64();
    match status.code() {
        Some(0) => Ok(ColdStart { seconds, verified: true }),
        Some(1) => Ok(ColdStart { seconds, verified: false }),
        _ => Err(format!("a cold start of {workload} ended with {status}")),
    }
}

/// Write the kept spans and the per-name totals to
/// `benchmark/out/trace_<workload>.json` under the current directory.
pub fn write_trace_file(
    workload: &str,
    seed: u64,
    threads: &[ThreadTrace],
    totals: &BTreeMap<&'static str, Total>,
) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace_{workload}.json"));
    let mut f = BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "{{\"workload\": \"{workload}\", \"seed\": {seed},")?;
    writeln!(f, " \"totals\": {{")?;
    for (i, (name, t)) in totals.iter().enumerate() {
        let sep = if i + 1 == totals.len() { "" } else { "," };
        writeln!(
            f,
            "  \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{sep}",
            t.count, t.total_ns, t.self_ns
        )?;
    }
    writeln!(f, " }},")?;
    writeln!(f, " \"span_fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"op_id\"],")?;
    writeln!(f, " \"threads\": [")?;
    for (i, t) in threads.iter().enumerate() {
        writeln!(f, "  {{\"thread\": \"{}\", \"spans\": [", t.label)?;
        for (j, s) in t.spans.iter().enumerate() {
            let sep = if j + 1 == t.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "   [\"{}\", {}, {}, {parent}, {}]{sep}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        writeln!(f, "  ]}}{}", if i + 1 == threads.len() { "" } else { "," })?;
    }
    writeln!(f, " ]}}")?;
    f.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::number_after;

    #[test]
    fn reads_plain_and_wrapped_numbers_from_a_result_line() {
        let line = r#"{"correct": true, "attempted": 4640015, "failed": 0, "metrics": {"ops_per_s": {"value": 251641.8775, "unit": "1/s"}, "setup_s": {"value": 2.5e-4, "unit": "s"}}}"#;
        assert_eq!(number_after(line, "attempted"), Some(4640015.0));
        assert_eq!(number_after(line, "failed"), Some(0.0));
        assert_eq!(number_after(line, "ops_per_s"), Some(251641.8775));
        assert_eq!(number_after(line, "setup_s"), Some(2.5e-4));
        assert_eq!(number_after(line, "cpu_us_per_op"), None);
    }
}
