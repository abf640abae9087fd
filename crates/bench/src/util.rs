//! Shared harness utilities.

use std::path::PathBuf;

/// Read a scale/size knob from the environment with a default, so sweeps
/// can be shrunk for smoke runs (`PARDIS_QUICK=1 ...`).
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Integer environment knob.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Is `PARDIS_QUICK` set? Harnesses then shrink their sweeps to smoke-test
/// size.
pub fn quick() -> bool {
    std::env::var("PARDIS_QUICK").is_ok_and(|v| v != "0")
}

/// Render one table row of f64 seconds.
pub fn row(label: &str, values: &[f64]) -> String {
    let mut out = format!("{label:<22}");
    for v in values {
        out.push_str(&format!(" {v:>9.3}"));
    }
    out
}

/// Machine-readable companion to the figure harnesses' text tables: one
/// `results/BENCH_<id>.json` file per harness, with the swept column values
/// and every series, in insertion order so reruns diff cleanly.
pub struct BenchJson {
    id: String,
    title: String,
    params: Vec<(String, String)>,
    columns: Vec<f64>,
    series: Vec<(String, Vec<f64>)>,
}

impl BenchJson {
    /// New report; `id` names the output file (`results/BENCH_<id>.json`).
    pub fn new(id: &str, title: &str) -> BenchJson {
        let mut b = BenchJson {
            id: id.to_string(),
            title: title.to_string(),
            params: Vec::new(),
            columns: Vec::new(),
            series: Vec::new(),
        };
        b.param_bool("quick", quick());
        b
    }

    pub fn param_f64(&mut self, name: &str, v: f64) {
        self.params.push((name.to_string(), json_num(v)));
    }

    pub fn param_usize(&mut self, name: &str, v: usize) {
        self.params.push((name.to_string(), v.to_string()));
    }

    pub fn param_bool(&mut self, name: &str, v: bool) {
        self.params.push((name.to_string(), v.to_string()));
    }

    /// The swept axis (problem sizes, processor counts, ...).
    pub fn columns(&mut self, values: &[f64]) {
        self.columns = values.to_vec();
    }

    /// One measured series, same length as the columns.
    pub fn series(&mut self, name: &str, values: &[f64]) {
        self.series.push((name.to_string(), values.to_vec()));
    }

    /// Render the report as JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"bench\": {},\n", json_str(&self.id)));
        s.push_str(&format!("  \"title\": {},\n", json_str(&self.title)));
        s.push_str("  \"params\": {");
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    {}: {v}", json_str(k)));
        }
        s.push_str("\n  },\n");
        s.push_str(&format!("  \"columns\": {},\n", json_nums(&self.columns)));
        s.push_str("  \"series\": {");
        for (i, (k, v)) in self.series.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    {}: {}", json_str(k), json_nums(v)));
        }
        s.push_str("\n  }\n}\n");
        s
    }

    /// Write to `results/BENCH_<id>.json` (creating `results/`), saying on
    /// stderr where, or why not.
    pub fn write(&self) {
        let path = PathBuf::from("results").join(format!("BENCH_{}.json", self.id));
        let written =
            std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, self.to_json()));
        match written {
            Ok(()) => eprintln!("  wrote {}", path.display()),
            Err(e) => eprintln!("  JSON write failed: {e}"),
        }
    }

    /// Compare this report against a baseline `BENCH_*.json` text over the
    /// shared series/columns; returns human-readable regression complaints.
    /// Direction comes from the series name ([`higher_is_better`]); columns
    /// absent from either side are skipped, so a quick run gates cleanly
    /// against a full-sweep baseline. `slack` is an absolute allowance (in
    /// the series' own unit) on top of the relative tolerance, so
    /// millisecond-scale points on noisy CI runners don't gate on
    /// scheduling jitter.
    pub fn compare(&self, baseline_text: &str, tol: f64, slack: f64) -> Vec<String> {
        let arrays = parse_arrays(baseline_text);
        let Some(base_cols) = arrays.iter().find(|(n, _)| n == "columns").map(|(_, v)| v.clone())
        else {
            return vec!["baseline has no columns array".into()];
        };
        let mut complaints = Vec::new();
        for (name, vals) in &self.series {
            let Some((_, base_vals)) = arrays.iter().find(|(n, _)| n == name) else { continue };
            for (ci, col) in self.columns.iter().enumerate() {
                let Some(bi) = base_cols.iter().position(|c| c == col) else { continue };
                let (Some(&cur_v), Some(&base_v)) = (vals.get(ci), base_vals.get(bi)) else {
                    continue;
                };
                if !cur_v.is_finite() || !base_v.is_finite() || base_v == 0.0 {
                    continue;
                }
                let bad = if higher_is_better(name) {
                    cur_v < base_v * (1.0 - tol) - slack
                } else {
                    cur_v > base_v * (1.0 + tol) + slack
                };
                if bad {
                    complaints.push(format!(
                        "{name} @ {col}: {cur_v:.3} vs baseline {base_v:.3} \
                         (>{:.0}% regression)",
                        tol * 100.0
                    ));
                }
            }
        }
        complaints
    }

    /// The `--compare <baseline>` regression gate every figure bin shares:
    /// with the flag absent this is a no-op; with it, compare against the
    /// baseline file under `PARDIS_BENCH_TOL` (default 30%, plus an
    /// absolute `PARDIS_BENCH_SLACK`, default 0) and exit(1) listing every
    /// regressed series point.
    pub fn gate_from_args(&self) {
        let Some(path) = std::env::args().skip_while(|a| a != "--compare").nth(1) else {
            return;
        };
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let tol = env_f64("PARDIS_BENCH_TOL", 0.30);
        let slack = env_f64("PARDIS_BENCH_SLACK", 0.0);
        let complaints = self.compare(&text, tol, slack);
        if complaints.is_empty() {
            println!("regression gate: ok (tolerance {:.0}%)", tol * 100.0);
        } else {
            for c in &complaints {
                eprintln!("regression: {c}");
            }
            std::process::exit(1);
        }
    }
}

/// Pull every `"name": [v, v, ...]` array out of a BenchJson file (the
/// format is line-regular; no JSON dependency needed).
pub fn parse_arrays(text: &str) -> Vec<(String, Vec<f64>)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((name, rest)) = line.split_once(':') else { continue };
        let name = name.trim().trim_matches('"');
        let rest = rest.trim();
        if !rest.starts_with('[') || !rest.ends_with(']') {
            continue;
        }
        let vals: Option<Vec<f64>> = rest[1..rest.len() - 1]
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| s.trim().parse().ok())
            .collect();
        if let Some(vals) = vals {
            out.push((name.to_string(), vals));
        }
    }
    out
}

/// True when higher values of the series are better: throughput
/// (`*_mb_s`, `*_mbps`, `*_rps`), bandwidth scaling, and hidden-fraction
/// series. Everything else (seconds, milliseconds) regresses upward.
pub fn higher_is_better(name: &str) -> bool {
    name.ends_with("_mb_s")
        || name.ends_with("_mbps")
        || name.ends_with("_frac")
        || name.ends_with("_rps")
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_nums(vs: &[f64]) -> String {
    let body: Vec<String> = vs.iter().map(|v| json_num(*v)).collect();
    format!("[{}]", body.join(", "))
}
