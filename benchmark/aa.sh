#!/usr/bin/env bash
# A/A check: is the benchmark steady enough to gate on?
#
# Runs two alternating sets (A, B, A, B, ...) of the same build on every
# workload, each run with its own seed, and fails if the medians of the two
# sets differ on any end-to-end metric by more than the bound BENCHMARK.json
# gives that metric. Also prints, per metric, the interquartile range of all
# runs as a share of their median (what the benchmark's driver checks), and
# per run the noise.seg_iqr_frac and noise.steal_frac the run saw, so that a
# disturbed run is visible and not silently averaged.
#
#   bash benchmark/aa.sh [runs-per-set (default 5)] [workload ...]
#
# Writes every run's result to benchmark/out/aa.json.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

per_set=${1:-5}
shift || true
if (( per_set < 5 )); then
    echo "aa.sh: at least 5 runs per set" >&2
    exit 2
fi

exec python3 - "$per_set" "$@" <<'PY'
import json, statistics, subprocess, sys

per_set = int(sys.argv[1])
spec = json.load(open("BENCHMARK.json"))
workloads = sys.argv[2:] or [w["name"] for w in spec["workloads"]]
seconds = spec["run_seconds"]

runs = {}
for w in workloads:
    runs[w] = []
    for i in range(2 * per_set):
        cmd = spec["command"] + ["--workload", w, "--seed", str(i + 1),
                                 "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        result, info = lines[-1], lines[-2]["info"]
        run = {"set": "AB"[i % 2], "seed": i + 1, "info": info, **result}
        runs[w].append(run)
        m = result["metrics"]
        print(f"{w:14s} {run['set']} seed {i + 1:2d}  "
              f"ops_per_s {m['ops_per_s']['value']:12.1f}  "
              f"noise.seg_iqr_frac {info['noise.seg_iqr_frac']:.3f}  "
              f"noise.steal_frac {info['noise.steal_frac']:.3f}  "
              f"failed {result['failed']}", flush=True)

json.dump(runs, open("benchmark/out/aa.json", "w"), indent=1)

bad = []
print(f"\n{'workload':14s} {'metric':15s} {'median A':>13s} {'median B':>13s} "
      f"{'A/B gap':>8s} {'IQR/med':>8s} {'bound':>6s}")
for w, rs in runs.items():
    if any(r["failed"] or not r["correct"] for r in rs):
        bad.append(f"{w}: a run failed verification")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        vals = {s: [r["metrics"][name]["value"] for r in rs if r["set"] == s] for s in "AB"}
        a, b = statistics.median(vals["A"]), statistics.median(vals["B"])
        gap = abs(a - b) / min(a, b)
        everything = vals["A"] + vals["B"]
        q = statistics.quantiles(everything, n=4)
        spread = (q[2] - q[0]) / statistics.median(everything)
        flag = ""
        if gap > bound:
            flag = "  <-- sets disagree"
            bad.append(f"{w}/{name}: sets differ by {gap:.1%}, bound {bound:.1%}")
        elif spread > bound and name != "setup_s":
            flag = "  <-- spread over bound"
            bad.append(f"{w}/{name}: spread {spread:.1%}, bound {bound:.1%}")
        print(f"{w:14s} {name:15s} {a:13.5g} {b:13.5g} {gap:8.2%} {spread:8.2%} {bound:6.1%}{flag}")

if bad:
    print("\naa.sh: NOT steady:\n  " + "\n  ".join(bad))
    sys.exit(1)
print("\naa.sh: the two sets agree within every bound")
PY
