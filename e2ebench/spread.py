#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, for the noise record.

    python3 e2ebench/spread.py --sets 2 --runs 10 --first-seed 401 \\
        --out e2ebench/NOISE.json

Runs e2ebench/run.py --trace 0 once per seed on each workload, one run at a
time. A set is `--runs` seeds on every workload in turn; each set uses new
seeds and starts when the previous one has finished. Per set, workload and
metric the record holds the values, their quartiles
(statistics.quantiles(values, n=4)) and the quartile distance as a share of
the median, which is how BENCHMARK.json bounds are checked. With two or more
sets it also holds, per workload and metric, how much worse each set's
median is than the first set's, as a share of the first (negative: better),
and whether that exceeds the metric's bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds):
    t0 = time.monotonic()
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                        workload, "--seed", str(seed), "--seconds",
                        str(seconds), "--trace", "0"],
                       cwd=HERE.parent, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: rc {p.returncode}\n{p.stderr}")
    return (json.loads(p.stdout.strip().splitlines()[-1])["metrics"],
            time.monotonic() - t0)


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med, "values": values}


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=401)
    p.add_argument("--workloads", nargs="*",
                   default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--out", required=True)
    a = p.parse_args()

    record = {"host": {"cpu_model": cpu_model(), "logical_cpus":
                       len(os.sched_getaffinity(0))},
              "thread_budget": 4, "run_seconds": bench["run_seconds"],
              "sets": []}
    for k in range(a.sets):
        first = a.first_seed + k * a.runs
        s = {"seeds": list(range(first, first + a.runs)),
             "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "run_wall_s_max": 0.0, "workloads": {}}
        record["sets"].append(s)
        for w in a.workloads:
            values = {}
            for seed in s["seeds"]:
                m, wall = run_once(w, seed, bench["run_seconds"])
                for name, v in m.items():
                    values.setdefault(name, []).append(v["value"])
                s["run_wall_s_max"] = max(s["run_wall_s_max"], wall)
                print(f"set {k + 1} {w} seed {seed} done ({wall:.1f} s)",
                      file=sys.stderr, flush=True)
            s["workloads"][w] = {n: summary(v) for n, v in values.items()}
            Path(a.out).write_text(json.dumps(record, indent=1) + "\n")

    base = record["sets"][0]["workloads"]
    if len(record["sets"]) > 1:
        change = {}
        for w, rows in base.items():
            for n, r in rows.items():
                for k, s in enumerate(record["sets"][1:], start=2):
                    m = metrics[n]
                    later = s["workloads"][w][n]["median"]
                    worse = ((later - r["median"]) / r["median"]
                             if m["better"] == "lower"
                             else (r["median"] - later) / r["median"])
                    change.setdefault(w, {}).setdefault(n, {})[f"set{k}"] = {
                        "worse_by": worse, "bound": m["bound"],
                        "exceeds_bound": worse > m["bound"]}
        record["set_to_set"] = change
        Path(a.out).write_text(json.dumps(record, indent=1) + "\n")

    for k, s in enumerate(record["sets"], start=1):
        for w, rows in s["workloads"].items():
            for n, r in rows.items():
                line = (f"set {k} {w:11s} {n:15s} median {r['median']:.5g} "
                        f"iqr/median {r['iqr_over_median']:.4f}")
                if k > 1:
                    c = record["set_to_set"][w][n][f"set{k}"]
                    line += f"  worse than set 1 by {c['worse_by']:+.4f}"
                print(line)


if __name__ == "__main__":
    main()
