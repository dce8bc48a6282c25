#!/usr/bin/env python3
"""Build and run the xgw end-to-end benchmark.

    python3 e2ebench/run.py --workload gpp_defect --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --write-references

Builds the xgw libraries and the harness from the enclosing checkout into
.bench_build/ (build output goes to stderr), then runs the harness from the
checkout root. The harness prints the JSON result as the last stdout line
and exits non-zero when any output check fails. With --trace 0, set-up is
also timed in fresh processes and setup_s is the median of all of them.
See e2ebench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
# Cold set-ups timed in extra processes, besides the measuring run's own.
EXTRA_SETUPS = 2


def build():
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "xgw_e2ebench",
                    "-j", "4"], stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-references", action="store_true",
                   help="recompute e2ebench/references.txt")
    a = p.parse_args()
    if not a.write_references and not a.workload:
        p.error("--workload is required")
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"e2ebench: no xgw sources at {ROOT} "
                 "(expected CMakeLists.txt and src/ beside e2ebench/)")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"e2ebench: build failed: {e}")

    cmd = [str(BUILD / "xgw_e2ebench"), "--bench-dir", str(HERE),
           "--tmp-root", str(BUILD / "tmp")]
    # The harness fixes its own thread budget; runtime knobs from the
    # caller's environment would change what is measured.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("XGW_", "OMP_", "GOMP_"))}
    if a.write_references:
        cmd += ["--write-references", str(HERE / "references.txt")]
        sys.exit(subprocess.run(cmd, env=env, cwd=ROOT).returncode)

    cmd += ["--workload", a.workload]
    setups = []
    if a.trace == 0:
        for _ in range(EXTRA_SETUPS):
            p = subprocess.run(cmd + ["--setup-only", "1"], env=env, cwd=ROOT,
                               stdout=subprocess.PIPE, text=True)
            if p.returncode != 0:
                sys.exit(p.returncode)
            setups.append(json.loads(p.stdout.splitlines()[-1])["setup_s"])
    p = subprocess.run(cmd + ["--seed", str(a.seed), "--seconds",
                              str(a.seconds), "--trace", str(a.trace)],
                       env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.splitlines()
    if setups and lines and p.returncode in (0, 1):
        result = json.loads(lines[-1])
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setup["value"] = statistics.median(setups)
        print("set-ups (s): " + ", ".join(f"{s:.4f}" for s in setups),
              file=sys.stderr)
        lines[-1] = json.dumps(result)
    print("\n".join(lines), flush=True)
    sys.exit(p.returncode)


if __name__ == "__main__":
    main()
