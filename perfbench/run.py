"""hypersint benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-fixture --seed 0 \
        --seconds 36 --trace 0

The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (``wall_s``, ``setup_s``, ``pass_ratio``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones from a
separate traced process.  Load is a closed loop: one client, one job at a
time, in fresh interpreters started here with BLAS/OpenMP pinned to one
thread.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-fixture", "roots-deep")
SETUP_PROBES = 7
# Time allowed beyond --seconds: the set-up probes, the warm-up pass, the
# last timed pass's overshoot, or the three passes of a traced run.
MARGIN_S = 130.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(mode: str, args, tag: str, deadline: float) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result."""
    workdir = ROOT / ".perfbench" / f"{tag}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "child.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size,
           "--workdir", str(workdir)]
    left = deadline - time.monotonic()
    if left <= 0:
        raise RuntimeError(f"no time left for the {mode} process")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=left)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, deadline: float) -> dict:
    probes = [run_child("setup", args, f"setup{i}", deadline)
              for i in range(SETUP_PROBES)]
    res = run_child("measure", args, "measure", deadline)
    setup = [p["import_s"] + p["cold_s"] - p["warm_s"] for p in probes]
    print(f"env: {json.dumps(res['env'])}")
    print("setup probes: " + ", ".join(
        f"import {p['import_s']:.3f}s cold {p['cold_s']:.3f}s "
        f"warm {p['warm_s']:.3f}s" for p in probes))
    print(f"warm-up pass: {res['warm_up_s']:.3f}s; timed passes: "
          + ", ".join(f"{s:.3f}s" for s in res["pass_s"]))
    print("median job times: " + ", ".join(
        f"{name} {s:.3f}s" for name, s in res["job_s"].items()))
    res["metrics"] = {
        "wall_s": metric(statistics.median(res["pass_s"]), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "pass_ratio": metric(res["checks_passed"] / res["checks"], "1"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    return res


def traced(args, deadline: float) -> dict:
    res = run_child("trace", args, "trace", deadline)
    print(f"env: {json.dumps(res['env'])}")
    print(f"spans: {res['spans']}, written to {res['trace_file']}")
    layers = ", ".join(f"{k} {v:.3f}s" for k, v in
                       sorted(res["layers"].items()))
    m = res["metrics"]
    print(f"self time by layer: {layers}; traced wall "
          f"{m['trace.wall_s']['value']:.3f}s, unattributed "
          f"{m['trace.unattributed_s']['value']:.3f}s")
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke-test job list")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hypersint" / "__init__.py").is_file():
        print(f"perfbench: no hypersint sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + MARGIN_S + args.seconds
    try:
        res = traced(args, deadline) if args.trace else \
            end_to_end(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if res["failed_checks"]:
        print("failed checks: " + ", ".join(res["failed_checks"]))
    print(json.dumps({"correct": res["ops_failed"] == 0,
                      "attempted": res["ops"], "failed": res["ops_failed"],
                      "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
