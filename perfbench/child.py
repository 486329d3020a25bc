"""One measurement process of the benchmark; ``run.py`` starts it.

Modes (the result is one JSON object on the last line of stdout):

setup    fresh-interpreter import of ``hypersint``, a cold pass over the
         workload's tiny job list, then ``WARM_PROBES`` warm passes over it.
measure  an untimed warm-up pass over the full job list, whose outputs are
         checked, then timed passes, as many as are expected to fit in
         ``--seconds`` (at least one).  Every timed pass must be
         byte-identical to the warm-up pass.  No tracer is installed.
trace    a cold pass with only the quadrature node tables wrapped, a warm
         untraced pass, then a warm pass with every layer wrapped; prints
         the per-layer metrics and writes the spans next to the work dir.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


@dataclass
class PassResult:
    seconds: float = 0.0
    job_s: list = field(default_factory=list)
    results: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)


def run_pass(jobs, outdir: Path, tracer=None) -> PassResult:
    """Run every job once; only the jobs themselves are timed."""
    outdir.mkdir(parents=True, exist_ok=True)
    res = PassResult()
    for job in jobs:
        sid = tracer.begin_job(job.name) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            out = job.run(outdir)
        except Exception:  # a job that raises is a failed operation
            out = None
            res.errors[job.name] = traceback.format_exc()
        res.job_s.append(time.perf_counter() - t0)
        res.seconds += res.job_s[-1]
        if tracer is not None:
            tracer.end_job(sid)
        res.results.append(out)
    return res


def fingerprints(jobs, res: PassResult) -> list:
    """Output bytes per job; None where the job raised or left no output."""
    out = []
    for job, result in zip(jobs, res.results):
        try:
            out.append(None if job.name in res.errors
                       else job.fingerprint(result))
        except OSError:
            out.append(None)
    return out


class Ledger:
    """Operations attempted/failed and the checks behind ``pass_ratio``."""

    def __init__(self, jobs):
        from workloads import Checks
        self.jobs = jobs
        self.checks = Checks()
        self.ops = 0
        self.ops_failed = 0
        self.reference: list = []
        self.identical = [True] * len(jobs)
        self.compared = [False] * len(jobs)

    def first_pass(self, res: PassResult):
        """Check the first pass's outputs and keep its bytes."""
        for job, out in zip(self.jobs, res.results):
            self.ops += 1
            before = len(self.checks.records)
            if job.name in res.errors:
                self.checks.add(f"{job.name}/raised", False)
                sys.stderr.write(res.errors[job.name])
            else:
                try:
                    job.check(out, self.checks, job.name)
                except Exception:
                    self.checks.add(f"{job.name}/output-readable", False)
                    sys.stderr.write(traceback.format_exc())
            new = self.checks.records[before:]
            if any(validity and not ok for _, ok, validity in new):
                self.ops_failed += 1
        self.reference = fingerprints(self.jobs, res)

    def later_pass(self, res: PassResult):
        """Count a repeated pass; its bytes must equal the first pass's."""
        for i, fp in enumerate(fingerprints(self.jobs, res)):
            self.ops += 1
            self.compared[i] = True
            if fp is None or fp != self.reference[i]:
                self.identical[i] = False
                self.ops_failed += 1
                sys.stderr.write(res.errors.get(self.jobs[i].name, ""))

    def summary(self) -> dict:
        recs = list(self.checks.records)
        recs += [(f"{job.name}/identical-across-passes", ok, True)
                 for job, ok, seen in zip(self.jobs, self.identical,
                                          self.compared) if seen]
        return {
            "ops": self.ops, "ops_failed": self.ops_failed,
            "checks": len(recs), "checks_passed": sum(ok for _, ok, _ in recs),
            "failed_checks": [i for i, ok, _ in recs if not ok],
        }


def _env_info() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


# Warm passes per set-up probe; the fastest one is the probe's warm time, so
# a slow warm pass does not shrink the probe's first-pass extra.
WARM_PROBES = 2


def mode_setup(args, workdir: Path) -> dict:
    """Import time, then the tiny job list once cold and then warm."""
    t0 = time.perf_counter()
    import hypersint.cli  # noqa: F401  (imports every layer)
    import_s = time.perf_counter() - t0
    import workloads
    tiny = workloads.build(args.workload, args.seed, "tiny")
    cold = run_pass(tiny, workdir / "cold")
    warm = [run_pass(tiny, workdir / f"warm{i}").seconds
            for i in range(WARM_PROBES)]
    return {"import_s": import_s, "cold_s": cold.seconds,
            "warm_s": min(warm)}


def mode_measure(args, workdir: Path) -> dict:
    import hypersint.cli  # noqa: F401
    import workloads
    jobs = workloads.build(args.workload, args.seed, args.size)
    ledger = Ledger(jobs)
    warm_up = run_pass(jobs, workdir / "warm-up")
    ledger.first_pass(warm_up)
    passes, job_s = [], []
    # another pass only when it is expected to end within --seconds
    while not passes or sum(passes) * (1 + 1 / len(passes)) <= args.seconds:
        res = run_pass(jobs, workdir / f"pass{len(passes)}")
        passes.append(res.seconds)
        job_s.append(res.job_s)
        ledger.later_pass(res)
        shutil.rmtree(workdir / f"pass{len(passes) - 1}", ignore_errors=True)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"pass_s": passes, "warm_up_s": warm_up.seconds,
            "peak_rss_mb": rss_kb / 1024.0,
            "job_s": {job.name: statistics.median(t) for job, t
                      in zip(jobs, zip(*job_s))},
            "env": _env_info(), **ledger.summary()}


NODE_TABLES = {"specfun": ("gauss_legendre_nodes", "tanh_sinh_nodes")}


def mode_trace(args, workdir: Path) -> dict:
    import hypersint.cli  # noqa: F401
    import workloads
    from tracer import Tracer
    jobs = workloads.build(args.workload, args.seed, args.size)
    ledger = Ledger(jobs)

    tables = Tracer(only=NODE_TABLES)
    tables.install()
    try:
        cold = run_pass(jobs, workdir / "cold")
    finally:
        tables.uninstall()
    ledger.first_pass(cold)
    node_cold = sum(f["incl_s"] for f in tables.summarize()["functions"]
                    .values())

    warm = run_pass(jobs, workdir / "warm")
    ledger.later_pass(warm)

    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(jobs, workdir / "traced", tracer)
    finally:
        tracer.uninstall()
    ledger.later_pass(traced)
    summary = tracer.summarize()
    out_dir = workdir.parent
    stem = f"trace-{args.workload}"
    tracer.save(out_dir / f"{stem}.npz")
    (out_dir / f"{stem}.json").write_text(json.dumps(summary, indent=1))
    metrics = layer_metrics(summary, traced.seconds, warm.seconds,
                            cold.seconds, node_cold)
    return {"metrics": metrics, "spans": summary["spans"],
            "binding_sites": summary["binding_sites"],
            "layers": summary["layers"], "env": _env_info(),
            "trace_file": str(out_dir / f"{stem}.npz"), **ledger.summary()}


SUITES = ("orthonormality", "eigen", "linear-relations", "quadratic-algebra",
          "interbasis", "cross-chart")


def layer_metrics(summary: dict, traced_s: float, warm_s: float,
                  cold_s: float, node_cold_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    fns, ctr = summary["functions"], summary["counters"]

    def get(key, field, *names):
        return sum(fns.get(f"{key}.{n}", {}).get(field, 0) for n in names)

    m: dict[str, tuple[float, str]] = {}
    for name in ("log_gamma", "jacobi", "laguerre", "hyp3f2_unit", "integrate"):
        m[f"specfun.{name}.calls"] = (get("specfun", "calls", name), "count")
        if name in ("jacobi", "laguerre"):
            m[f"specfun.{name}.points"] = (get("specfun", "points", name),
                                           "count")
        m[f"specfun.{name}.self_s"] = (get("specfun", "self_s", name), "s")
    m["specfun.quadrature_nodes"] = (get("specfun", "points", "_eval_vec"),
                                     "count")
    m["specfun.node_tables.cold_s"] = (node_cold_s, "s")

    applies = get("geometry", "calls", "apply_operator")
    m["geometry.apply_operator.calls"] = (applies, "count")
    m["geometry.apply_operator.self_s"] = (
        get("geometry", "self_s", "apply_operator"), "s")
    m["geometry.wf_evals_per_apply"] = (
        ctr.get("geometry.wf_evals", 0) / applies if applies else 0.0, "1")
    m["geometry.generator_flow.calls"] = (
        get("geometry", "calls", "generator_flow"), "count")
    m["geometry.ambient_to_chart.calls"] = (
        get("geometry", "calls", "ambient_to_chart"), "count")
    m["geometry.ambient_to_chart.self_s"] = (
        get("geometry", "self_s", "ambient_to_chart"), "s")
    m["geometry.chart_to_ambient.calls"] = (
        get("geometry", "calls", "chart_to_ambient"), "count")

    p1_wf = ("p1_wf_equidistant", "p1_wf_horicyclic",
             "p1_wf_elliptic_parabolic", "p1_wf_hyperbolic_parabolic")
    p1_roots = ("p1_ep_roots", "p1_hp_roots")
    m["potential1.wf.calls"] = (get("potential1", "calls", *p1_wf), "count")
    m["potential1.wf.points"] = (get("potential1", "points", *p1_wf), "count")
    m["potential1.wf.self_s"] = (get("potential1", "self_s", *p1_wf), "s")
    m["potential1.roots.calls"] = (get("potential1", "calls", *p1_roots),
                                   "count")
    m["potential1.roots.self_s"] = (get("potential1", "self_s", *p1_roots),
                                    "s")
    m["potential1.equations.calls"] = (
        get("potential1", "calls", "p1_ep_equations", "p1_hp_equations"),
        "count")
    for k in ("configs_found", "configs_expected"):
        m[f"potential1.roots.{k}"] = (ctr.get(f"potential1.roots.{k}", 0),
                                      "count")

    p2_wf = ("p2_wf_equidistant", "p2_wf_semihyperbolic")
    m["potential2.sh_roots.self_s"] = (
        get("potential2", "self_s", "p2_sh_roots"), "s")
    m["potential2.sh_equations.calls"] = (
        get("potential2", "calls", "p2_sh_equations"), "count")
    m["potential2.sh_roots.configs_found"] = (
        ctr.get("potential2.sh_roots.configs_found", 0), "count")
    m["potential2.wf.calls"] = (get("potential2", "calls", *p2_wf), "count")
    m["potential2.wf.self_s"] = (get("potential2", "self_s", *p2_wf), "s")

    for name in ("w_quadrature", "w_3f2", "w_hahn", "verify_expansion"):
        m[f"interbasis.{name}.self_s"] = (get("interbasis", "self_s", name),
                                          "s")
    for method in ("quadrature", "3f2", "hahn"):
        key = f"interbasis.orth_defect_max.{method}"
        m[key] = (ctr.get(key, 0.0), "1")

    for name in ("project_operator", "eigen_residual",
                 "check_linear_relations"):
        m[f"algebra.{name}.self_s"] = (get("algebra", "self_s", name), "s")

    for suite in SUITES:
        m[f"cli.suite.{suite}.s"] = (
            get("bench", "incl_s", f"verify-v1-{suite}", f"verify-v2-{suite}"),
            "s")
    m["cli.serialize.self_s"] = (get("cli", "self_s", "dumps_json",
                                     "dumps_csv"), "s")
    m["cli.write_output.self_s"] = (get("cli", "self_s", "write_output"), "s")
    m["cli.output_bytes"] = (ctr.get("cli.output_bytes", 0), "B")

    layers = summary["layers"]
    attributed = 0.0
    for layer in ("specfun", "geometry", "potential1", "potential2",
                  "interbasis", "algebra", "cli"):
        m[f"layer.{layer}.self_s"] = (layers.get(layer, 0.0), "s")
        attributed += layers.get(layer, 0.0)
    m["trace.wall_s"] = (traced_s, "s")
    m["trace.untraced_wall_s"] = (warm_s, "s")
    m["trace.overhead_ratio"] = (traced_s / warm_s, "1")
    m["trace.unattributed_s"] = (traced_s - attributed, "s")
    m["trace.first_pass_extra_s"] = (cold_s - warm_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


MODES = {"setup": mode_setup, "measure": mode_measure, "trace": mode_trace}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=sorted(MODES))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    workdir = Path(args.workdir)
    try:
        result = MODES[args.mode](args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
