"""Smoke tests of the benchmark at tiny size.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    out = _result(_run(ROOT, "--workload", workload, "--seed", "1",
                       "--seconds", "0.1", "--trace", str(trace),
                       "--size", "tiny"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(out["metrics"][m["name"]]["value"], (int, float))


def test_tracer_wraps_every_binding_site_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import hypersint.cli  # noqa: F401
    from hypersint import algebra, geometry, potential1
    from tracer import Tracer

    orig = (geometry.apply_operator, geometry.ambient_to_chart)
    tracer = Tracer()
    tracer.install()
    try:
        assert algebra.apply_operator is geometry.apply_operator
        assert potential1.ambient_to_chart is geometry.ambient_to_chart
        assert algebra.apply_operator is not orig[0]
        assert potential1.ambient_to_chart is not orig[1]
        assert tracer.binding_sites["geometry.apply_operator"] >= 2
        q = geometry.chart_to_ambient(geometry.ChartPoint("equidistant",
                                                          0.5, 0.2))
        potential1.ambient_to_chart(q, "horicyclic")
    finally:
        tracer.uninstall()
    assert (geometry.apply_operator, geometry.ambient_to_chart) == orig
    assert algebra.apply_operator is orig[0]
    summary = tracer.summarize()
    assert summary["functions"]["geometry.ambient_to_chart"]["calls"] == 1


def test_identity_is_checked_only_for_compared_passes(tmp_path):
    sys.path.insert(0, str(BENCH))
    from child import Ledger, run_pass
    from workloads import Job

    outputs = iter([b"a", b"a", b"b"])
    job = Job("job", lambda _dir: next(outputs),
              lambda out, checks, name: checks.add(f"{name}/ran", True),
              lambda out: out)
    ledger = Ledger([job])
    ledger.first_pass(run_pass([job], tmp_path))
    assert ledger.summary()["failed_checks"] == []
    assert ledger.summary()["checks"] == 1     # no identity claim yet
    ledger.later_pass(run_pass([job], tmp_path))
    assert ledger.summary()["checks"] == 2
    assert ledger.summary()["ops_failed"] == 0
    ledger.later_pass(run_pass([job], tmp_path))
    summary = ledger.summary()
    assert summary["failed_checks"] == ["job/identical-across-passes"]
    assert summary["ops"] == 3 and summary["ops_failed"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

