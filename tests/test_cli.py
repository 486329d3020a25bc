import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hypersint import cli as hcli
from hypersint import geometry as geo
from hypersint import potential1 as p1
from hypersint.errors import OutOfDomainError

SQRT2 = math.sqrt(2.0)


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "hypersint.cli", *args],
                          capture_output=True, text=True, **kw)


def run_main(args):
    """In-process invocation (fast); returns (exit_code, stdout_text)."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hcli.main(args)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_fixture_values():
    code, out = run_main(["spectrum"])
    assert code == 0
    data = json.loads(out)
    energies = [rec["E"] for rec in data["records"]]
    assert np.allclose(energies, [-10.0, -3.0, 0.0], atol=1e-12)
    assert [rec["degeneracy"] for rec in data["records"]] == [1, 2, 3]


def test_spectrum_empty_is_explicit():
    code, out = run_main(["spectrum", "--alpha", "1", "--beta", "10",
                          "--gamma", "1"])
    assert code == 0
    assert json.loads(out)["records"] == [{"no_bound_states": True}]


def test_spectrum_v2():
    code, out = run_main(["spectrum", "--potential", "v2", "--alpha", "0.1",
                          "--beta", "3", "--gamma", "1"])
    assert code == 0
    recs = json.loads(out)["records"]
    assert len(recs) == 1
    assert abs(recs[0]["E"] + 1.5650399) < 1e-6


def test_spectrum_csv_format():
    code, out = run_main(["spectrum", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "N,E,degeneracy,n,m,mu"
    assert len([ln for ln in lines if not ln.startswith("#")]) == 1 + 6


# ---------------------------------------------------------------------------
# wavefunction
# ---------------------------------------------------------------------------

def test_wavefunction_grid_shape(tmp_path):
    out_file = tmp_path / "grid.csv"
    code, _ = run_main(["wavefunction", "--chart", "equidistant",
                        "--quantum", "0,0",
                        "--grid", "50x50:0.1,2.0,-1.5,1.5",
                        "--format", "csv", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    rows = [ln for ln in lines if not ln.startswith("#") and "," in ln]
    assert len(rows) == 2500 + 1  # header + points


def test_wavefunction_grid_matches_library():
    code, out = run_main(["wavefunction", "--chart", "equidistant",
                          "--quantum", "1,1", "--grid", "3x3:0.2,1.0,-1.0,1.0"])
    assert code == 0
    data = json.loads(out)
    p = p1.P1Params(1.0, 1.0 / SQRT2, 2.0 * SQRT2)
    st = p1.P1State(p, "equidistant", (1, 1))
    for rec in data["records"]:
        direct = float(p1.p1_wf_equidistant(st, rec["u1"], rec["u2"]))
        assert rec["psi"] == direct  # bit-for-bit
        assert rec["abs2"] == direct * direct


def test_wavefunction_invalid_quantum_numbers_exit_2():
    r = run_cli(["wavefunction", "--chart", "equidistant", "--quantum", "9,9",
                 "--grid", "2x2:0.1,1,0.1,1"])
    assert r.returncode == 2
    assert "window" in r.stderr


def test_wavefunction_bethe_failure_exit_3():
    r = run_cli(["wavefunction", "--chart", "elliptic-parabolic",
                 "--quantum", "1,0,1", "--form", "derived",
                 "--bethe-tol", "-1", "--grid", "2x2:0.3,1,0.3,1"])
    assert r.returncode == 3
    assert "best residual" in r.stderr


def test_wavefunction_parabolic_zone_selection():
    code, out = run_main(["wavefunction", "--chart", "elliptic-parabolic",
                          "--quantum", "1,1,0", "--form", "derived",
                          "--grid", "2x2:0.3,1.0,0.3,1.0"])
    assert code == 0
    meta = json.loads(out)["meta"]
    assert abs(meta["roots"][0] - (7 - math.sqrt(35)) / 2) < 1e-9


@pytest.mark.parametrize("chart, quantum", [
    ("elliptic-parabolic", "1,0,1"), ("hyperbolic-parabolic", "1,0,1"),
    ("horicyclic", "1,1")])
def test_wavefunction_cells_outside_the_chart_are_null(chart, quantum):
    # the grid crosses every edge of the chart's domain (a, b or y = 0,
    # theta = 0 and |theta| = pi/2): exactly the cells ChartPoint rejects
    # are null, the others are evaluated, and no RuntimeWarning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_main(["wavefunction", "--chart", chart, "--quantum",
                              quantum, "--grid", "13x13:-2,2,-2,2"])
    assert code == 0
    for r in json.loads(out)["records"]:
        try:
            geo.ChartPoint(chart, r["u1"], r["u2"])
        except OutOfDomainError:
            assert r["psi"] is None and r["abs2"] is None
        else:
            assert r["psi"] is not None


# ---------------------------------------------------------------------------
# roots / interbasis
# ---------------------------------------------------------------------------

def test_roots_command_forms():
    code, out = run_main(["roots", "--chart", "elliptic-parabolic", "--N", "1",
                          "--form", "printed"])
    assert code == 0
    recs = json.loads(out)["records"]
    got = sorted(r["roots"][0] for r in recs)
    assert np.allclose(got, [(3 - math.sqrt(59)) / 2, (3 + math.sqrt(59)) / 2],
                       atol=1e-10)


def test_roots_command_reports_non_real_configurations():
    # the printed N = 2 equations also have one configuration with a
    # conjugate pair of roots (about -2.63 +- 1.15i on the elliptic chart)
    for chart in ("elliptic-parabolic", "hyperbolic-parabolic"):
        for form, non_real in (("printed", 1), ("derived", 0)):
            code, out = run_main(["roots", "--chart", chart, "--N", "2",
                                  "--form", form])
            assert code == 0
            data = json.loads(out)
            assert data["meta"]["non_real_configurations"] == non_real
            assert len(data["records"]) == 3 - non_real


def test_roots_bethe_failure_exit_3():
    r = run_cli(["roots", "--potential", "v2", "--alpha", "0.1",
                 "--beta", "6", "--gamma", "1", "--chart", "semi-hyperbolic",
                 "--chart-params", "0,1,0", "--N", "2", "--bethe-tol", "-1"])
    assert r.returncode == 3
    assert "best residual" in r.stderr


def test_roots_command_v2():
    code, out = run_main(["roots", "--potential", "v2", "--alpha", "0.1",
                          "--beta", "6", "--gamma", "1", "--chart",
                          "semi-hyperbolic", "--chart-params", "0,1,0",
                          "--N", "1"])
    assert code == 0
    recs = json.loads(out)["records"]
    assert len(recs) == 2
    for r in recs:
        assert r["residual"] <= 1e-10


def test_interbasis_command():
    code, out = run_main(["interbasis", "--N", "2"])
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["agreement_quad_3f2"] <= 1e-8
    assert rec["agreement_3f2_hahn"] <= 1e-10
    assert rec["orthogonality_defect"] <= 1e-8
    assert rec["pointwise_residual"] <= 1e-6
    assert rec["printed_variant"]["orthogonality_defect"] > 0.5


# ---------------------------------------------------------------------------
# verify + plumbing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("suite", ["orthonormality", "linear-relations",
                                   "interbasis", "cross-chart"])
def test_verify_suites_pass(suite):
    code, out = run_main(["verify", "--suite", suite])
    assert code == 0
    data = json.loads(out)
    for rec in data["records"]:
        if not rec.get("soft"):
            assert rec["pass"], rec


def test_orthonormality_evaluates_each_factor_once_per_node_set(monkeypatch):
    # the Gram matrix is formed from each state's 1-D factors on each node
    # array; pair by pair it evaluated both factors of both states again
    calls = {}

    def count(name, t_index):
        orig = getattr(p1, name)

        def counted(*args):
            key = (name, args[1], args[2 if t_index == 3 else 3],
                   np.asarray(args[t_index]).tobytes())
            calls[key] = calls.get(key, 0) + 1
            return orig(*args)
        monkeypatch.setattr(p1, name, counted)
    count("pt_factor", 3)      # pt_factor(params, n, mu, t)
    count("morse_factor", 2)   # morse_factor(params, m, t, mu)
    code, out = run_main(["verify", "--suite", "orthonormality"])
    assert code == 0 and json.loads(out)["records"][0]["pass"]
    # two node sets per integral; the fixture's six states (n, m) have six
    # Poschl-Teller factors and three Morse factors (one per m)
    for name, distinct in (("pt_factor", 6), ("morse_factor", 3)):
        keys = [k for k in calls if k[0] == name]
        assert len({k[1:3] for k in keys}) == distinct
        assert len(keys) == 2 * distinct
    assert set(calls.values()) == {1}


def test_verify_quadratic_algebra_soft_reports():
    code, out = run_main(["verify", "--suite", "quadratic-algebra"])
    assert code == 0  # soft discrepancies never change the exit code
    recs = json.loads(out)["records"]
    by_id = {r["id"]: r for r in recs}
    assert by_id["R-commutator-vs-projected"]["pass"]
    for ident in ("commRN2", "commRN1", "Rsquared"):
        assert by_id[ident]["soft"]
        assert by_id[ident]["notes"]["residual_with_shifted_N2"] <= 1e-10


def test_verify_unknown_suite_exit_2():
    r = run_cli(["verify", "--suite", "bogus"])
    assert r.returncode == 2


def test_verify_hard_failure_exits_nonzero():
    # a uselessly coarse differentiation step pushes the hard eigen checks
    # above tolerance; soft records must not be what fails the run
    code, out = run_main(["verify", "--suite", "eigen", "--diff-step", "0.1"])
    assert code == 1
    recs = json.loads(out)["records"]
    assert any(not r["pass"] and not r.get("soft") for r in recs)


def test_invalid_parameters_exit_2():
    r = run_cli(["spectrum", "--alpha", "-1"])
    assert r.returncode == 2


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("potential=v1\nalpha=1.0\nbeta=10.0\ngamma=1.0\n")
    code, out = run_main(["spectrum", "--config", str(cfg)])
    assert json.loads(out)["records"] == [{"no_bound_states": True}]
    # flag wins over the file value
    code, out = run_main(["spectrum", "--config", str(cfg), "--beta",
                          str(1.0 / SQRT2), "--gamma", str(2.0 * SQRT2)])
    assert len(json.loads(out)["records"]) == 3


def test_parser_built_once_and_keeps_no_parsed_values(tmp_path, monkeypatch):
    # main() reuses one parser; options given to one call must not show up
    # in the next call's namespace or output
    seen = []
    build = hcli.build_config

    def spy(args):
        seen.append(dict(vars(args)))
        return build(args)
    monkeypatch.setattr(hcli, "build_config", spy)
    hcli.make_parser.cache_clear()
    ref = tmp_path / "ref.json"
    assert run_main(["spectrum", "--out", str(ref)])[0] == 0
    first = tmp_path / "first.json"
    assert run_main(["verify", "--suite", "linear-relations", "--diff-step",
                     "0.002", "--beta", "0.5", "--out", str(first)])[0] == 0
    second = tmp_path / "second.json"
    assert run_main(["spectrum", "--out", str(second)])[0] == 0
    assert hcli.make_parser.cache_info().misses == 1
    assert seen[1]["command"] == "verify"
    assert seen[1]["suite"] == "linear-relations"
    assert seen[1]["diff_step"] == 0.002 and seen[1]["beta"] == 0.5
    assert {**seen[2], "out": None} == {**seen[0], "out": None}
    assert seen[2]["diff_step"] is None and seen[2]["beta"] is None
    assert "suite" not in seen[2]
    assert second.read_bytes() == ref.read_bytes()


def test_output_determinism(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        code, _ = run_main(["spectrum", "--out", str(f)])
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()
    g1, g2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for g in (g1, g2):
        run_main(["wavefunction", "--chart", "horicyclic", "--quantum", "0,1",
                  "--grid", "8x8:0.1,2,0.2,2", "--format", "csv",
                  "--out", str(g)])
    assert g1.read_bytes() == g2.read_bytes()


def test_no_partial_file_on_error(tmp_path):
    out = tmp_path / "never.json"
    r = run_cli(["wavefunction", "--chart", "equidistant", "--quantum", "9,9",
                 "--grid", "2x2:0.1,1,0.1,1", "--out", str(out)])
    assert r.returncode == 2
    assert not out.exists()


def test_float_formatting_is_17g(tmp_path):
    out = tmp_path / "s.json"
    run_main(["spectrum", "--out", str(out)])
    text = out.read_text()
    assert "0.70710678118654746" in text  # %.17g of 1/sqrt(2)


def _csv_grid(args):
    code, out = run_main(["wavefunction", *args, "--format", "csv"])
    assert code == 0
    lines = [ln for ln in out.strip().split("\n") if not ln.startswith("#")]
    return [[float(x) for x in ln.split(",")] for ln in lines[1:]]


@pytest.mark.parametrize("chart,quantum,box,wf", [
    ("equidistant", "1,1", "-2,2,-2,2", p1.p1_wf_equidistant),
    ("horicyclic", "1,1", "-2,2,0.1,3", p1.p1_wf_horicyclic),
    ("elliptic-parabolic", "1,1,0", "0.1,2,-1.4,1.4",
     p1.p1_wf_elliptic_parabolic),
    ("hyperbolic-parabolic", "1,1,0", "0.1,2,0.1,1.4",
     p1.p1_wf_hyperbolic_parabolic),
])
def test_vectorized_grid_matches_pointwise_library(chart, quantum, box, wf):
    # one array call per grid; the values agree with scalar calls to round-off
    rows = _csv_grid(["--chart", chart, "--quantum", quantum, "--form",
                      "derived", "--grid", f"17x13:{box}"])
    assert len(rows) == 17 * 13
    p = p1.P1Params(1.0, 1.0 / SQRT2, 2.0 * SQRT2)
    nums = tuple(int(x) for x in quantum.split(","))
    if len(nums) == 3:
        roots = (p1.p1_ep_roots if chart == "elliptic-parabolic"
                 else p1.p1_hp_roots)(p, nums[0], form="derived")
        roots = [c for c in roots if c.zone_counts == nums[1:]][0]
        st = p1.P1State(p, chart, (nums[0],), roots=roots)
    else:
        st = p1.P1State(p, chart, nums)
    for u, v, psi, abs2 in rows:
        ref = float(wf(st, u, v))
        assert abs(psi - ref) <= 1e-14 * abs(ref)
        assert abs2 == psi * psi


def test_vectorized_semi_hyperbolic_grid_keeps_nan_cells():
    # cells outside nu < e3 < mu, where the scalar chart point is rejected,
    # are NaN, exactly as when every cell was evaluated on its own
    from hypersint import geometry as geo
    from hypersint import potential2 as p2
    from hypersint.errors import HypersintError

    p, cp = p2.P2Params(0.1, 6.0, 1.0), (0.0, 1.0, 0.0)
    st = p2.P2State(p, "semi-hyperbolic", (1,),
                    roots=p2.p2_sh_roots(p, 1, cp)[0], chart_params=cp)
    rows = _csv_grid(["--potential", "v2", "--alpha", "0.1", "--beta", "6",
                      "--gamma", "1", "--chart", "semi-hyperbolic",
                      "--chart-params", "0,1,0", "--quantum", "1,0",
                      "--grid", "9x9:-2,2,-2,2"])
    nan_cells = 0
    for u, v, psi, abs2 in rows:
        try:
            q = geo.chart_to_ambient(geo.ChartPoint("semi-hyperbolic", u, v, cp))
            ref = p2.p2_wf_semihyperbolic(st, q).real
        except HypersintError:
            assert math.isnan(psi) and math.isnan(abs2)
            nan_cells += 1
            continue
        assert abs(psi - ref) <= 1e-14 * abs(ref)
    assert 0 < nan_cells < len(rows)


# ---------------------------------------------------------------------------
# serialization: the one-pass writer against the three-pass one it replaced
# ---------------------------------------------------------------------------

_MARK = "@@f17g@@"


def _marked(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            return None  # JSON has no NaN or infinity
        return f"{_MARK}{'%.17g' % float(obj)}{_MARK}"
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": _marked(obj.real), "im": _marked(obj.imag)}
    if isinstance(obj, np.ndarray):
        return _marked(obj.tolist())
    if isinstance(obj, dict):
        return {k: _marked(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_marked(v) for v in obj]
    return obj


def _reference_dumps_json(obj) -> str:
    import re

    text = json.dumps(_marked(obj), indent=2)
    return re.sub(f'"{_MARK}(.*?){_MARK}"', r"\1", text) + "\n"


def test_dumps_json_matches_three_pass_reference(tmp_path):
    payloads = [
        {"a": [1, 2.5, True, False, None, "sé\"q"], "b": {}, "c": [],
         "d": {"e": [[], {}, [1.0 / 3.0, -0.0, 1e300, float("nan"), float("inf")]]},
         "z": complex(1.5, -2.0), "zs": np.array([1 + 2j, 3 - 4j]),
         "arr": np.arange(6.0).reshape(2, 3), "ints": np.arange(3),
         "0d": np.array(0.1), "flags": np.array([True, False]),
         "np": [np.float64(0.1), np.int64(7), np.float32(0.25)],
         "t": (1, (2.0, "x")), 3: "int key", 2.5: "float key", None: "none key",
         True: "bool key", np.str_("np key"): np.str_("np value")},
        [], {}, 0.1, 7, "text", None, [[[]]],
    ]
    for obj in payloads:
        assert hcli.dumps_json(obj) == _reference_dumps_json(obj)
    # a verify report and a 20x20 wavefunction grid, rebuilt from their files
    for args, name in (
            (["verify", "--suite", "interbasis"], "verify.json"),
            (["wavefunction", "--chart", "equidistant", "--quantum", "1,1",
              "--grid", "20x20:-2,2,-2,2"], "grid.json")):
        path = tmp_path / name
        assert hcli.main(args + ["--out", str(path)]) == 0
        text = path.read_text()
        data = json.loads(text)
        assert hcli.dumps_json(data) == _reference_dumps_json(data) == text


# ---------------------------------------------------------------------------
# non-finite values in JSON output
# ---------------------------------------------------------------------------

def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_json_writes_non_finite_floats_as_null(tmp_path):
    report = {"records": [hcli._rec("nan-residual", float("nan"), 1e-7)],
              "z": complex(math.inf, 1.0),
              "arr": np.array([np.nan, 1.5, -np.inf]),
              "f": np.float64("inf"), "g": np.float32("nan"), "h": -math.inf}
    data = _strict_json(hcli.dumps_json(report))
    rec = data["records"][0]
    assert rec["residual"] is None and rec["pass"] is False
    assert data["z"] == {"re": None, "im": 1.0}
    assert data["arr"] == [None, 1.5, None]
    assert data["f"] is data["g"] is data["h"] is None
    # a semi-hyperbolic grid: cells outside nu < e3 < mu are NaN
    path = tmp_path / "grid.json"
    assert hcli.main(["wavefunction", "--potential", "v2", "--alpha", "0.1",
                      "--beta", "6", "--gamma", "1", "--chart",
                      "semi-hyperbolic", "--chart-params", "0,1,0",
                      "--quantum", "1,0", "--grid", "9x9:-2,2,-2,2",
                      "--out", str(path)]) == 0
    recs = _strict_json(path.read_text())["records"]
    empty = [r for r in recs if r["psi"] is None]
    assert 0 < len(empty) < len(recs)
    assert all(r["abs2"] is None for r in empty)
    assert all(isinstance(r["psi"], float) for r in recs if r not in empty)


# ---------------------------------------------------------------------------
# batched point sets: the numbers of the sequential scalar draws
# ---------------------------------------------------------------------------

def _eq_points_reference(seed, n, both_signs=True):
    rng = np.random.default_rng(seed)
    t1s, t2s = [], []
    for _ in range(n):
        t1 = rng.uniform(0.3, 1.3)
        if both_signs and rng.uniform() < 0.5:
            t1 = -t1
        t1s.append(t1)
        t2s.append(rng.uniform(-1.0, 1.0))
    return ("equidistant", t1s, t2s)


def _draws(n, *ranges, rng):
    """n rounds of one scalar draw per range, as one list per range."""
    rows = [[rng.uniform(lo, hi) for lo, hi in ranges] for _ in range(n)]
    return [list(col) for col in zip(*rows)]


@pytest.fixture
def recorded(monkeypatch):
    """The point sets handed to chart_points, sh_bracket's theta values and
    the P2Params built, in call order."""
    from hypersint import geometry as geo
    from hypersint import potential2 as p2

    calls = {"points": [], "theta": [], "p2": []}
    chart_points, sh_bracket = geo.chart_points, p2.sh_bracket

    def points(chart, u1, u2, *args, **kw):
        calls["points"].append((chart, np.asarray(u1, float).tolist(),
                                np.asarray(u2, float).tolist()))
        return chart_points(chart, u1, u2, *args, **kw)

    def bracket(theta, q, cp):
        calls["theta"].append(np.asarray(theta).tolist())
        return sh_bracket(theta, q, cp)

    class Recorded(p2.P2Params):
        def __post_init__(self):
            calls["p2"].append((self.alpha, self.beta, self.gamma))
            super().__post_init__()

    monkeypatch.setattr(geo, "chart_points", points)
    monkeypatch.setattr(p2, "sh_bracket", bracket)
    monkeypatch.setattr(p2, "P2Params", Recorded)
    return calls


V2_SH = ["--potential", "v2", "--alpha", "0.1", "--beta", "3", "--gamma", "1",
         "--chart-params", "0,1,0"]


def test_v1_cross_chart_draws_the_sequential_point_sets(recorded):
    assert run_main(["verify", "--suite", "cross-chart"])[0] == 0
    rng = np.random.default_rng(29)
    ref = [(chart, *_draws(100, (0.2, 2.0), v_range, rng=rng)) for chart, v_range
           in (("equidistant", (-2.0, 2.0)), ("horicyclic", (0.2, 3.0)),
               ("elliptic-parabolic", (0.2, 1.3)),
               ("hyperbolic-parabolic", (0.2, 1.3)))]
    ref.append(("equidistant", *_draws(100, (-2.0, 2.0), (-2.0, 2.0), rng=rng)))
    assert recorded["points"] == ref


def test_v2_cross_chart_draws_the_sequential_point_sets(recorded):
    assert run_main(["verify", "--suite", "cross-chart", *V2_SH])[0] == 0
    rng = np.random.default_rng(29)
    t1, t2 = _draws(100, (0.2, 2.0), (-2.0, 2.0), rng=rng)
    # e3 = 0: mu in (0.1, 3), nu in (-3, -0.1), then theta, per point
    mu, nu, th_re, th_im = _draws(50, (0.1, 3.0), (-3.0, -0.1), (-3.0, 3.0),
                                  (-2.0, 2.0), rng=rng)
    triples = list(zip(*_draws(50, (0.05, 2.0), (0.5, 6.0), (0.3, 3.0),
                               rng=rng)))
    assert recorded["points"] == [("equidistant", t1, t2),
                                  ("semi-hyperbolic", mu, nu),
                                  _eq_points_reference(31, 6)]
    assert recorded["theta"] == [[complex(a, b) for a, b in zip(th_re, th_im)]]
    assert recorded["p2"][-50:] == triples


def test_eigen_suites_draw_the_sequential_point_sets(recorded):
    assert run_main(["verify", "--suite", "eigen", *V2_SH])[0] == 0
    mu, nu = _draws(8, (0.4, 2.0), (0.4, 2.0), rng=np.random.default_rng(19))
    assert recorded["points"] == [_eq_points_reference(11, 10),
                                  ("semi-hyperbolic", mu, [-v for v in nu])]
    recorded["points"].clear()
    assert run_main(["verify", "--suite", "eigen"])[0] == 0
    assert recorded["points"][0] == _eq_points_reference(11, 10)
    hcli._eq_points(seed=5, n=7, both_signs=False)
    assert recorded["points"][-1] == _eq_points_reference(5, 7, both_signs=False)
