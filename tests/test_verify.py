import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

from hypersint import algebra as alg
from hypersint import cli as hcli
from hypersint import geometry as geo
from hypersint import interbasis as ib
from hypersint import potential1 as p1
from hypersint import potential2 as p2
from hypersint import verify
from hypersint.errors import HypersintError, NoBoundStateError

V2_FIXTURE = dict(potential="v2", alpha=0.1, beta=3.0, gamma=1.0,
                  chart_params=(0.0, 1.0, 0.0))
EMPTY_V2 = dict(potential="v2", alpha=0.1, beta=0.5, gamma=1.0)

# (id, tolerance, soft) of every record, in report order, on the fixtures
RECORDS = {
    ("v1", "orthonormality"): [("v1-equidistant-gram", 1e-7, False)],
    ("v1", "eigen"): [
        ("L1-equidistant", 1e-6, False), ("L2-horicyclic", 1e-6, False),
        ("L3-elliptic-parabolic", 1e-6, False),
        ("L4-hyperbolic-parabolic", 1e-6, False),
        ("lambda-AL0-vs-FEP10", None, True),
        ("parabolic-membership-elliptic-parabolic", 1e-6, False),
        ("parabolic-membership-hyperbolic-parabolic", 1e-6, False)],
    ("v1", "linear-relations"): [("linRel3", 1e-5, False),
                                 ("linRel4", 1e-5, False)],
    ("v1", "quadratic-algebra"): [
        ("level-gram", 1e-10, False), ("matrix-symmetries", 1e-10, False),
        ("N1-diagonal", 1e-10, False),
        ("N2-horicyclic-spectrum", 1e-10, False),
        ("R-commutator-vs-projected", 1e-5, False),
        ("commRN2", 1e-6, True), ("commRN1", 1e-6, True),
        ("Rsquared", 1e-6, True)],
    ("v1", "interbasis"): [
        rec for N in range(3) for rec in (
            (f"three-method-agreement-N{N}", 1e-8, False),
            (f"orthogonality-N{N}", 1e-8, False),
            (f"pointwise-expansion-N{N}", 1e-6, False),
            (f"printed-variant-orthogonality-N{N}", None, True))],
    ("v1", "cross-chart"): [
        ("potential-identity-equidistant", 1e-12, False),
        ("potential-identity-horicyclic", 1e-12, False),
        ("potential-identity-elliptic-parabolic", 1e-12, False),
        ("potential-identity-hyperbolic-parabolic", 1e-12, False),
        ("chart-maps-on-surface", 1e-10, False),
        ("cross-chart-quantization", 1e-12, False),
        ("horicyclic-bridge", 1e-12, False)],
    ("v2", "orthonormality"): [("v2-equidistant-gram", 1e-7, False)],
    ("v2", "eigen"): [
        ("L1-v2-equidistant", 1e-6, False),
        ("L1-from-L12-relation", 1e-6, False),
        ("L2-semi-hyperbolic", 1e-6, False),
        ("lambda-display-vs-eigenvalue", None, True),
        ("semi-hyperbolic-membership", 1e-6, False)],
    ("v2", "cross-chart"): [
        ("potential-identity-equidistant", 1e-12, False),
        ("printed-alpha-sign-defect", None, True),
        ("semi-hyperbolic-factor-identity", 1e-10, False),
        ("energy-branch-consistency", 1e-12, False),
        ("k1-equals-a", 1e-13, False),
        ("hamiltonian-decomposition", 1e-6, False),
        ("hamiltonian-decomposition-printed-constant", None, True)],
}


def test_suite_tables_cover_the_pinned_suites():
    assert [(p, s) for p, t in verify.SUITES.items() for s in t] \
        == list(RECORDS)


@pytest.mark.parametrize("potential, suite", list(RECORDS))
def test_record_ids_tolerances_and_soft_flags(potential, suite):
    fixture = V2_FIXTURE if potential == "v2" else {}
    records, failed = verify.run(hcli.RunConfig(suite=suite, **fixture))
    assert [(r["id"], r["tolerance"], r["soft"]) for r in records] \
        == RECORDS[potential, suite]
    assert not failed


# inputs on which an eigen suite ends after its first two records: a v1
# well of one level (nmax = 0) has no parabolic state at level 1, and v2
# without chart parameters no semi-hyperbolic one.  Measured: at most 3.6e-15
# and 3.2e-16
EARLY_ENDS = [(dict(alpha=1.0, beta=1.0 / math.sqrt(2.0), gamma=2.3), "v1"),
              ({**V2_FIXTURE, "chart_params": None}, "v2")]


@pytest.mark.parametrize("inputs, potential", EARLY_ENDS)
def test_eigen_records_of_a_level_without_product_states(inputs, potential):
    records, failed = verify.run(hcli.RunConfig(suite="eigen", **inputs))
    assert [(r["id"], r["tolerance"], r["soft"]) for r in records] \
        == RECORDS[potential, "eigen"][:2]
    assert not failed
    assert max(r["residual"] for r in records) <= 1e-14


def test_record_pass_rule():
    assert verify.record("a", 1e-7, 1e-7)["pass"]
    assert not verify.record("a", 2e-7, 1e-7)["pass"]
    assert not verify.record("a", math.nan, 1e-7)["pass"]
    assert verify.record("a", 5.0, None, soft=True)["pass"]
    failing_soft = verify.record("a", 1.0, 1e-6, soft=True)
    assert not failing_soft["pass"] and failing_soft["soft"]


def test_suite_of_the_other_potential_is_an_error():
    with pytest.raises(HypersintError, match="does not apply to v2"):
        verify.run(hcli.RunConfig(suite="interbasis", **V2_FIXTURE))


@pytest.mark.parametrize("suite", ["orthonormality", "eigen", "interbasis",
                                   "quadratic-algebra"])
def test_empty_v1_spectrum_raises(suite):
    # beta = 10, gamma = 1 has no bound state; the Gram check used to
    # pass on a 0 x 0 matrix with residual 0.  The v2 suites of the same
    # name raise the same error on an empty v2 spectrum (alpha = 0.1,
    # beta = 0.5, gamma = 1); they used to fail on a quantization window
    cfg = hcli.RunConfig(beta=10.0, gamma=1.0, suite=suite)
    with pytest.raises(NoBoundStateError):
        verify.run(cfg)
    assert hcli.main(["verify", "--suite", suite, "--beta", "10",
                      "--gamma", "1"]) == 2
    if suite in verify.SUITES["v2"]:
        cfg = hcli.RunConfig(suite=suite, **EMPTY_V2)
        with pytest.raises(NoBoundStateError, match="empty spectrum"):
            verify.run(cfg)
        assert hcli.main(["verify", "--suite", suite, "--potential", "v2",
                          "--alpha", "0.1", "--beta", "0.5",
                          "--gamma", "1"]) == 2


def test_empty_v2_spectrum_cross_chart_leaves_out_the_bound_state_checks():
    # as v1 leaves out cross-chart-quantization; the other checks need no
    # bound state
    records, failed = verify.run(hcli.RunConfig(suite="cross-chart", **EMPTY_V2))
    assert [(r["id"], r["tolerance"], r["soft"]) for r in records] \
        == RECORDS["v2", "cross-chart"][:-2]
    assert not failed


def test_k1_equals_a_checks_the_definition_of_a(monkeypatch):
    # k1 = a, the root of a^2 = (B - i gamma^2)/4: the record reads round-off
    # on the true branch and fails on the conjugate one, whose square is
    # (B + i gamma^2)/4.  The empty spectrum leaves out the wavefunction
    # checks, so no cached factor sees the patched branch.
    def k1_record():
        records, _ = verify.run(hcli.RunConfig(suite="cross-chart", **EMPTY_V2))
        return next(r for r in records if r["id"] == "k1-equals-a")
    rec = k1_record()
    assert rec["pass"] and 0.0 < rec["residual"] <= 1e-13
    a = p2.P2Params.a.func
    monkeypatch.setattr(p2.P2Params, "a", property(lambda p: a(p).conjugate()))
    rec = k1_record()
    assert not rec["pass"] and rec["residual"] > 1.0


# the deep wells of the operator checks: each suite, at its own tolerances,
# has no hard failure (with finite differences, the v1 eigen and
# quadratic-algebra suites failed on all three v1 wells)
DEEP_V1 = [(0.3, 0.2, 3.0), (0.865, 0.19, 4.855), (0.56, 0.095, 4.38)]
DEEP_V2 = [(0.1, 6.0, 1.0), (0.3, 8.0, 2.0), (0.5, 12.0, 3.0)]


@pytest.mark.parametrize("suite", ["eigen", "linear-relations",
                                   "quadratic-algebra"])
@pytest.mark.parametrize("well", DEEP_V1)
def test_v1_operator_suites_hold_on_deep_wells(well, suite):
    alpha, beta, gamma = well
    records, failed = verify.run(hcli.RunConfig(
        alpha=alpha, beta=beta, gamma=gamma, suite=suite))
    assert not failed, [r for r in records if not r["pass"] and not r["soft"]]


@pytest.mark.parametrize("suite", ["eigen", "cross-chart"])
@pytest.mark.parametrize("well", DEEP_V2)
def test_v2_operator_suites_hold_on_deep_wells(well, suite):
    alpha, beta, gamma = well
    records, failed = verify.run(hcli.RunConfig(
        potential="v2", alpha=alpha, beta=beta, gamma=gamma,
        chart_params=(0.0, 1.0, 0.0), suite=suite))
    assert not failed, [r for r in records if not r["pass"] and not r["soft"]]


# the size of the level's rule of each eigen record: 4 at level 1, 1 at
# level 0 (the v2 fixture's one state)
EIGEN_POINTS = [
    ({}, [4, 4, 4, 4]),
    (dict(alpha=0.3, beta=0.2, gamma=3.0), [4, 4, 4, 4]),
    (dict(alpha=0.56, beta=0.095, gamma=4.38), [4, 4, 4, 4]),
    (V2_FIXTURE, [1, 1, 1]),
    (dict(V2_FIXTURE, beta=12.0, alpha=0.5, gamma=3.0), [4, 4, 4]),
]


@pytest.mark.parametrize("well, counts", EIGEN_POINTS)
def test_eigen_records_note_the_points_they_used(well, counts):
    records, failed = verify.run(hcli.RunConfig(suite="eigen", **well))
    notes = [r.get("notes", {}) for r in records]
    assert [n["nodes"] for n in notes if "nodes" in n] == counts
    assert not any("points_used" in n for n in notes)
    assert not failed


@pytest.mark.parametrize("well", DEEP_V2)
def test_v2_level_records_are_exact_at_every_level(well):
    # the Galerkin matrices on each level's exact rule, and the
    # semi-hyperbolic configurations projected on the level: measured at
    # most 2.4e-14 over these wells, levels and chart parameters
    p = p2.P2Params(*well)
    for N in range(p.nmax + 1):
        records = verify.hamiltonian_decomposition(p, N)
        for cp in ((0.0, 1.0, 0.0), (0.5, 2.0, -1.0)):
            recs = verify.v2_eigen_level(p, N, cp)
            l2 = next(r for r in recs if r["id"] == "L2-semi-hyperbolic")
            assert l2["notes"]["configurations"] == N + 1, (N, cp)
            records += recs
        hard = [(r["id"], r["residual"]) for r in records if not r["soft"]]
        assert len(hard) == 9
        assert max(v for _, v in hard) <= 1e-12, (N, hard)


@pytest.mark.parametrize("well", [
    (1.0, 1.0 / math.sqrt(2.0), 2.0 * math.sqrt(2.0)), *DEEP_V1,
    (0.8021189901441927, 0.055414650975510134, 4.235214784107855)])
def test_v1_eigen_records_are_exact_on_the_level(well):
    # the Galerkin matrices on the level's exact rule: measured at most
    # 9.5e-13 on the wide well (L2) and 5.2e-12 on the s = 229 one; ten box
    # points, of which the node filter kept one on the wide well, gave
    # 1.19e-11 there (L4)
    alpha, beta, gamma = well
    records, _ = verify.run(hcli.RunConfig(
        alpha=alpha, beta=beta, gamma=gamma, suite="eigen"))
    worst = {r["id"]: r["residual"] for r in records[:4]}
    assert list(worst) == [i for i, _, _ in RECORDS["v1", "eigen"][:4]]
    assert max(worst.values()) <= 1e-11, worst
    # L3 and L4 take both configurations of level 1
    assert [r["notes"]["configurations"] for r in records[2:4]] == [2, 2]


FIXTURE_V1 = (1.0, 1.0 / math.sqrt(2.0), 2.0 * math.sqrt(2.0))
S229 = (0.8021189901441927, 0.055414650975510134, 4.235214784107855)


def _eigen_run(monkeypatch, well):
    """A v1 eigen run on well: the EquidistantBasis instances it built and
    the arguments of each of its parabolic projections."""
    built, projections = [], []
    init, project = p1.EquidistantBasis.__init__, p1._parabolic_projection

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    def recorded(*args):
        projections.append(args)
        return project(*args)
    monkeypatch.setattr(p1.EquidistantBasis, "__init__", counted_init)
    monkeypatch.setattr(p1, "_parabolic_projection", recorded)
    alpha, beta, gamma = well
    verify.run(hcli.RunConfig(alpha=alpha, beta=beta, gamma=gamma, suite="eigen"))
    monkeypatch.undo()
    return built, projections


@pytest.mark.parametrize("well", [FIXTURE_V1, (0.3, 0.2, 3.0), S229])
def test_v1_eigen_builds_its_level_once(monkeypatch, well):
    # the Galerkin matrices and the four parabolic projections (two
    # configurations on each chart) share one level-1 basis
    built, projections = _eigen_run(monkeypatch, well)
    assert len(built) == 1
    assert len(projections) == 4
    assert all(args[1] is built[0] for args in projections)


@pytest.mark.parametrize("well", [FIXTURE_V1, (0.3, 0.2, 3.0),
                                  (0.865, 0.19, 4.855), S229])
def test_parabolic_projection_on_the_suite_basis_is_a_fresh_levels(monkeypatch, well):
    # the suite's basis, after its Galerkin call, projects as a level built
    # for the state alone, bit for bit
    _, projections = _eigen_run(monkeypatch, well)
    assert {st.chart for st, _ in projections} == {"elliptic-parabolic",
                                                   "hyperbolic-parabolic"}
    for st, basis in projections:
        got = p1._parabolic_projection(st, basis)
        want = p1._parabolic_projection(
            st, p1.EquidistantBasis.level(st.params, st.N))
        assert got[:2] == want[:2], (st.chart, st.roots.zone_counts)
        assert np.array_equal(got[2], want[2]), (st.chart, st.roots.zone_counts)


def _nan(value):
    """NaN in place of any value."""
    return math.nan


def _nan_on_second_call(monkeypatch, module, name, chart=None, spoil=_nan):
    """Make the second call of module.name return spoil(its value), NaN by
    default; with chart, counting only calls on a state of chart."""
    f, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        value = f(*args, **kwargs)
        if chart is None or args[0].chart == chart:
            calls.append(None)
            if len(calls) == 2:
                return spoil(value)
        return value
    monkeypatch.setattr(module, name, wrapper)


def _nan_membership(projection):
    """A projection's (log_norm, membership, c) with a NaN membership."""
    return projection[0], math.nan, projection[2]


def _nan_entry(w):
    """An interbasis matrix with a NaN first entry."""
    entries = w.entries.copy()
    entries[0, 0] = math.nan
    return dataclasses.replace(w, entries=entries)


def test_eigen_records_fail_on_a_nan_in_a_later_configuration(monkeypatch):
    # the worst over the configurations keeps a NaN of the second one (the
    # built-in max() returns its first argument against a NaN)
    _nan_on_second_call(monkeypatch, p1, "p1_ep_lambda")
    _nan_on_second_call(monkeypatch, p1, "_parabolic_projection",
                        chart="hyperbolic-parabolic", spoil=_nan_membership)
    _nan_on_second_call(monkeypatch, p2, "p2_sh_lambda_closed")
    records, failed = verify.run(hcli.RunConfig(suite="eigen"))
    status = {r["id"]: r["pass"] for r in records}
    assert failed and not status["L3-elliptic-parabolic"]
    assert not status["parabolic-membership-hyperbolic-parabolic"]
    assert status["L4-hyperbolic-parabolic"] and status["L1-equidistant"]
    assert math.isfinite(records[2]["notes"]["lambda_separation"])
    records = verify.v2_eigen_level(p2.P2Params(0.1, 6.0, 1.0), 2, (0.0, 1.0, 0.0))
    status = {r["id"]: r["pass"] for r in records}
    assert not status["L2-semi-hyperbolic"] and status["semi-hyperbolic-membership"]


def _nan_l3(values):
    """L1..L4 applied, with a NaN L3."""
    l1, l2, l3, l4 = values
    return l1, l2, l3 * math.nan, l4


# record: (module, function, spoil, fixture, suite), the function's second
# call giving a later part of the record's residual
LATER_PART = {
    "cross-chart-quantization": (p1, "p1_energy_from_elliptic_parabolic", _nan, {},
                                 "cross-chart"),
    "chart-maps-on-surface": (geo, "hyperboloid_residual", _nan, {}, "cross-chart"),
    "energy-branch-consistency": (p2, "p2_energy_semihyperbolic", _nan, V2_FIXTURE,
                                  "cross-chart"),
    "three-method-agreement-N1": (ib, "w_hahn", _nan_entry, {}, "interbasis"),
    # the second test function
    "linRel3": (alg, "apply_operators", _nan_l3, {}, "linear-relations"),
}


@pytest.mark.parametrize("ident", LATER_PART)
def test_largest_of_records_fail_on_a_nan_in_a_later_part(monkeypatch, ident):
    # the built-in max() kept an earlier finite part against a later NaN
    module, name, spoil, fixture, suite = LATER_PART[ident]
    _nan_on_second_call(monkeypatch, module, name, spoil=spoil)
    records, failed = verify.run(hcli.RunConfig(**fixture, suite=suite))
    (rec,) = (r for r in records if r["id"] == ident)
    assert failed and not rec["pass"] and math.isnan(rec["residual"])
    assert all(r["pass"] or r["soft"] for r in records if r["id"] != ident)


@pytest.mark.parametrize("well", [
    # 117 levels, E_0 = -27,695.7: the energies of the three charts differed
    # by 7.28e-12 in absolute terms, 6.1e-16 relative
    (0.7192089313349008, 0.07359886946949672, 4.982257529917831),
    # V1 = 0.33 where its three terms sum to 3,141 in magnitude: relative
    # to V1 the equidistant identity read 2.10e-12, relative to the terms
    # 3.7e-15
    (3.0515418262808156, 1.715797410987275, 9.055645338273383),
])
def test_v1_cross_chart_is_relative_to_the_size_of_its_terms(well):
    alpha, beta, gamma = well
    records, failed = verify.run(hcli.RunConfig(
        alpha=alpha, beta=beta, gamma=gamma, suite="cross-chart"))
    assert not failed, [r for r in records if not r["pass"]]


RUNS_WITHOUT_NUMPY_RANDOM = """
import math, sys
from hypersint import cli, verify
from hypersint import interbasis as ib
from hypersint.potential1 import P1Params

v2 = ["--alpha", "0.1", "--beta", "3", "--gamma", "1", "--chart-params", "0,1,0"]
for pot, args in (("v1", []), ("v2", v2)):
    for suite in verify.SUITES[pot]:
        assert cli.main(["verify", "--suite", suite, "--potential", pot, *args,
                         "--out", sys.argv[1]]) == 0, (pot, suite)
deep = P1Params(0.3, 0.2, 3.0)
assert math.isfinite(ib.verify_expansion(deep, 14, ib.w_quadrature(deep, 14)))
assert "numpy.random" not in sys.modules
"""


def test_package_runs_do_not_load_numpy_random(tmp_path):
    # every sample is a box_points design, so no run pays for importing
    # numpy.random; the test's own process has imported it, hence the child
    proc = subprocess.run([sys.executable, "-c", RUNS_WITHOUT_NUMPY_RANDOM,
                           str(tmp_path / "report.json")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
