import math

import numpy as np
import pytest

from hypersint import algebra as alg
from hypersint import geometry as geo
from hypersint import interbasis as ib
from hypersint import potential1 as p1
from hypersint import potential2 as p2
from hypersint.errors import OutOfDomainError, SingularConfigurationError

SQRT2 = math.sqrt(2.0)
CP0 = p2.DEFAULT_SH_PARAMS


def eq_points(seed=11, n=10, w2_positive=False):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(n):
        t1 = rng.uniform(0.3, 1.3)
        if not w2_positive and rng.uniform() < 0.5:
            t1 = -t1
        pts.append(geo.chart_to_ambient(
            geo.ChartPoint("equidistant", t1, rng.uniform(-1.0, 1.0))))
    return pts


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def test_l1_structure(p1_fixture):
    op = alg.build_operator("L1", p1_fixture)
    words = [w for _, w in op.terms]
    assert ("K3", "K3") in words
    assert () in words  # multiplication term
    assert len(op.terms) == 2


def test_n2_is_l2_minus_constant(p1_fixture):
    l2 = alg.build_operator("L2", p1_fixture)
    n2 = alg.build_operator("N2", p1_fixture)
    assert [w for _, w in n2.terms] == [w for _, w in l2.terms]
    assert abs((n2.constant_term - l2.constant_term)
               + 2.0 * p1_fixture.gamma**2) < 1e-14
    # difference acts as multiplication by the constant -2 gamma^2
    q = geo.chart_to_ambient(geo.ChartPoint("equidistant", 0.6, 0.2))
    f = lambda p: p.w0 * np.exp(-p.w2**2)
    dv = geo.apply_operator(n2, f, q) - geo.apply_operator(l2, f, q)
    assert abs(dv + 2.0 * p1_fixture.gamma**2 * f(q)) <= 1e-9


def test_unknown_operator_rejected(p1_fixture):
    with pytest.raises(OutOfDomainError):
        alg.build_operator("L99", p1_fixture)


# ---------------------------------------------------------------------------
# Eigenvalue residuals
# ---------------------------------------------------------------------------

def test_l1_l2_eigen_residuals(p1_fixture):
    p = p1_fixture
    pts = eq_points()
    for N in range(3):
        for (n, m) in p1.level_states_equidistant(p, N):
            st = p1.P1State(p, "equidistant", (n, m))
            mu = p1.p1_mu(p, m)
            r, _ = alg.eigen_residual(alg.build_operator("L1", p),
                                      p1.wf_ambient(st), mu**2, pts)
            assert r <= 1e-6, (N, n, m, r)
        for (n1, n2) in p1.level_states_horicyclic(p, N):
            st = p1.P1State(p, "horicyclic", (n1, n2))
            lam = -(2 * SQRT2 * p.beta * (2 * n1 + p.d + 1) + 2 * p.gamma**2)
            r, _ = alg.eigen_residual(alg.build_operator("L2", p),
                                      p1.wf_ambient(st), lam, pts)
            assert r <= 1e-6, (N, n1, n2, r)


def test_eigen_residual_of_a_zero_wavefunction_raises(p1_fixture):
    # every point is a node: no relative residual is defined
    with pytest.raises(SingularConfigurationError, match="wavefunction nodes"):
        alg.eigen_residual(alg.build_operator("L1", p1_fixture),
                           lambda q: 0.0 * q.w0, 1.0, eq_points())


def test_l3_l4_eigenvalues_track_separation_constants(p1_fixture):
    # operator eigenvalue = separated-ODE constant -+ 4 gamma^2: the
    # compensating constants keep the linear relations exact while the raw
    # displays reproduce the separation constants themselves.  Applied
    # exactly, every residual is round-off, also for the second N = 1
    # hyperbolic-parabolic configuration, whose sample point 8 lies next to
    # a nodal line (3.2e-7 with second differences at h = 1e-3)
    p = p1_fixture
    pts = eq_points()
    pts_pos = eq_points(seed=12, w2_positive=True)
    for conf in p1.p1_ep_roots(p, 1, form="derived"):
        st = p1.P1State(p, "elliptic-parabolic", (1,), roots=conf)
        lam = p1.p1_ep_lambda(p, conf)
        r, _ = alg.eigen_residual(alg.build_operator("L3", p), p1.wf_ambient(st),
                                  lam + 4 * p.gamma**2, pts)
        assert r <= 1e-10
        r, _ = alg.eigen_residual(alg.build_operator("L3_display", p),
                                  p1.wf_ambient(st), lam, pts)
        assert r <= 1e-10
    for conf in p1.p1_hp_roots(p, 1, form="derived"):
        st = p1.P1State(p, "hyperbolic-parabolic", (1,), roots=conf)
        tau = p1.p1_hp_tau(p, conf)
        r, _ = alg.eigen_residual(alg.build_operator("L4", p), p1.wf_ambient(st),
                                  tau - 4 * p.gamma**2, pts_pos)
        assert r <= 1e-10
        r, _ = alg.eigen_residual(alg.build_operator("L4_display", p),
                                  p1.wf_ambient(st), tau, pts_pos)
        assert r <= 1e-10


def test_v2_l1_eigen_residual(p2_fixture):
    st = p2.P2State(p2_fixture, "equidistant", (0, 0))
    wf = p2.wf_ambient(st)
    mu2 = p2.p2_mu(p2_fixture, 0) ** 2
    r, _ = alg.eigen_residual(alg.build_operator("L1", p2_fixture), wf, mu2,
                              eq_points())
    assert r <= 1e-6


def test_v2_sh_l2_eigenvalue_matches_closed_lambda(p2_deep):
    p = p2_deep
    rng = np.random.default_rng(19)
    pts = [geo.chart_to_ambient(geo.ChartPoint(
        "semi-hyperbolic", rng.uniform(0.4, 2.0), -rng.uniform(0.4, 2.0), CP0))
        for _ in range(8)]
    l2 = alg.build_operator("L2", p, chart_params=CP0)
    for N in (0, 1):
        for c in p2.p2_sh_roots(p, N, CP0):
            st = p2.P2State(p, "semi-hyperbolic", (N,), roots=c,
                            chart_params=CP0)

            def wf(q, st=st):
                return p2.p2_wf_semihyperbolic(st, q)
            lam = p2.p2_sh_lambda_closed(p, c, N, CP0)
            assert alg.eigen_residual(l2, wf, lam, pts)[0] <= 1e-6


def test_v2_ssh17_relation(p2_fixture):
    # L1 = -L12 + beta^2 - alpha^2 reproduces the mu^2 eigenvalue
    p = p2_fixture
    wf = p2.wf_ambient(p2.P2State(p, "equidistant", (0, 0)))
    l12 = alg.build_operator("L12", p)
    mu2 = p2.p2_mu(p, 0) ** 2
    worst = 0.0
    for q in eq_points(n=6):
        psi = wf(q)
        v = -geo.apply_operator(l12, wf, q) \
            + (p.beta**2 - p.alpha**2) * psi
        worst = max(worst, abs(v - mu2 * psi) / abs(psi))
    assert worst <= 1e-6


def test_v2_hamiltonian_decomposition(p2_fixture):
    # H = (L12 + L13 + L23)/2 - (sum k^2)/2 + 3/8; the published constant
    # 3/4 leaves an exact 3/8 defect
    p = p2_fixture
    wf = p2.wf_ambient(p2.P2State(p, "equidistant", (0, 0)))
    ops = [alg.build_operator(o, p) for o in ("L12", "L13", "L23")]
    ksq = p.k1**2 + p.k2**2 + p.k3**2
    e0 = p2.p2_energy(p, 0)
    worst, printed = 0.0, 0.0
    for q in eq_points(n=6):
        psi = wf(q)
        s = sum(geo.apply_operator(o, wf, q) for o in ops)
        worst = max(worst, abs(0.5 * s + (-0.5 * ksq + 0.375) * psi - e0 * psi)
                    / abs(psi))
        printed = max(printed, abs(0.5 * s + (-0.5 * ksq + 0.75) * psi
                                   - e0 * psi) / abs(psi))
    assert worst <= 1e-6
    assert abs(printed - 0.375) <= 1e-6


# ---------------------------------------------------------------------------
# Linear relations
# ---------------------------------------------------------------------------

def test_linear_relations_on_constant(p1_fixture):
    reps = alg.check_linear_relations(p1_fixture, (lambda q: 1.0,), eq_points())
    for r in reps.values():
        assert r <= 1e-12


def test_linear_relations_on_smooth_functions(p1_fixture):
    fs = (lambda q: q.w2 * np.exp(-q.w0),
          lambda q: q.w0**2 / (1.0 + q.w2**2))
    reps = alg.check_linear_relations(p1_fixture, fs, eq_points())
    assert list(reps) == ["linRel3", "linRel4"]
    for r in reps.values():
        assert r <= 1e-5  # the linear-relations suite's bound


def test_linear_relations_at_roundoff_floor(p1_fixture):
    # the relations cancel at the coefficient level, so the defect sits at
    # the round-off floor
    fs = (lambda q: q.w2 * np.exp(-q.w0),)
    for r in alg.check_linear_relations(p1_fixture, fs, eq_points(n=4)).values():
        assert r <= 1e-12


def test_linear_relations_one_call_per_function(p1_fixture, monkeypatch):
    # L1..L4 share one batched apply_operators call per test function, L1
    # and L2 serving both relations
    calls = []
    apply = alg.apply_operators

    def counted(ops, f, q, **kw):
        calls.append((len(ops), isinstance(q, geo.AmbientPoints)))
        return apply(ops, f, q, **kw)
    monkeypatch.setattr(alg, "apply_operators", counted)
    alg.check_linear_relations(
        p1_fixture, (lambda q: q.w2 * np.exp(-q.w0),
                     lambda q: q.w0**2 / (1.0 + q.w2**2)), eq_points())
    assert calls == [(4, True)] * 2


def test_operator_family_equals_one_call_per_operator(p1_fixture):
    # one call of f for L1..L4 gives each operator's own call bit for bit
    ops = tuple(alg.build_operator(k, p1_fixture) for k in ("L1", "L2", "L3", "L4"))
    batch = geo.AmbientPoints.stack(eq_points())
    calls = []

    def f(q):
        calls.append(len(q))
        return q.w2 * np.exp(-q.w0) + q.w0**2 / (1.0 + q.w2**2)
    got = geo.apply_operators(ops, f, batch)
    # the union of the words: (K3, K3) and (K2 - M1)^2's four
    assert calls == [5 * len(batch)]
    for op, v in zip(ops, got):
        assert v.shape == (len(batch),)
        assert np.array_equal(v, geo.apply_operator(op, f, batch))
    # a single point gives one number per operator
    single = geo.apply_operators(ops, f, batch.point(3))
    assert all(isinstance(v, float) for v in single)
    assert np.allclose(single, [v[3] for v in got], rtol=1e-13, atol=0.0)


def _level_basis(p, w):
    """The level's equidistant states as one stack: a row per column (n, m)."""
    n, m = np.array(w.cols, dtype=float).T[:, :, None]
    return lambda q: p1._equidistant_product(
        p, n, m, *geo.chart_coordinates(q, "equidistant"))


def test_stacked_states_equal_per_state_calls(p1_fixture):
    # one row per state on the jets too: R on the stacked level-2 basis is
    # R on each state's own wavefunction, bit for bit
    w = ib.w_3f2(p1_fixture, 2)
    r = alg.build_operator("R", p1_fixture)
    batch = geo.AmbientPoints.stack(eq_points())
    stacked = geo.apply_operator(r, _level_basis(p1_fixture, w), batch)
    assert stacked.shape == (len(w.cols), len(batch))
    for row, nm in zip(stacked, w.cols):
        wf = p1.wf_ambient(p1.P1State(p1_fixture, "equidistant", nm))
        assert np.array_equal(row, geo.apply_operator(r, wf, batch))


def test_multiplet_matrices_calls_the_basis_twice(p1_fixture, monkeypatch):
    calls = []
    orig = p1._equidistant_product

    def counted(p, n, m, t1, t2):
        calls.append(type(t1).__name__)
        return orig(p, n, m, t1, t2)
    monkeypatch.setattr(p1, "_equidistant_product", counted)
    rep = alg.multiplet_matrices(p1_fixture, 2)
    # one plain call for the states at the rule's points, one on the jets
    # for N1, N2 and R together
    assert calls == ["ndarray", "Jet"]
    assert rep.r_applied.shape == (3, 3)


def test_batched_operator_calls_function_once(p1_fixture):
    # R has twelve distinct words; its stencils share one call of f
    r = alg.build_operator("R", p1_fixture)
    assert len({word for _, word in r.terms}) == 12
    calls = [0]

    def f(q):
        calls[0] += 1
        return q.w0 * q.w2 + q.w1
    alg.apply_operator(r, f, geo.AmbientPoints.stack(eq_points()))
    assert calls[0] == 1


# ---------------------------------------------------------------------------
# Multiplets and the quadratic algebra
# ---------------------------------------------------------------------------

def test_multiplet_matrices_fixture_values(p1_fixture):
    rep = alg.multiplet_matrices(p1_fixture, 2)
    n1 = rep.n1_matrix
    assert np.allclose(np.diag(n1), [49.0, 25.0, 9.0], atol=1e-10)
    assert np.allclose(sorted(np.linalg.eigvalsh(rep.n2_matrix)),
                       [-45.0, -41.0, -37.0], atol=1e-8)
    assert np.max(np.abs(n1 - n1.T)) / np.max(np.abs(n1)) <= 1e-10
    assert np.max(np.abs(n1 - np.diag([49.0, 25.0, 9.0]))) / 49.0 <= 1e-10
    assert np.max(np.abs(rep.n2_matrix - rep.n2_matrix.T)) <= 1e-10
    assert np.max(np.abs(rep.r_matrix + rep.r_matrix.T)) <= 1e-10


def test_multiplet_n0_scalar(p1_fixture):
    rep = alg.multiplet_matrices(p1_fixture, 0)
    assert rep.r_matrix.shape == (1, 1) and rep.r_matrix[0, 0] == 0.0


def test_l3_l4_multiplet_eigenvalues_match_roots(p1_fixture):
    # eigenvalues of -(L1 + L2) on the level reproduce the elliptic-
    # parabolic separation constants (+4 g^2), and of (L2 - L1) the
    # hyperbolic-parabolic ones (-4 g^2): zeros, expansion matrix and
    # operator matrices are mutually consistent
    p = p1_fixture
    g2 = p.gamma**2
    for N in (1, 2):
        rep = alg.multiplet_matrices(p, N)
        l1m = rep.n1_matrix
        l2m = rep.n2_matrix + 2 * g2 * np.eye(N + 1)
        lam = np.sort(np.linalg.eigvalsh(-(l1m + l2m)))
        lam_pred = np.sort([p1.p1_ep_lambda(p, c) + 4 * g2
                            for c in p1.p1_ep_roots(p, N, form="derived")])
        assert np.allclose(lam, lam_pred, atol=1e-7)
        tau = np.sort(np.linalg.eigvalsh(l2m - l1m))
        tau_pred = np.sort([p1.p1_hp_tau(p, c) - 4 * g2
                            for c in p1.p1_hp_roots(p, N, form="derived")])
        assert np.allclose(tau, tau_pred, atol=1e-7)


def test_symmetrizer_definition():
    rng = np.random.default_rng(30)
    x = rng.normal(size=(3, 3))
    assert np.allclose(alg._sym3(x, x, x), 6 * x @ x @ x, atol=1e-12)


def test_r_two_ways(p1_fixture):
    # matrix commutator vs the Galerkin matrix of the differential
    # expression on the N = 2 multiplet
    rep = alg.multiplet_matrices(p1_fixture, 2)
    scale = max(float(np.max(np.abs(rep.r_matrix))), 1.0)
    assert np.max(np.abs(rep.r_applied - rep.r_matrix)) / scale <= 1e-5


S229 = (0.8021189901441927, 0.055414650975510134, 4.235214784107855)


@pytest.mark.parametrize("well", [(1.0, 1.0 / SQRT2, 2.0 * SQRT2),
                                  (0.3, 0.2, 3.0), (0.56, 0.095, 4.38), S229],
                         ids=["fixture", "deep", "wide", "s229"])
@pytest.mark.parametrize("N", [0, 1, 2])
def test_galerkin_matrices_on_deep_and_wide_wells(well, N):
    # the exact Gauss rules of the level's factors; the Laguerre mass
    # Gamma(225.9) of the s = 229 well's N = 1 rule stays in log space.
    # Measured at most 9.0e-9 for R (s = 229, N = 1), where the least-squares
    # projection on sample points read 3.5e-6
    p = p1.P1Params(*well)
    rep = alg.multiplet_matrices(p, N)
    n1, n2, r = rep.n1_matrix, rep.n2_matrix, rep.r_matrix
    top1, top2 = np.max(np.abs(n1)), np.max(np.abs(n2))
    mu2 = p1.p1_mu(p, np.arange(N + 1.0)) ** 2
    eigs = np.sort(alg.n2_horicyclic_eigenvalues(p, N))
    assert np.max(np.abs(rep.gram - np.eye(N + 1))) <= 1e-10
    assert np.max(np.abs(n1 - np.diag(mu2))) / np.max(mu2) <= 1e-10
    assert np.max(np.abs(np.linalg.eigvalsh(n2) - eigs)) \
        / np.max(np.abs(eigs)) <= 1e-10
    assert max(np.max(np.abs(n1 - n1.T)) / top1,
               np.max(np.abs(n2 - n2.T)) / top2,
               np.max(np.abs(r + r.T)) / (top1 * top2)) <= 1e-10
    assert np.max(np.abs(rep.r_applied - r)) \
        / max(np.max(np.abs(r)), 1.0) <= 1e-7


def test_quadratic_algebra_reports(p1_fixture):
    # under the eigenvalue-line convention the published identities carry
    # defects (reported with a fitted constant); under the shifted
    # convention N2 + 4 gamma^2 all three close to round-off
    for N in (0, 1, 2):
        rep = alg.multiplet_matrices(p1_fixture, N)
        reports = alg.check_quadratic_algebra(rep, p1_fixture)
        assert list(reports) == ["commRN2", "commRN1", "Rsquared"]
        for residual, notes in reports.values():
            assert notes["residual_with_shifted_N2"] <= 1e-10
            # the printed convention does not close: above the suite's bound
            assert residual > 1e-6


def test_quadratic_algebra_n0_scalar_identities(p1_fixture):
    # 1 x 1 case by hand: with N2 = -37 the first identity defect is
    # exactly -6656; with the shifted N2 = -5 it vanishes
    p = p1_fixture
    rep = alg.multiplet_matrices(p, 0)
    reports = alg.check_quadratic_algebra(rep, p)
    assert abs(reports["commRN2"][1]["fitted_constant_offset"]
               - (-6656.0)) <= 1e-8
    b2, g2, a2 = p.beta**2, p.gamma**2, p.alpha**2
    n2s, n1s, e = -5.0, 49.0, -10.0
    by_hand = 8 * n2s**2 + 64 * b2 * e + 16 * g2 * n2s + 32 * b2 * n1s \
        + 16 * b2 * (1 - 4 * a2)
    assert abs(by_hand) <= 1e-9


# ---------------------------------------------------------------------------
# Batched operator application
# ---------------------------------------------------------------------------

def _old_equidistant_closure(st):
    """The scalar-only closure the verify suites used before p2.wf_ambient."""
    def wf(q):
        c = geo.ambient_to_chart(q, "equidistant")
        return complex(np.asarray(
            p2.p2_wf_equidistant(st, c.u1, c.u2)).reshape(()))
    return wf


# An n-point batch against n one-point batches: they differ only if the
# batch path mixes values across points.  Operators are applied exactly,
# so nothing amplifies the last-bit differences of vectorized evaluation.
P1_OPS = ["L1", "L2", "L3", "L4", "L3_display", "L4_display", "N1", "N2",
          "R", "H"]
P2_OPS = ["L1", "L12", "L13", "L23", "L2", "H"]


def _batch_vs_points(op, wf, pts):
    batch = geo.AmbientPoints.stack(pts)
    got = geo.apply_operator(op, wf, batch)
    ref = np.array([geo.apply_operator(op, wf, q) for q in pts])
    assert got.shape == (len(pts),)
    scale = max(np.max(np.abs(ref)), np.max(np.abs(wf(batch))))
    return float(np.max(np.abs(got - ref))) / scale


@pytest.mark.parametrize("op_id", P1_OPS)
def test_batched_p1_operators_match_pointwise(p1_fixture, op_id):
    pts = eq_points(seed=17, n=8)
    wf = p1.wf_ambient(p1.P1State(p1_fixture, "equidistant", (1, 1)))
    assert _batch_vs_points(alg.build_operator(op_id, p1_fixture), wf,
                            pts) <= 1e-13


@pytest.mark.parametrize("op_id", P2_OPS)
def test_batched_p2_operators_match_pointwise(p2_fixture, p2_deep, op_id):
    if op_id == "L2":
        conf = p2.p2_sh_roots(p2_deep, 1, CP0)[0]
        wf = p2.wf_ambient(p2.P2State(p2_deep, "semi-hyperbolic", (1,),
                                      roots=conf, chart_params=CP0))
        rng = np.random.default_rng(19)
        pts = [geo.chart_to_ambient(geo.ChartPoint(
            "semi-hyperbolic", rng.uniform(0.4, 2.0), -rng.uniform(0.4, 2.0),
            CP0)) for _ in range(8)]
        op = alg.build_operator("L2", p2_deep, chart_params=CP0)
    else:
        wf = p2.wf_ambient(p2.P2State(p2_fixture, "equidistant", (0, 0)))
        pts = eq_points(seed=17, n=8)
        op = alg.build_operator(op_id, p2_fixture)
    assert _batch_vs_points(op, wf, pts) <= 1e-13


def test_p2_wf_ambient_matches_old_closure(p2_fixture):
    st = p2.P2State(p2_fixture, "equidistant", (0, 0))
    pts = eq_points(n=20)
    old = np.array([_old_equidistant_closure(st)(q) for q in pts])
    wf = p2.wf_ambient(st)
    batch = wf(geo.AmbientPoints.stack(pts))
    scalar = np.array([wf(q) for q in pts])
    assert np.max(np.abs(batch - old) / np.abs(old)) <= 1e-14
    assert np.max(np.abs(scalar - old) / np.abs(old)) <= 1e-14
    assert all(isinstance(v, complex) for v in scalar)


def test_p2_semihyperbolic_batch_matches_points(p2_deep):
    conf = p2.p2_sh_roots(p2_deep, 2, CP0)[0]
    st = p2.P2State(p2_deep, "semi-hyperbolic", (2,), roots=conf,
                    chart_params=CP0)
    rng = np.random.default_rng(23)
    pts = [geo.chart_to_ambient(geo.ChartPoint(
        "semi-hyperbolic", rng.uniform(0.1, 3.0), -rng.uniform(0.1, 3.0), CP0))
        for _ in range(20)]
    batch = p2.wf_ambient(st)(geo.AmbientPoints.stack(pts))
    ref = np.array([p2.p2_wf_semihyperbolic(st, q) for q in pts])
    assert np.max(np.abs(batch - ref) / np.abs(ref)) <= 1e-14
