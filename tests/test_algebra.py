import math

import numpy as np
import pytest

from hypersint import algebra as alg
from hypersint import geometry as geo
from hypersint import interbasis as ib
from hypersint import potential1 as p1
from hypersint import potential2 as p2
from hypersint.errors import OutOfDomainError

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
            r = alg.eigen_residual(alg.build_operator("L1", p),
                                   p1.wf_ambient(st), mu**2, pts)
            assert r <= 1e-6, (N, n, m, r)
        for (n1, n2) in p1.level_states_horicyclic(p, N):
            st = p1.P1State(p, "horicyclic", (n1, n2))
            lam = -(2 * SQRT2 * p.beta * (2 * n1 + p.d + 1) + 2 * p.gamma**2)
            r = alg.eigen_residual(alg.build_operator("L2", p),
                                   p1.wf_ambient(st), lam, pts)
            assert r <= 1e-6, (N, n1, n2, r)


def test_l3_l4_eigenvalues_track_separation_constants(p1_fixture):
    # operator eigenvalue = separated-ODE constant -+ 4 gamma^2: the
    # compensating constants keep the linear relations exact while the raw
    # displays reproduce the separation constants themselves
    p = p1_fixture
    pts = eq_points()
    pts_pos = eq_points(seed=12, w2_positive=True)
    for conf in p1.p1_ep_roots(p, 1, form="derived"):
        st = p1.P1State(p, "elliptic-parabolic", (1,), roots=conf)
        lam = p1.p1_ep_lambda(p, conf)
        r = alg.eigen_residual(alg.build_operator("L3", p), p1.wf_ambient(st),
                               lam + 4 * p.gamma**2, pts)
        assert r <= 1e-6
        r = alg.eigen_residual(alg.build_operator("L3_display", p),
                               p1.wf_ambient(st), lam, pts)
        assert r <= 1e-6
    for conf in p1.p1_hp_roots(p, 1, form="derived"):
        st = p1.P1State(p, "hyperbolic-parabolic", (1,), roots=conf)
        tau = p1.p1_hp_tau(p, conf)
        r = alg.eigen_residual(alg.build_operator("L4", p), p1.wf_ambient(st),
                               tau - 4 * p.gamma**2, pts_pos)
        assert r <= 1e-6
        r = alg.eigen_residual(alg.build_operator("L4_display", p),
                               p1.wf_ambient(st), tau, pts_pos)
        assert r <= 1e-6


def test_eigen_residual_order_in_h(p1_fixture):
    # without extrapolation the truncation defect scales like h^2
    p = p1_fixture
    st = p1.P1State(p, "equidistant", (0, 0))
    mu2 = p1.p1_mu(p, 0) ** 2
    pts = eq_points(n=4)
    op = alg.build_operator("L1", p)
    r1 = alg.eigen_residual(op, p1.wf_ambient(st), mu2, pts, h=0.04,
                            richardson=False)
    r2 = alg.eigen_residual(op, p1.wf_ambient(st), mu2, pts, h=0.02,
                            richardson=False)
    order = math.log(r1 / r2) / math.log(2.0)
    assert order >= 1.9


def test_v2_l1_eigen_residual(p2_fixture):
    st = p2.P2State(p2_fixture, "equidistant", (0, 0))
    wf = p2.wf_ambient(st)
    mu2 = p2.p2_mu(p2_fixture, 0) ** 2
    r = alg.eigen_residual(alg.build_operator("L1", p2_fixture), wf, mu2,
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
            assert alg.eigen_residual(l2, wf, lam, pts) <= 1e-6


def test_v2_ssh17_relation(p2_fixture):
    # L1 = -L12 + beta^2 - alpha^2 reproduces the mu^2 eigenvalue
    p = p2_fixture
    wf = p2.wf_ambient(p2.P2State(p, "equidistant", (0, 0)))
    l12 = alg.build_operator("L12", p)
    mu2 = p2.p2_mu(p, 0) ** 2
    worst = 0.0
    for q in eq_points(n=6):
        psi = wf(q)
        v = -geo.apply_operator(l12, wf, q, h=1e-3) \
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
        s = sum(geo.apply_operator(o, wf, q, h=1e-3) for o in ops)
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
    for r in reps:
        assert r.residual <= 1e-12


def test_linear_relations_on_smooth_functions(p1_fixture):
    fs = (lambda q: q.w2 * np.exp(-q.w0),
          lambda q: q.w0**2 / (1.0 + q.w2**2))
    reps = alg.check_linear_relations(p1_fixture, fs, eq_points())
    assert [r.identity for r in reps] == ["linRel3", "linRel4"]
    for r in reps:
        assert r.passed and r.residual <= 1e-5


def test_linear_relations_at_roundoff_floor_for_all_h(p1_fixture):
    # the relations cancel at the coefficient level, so the defect sits at
    # the round-off floor for every step size (no h^2 term survives)
    fs = (lambda q: q.w2 * np.exp(-q.w0),)
    pts = eq_points(n=4)
    for h in (2e-3, 1e-3):
        for r in alg.check_linear_relations(p1_fixture, fs, pts, h=h):
            assert r.residual <= 1e-12


def test_linear_relations_one_call_per_operator_and_function(p1_fixture,
                                                            monkeypatch):
    # one batched apply_operator call per operator and function, L1 and L2
    # shared by both relations (4 x 2 = 8)
    calls = []
    apply = alg.apply_operator

    def counted(op, f, q, **kw):
        calls.append(isinstance(q, geo.AmbientPoints))
        return apply(op, f, q, **kw)
    monkeypatch.setattr(alg, "apply_operator", counted)
    alg.check_linear_relations(
        p1_fixture, (lambda q: q.w2 * np.exp(-q.w0),
                     lambda q: q.w0**2 / (1.0 + q.w2**2)), eq_points())
    assert calls == [True] * 8


def test_batched_operator_calls_function_once(p1_fixture):
    # R has twelve distinct words; its stencils share one call of f
    r = alg.build_operator("R", p1_fixture)
    assert len({word for _, word in r.terms}) == 12
    calls = [0]

    def f(q):
        calls[0] += 1
        return q.w0 * q.w2 + q.w1
    alg.apply_operator(r, f, geo.AmbientPoints.stack(eq_points()),
                       h=alg.R_STEP)
    assert calls[0] == 1


# ---------------------------------------------------------------------------
# Multiplets and the quadratic algebra
# ---------------------------------------------------------------------------

def test_multiplet_matrices_fixture_values(p1_fixture):
    w = ib.w_3f2(p1_fixture, 2)
    rep = alg.multiplet_matrices(p1_fixture, 2, w)
    assert np.allclose(np.diag(rep.n1_matrix), [49.0, 25.0, 9.0], atol=1e-10)
    assert np.allclose(sorted(np.linalg.eigvalsh(rep.n2_matrix)),
                       [-45.0, -41.0, -37.0], atol=1e-8)
    assert np.max(np.abs(rep.n1_matrix - rep.n1_matrix.T)) == 0.0
    assert np.max(np.abs(rep.n2_matrix - rep.n2_matrix.T)) <= 1e-10
    assert np.max(np.abs(rep.r_matrix + rep.r_matrix.T)) <= 1e-10


def test_multiplet_n0_scalar(p1_fixture):
    w = ib.w_3f2(p1_fixture, 0)
    rep = alg.multiplet_matrices(p1_fixture, 0, w)
    assert rep.r_matrix.shape == (1, 1) and rep.r_matrix[0, 0] == 0.0


def test_l3_l4_multiplet_eigenvalues_match_roots(p1_fixture):
    # eigenvalues of -(L1 + L2) on the level reproduce the elliptic-
    # parabolic separation constants (+4 g^2), and of (L2 - L1) the
    # hyperbolic-parabolic ones (-4 g^2): zeros, expansion matrix and
    # operator matrices are mutually consistent
    p = p1_fixture
    g2 = p.gamma**2
    for N in (1, 2):
        w = ib.w_3f2(p, N)
        rep = alg.multiplet_matrices(p, N, w)
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
    # matrix commutator vs least-squares projection of the differential
    # expression onto the N = 2 multiplet
    w = ib.w_3f2(p1_fixture, 2)
    rep = alg.multiplet_matrices(p1_fixture, 2, w)
    pts = eq_points(seed=13, n=30)
    basis = [p1.wf_ambient(p1.P1State(p1_fixture, "equidistant", nm))
             for nm in w.cols]
    r_proj = alg.project_operator(alg.build_operator("R", p1_fixture),
                                  basis, pts, h=alg.R_STEP)
    scale = max(float(np.max(np.abs(rep.r_matrix))), 1.0)
    assert np.max(np.abs(r_proj - rep.r_matrix)) / scale <= 1e-5


def test_quadratic_algebra_reports(p1_fixture):
    # under the eigenvalue-line convention the published identities carry
    # defects (reported with a fitted constant); under the shifted
    # convention N2 + 4 gamma^2 all three close to round-off
    for N in (0, 1, 2):
        w = ib.w_3f2(p1_fixture, N)
        rep = alg.multiplet_matrices(p1_fixture, N, w)
        reports = alg.check_quadratic_algebra(rep, p1_fixture)
        assert [r.identity for r in reports] == ["commRN2", "commRN1",
                                                 "Rsquared"]
        for r in reports:
            assert r.notes["residual_with_shifted_N2"] <= 1e-10
            assert not r.passed  # the printed convention does not close


def test_quadratic_algebra_n0_scalar_identities(p1_fixture):
    # 1 x 1 case by hand: with N2 = -37 the first identity defect is
    # exactly -6656; with the shifted N2 = -5 it vanishes
    p = p1_fixture
    w = ib.w_3f2(p, 0)
    rep = alg.multiplet_matrices(p, 0, w)
    reports = alg.check_quadratic_algebra(rep, p)
    assert abs(reports[0].notes["fitted_constant_offset"] - (-6656.0)) <= 1e-8
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
# batch path mixes values across points.  The bounds date from a scalar
# reference, whose values differed from vectorized ones by <= 4.4e-16
# relative; a word of order k divides that by h^k: about 4e-10 at h = 1e-3
# (second order) and 6e-8 at h = 2e-3 (third order, R).
P1_OPS = ["L1", "L2", "L3", "L4", "L3_display", "L4_display", "N1", "N2",
          "R", "H"]
P2_OPS = ["L1", "L12", "L13", "L23", "L2", "H"]


def _batch_vs_points(op, wf, pts, h):
    batch = geo.AmbientPoints.stack(pts)
    got = geo.apply_operator(op, wf, batch, h=h)
    ref = np.array([geo.apply_operator(op, wf, q, h=h) for q in pts])
    assert got.shape == (len(pts),)
    scale = max(np.max(np.abs(ref)), np.max(np.abs(wf(batch))))
    return float(np.max(np.abs(got - ref))) / scale


@pytest.mark.parametrize("op_id", P1_OPS)
def test_batched_p1_operators_match_pointwise(p1_fixture, op_id):
    pts = eq_points(seed=17, n=8)
    wf = p1.wf_ambient(p1.P1State(p1_fixture, "equidistant", (1, 1)))
    h = alg.R_STEP if op_id == "R" else 1e-3
    bound = 1e-7 if op_id == "R" else 1e-8
    assert _batch_vs_points(alg.build_operator(op_id, p1_fixture), wf, pts,
                            h) <= bound


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
    assert _batch_vs_points(op, wf, pts, 1e-3) <= 1e-8


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
