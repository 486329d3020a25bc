import math

import numpy as np
import pytest

from hypersint import geometry as geo
from hypersint import potential1 as p1
from hypersint import potential2 as p2
from hypersint import specfun as sf
from hypersint import verify
from hypersint.errors import (
    NoBoundStateError,
    NonFiniteValueError,
    OutOfDomainError,
    OutOfWindowError,
    SingularConfigurationError,
    SolverFailureError,
)

SQRT2 = math.sqrt(2.0)
#: breakpoints past which every fixture factor's square is below 1e-15
HALFLINE = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0)
MORSE_DOMAIN = (-25.0, -8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 5.0)


def _quad(f, points) -> float:
    """mpmath's adaptive quadrature of a float function of the package."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(15):
        return float(mp.quad(lambda t: float(f(float(t))), points))


# ---------------------------------------------------------------------------
# Windows and spectrum
# ---------------------------------------------------------------------------

def test_derived_constants(p1_fixture):
    p = p1_fixture
    assert abs(p.d - 1.5) < 1e-14
    assert abs(p.s - 8.0) < 1e-13
    assert p.nmax == 2
    assert p.m_max == 3


def test_spectrum_fixture_levels(p1_fixture):
    # hand values: E_N = -(1/2)(2N + 3.5 - 8)^2 + 1/8
    for N, e in ((0, -10.0), (1, -3.0), (2, 0.0)):
        assert abs(p1.p1_energy(p1_fixture, N) - e) < 1e-12
    with pytest.raises(NoBoundStateError):
        p1.p1_energy(p1_fixture, 3)


def test_empty_spectrum():
    p = p1.P1Params(1.0, 10.0, 1.0)
    assert p.nmax is None
    with pytest.raises(NoBoundStateError):
        p1.p1_energy(p, 0)


# The five window formulas as they stood before they shared one helper,
# copied verbatim (P1Params.nmax and P2Params.nmax had the same form).
def _old_nmax(span):
    if span < 1e-12:
        return None
    k = math.floor(span / 2.0)
    if span - 2.0 * k <= 1e-12:
        k -= 1
    return k if k >= 0 else None


def _old_m_max(s):
    k = math.floor((s - 1.0) / 2.0)
    if s - 2.0 * k - 1.0 <= 1e-12:
        k -= 1
    return k


def _old_n_max(d, mu):
    k = math.floor((mu - 1.0 - d) / 2.0)
    if mu - d - 2.0 * k - 1.0 <= 1e-12:
        k -= 1
    return k


def _check_windows(p, p2p):
    assert p.nmax == _old_nmax(p.s - p.d - 2.0)
    assert p.m_max == _old_m_max(p.s)
    assert p2p.nmax == _old_nmax(p2p.M - p2p.d - 2.0)
    assert p2p.m_max == _old_m_max(p2p.M)  # the first potential's open window
    mus = [p.s - 2.0 * m - 1.0 for m in range(max(p.m_max, 0) + 2)]
    mus += [p2p.M - 2.0 * m - 1.0 for m in range(p2p.m_max + 2)]
    for mu in mus:
        assert p1.p1_n_max(p, mu) == _old_n_max(p.d, mu)
        assert p1.p1_n_max(p2p, mu) == _old_n_max(p2p.d, mu)


def test_windows_match_the_separate_formulas():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        t = (rng.uniform(0.05, 2.0), rng.uniform(0.05, 3.0),
             rng.uniform(0.3, 6.0))
        _check_windows(p1.P1Params(*t), p2.P2Params(*t))
    # d = 1.5 and sqrt2 beta = 1 (to rounding): s = gamma^2 lands on the
    # window boundaries (odd s for m, s - 3.5 even for N and n) and next to
    # them, where the 1e-12 tolerance decides
    beta = 1.0 / math.sqrt(2.0)
    for s in (5.0, 5.5, 7.0, 7.5, 8.0, 9.0, 9.5, 13.5):
        for rel in (0.0, 1e-16, -1e-16, 1e-15, -1e-15, 1e-13, -1e-13,
                    1e-11, -1e-11):
            gamma = math.sqrt(s * (1.0 + rel))
            _check_windows(p1.P1Params(1.0, beta, gamma),
                           p2.P2Params(1.0, beta, gamma))
    # exact spans at and next to the boundaries
    for k in range(-1, 4):
        for eps in (0.0, 5e-13, -5e-13, 1e-12, 2e-12, -2e-12):
            top = p1._window_top(2.0 * k + eps)
            assert (top if top >= 0 else None) == _old_nmax(2.0 * k + eps)


def test_mu_quantization(p1_fixture):
    for m, mu in ((0, 7.0), (1, 5.0), (2, 3.0), (3, 1.0)):
        assert abs(p1.p1_mu(p1_fixture, m) - mu) < 1e-12
    with pytest.raises(OutOfWindowError):
        p1.p1_mu(p1_fixture, 4)


def test_degeneracy_is_n_plus_1(p1_fixture):
    for N in range(3):
        assert len(p1.level_states_equidistant(p1_fixture, N)) == N + 1
        assert len(p1.level_states_horicyclic(p1_fixture, N)) == N + 1


def test_cross_chart_quantization(p1_fixture):
    for N in range(3):
        e = p1.p1_energy(p1_fixture, N)
        assert abs(e - p1.p1_energy_from_horicyclic(p1_fixture, N)) <= 1e-12
        assert abs(e - p1.p1_energy_from_elliptic_parabolic(p1_fixture, N)) <= 1e-12


def test_horicyclic_constants_sum_to_one(p1_fixture):
    # lambda1 + lambda2 = 1 at the quantized energies
    p = p1_fixture
    for N in range(3):
        nu = p1.p1_nu(p, N)
        for n1 in range(N + 1):
            lam1 = SQRT2 * p.beta / p.gamma**2 * (2 * n1 + p.d + 1) - 1.0
            lam2 = SQRT2 * p.beta / p.gamma**2 * (2 * (N - n1) + nu + 1) + 1.0
            assert abs(lam1 + lam2 - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Potential forms
# ---------------------------------------------------------------------------

def test_v1_singular_configuration(p1_fixture):
    q = geo.AmbientPoint(1.0, 0.0, 0.0)
    with pytest.raises(SingularConfigurationError):
        p1.v1_ambient(p1_fixture, q)


@pytest.mark.parametrize("chart,form,dom", [
    ("equidistant", p1.v1_equidistant, (0.2, 2.0, -2.0, 2.0)),
    ("horicyclic", p1.v1_horicyclic, (0.2, 2.0, 0.2, 3.0)),
    ("elliptic-parabolic", p1.v1_elliptic_parabolic, (0.2, 2.0, 0.2, 1.3)),
    ("hyperbolic-parabolic", p1.v1_hyperbolic_parabolic, (0.2, 2.0, 0.2, 1.3)),
])
def test_v1_ambient_matches_chart_forms(p1_fixture, chart, form, dom):
    rng = np.random.default_rng(8)
    for _ in range(100):
        u = rng.uniform(dom[0], dom[1])
        v = rng.uniform(dom[2], dom[3])
        q = geo.chart_to_ambient(geo.ChartPoint(chart, u, v))
        va = p1.v1_ambient(p1_fixture, q)
        assert abs(va - float(form(p1_fixture, u, v))) <= 1e-12 * max(1, abs(va))


# ---------------------------------------------------------------------------
# One-dimensional factors
# ---------------------------------------------------------------------------

def test_factor_normalizations(p1_fixture):
    p = p1_fixture
    for N in range(3):
        for (n, m) in p1.level_states_equidistant(p, N):
            mu = p1.p1_mu(p, m)
            v = _quad(lambda t: p1.pt_factor(p, n, mu, t) ** 2, HALFLINE)
            assert abs(v - 1.0) <= 1e-9
            v = _quad(lambda t: p1.morse_factor(p, m, t, mu) ** 2, MORSE_DOMAIN)
            assert abs(v - 1.0) <= 1e-9
    for n1 in range(3):
        v = _quad(lambda x: p1.osc_x_factor(p, n1, x) ** 2, HALFLINE)
        assert abs(v - 0.5) <= 1e-9  # even function: full-line norm is 1
    v = _quad(lambda y: p1.osc_y_factor(p, 2, 1, y) ** 2, HALFLINE)
    assert abs(v - 1.0) <= 1e-8


def test_morse_ground_has_no_zeros(p1_fixture):
    t2 = np.linspace(-6.0, 2.0, 400)
    vals = p1.morse_factor(p1_fixture, 0, t2)
    assert np.all(vals > 0.0)


def test_pt_n1_has_one_zero(p1_fixture):
    mu = p1.p1_mu(p1_fixture, 0)
    t1 = np.linspace(1e-3, 6.0, 2000)
    vals = p1.pt_factor(p1_fixture, 1, mu, t1)
    assert int(np.sum(np.sign(vals[:-1]) != np.sign(vals[1:]))) == 1


def test_osc_x_factor_is_even(p1_fixture):
    x = np.linspace(0.05, 3.0, 50)
    for n1 in range(3):
        v = p1.osc_x_factor(p1_fixture, n1, x)
        w = p1.osc_x_factor(p1_fixture, n1, -x)
        assert np.max(np.abs(v - w)) == 0.0


def test_equidistant_orthonormality(p1_fixture):
    p = p1_fixture
    n, m = np.array([nm for N in range(3)
                     for nm in p1.level_states_equidistant(p, N)], dtype=float).T
    gram = verify.equidistant_gram(p, n, m)
    assert np.max(np.abs(gram - np.eye(len(n)))) <= 1e-7


@pytest.mark.parametrize("well", [(0.3, 0.2, 3.0), (0.865, 0.19, 4.855),
                                  (0.56, 0.095, 4.38), (0.5, 0.25, 5.5)])
def test_equidistant_gram_on_deep_and_wide_wells(well):
    # exact Gauss rules in the factors' compact variables: every state of
    # every level (6 to 70 levels); measured at most 3.6e-13
    p = p1.P1Params(*well)
    n, m = np.array([nm for N in range(p.nmax + 1)
                     for nm in p1.level_states_equidistant(p, N)], dtype=float).T
    gram = verify.equidistant_gram(p, n, m)
    assert np.max(np.abs(gram - np.eye(len(n)))) <= 1e-12


def test_horicyclic_product_norm(p1_fixture):
    # unit norm in L^2(dx dy / y^2) over the half-chart x > 0
    p = p1_fixture
    st = p1.P1State(p, "horicyclic", (1, 1))
    vx = _quad(lambda x: p1.osc_x_factor(p, 1, x) ** 2, HALFLINE)
    vy = _quad(lambda y: (p1.osc_y_factor(p, 2, 1, y) / y) ** 2 if y else 0.0,
               HALFLINE)
    total = p1.hc_norm_constant(p, 2) ** 2 * vx * vy
    assert abs(total - 1.0) <= 1e-8
    assert st.energy == p1.p1_energy(p, 2)


# ---------------------------------------------------------------------------
# Zero equations
# ---------------------------------------------------------------------------

def test_ep_roots_n0(p1_fixture):
    confs = p1.p1_ep_roots(p1_fixture, 0)
    assert len(confs) == 1 and confs[0].roots == () and confs[0].residual == 0.0


def test_ep_roots_n1_printed_quadratic(p1_fixture):
    # printed equation reduces to th^2 - 3 th - 12.5 = 0
    confs = p1.p1_ep_roots(p1_fixture, 1, form="printed")
    got = sorted(c.roots[0] for c in confs)
    expect = sorted([(3 - math.sqrt(59)) / 2, (3 + math.sqrt(59)) / 2])
    assert np.allclose(got, expect, atol=1e-10)
    # the negative root sits outside both admissible zones: surfaced
    assert any(c.off_zone == 1 for c in confs)


def test_ep_roots_n1_derived_quadratic(p1_fixture):
    # re-derived equation reduces to th^2 - 7 th + 3.5 = 0
    confs = p1.p1_ep_roots(p1_fixture, 1, form="derived")
    got = sorted(c.roots[0] for c in confs)
    expect = sorted([(7 - math.sqrt(35)) / 2, (7 + math.sqrt(35)) / 2])
    assert np.allclose(got, expect, atol=1e-10)
    assert sorted(c.zone_counts for c in confs) == [(0, 1), (1, 0)]
    assert all(c.off_zone == 0 for c in confs)


def test_hp_roots_n1_both_forms(p1_fixture):
    got = sorted(c.roots[0] for c in p1.p1_hp_roots(p1_fixture, 1, form="printed"))
    expect = sorted([(1 - math.sqrt(15)) / 2, (1 + math.sqrt(15)) / 2])
    assert np.allclose(got, expect, atol=1e-10)
    got = sorted(c.roots[0] for c in p1.p1_hp_roots(p1_fixture, 1, form="derived"))
    expect = sorted([(5 - math.sqrt(39)) / 2, (5 + math.sqrt(39)) / 2])
    assert np.allclose(got, expect, atol=1e-10)


def test_roots_resubstitute(p1_fixture):
    for N in (1, 2):
        for form in ("printed", "derived"):
            for c in p1.p1_ep_roots(p1_fixture, N, form=form):
                res = p1.p1_ep_equations(p1_fixture, N, np.array(c.roots), form)
                assert np.max(np.abs(res)) <= 1e-10
            for c in p1.p1_hp_roots(p1_fixture, N, form=form):
                res = p1.p1_hp_equations(p1_fixture, N, np.array(c.roots), form)
                assert np.max(np.abs(res)) <= 1e-10


def test_derived_configuration_count_matches_degeneracy(p1_fixture):
    deep = p1.P1Params(0.3, 0.2, 3.0)  # fifteen levels
    # 42 levels; at N = 16 zone-A roots crowd 0.007 apart next to th = +-1
    wide = p1.P1Params(0.5, 0.25, 5.5)
    cases = ([(p1_fixture, N) for N in range(3)]
             + [(deep, 8), (deep, 14), (wide, 16)])
    for p, N in cases:
        for solve, eqs in ((p1.p1_ep_roots, p1.p1_ep_equations),
                           (p1.p1_hp_roots, p1.p1_hp_equations)):
            confs = solve(p, N, form="derived")
            assert len(confs) == N + 1
            assert len({tuple(np.round(c.roots, 6)) for c in confs}) == N + 1
            for c in confs:
                th = np.sort(np.array(c.roots))
                assert len(th) == N and np.all(np.diff(th) > 0)
                if N:
                    assert np.max(np.abs(eqs(p, N, th, "derived"))) <= 1e-10


@pytest.mark.parametrize("solve", [p1.p1_ep_roots, p1.p1_hp_roots])
def test_derived_zone_splits_on_a_deep_well(solve):
    # the outer zone has no upper end, so every root of a derived
    # configuration is in a zone, and each split (p, N-p) occurs once
    deep = p1.P1Params(0.3, 0.2, 3.0)
    for N in (4, 8, 14):
        confs = solve(deep, N, form="derived")
        assert all(c.off_zone == 0 for c in confs), N
        assert [c.zone_counts for c in confs] == [(q, N - q) for q in range(N + 1)]


# Frozen reference: the solver before the configurations of a level were
# polished as one stack (one np.roots call and one Newton loop per
# configuration).  The production solver must return the same
# configurations, bit for bit and in the same order.

def _ref_stieltjes_polish(a, b, th):
    pa, pb = a[::-1], b[::-1]
    da, db = np.polyder(pa), np.polyder(pb)
    diag = np.eye(len(th), dtype=bool)
    best, best_r = th, math.inf
    for _ in range(7):
        gap = np.where(diag, 1.0, th[:, None] - th[None, :])
        inv = np.where(diag, 0.0, 1.0 / gap)
        av = np.polyval(pa, th)
        f = av * inv.sum(axis=1) + np.polyval(pb, th)
        r = float(np.max(np.abs(f)))
        if not r < best_r:
            break
        best, best_r = th, r
        inv2 = inv * inv
        jac = av[:, None] * inv2
        jac[diag] = (np.polyval(da, th) * inv.sum(axis=1)
                     - av * inv2.sum(axis=1) + np.polyval(db, th))
        try:
            th = th + np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            break
    return best


def _ref_stieltjes_roots(a, b, N, center=0.0):
    if N == 0:
        return [np.zeros(0)]
    a, b = sf._taylor_shift(a, center), sf._taylor_shift(b, center)
    _, vecs = np.linalg.eig(sf._stieltjes_matrix(a, b, N))
    out = []
    for v in vecs.T:
        if not np.any(v.imag):
            v = v.real
        x = np.roots(v[::-1])
        if len(x) == N:
            out.append(_ref_stieltjes_polish(a, b, x) + center)
    return out


def _same_configurations(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


DEEP = p1.P1Params(0.3, 0.2, 3.0)


@pytest.mark.parametrize("form", ["printed", "derived"])
@pytest.mark.parametrize("chart, center", [("elliptic-parabolic", 1.0),
                                           ("hyperbolic-parabolic", -1.0)])
def test_stacked_polish_matches_per_configuration_reference(chart, center, form):
    for N in range(1, 9):
        family = p1._p1_family(DEEP, N, chart, form)
        _same_configurations(sf._stieltjes_roots(*family, N, center),
                             _ref_stieltjes_roots(*family, N, center))


def test_stacked_polish_matches_reference_semi_hyperbolic(p2_deep):
    family = p2._sh_family(p2_deep, (0.0, 1.0, 0.0))
    for N in range(4):
        _same_configurations(sf._stieltjes_roots(*family, N),
                             _ref_stieltjes_roots(*family, N))


def test_polish_solves_each_newton_step_once(monkeypatch):
    # one batched solve per Newton step for all configurations (at most 7
    # per call); the reference made up to 7 per configuration
    calls = [0]
    orig = np.linalg.solve

    def counted(*args):
        calls[0] += 1
        return orig(*args)
    monkeypatch.setattr(np.linalg, "solve", counted)
    for chart, center in (("elliptic-parabolic", 1.0),
                          ("hyperbolic-parabolic", -1.0)):
        family = p1._p1_family(DEEP, 8, chart, "derived")
        calls[0] = 0
        assert len(sf._stieltjes_roots(*family, 8, center)) == 9
        assert 0 < calls[0] <= 7


def test_polish_stops_only_the_singular_configuration():
    # with a = 0 and b = x^2 the Jacobian is diag(2 theta): exactly singular
    # for the configuration with a zero at 0, regular for the others, which
    # must be polished as they are on their own
    a, b = np.zeros(1), np.array([0.0, 0.0, 1.0])
    stack = np.array([[0.0, 1.0], [1.0, 2.0], [-1.5, 3.0]])
    got = sf._stieltjes_polish(a, b, stack)
    for g, th in zip(got, stack):
        assert np.array_equal(g, _ref_stieltjes_polish(a, b, th))
    assert np.array_equal(got[0], stack[0])
    assert not np.array_equal(got[1], stack[1])


def test_solver_failure_reports_best_residual(p1_fixture):
    # an unreachable floor forces the failure path with diagnostics
    with pytest.raises(SolverFailureError) as exc:
        p1.p1_ep_roots(p1_fixture, 2, form="derived", tol=-1.0)
    assert exc.value.best_residual is not None
    assert exc.value.best_residual < 1e-10


def test_separation_constants(p1_fixture):
    r0 = p1.p1_ep_roots(p1_fixture, 0)[0]
    assert abs(p1.p1_ep_lambda(p1_fixture, r0) - (-60.0)) < 1e-10
    h0 = p1.p1_hp_roots(p1_fixture, 0)[0]
    assert abs(p1.p1_hp_tau(p1_fixture, h0) - (-38.0)) < 1e-10


def test_lambda_symmetric_in_roots(p1_fixture):
    c = p1.p1_ep_roots(p1_fixture, 2, form="derived")[1]
    swapped = p1.BetheRoots(c.chart, c.form, c.N, c.roots[::-1], c.residual,
                            c.zone_counts, c.off_zone)
    assert p1.p1_ep_lambda(p1_fixture, c) == p1.p1_ep_lambda(p1_fixture, swapped)


# ---------------------------------------------------------------------------
# Wavefunctions against the Schrodinger equation
# ---------------------------------------------------------------------------

def _h_residual(params, wf, pts, energy):
    lb = geo.laplace_beltrami()
    worst = 0.0
    for q in pts:
        psi = wf(q)
        if abs(psi) < 1e-9:
            continue
        hpsi = -0.5 * geo.apply_operator(lb, wf, q) \
            + p1.v1_ambient(params, q) * psi
        worst = max(worst, abs(hpsi - energy * psi) / abs(psi))
    return worst


def _ep_points(n, rng):
    return [geo.chart_to_ambient(geo.ChartPoint(
        "elliptic-parabolic", rng.uniform(0.4, 1.6),
        rng.uniform(0.25, 1.1) * rng.choice([-1.0, 1.0]))) for _ in range(n)]


def test_equidistant_and_horicyclic_satisfy_schrodinger(p1_fixture):
    rng = np.random.default_rng(9)
    pts = _ep_points(12, rng)
    for chart in ("equidistant", "horicyclic"):
        for N in range(3):
            nums = (p1.level_states_equidistant(p1_fixture, N)[0]
                    if chart == "equidistant" else (N, 0))
            st = p1.P1State(p1_fixture, chart, nums)
            r = _h_residual(p1_fixture, p1.wf_ambient(st), pts,
                            p1.p1_energy(p1_fixture, N))
            assert r <= 1e-6, (chart, N, r)


def test_parabolic_wavefunctions_satisfy_schrodinger(p1_fixture):
    # 50 interior points; only the re-derived zero equations produce
    # solutions of the full equation
    rng = np.random.default_rng(10)
    pts = _ep_points(50, rng)
    for N in (1, 2):
        e = p1.p1_energy(p1_fixture, N)
        for c in p1.p1_ep_roots(p1_fixture, N, form="derived"):
            st = p1.P1State(p1_fixture, "elliptic-parabolic", (N,), roots=c)
            assert _h_residual(p1_fixture, p1.wf_ambient(st), pts, e) <= 1e-6
    pts_hp = [geo.chart_to_ambient(geo.ChartPoint(
        "hyperbolic-parabolic", rng.uniform(0.4, 1.6), rng.uniform(0.3, 1.2)))
        for _ in range(50)]
    for c in p1.p1_hp_roots(p1_fixture, 1, form="derived"):
        st = p1.P1State(p1_fixture, "hyperbolic-parabolic", (1,), roots=c)
        assert _h_residual(p1_fixture, p1.wf_ambient(st), pts_hp,
                           p1.p1_energy(p1_fixture, 1)) <= 1e-6


def test_printed_roots_do_not_solve_schrodinger(p1_fixture):
    # the published zero equations are inconsistent with their parent ODE;
    # their roots give order-one defects
    rng = np.random.default_rng(11)
    pts = _ep_points(10, rng)
    c = p1.p1_ep_roots(p1_fixture, 1, form="printed")[1]
    st = p1.P1State(p1_fixture, "elliptic-parabolic", (1,), roots=c)
    assert _h_residual(p1_fixture, p1.wf_ambient(st), pts,
                       p1.p1_energy(p1_fixture, 1)) > 1e-2


def test_ep_ground_state_nodeless(p1_fixture):
    # interior of the chart; theta = 0 is the potential wall (w2 = 0) where
    # every state vanishes by its boundary exponent
    c = p1.p1_ep_roots(p1_fixture, 0)[0]
    st = p1.P1State(p1_fixture, "elliptic-parabolic", (0,), roots=c)
    a = np.linspace(0.05, 3.0, 40)
    th = np.linspace(-1.4, 1.4, 40)  # even count: skips 0
    vals = p1.p1_wf_elliptic_parabolic(st, a[:, None], th[None, :])
    assert np.all(vals > 0.0)


def test_ep_zero_count_matches_zone_label(p1_fixture):
    # zeros in the a direction = roots above 1 (count q)
    for c in p1.p1_ep_roots(p1_fixture, 2, form="derived"):
        st = p1.P1State(p1_fixture, "elliptic-parabolic", (2,), roots=c)
        a = np.linspace(1e-3, 4.0, 3000)
        vals = p1.p1_wf_elliptic_parabolic(st, a, 0.35)
        crossings = int(np.sum(np.sign(vals[:-1]) != np.sign(vals[1:])))
        assert crossings == c.zone_counts[1]


def test_parabolic_product_forms_reject_points_outside_the_chart(p1_fixture):
    # the product forms took logs of negative cosines and returned 0 (and a
    # RuntimeWarning) outside their chart; now they refuse such points
    ep = p1.P1State(p1_fixture, "elliptic-parabolic", (1,),
                    roots=p1.p1_ep_roots(p1_fixture, 1, form="derived")[0])
    hp = p1.P1State(p1_fixture, "hyperbolic-parabolic", (1,),
                    roots=p1.p1_hp_roots(p1_fixture, 1, form="derived")[0])
    with pytest.raises(OutOfDomainError):
        p1.p1_wf_elliptic_parabolic(ep, np.array([1.0, 1.0]), np.array([2.0, -0.5]))
    with pytest.raises(OutOfDomainError):
        p1.p1_wf_hyperbolic_parabolic(hp, np.array([1.0, 1.0]), np.array([0.5, -0.5]))
    inside = p1.p1_wf_elliptic_parabolic(ep, np.array([1.0]), np.array([-0.5]))
    assert np.isfinite(inside).all() and inside[0] != 0.0


def test_exp_guarded_rejects_a_nan_log_magnitude():
    with pytest.raises(NonFiniteValueError):
        p1._exp_guarded(np.array([0.0, np.nan, -800.0]), lambda v: 1.0, 0.0)


def test_morse_far_tail_is_zero_without_warnings():
    # e^{2 t2} overflows past t2 = 354; the factor there is 0, and no
    # RuntimeWarning leaks (pytest turns them into errors)
    p = p1.P1Params(1.0, 1.0 / SQRT2, 2.0 * SQRT2)
    vals = p1.morse_factor(p, 1, np.array([0.3, 1e3]))
    assert vals[1] == 0.0
    assert vals[0] == p1.morse_factor(p, 1, np.array([0.3]))[0] != 0.0


@pytest.mark.parametrize("well", [p1.P1Params(1.0, 1.0 / SQRT2, 2.0 * SQRT2),
                                  p1.P1Params(0.3, 0.2, 3.0),
                                  p1.P1Params(0.56, 0.095, 4.38),
                                  p2.P2Params(0.1, 6.0, 1.0),
                                  p2.P2Params(0.5, 12.0, 3.0)])
def test_factor_columns_equal_single_state_calls_bit_for_bit(well):
    # a column of quantum numbers against a row of points is the stack of
    # the single-state calls, far-tail points (dropped by _exp_guarded,
    # exactly 0) included
    p = well
    states = [nm for N in range(0, p.nmax + 1, max(1, p.nmax // 6))
              for nm in p1.level_states_equidistant(p, N)]
    n, m = np.array(states).T[:, :, None]
    mu = p1.p1_mu(p, m)
    if isinstance(p, p2.P2Params):
        # the complex-Jacobi factor, and the product with it, for which
        # p2_wf_equidistant is the single-state call; on |t2| <= 20 the
        # polynomial, of degree up to 7 in sinh 2 t2, stays finite
        t1, t2 = np.linspace(-40.0, 40.0, 81), np.linspace(-20.0, 20.0, 81)
        for got, ref in (
                (p2.s2_complex_factor(p, m, t2),
                 [p2.s2_complex_factor(p, int(a), t2) for a in m[:, 0]]),
                (p1._equidistant_product(p, n, m, t1, t2),
                 [p2.p2_wf_equidistant(p2.P2State(p, "equidistant", nm), t1, t2)
                  for nm in states])):
            assert got.shape == np.shape(ref)
            assert np.array_equal(got, ref)
        return
    t1 = np.concatenate([np.linspace(-400.0, 400.0, 81), [0.0, 0.05, 1e-3]])
    t2 = np.concatenate([np.linspace(-60.0, 10.0, 71), [300.0, 1e3]])
    xy = np.concatenate([np.linspace(-80.0, 80.0, 81), [1e-3, 500.0]])
    N = p.nmax
    k = np.arange(N + 1)[:, None]
    for got, ref in (
            (p1.pt_factor(p, n, mu, t1),
             [p1.pt_factor(p, int(a), float(b), t1) for a, b in zip(n[:, 0], mu[:, 0])]),
            (p1.morse_factor(p, m, t2, mu),
             [p1.morse_factor(p, int(a), t2) for a in m[:, 0]]),
            (p1.osc_x_factor(p, k, xy),
             [p1.osc_x_factor(p, int(a), xy) for a in k[:, 0]]),
            (p1.osc_y_factor(p, N, k, np.abs(xy)),
             [p1.osc_y_factor(p, N, int(a), np.abs(xy)) for a in k[:, 0]]),
            (p1._equidistant_product(p, n, m, t1[:71], t2[:71]),
             [p1.p1_wf_equidistant(p1.P1State(p, "equidistant", nm), t1[:71], t2[:71])
              for nm in states]),
            (p1._horicyclic_product(p, k, N - k, xy, np.abs(xy)),
             [p1.p1_wf_horicyclic(p1.P1State(p, "horicyclic", (a, N - a)), xy, np.abs(xy))
              for a in range(N + 1)])):
        assert got.shape == np.shape(ref)
        assert np.array_equal(got, ref)
        assert (got == 0.0).any() and (got != 0.0).any()


def test_parabolic_normalization():
    for well, N in (((1.0, 1.0 / SQRT2, 2.0 * SQRT2), 1), ((0.865, 0.19, 4.855), 1),
                    ((0.865, 0.19, 4.855), 4)):
        _check_parabolic_unit_norm(p1.P1Params(*well), N)


def _check_parabolic_unit_norm(p, N):
    # the normalized pointwise wavefunction times the chart's volume element,
    # summed on a 2-D product rule in y = sinh^2 u and x = cos^2 th
    # (elliptic) or sin^2 th (hyperbolic) with the norm's weights divided
    # out, is 1 (the tanh-sinh norm was off by up to 0.13 on the s = 87.6
    # well)
    nu, d, c = p1.p1_nu(p, N), p.d, p.c
    lg = sf.lgamma
    x, wx = sf.gauss_rule(*sf.jacobi_recurrence(nu - 1.0, d, 100), math.exp(
        lg(nu) + lg(d + 1.0) - lg(nu + d + 1.0)))
    # dth = dx / (2 sqrt(x (1-x))), over the weight
    wx = wx * np.exp(-(nu - 0.5) * np.log(x) - (d + 0.5) * np.log1p(-x)) / 2.0
    for chart, solve, a, vol in (
            ("elliptic-parabolic", p1.p1_ep_roots, d, p1.ep_volume_element),
            ("hyperbolic-parabolic", p1.p1_hp_roots, nu - 1.0, p1.hp_volume_element)):
        z, wz = sf.gauss_rule(*sf.laguerre_recurrence(a, 100), math.exp(lg(a + 1.0)))
        y = z / (2.0 * c)
        # du = dy / (2 sqrt(y (1+y))) = dz / (4 c sqrt(y (1+y))), over the weight
        wy = wz * np.exp(z - a * np.log(z)) / (4.0 * c * np.sqrt(y * (1.0 + y)))
        u = np.arcsinh(np.sqrt(y))[:, None]
        th = (np.arccos(np.sqrt(x)) if chart == "elliptic-parabolic"
              else np.arcsin(np.sqrt(x)))[None, :]
        for conf in solve(p, N, form="derived"):
            st = p1.P1State(p, chart, (N,), roots=conf)
            wf = (p1.p1_wf_elliptic_parabolic if chart == "elliptic-parabolic"
                  else p1.p1_wf_hyperbolic_parabolic)
            total = float(wy @ (wf(st, u, th) ** 2 * vol(u, th)) @ wx)
            if chart == "elliptic-parabolic":
                total *= 2.0  # theta < 0 half by evenness
            assert abs(total - 1.0) <= 1e-10, (chart, conf.zone_counts, total)


def _parabolic_log_norm_oracle(st) -> float:
    """log norm of a parabolic product form in closed form: in the squared
    variables each 1-D integral is a sum, over the coefficients of
    prod_k (r^2 - sign t_k)^2, of Tricomi U (radial) or Kummer M (angular)
    values.  The norm is a combination of products of these sums, which
    cancels: the working precision starts at 30 digits and is raised until
    it exceeds, by 20 digits, the digits lost, log10 of the largest term of
    the products over the norm."""
    mp = pytest.importorskip("mpmath")
    dps = 30
    while True:
        with mp.workdps(dps):
            total, largest = _parabolic_norm_sums(mp, st)
            lost = float(mp.log10(largest / abs(total))) if total else math.inf
            if dps >= lost + 20.0:
                return float(mp.log(total) / 2)
            dps = math.ceil(lost) + 30


def _parabolic_norm_sums(mp, st):
    """The norm of ``_parabolic_log_norm_oracle`` at mpmath's working
    precision, and the largest term of its products of sums."""
    p, N = st.params, st.N
    d = mp.sqrt(2 * mp.mpf(p.alpha) ** 2 + mp.mpf(1) / 4)
    c = mp.mpf(p.beta) / mp.sqrt(2)
    nu = mp.mpf(p.gamma) ** 2 / (2 * c) - d - 2 * N - 2
    ep = st.chart == "elliptic-parabolic"

    def coeffs(sign):
        out = [mp.mpf(1)]
        for t in st.roots.roots:
            for _ in range(2):
                out = [u - sign * t * v for u, v in zip([0] + out, out + [0])]
        return list(enumerate(out))

    rad, ang = [], []  # the terms of each sum
    for k in (0, 1):  # the integral, and the one over r^2
        if ep:  # y^d (1+y)^{nu-k} e^{-2c(1+y)} prod (1+y-t)^2
            rad.append([mp.exp(-2 * c) * mp.gamma(d + 1) * cj
                        * mp.hyperu(d + 1, d + nu - k + j + 2, 2 * c)
                        for j, cj in coeffs(1)])
        else:  # y^{nu-k} (1+y)^d e^{-2cy} prod (y-t)^2
            rad.append([cj * mp.gamma(nu - k + j + 1)
                        * mp.hyperu(nu - k + j + 1, nu - k + j + d + 2, 2 * c)
                        for j, cj in coeffs(1)])
        s = 1 if ep else -1  # x^{nu-k} (1-x)^d e^{-2scx} prod (x-st)^2
        ang.append([cj * mp.beta(nu - k + j + 1, d + 1)
                    * mp.hyp1f1(nu - k + j + 1, nu - k + j + d + 2, -2 * s * c)
                    for j, cj in coeffs(s)])
    (r0, r1), (a0, a1) = ([mp.fsum(v) for v in x] for x in (rad, ang))
    top = [max(map(abs, v)) for v in (*rad, *ang)]
    scale = mp.mpf(2 if ep else 1) / 4
    total = scale * (r0 * a1 - r1 * a0 if ep else r0 * a1 + r1 * a0)
    return total, scale * max(top[0] * top[3], top[1] * top[2])


def _check_parabolic_log_norms(p, levels, tol):
    # the log norm from the level projection against the closed form of the
    # separated integrals: both charts, the first and last configuration of
    # each level
    for N in levels:
        for chart, solve in (("elliptic-parabolic", p1.p1_ep_roots),
                             ("hyperbolic-parabolic", p1.p1_hp_roots)):
            confs = solve(p, N, form="derived")
            for conf in {confs[0], confs[-1]}:
                st = p1.P1State(p, chart, (N,), roots=conf)
                want = _parabolic_log_norm_oracle(st)
                got = p1._parabolic_projection(st)[0]
                assert abs(got - want) <= tol, (chart, N, conf.zone_counts)


@pytest.mark.parametrize("params,levels", [
    ((1.0, 1.0 / SQRT2, 2.0 * SQRT2), (1, 2)),
    ((0.3, 0.2, 3.0), (1, 4, 8, 14)),
    ((0.865, 0.19, 4.855), (4, 8)),
])
def test_parabolic_norm_separates(params, levels):
    # measured: at most 1.1e-13; the four separated 1-D integrals on N + 60
    # nodes were off by 1.2e-8 at deep N = 14, the tanh-sinh sums by 0.16
    _check_parabolic_log_norms(p1.P1Params(*params), levels, 1e-12)


def test_parabolic_norm_on_a_wide_well():
    # s = 229: log_norm is about 792, whose ulp is 1.1e-13; the bound is 32
    # of them.  Measured: at most 2.2e-12, the level's own Gram defect
    # (2.0e-12 at N = 1); the separated integrals were off by 0.33 at N = 1
    # and 0.23 at N = 5
    p = p1.P1Params(0.8021189901441927, 0.055414650975510134, 4.235214784107855)
    assert p.s > 228.0
    _check_parabolic_log_norms(p, (1, 5), 32 * math.ulp(792.0))


def test_parabolic_norm_at_a_high_level_of_a_wide_well():
    # wide well, N = 30: the closed form's sums of the hyperbolic (24, 6)
    # configuration cancel past 60 digits (at 60 its norm came out
    # negative); at the oracle's own precision the two agree to 5.7e-14
    p = p1.P1Params(0.56, 0.095, 4.38)
    conf, = (c for c in p1.p1_hp_roots(p, 30, form="derived")
             if c.zone_counts == (24, 6))
    st = p1.P1State(p, "hyperbolic-parabolic", (30,), roots=conf)
    assert abs(p1._parabolic_projection(st)[0]
               - _parabolic_log_norm_oracle(st)) <= 1e-12
