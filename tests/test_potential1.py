import math

import numpy as np
import pytest

from hypersint import geometry as geo
from hypersint import potential1 as p1
from hypersint import potential2 as p2
from hypersint import specfun as sf
from hypersint.errors import (
    NoBoundStateError,
    OutOfWindowError,
    SingularConfigurationError,
    SolverFailureError,
)

SQRT2 = math.sqrt(2.0)
HALFLINE = sf.QuadratureSpec("tanh-sinh", 8, 0.0, math.inf, "exp-map")
MORSE_DOMAIN = sf.QuadratureSpec("tanh-sinh", 8, -25.0, 5.0)


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
            v, _ = sf.integrate(lambda t: p1.pt_factor(p, n, mu, t) ** 2,
                                HALFLINE)
            assert abs(v - 1.0) <= 1e-9
            v, _ = sf.integrate(lambda t: p1.morse_factor(p, m, t, mu) ** 2,
                                MORSE_DOMAIN)
            assert abs(v - 1.0) <= 1e-9
    for n1 in range(3):
        v, _ = sf.integrate(lambda x: p1.osc_x_factor(p, n1, x) ** 2, HALFLINE)
        assert abs(v - 0.5) <= 1e-9  # even function: full-line norm is 1
    v, _ = sf.integrate(lambda y: p1.osc_y_factor(p, 2, 1, y) ** 2, HALFLINE)
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
    states = []
    for N in range(3):
        states += p1.level_states_equidistant(p, N)
    for i, (ni, mi) in enumerate(states):
        for (nj, mj) in states[i:]:
            mui, muj = p1.p1_mu(p, mi), p1.p1_mu(p, mj)
            va, _ = sf.integrate(
                lambda t: p1.pt_factor(p, ni, mui, t)
                * p1.pt_factor(p, nj, muj, t), HALFLINE)
            vb, _ = sf.integrate(
                lambda t: p1.morse_factor(p, mi, t, mui)
                * p1.morse_factor(p, mj, t, muj), MORSE_DOMAIN)
            expect = 1.0 if (ni, mi) == (nj, mj) else 0.0
            assert abs(va * vb - expect) <= 1e-7


def test_horicyclic_product_norm(p1_fixture):
    # unit norm in L^2(dx dy / y^2) over the half-chart x > 0
    p = p1_fixture
    st = p1.P1State(p, "horicyclic", (1, 1))
    vx, _ = sf.integrate(lambda x: p1.osc_x_factor(p, 1, x) ** 2, HALFLINE)
    # stable at the deep quadrature nodes where y**2 would underflow
    vy, _ = sf.integrate(
        lambda y: (p1.osc_y_factor(p, 2, 1, y) / np.maximum(y, 1e-150)) ** 2,
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

def _h_residual(params, wf, pts, energy, h=1e-3):
    lb = geo.laplace_beltrami()
    worst = 0.0
    for q in pts:
        psi = wf(q)
        if abs(psi) < 1e-9:
            continue
        hpsi = -0.5 * geo.apply_operator(lb, wf, q, h=h) \
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


def test_parabolic_normalization(p1_fixture):
    c = p1.p1_ep_roots(p1_fixture, 1, form="derived")[0]
    st = p1.P1State(p1_fixture, "elliptic-parabolic", (1,), roots=c)
    xg, wg, dg = sf.tanh_sinh_nodes(7)
    keep = dg > 1e-14
    xg, wg = xg[keep], wg[keep]
    u = 3.0 * (xg + 1.0)
    wu = 3.0 * wg
    v = math.pi / 4.0 * (xg + 1.0)
    wv = math.pi / 4.0 * wg
    vals = p1.p1_wf_elliptic_parabolic(st, u[:, None], v[None, :]) ** 2 \
        * p1.ep_volume_element(u[:, None], v[None, :])
    total = 2.0 * float(np.einsum("i,j,ij->", wu, wv, vals))
    assert abs(total - 1.0) <= 1e-8


def _grid_log_norm(state):
    """log norm of the raw product form as a 2-D tanh-sinh sum on the
    meshgrid of the nodes that _parabolic_log_norm uses."""
    p = state.params
    ep = state.chart == "elliptic-parabolic"
    raw, vol = ((p1._ep_raw, p1.ep_volume_element) if ep
                else (p1._hp_raw, p1.hp_volume_element))
    xg, wg, dg = sf.tanh_sinh_nodes(7)
    xg, wg = xg[dg > 1e-14], wg[dg > 1e-14]
    L = max(6.0, math.sqrt(40.0 / p.c))
    U, V = np.meshgrid(0.5 * L * (xg + 1.0), 0.25 * math.pi * (xg + 1.0),
                       indexing="ij")
    vals = raw(p, state.roots, U, V) ** 2 * vol(U, V)
    total = float(np.einsum("i,j,ij->", 0.5 * L * wg, 0.25 * math.pi * wg, vals))
    return 0.5 * math.log(2.0 * total if ep else total)


@pytest.mark.parametrize("params,levels", [
    ((1.0, 1.0 / SQRT2, 2.0 * SQRT2), (0, 1, 2)),
    ((0.3, 0.2, 3.0), (1, 2, 3)),
])
def test_parabolic_norm_separates(params, levels):
    # four 1-D sums give the 2-D grid value of the norm
    p = p1.P1Params(*params)
    for N in levels:
        for chart, solve in (("elliptic-parabolic", p1.p1_ep_roots),
                             ("hyperbolic-parabolic", p1.p1_hp_roots)):
            for conf in solve(p, N, form="derived"):
                st = p1.P1State(p, chart, (N,), roots=conf)
                got, ref = p1._parabolic_log_norm(st), _grid_log_norm(st)
                # relative 1e-13 in the norm itself
                assert abs(got - ref) <= 1e-13, (chart, N, got, ref)
