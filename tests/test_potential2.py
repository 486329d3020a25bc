import cmath
import math

import numpy as np
import pytest

from hypersint import geometry as geo
from hypersint import potential1 as p1
from hypersint import potential2 as p2
from hypersint.errors import (
    NoBoundStateError,
    OutOfDomainError,
    OutOfWindowError,
    SingularConfigurationError,
    SolverFailureError,
)

SQRT2 = math.sqrt(2.0)
CP0 = p2.DEFAULT_SH_PARAMS           # e1 = conj(e2) = i, e3 = 0
CP1 = (0.3, 1.0, 0.15)               # generic foci: discriminates conventions


def _quad(f, points) -> float:
    """mpmath's adaptive quadrature of a float function of the package."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(15):
        return float(mp.quad(lambda t: float(f(float(t))), points))


# ---------------------------------------------------------------------------
# Parameters and spectrum
# ---------------------------------------------------------------------------

def test_branch_invariants(p2_fixture):
    p = p2_fixture
    assert abs(p.a**2 - (p.B - 1j * p.gamma**2) / 4.0) <= 1e-13
    assert p.a.real < 0.0
    assert p.k1 == p.a and p.k2 == p.a.conjugate()
    assert abs(2.0 * p.k1.real + p.M) <= 1e-12
    assert abs(p.k3 - p.d) == 0.0


def test_branch_invariants_random_triples():
    rng = np.random.default_rng(23)
    for _ in range(50):
        p = p2.P2Params(rng.uniform(0.05, 2.0), rng.uniform(0.5, 6.0),
                        rng.uniform(0.3, 3.0))
        assert abs(p.a**2 - (p.B - 1j * p.gamma**2) / 4.0) <= 1e-13 * abs(p.a)**2
        assert p.k1 == p.a and abs(2.0 * p.k1.real + p.M) <= 1e-12


def test_fixture_numbers(p2_fixture):
    p = p2_fixture
    assert abs(p.M - 4.35811457) < 1e-7   # hand evaluation of the nested root
    assert abs(p2.p2_mu(p, 0) - (p.M - 1.0)) == 0.0
    assert abs(p2.p2_mu(p, 0) - 3.3581146) < 1e-6
    assert abs(p2.p2_energy(p, 0) - (-1.5650399)) < 1e-6
    assert p.nmax == 0
    with pytest.raises(NoBoundStateError):
        p2.p2_energy(p, 1)


def test_mu_definition_vs_complex_route(p2_fixture):
    # mu = -2m - 1 - (a + conj a) since 2 Re a = -M
    p = p2_fixture
    for m in range(p.m_max + 1):
        mu = p2.p2_mu(p, m)
        assert abs(mu - (-2 * m - 1 - (p.a + p.a.conjugate()).real)) <= 1e-12


#: M == 5.0 exactly: the closed bracket of the m window admitted mu = 0 at m = 2
M5 = (0.5, math.sqrt(12.17), 2.0)
#: every v2 well of the tests, and M5
V2_WELLS = [(0.1, 3.0, 1.0), (0.1, 6.0, 1.0), (0.3, 8.0, 2.0), (0.5, 12.0, 3.0),
            (0.1, 3.0, 1.5), M5]


def test_the_m_window_is_open():
    p = p2.P2Params(*M5)
    assert p.M == 5.0 and p.m_max == 1
    with pytest.raises(OutOfWindowError):
        p2.p2_mu(p, 2)
    with pytest.raises(OutOfWindowError):
        p2.s2_complex_factor(p, 2, 0.3)
    spec = p2.p2_spectrum(p)
    assert [lev["degeneracy"] for lev in spec] == [1, 2]


@pytest.mark.parametrize("well", V2_WELLS)
def test_log_gamma_arguments_lie_right_of_one_half(well):
    # the complex log-gamma arguments -m - a (s2_complex_factor, m <= m_max)
    # and -a (p2.s2_rule) have Re = M/2 - m > 1/2: the open window
    p = p2.P2Params(*well)
    assert p.m_max >= 0
    assert all((-m - p.a).real > 0.5 for m in range(p.m_max + 1))
    assert (-p.a).real > 0.5


def test_energy_branch_consistency():
    rng = np.random.default_rng(24)
    for _ in range(50):
        p = p2.P2Params(rng.uniform(0.05, 2.0), rng.uniform(0.5, 6.0),
                        rng.uniform(0.3, 3.0))
        if p.nmax is None:
            continue
        for N in range(min(p.nmax, 2) + 1):
            assert abs(p2.p2_energy(p, N)
                       - p2.p2_energy_semihyperbolic(p, N)) <= 1e-12


# ---------------------------------------------------------------------------
# Potential forms
# ---------------------------------------------------------------------------

def test_v2_singular_at_wall(p2_fixture):
    with pytest.raises(SingularConfigurationError):
        p2.v2_ambient(p2_fixture, geo.AmbientPoint(1.0, 0.0, 0.0))


def test_v2_ambient_vs_chart_form(p2_fixture):
    rng = np.random.default_rng(25)
    worst_fixed, worst_printed = 0.0, 0.0
    for _ in range(100):
        t1, t2 = rng.uniform(0.2, 2.0), rng.uniform(-2.0, 2.0)
        q = geo.chart_to_ambient(geo.ChartPoint("equidistant", t1, t2))
        va = p2.v2_ambient(p2_fixture, q)
        worst_fixed = max(worst_fixed, abs(
            va - float(p2.v2_equidistant(p2_fixture, t1, t2))) / max(1, abs(va)))
        worst_printed = max(worst_printed, abs(
            va - float(p2.v2_equidistant(p2_fixture, t1, t2,
                                         sign_corrected=False))) / max(1, abs(va)))
    assert worst_fixed <= 1e-12
    # the published display's alpha^2 sign disagrees with the ambient form
    assert worst_printed > 1e-2


# ---------------------------------------------------------------------------
# Equidistant wavefunction
# ---------------------------------------------------------------------------

def test_s_factor_real_and_normalized(p2_fixture):
    p = p2_fixture
    t2 = np.linspace(-4.0, 4.0, 81)
    s = p2.s2_complex_factor(p, 0, t2)
    assert np.max(np.abs(s.imag)) <= 1e-10 * np.max(np.abs(s.real))
    assert s[40].real > 0.0  # phase convention: real positive at t2 = 0
    v = _quad(lambda t: abs(p2.s2_complex_factor(p, 0, t)) ** 2,
              (-8.0, -2.0, -1.0, 0.0, 1.0, 2.0, 8.0))
    assert abs(v - 1.0) <= 1e-8


def test_s_factor_m0_structure(p2_fixture):
    # m = 0: conjugate pair of branch powers, manifestly positive
    s = p2.s2_complex_factor(p2_fixture, 0, np.linspace(-3, 3, 41))
    assert np.all(s.real > 0.0)


def test_z_factor_normalized(p2_fixture):
    p = p2_fixture
    mu0 = p2.p2_mu(p, 0)
    v = _quad(lambda t: p2.z_pt_factor(p, 0, mu0, t) ** 2,
              (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0))
    assert abs(v - 1.0) <= 1e-9


@pytest.mark.parametrize("well", [(0.1, 3.0, 1.0), (0.1, 6.0, 1.0),
                                  (0.3, 8.0, 2.0), (0.5, 12.0, 3.0)])
def test_equidistant_gram_of_every_state(well):
    # Poschl-Teller (Gauss-Jacobi) times S_m (Romanovski) Gram of all the
    # equidistant states of all levels (1 to 36 states; measured at most
    # 1.4e-14); (0.1, 6, 1) reaches nu = 0.023 at its top level
    p = p2.P2Params(*well)
    n, m = np.array([(st["n"], st["m"]) for lev in p2.p2_spectrum(p)
                     for st in lev["states"]], dtype=float).T
    gram = p1.EquidistantBasis(p, n, m).gram
    assert np.max(np.abs(gram - np.eye(len(n)))) <= 1e-12


@pytest.mark.parametrize("well", [(0.1, 6.0, 1.0), (0.3, 8.0, 2.0),
                                  (0.5, 12.0, 3.0)])
def test_level_rule_stacks_the_complex_jacobi_states(well):
    # a level's tensor rule is Poschl-Teller x Romanovski: the Gram matrix
    # of its stacked states at the nodes is I at every level (measured at
    # most 9.8e-15, 4.0e-15, 1.5e-14), and at the rule's ambient points the
    # stack is each state's own wavefunction, bit for bit
    p = p2.P2Params(*well)
    for N in range(p.nmax + 1):
        basis = p1.EquidistantBasis.level(p, N)
        pts, values = basis.points, basis.values
        gram = (values * basis.weight) @ values.T
        assert np.max(np.abs(gram - np.eye(N + 1))) <= 1e-13, N
        t1, t2 = geo.chart_coordinates(pts, "equidistant")
        for row, nm in zip(basis(pts), p1.level_states_equidistant(p, N)):
            st = p2.P2State(p, "equidistant", nm)
            assert np.array_equal(row, p2.p2_wf_equidistant(st, t1, t2)), nm


def test_equidistant_wavefunction_realness(p2_fixture):
    st = p2.P2State(p2_fixture, "equidistant", (0, 0))
    t1 = np.linspace(0.1, 2.0, 20)
    for t2 in (-1.3, 0.0, 0.7):
        vals = p2.p2_wf_equidistant(st, t1, t2)
        assert np.max(np.abs(vals.imag)) <= 1e-10 * np.max(np.abs(vals.real))


def test_equidistant_satisfies_schrodinger(p2_fixture):
    p = p2_fixture
    wf = p2.wf_ambient(p2.P2State(p, "equidistant", (0, 0)))
    lb = geo.laplace_beltrami()
    rng = np.random.default_rng(26)
    e0 = p2.p2_energy(p, 0)
    for _ in range(10):
        q = geo.chart_to_ambient(geo.ChartPoint(
            "equidistant", rng.uniform(0.3, 1.2), rng.uniform(-0.8, 0.8)))
        psi = wf(q)
        hpsi = -0.5 * geo.apply_operator(lb, wf, q) \
            + p2.v2_ambient(p, q) * psi
        assert abs(hpsi - e0 * psi) / abs(psi) <= 1e-6


# ---------------------------------------------------------------------------
# Semi-hyperbolic system
# ---------------------------------------------------------------------------

def test_sh_roots_n0(p2_deep):
    confs = p2.p2_sh_roots(p2_deep, 0, CP0)
    assert len(confs) == 1 and confs[0].roots == ()


def test_sh_roots_n1_match_quadratic_oracle(p2_deep):
    p = p2_deep
    for cp in (CP0, CP1):
        e1 = complex(cp[0], cp[1])
        e2, e3 = e1.conjugate(), cp[2]
        A = (p.k1 + 1) + (p.k2 + 1) + (p.k3 + 1)
        B = -((p.k1 + 1) * (e2 + e3) + (p.k2 + 1) * (e1 + e3)
              + (p.k3 + 1) * (e1 + e2))
        C = (p.k1 + 1) * e2 * e3 + (p.k2 + 1) * e1 * e3 + (p.k3 + 1) * e1 * e2
        disc = cmath.sqrt(B * B - 4 * A * C)
        expect = sorted(((-B + disc) / (2 * A), (-B - disc) / (2 * A)),
                        key=lambda z: z.real)
        got = sorted((c.roots[0] for c in p2.p2_sh_roots(p, 1, cp)),
                     key=lambda z: z.real)
        assert len(got) == 2
        for g, e in zip(got, expect):
            assert abs(g - e) <= 1e-10


def test_sh_roots_resubstitute_and_conjugate_closed(p2_deep):
    for N in (1, 2, 3):
        confs = p2.p2_sh_roots(p2_deep, N, CP0)
        assert len(confs) == N + 1  # matches the level degeneracy
        for c in confs:
            res = p2.p2_sh_equations(p2_deep, np.array(c.roots), CP0)
            assert np.max(np.abs(res)) <= 1e-10
            roots = np.array(c.roots)
            conj = np.sort_complex(roots.conjugate())
            assert np.max(np.abs(np.sort_complex(roots) - conj)) <= 1e-8


def _sh_equations_reference(p, theta, chart_params):
    # the per-root double loop that one cumulative sum replaced
    e1 = complex(chart_params[0], chart_params[1])
    es = (e1, e1.conjugate(), chart_params[2])
    theta = np.asarray(theta, dtype=complex)
    out = np.zeros(len(theta), dtype=complex)
    for i in range(len(theta)):
        v = 0.0 + 0.0j
        for k, e in zip((p.k1, p.k2, p.k3), es):
            v += (k + 1.0) / (theta[i] - e)
        for j in range(len(theta)):
            if j != i:
                v += 2.0 / (theta[i] - theta[j])
        out[i] = v
    return out


def test_sh_equations_equal_the_per_root_loop_bit_for_bit(p2_deep):
    cases = [(np.array(c.roots), cp) for cp in (CP0, CP1) for N in (1, 2, 3)
             for c in p2.p2_sh_roots(p2_deep, N, cp)]
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(0, 7))
        cases.append((rng.normal(size=n) + 1j * rng.normal(size=n),
                      (CP0, CP1)[int(rng.integers(0, 2))]))
    for theta, cp in cases:
        got = p2.p2_sh_equations(p2_deep, theta, cp)
        assert got.shape == theta.shape
        assert np.array_equal(got, _sh_equations_reference(p2_deep, theta, cp))
    # a (configs, N) stack, as p2_sh_roots passes it: each row equals its
    # 1-D call bit for bit, also with no rows and with N = 0
    for n in (0, 1, 2, 5):
        for cp in (CP0, CP1):
            rows = [theta for theta, c in cases if len(theta) == n and c == cp]
            stack = np.reshape(rows, (len(rows), n))
            got = p2.p2_sh_equations(p2_deep, stack, cp)
            assert got.shape == stack.shape and len(rows) > 0
            assert np.array_equal(got, [p2.p2_sh_equations(p2_deep, th, cp)
                                        for th in rows])
            assert p2.p2_sh_equations(p2_deep, stack[:0], cp).shape == (0, n)


def test_sh_solver_failure():
    with pytest.raises(SolverFailureError) as exc:
        p2.p2_sh_roots(p2.P2Params(0.1, 6.0, 1.0), 1, CP0, tol=-1.0)
    assert exc.value.best_residual is not None


def test_sh_lambda_three_routes(p2_deep):
    # closed form == ODE probe == (later, in algebra tests) measured operator;
    # the published display differs by a root-independent constant and its
    # printed middle coefficient makes lambda complex for generic foci
    p = p2_deep
    for cp in (CP0, CP1):
        offsets = []
        for N in (0, 1):
            for c in p2.p2_sh_roots(p, N, cp):
                lam_closed = p2.p2_sh_lambda_closed(p, c, N, cp)
                lam_ode = p2.p2_sh_lambda_from_ode(p, c, N, cp)
                assert abs(lam_closed - lam_ode) <= 1e-8 * max(1, abs(lam_ode))
                assert abs(lam_closed.imag) <= 1e-9 * max(1, abs(lam_closed))
                lam_sym = p2.p2_sh_lambda(p, c, cp, variant="symmetric")
                assert abs(lam_sym.imag) <= 1e-9 * max(1, abs(lam_sym))
                offsets.append(lam_sym - lam_closed)
        assert np.max(np.abs(np.diff(offsets))) <= 1e-8  # constant per foci
    c = p2.p2_sh_roots(p, 1, CP1)[0]
    lam_printed = p2.p2_sh_lambda(p, c, CP1, variant="printed")
    assert abs(lam_printed.imag) > 1e-2  # missing factor 4 breaks realness


def test_sh_lambda_root_permutation_invariance(p2_deep):
    c = p2.p2_sh_roots(p2_deep, 2, CP0)[0]
    flipped = p2.BetheRoots(c.chart, c.form, c.N, c.roots[::-1], c.residual,
                            c.zone_counts)
    assert p2.p2_sh_lambda(p2_deep, c, CP0) == p2.p2_sh_lambda(
        p2_deep, flipped, CP0)


def test_sh_factor_identity(p2_deep):
    # partial-fraction bracket == sphere-side sum == rational (mu,nu) form
    rng = np.random.default_rng(27)
    e1 = complex(CP0[0], CP0[1])
    for _ in range(50):
        mu_, nu_ = rng.uniform(0.1, 3.0), -rng.uniform(0.1, 3.0)
        q = geo.chart_to_ambient(geo.ChartPoint("semi-hyperbolic", mu_, nu_, CP0))
        th = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        s1 = complex(q.w0, q.w1) / SQRT2
        lhs = (s1**2 / (th - e1)
               + s1.conjugate() ** 2 / (th - e1.conjugate())
               + (1j * q.w2) ** 2 / (th - CP0[2]))
        assert abs(lhs - p2.sh_bracket(th, q, CP0)) <= 1e-10
        rational = (mu_ - th) * (nu_ - th) / (
            (th - e1) * (th - e1.conjugate()) * (th - CP0[2]))
        assert abs(lhs - rational) <= 1e-10


def test_sh_ground_state_nodeless(p2_deep):
    c = p2.p2_sh_roots(p2_deep, 0, CP0)[0]
    st = p2.P2State(p2_deep, "semi-hyperbolic", (0,), roots=c, chart_params=CP0)
    rng = np.random.default_rng(28)
    for _ in range(60):
        q = geo.chart_to_ambient(geo.ChartPoint(
            "semi-hyperbolic", rng.uniform(0.05, 3.0), -rng.uniform(0.05, 3.0),
            CP0))
        assert p2.p2_wf_semihyperbolic(st, q).real > 0.0


def test_sh_wavefunction_schrodinger_and_realness(p2_deep):
    p = p2_deep
    lb = geo.laplace_beltrami()
    rng = np.random.default_rng(29)
    pts = [geo.chart_to_ambient(geo.ChartPoint(
        "semi-hyperbolic", rng.uniform(0.3, 2.5), -rng.uniform(0.3, 2.5), CP0))
        for _ in range(10)]
    for N in (0, 1, 2):
        e = p2.p2_energy(p, N)
        for c in p2.p2_sh_roots(p, N, CP0)[:2]:
            st = p2.P2State(p, "semi-hyperbolic", (N,), roots=c,
                            chart_params=CP0)

            def wf(q, st=st):
                return p2.p2_wf_semihyperbolic(st, q)
            for q in pts:
                psi = wf(q)
                assert abs(psi.imag) <= 1e-8 * abs(psi.real)
                hpsi = -0.5 * geo.apply_operator(lb, wf, q) \
                    + p2.v2_ambient(p, q) * psi
                assert abs(hpsi - e * psi) / abs(psi) <= 1e-6


def test_spectrum_record(p2_fixture):
    spec = p2.p2_spectrum(p2_fixture)
    assert len(spec) == 1
    assert spec[0]["degeneracy"] == 1
    assert abs(spec[0]["E"] + 1.5650399) < 1e-6


def test_derived_constants_computed_once_per_instance():
    p, q = p2.P2Params(0.1, 3.0, 1.0), p2.P2Params(0.1, 3.0, 1.0)
    names = ("B", "M", "a", "d", "nmax", "m_max")
    first = [getattr(p, k) for k in names]
    assert set(names) <= set(vars(p))      # stored on first use
    assert [getattr(p, k) for k in names] == first
    # the same bits as the defining formulas
    B = 2.0 * p.beta**2 - 2.0 * p.alpha**2 + 1.0
    f = math.hypot(B, p.gamma**2)
    assert (p.B, p.M, p.d) == (B, math.sqrt((B + f) / 2.0),
                               math.sqrt(2.0 * p.alpha**2 + 0.25))
    assert p.a == complex(-math.sqrt(f + B) / (2.0 * math.sqrt(2.0)),
                          math.sqrt(f - B) / (2.0 * math.sqrt(2.0)))
    # equality and hashing see the three fields only
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    assert p != p2.P2Params(0.1, 3.0, 1.5)
    with pytest.raises(AttributeError):
        p.alpha = 0.2


def test_both_potentials_share_one_state_type_and_state_their_charts_once():
    assert p2.P2State is p1.P1State
    assert p1.P1Params.charts == ("equidistant", "horicyclic",
                                  "elliptic-parabolic", "hyperbolic-parabolic")
    assert p2.P2Params.charts == ("equidistant", "semi-hyperbolic")
    # a class constant, not a field: equality, hashing and repr are unchanged
    for kind in (p1.P1Params, p2.P2Params):
        assert [f for f in kind.__dataclass_fields__] == ["alpha", "beta", "gamma"]


@pytest.mark.parametrize("params, chart", [
    (p2.P2Params(0.1, 6.0, 1.0), "horicyclic"),
    (p2.P2Params(0.1, 6.0, 1.0), "elliptic-parabolic"),
    (p1.P1Params(0.3, 0.2, 3.0), "semi-hyperbolic")])
def test_a_state_refuses_a_chart_its_potential_does_not_separate_in(params, chart):
    # every other requirement of the chart is met, so only the chart is refused
    roots = p1.BetheRoots(chart, "derived", 1, (0.5,), 0.0, (1, 0))
    numbers = (0, 1) if chart == "horicyclic" else (1,)
    with pytest.raises(OutOfDomainError, match="is not separable for"):
        p1.P1State(params, chart, numbers, roots=roots, chart_params=CP0)


def test_a_semi_hyperbolic_state_needs_its_chart_params(p2_deep):
    conf = p2.p2_sh_roots(p2_deep, 1, CP0)[0]
    assert p2.P2State(p2_deep, "semi-hyperbolic", (1,), roots=conf,
                      chart_params=CP0).N == 1
    with pytest.raises(OutOfDomainError, match="chart_params"):
        p2.P2State(p2_deep, "semi-hyperbolic", (1,), roots=conf)
    with pytest.raises(OutOfDomainError, match="solved roots"):
        p2.P2State(p2_deep, "semi-hyperbolic", (1,), chart_params=CP0)


@pytest.mark.parametrize("chart", ["equidistant", "horicyclic"])
def test_a_basis_state_needs_two_quantum_numbers(p2_deep, chart):
    # --quantum is read as is: a wrong count is refused, not unpacked
    params = p1.P1Params(0.3, 0.2, 3.0) if chart == "horicyclic" else p2_deep
    with pytest.raises(OutOfDomainError, match="two quantum numbers"):
        p1.P1State(params, chart, (1, 0, 0))
