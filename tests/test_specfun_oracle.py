"""specfun against mpmath as an independent high-precision oracle.

mpmath is a test-only dependency; the module is skipped without it.  Every
bound below is four times the worst error measured on its inputs.
Polynomial and hypergeometric errors are scaled by S = sum|t_k|, the sum of
the moduli of the series terms.  S is the conditioning of the sum itself,
so the bound tests the evaluation and not the known cancellation (see the
interbasis ``cancellation`` ratio).
"""

import math

import numpy as np
import pytest

from hypersint import potential1 as p1
from hypersint import potential2 as p2
from hypersint import specfun as sf
from hypersint.errors import NonConvergenceError

mp = pytest.importorskip("mpmath")

EPS = 2.0 ** -52
FIXTURE = p1.P1Params(1.0, 1.0 / math.sqrt(2.0), 2.0 * math.sqrt(2.0))
DEEP = p1.P1Params(0.3, 0.2, 3.0)


@pytest.fixture(autouse=True)
def _precision():
    with mp.workdps(40):
        yield


def _lg_error(z) -> float:
    ref = complex(mp.loggamma(mp.mpmathify(z)))
    return abs(sf.log_gamma(z) - ref) / max(1.0, abs(ref))


def test_log_gamma_positive_real():
    # relative error (absolute near the zeros at 1 and 2); measured 1.8e-15
    rng = np.random.default_rng(11)
    xs = np.concatenate([rng.uniform(1e-3, 2.0, 150), rng.uniform(2.0, 300.0, 150),
                         np.arange(1.0, 31.0) + 0.5, np.arange(1.0, 31.0)])
    assert max(_lg_error(float(x)) for x in xs) <= 7e-15


def test_log_gamma_reflected_negative_real():
    # principal branch: imaginary part -k pi on (-k, -k+1).  Measured
    # 7.5e-16 at least 0.01 from the poles
    rng = np.random.default_rng(12)
    xs = [x for x in -rng.uniform(0.0, 30.0, 300) if abs(x - round(x)) >= 0.01]
    assert len(xs) > 250
    assert max(_lg_error(float(x)) for x in xs) <= 3e-15


@pytest.mark.parametrize("dist", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_log_gamma_next_to_the_poles(dist):
    # x = -k +- dist for k = 0..30: sin(pi x) is formed from the exactly
    # reduced x - round(x), so the error no longer grows like eps |x| / dist
    # (forming it from the rounded product pi x gave 6.6e-14 at dist 1e-3
    # and 6.2e-9 at dist 1e-8).  Measured at most 2.9e-16 at every distance
    rng = np.random.default_rng(15)
    xs = [-k + s * dist * rng.uniform(0.5, 1.0)
          for k in range(31) for s in (1.0, -1.0)]
    assert max(_lg_error(x) for x in xs if x < 0.5) <= 1.2e-15


def test_log_gamma_complex():
    # both half-planes (Lanczos and reflection), and the arguments -m - a
    # of potential2's normalizations; measured 2.7e-15
    rng = np.random.default_rng(13)
    zs = [complex(a, b) for a, b in zip(rng.uniform(-25.0, 60.0, 300),
                                        rng.uniform(-40.0, 40.0, 300))]
    for pars in ((0.1, 3.0, 1.0), (0.1, 6.0, 1.0)):
        a = p2.P2Params(*pars).a
        zs += [-m - a for m in range(9)] + [m + 1.0 + a for m in range(9)]
    assert max(_lg_error(z) for z in zs) <= 1.1e-14


def _jacobi_oracle(n, a, b, x):
    """P_n^{(a,b)}(x) from mpmath, and S of its (a+1)_n/n! 2F1 series."""
    a, b, x = mp.mpmathify(a), mp.mpmathify(b), mp.mpmathify(x)
    z = (1 - x) / 2
    pref = mp.rf(a + 1, n) / mp.factorial(n)
    mass = mp.fsum(abs(pref * mp.rf(-n, k) * mp.rf(n + a + b + 1, k)
                       / (mp.rf(a + 1, k) * mp.factorial(k)) * z ** k)
                   for k in range(n + 1))
    return complex(mp.jacobi(n, a, b, x)), float(mass)


def _jacobi_worst(n, a, b, xs) -> float:
    """max |P - P_ref| / ((n + 1) eps S) over the points."""
    got = np.atleast_1d(sf.jacobi(n, a, b, np.asarray(xs)))
    worst = 0.0
    for g, x in zip(got, xs):
        ref, mass = _jacobi_oracle(n, a, b, x)
        worst = max(worst, abs(g - ref) / ((n + 1) * EPS * mass))
    return worst


def test_jacobi_real_parameters_of_potential1():
    # P_n^{(d,-mu)}(cosh 2a) on the admissible (n, m) of the fixture and of
    # the deep well (levels 4, 9, 14), at the phi-mapped quadrature points
    # of the interbasis integrals up to cosh 2a ~ 1e6.  Forward-recurrence
    # error grows with n: measured 2.85 (n + 1) eps S, at n = 14
    phi = np.linspace(0.05, math.pi / 2.0 - 1e-3, 8)
    xs = list((1.0 + np.sin(phi) ** 2) / np.cos(phi) ** 2)
    worst = 0.0
    for p, levels in ((FIXTURE, range(FIXTURE.nmax + 1)), (DEEP, (4, 9, 14))):
        for N in levels:
            for n, m in p1.level_states_equidistant(p, N):
                worst = max(worst, _jacobi_worst(n, p.d, -p1.p1_mu(p, m), xs))
    assert worst <= 11.5


def test_jacobi_complex_parameters_of_potential2():
    # P_m^{(a, conj a)}(-i sinh 2 t2) as in s2_complex_factor, on the v2
    # fixture and deep well; measured 0.44 (m + 1) eps S
    xs = list(-1j * np.sinh(2.0 * np.linspace(-1.5, 1.5, 9)))
    worst = 0.0
    for pars in ((0.1, 3.0, 1.0), (0.1, 6.0, 1.0)):
        p = p2.P2Params(*pars)
        for m in range(int(p.M)):
            worst = max(worst, _jacobi_worst(m, p.a, p.a.conjugate(), xs))
    assert worst <= 1.8


def _hyp3f2_worst(cases) -> float:
    """max |3F2 - ref| / ((n + 1) eps S) over (n, b, c, d, e) cases."""
    worst = 0.0
    for n, b, c, d, e in cases:
        ref = mp.hyp3f2(-n, b, c, d, e, 1)
        terms = [mp.rf(-n, k) * mp.rf(b, k) * mp.rf(c, k)
                 / (mp.rf(d, k) * mp.rf(e, k) * mp.factorial(k))
                 for k in range(n + 1)]
        mass = float(mp.fsum(abs(t) for t in terms))
        got = sf.hyp3f2_unit(n, b, c, d, e)
        worst = max(worst, abs(got - complex(ref)) / ((n + 1) * EPS * mass))
    return worst


def test_hyp3f2_unit_interbasis_parameters():
    # the canonical and printed 3F2 of the interbasis matrices, fixture and
    # deep well (levels 6 and 14, where the sums cancel to 1e12-1e17):
    # measured 0.25 (n + 1) eps S
    cases = []
    for p, levels in ((FIXTURE, range(FIXTURE.nmax + 1)), (DEEP, (6, 14))):
        d = p.d
        for N in levels:
            for n, m in p1.level_states_equidistant(p, N):
                mu = p1.p1_mu(p, m)
                for n1 in range(0, N + 1, 3):
                    cases.append((n, n + d - mu + 1.0, -mu - m, 1.0 - mu,
                                  1.0 + d + n1 - mu - m))
                    cases.append((n, n + d - mu + 1.0, 1.0 - mu - m, 1.0 - mu,
                                  2.0 + n1 + d - mu - m))
    assert _hyp3f2_worst(cases) <= 1.0


def test_hyp3f2_unit_random_parameters():
    # measured 0.37 (n + 1) eps S
    rng = np.random.default_rng(14)
    cases = [(int(rng.integers(0, 20)), *rng.uniform(-15.0, 15.0, 2),
              *rng.uniform(0.1, 15.0, 2)) for _ in range(150)]
    assert _hyp3f2_worst(cases) <= 1.5


def _series_mass(a, b, c, z, n=None) -> float:
    """sum_k |t_k| of the 2F1(a, b; c; z) series: k <= n, or to convergence."""
    a, b, c, z = (mp.mpmathify(v) for v in (a, b, c, z))
    term = mass = mp.mpf(1)
    k = 0
    while k != n:
        term *= (a + k) * (b + k) * z / ((c + k) * (k + 1))
        mass += abs(term)
        k += 1
        if n is None and abs(term) < 1e-20 * mass:
            break
    return float(mass)


def _hyp2f1_mass(a, b, c, z) -> float:
    """sum|t_k| of the series hyp2f1 actually sums on its |z| < 1 branch,
    each weighted by the modulus of its prefactor: the direct series for
    |z| <= 0.7, the Pfaff series in z/(z-1), or the two 1-z series."""
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if abs(z) <= 0.7:
        return _series_mass(a, b, c, z)
    w = z / (z - 1.0)
    if abs(w) <= 0.85:
        return abs((1.0 - z) ** (-a)) * _series_mass(a, c - b, c, w)
    u, cab = 1.0 - z, c - a - b
    g = lambda *v: [mp.gamma(mp.mpmathify(x)) for x in v]
    gc, gcab, gca, gcb, gmcab, ga, gb = g(c, cab, c - a, c - b, -cab, a, b)
    f1 = complex(gc * gcab / (gca * gcb))
    f2 = complex(gc * gmcab / (ga * gb))
    return (abs(f1) * _series_mass(a, b, a + b - c + 1.0, u)
            + abs(f2 * u ** cab) * _series_mass(c - a, c - b, cab + 1.0, u))


def _hyp2f1_worst(cases) -> float:
    """max |2F1 - ref| / (K eps S) over (a, b, c, z) cases, with K = n + 1
    for a terminating sum (a = -n) and K = 1 otherwise."""
    worst = 0.0
    for a, b, c, z in cases:
        n = sf._terminating_order(a)
        mass = (_series_mass(a, b, c, z, n) if n is not None
                else _hyp2f1_mass(a, b, c, z))
        ref = complex(mp.hyp2f1(a, b, c, z))
        got = sf.hyp2f1(a, b, c, z)
        k = 1 if n is None else n + 1
        worst = max(worst, abs(got - ref) / (k * EPS * mass))
    return worst


def _jacobi_2f1_parameters(shift: float = 0.0):
    """(a, b, c) of the 2F1 forms of the package's Jacobi polynomials,
    P_n^{(al,be)} = (al+1)_n/n! 2F1(-n, n+al+be+1; al+1; (1-x)/2): (d, -mu)
    of the fixture and the deep well, (a, conj a) of the potential2 wells.
    ``shift`` moves -n off the integers."""
    out = []
    for p, levels in ((FIXTURE, range(FIXTURE.nmax + 1)), (DEEP, (4, 9, 14))):
        for N in levels:
            for n, m in p1.level_states_equidistant(p, N):
                mu = p1.p1_mu(p, m)
                out.append((-n - shift, n + p.d - mu + 1.0, p.d + 1.0))
    for pars in ((0.1, 3.0, 1.0), (0.1, 6.0, 1.0)):
        a = p2.P2Params(*pars).a
        out += [(-m - shift, m + 2.0 * a.real + 1.0, a + 1.0)
                for m in range(int(p2.P2Params(*pars).M))]
    return out


def test_hyp2f1_terminating_jacobi_parameters():
    # the Jacobi arguments (1-x)/2 of potential1's interbasis nodes
    # (x = cosh 2a up to ~1e6) and of potential2's x = -i sinh 2t; the
    # sums terminate for any z.  Measured 0.50 (n + 1) eps S
    phi = np.linspace(0.05, math.pi / 2.0 - 1e-3, 8)
    xs = list((1.0 + np.sin(phi) ** 2) / np.cos(phi) ** 2)
    xs += list(-1j * np.sinh(2.0 * np.linspace(-1.5, 1.5, 9)))
    cases = [(a, b, c, (1.0 - x) / 2.0)
             for a, b, c in _jacobi_2f1_parameters() for x in xs]
    assert _hyp2f1_worst(cases) <= 2.0


def test_hyp2f1_terminating_random_parameters():
    # measured 0.30 (n + 1) eps S
    rng = np.random.default_rng(16)
    cases = [(-int(rng.integers(0, 20)), rng.uniform(-15.0, 15.0),
              rng.uniform(0.1, 15.0), rng.uniform(-3.0, 3.0))
             for _ in range(150)]
    assert _hyp2f1_worst(cases) <= 1.2


def _unit_disc_points(rng, r_lo, r_hi, n):
    r = rng.uniform(r_lo, r_hi, n)
    th = rng.uniform(-math.pi, math.pi, n)
    return r * np.exp(1j * th)


@pytest.mark.parametrize("r_lo, r_hi, bound", [
    (0.0, 0.7, 9.6),      # direct series; measured 2.4 eps S
    # Pfaff and 1-z connection; measured 30 eps S, in the connection
    # formula, whose Gamma prefactors (|c - a - b| up to 31) add their own
    # round-off
    (0.7, 0.98, 121.0),
])
def test_hyp2f1_convergent_branches(r_lo, r_hi, bound):
    # non-terminating sums at |z| < 1: the package's Jacobi parameters
    # with -n moved off the integers, and random real parameters.  S sums
    # the series actually evaluated, weighted by their prefactors
    rng = np.random.default_rng(17)
    cases = [(a, b, c, z) for a, b, c in _jacobi_2f1_parameters(shift=0.5)
             for z in _unit_disc_points(rng, r_lo, r_hi, 3)]
    cases += [(*rng.uniform(-5.0, 5.0, 2), rng.uniform(0.2, 6.0), z)
              for z in _unit_disc_points(rng, r_lo, r_hi, 150)]
    covered = []
    for case in cases:
        try:
            sf.hyp2f1(*case)
        except NonConvergenceError:  # outside the covered region
            continue
        covered.append(case)
    assert len(covered) >= 0.8 * len(cases)
    assert _hyp2f1_worst(covered) <= bound
