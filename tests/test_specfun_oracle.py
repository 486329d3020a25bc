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
from hypersint.errors import (
    NonFiniteValueError,
    OutOfDomainError,
    ParameterPoleError,
)

mp = pytest.importorskip("mpmath")

EPS = 2.0 ** -52
FIXTURE = p1.P1Params(1.0, 1.0 / math.sqrt(2.0), 2.0 * math.sqrt(2.0))
DEEP = p1.P1Params(0.3, 0.2, 3.0)
P2DEEP = p2.P2Params(0.1, 6.0, 1.0)


@pytest.fixture(autouse=True)
def _precision():
    with mp.workdps(40):
        yield


def _lg_error(z) -> float:
    ref = complex(mp.loggamma(mp.mpmathify(z)))
    return abs(sf.log_gamma(z) - ref) / max(1.0, abs(ref))


def test_log_gamma_positive_real():
    # relative error (absolute near the zeros at 1 and 2) from x = 1/2, the
    # edge of its domain, on; measured 2.1e-15
    rng = np.random.default_rng(11)
    xs = np.concatenate([rng.uniform(0.5, 2.0, 150), rng.uniform(2.0, 300.0, 150),
                         np.arange(1.0, 31.0) + 0.5, np.arange(1.0, 31.0)])
    assert max(_lg_error(float(x)) for x in xs) <= 7e-15


@pytest.mark.parametrize("dist", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_log_gamma_next_to_the_poles(dist):
    # x = -k +- dist for k = 0..30, left of Re z = 1/2: log_gamma refuses
    # them, and the package's real log-gamma, lgamma, takes them (scaled as
    # in _lgamma_error); measured at most 3.4e-16 at every distance
    rng = np.random.default_rng(15)
    xs = [-k + s * dist * rng.uniform(0.5, 1.0)
          for k in range(31) for s in (1.0, -1.0)]
    for x in xs:
        with pytest.raises(OutOfDomainError):
            sf.log_gamma(x)
    assert _lgamma_error(xs, sf.lgamma(np.array(xs)).tolist()) <= 1.4e-15


def test_log_gamma_complex():
    # the right half-plane Re z >= 1/2 of the Lanczos sum, and the arguments
    # -m - a (m <= m_max) of potential2's normalizations, -a among them;
    # measured 3.4e-15
    rng = np.random.default_rng(13)
    zs = [complex(a, b) for a, b in zip(rng.uniform(0.5, 60.0, 300),
                                        rng.uniform(-40.0, 40.0, 300))]
    for pars in ((0.1, 3.0, 1.0), (0.1, 6.0, 1.0)):
        p = p2.P2Params(*pars)
        zs += [-m - p.a for m in range(p.m_max + 1)]
    assert max(_lg_error(z) for z in zs) <= 1.1e-14


def _lgamma_error(xs, got) -> float:
    """max |lgamma - ref| / scale, ref = log |Gamma| from mpmath.  The scale
    is max(1, |ref|), plus log Gamma(1-x) for x < 0: there the value is the
    difference log(pi / |sin pi x|) - log Gamma(1-x), which next to a pole
    cancels to O(1) from terms of that size."""
    worst = 0.0
    for x, g in zip(xs, got):
        ref = mp.re(mp.loggamma(mp.mpf(x)))
        scale = max(1, abs(ref)) + (mp.loggamma(1 - mp.mpf(x)) if x < 0 else 0)
        worst = max(worst, float(abs(g - ref) / scale))
    return worst


def test_lgamma_of_real_arrays():
    # the standard library's lgamma behind the package's errors: positive
    # arguments, negative non-integers and points 1e-6 to 1e-11 from a
    # pole; measured 8.3e-16 (against max(1, |ref|) alone: 5.1e-15, at 1e-7
    # from the pole at -11)
    rng = np.random.default_rng(17)
    poles = np.arange(0.0, -31.0, -1.0)
    xs = np.concatenate([
        rng.uniform(1e-3, 2.0, 200), rng.uniform(2.0, 300.0, 200),
        np.arange(1.0, 31.0), np.arange(1.0, 31.0) + 0.5,
        [x for x in -rng.uniform(0.0, 30.0, 300) if abs(x - round(x)) >= 1e-3],
        (poles[:, None] + np.outer(rng.choice([-1.0, 1.0], 31),
                                   10.0 ** -np.arange(6.0, 12.0))).ravel()])
    xs = xs[xs != 0.0].reshape(-1, 2)  # an array call on a 2-D array
    got = sf.lgamma(xs)
    assert got.shape == xs.shape
    assert _lgamma_error(xs.ravel().tolist(), got.ravel().tolist()) <= 2e-15
    # scalar calls agree with the array call bit for bit
    assert [sf.lgamma(x) for x in xs.ravel().tolist()] == got.ravel().tolist()
    for bad in (0.0, -3.0, -7.0 + 5e-13, np.array([1.5, -2.0])):
        with pytest.raises(ParameterPoleError):
            sf.lgamma(bad)
    for bad in (math.inf, -math.inf, math.nan, np.array([2.0, math.nan])):
        with pytest.raises(NonFiniteValueError):
            sf.lgamma(bad)


def _jacobi_oracle(n, a, b, x):
    """P_n^{(a,b)}(x) = (a+1)_n/n! 2F1(-n, n+a+b+1; a+1; (1-x)/2) from
    mpmath's 2F1, and S of that series."""
    a, b, x = mp.mpmathify(a), mp.mpmathify(b), mp.mpmathify(x)
    z = (1 - x) / 2
    pref = mp.rf(a + 1, n) / mp.factorial(n)
    mass = mp.fsum(abs(pref * mp.rf(-n, k) * mp.rf(n + a + b + 1, k)
                       / (mp.rf(a + 1, k) * mp.factorial(k)) * z ** k)
                   for k in range(n + 1))
    return complex(pref * mp.hyp2f1(-n, n + a + b + 1, a + 1, z)), float(mass)


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
    """max |3F2 - ref| / ((n + 1) eps S) over (n, b, c, d, e) cases, all
    summed by one call."""
    got = sf.hyp3f2_unit(*np.array(cases).T)[0]
    worst = 0.0
    for g, (n, b, c, d, e) in zip(got, cases):
        ref = mp.hyp3f2(-n, b, c, d, e, 1)
        terms = [mp.rf(-n, k) * mp.rf(b, k) * mp.rf(c, k)
                 / (mp.rf(d, k) * mp.rf(e, k) * mp.factorial(k))
                 for k in range(n + 1)]
        mass = float(mp.fsum(abs(t) for t in terms))
        worst = max(worst, abs(g - complex(ref)) / ((n + 1) * EPS * mass))
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


def _jacobi_2f1_parameters():
    """(n, al, be) of the package's Jacobi polynomials: (d, -mu) of the
    fixture and the deep well, (a, conj a) of the potential2 wells."""
    out = []
    for p, levels in ((FIXTURE, range(FIXTURE.nmax + 1)), (DEEP, (4, 9, 14))):
        for N in levels:
            out += [(n, p.d, -p1.p1_mu(p, m))
                    for n, m in p1.level_states_equidistant(p, N)]
    for pars in ((0.1, 3.0, 1.0), (0.1, 6.0, 1.0)):
        a = p2.P2Params(*pars).a
        out += [(m, a, a.conjugate()) for m in range(int(p2.P2Params(*pars).M))]
    return out


def test_hyp2f1_terminating_jacobi_parameters():
    # every parameter set of both potentials at the arguments of both:
    # potential1's interbasis nodes (x = cosh 2a up to ~1e6) and
    # potential2's x = -i sinh 2t.  Measured 4.86 (n + 1) eps S, at n = 14
    phi = np.linspace(0.05, math.pi / 2.0 - 1e-3, 8)
    xs = list((1.0 + np.sin(phi) ** 2) / np.cos(phi) ** 2)
    xs += list(-1j * np.sinh(2.0 * np.linspace(-1.5, 1.5, 9)))
    worst = max(_jacobi_worst(n, al, be, xs) for n, al, be in _jacobi_2f1_parameters())
    assert worst <= 19.5


# ---------------------------------------------------------------------------
# Gauss rules: each weight family integrates the monomials x^j, j <= 2K - 1,
# to its moments (measured: at most 3e-14 relative)
# ---------------------------------------------------------------------------

def _assert_moments(x, w, moment, K):
    for j in range(2 * K):
        want = moment(j)
        assert abs(float(np.sum(w * x**j)) - float(want)) <= 1e-13 * abs(want), j


@pytest.mark.parametrize("a,b,K", [(0.0, 0.0, 5), (-0.9, 2.5, 8), (4.3, -0.6, 12),
                                   (0.023, 1.06, 15)])
def test_gauss_jacobi_rule_is_exact(a, b, K):
    x, w = sf.gauss_rule(*sf.jacobi_recurrence(a, b, K), float(mp.beta(a + 1, b + 1)))
    _assert_moments(x, w, lambda j: mp.beta(a + 1 + j, b + 1), K)


@pytest.mark.parametrize("a,K", [(0.0, 6), (-0.8, 10), (2.7, 20), (85.0, 30)])
def test_gauss_laguerre_rule_is_exact(a, K):
    x, w = sf.gauss_rule(*sf.laguerre_recurrence(a, K), float(mp.gamma(a + 1)))
    _assert_moments(x, w, lambda j: mp.gamma(a + 1 + j), K)


@pytest.mark.parametrize("a,K", [(complex(-4.0, 1.3), 3), (complex(-6.2, -0.4), 5),
                                 (P2DEEP.a, 2)])
def test_gauss_romanovski_rule_is_exact(a, K):
    # moments of (1+x^2)^r e^{-2 g arctan x} in x = tan th, and the mass
    # pi 2^{2+2r} Gamma(-1-2r) / |Gamma(-a)|^2 of the docstring
    r, g = a.real, a.imag

    def moment(j):
        return mp.quad(lambda th: mp.cos(th) ** (-2 * r - 2 - j) * mp.sin(th) ** j
                       * mp.exp(-2 * g * th), [-mp.pi / 2, 0, mp.pi / 2])
    mass = mp.pi * 2 ** (2 + 2 * r) * mp.gamma(-1 - 2 * r) / abs(mp.gamma(-a)) ** 2
    assert abs(mass - moment(0)) <= 1e-15 * mass
    x, w = sf.gauss_rule(*sf.romanovski_recurrence(a, K), float(mass))
    _assert_moments(x, w, moment, K)


# ---------------------------------------------------------------------------
# Factors and norms of the first potential
# ---------------------------------------------------------------------------

def test_pt_factor_far_tail_matches_mpmath():
    # near the window edge nu -> 0 the factor decays only like e^{-nu t1}:
    # state (3, 0) of P2Params(0.1, 6, 1) has nu = 0.023
    n, mu = 3, p2.p2_mu(P2DEEP, 0)
    d = mp.sqrt(2 * mp.mpf(P2DEEP.alpha) ** 2 + mp.mpf(1) / 4)
    nu = mu - d - 2 * n - 1
    c = mp.sqrt(2 * nu * mp.gamma(mu - n) * mp.factorial(n)
                / (mp.gamma(mu - d - n) * mp.gamma(1 + n + d)))
    t1 = np.array([200.0, 300.0, 400.0])
    got = p1.pt_factor(P2DEEP, n, mu, t1)
    for g, t in zip(got, t1):
        want = (c * mp.sinh(t) ** (0.5 + d) * mp.cosh(t) ** (0.5 - mu)
                * mp.jacobi(n, d, -mu, mp.cosh(2 * t)))
        assert abs(g - want) <= 1e-12 * abs(want), t
