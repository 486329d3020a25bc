import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from hypersint import specfun as sf
from hypersint.errors import (
    OutOfDomainError,
    ParameterPoleError,
)

# ---------------------------------------------------------------------------
# log_gamma
# ---------------------------------------------------------------------------

# frozen 30-digit references (computed once with arbitrary precision)
LOG_GAMMA_REFS = [
    (complex(0.5, 0), complex(0.572364942924700087, 0.0)),
    (complex(3.7, 0), complex(1.42807232666538813, 0.0)),
    (complex(1, 1), complex(-0.650923199301856339, -0.301640320467533198)),
    (complex(-2.5, 4.0), complex(-9.76154677268924262, -4.19848108128607563)),
    (complex(10, -30), complex(-13.7397636579971595, -85.4797639725164371)),
    (complex(60, 40), complex(171.953109592128687, 166.113791984099551)),
    (complex(-4.2, -0.7), complex(-3.78939190634664246, 13.690079891801754)),
]


def test_log_gamma_exact_values():
    assert abs(sf.log_gamma(1.0)) < 1e-15
    assert abs(sf.log_gamma(5.0) - math.log(24.0)) < 1e-14
    assert abs(sf.log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14


def test_log_gamma_frozen_references():
    for z, ref in LOG_GAMMA_REFS:
        got = sf.log_gamma(z)
        assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (z, got, ref)


def test_log_gamma_reflection_at_1_plus_i():
    z = 1.0 + 1.0j
    lhs = cmath.exp(sf.log_gamma(z) + sf.log_gamma(1.0 - z))
    rhs = math.pi / cmath.sin(math.pi * z)
    assert abs(lhs - rhs) < 1e-13 * abs(rhs)


def test_log_gamma_pole():
    for z in (0.0, -3.0, -7):
        with pytest.raises(ParameterPoleError):
            sf.log_gamma(z)


def test_gamma_reflection_strip():
    # |Gamma(z) Gamma(1-z) sin(pi z)/pi - 1| <= 1e-10 away from poles
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if min(abs(z - k) for k in range(-6, 7)) < 0.1:
            continue
        val = cmath.exp(sf.log_gamma(z) + sf.log_gamma(1 - z)) \
            * cmath.sin(math.pi * z) / math.pi
        assert abs(val - 1.0) <= 1e-10, z
        checked += 1


# ---------------------------------------------------------------------------
# Orthogonal polynomials
# ---------------------------------------------------------------------------

def test_laguerre_low_orders():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, x = rng.uniform(-0.9, 3), rng.uniform(0, 8)
        assert sf.laguerre(0, a, x) == 1.0
        assert abs(sf.laguerre(1, a, x) - (1 + a - x)) < 1e-14
    # hand recurrence: L2^0(x) = (x^2 - 4x + 2)/2
    assert abs(sf.laguerre(2, 0.0, 2.0) - (-1.0)) < 1e-14


def test_laguerre_orthogonality_quadrature():
    spec = sf.QuadratureSpec("tanh-sinh", 8, 0.0, math.inf, "exp-map")
    for a in (0.0, 0.5, 1.5):
        for n in range(7):
            for m in range(n, 7):
                v, _ = sf.integrate(
                    lambda x: x**a * np.exp(-x)
                    * sf.laguerre(n, a, x) * sf.laguerre(m, a, x), spec)
                ref = 0.0 if n != m else \
                    math.exp(sf.log_gamma(n + a + 1.0).real) / math.factorial(n)
                assert abs(v - ref) <= 1e-9, (n, m, a)


def test_jacobi_low_orders():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b, x = rng.uniform(-0.9, 2), rng.uniform(-0.9, 2), rng.uniform(-1, 1)
        assert sf.jacobi(0, a, b, x) == 1.0
        p1 = (a + 1) + (a + b + 2) * (x - 1) / 2
        assert abs(sf.jacobi(1, a, b, x) - p1) < 1e-14
    # Legendre P2(1/2) = (3/4 - 1)/2 = -1/8
    assert abs(sf.jacobi(2, 0.0, 0.0, 0.5) - (-0.125)) < 1e-15


def test_jacobi_orthogonality_quadrature():
    spec = sf.QuadratureSpec("tanh-sinh", 8, -1.0, 1.0)
    for (a, b) in ((0.0, 0.0), (0.5, 1.5), (1.5, -0.3)):
        for n in range(6):
            for m in range(n, 6):
                v, _ = sf.integrate(
                    lambda x: (1 - x)**a * (1 + x)**b
                    * np.real(sf.jacobi(n, a, b, x) * sf.jacobi(m, a, b, x)),
                    spec)
                if n != m:
                    ref = 0.0
                else:
                    lg = lambda t: sf.log_gamma(t).real
                    ref = math.exp(
                        (a + b + 1) * math.log(2) + lg(n + a + 1) + lg(n + b + 1)
                        - lg(n + a + b + 1) - math.log(2 * n + a + b + 1)
                        - lg(n + 1.0))
                assert abs(v - ref) <= 1e-9, (n, m, a, b)


def test_jacobi_complex_conjugation_symmetry():
    # P_n^{(a*, a)}(z*) = conj(P_n^{(a, a*)}(z))
    rng = np.random.default_rng(2)
    for _ in range(30):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        n = int(rng.integers(0, 6))
        lhs = sf.jacobi(n, a.conjugate(), a, z.conjugate())
        rhs = np.conjugate(sf.jacobi(n, a, a.conjugate(), z))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# Hypergeometric functions
# ---------------------------------------------------------------------------

def test_hyp2f1_basic():
    rng = np.random.default_rng(3)
    for _ in range(10):
        b, c, z = rng.uniform(0.2, 3), rng.uniform(0.5, 3), rng.uniform(-0.9, 0.9)
        assert abs(sf.hyp2f1(-1, b, c, z) - (1 - b / c * z)) < 1e-14


def test_hyp2f1_errors():
    # only terminating sums: a non-terminating call raises and says why
    for args in ((0.3, 0.9, 1.1, 0.0), (1, 1, 2, 0.5), (0.3, 0.9, 1.7, 1.4),
                 (0.3, 0.9, -2.0, 0.4)):
        with pytest.raises(OutOfDomainError, match="non-positive integer"):
            sf.hyp2f1(*args)
    with pytest.raises(ParameterPoleError):
        sf.hyp2f1(-3, 0.9, -1.0, 0.4)  # (c)_k vanishes at k = 1 < 3


def test_hyp3f2_unit_small_cases():
    assert sf.hyp3f2_unit(0, 1.3, 0.2, 0.9, 1.1) == 1.0
    rng = np.random.default_rng(4)
    for _ in range(10):
        b, c, d, e = rng.uniform(0.3, 3, size=4)
        got = sf.hyp3f2_unit(1, b, c, d, e)
        assert abs(got - (1 - b * c / (d * e))) < 1e-14


def test_hyp3f2_unit_vs_rational_arithmetic():
    # exact-fraction oracle: parameters from small integers/half-integers
    rng = np.random.default_rng(5)
    halves = [Fraction(k, 2) for k in range(1, 12)]
    for _ in range(40):
        n = int(rng.integers(0, 6))
        b, c, d, e = (halves[rng.integers(0, len(halves))] for _ in range(4))
        exact = Fraction(0)
        term = Fraction(1)
        for k in range(n + 1):
            exact += term
            term = term * (-n + k) * (b + k) * (c + k)
            term /= (d + k) * (e + k) * (k + 1)
        got = sf.hyp3f2_unit(n, float(b), float(c), float(d), float(e))
        assert abs(got - float(exact)) <= 1e-12 * max(1.0, abs(float(exact)))


def test_hyp3f2_unit_pole():
    with pytest.raises(ParameterPoleError):
        sf.hyp3f2_unit(3, 0.5, 0.5, -1.0, 2.0)


def test_hahn_low_orders():
    a, b, x, N = 0.3, 0.6, 2.0, 7.0
    assert sf.hahn(0, a, b, x, N) == 1.0
    # two-term sum by hand: -(N-1)(b+1) + (a+b+2) x
    ref = -(N - 1) * (b + 1) + (a + b + 2) * x
    assert abs(sf.hahn(1, a, b, x, N) - ref) < 1e-13


def test_hahn_matches_direct_3f2_assembly():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = complex(rng.uniform(-1, 2), rng.uniform(-1, 1))
        b = complex(rng.uniform(-1, 2), rng.uniform(-1, 1))
        x = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        N = complex(rng.uniform(3, 9), rng.uniform(-1, 1))
        n = 2
        pref = (sf.pochhammer(N - n, n) * sf.pochhammer(b + 1, n)
                * (-1) ** n / math.factorial(n))
        ref = pref * sf.hyp3f2_unit(n, a + b + n + 1, -x, b + 1, 1 - N)
        got = sf.hahn(n, a, b, x, N)
        assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def test_integrate_exponential():
    spec = sf.QuadratureSpec("tanh-sinh", 7, 0.0, math.inf, "exp-map")
    v, err = sf.integrate(lambda x: np.exp(-x), spec)
    assert abs(v - 1.0) < 1e-12
    assert err < 1e-10


def test_integrate_beta_identity_fixture():
    # int_0^inf sinh t cosh^-3 t dt = B(1,1)/2 = 1/2
    spec = sf.QuadratureSpec("tanh-sinh", 7, 0.0, math.inf, "exp-map")
    # tanh sech^2 written via exp(-t): stable at the far quadrature nodes
    v, _ = sf.integrate(
        lambda t: np.tanh(t) * (2.0 * np.exp(-t) / (1.0 + np.exp(-2.0 * t))) ** 2,
        spec)
    assert abs(v - 0.5) < 1e-12


def test_integrate_legendre_orthogonality():
    spec = sf.QuadratureSpec("gauss-legendre", 3, -1.0, 1.0)
    v, _ = sf.integrate(lambda x: (3 * x**2 - 1) / 2 * (5 * x**3 - 3 * x) / 2,
                        spec)
    assert abs(v) < 1e-14


def test_integrate_beta_random_parameters():
    # 1/2 B((1+a)/2, (b-a)/2) for random exponents, relative 1e-8
    rng = np.random.default_rng(7)
    # level 9: the integrand is endpoint-singular for exponents near -1
    spec = sf.QuadratureSpec("tanh-sinh", 9, 0.0, math.inf, "exp-map")
    for _ in range(20):
        a = rng.uniform(-0.5, 3.0)
        b = a + rng.uniform(0.5, 6.0)
        # stable integrand: tanh^a cosh^(a-b)
        v, _ = sf.integrate(
            lambda t, a=a, b=b: np.tanh(t)**a * np.cosh(t)**(a - b), spec)
        lg = lambda t: sf.log_gamma(t).real
        ref = 0.5 * math.exp(lg((1 + a) / 2) + lg((b - a) / 2) - lg((1 + b) / 2))
        assert abs(v - ref) <= 1e-8 * abs(ref), (a, b)


def test_quadrature_spec_validation():
    with pytest.raises(OutOfDomainError):
        sf.QuadratureSpec("simpson", 3, 0.0, 1.0)
    with pytest.raises(OutOfDomainError):
        sf.QuadratureSpec("tanh-sinh", 0, 0.0, 1.0)
    with pytest.raises(OutOfDomainError):
        sf.QuadratureSpec("tanh-sinh", 3, 1.0, 0.5)
    with pytest.raises(OutOfDomainError):
        sf.QuadratureSpec("tanh-sinh", 3, 0.0, math.inf)  # needs a transform
    spec = sf.QuadratureSpec("tanh-sinh", 3, 0.0, math.inf, "algebraic-map")
    v, _ = sf.integrate(lambda x: 1.0 / (1.0 + x) ** 2, spec)
    assert abs(v - 1.0) < 1e-10


def test_integrate_deterministic():
    spec = sf.QuadratureSpec("tanh-sinh", 6, 0.0, 3.0)
    f = lambda x: np.sin(x) * np.exp(-x)
    assert sf.integrate(f, spec) == sf.integrate(f, spec)


def _substituted_sum(f, spec):
    """Reference: f substituted onto the rule's interval and summed on the
    raw tanh-sinh nodes (the integrand-transform form of the same rule)."""
    t, w, d = sf.tanh_sinh_nodes(spec.level)
    infinite = math.isinf(spec.lo) or math.isinf(spec.hi)
    a, b = (0.0, 1.0) if infinite else (spec.lo, spec.hi)
    half = 0.5 * (b - a)
    d_lo = np.where(t < 0, half * d, half * (1.0 + np.abs(t)))
    d_hi = np.where(t < 0, half * (1.0 + np.abs(t)), half * d)
    u = np.where(t < 0, a + d_lo, b - d_hi)
    if not infinite:
        cut = 1e-15 * max(1.0, abs(a), abs(b))
        keep = (d_lo > cut) & (d_hi > cut)
        return half * np.sum(w[keep] * f(u[keep]))
    om = np.maximum(np.where(u < 0.5, 1.0 - u, d_hi), 1e-150)
    if spec.transform == "exp-map":
        log_om = np.where(u < 0.5, np.log1p(-np.minimum(u, 0.5)), np.log(d_hi))
        step = -3.0 * np.maximum(log_om, -236.0)

        def g(s):
            return 3.0 * f(s) / om
    else:
        step = u / om

        def g(s):
            return f(s) / om**2
    lo = 0.0 if math.isinf(spec.lo) else spec.lo
    hi = 0.0 if math.isinf(spec.hi) else spec.hi
    return ((half * np.sum(w * g(hi - step)) if math.isinf(spec.lo) else 0.0)
            + (half * np.sum(w * g(lo + step)) if math.isinf(spec.hi) else 0.0))


@pytest.mark.parametrize("f,spec", [
    (lambda x: np.sqrt(x) / np.sqrt(1.0 - x), ("tanh-sinh", 7, 0.0, 1.0, "none")),
    (lambda x: np.exp(-x), ("tanh-sinh", 6, 0.0, 3.0, "none")),
    (lambda x: x**3 * np.exp(-x), ("tanh-sinh", 8, 0.0, math.inf, "exp-map")),
    (lambda x: np.exp(-x * x), ("tanh-sinh", 7, -math.inf, math.inf, "exp-map")),
    (lambda x: 1.0 / (1.0 + x) ** 2,
     ("tanh-sinh", 8, 0.0, math.inf, "algebraic-map")),
    (lambda x: np.exp(x) / (1.0 + x * x),
     ("tanh-sinh", 7, -math.inf, 0.0, "algebraic-map")),
])
def test_quadrature_rule_reproduces_integrate(f, spec):
    spec = sf.QuadratureSpec(*spec)
    value, err = sf.integrate(f, spec)
    x, w = sf.quadrature_rule(spec)
    assert x.shape == w.shape and np.all(np.isfinite(x)) and np.all(w >= 0.0)
    assert abs(np.sum(w * f(x)) - value) <= 1e-15 * abs(value)
    assert abs(_substituted_sum(f, spec) - value) <= 1e-15 * abs(value)
    xc, wc = sf.quadrature_rule(sf.QuadratureSpec(
        spec.rule, spec.level - 1, spec.lo, spec.hi, spec.transform))
    assert err == abs(value - float(np.sum(wc * f(xc))))
