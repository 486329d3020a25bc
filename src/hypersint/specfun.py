"""Self-contained special functions and quadrature used by every other module.

Everything here is pure and deterministic: no global mutable state, fixed
summation order, so results are bit-reproducible for fixed inputs.

Conventions
-----------
* ``log_gamma`` returns the principal branch (analytic continuation off the
  positive real axis, single valued on the plane cut along (-inf, 0]).
* All complex powers elsewhere in the package use the principal logarithm.
* Polynomials are evaluated by forward three-term recurrences, never by
  Gamma-ratio closed forms, to avoid overflow; normalization constants are
  assembled in log space and exponentiated once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    NonFiniteValueError,
    OutOfDomainError,
    ParameterPoleError,
)

__all__ = [
    "QuadratureSpec",
    "gauss_legendre_nodes",
    "hahn",
    "hyp2f1",
    "hyp3f2_unit",
    "integrate",
    "jacobi",
    "laguerre",
    "log_gamma",
    "pochhammer",
    "quadrature_rule",
    "tanh_sinh_nodes",
]

_LOG_2PI = math.log(2.0 * math.pi)
_LANCZOS_G = 7.0
# 9-coefficient Lanczos set for g = 7 (Godfrey); ~1e-15 relative on A(z).
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _is_nonpositive_integer(z: complex, tol: float = 1e-12) -> bool:
    z = complex(z)
    if abs(z.imag) > tol:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= tol


# ---------------------------------------------------------------------------
# Gamma function
# ---------------------------------------------------------------------------

def _log_gamma_right(z: complex) -> complex:
    """Lanczos evaluation, valid for Re z >= 0.5."""
    zm1 = z - 1.0
    a = _LANCZOS_C[0]
    for k in range(1, 9):
        a += _LANCZOS_C[k] / (zm1 + k)
    t = zm1 + _LANCZOS_G + 0.5
    return 0.5 * _LOG_2PI + (zm1 + 0.5) * cmath.log(t) - t + cmath.log(a)


def _log_sin_pi(z: complex) -> complex:
    """log(sin(pi z)) that does not overflow for large |Im z| and keeps full
    relative accuracy next to the integers.

    With r = round(Re z) and z = r + x + iy (x formed exactly, |x| <= 1/2),
    sin(pi z) = (-1)^r sin(pi (x + iy)), and for y >= 0

        sin(pi (x + iy)) = (i/2) e^{-i pi (x + iy)} (1 - e^{2 i pi (x + iy)}),

    where, with e = e^{-2 pi y}, the factor

        1 - e^{2 i pi (x + iy)} = (1 - e) + 2 e sin^2(pi x) - i e sin(2 pi x)

    is formed without cancellation.  The factor (-1)^r enters as the exact
    branch term -i pi r; conjugation symmetry covers Im z < 0.
    """
    if z.imag < 0.0:
        return _log_sin_pi(z.conjugate()).conjugate()
    r = round(z.real)
    x, y = z.real - r, z.imag
    e = math.exp(-2.0 * math.pi * y)
    one_minus_w = complex(-math.expm1(-2.0 * math.pi * y)
                          + 2.0 * e * math.sin(math.pi * x) ** 2,
                          -e * math.sin(2.0 * math.pi * x))
    return (-math.log(2.0) + 1j * math.pi / 2.0 - 1j * math.pi * complex(x, y)
            - 1j * math.pi * r + cmath.log(one_minus_w))


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z).

    Raises ParameterPoleError at the poles z = 0, -1, -2, ...
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonFiniteValueError("log_gamma: non-finite argument")
    if _is_nonpositive_integer(z):
        raise ParameterPoleError(f"log_gamma: pole at z = {z}")
    if z.real >= 0.5:
        out = _log_gamma_right(z)
    else:
        # Reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z).
        out = math.log(math.pi) - _log_sin_pi(z) - _log_gamma_right(1.0 - z)
    if z.imag == 0.0 and z.real > 0.0:
        out = complex(out.real, 0.0)
    return out


def gamma(z: complex) -> complex:
    """Gamma(z) via exp(log_gamma); overflow-prone for large Re z by design."""
    return cmath.exp(log_gamma(z))


def pochhammer(a: complex, n: int) -> complex:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1) as a finite product."""
    if n < 0:
        raise OutOfDomainError("pochhammer: n must be >= 0")
    out = 1.0 + 0.0j
    for k in range(n):
        out *= a + k
    return out


# ---------------------------------------------------------------------------
# Classical orthogonal polynomials (forward recurrences)
# ---------------------------------------------------------------------------

def laguerre(n: int, a: float, x):
    """Generalized Laguerre polynomial L_n^a(x); x may be a float or ndarray."""
    if n < 0:
        raise OutOfDomainError("laguerre: n must be >= 0")
    x = np.asarray(x, dtype=float) if isinstance(x, np.ndarray) else x
    p_prev = 1.0 if np.isscalar(x) else np.ones_like(x)
    if n == 0:
        return p_prev
    p = 1.0 + a - x
    for k in range(1, n):
        p, p_prev = ((2 * k + 1 + a - x) * p - (k + a) * p_prev) / (k + 1), p
    return p


def _jacobi_series(n: int, a: complex, b: complex, x):
    # Terminating-sum definition; pole-free (Pochhammers appear only in
    # numerators).  Used when the recurrence denominator degenerates.
    half = (np.asarray(x) - 1.0) / 2.0 if isinstance(x, np.ndarray) else (x - 1.0) / 2.0
    out = 0.0
    for k in range(n + 1):
        coeff = (
            pochhammer(n + a + b + 1.0, k)
            * pochhammer(a + k + 1.0, n - k)
            / (math.factorial(k) * math.factorial(n - k))
        )
        out = out + coeff * half**k
    return out


def jacobi(n: int, a: complex, b: complex, x):
    """Jacobi polynomial P_n^{(a,b)}(x) for complex parameters and argument.

    Forward recurrence; falls back to the terminating-sum form if a recurrence
    denominator 2k(k+a+b)(2k+a+b-2) degenerates (possible for special complex
    parameter combinations).
    """
    if n < 0:
        raise OutOfDomainError("jacobi: n must be >= 0")
    one = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    if n == 0:
        return one
    p_prev = one
    p = (a + 1.0) * one + (a + b + 2.0) * (x - 1.0) / 2.0
    for k in range(2, n + 1):
        s = 2.0 * k + a + b
        den = 2.0 * k * (k + a + b) * (s - 2.0)
        if abs(complex(den)) < 1e-10 * max(1.0, abs(complex(s)) ** 3):
            return _jacobi_series(n, a, b, x)
        c1 = (s - 1.0) * (s * (s - 2.0) * x + a * a - b * b)
        c2 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * s
        p, p_prev = (c1 * p - c2 * p_prev) / den, p
    return p


# ---------------------------------------------------------------------------
# Hypergeometric functions
# ---------------------------------------------------------------------------

def _terminating_order(a: complex) -> int | None:
    if _is_nonpositive_integer(a):
        return -round(complex(a).real)
    return None


def hyp2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Terminating Gauss hypergeometric 2F1(a, b; c; z).

    a or b must be a non-positive integer -n; the value is the finite sum
    of its n + 1 terms (Kahan summation).  Raises OutOfDomainError for a
    non-terminating series and ParameterPoleError if (c)_k vanishes before
    the sum terminates.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    orders = [k for k in map(_terminating_order, (a, b)) if k is not None]
    if not orders:
        raise OutOfDomainError(
            f"hyp2f1: a or b must be a non-positive integer (got a = {a}, "
            f"b = {b}); only terminating sums are implemented")
    n = min(orders)
    nc = _terminating_order(c)
    if nc is not None and nc < n:
        raise ParameterPoleError("hyp2f1: (c)_k vanishes before termination")
    terms = [1.0 + 0.0j]
    for k in range(n):
        terms.append(terms[-1] * (a + k) * (b + k) * z / ((c + k) * (k + 1.0)))
    return _compensated_sum(terms)


def _hyp3f2_terms(n: int, b: complex, c: complex, d: complex,
                  e: complex) -> list[complex]:
    """Terms t_0 = 1, ..., t_n of the terminating 3F2(-n, b, c; d, e; 1)."""
    if n < 0:
        raise OutOfDomainError("hyp3f2_unit: n must be >= 0")
    terms = [1.0 + 0.0j]
    for k in range(n):
        den = (d + k) * (e + k) * (k + 1.0)
        if den == 0:
            raise ParameterPoleError(
                f"hyp3f2_unit: lower parameter hits a pole at k = {k}")
        terms.append(terms[-1] * (-n + k) * (b + k) * (c + k) / den)
    return terms


def _compensated_sum(terms: list[complex]) -> complex:
    """Kahan sum of the terms, in order."""
    total = terms[0]
    comp = 0.0 + 0.0j
    for term in terms[1:]:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def hyp3f2_unit(n: int, b: complex, c: complex, d: complex, e: complex) -> complex:
    """Terminating 3F2(-n, b, c; d, e; 1): exact sum of n+1 terms.

    Compensated (Kahan) summation; raises ParameterPoleError if (d)_k or
    (e)_k vanishes for some k <= n.
    """
    return _compensated_sum(_hyp3f2_terms(n, b, c, d, e))


def _hahn_parts(n: int, alpha: complex, beta: complex, x: complex,
                N: complex) -> tuple[complex, list[complex]]:
    """The prefactor and the 3F2 terms whose product and sum give ``hahn``."""
    if n < 0:
        raise OutOfDomainError("hahn: n must be >= 0")
    pref = (-1.0) ** n / math.factorial(n) * pochhammer(N - n, n) * pochhammer(beta + 1.0, n)
    return pref, _hyp3f2_terms(n, alpha + beta + n + 1.0, -x, beta + 1.0, 1.0 - N)


def hahn(n: int, alpha: complex, beta: complex, x: complex, N: complex) -> complex:
    """Hahn polynomial h_n^{(alpha,beta)}(x, N).

    h_n = ((-1)^n / n!) (N-n)_n (beta+1)_n
          * 3F2(-n, alpha+beta+n+1, -x; beta+1, 1-N; 1).

    The Gamma ratios of the defining formula are evaluated as finite
    Pochhammer products, so integer N causes no spurious poles.
    """
    pref, terms = _hahn_parts(n, alpha, beta, x, N)
    return pref * _compensated_sum(terms)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

_RULES = ("gauss-legendre", "tanh-sinh")
_TRANSFORMS = ("none", "exp-map", "algebraic-map")


@dataclass(frozen=True)
class QuadratureSpec:
    """Deterministic quadrature request.

    rule      : "gauss-legendre" or "tanh-sinh"
    level     : >= 1; each level roughly doubles the node count
    lo, hi    : domain endpoints (math.inf allowed only with a transform)
    transform : "none", "exp-map" (exponential decay toward the infinite
                endpoint) or "algebraic-map" (algebraic decay)
    """

    rule: str
    level: int
    lo: float
    hi: float
    transform: str = "none"

    def __post_init__(self):
        if self.rule not in _RULES:
            raise OutOfDomainError(f"unknown quadrature rule {self.rule!r}")
        if self.transform not in _TRANSFORMS:
            raise OutOfDomainError(f"unknown transform {self.transform!r}")
        if self.level < 1:
            raise OutOfDomainError("quadrature level must be >= 1")
        if not self.lo < self.hi:
            raise OutOfDomainError("need lo < hi")
        if (math.isinf(self.lo) or math.isinf(self.hi)) and self.transform == "none":
            raise OutOfDomainError("infinite endpoint requires a declared transform")


@lru_cache(maxsize=None)
def gauss_legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes/weights on (-1, 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=None)
def tanh_sinh_nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tanh-sinh (double exponential) nodes on (-1, 1).

    Returns (x, w, d) where d is the distance of each node to its nearest
    endpoint, computed cancellation-free (d = 1 - |x| exactly as
    2/(e^{2v}+1), v = (pi/2) sinh t).  Nodes run until the weights
    underflow, so endpoint-singular integrands keep their full
    contribution.  Step h = 2^{1-level}.
    """
    h = 2.0 ** (1 - level)
    t_max = 6.56  # weights underflow beyond this
    kmax = int(math.floor(t_max / h))
    k = np.arange(-kmax, kmax + 1)
    t = k * h
    v = 0.5 * math.pi * np.sinh(t)
    x = np.tanh(v)
    e = np.exp(-2.0 * np.abs(v))
    d = 2.0 * e / (1.0 + e)                       # 1 - |x|, stable
    w = h * 0.5 * math.pi * np.cosh(t) * 4.0 * e / (1.0 + e) ** 2
    keep = (w > 1e-300) & (d > 0.0)
    return x[keep], w[keep], d[keep]


def _eval_vec(f: Callable, x: np.ndarray) -> np.ndarray:
    """The integrand on the nodes x, in one array call."""
    y = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    if not np.all(np.isfinite(y)):
        raise NonFiniteValueError("integrate: integrand returned a non-finite value")
    return y


def quadrature_rule(spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w on spec's domain: sum(w * f(x)) integrates f.

    The level's rule runs on (lo, hi), or on (0, 1) for an infinite
    endpoint, mapped by the declared transform with its Jacobian folded
    into the weights:

        exp-map        x = a - sigma log(1 - u)   (exponential decay)
        algebraic-map  x = a + u / (1 - u)        (algebraic decay)

    from the finite endpoint a (mirrored toward -inf, and both halves from
    0 for a doubly infinite domain).  1 - u comes from the rule's stable
    endpoint distances.  On a finite domain, nodes within 1e-15 (relative)
    of an endpoint are dropped: an integrand that recomputes its endpoint
    distances from x cannot tell them from the endpoint.
    """
    lo, hi = spec.lo, spec.hi
    infinite = math.isinf(lo) or math.isinf(hi)
    a, b = (0.0, 1.0) if infinite else (lo, hi)
    half = 0.5 * (b - a)
    if spec.rule == "gauss-legendre":
        u, w = gauss_legendre_nodes(8 * 2 ** (spec.level - 1))
        u = 0.5 * (a + b) + half * u
        d_lo, d_hi = u - a, b - u
    else:
        t, w, d = tanh_sinh_nodes(spec.level)
        # nodes built from the stable endpoint distance, so integrable
        # endpoint singularities are fully resolved
        d_lo = np.where(t < 0, half * d, half * (1.0 + np.abs(t)))
        d_hi = np.where(t < 0, half * (1.0 + np.abs(t)), half * d)
        u = np.where(t < 0, a + d_lo, b - d_hi)
    w = half * w
    if not infinite:
        cut = 1e-15 * max(1.0, abs(a), abs(b))
        keep = (d_lo > cut) & (d_hi > cut)
        return u[keep], w[keep]
    # 1 - u, exact at both ends; the floor keeps 1/om^2 representable, and
    # the region it discards (x > ~1e150) is irrelevant for integrable f
    om = np.maximum(np.where(u < 0.5, 1.0 - u, d_hi), 1e-150)
    if spec.transform == "exp-map":
        # stretch: nodes reach x ~ 3 * 236 = 708 before the weights
        # underflow, ample for exp(-x)-weighted integrands of high degree;
        # the clamp keeps exp/cosh of x representable
        sigma = 3.0
        log_om = np.where(u < 0.5, np.log1p(-np.minimum(u, 0.5)), np.log(d_hi))
        step, w = -sigma * np.maximum(log_om, -236.0), w * sigma / om
    else:
        step, w = u / om, w / om**2
    if math.isinf(lo) and math.isinf(hi):
        return np.concatenate([-step, step]), np.concatenate([w, w])
    return (lo + step, w) if math.isinf(hi) else (hi - step, w)


def integrate(f: Callable, spec: QuadratureSpec) -> tuple[float, float]:
    """Integrate f over spec's domain; returns (value, error_estimate).

    The value is sum(w * f(x)) on ``quadrature_rule(spec)``; the error
    estimate is the difference against the next-coarser level.  The
    integrand must be array-safe: it is called on a numpy array of nodes
    and returns one value per node (or a scalar).  Deterministic for a
    fixed spec.
    """
    coarse_spec = replace(spec, level=max(1, spec.level - 1))
    value, coarse = (float(np.sum(w * _eval_vec(f, x)))
                     for x, w in map(quadrature_rule, (spec, coarse_spec)))
    return value, abs(value - coarse)
