"""Self-contained special functions and Gauss rules used by every other module.

Everything here is pure and deterministic: no global mutable state, fixed
summation order, so results are bit-reproducible for fixed inputs.

Conventions
-----------
* ``log_gamma`` is the principal branch on the half-plane Re z >= 1/2, where
  every complex argument of the package lies (potential2's -m - a and -a
  have Re = M/2 - m > 1/2 inside the open m window); left of it, it raises.
* All complex powers elsewhere in the package use the principal logarithm.
* Polynomials are evaluated by forward three-term recurrences, never by
  Gamma-ratio closed forms, to avoid overflow; normalization constants are
  assembled in log space and exponentiated once.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (
    NonFiniteValueError,
    OutOfDomainError,
    ParameterPoleError,
)

__all__ = [
    "gauss_rule",
    "hahn",
    "hyp3f2_unit",
    "jacobi",
    "jacobi_recurrence",
    "laguerre",
    "laguerre_recurrence",
    "lgamma",
    "log_gamma",
    "pochhammer",
    "romanovski_recurrence",
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


def _is_nonpositive_integer(z: complex) -> bool:
    z = complex(z)
    if abs(z.imag) > 1e-12:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= 1e-12


def _asarray(x, dtype=float):
    """np.asarray(x, dtype); a ``geometry.Jet`` (its own ufuncs) as it is."""
    if hasattr(x, "__array_ufunc__") and not isinstance(x, np.ndarray):
        return x
    return np.asarray(x, dtype)


def _each(f, x):
    """f of a number or of each element (numpy's exp and log can differ)."""
    if not isinstance(x, np.ndarray):
        return f(x)
    return np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape)


# ---------------------------------------------------------------------------
# Gamma function
# ---------------------------------------------------------------------------

def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z) on the half-plane Re z >= 1/2, by the
    Lanczos sum; every complex argument of the package lies there.

    Raises ParameterPoleError at the poles z = 0, -1, -2, ... and
    OutOfDomainError elsewhere left of Re z = 1/2.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonFiniteValueError("log_gamma: non-finite argument")
    if _is_nonpositive_integer(z):
        raise ParameterPoleError(f"log_gamma: pole at z = {z}")
    if z.real < 0.5:
        raise OutOfDomainError(f"log_gamma: Re z < 1/2 at z = {z}")
    zm1 = z - 1.0
    a = _LANCZOS_C[0]
    for k in range(1, 9):
        a += _LANCZOS_C[k] / (zm1 + k)
    t = zm1 + _LANCZOS_G + 0.5
    out = 0.5 * _LOG_2PI + (zm1 + 0.5) * cmath.log(t) - t + cmath.log(a)
    return complex(out.real, 0.0) if z.imag == 0.0 else out


def _lgamma(v):
    if isinstance(v, complex) or not math.isfinite(v) or (
            v < 0.5 and _is_nonpositive_integer(v)):
        return log_gamma(v).real  # complex, or raises as log_gamma does
    return math.lgamma(v)


def lgamma(x):
    """log |Gamma| of a number, or of each element of an array: the standard
    library's lgamma for a real argument, Re ``log_gamma`` for a complex one.
    Raises as ``log_gamma`` does at a pole or a non-finite argument."""
    return _each(_lgamma, x)


# ---------------------------------------------------------------------------
# Classical orthogonal polynomials (forward recurrences)
# ---------------------------------------------------------------------------

def _degrees(name: str, n, *args) -> tuple[np.ndarray, int, tuple, float | None]:
    """n as whole numbers >= 0 (int or float) in a float array, its largest
    value, the broadcast shape of n and args, and the first value of out:
    1.0, the value at degree 0, which each step k replaces where n == k, or
    None where every element has the top degree (see ``_at_top``)."""
    n = np.asarray(n, dtype=float)
    degrees = n.ravel().tolist()
    if any(v < 0 or v != int(v) for v in degrees):
        raise OutOfDomainError(f"{name}: n must be whole numbers >= 0")
    top = int(max(degrees, default=0))
    out = 1.0 if min(degrees, default=top) < top else None
    try:
        shape = np.broadcast(n, *args).shape
    except TypeError:  # a geometry.Jet has no array form; np.shape reads it
        shape = np.broadcast_shapes(*map(np.shape, (n, *args)))
    return n, top, shape, out


def _at_top(out, p, shape) -> np.ndarray:
    """out, or, where every element has the top degree, its value p; p is
    returned as it is, since a copy would raise the peak memory of a
    single degree's large batches."""
    if out is not None:
        return out
    return p if np.shape(p) == shape else np.broadcast_to(p, shape).copy()


def _flat(name: str, n, *args) -> tuple[list, int, tuple]:
    """n and args broadcast and flattened to 1-D (a 0-d complex product
    rounds as a numpy scalar), the largest degree and the broadcast shape."""
    n, top, shape, _ = _degrees(name, n, *args)
    return [np.broadcast_to(v, shape).ravel() for v in (n, *args)], top, shape


def laguerre(n, a, x):
    """Generalized Laguerre polynomial L_n^a(x).

    n is a whole number or an array of them (int or float); n, a and x
    broadcast.  One forward recurrence runs on the broadcast of a and x up
    to the largest degree, and each element is read at its own degree.
    """
    x = _asarray(x)
    n, top, shape, out = _degrees("laguerre", n, a, x)
    p = np.ones_like(x)
    for k in range(top):
        # L_{k+1} from p = L_k and p_prev = L_{k-1}
        p, p_prev = (1.0 + a - x if k == 0 else
                     ((2 * k + 1 + a - x) * p - (k + a) * p_prev) / (k + 1)), p
        if out is not None:
            out = np.where(n == k + 1, p, out)
    return _at_top(out, p, shape)[()]


def jacobi(n, a, b, x):
    """Jacobi polynomial P_n^{(a,b)}(x) for complex parameters and argument.

    n is a whole number or an array of them (int or float); n, a, b and x
    broadcast.  One forward recurrence runs on the broadcast of a, b and x
    up to the largest degree, and each element is read at its own degree.
    Raises ParameterPoleError where a step denominator 2k(k+a+b)(2k+a+b-2)
    vanishes at some k up to the largest degree; it stays away from 0 for
    both parameter pairs of the package, (d, nu) and (a, conj a).
    """
    x = _asarray(x, None)
    n, top, shape, out = _degrees("jacobi", n, a, b, x)
    p = np.ones_like(x)
    if top >= 2:
        # the coefficients of every step k = 2 .. top on a leading axis,
        # each formed as in the step itself
        k = np.arange(2.0, top + 1).reshape((-1,) + (1,) * max(np.ndim(a), np.ndim(b)))
        s = 2.0 * k + a + b
        den = 2.0 * k * (k + a + b) * (s - 2.0)
        if np.any(np.abs(den) < 1e-10 * np.maximum(1.0, np.abs(s) ** 3)):
            raise ParameterPoleError("jacobi: a recurrence denominator vanishes")
        c2 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * s
        s1, s2, a2, b2 = s - 1.0, s * (s - 2.0), a * a, b * b
    for k in range(1, top + 1):
        p, p_prev = ((a + 1.0) * p + (a + b + 2.0) * (x - 1.0) / 2.0 if k == 1 else
                     (s1[k - 2] * (s2[k - 2] * x + a2 - b2) * p
                      - c2[k - 2] * p_prev) / den[k - 2]), p
        if out is not None:
            out = np.where(n == k, p, out)
    return _at_top(out, p, shape)[()]


# ---------------------------------------------------------------------------
# Heine-Stieltjes polynomials (the zero equations of both potentials)
# ---------------------------------------------------------------------------

# One solver for every zero-equation family of the package.  A family
#     a(th_i) sum_{k != i} 1/(th_i - th_k) + b(th_i) = 0,   i = 1..N,
# with deg a <= 3 and deg b <= 2, holds exactly when y = prod (th - th_k)
# solves the Heine-Stieltjes equation (a/2) y'' + b y' = (v1 th + v0) y
# (Stieltjes 1885; Faribault, El Araby, Straeter, Gritsev, PRB 83, 235124):
# at a zero th_i of y, y''/y' = 2 sum_{k != i} 1/(th_i - th_k).  The top
# degree fixes v1; the Van Vleck constant v0 is an eigenvalue of the operator
# on polynomials of degree <= N, and its eigenvector holds the coefficients
# of y.  The N + 1 eigenpairs give all N + 1 configurations at once.

def _stieltjes_matrix(a: np.ndarray, b: np.ndarray, N: int) -> np.ndarray:
    """(N+1) x (N+1) matrix of y -> (a/2) y'' + b y' - v1 th y on the
    monomials 1, th, ..., th^N (a, b ascending coefficients).

    Column j is the image of th^j; v1 = N(N-1) a_3/2 + N b_2 cancels the
    th^{N+1} term of the image of th^N, so the matrix is closed.
    """
    a = np.pad(a, (0, 4 - len(a)))
    b = np.pad(b, (0, 3 - len(b)))
    j = np.arange(N + 1.0)
    h = 0.5 * j * (j - 1.0)
    return (np.diag((h * a[0])[2:], 2)
            + np.diag((h * a[1] + j * b[0])[1:], 1)
            + np.diag(h * a[2] + j * b[1])
            + np.diag(((h - h[N]) * a[3] + (j - N) * b[2])[:-1], -1))


def _stieltjes_polish(a: np.ndarray, b: np.ndarray,
                      th: np.ndarray) -> np.ndarray:
    """Newton on the family's equations with the analytic Jacobian, for a
    stack th of configurations (one per row), for at most six steps; each
    configuration stops as soon as its residual no longer falls.

    The eigenvector's roots lose digits as N grows (residual 1e-7 at N = 8
    and 1e-5 at N = 14 on a deep well); one or two steps reach round-off.
    """
    pa, pb = a[::-1], b[::-1]
    da, db = np.polyder(pa), np.polyder(pb)
    diag = np.eye(th.shape[1], dtype=bool)
    best, best_r = th.copy(), np.full(len(th), math.inf)
    live = np.arange(len(th))
    for _ in range(7):
        gap = np.where(diag, 1.0, th[:, :, None] - th[:, None, :])
        inv = np.where(diag, 0.0, 1.0 / gap)
        av = np.polyval(pa, th)
        f = av * inv.sum(axis=2) + np.polyval(pb, th)
        r = np.max(np.abs(f), axis=1)
        falls = r < best_r[live]
        live, th, f, inv, av = (x[falls] for x in (live, th, f, inv, av))
        best[live], best_r[live] = th, r[falls]
        if not len(live):
            break
        inv2 = inv * inv
        jac = av[:, :, None] * inv2
        jac[:, diag] = (np.polyval(da, th) * inv.sum(axis=2)
                        - av * inv2.sum(axis=2) + np.polyval(db, th))
        # an exactly singular Jacobian (a zero pivot, where solve would
        # fail) stops its configuration at its best iterate
        ok = np.linalg.slogdet(jac)[0] != 0
        live, th, f, jac = live[ok], th[ok], f[ok], jac[ok]
        th = th + np.linalg.solve(jac, -f[:, :, None])[:, :, 0]
    return best


def _stieltjes_roots(a, b, N: int, center: float = 0.0) -> list[np.ndarray]:
    """The zero configurations of the family (a, b) at size N that come
    from its real Van Vleck eigenvalues, polished.

    The polynomials are expanded in powers of (th - center).  Roots that
    crowd against a singular point of a lose digits in the monomial basis;
    expanding about that point keeps them apart in relative terms.

    For real a, b, a complex eigenvalue has a non-real eigenvector, whose
    roots are neither all real nor closed under conjugation: no caller can
    use them, so it yields no configuration, nor does a degenerate
    eigenvector (top coefficient exactly zero).  The others come back in
    eigenvector order, as float arrays where every root is real and as
    complex arrays (conjugate pairs) elsewhere; each kind is polished as
    one stack.  The roots are the eigenvalues of ``np.roots``' companion
    matrices, from one stacked ``eigvals`` call.
    """
    if N == 0:
        return [np.zeros(0)]
    a, b = _taylor_shift(a, center), _taylor_shift(b, center)
    _, vecs = np.linalg.eig(_stieltjes_matrix(a, b, N))
    coef = vecs.T[(vecs[N] != 0) & ~np.any(vecs.imag, axis=0)].real
    comp = np.zeros((len(coef), N, N))
    comp[:, 0] = -coef[:, N - 1::-1] / coef[:, N:]
    comp.reshape(len(coef), N * N)[:, N::N + 1] = 1.0  # the subdiagonal
    found = [x if np.any(x.imag) else x.real for x in np.linalg.eigvals(comp)]
    for real in (True, False):
        idx = [i for i, x in enumerate(found) if np.isrealobj(x) == real]
        if idx:
            polished = _stieltjes_polish(a, b, np.array([found[i] for i in idx]))
            for i, th in zip(idx, polished + center):
                found[i] = th
    return found


def _taylor_shift(c, t0: float) -> np.ndarray:
    """Ascending coefficients of c(x + t0), from ascending coefficients c."""
    pc = np.asarray(c)[::-1]
    return np.array([np.polyval(np.polyder(pc, k), t0) / math.factorial(k)
                     for k in range(len(pc))])


# ---------------------------------------------------------------------------
# Hypergeometric functions
# ---------------------------------------------------------------------------

def pochhammer(a, n):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1) as a finite product; a
    and n (whole numbers >= 0) broadcast."""
    (n, a), top, shape = _flat("pochhammer", n, a)
    out = np.ones(n.shape, np.result_type(a, float))
    for k in range(top):
        out = np.where(n > k, out * (a + k), out)
    return out.reshape(shape)[()]


def hyp3f2_unit(n, b, c, d, e) -> tuple:
    """Terminating 3F2(-n, b, c; d, e; 1), the sum of its n + 1 terms
    t_0 = 1, t_{k+1} = t_k (k-n)(b+k)(c+k) / ((d+k)(e+k)(k+1)), and the
    ratio sum|t_k| / |sum t_k| by which it cancels (inf where the sum is 0).

    n (whole numbers >= 0) and the parameters broadcast.  One recurrence
    over k serves every element, and each element's compensated (Kahan)
    sum stops at its own n + 1 terms.  Raises ParameterPoleError if (d)_k
    or (e)_k vanishes at some k < n of an element.
    """
    (n, b, c, d, e), top, shape = _flat("hyp3f2_unit", n, b, c, d, e)
    dtype = np.result_type(b, c, d, e, float)
    t, total = np.ones(n.shape, dtype), np.ones(n.shape, dtype)
    comp, mass = np.zeros(n.shape, dtype), np.ones(n.shape)
    for k in range(top):
        live = n > k
        den = (d + k) * (e + k) * (k + 1.0)
        if np.any(den[live] == 0):
            raise ParameterPoleError(
                f"hyp3f2_unit: lower parameter hits a pole at k = {k}")
        # 0 from step k = n on (0/0 where a pole lies past the degree)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(live, t * (k - n) * (b + k) * (c + k) / den, 0.0)
        y = t - comp
        s = total + y
        comp = np.where(live, (s - total) - y, comp)
        total = np.where(live, s, total)
        mass += np.abs(t)
    ratio = np.divide(mass, np.abs(total), out=np.full(n.shape, math.inf),
                      where=total != 0)
    return total.reshape(shape)[()], ratio.reshape(shape)[()]


def hahn(n, alpha, beta, x, N) -> tuple:
    """Hahn polynomial h_n^{(alpha,beta)}(x, N) = ((-1)^n / n!) (N-n)_n
    (beta+1)_n 3F2(-n, alpha+beta+n+1, -x; beta+1, 1-N; 1), and the ratio
    of its 3F2 (see ``hyp3f2_unit``); n and the parameters broadcast.  The
    Pochhammer products leave integer N without spurious poles.
    """
    n = np.asarray(n, dtype=float)
    s, ratio = hyp3f2_unit(n, alpha + beta + n + 1.0, -x, beta + 1.0, 1.0 - N)
    pref = (_each(lambda k: (-1.0) ** k / math.factorial(int(k)), n)
            * pochhammer(N - n, n) * pochhammer(beta + 1.0, n))
    return pref * s, ratio


# ---------------------------------------------------------------------------
# Gauss rules (Golub & Welsch, Math. Comp. 23 (1969) 221)
# ---------------------------------------------------------------------------

# A weight enters as the recurrence x p_k = b_{k+1} p_{k+1} + a_k p_k
# + b_k p_{k-1} of its orthonormal polynomials, k < K: diag = a_0..a_{K-1},
# off = b_1..b_{K-1}; leading axes stack independent weights.


def gauss_rule(diag, off, mass) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w of the K-node Gauss rule of each weight:
    sum(w * f(x)) integrates f against it, exactly for degree <= 2K - 1.

    The nodes are the eigenvalues of the stacked Jacobi matrices, from one
    eigh.  The weights are the Christoffel numbers mass / sum_k q_k(x)^2,
    with q_k = p_k / p_0 from the same recurrence: they keep small weights
    relatively accurate, where the squared first eigenvector components
    are accurate only relative to the largest weight.
    """
    diag, off = np.asarray(diag, dtype=float), np.asarray(off, dtype=float)
    K = diag.shape[-1]
    i = np.arange(K)
    jm = np.zeros(diag.shape + (K,))
    jm[..., i, i] = diag
    jm[..., i[1:], i[:-1]] = off
    x = np.linalg.eigh(jm)[0]
    q_prev, q = np.zeros(x.shape), np.ones(x.shape)
    total = np.ones(x.shape)
    for k in range(K - 1):
        b = off[..., k:k + 1]
        q, q_prev = ((x - diag[..., k:k + 1]) * q
                     - (off[..., k - 1:k] if k else 0.0) * q_prev) / b, q
        total += q * q
    return x, np.asarray(mass)[..., None] / total


def jacobi_recurrence(a, b, K: int) -> tuple[np.ndarray, np.ndarray]:
    """(diag, off) of the weight x^a (1-x)^b on (0, 1), a, b > -1; mass
    B(a+1, b+1)."""
    # the weight (1-t)^b (1+t)^a on (-1, 1), moved to x = (1+t)/2; at
    # k = 0, (a+b)/s is 1 even where a+b = 0
    k = np.arange(K, dtype=float)
    s = 2.0 * k + a + b
    ab_s = np.divide(a + b, s, out=np.ones(s.shape), where=k > 0)
    kk, sk = k[1:], s[..., 1:]
    return (0.5 + 0.5 * (a - b) * ab_s / (s + 2.0),
            np.sqrt(kk * (kk + a) * (kk + b) * (kk + a + b)
                    / ((sk + 1.0) * (sk - 1.0))) / sk)


def laguerre_recurrence(a, K: int) -> tuple[np.ndarray, np.ndarray]:
    """(diag, off) of the weight x^a e^{-x} on (0, inf), a > -1; mass
    Gamma(a+1)."""
    k = np.arange(K, dtype=float)
    return 2.0 * k + a + 1.0, np.sqrt(k[1:] * (k[1:] + a))


def romanovski_recurrence(a: complex, K: int) -> tuple[np.ndarray, np.ndarray]:
    """(diag, off) of the weight (1+x^2)^{Re a} e^{-2 Im a arctan x} =
    (1+ix)^a (1-ix)^{conj a} on the real line, whose orthogonal polynomials
    are the P_k^{(a, conj a)}(-ix) (Romanovski or pseudo-Jacobi; Raposo et
    al., Cent. Eur. J. Phys. 5 (2007) 253); it needs 2 Re a + 2K < 0.  Mass
    pi 2^{2+2 Re a} Gamma(-1-2 Re a) / |Gamma(-a)|^2.
    """
    r, g = a.real, a.imag
    k = np.arange(K, dtype=float)
    kk = k[1:]
    return (r * g / ((k + r) * (k + r + 1.0)),
            np.sqrt(-kk * ((kk + r) ** 2 + g * g) * (kk + 2.0 * r)
                    / ((kk + r) ** 2 * (2.0 * kk + 2.0 * r + 1.0)
                       * (2.0 * kk + 2.0 * r - 1.0))))
