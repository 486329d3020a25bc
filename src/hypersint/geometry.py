"""Coordinate charts of the upper hyperboloid sheet and so(2,1) machinery.

The surface is w0^2 - w1^2 - w2^2 = 1 with w0 >= 1.  Three Killing
generators act on ambient functions:

    K3 = w0 d/dw1 + w1 d/dw0        (boost in the (w0, w1) plane)
    K2 = w0 d/dw2 + w2 d/dw0        (boost in the (w0, w2) plane)
    M1 = w1 d/dw2 - w2 d/dw1        (rotation in the (w1, w2) plane)

with [K3, K2] = M1, [K2, M1] = -K3, [K3, M1] = K2, and the Laplace-Beltrami
operator is K3^2 + K2^2 - M1^2.

Operators are applied exactly, with no step: a word (g_1, ..., g_k),
k <= 3, is the mixed derivative along the flows exp(t A_g), which at
nilpotent times eps_i (eps_i^2 = 0) are I + eps_i A_g.  ``apply_operators``
calls the function once for several operators, on every word's points
moved at those times (as ``Jet`` points whose value part is the validated
batch), and reads each word off the top component; ``apply_operator`` is
its one-operator case.  The function must be array-safe (a batch in, one
value per point, a row of them per function of a stack, or a scalar out)
and built from operations a ``Jet`` supports; coefficients and guards see
the plain batch.  Nested application is not supported: write it as a
longer word.  A single ``AmbientPoint`` is applied as a one-point batch.

Charts (names used throughout the package and on the CLI):

    equidistant          (t1, t2):  w = (ch t1 ch t2, ch t1 sh t2, sh t1)
    horicyclic           (x, y), y > 0:
                         w = ((x^2+y^2+1)/2y, (x^2+y^2-1)/2y, x/y)
    elliptic-parabolic   (a, th), a > 0, |th| < pi/2
    hyperbolic-parabolic (b, th), b > 0, 0 < th < pi/2
    semi-hyperbolic      (mu, nu) with parameters (a_c, b_c, e3),
                         nu < e3 < mu; built on the complexified sphere,
                         see chart_points for the sign conventions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    NonFiniteValueError,
    OutOfDomainError,
    SingularConfigurationError,
)
from .specfun import _asarray

__all__ = [
    "AmbientPoint",
    "AmbientPoints",
    "ChartPoint",
    "Jet",
    "OperatorExpr",
    "CHARTS",
    "GENERATORS",
    "ambient_to_chart",
    "apply_generator",
    "apply_operator",
    "apply_operators",
    "box_points",
    "chart_coordinates",
    "chart_points",
    "chart_to_ambient",
    "generator_flow",
    "hyperboloid_residual",
    "in_chart_domain",
    "laplace_beltrami",
    "on_sheet",
    "parabolic_coordinates",
    "semi_hyperbolic_to_ambient",
]

CHARTS = (
    "equidistant",
    "horicyclic",
    "elliptic-parabolic",
    "hyperbolic-parabolic",
    "semi-hyperbolic",
)
GENERATORS = ("K2", "K3", "M1")

# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

#: surface tolerance (relative to max(1, w0^2)) and upper-sheet tolerance
_SURFACE_TOL = 1e-12
_SHEET_TOL = 1e-12


@dataclass(frozen=True)
class AmbientPoint:
    """A point on the upper sheet, validated on construction (``on_sheet``)."""

    w0: float
    w1: float
    w2: float

    def __post_init__(self):
        if not on_sheet(self.w0, self.w1, self.w2):
            raise OutOfDomainError(f"point ({self.w0}, {self.w1}, {self.w2}) "
                                   f"is not on the upper sheet")


def on_sheet(w0, w1, w2) -> np.ndarray:
    """Elementwise: is (w0, w1, w2) on the upper sheet, within the surface
    tolerance (relative to max(1, w0^2)) and the sheet tolerance?"""
    w0, w1, w2 = (np.asarray(w, dtype=float) for w in (w0, w1, w2))
    with np.errstate(invalid="ignore", over="ignore"):
        r = np.abs(w0 * w0 - w1 * w1 - w2 * w2 - 1.0)
        return (np.isfinite(r) & (r <= _SURFACE_TOL * np.maximum(1.0, w0 * w0))
                & (w0 >= 1.0 - _SHEET_TOL))


@dataclass(frozen=True, eq=False)
class AmbientPoints:
    """A batch of points on the upper sheet: three equal-length float arrays,
    validated once on construction as AmbientPoint is."""

    w0: np.ndarray
    w1: np.ndarray
    w2: np.ndarray

    def __post_init__(self):
        ws = [np.asarray(w, dtype=float).ravel() for w in (self.w0, self.w1, self.w2)]
        if not ws[0].shape == ws[1].shape == ws[2].shape:
            raise OutOfDomainError("w0, w1, w2 must have the same length")
        for name, w in zip(("w0", "w1", "w2"), ws):
            object.__setattr__(self, name, w)
        bad = np.flatnonzero(~on_sheet(*ws))
        if bad.size:
            i = int(bad[0])
            raise OutOfDomainError(
                f"point {i} ({ws[0][i]}, {ws[1][i]}, {ws[2][i]}) is not on "
                f"the upper sheet ({bad.size} such points)")

    @classmethod
    def stack(cls, points) -> "AmbientPoints":
        """Batch of AmbientPoint objects (an AmbientPoints passes through)."""
        if isinstance(points, AmbientPoints):
            return points
        return cls(np.array([q.w0 for q in points], dtype=float),
                   np.array([q.w1 for q in points], dtype=float),
                   np.array([q.w2 for q in points], dtype=float))

    def __len__(self) -> int:
        return self.w0.size

    def __getitem__(self, index) -> "AmbientPoints":
        return AmbientPoints(self.w0[index], self.w1[index], self.w2[index])

    def point(self, i: int) -> AmbientPoint:
        return AmbientPoint(float(self.w0[i]), float(self.w1[i]),
                            float(self.w2[i]))


def hyperboloid_residual(q):
    """|w0^2 - w1^2 - w2^2 - 1| of an AmbientPoint (a float) or of every
    point of an AmbientPoints (an array)."""
    r = np.abs(q.w0 * q.w0 - q.w1 * q.w1 - q.w2 * q.w2 - 1.0)
    return r if isinstance(q, AmbientPoints) else float(r)


#: the coordinate domain of each chart, as ChartPoint's error message states it
_DOMAINS = {
    "equidistant": "finite t1, t2",
    "horicyclic": "finite x, y > 0",
    "elliptic-parabolic": "finite a > 0, |theta| < pi/2",
    "hyperbolic-parabolic": "finite b > 0, 0 < theta < pi/2",
    "semi-hyperbolic": "b_c != 0, finite nu < e3 < mu",
}


def in_chart_domain(chart: str, u1, u2, chart_params=None) -> np.ndarray:
    """Elementwise: is (u1, u2) inside the chart's coordinate domain?

    The one statement of the domains (see ``_DOMAINS``): ChartPoint
    validates with it, and the CLI's wavefunction grid marks the cells
    outside it.  Coordinates must be finite; the semi-hyperbolic chart
    needs chart_params = (a_c, b_c, e3).
    """
    if chart not in CHARTS:
        raise OutOfDomainError(f"unknown chart {chart!r}")
    u1, u2 = (_asarray(u) for u in (u1, u2))
    ok = np.isfinite(u1) & np.isfinite(u2)
    if chart == "horicyclic":
        ok &= u2 > 0.0
    elif chart == "elliptic-parabolic":
        ok &= (u1 > 0.0) & (np.abs(u2) < math.pi / 2)
    elif chart == "hyperbolic-parabolic":
        ok &= (u1 > 0.0) & (0.0 < u2) & (u2 < math.pi / 2)
    elif chart == "semi-hyperbolic":
        _, b_c, e3 = chart_params
        ok &= (b_c != 0.0) & (u2 < e3) & (e3 < u1)
    return ok


@dataclass(frozen=True)
class ChartPoint:
    """Chart coordinates (u1, u2); semi-hyperbolic also needs chart_params.

    chart_params for the semi-hyperbolic chart is (a_c, b_c, e3): the
    elliptic-coordinate foci parameters e1 = conj(e2) = a_c + i b_c and the
    real e3.  They are never defaulted silently.
    """

    chart: str
    u1: float
    u2: float
    chart_params: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.chart == "semi-hyperbolic" and self.chart_params is None:
            raise OutOfDomainError(
                "semi-hyperbolic chart requires chart_params = (a_c, b_c, e3)")
        if not in_chart_domain(self.chart, self.u1, self.u2, self.chart_params):
            raise OutOfDomainError(
                f"{self.chart} chart needs {_DOMAINS[self.chart]} "
                f"(got {self.u1}, {self.u2})")


# ---------------------------------------------------------------------------
# Chart maps
# ---------------------------------------------------------------------------

def chart_points(chart: str, u1, u2, chart_params=None,
                 w2_sign: int = +1) -> AmbientPoints:
    """Ambient points of chart coordinate arrays, one per pair (u1, u2).

    The result is validated as an AmbientPoints batch (every point on the
    upper sheet); the chart's coordinate domain is checked only by
    ChartPoint, so mirrored coordinates (a < 0 on the elliptic-parabolic
    chart) map to their mirror points.  ``w2_sign`` selects the sheet for
    the semi-hyperbolic chart, where the coordinates determine only w2^2;
    it is ignored by the other charts.  For semi-hyperbolic points, w0 > 0
    is enforced and the sign of w1 follows by continuity (principal square
    root of s1^2, whose real part never vanishes on the domain).
    """
    u1, u2 = (np.asarray(u, dtype=float) for u in (u1, u2))
    if chart == "equidistant":
        ch = np.cosh(u1)
        w = (ch * np.cosh(u2), ch * np.sinh(u2), np.sinh(u1))
    elif chart == "horicyclic":
        r, y2 = u1 * u1 + u2 * u2, 2.0 * u2
        w = ((r + 1.0) / y2, (r - 1.0) / y2, u1 / u2)
    elif chart == "elliptic-parabolic":
        ca, ct = np.cosh(u1), np.cos(u2)
        cc = 2.0 * ca * ct
        w = ((ca**2 + ct**2) / cc, (np.sinh(u1) ** 2 - np.sin(u2) ** 2) / cc,
             np.tanh(u1) * np.tan(u2))
    elif chart == "hyperbolic-parabolic":
        sb, st = np.sinh(u1), np.sin(u2)
        ss = 2.0 * sb * st
        w = ((np.cosh(u1) ** 2 + np.cos(u2) ** 2) / ss, (sb**2 - st**2) / ss,
             1.0 / (np.tanh(u1) * np.tan(u2)))
    elif chart == "semi-hyperbolic":
        w = semi_hyperbolic_to_ambient(u1, u2, chart_params, w2_sign)
    else:
        raise OutOfDomainError(f"unknown chart {chart!r}")
    return AmbientPoints(*np.broadcast_arrays(*w))


@functools.cache
def _kronecker_step(d: int) -> np.ndarray:
    """alpha_j = g^-j, j = 1..d, with g the positive root of g^(d+1) = g + 1
    (the golden ratio for d = 1), by the contracting fixed-point iteration
    g <- (1 + g)^(1/(d+1))."""
    g = 1.0
    for _ in range(100):
        g = (1.0 + g) ** (1.0 / (d + 1))
    return g ** -np.arange(1.0, d + 1.0)


def box_points(n: int, lo, hi) -> np.ndarray:
    """n points of the box [lo, hi], one per row: the Kronecker (R_d)
    design lo + (hi - lo) frac(1/2 + i alpha), i = 1..n, with alpha from
    ``_kronecker_step``.  The points depend on (n, lo, hi) alone, the first
    n of any longer design are these, and each coordinate is equidistributed
    (Weyl, Math. Ann. 77 (1916) 313)."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    i = np.arange(1.0, n + 1.0)[:, None]
    return lo + (hi - lo) * np.mod(0.5 + i * _kronecker_step(lo.size), 1.0)


def chart_to_ambient(p: ChartPoint, w2_sign: int = +1) -> AmbientPoint:
    """The ambient point of a validated ChartPoint (see ``chart_points``)."""
    return chart_points(p.chart, p.u1, p.u2, p.chart_params, w2_sign).point(0)


def semi_hyperbolic_to_ambient(mu, nu, chart_params, w2_sign: int = +1):
    """Ambient coordinates (w0, w1, w2) of semi-hyperbolic chart points.

    Takes scalars or arrays and does not validate: points outside
    nu < e3 < mu come back as NaN or off the sheet (see ``on_sheet``).
    """
    a_c, b_c, e3 = chart_params
    e1 = complex(a_c, b_c)
    e2 = e1.conjugate()
    s1sq = (mu - e1) * (nu - e1) / ((e1 - e2) * (e1 - e3))
    # Re s1sq > 0 on the domain, so the principal root is smooth
    with np.errstate(invalid="ignore"):
        s1 = np.sqrt(s1sq)
        w2 = w2_sign * np.sqrt((mu - e3) * (e3 - nu) / ((e3 - a_c) ** 2 + b_c ** 2))
    return math.sqrt(2.0) * s1.real, math.sqrt(2.0) * s1.imag, w2


def chart_coordinates(q, chart: str):
    """Chart coordinates (u1, u2) of an AmbientPoint (floats) or of an
    AmbientPoints batch (arrays); not available for semi-hyperbolic.

    Horicyclic inversion: y = 1/(w0 - w1), x = w2/(w0 - w1); note that
    w0 - w1 > 0 holds everywhere on the upper sheet.
    """
    w0, w1, w2 = (_asarray(w) for w in (q.w0, q.w1, q.w2))
    d = w0 - w1  # > 0 on the upper sheet
    if chart == "equidistant":
        u1, u2 = np.arcsinh(w2), np.arctanh(w1 / w0)
    elif chart == "horicyclic":
        u1, u2 = w2 / d, 1.0 / d
    elif chart in ("elliptic-parabolic", "hyperbolic-parabolic"):
        if chart == "hyperbolic-parabolic" and np.any(w2 <= 0.0):
            raise OutOfDomainError("hyperbolic-parabolic chart covers w2 > 0 only")
        u1, u2 = parabolic_coordinates(chart, d, w2 / d, 2.0 * w1 / d)
    else:
        raise OutOfDomainError(f"no inversion implemented for chart {chart!r}")
    if isinstance(q, AmbientPoints):
        return u1, u2
    return float(u1), float(u2)


def parabolic_coordinates(chart: str, d, r, D):
    """(u1, u2) on a parabolic chart from d = w0 - w1, r = w2/d, D = 2 w1/d:
    x = sinh^2 u1 and y = sin^2 u2 solve x - y = D and x y = s, and
    cos^2 u2 = c / (1 + x), with (s, c) = (r^2, 1/d^2) on the
    elliptic-parabolic chart (where u2 takes the sign of r) and swapped on
    the hyperbolic-parabolic one; each root from its cancellation-free side."""
    s, c = r**2, 1.0 / (d * d)
    if chart == "hyperbolic-parabolic":
        s, c = c, s
    big = 0.5 * (np.abs(D) + np.sqrt(D * D + 4.0 * s))
    small = s / np.where(big > 0.0, big, 1.0)
    x, y = np.where(D >= 0.0, big, small), np.where(D >= 0.0, small, big)
    u1 = np.arcsinh(np.sqrt(x))
    u2 = np.arctan2(np.sqrt(y), np.sqrt(c / (1.0 + x)))
    return u1, (np.where(r < 0.0, -u2, u2) if chart == "elliptic-parabolic" else u2)


def ambient_to_chart(q: AmbientPoint, chart: str) -> ChartPoint:
    """Invert a chart map (not available for semi-hyperbolic)."""
    return ChartPoint(chart, *chart_coordinates(q, chart))


# ---------------------------------------------------------------------------
# Generator flows
# ---------------------------------------------------------------------------

#: the generator matrices A_g: the flow of g for time t is exp(t A_g)
_GENERATOR_MATRIX = {
    "K3": ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    "K2": ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
    "M1": ((0.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, 1.0, 0.0)),
}


def generator_flow(g: str, t: float, q: AmbientPoint) -> AmbientPoint:
    """Exact one-parameter subgroup action of generator g for time t:
    exp(t A) = I + sinh t A + (cosh t - 1) A^2 for a boost (A^3 = A), and
    I + sin t A + (1 - cos t) A^2 for the rotation (A^3 = -A)."""
    if g not in GENERATORS:
        raise OutOfDomainError(f"unknown generator {g!r}")
    s, c = ((math.sin(t), 1.0 - math.cos(t)) if g == "M1"
            else (math.sinh(t), math.cosh(t) - 1.0))
    a, w = np.array(_GENERATOR_MATRIX[g]), np.array([q.w0, q.w1, q.w2])
    return AmbientPoint(*(w + s * (a @ w) + c * (a @ (a @ w))).tolist())


# ---------------------------------------------------------------------------
# Multilinear jets
# ---------------------------------------------------------------------------

@dataclass(eq=False, slots=True)
class Jet:
    """sum_S c[S] eps_S over the subsets S of {1..k}, k <= 3, eps_i^2 = 0 (a
    multilinear hyper-dual number; Fike & Alonso, AIAA 2011-886), c[S] on the
    leading axis of ``c`` (bit i of S marks eps_{i+1}); a product sums its
    subset pairs (S, T - S) by one 0/1 matrix product.  An elementary ufunc
    acts by its Taylor polynomial of order k, exact as d^(k+1) = 0 for the
    nilpotent part d; comparisons, isnan, isfinite, where and minimum read
    the value part ``c[0]``.  Coercing a jet to an array fails loudly."""

    c: np.ndarray
    shape = property(lambda self: self.c.shape[1:])
    ndim = property(lambda self: self.c.ndim - 1)
    size = property(lambda self: math.prod(self.c.shape[1:]))
    real = property(lambda self: Jet(self.c.real))
    __add__ = __radd__ = lambda self, o: _add(self, o)
    __sub__ = lambda self, o: _add(self, -o)
    __rsub__ = lambda self, o: _add(-self, o)
    __mul__ = __rmul__ = lambda self, o: _mul(self, o)
    __truediv__ = lambda self, o: _div(self, o)
    __rtruediv__ = lambda self, o: _div(o, self)
    __pow__ = lambda self, p: _pow(self, p)
    __neg__ = lambda self: Jet(-self.c)
    __lt__ = lambda self, o: self.c[0] < _value(o)
    __le__ = lambda self, o: self.c[0] <= _value(o)
    __gt__ = lambda self, o: self.c[0] > _value(o)
    __ge__ = lambda self, o: self.c[0] >= _value(o)
    __eq__ = lambda self, o: self.c[0] == _value(o)
    __hash__ = None

    def __array__(self, *args, **kwargs):
        raise TypeError("a Jet has no array form")

    def __getitem__(self, i):
        return Jet(self.c[(slice(None),) + (i if isinstance(i, tuple) else (i,))])

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        if ufunc in _PREDICATES:
            return ufunc(*map(_value, args))
        if ufunc in _DERIVATIVES:
            y = ufunc(args[0].c[0])
            return _series(args[0], y, _DERIVATIVES[ufunc](args[0].c[0], y))
        return _UFUNCS[ufunc](*args) if ufunc in _UFUNCS else NotImplemented

    def __array_function__(self, func, types, args, kwargs):
        return _FUNCTIONS[func](*args, **kwargs) if func in _FUNCTIONS else NotImplemented


def _value(x):
    return x.c[0] if isinstance(x, Jet) else x


def _pad(c: np.ndarray, nd: int) -> np.ndarray:
    """Components c with at least nd value axes (leading unit axes added)."""
    return c.reshape(c.shape[:1] + (1,) * (nd + 1 - c.ndim) + c.shape[1:])


def _parts(xs) -> list[np.ndarray]:
    """The components of jets and plain values xs, with common value axes."""
    m = next(len(x.c) for x in xs if isinstance(x, Jet))
    cs = [x.c if isinstance(x, Jet) else np.concatenate(
        [np.asarray(x)[None], np.zeros((m - 1,) + np.shape(x), np.result_type(x))])
        for x in xs]
    nd = max(c.ndim for c in cs) - 1
    return [_pad(c, nd) for c in cs]


@functools.cache
def _subset_pairs(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs (S, T - S), S in T, and the 0/1 matrix that sums them by T."""
    pairs = [(s, t ^ s) for t in range(m) for s in range(m) if s & t == s]
    ia, ib = np.array(pairs).T
    return ia, ib, (np.arange(m)[:, None] == ia | ib).astype(float)


def _add(a, b) -> Jet:
    return Jet(np.add(*_parts((a, b))))


def _mul(a, b) -> Jet:
    if not isinstance(a, Jet) or not isinstance(b, Jet):  # a plain factor
        jet, x = (a, b) if isinstance(a, Jet) else (b, a)
        return Jet(_pad(jet.c, np.ndim(x)) * x)
    return Jet(_conv(*_parts((a, b))))


def _conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The components of the product of two jets' components a and b."""
    ia, ib, group = _subset_pairs(len(a))
    pairs = a[ia] * b[ib]
    return (group @ pairs.reshape(len(ia), -1)).reshape((len(a),) + pairs.shape[1:])


def _div(a, b) -> Jet:
    if not isinstance(b, Jet):
        return Jet(_pad(a.c, np.ndim(b)) / b)
    out = _mul(a, b ** -1.0)
    out.c[0] = _value(a) / b.c[0]
    return out


def _order(x: Jet) -> int:
    """The jet's order k: its 2^k components end at d^(k+1) = 0."""
    return len(x.c).bit_length() - 1


def _series(x: Jet, value, derivs) -> Jet:
    """f(x0 + d) = sum_j f^(j)(x0) d^j / j!, j <= k, the jet's order, from
    the iterable f^(j)(x0), j = 1, 2, ...; it is read no further than k."""
    d = x.c.copy()
    d[0] = 0.0
    terms = [dj / math.factorial(j)
             for j, dj in enumerate(itertools.islice(derivs, _order(x)), 1)]
    out = d * terms.pop() if terms else d
    for dj in reversed(terms):  # Horner; a multiple of d has value part 0
        out[0] = dj
        out = _conv(out, d)
    out[0] = value
    return Jet(out)


def _pow(x: Jet, p) -> Jet:
    whole = np.isrealobj(p) and p >= 0 and p == math.floor(p)
    # a whole power p >= 0 has no derivatives past order p
    return _series(x, x.c[0] ** p, (
        0.0 if whole and p < j else
        math.prod(p - i for i in range(j)) * x.c[0] ** (p - j)
        for j in range(1, _order(x) + 1)))


def _arctan2(y, x) -> Jet:
    # plus the arctan of the (nilpotent) tangent of the angle difference
    y0, x0 = _value(y), _value(x)
    out = np.arctan((x0 * y - y0 * x) / (x0 * x + y0 * y))
    out.c[0] = np.arctan2(y0, x0)
    return out


def _where(cond, a, b) -> Jet:
    a, b, cond = _parts((a, b, _value(cond)))
    return Jet(np.where(cond[0], a, b))


def _lazy(d1, *fs):
    """d1, then f(d1) for each of fs, each evaluated only when taken."""
    return itertools.chain((d1,), (f(d1) for f in fs))


#: the first three derivatives of each elementary ufunc at x, with value y,
#: evaluated only as far as ``_series`` takes them
_DERIVATIVES = {
    np.exp: lambda x, y: (y, y, y),
    np.log: lambda x, y: _lazy(1.0 / x, lambda u: -1.0 / x**2, lambda u: 2.0 / x**3),
    np.log1p: lambda x, y: _DERIVATIVES[np.log](1.0 + x, y),
    np.sqrt: lambda x, y: _lazy(0.5 / y, lambda u: -0.25 / (x * y),
                                lambda u: 0.375 / (x * x * y)),
    np.sin: lambda x, y: _lazy(np.cos(x), lambda c: -y, lambda c: -c),
    np.cos: lambda x, y: _lazy(-np.sin(x), lambda s: -y, lambda s: -s),
    np.sinh: lambda x, y: _lazy(np.cosh(x), lambda c: y, lambda c: c),
    np.cosh: lambda x, y: _lazy(np.sinh(x), lambda s: y, lambda s: s),
    np.tanh: lambda x, y: _lazy(1.0 - y * y, lambda u: -2.0 * y * u,
                                lambda u: (6.0 * y * y - 2.0) * u),
    np.arctan: lambda x, y: _lazy(1.0 / (1.0 + x * x), lambda u: -2.0 * x * u * u,
                                  lambda u: (6.0 * x * x - 2.0) * u**3),
    np.arctanh: lambda x, y: _lazy(1.0 / (1.0 - x * x), lambda u: 2.0 * x * u * u,
                                   lambda u: (6.0 * x * x + 2.0) * u**3),
    np.arcsinh: lambda x, y: _lazy(1.0 / np.sqrt(1.0 + x * x), lambda r: -x * r**3,
                                   lambda r: (2.0 * x * x - 1.0) * r**5),
}
_PREDICATES = {np.isnan, np.isfinite}
_UFUNCS = {
    np.add: _add, np.subtract: lambda a, b: _add(a, -b), np.multiply: _mul,
    np.true_divide: _div, np.arctan2: _arctan2,
    np.absolute: lambda x: (_where(x.c[0] < 0.0, -x, x)
                            if np.isrealobj(x.c) else NotImplemented),
    np.minimum: lambda a, b: _where(_value(a) <= _value(b), a, b),
}
_FUNCTIONS = {
    np.where: _where, np.shape: lambda x: x.shape,
    np.ones_like: lambda x, dtype=None: np.ones(x.shape, dtype or x.c.dtype),
}


# ---------------------------------------------------------------------------
# Operator expressions
# ---------------------------------------------------------------------------

#: a guard smaller than this in modulus refuses the evaluation
_GUARD_TOL = 1e-8


@dataclass(frozen=True)
class OperatorExpr:
    """Linear combination of generator words with ambient-function coefficients.

    terms         : sequence of (coefficient, word) where word is a tuple of
                    generator names, len(word) <= 3, applied right to left;
                    the coefficient is a number or an array-safe callable of
                    an AmbientPoints batch (one value per point, or a scalar).
    constant_term : multiple of the identity added to the combination.
    guards        : array-safe callables of the batch whose smallness marks a
                    coefficient singularity; evaluation is refused when any
                    |guard(q)| < 1e-8 (_GUARD_TOL).
    """

    terms: tuple
    constant_term: complex = 0.0
    guards: tuple = ()
    name: str = ""

    def __post_init__(self):
        for coeff, word in self.terms:
            if len(word) > 3:
                raise OutOfDomainError("operator words longer than 3 not supported")
            for g in word:
                if g not in GENERATORS:
                    raise OutOfDomainError(f"unknown generator {g!r} in word")


def _jet_points(q: AmbientPoints, words: list) -> AmbientPoints:
    """Each word's block of (I + eps_j A_{g_j}) ... (I + eps_1 A_{g_1}) q as
    jets: component S applies the A_g of the letters in S to q."""
    m = 1 << max(map(len, words))
    c = np.zeros((m, 3, len(words), len(q)))
    for i, word in enumerate(words):
        c[0, :, i] = q.w0, q.w1, q.w2
        for j, g in enumerate(word):
            c[1 << j:2 << j, :, i] = np.array(_GENERATOR_MATRIX[g]) @ c[:1 << j, :, i]
    pts = object.__new__(AmbientPoints)  # no validation: the values are q
    for k, name in enumerate(("w0", "w1", "w2")):
        object.__setattr__(pts, name, Jet(c[:, k].reshape(m, -1)))
    return pts


def _check_finite(v: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise NonFiniteValueError("non-finite value in generator application")
    return v


def apply_operators(exprs, f: Callable, q) -> list:
    """Apply each OperatorExpr of exprs to f at q, exactly.

    q is an AmbientPoints batch (each result has one value per point, on
    its last axis) or an AmbientPoint (each result is a number, of an f
    with one value per point).  f is called once, on the jet points of the distinct words with a nonzero
    coefficient in any expression, and may return leading axes (one row
    per function of a stack), which every result keeps.  A guard of any
    expression refuses the call; a non-finite component of f, value or
    derivative, raises NonFiniteValueError.
    """
    if not isinstance(q, AmbientPoints):
        return [v[..., 0].item() for v in apply_operators(
            exprs, f, AmbientPoints.stack([q]))]
    n = len(q)
    for expr in exprs:
        for guard in expr.guards:
            small = np.atleast_1d(np.abs(guard(q)) < _GUARD_TOL)
            if np.any(small):
                bad = q.point(int(np.argmax(small)))
                raise SingularConfigurationError(
                    f"operator {expr.name or '<anon>'} singular at "
                    f"({bad.w0}, {bad.w1}, {bad.w2})")
    terms = []
    for expr in exprs:
        ts = [(coeff(q) if callable(coeff) else coeff, tuple(word))
              for coeff, word in expr.terms]
        terms.append([(c, word) for c, word in ts if not np.all(c == 0.0)])
    words = list(dict.fromkeys(word for ts in terms for _, word in ts if word)) or [()]
    p = _jet_points(q, words)
    with np.errstate(all="ignore"):  # a non-finite component raises below
        out = f(p)
    # a plain value (a constant f) has no nilpotent parts
    c = _check_finite(np.broadcast_arrays(*_parts((p.w0, out)))[1])
    values = {word: c[(1 << len(word)) - 1, ..., i * n:(i + 1) * n]
              for i, word in enumerate(words)}
    values[()] = c[0, ..., :n]
    totals = []
    for expr, ts in zip(exprs, terms):
        total = (expr.constant_term * values[()]
                 if expr.constant_term != 0.0 else 0.0)
        for coeff, word in ts:
            total = total + coeff * values[word]
        totals.append(_check_finite(np.broadcast_to(total, values[()].shape)))
    return totals


def apply_operator(expr: OperatorExpr, f: Callable, q):
    """``apply_operators`` of the one expression expr."""
    return apply_operators((expr,), f, q)[0]


def apply_generator(g: str, f: Callable, q):
    """Derivative of f along generator g at q (AmbientPoint or AmbientPoints)."""
    return apply_operator(OperatorExpr(terms=((1.0, (g,)),)), f, q)


def laplace_beltrami() -> OperatorExpr:
    """K3^2 + K2^2 - M1^2."""
    return OperatorExpr(
        terms=(
            (1.0, ("K3", "K3")),
            (1.0, ("K2", "K2")),
            (-1.0, ("M1", "M1")),
        ),
        name="laplace_beltrami",
    )
