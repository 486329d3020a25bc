"""Coordinate charts of the upper hyperboloid sheet and so(2,1) machinery.

The surface is w0^2 - w1^2 - w2^2 = 1 with w0 >= 1.  Three Killing
generators act on ambient functions:

    K3 = w0 d/dw1 + w1 d/dw0        (boost in the (w0, w1) plane)
    K2 = w0 d/dw2 + w2 d/dw0        (boost in the (w0, w2) plane)
    M1 = w1 d/dw2 - w2 d/dw1        (rotation in the (w1, w2) plane)

with [K3, K2] = M1, [K2, M1] = -K3, [K3, M1] = K2, and the Laplace-Beltrami
operator is K3^2 + K2^2 - M1^2.

Derivatives are taken numerically: a generator is applied as a central
difference of the function along the generator's *exact* one-parameter
flow (optionally Richardson-extrapolated), so evaluation points never
leave the surface.  Products of up to three generators are applied as
nested differences.

Operators are applied to whole batches of sample points.  For each
generator word, ``apply_operator`` builds the full stencil (the exact flows
applied level by level to coordinate arrays: 4^k points per sample point
for a word of length k with Richardson, 2^k without).  It calls the
function once on the stencils of all words together, then splits the
values and reduces each word's level by level.  Every function passed to
``apply_operator``, and every ``OperatorExpr`` coefficient and guard, must
therefore be array-safe: it takes an ``AmbientPoints`` batch and returns
one value per point (or a scalar, which is broadcast).  A single
``AmbientPoint`` is applied as a one-point batch.

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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    NonFiniteValueError,
    OutOfDomainError,
    SingularConfigurationError,
)

__all__ = [
    "AmbientPoint",
    "AmbientPoints",
    "ChartPoint",
    "OperatorExpr",
    "CHARTS",
    "GENERATORS",
    "ambient_to_chart",
    "apply_generator",
    "apply_operator",
    "chart_coordinates",
    "chart_points",
    "chart_to_ambient",
    "generator_flow",
    "hyperboloid_residual",
    "in_chart_domain",
    "laplace_beltrami",
    "on_sheet",
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

#: default differentiation step (one Richardson level on top)
DEFAULT_STEP = 1e-4


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

#: surface tolerance (relative to max(1, w0^2)) and upper-sheet tolerance
_SURFACE_TOL = 1e-12
_SHEET_TOL = 1e-12


@dataclass(frozen=True)
class AmbientPoint:
    """A point on the upper sheet, validated on construction."""

    w0: float
    w1: float
    w2: float

    def __post_init__(self):
        r = abs(self.w0 * self.w0 - self.w1 * self.w1 - self.w2 * self.w2 - 1.0)
        if not (math.isfinite(r)
                and r <= _SURFACE_TOL * max(1.0, self.w0 * self.w0)):
            raise OutOfDomainError(
                f"point ({self.w0}, {self.w1}, {self.w2}) is off the surface "
                f"(residual {r:.3e})")
        if self.w0 < 1.0 - _SHEET_TOL:
            raise OutOfDomainError("lower sheet: w0 < 1")


def on_sheet(w0, w1, w2) -> np.ndarray:
    """Elementwise: does (w0, w1, w2) pass AmbientPoint's validation?"""
    w0, w1, w2 = (np.asarray(w, dtype=float) for w in (w0, w1, w2))
    with np.errstate(invalid="ignore", over="ignore"):
        r = np.abs(w0 * w0 - w1 * w1 - w2 * w2 - 1.0)
        return (np.isfinite(r) & (r <= _SURFACE_TOL * np.maximum(1.0, w0 * w0))
                & (w0 >= 1.0 - _SHEET_TOL))


@dataclass(frozen=True, eq=False)
class AmbientPoints:
    """A batch of points on the upper sheet: three equal-length float arrays,
    validated once on construction with AmbientPoint's tolerances."""

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
    u1, u2 = (np.asarray(u, dtype=float) for u in (u1, u2))
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
    w0, w1, w2 = (np.asarray(w, dtype=float) for w in (q.w0, q.w1, q.w2))
    d = w0 - w1  # > 0 on the upper sheet
    if chart == "equidistant":
        u1, u2 = np.arcsinh(w2), np.arctanh(w1 / w0)
    elif chart == "horicyclic":
        u1, u2 = w2 / d, 1.0 / d
    elif chart in ("elliptic-parabolic", "hyperbolic-parabolic"):
        if chart == "hyperbolic-parabolic" and np.any(w2 <= 0.0):
            raise OutOfDomainError("hyperbolic-parabolic chart covers w2 > 0 only")
        # x = sinh^2 u1 and y = sin^2 u2 solve x - y = 2 w1 / d and x y = s,
        # and cos^2 u2 = c / (1 + x), with (s, c) = ((w2/d)^2, 1/d^2) on the
        # elliptic-parabolic chart and swapped on the hyperbolic-parabolic
        # one; each root comes from the cancellation-free side
        s, c = (w2 / d) ** 2, 1.0 / (d * d)
        if chart == "hyperbolic-parabolic":
            s, c = c, s
        D = 2.0 * w1 / d
        big = 0.5 * (np.abs(D) + np.sqrt(D * D + 4.0 * s))
        small = s / np.where(big > 0.0, big, 1.0)
        x, y = np.where(D >= 0.0, big, small), np.where(D >= 0.0, small, big)
        u1 = np.arcsinh(np.sqrt(x))
        u2 = np.arctan2(np.sqrt(y), np.sqrt(c / (1.0 + x)))
        if chart == "elliptic-parabolic":
            u2 = np.where(w2 < 0.0, -u2, u2)
    else:
        raise OutOfDomainError(f"no inversion implemented for chart {chart!r}")
    if isinstance(q, AmbientPoints):
        return u1, u2
    return float(u1), float(u2)


def ambient_to_chart(q: AmbientPoint, chart: str) -> ChartPoint:
    """Invert a chart map (not available for semi-hyperbolic)."""
    return ChartPoint(chart, *chart_coordinates(q, chart))


# ---------------------------------------------------------------------------
# Generator flows and numerical derivatives
# ---------------------------------------------------------------------------

def _trig(g: str, t: float) -> tuple[float, float]:
    """(cosh t, sinh t) for a boost, (cos t, sin t) for the rotation."""
    if g in ("K3", "K2"):
        return math.cosh(t), math.sinh(t)
    if g == "M1":
        return math.cos(t), math.sin(t)
    raise OutOfDomainError(f"unknown generator {g!r}")


def _flow(g: str, c, s, w0, w1, w2):
    """Flow of generator g on coordinates, given _trig(g, t) = (c, s);
    floats or broadcasting arrays."""
    if g == "K3":
        return w0 * c + w1 * s, w0 * s + w1 * c, w2
    if g == "K2":
        return w0 * c + w2 * s, w1, w0 * s + w2 * c
    return w0, w1 * c - w2 * s, w1 * s + w2 * c


def generator_flow(g: str, t: float, q: AmbientPoint) -> AmbientPoint:
    """Exact one-parameter subgroup action of generator g for time t."""
    return AmbientPoint(*_flow(g, *_trig(g, t), q.w0, q.w1, q.w2))


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


def _div(x: np.ndarray, d: float) -> np.ndarray:
    """x / d for real d.  Complex x is divided part by part, which rounds
    as Python's complex division does (numpy multiplies by 1/d)."""
    if np.iscomplexobj(x):
        return (np.ascontiguousarray(x).view(float) / d).view(complex)
    return x / d


def _stencil(word: tuple, pts: AmbientPoints, h: float, richardson: bool):
    """Coordinate arrays (w0, w1, w2) of the word's stencil on the batch.

    Level k flows each point of level k-1 along word[k-1] by +h, -h (and
    +h/2, -h/2 with Richardson), so the arrays have one axis per generator
    after the point axis, outermost first.  The empty word is the batch.
    """
    w = (pts.w0, pts.w1, pts.w2)
    if not word:
        return w
    if not h > 0.0:
        raise OutOfDomainError("step h must be positive")
    h2 = h / 2.0
    steps = (h, -h, h2, -h2) if richardson else (h, -h)
    for g in word:
        c, s = np.array([_trig(g, t) for t in steps]).T
        w = _flow(g, c, s, *(x[..., None] for x in w))
    # a coordinate a flow leaves alone keeps length-1 axes
    return tuple(np.broadcast_arrays(*w))


def _reduce(word: tuple, v: np.ndarray, h: float,
            richardson: bool) -> np.ndarray:
    """The word's values from its stencil values v (shaped as the stencil),
    reduced innermost axis first with d(h) = (f(+h) - f(-h))/(2h) and
    (4 d(h/2) - d(h))/3 at every level."""
    h2 = h / 2.0
    for _ in word:
        d1 = _div(v[..., 0] - v[..., 1], 2.0 * h)
        if richardson:
            d2 = _div(v[..., 2] - v[..., 3], 2.0 * h2)
            d1 = _div(4.0 * d2 - d1, 3.0)
        v = d1
    return v


def _check_finite(v: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise NonFiniteValueError("non-finite value in generator application")
    return v


def apply_operator(expr: OperatorExpr, f: Callable, q, h: float = DEFAULT_STEP,
                   richardson: bool = True):
    """Apply an OperatorExpr to f at q numerically.

    q is an AmbientPoints batch (returns one value per point) or an
    AmbientPoint (applied as a one-point batch; returns a number).  Words
    are realized by nested central differences along exact flows
    (right-to-left), each optionally Richardson extrapolated.  The stencils
    of all distinct words with a nonzero coefficient (and the identity, for
    a nonzero constant term) are concatenated and f is called once on all
    of them; f, the coefficients and the guards must be array-safe (see the
    module docstring).
    """
    if not isinstance(q, AmbientPoints):
        return apply_operator(expr, f, AmbientPoints.stack([q]), h,
                              richardson)[0].item()
    n = len(q)
    for guard in expr.guards:
        small = np.atleast_1d(np.abs(guard(q)) < _GUARD_TOL)
        if np.any(small):
            bad = q.point(int(np.argmax(small)))
            raise SingularConfigurationError(
                f"operator {expr.name or '<anon>'} singular at "
                f"({bad.w0}, {bad.w1}, {bad.w2})")

    terms = []
    for coeff, word in expr.terms:
        c = coeff(q) if callable(coeff) else coeff
        if not np.all(c == 0.0):
            terms.append((c, tuple(word)))
    words = [()] if expr.constant_term != 0.0 else []
    words = list(dict.fromkeys(words + [word for _, word in terms]))
    values = {}
    if words:
        stencils = [_stencil(word, q, h, richardson) for word in words]
        w0, w1, w2 = (np.concatenate([s[k].ravel() for s in stencils])
                      for k in range(3))
        p = AmbientPoints(w0, w1, w2)
        flat = np.broadcast_to(np.asarray(f(p)), (len(p),))
        _check_finite(flat)
        parts = np.split(flat, np.cumsum([s[0].size for s in stencils])[:-1])
        for word, s, v in zip(words, stencils, parts):
            values[word] = _reduce(word, v.reshape(s[0].shape), h, richardson)

    total = (expr.constant_term * values[()]
             if expr.constant_term != 0.0 else 0.0)
    for c, word in terms:
        total = total + c * values[word]
    return _check_finite(np.broadcast_to(total, (n,)))


def apply_generator(g: str, f: Callable, q, h: float = DEFAULT_STEP,
                    richardson: bool = True):
    """Derivative of f along generator g at q (AmbientPoint or AmbientPoints).

    Central difference along the exact flow: O(h^2), or O(h^4) with one
    Richardson level (default).
    """
    return apply_operator(OperatorExpr(terms=((1.0, (g,)),)), f, q, h=h,
                          richardson=richardson)


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
