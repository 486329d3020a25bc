"""First potential on the hyperboloid: spectrum, wavefunctions, zero equations.

The potential (ambient form)

    V1 = alpha^2/w2^2 - gamma^2/(w0-w1)^2 + beta^2 (w0+w1)/(w0-w1)^3

separates in the equidistant, horicyclic, elliptic-parabolic and
hyperbolic-parabolic charts.  Derived constants used throughout:

    d = sqrt(2 alpha^2 + 1/4)
    s = gamma^2 / (sqrt(2) beta)          (well-strength ratio)
    c = beta / sqrt(2)
    nu(N) = s - d - 2N - 2 = sqrt(-2 E_N + 1/4)

Bound levels: E_N = -(1/2) (2N + 2 + d - s)^2 + 1/8 for 0 <= N <= Nmax with
Nmax = [ (s - d - 2)/2 ] (the boundary state nu = 0, i.e. E = 1/8, is
rejected, not enumerated).

Conventions
-----------
* Normalization measure is the Riemannian volume element of each chart:
  equidistant cosh(t1) dt1 dt2, horicyclic dx dy/y^2, the conformal factors
  for the two parabolic charts.
* Equidistant/horicyclic one-dimensional factors carry the closed-form
  normalization constants; the potential wall at w2 = 0 splits the surface,
  and states are normalized on the half t1 > 0 (equivalently x > 0), with
  the |sinh t1|, |x| even extension across the wall.
* The horicyclic product is additionally scaled by 2 sqrt(nu/(sqrt2 beta))
  so that it is unit-norm in L^2(dx dy / y^2) on the half-chart; this makes
  both bases orthonormal in the *same* inner product, which is what the
  interbasis matrix requires.
* The zero ("Bethe-type") equations exist in two forms:
  ``form="printed"`` is the transcription of the published display;
  ``form="derived"``  is re-derived here from the confluent-Heun reduction
  of the separated equation.  The two differ (the printed display's
  gamma^2-terms are inconsistent with its own parent ODE); only the derived
  roots produce wavefunctions that satisfy the Schrodinger equation.  Both
  are exposed, each with its own residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import specfun as sf
from .errors import (
    NoBoundStateError,
    OutOfDomainError,
    OutOfWindowError,
    SingularConfigurationError,
    SolverFailureError,
)
from .geometry import AmbientPoint, AmbientPoints, ambient_to_chart, chart_coordinates

__all__ = [
    "BetheRoots",
    "P1Params",
    "P1State",
    "level_states_equidistant",
    "level_states_horicyclic",
    "morse_factor",
    "p1_energy",
    "p1_energy_from_elliptic_parabolic",
    "p1_energy_from_horicyclic",
    "p1_ep_lambda",
    "p1_ep_roots",
    "p1_hp_roots",
    "p1_hp_tau",
    "p1_mu",
    "p1_nu",
    "p1_spectrum",
    "p1_wf_elliptic_parabolic",
    "p1_wf_equidistant",
    "p1_wf_horicyclic",
    "p1_wf_hyperbolic_parabolic",
    "pt_factor",
    "osc_x_factor",
    "osc_y_factor",
    "wf_ambient",
]

SQRT2 = math.sqrt(2.0)
#: a window index whose boundary quantity (nu or mu) is at most this is
#: the boundary state itself, and is excluded
_WINDOW_TOL = 1e-12


def _lgamma(x: float) -> float:
    return sf.log_gamma(x).real


def _window_top(span: float) -> int:
    """Largest k with span - 2k > 0 (up to _WINDOW_TOL): the top index of
    a window whose boundary quantity span - 2k must stay positive.

    Every quantization window of both potentials has this form (the
    boundary quantity is nu for the level and n windows, mu for m); the
    result is negative when the window is empty.
    """
    k = math.floor(span / 2.0)
    if span - 2.0 * k <= _WINDOW_TOL:
        k -= 1
    return k


# ---------------------------------------------------------------------------
# Parameters, windows, spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class P1Params:
    """Coupling constants of the first potential (all strictly positive)."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0 and self.gamma > 0):
            raise OutOfDomainError("P1Params requires alpha, beta, gamma > 0")

    @property
    def d(self) -> float:
        return math.sqrt(2.0 * self.alpha**2 + 0.25)

    @property
    def s(self) -> float:
        return self.gamma**2 / (SQRT2 * self.beta)

    @property
    def c(self) -> float:
        return self.beta / SQRT2

    @property
    def nmax(self) -> int | None:
        """Largest bound N, or None if the spectrum is empty.

        The boundary level nu = 0 (E = 1/8 exactly) is excluded.
        """
        k = _window_top(self.s - self.d - 2.0)
        return k if k >= 0 else None

    @property
    def m_max(self) -> int:
        """Largest m of the Morse window (mu > 0 enforced)."""
        return _window_top(self.s - 1.0)


def p1_mu(p: P1Params, m: int) -> float:
    """Quantized equidistant separation constant mu = s - 2m - 1."""
    if m < 0 or m > p.m_max:
        raise OutOfWindowError(
            f"m = {m} outside Morse window 0..{p.m_max} "
            f"(mu = s - 2m - 1 must stay positive, s = {p.s:.6g})")
    return p.s - 2.0 * m - 1.0


def p1_n_max(p, mu: float) -> int:
    """Largest n of the Poschl-Teller window nu = mu - d - 2n - 1 > 0; only
    p.d enters, so the second potential uses it too."""
    return _window_top(mu - 1.0 - p.d)


def p1_nu(p: P1Params, N: int) -> float:
    """nu(N) = sqrt(-2 E_N + 1/4) = s - d - 2N - 2."""
    return p.s - p.d - 2.0 * N - 2.0


def _check_level(p: P1Params, N: int):
    nmax = p.nmax
    if nmax is None:
        raise NoBoundStateError(
            f"no bound states: s - d - 2 = {p.s - p.d - 2.0:.6g} < 0")
    if N < 0 or N > nmax:
        raise NoBoundStateError(f"N = {N} outside the bound window 0..{nmax}")


def p1_energy(p: P1Params, N: int) -> float:
    """E_N = -(1/2)(2N + 2 + d - s)^2 + 1/8."""
    _check_level(p, N)
    return -0.5 * (2.0 * N + 2.0 + p.d - p.s) ** 2 + 0.125


def p1_energy_from_horicyclic(p: P1Params, N: int) -> float:
    """Level energy from lambda1 + lambda2 = 1 with the horicyclic quantization.

    lambda1 = (sqrt2 beta/gamma^2)(2 n1 + d + 1) - 1 and
    lambda2 = (sqrt2 beta/gamma^2)(2 n2 + sqrt(-2E+1/4) + 1) + 1; the sum
    being 1 is solved for E with n1 + n2 = N.
    """
    _check_level(p, N)
    root = p.gamma**2 / (SQRT2 * p.beta) - (2.0 * N + p.d + 2.0)
    if root <= 0.0:
        raise NoBoundStateError("horicyclic quantization: sqrt(-2E+1/4) <= 0")
    return 0.125 - 0.5 * root * root


def p1_energy_from_elliptic_parabolic(p: P1Params, N: int) -> float:
    """Level energy from sqrt(-2E+1/4) + d + 2N + 2 - s = 0."""
    _check_level(p, N)
    root = p.s - p.d - 2.0 * N - 2.0
    if root <= 0.0:
        raise NoBoundStateError("elliptic-parabolic quantization: root <= 0")
    return 0.125 - 0.5 * root * root


def level_states_equidistant(p: P1Params, N: int) -> list[tuple[int, int]]:
    """Admissible (n, m) with n + m = N, ordered by m ascending."""
    _check_level(p, N)
    out = []
    for m in range(0, N + 1):
        if m > p.m_max:
            continue
        mu = p1_mu(p, m)
        n = N - m
        if n <= p1_n_max(p, mu):
            out.append((n, m))
    return out


def level_states_horicyclic(p: P1Params, N: int) -> list[tuple[int, int]]:
    """(n1, n2) with n1 + n2 = N, ordered by n1 ascending."""
    _check_level(p, N)
    return [(n1, N - n1) for n1 in range(N + 1)]


def p1_spectrum(p: P1Params) -> list[dict]:
    """All bound levels with their degenerate state labels."""
    out = []
    nmax = p.nmax
    if nmax is None:
        return out
    for N in range(nmax + 1):
        states = level_states_equidistant(p, N)
        out.append({
            "N": N,
            "E": p1_energy(p, N),
            "degeneracy": len(states),
            "states": [{"n": n, "m": m, "mu": p1_mu(p, m)} for n, m in states],
        })
    return out


# ---------------------------------------------------------------------------
# Potential, ambient and chart forms
# ---------------------------------------------------------------------------

def v1_ambient(p: P1Params, q: AmbientPoint) -> float:
    """V1 at an AmbientPoint, or at every point of an AmbientPoints."""
    if np.any(q.w2 == 0.0):
        raise SingularConfigurationError("V1 singular at w2 = 0")
    dm = q.w0 - q.w1
    if np.any(dm == 0.0):
        raise SingularConfigurationError("V1 singular at w0 = w1")
    return (p.alpha**2 / q.w2**2
            - p.gamma**2 / dm**2
            + p.beta**2 * (q.w0 + q.w1) / dm**3)


def v1_equidistant(p: P1Params, t1, t2):
    e2 = np.exp(2.0 * np.asarray(t2, dtype=float))
    return (p.alpha**2 / np.sinh(t1) ** 2
            + (p.beta**2 * e2 * e2 - p.gamma**2 * e2) / np.cosh(t1) ** 2)


def v1_horicyclic(p: P1Params, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return y * y * (p.alpha**2 / (x * x) + p.beta**2 * (x * x + y * y) - p.gamma**2)


def v1_elliptic_parabolic(p: P1Params, a, th):
    ca, sa = np.cosh(a), np.sinh(a)
    ct, st = np.cos(th), np.sin(th)
    pref = ca**2 * ct**2 / (ca**2 - ct**2)
    return pref * (p.beta**2 * (ca**2 * sa**2 + ct**2 * st**2)
                   - p.gamma**2 * (ca**2 - ct**2)
                   + p.alpha**2 * (1.0 / sa**2 + 1.0 / st**2))


def v1_hyperbolic_parabolic(p: P1Params, b, th):
    cb, sb = np.cosh(b), np.sinh(b)
    ct, st = np.cos(th), np.sin(th)
    pref = sb**2 * st**2 / (sb**2 + st**2)
    return pref * (p.beta**2 * (sb**2 * cb**2 + st**2 * ct**2)
                   - p.gamma**2 * (sb**2 + st**2)
                   + p.alpha**2 * (1.0 / ct**2 - 1.0 / cb**2))


# ---------------------------------------------------------------------------
# One-dimensional factors (equidistant, horicyclic)
# ---------------------------------------------------------------------------

def _exp_guarded(logmag, poly_fn):
    """exp(logmag) * poly_fn(), with poly_fn evaluated only where the
    prefactor has not underflowed.

    Whenever the full factor decays, |poly| < exp(-logmag) on the kept
    set, so the polynomial recurrence cannot overflow there.  poly_fn
    takes the boolean mask of kept entries.  A 0-d logmag (scalar
    arguments) gives a numpy scalar, so the factors that call this need
    no scalar branch of their own.
    """
    logmag = np.asarray(logmag, dtype=float)
    out = np.zeros_like(logmag)
    keep = logmag >= -700.0
    if np.any(keep):
        out[keep] = np.exp(logmag[keep]) * poly_fn(keep)
    return out[()]


def morse_factor(p: P1Params, m: int, t2, mu: float | None = None):
    """Morse-problem factor S_m(t2), unit norm on t2 in (-inf, inf).

    S = sqrt(2 mu m! / Gamma(m+mu+1)) e^{-z/2} z^{mu/2} L_m^mu(z),
    z = sqrt2 beta e^{2 t2}.
    """
    if mu is None:
        mu = p1_mu(p, m)
    z = SQRT2 * p.beta * np.exp(2.0 * np.asarray(t2, dtype=float))
    logpref = 0.5 * (math.log(2.0 * mu) + _lgamma(m + 1.0) - _lgamma(m + mu + 1.0))
    logmag = logpref - z / 2.0 + 0.5 * mu * np.log(z)
    return _exp_guarded(logmag, lambda k: sf.laguerre(m, mu, z[k]))


def pt_factor(p, n: int, mu: float, t1):
    """Modified Poschl-Teller factor S_n(t1), unit norm on t1 in (0, inf).

    Even extension across the potential wall: |sinh t1| is used, so
    S(-t1) = S(t1).  Only p.d = sqrt(2 alpha^2 + 1/4) enters, so the second
    potential uses the same factor (``potential2.z_pt_factor``).
    """
    nu = mu - p.d - 2.0 * n - 1.0
    if nu <= 0.0:
        raise OutOfWindowError(f"n = {n} outside window for mu = {mu:.6g}")
    t1a = np.asarray(t1, dtype=float)
    s_abs = np.abs(np.sinh(t1a))
    ch = np.cosh(t1a)
    logpref = 0.5 * (math.log(2.0 * nu) + _lgamma(mu - n) + _lgamma(n + 1.0)
                     - _lgamma(mu - p.d - n) - _lgamma(1.0 + n + p.d))
    with np.errstate(divide="ignore"):
        logmag = logpref + (0.5 + p.d) * np.log(s_abs) + (0.5 - mu) * np.log(ch)
    # cosh(2 t1) must stay representable on the kept set; beyond |t1| = 354
    # the factor is below e^{-650} for every admissible window
    logmag = np.where(np.abs(t1a) <= 354.0, logmag, -np.inf)
    return _exp_guarded(
        logmag, lambda k: np.real(sf.jacobi(n, p.d, -mu, np.cosh(2.0 * t1a[k]))))


def osc_x_factor(p: P1Params, n1: int, x):
    """Horicyclic x-factor (singular oscillator), unit norm on x in R.

    psi ~ |x|^{1/2+d} e^{-beta x^2/sqrt2} L_{n1}^d(sqrt2 beta x^2); even.
    """
    xa = np.asarray(x, dtype=float)
    u = SQRT2 * p.beta * xa * xa
    logpref = 0.5 * (_lgamma(n1 + 1.0) + 0.5 * math.log(SQRT2 * p.beta)
                     - _lgamma(n1 + p.d + 1.0))
    with np.errstate(divide="ignore"):
        logmag = logpref - u / 2.0 + (0.25 + 0.5 * p.d) * np.log(u)
    return _exp_guarded(logmag, lambda k: sf.laguerre(n1, p.d, u[k]))


def osc_y_factor(p: P1Params, N: int, n2: int, y):
    """Horicyclic y-factor with index nu(N), unit norm on y in (0, inf)."""
    nu = p1_nu(p, N)
    if nu <= 0.0:
        raise NoBoundStateError("y-factor requires sqrt(-2E+1/4) > 0")
    ya = np.asarray(y, dtype=float)
    u = SQRT2 * p.beta * ya * ya
    logpref = 0.5 * (math.log(2.0) + _lgamma(n2 + 1.0)
                     + 0.5 * math.log(SQRT2 * p.beta)
                     - _lgamma(n2 + nu + 1.0))
    with np.errstate(divide="ignore"):
        logmag = logpref - u / 2.0 + (0.25 + 0.5 * nu) * np.log(u)
    return _exp_guarded(logmag, lambda k: sf.laguerre(n2, nu, u[k]))


def hc_norm_constant(p: P1Params, N: int) -> float:
    """Scale making the horicyclic product unit-norm in L^2(dx dy/y^2).

    With the 1D factors normalized as above, |psi1 psi2|^2 carries mass
    sqrt2 beta/(2 nu) on the half-chart x > 0; the canonical product
    multiplies by sqrt(2 nu/(sqrt2 beta)).
    """
    nu = p1_nu(p, N)
    return math.sqrt(2.0 * nu / (SQRT2 * p.beta))


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetheRoots:
    """A solved zero configuration of one separated-equation family.

    zone_counts: roots inside the chart's two admissible zones
    ((0,1) and (1,inf) for elliptic-parabolic, (-1,0) and (0,inf) for
    hyperbolic-parabolic); off_zone counts roots landing elsewhere (possible
    for the printed-form equations, surfaced rather than suppressed).
    """

    chart: str
    form: str
    N: int
    roots: tuple
    residual: float
    zone_counts: tuple[int, int]
    off_zone: int = 0


@dataclass(frozen=True)
class P1State:
    """A bound state of the first potential in a definite chart basis."""

    params: P1Params
    chart: str
    numbers: tuple
    roots: BetheRoots | None = None

    def __post_init__(self):
        c, nums = self.chart, self.numbers
        if c == "equidistant":
            n, m = nums
            mu = p1_mu(self.params, m)
            if n < 0 or n > p1_n_max(self.params, mu):
                raise OutOfWindowError(f"(n, m) = {nums} outside windows")
        elif c == "horicyclic":
            n1, n2 = nums
            if n1 < 0 or n2 < 0:
                raise OutOfWindowError("n1, n2 must be >= 0")
            _check_level(self.params, n1 + n2)
        elif c in ("elliptic-parabolic", "hyperbolic-parabolic"):
            if self.roots is None:
                raise OutOfDomainError(f"{c} state requires solved roots")
        else:
            raise OutOfDomainError(f"unsupported chart {c!r} for potential 1")

    @property
    def N(self) -> int:
        if self.chart in ("equidistant", "horicyclic"):
            return self.numbers[0] + self.numbers[1]
        return self.roots.N

    @property
    def energy(self) -> float:
        return p1_energy(self.params, self.N)


def p1_wf_equidistant(state: P1State, t1, t2):
    """Psi_{nm}(t1, t2) = (cosh t1)^{-1/2} S_n(t1) S_m(t2); unit norm for
    t1 > 0, t2 in R with measure cosh(t1) dt1 dt2."""
    n, m = state.numbers
    mu = p1_mu(state.params, m)
    return (np.cosh(np.asarray(t1, dtype=float)) ** -0.5
            * pt_factor(state.params, n, mu, t1)
            * morse_factor(state.params, m, t2, mu))


def p1_wf_horicyclic(state: P1State, x, y):
    """Canonical horicyclic product: unit norm in L^2(dx dy/y^2), x > 0 half."""
    n1, n2 = state.numbers
    p = state.params
    return (hc_norm_constant(p, n1 + n2)
            * osc_x_factor(p, n1, x)
            * osc_y_factor(p, n1 + n2, n2, y))


# ---------------------------------------------------------------------------
# Zero equations (Bethe-type) for the parabolic charts
# ---------------------------------------------------------------------------

def _pair_sums(theta: np.ndarray) -> np.ndarray:
    """sums_i = sum_{k != i} 1/(theta_k - theta_i)."""
    n = len(theta)
    out = np.zeros(n)
    for i in range(n):
        for k in range(n):
            if k != i:
                out[i] += 1.0 / (theta[k] - theta[i])
    return out


def p1_ep_equations(p: P1Params, N: int, theta: np.ndarray, form: str) -> np.ndarray:
    """Elliptic-parabolic zero equations, one residual per root.

    printed: 2 th (1-th) (S_i + c) + 2(1-th) N + (s/2) th + s + d + 1 = 0
    derived: 2 th (1-th) (S_i + c) + 2(1-th) N +  s    th - s + d + 1 = 0
    where S_i = sum_{k != i} 1/(th_k - th_i) and c = beta/sqrt2.
    """
    theta = np.asarray(theta, dtype=float)
    s, d, c = p.s, p.d, p.c
    sums = _pair_sums(theta)
    base = 2.0 * theta * (1.0 - theta) * (sums + c) + 2.0 * (1.0 - theta) * N
    if form == "printed":
        return base + 0.5 * s * theta + s + d + 1.0
    if form == "derived":
        return base + s * theta - s + d + 1.0
    raise OutOfDomainError(f"unknown equation form {form!r}")


def p1_hp_equations(p: P1Params, N: int, theta: np.ndarray, form: str) -> np.ndarray:
    """Hyperbolic-parabolic zero equations.

    printed: 2 th (1+th) (S_i - c) - 2(1+th) N + (s/2) th + s - d - 1 = 0
    derived: 2 th (1+th) (S_i - c) - 2(1+th) N +  s    th + s - d - 1 = 0
    with S_i = sum_{k != i} 1/(th_i - th_k).
    """
    theta = np.asarray(theta, dtype=float)
    s, d, c = p.s, p.d, p.c
    sums = -_pair_sums(theta)  # sum of 1/(th_i - th_k)
    base = 2.0 * theta * (1.0 + theta) * (sums - c) - 2.0 * (1.0 + theta) * N
    if form == "printed":
        return base + 0.5 * s * theta + s - d - 1.0
    if form == "derived":
        return base + s * theta + s - d - 1.0
    raise OutOfDomainError(f"unknown equation form {form!r}")


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
    """Newton on the family's equations with the analytic Jacobian, for at
    most six steps; stops as soon as the residual no longer falls.

    The eigenvector's roots lose digits as N grows (residual 1e-7 at N = 8
    and 1e-5 at N = 14 on a deep well); one or two steps reach round-off.
    """
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


def _stieltjes_roots(a, b, N: int, center: float = 0.0) -> list[np.ndarray]:
    """Every zero configuration of the family (a, b) at size N, polished.

    The polynomials are expanded in powers of (th - center).  Roots that
    crowd against a singular point of a lose digits in the monomial basis;
    expanding about that point keeps them apart in relative terms.

    For real a, b, configurations whose roots are all real come back as
    float arrays, the others as complex arrays.  A degenerate eigenvector
    (top coefficient exactly zero) yields no configuration.
    """
    if N == 0:
        return [np.zeros(0)]
    a, b = _taylor_shift(a, center), _taylor_shift(b, center)
    _, vecs = np.linalg.eig(_stieltjes_matrix(a, b, N))
    out = []
    for v in vecs.T:
        if not np.any(v.imag):
            v = v.real
        x = np.roots(v[::-1])
        if len(x) == N:
            out.append(_stieltjes_polish(a, b, x) + center)
    return out


def _taylor_shift(c, t0: float) -> np.ndarray:
    """Ascending coefficients of c(x + t0), from ascending coefficients c."""
    pc = np.asarray(c)[::-1]
    return np.array([np.polyval(np.polyder(pc, k), t0) / math.factorial(k)
                     for k in range(len(pc))])


def _residual(eqs) -> float:
    """Largest absolute equation residual; inf where it is not finite."""
    r = float(np.max(np.abs(eqs))) if len(eqs) else 0.0
    return r if math.isfinite(r) else math.inf


def _p1_family(p: P1Params, N: int, chart: str, form: str):
    """Coefficients (a, b), ascending, of the parabolic zero equations
    written as a(th_i) sum_{k != i} 1/(th_i - th_k) + b(th_i) = 0.

    They restate ``p1_ep_equations`` and ``p1_hp_equations``: the two forms
    differ only in b's constant and linear terms.
    """
    s, d, c = p.s, p.d, p.c
    if chart == "elliptic-parabolic":
        a, b = (0.0, -2.0, 2.0), (2.0 * N, 2.0 * c - 2.0 * N, -2.0 * c)
        extra = {"printed": (s + d + 1.0, 0.5 * s),
                 "derived": (d + 1.0 - s, s)}
    else:
        a, b = (0.0, 2.0, 2.0), (-2.0 * N, -2.0 * c - 2.0 * N, -2.0 * c)
        extra = {"printed": (s - d - 1.0, 0.5 * s),
                 "derived": (s - d - 1.0, s)}
    if form not in extra:
        raise OutOfDomainError(f"unknown equation form {form!r}")
    return np.array(a), np.array(b) + (extra[form] + (0.0,))


def _zone_counts(roots: np.ndarray, zone_a, zone_b) -> tuple[int, int, int]:
    in_a = int(np.sum((roots > zone_a[0]) & (roots < zone_a[1])))
    in_b = int(np.sum((roots > zone_b[0]) & (roots < zone_b[1])))
    return in_a, in_b, len(roots) - in_a - in_b


def _p1_roots(p: P1Params, N: int, chart: str, form: str,
              tol: float) -> tuple[list[BetheRoots], int]:
    """The real configurations of a parabolic chart's zero equations that
    reach ``tol``, and the number of non-real configurations left out."""
    _check_level(p, N)
    equations = (p1_ep_equations if chart == "elliptic-parabolic"
                 else p1_hp_equations)
    hi = max(4.0, (p.s - 2.0 * N) / (2.0 * p.c) * 1.6 + 2.0)
    zones = (((0.0, 1.0), (1.0, hi)) if chart == "elliptic-parabolic"
             else ((-1.0, 0.0), (0.0, hi)))
    # zone-A roots crowd against th = 1 (elliptic) or th = -1 (hyperbolic)
    center = 1.0 if chart == "elliptic-parabolic" else -1.0
    configs = _stieltjes_roots(*_p1_family(p, N, chart, form), N, center)
    real = [np.sort(th) for th in configs if np.isrealobj(th)]
    out, best = [], math.inf
    for th in real:
        r = _residual(equations(p, N, th, form))
        best = min(best, r)
        if r > tol:
            continue
        a_count, b_count, off = _zone_counts(th, *zones)
        out.append(BetheRoots(chart, form, N, tuple(th), r,
                              (a_count, b_count), off))
    if not out and N > 0:
        raise SolverFailureError(
            f"no root configuration reached residual {tol:g}",
            best_residual=best)
    out.sort(key=lambda br: (br.zone_counts[0], br.roots))
    return out, len(configs) - len(real)


def p1_ep_roots(p: P1Params, N: int, form: str = "printed",
                tol: float = 1e-10) -> list[BetheRoots]:
    """All real root configurations of the elliptic-parabolic zero equations.

    Zones: (0,1) hosts theta-direction zeros (count p), (1,inf) hosts
    a-direction zeros (count q); configurations are sorted by (p, q).
    Configurations with non-real roots (the printed form has some) are left
    out; the CLI ``roots`` command reports how many.
    """
    return _p1_roots(p, N, "elliptic-parabolic", form, tol)[0]


def p1_hp_roots(p: P1Params, N: int, form: str = "printed",
                tol: float = 1e-10) -> list[BetheRoots]:
    """Real root configurations of the hyperbolic-parabolic zero equations.

    Zones: (-1,0) hosts theta-direction zeros (count k), (0,inf) hosts
    b-direction zeros (count l).
    """
    return _p1_roots(p, N, "hyperbolic-parabolic", form, tol)[0]


def p1_ep_lambda(p: P1Params, roots: BetheRoots) -> float:
    """Separation constant of the elliptic-parabolic separated ODE.

    lambda = (8 beta/sqrt2) sum th_i - (s-1)^2 + (4 beta/sqrt2)(1+d) - 2 gamma^2.
    """
    s1 = float(np.sum(roots.roots))
    return (8.0 * p.c * s1 - (p.s - 1.0) ** 2
            + 4.0 * p.c * (1.0 + p.d) - 2.0 * p.gamma**2)


def p1_hp_tau(p: P1Params, roots: BetheRoots) -> float:
    """Separation constant of the hyperbolic-parabolic separated ODE.

    tau = (8 beta/sqrt2) sum th_i - (s-1)^2 - (4 beta/sqrt2)(1+d) + 2 gamma^2.
    """
    s1 = float(np.sum(roots.roots))
    return (8.0 * p.c * s1 - (p.s - 1.0) ** 2
            - 4.0 * p.c * (1.0 + p.d) + 2.0 * p.gamma**2)


# ---------------------------------------------------------------------------
# Parabolic-chart wavefunctions (product over zeros)
# ---------------------------------------------------------------------------

def _ep_raw(p: P1Params, roots: BetheRoots, a, th):
    aa = np.asarray(a, dtype=float)
    tha = np.asarray(th, dtype=float)
    N = roots.N
    expo = p.s - p.d - 2.0 * N - 1.5  # = nu + 1/2
    sa, ca = np.abs(np.sinh(aa)), np.cosh(aa)
    st, ct = np.abs(np.sin(tha)), np.cos(tha)
    with np.errstate(divide="ignore"):
        logmag = ((0.5 + p.d) * (np.log(sa) + np.log(st))
                  + expo * (np.log(ca) + np.log(ct))
                  - p.c * (ca**2 + ct**2))

    def poly(k):
        ca2, ct2 = np.broadcast_arrays(ca**2, ct**2)
        out = np.ones_like(ca2[k])
        for t in roots.roots:
            out = out * (ca2[k] - t) * (ct2[k] - t)
        return out

    return _exp_guarded(logmag, poly)


def _hp_raw(p: P1Params, roots: BetheRoots, b, th):
    ba = np.asarray(b, dtype=float)
    tha = np.asarray(th, dtype=float)
    N = roots.N
    expo = p.s - p.d - 2.0 * N - 1.5
    sb, cb = np.abs(np.sinh(ba)), np.cosh(ba)
    st, ct = np.abs(np.sin(tha)), np.cos(tha)
    with np.errstate(divide="ignore"):
        logmag = ((0.5 + p.d) * (np.log(cb) + np.log(ct))
                  + expo * (np.log(sb) + np.log(st))
                  - p.c * (sb**2 - st**2))

    def poly(k):
        sb2, st2 = np.broadcast_arrays(sb**2, st**2)
        out = np.ones_like(sb2[k])
        for t in roots.roots:
            out = out * (sb2[k] - t) * (st2[k] + t)
        return out

    return _exp_guarded(logmag, poly)


# volume elements of the parabolic charts (conformal factors)
def ep_volume_element(a, th):
    return (np.cosh(a) ** 2 - np.cos(th) ** 2) / (np.cosh(a) ** 2 * np.cos(th) ** 2)


def hp_volume_element(b, th):
    return (np.sinh(b) ** 2 + np.sin(th) ** 2) / (np.sinh(b) ** 2 * np.sin(th) ** 2)


def _log_sum(w: np.ndarray, logv: np.ndarray) -> float:
    """log(sum(w * exp(logv))), scaled by the largest term."""
    top = float(np.max(logv))
    return top + math.log(float(np.sum(w * np.exp(logv - top))))


@lru_cache(maxsize=256)
def _parabolic_log_norm(state: P1State) -> float:
    """log of the L^2 norm of the raw product form over its chart.

    The squared product separates as A(u)^2 B(th)^2, and so does the
    volume element: 1/cos^2 th - 1/cosh^2 a (elliptic-parabolic) and
    1/sin^2 th + 1/sinh^2 b (hyperbolic-parabolic).  The double integral is
    therefore a combination of four 1-D sums, on tanh-sinh nodes over
    u in (0, L) and th in (0, pi/2), taken in log space.
    """
    p = state.params
    xg, wg, dg = sf.tanh_sinh_nodes(7)
    # the product form recomputes endpoint distances itself; stay clear of
    # the cancellation region
    keep = dg > 1e-14
    xg, wg = xg[keep], wg[keep]
    # radial direction (0, L) with decay bound from the Gaussian-type factor
    L = max(6.0, math.sqrt(40.0 / p.c))
    u, v = 0.5 * L * (xg + 1.0), 0.25 * math.pi * (xg + 1.0)
    expo = p.s - p.d - 2.0 * state.N - 1.5  # = nu + 1/2
    roots = np.asarray(state.roots.roots, dtype=float)

    def log_sums(w, wall, rad, sign):
        # log sum(w F^2) and log sum(w F^2 / rad^2) for the factor
        # F = wall^(1/2+d) rad^expo e^(-sign c rad^2) prod(rad^2 - sign t)
        with np.errstate(divide="ignore"):
            lf = (2.0 * ((0.5 + p.d) * np.log(wall) + expo * np.log(rad)
                         - sign * p.c * rad**2)
                  + np.sum(np.log((rad[:, None] ** 2 - sign * roots) ** 2),
                           axis=1))
            return _log_sum(w, lf), _log_sum(w, lf - 2.0 * np.log(rad))

    wu, wv = 0.5 * L * wg, 0.25 * math.pi * wg
    if state.chart == "elliptic-parabolic":
        la, la_v = log_sums(wu, np.sinh(u), np.cosh(u), 1.0)
        lt, lt_v = log_sums(wv, np.sin(v), np.cos(v), 1.0)
        # theta < 0 half by evenness
        log_total = (math.log(2.0) + la + lt_v
                     + math.log1p(-math.exp(la_v + lt - la - lt_v)))
    else:
        la, la_v = log_sums(wu, np.cosh(u), np.sinh(u), 1.0)
        lt, lt_v = log_sums(wv, np.cos(v), np.sin(v), -1.0)
        log_total = float(np.logaddexp(la + lt_v, la_v + lt))
    return 0.5 * log_total


def p1_wf_elliptic_parabolic(state: P1State, a, th, normalized: bool = True):
    """Product-form wavefunction on the elliptic-parabolic chart.

    Built from the solved zero configuration attached to the state;
    normalized numerically over the chart volume element by default.
    """
    out = _ep_raw(state.params, state.roots, a, th)
    if normalized:
        out = out * math.exp(-_parabolic_log_norm(state))
    return out


def p1_wf_hyperbolic_parabolic(state: P1State, b, th, normalized: bool = True):
    out = _hp_raw(state.params, state.roots, b, th)
    if normalized:
        out = out * math.exp(-_parabolic_log_norm(state))
    return out


# ---------------------------------------------------------------------------
# Ambient evaluation
# ---------------------------------------------------------------------------

def wf_ambient(state: P1State):
    """Wavefunction as a function of ambient points.

    Called with an AmbientPoint it returns a float, with an AmbientPoints
    batch an array (one vectorized evaluation).  Uses the chart inversions;
    the equidistant/horicyclic factors are even across the w2 = 0 wall, the
    parabolic products are evaluated on their chart's domain.
    """
    wf = {"equidistant": p1_wf_equidistant,
          "horicyclic": p1_wf_horicyclic,
          "elliptic-parabolic": p1_wf_elliptic_parabolic,
          "hyperbolic-parabolic": p1_wf_hyperbolic_parabolic}[state.chart]

    def f(q):
        if isinstance(q, AmbientPoints):
            return wf(state, *chart_coordinates(q, state.chart))
        cp = ambient_to_chart(q, state.chart)
        return float(wf(state, cp.u1, cp.u2))
    return f
