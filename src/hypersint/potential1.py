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
  the |t1|, |x| even extension across the wall.
* The horicyclic product is additionally scaled by 2 sqrt(nu/(sqrt2 beta))
  so that it is unit-norm in L^2(dx dy / y^2) on the half-chart; this makes
  both bases orthonormal in the *same* inner product, which is what the
  interbasis matrix requires.
* The equidistant factors' polynomials are evaluated in compact variables:
  the Poschl-Teller one at 1 - 2 tanh^2 t1 in [-1, 1], the Morse one at
  z = sqrt2 beta e^{2 t2}.  There the Gram integrals are polynomials
  against classical weights, which ``pt_rule`` and ``morse_rule`` integrate
  exactly by Gauss rules (``specfun.gauss_rule``).  ``EquidistantBasis``
  holds states on the tensor product of the two rules: a level's Gram and
  Galerkin matrices, and the norm of its parabolic states, which lie in the
  span of its equidistant ones.
* The zero ("Bethe-type") equations exist in two forms:
  ``form="printed"`` is the transcription of the published display;
  ``form="derived"``  is re-derived here from the confluent-Heun reduction
  of the separated equation.  The two differ (the printed display's
  gamma^2-terms are inconsistent with its own parent ODE); only the derived
  roots produce wavefunctions that satisfy the Schrodinger equation (the
  default).  Both are exposed, each with its own residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import specfun as sf
from .errors import (
    NoBoundStateError,
    NonFiniteValueError,
    OutOfDomainError,
    OutOfWindowError,
    SingularConfigurationError,
    SolverFailureError,
)
from .geometry import (
    AmbientPoint,
    AmbientPoints,
    ambient_to_chart,
    chart_coordinates,
    chart_points,
    in_chart_domain,
    parabolic_coordinates,
)

__all__ = [
    "BetheRoots",
    "EquidistantBasis",
    "P1Params",
    "P1State",
    "level_states_equidistant",
    "level_states_horicyclic",
    "morse_factor",
    "morse_rule",
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
    "pt_rule",
    "osc_x_factor",
    "osc_y_factor",
    "wf_ambient",
]

SQRT2 = math.sqrt(2.0)
#: a window index whose boundary quantity (nu or mu) is at most this is
#: the boundary state itself, and is excluded
_WINDOW_TOL = 1e-12


def _any(mask) -> bool:
    """np.any, without its microseconds of overhead on a bool."""
    return bool(mask.any() if isinstance(mask, np.ndarray) else mask)


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

def _check_couplings(p, derived: tuple[str, ...]):
    """Refuse couplings that are not positive and finite, or whose derived
    constants (the attributes named) overflow."""
    name = type(p).__name__
    if not (p.alpha > 0 and p.beta > 0 and p.gamma > 0):
        raise OutOfDomainError(f"{name} requires alpha, beta, gamma > 0")
    try:
        finite = all(math.isfinite(abs(getattr(p, k)))
                     for k in ("alpha", "beta", "gamma", *derived))
    except OverflowError:  # a float power of a large coupling
        finite = False
    if not finite:
        raise OutOfDomainError(f"{name} requires finite couplings and finite "
                               f"{', '.join(derived)}")


class _EquidistantWell:
    """The equidistant well both potentials share.  With d and the well
    strength S (the attribute named by ``_strength``: s for the first
    potential, M for the second)

        E_N = -(1/2)(2N + 2 + d - S)^2 + 1/8,   mu = S - 2m - 1,

    and both windows are open: the boundary level nu = 0 (E = 1/8) and the
    boundary state mu = 0 are excluded.  nmax and m_max are computed once
    per instance (cached_property stores them in the instance dict).  The
    t1-factor is ``pt_factor`` for both; each subclass states its t2-factor
    and that factor's Gauss rule, ``m_factor(m, t2, mu)`` and ``m_rule(m, mu)``.
    """

    @property
    def _S(self) -> float:
        return getattr(self, self._strength)

    @cached_property
    def nmax(self) -> int | None:
        """Largest bound N, or None if the spectrum is empty."""
        k = _window_top(self._S - self.d - 2.0)
        return k if k >= 0 else None

    @cached_property
    def m_max(self) -> int:
        """Largest m of the Morse window (mu > 0 enforced)."""
        return _window_top(self._S - 1.0)


@dataclass(frozen=True)
class P1Params(_EquidistantWell):
    """Coupling constants of the first potential (all strictly positive)."""

    alpha: float
    beta: float
    gamma: float
    _strength = "s"
    charts = ("equidistant", "horicyclic", "elliptic-parabolic",
              "hyperbolic-parabolic")

    def __post_init__(self):
        _check_couplings(self, ("d", "s"))

    @property
    def d(self) -> float:
        return math.sqrt(2.0 * self.alpha**2 + 0.25)

    @property
    def s(self) -> float:
        return self.gamma**2 / (SQRT2 * self.beta)

    @property
    def c(self) -> float:
        return self.beta / SQRT2

    def m_factor(self, m, t2, mu):
        return morse_factor(self, m, t2, mu)

    def m_rule(self, m, mu):
        return morse_rule(self, m, mu)


def p1_mu(p, m):
    """Quantized equidistant separation constant mu = S - 2m - 1, of either
    potential (see ``_EquidistantWell``)."""
    if _any((m < 0) | (m > p.m_max)):
        S = p._strength
        raise OutOfWindowError(
            f"m = {m} outside Morse window 0..{p.m_max} "
            f"(mu = {S} - 2m - 1 must stay positive, {S} = {p._S:.6g})")
    return p._S - 2.0 * m - 1.0


def p1_n_max(p, mu: float) -> int:
    """Largest n of the Poschl-Teller window nu = mu - d - 2n - 1 > 0; only
    p.d enters, so the second potential uses it too."""
    return _window_top(mu - 1.0 - p.d)


def p1_nu(p: P1Params, N: int) -> float:
    """nu(N) = sqrt(-2 E_N + 1/4) = s - d - 2N - 2."""
    return p.s - p.d - 2.0 * N - 2.0


def _check_level(p, N: int):
    nmax = p.nmax
    if nmax is None:
        raise NoBoundStateError(f"no bound states: {p._strength} - d - 2 = "
                                f"{p._S - p.d - 2.0:.6g} < 0")
    if N < 0 or N > nmax:
        raise NoBoundStateError(f"N = {N} outside the bound window 0..{nmax}")


def p1_energy(p, N: int) -> float:
    """E_N = -(1/2)(2N + 2 + d - S)^2 + 1/8, of either potential."""
    _check_level(p, N)
    return -0.5 * (2.0 * N + 2.0 + p.d - p._S) ** 2 + 0.125


def p1_energy_from_horicyclic(p: P1Params, N: int) -> float:
    """Level energy from lambda1 + lambda2 = 1 with the horicyclic quantization.

    lambda1 = (sqrt2 beta/gamma^2)(2 n1 + d + 1) - 1 and
    lambda2 = (sqrt2 beta/gamma^2)(2 n2 + sqrt(-2E+1/4) + 1) + 1; the sum
    being 1 is solved for E with n1 + n2 = N.
    """
    _check_level(p, N)
    root = p.gamma**2 / (SQRT2 * p.beta) - (2.0 * N + p.d + 2.0)
    return 0.125 - 0.5 * root * root


def p1_energy_from_elliptic_parabolic(p: P1Params, N: int) -> float:
    """Level energy from sqrt(-2E+1/4) + d + 2N + 2 - s = 0."""
    _check_level(p, N)
    root = p.s - p.d - 2.0 * N - 2.0
    return 0.125 - 0.5 * root * root


def level_states_equidistant(p, N: int) -> list[tuple[int, int]]:
    """(n, m) with n + m = N, ordered by m ascending, of either potential.

    A bound level is full: nu = S - d - 2N - 2 > 0 gives every m <= N a
    positive mu = S - 2m - 1 = nu + d + 2n + 1 and leaves n = N - m inside
    the Poschl-Teller window mu - d - 2n - 1 = nu > 0."""
    _check_level(p, N)
    return [(N - m, m) for m in range(N + 1)]


def level_states_horicyclic(p: P1Params, N: int) -> list[tuple[int, int]]:
    """(n1, n2) with n1 + n2 = N, ordered by n1 ascending."""
    _check_level(p, N)
    return [(n1, N - n1) for n1 in range(N + 1)]


def p1_spectrum(p) -> list[dict]:
    """All bound levels with their degenerate state labels, of either
    potential."""
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

# A factor's quantum numbers may be columns (of whole numbers, int or float)
# against a row of points: one row per state, equal to its single-state call
# bit for bit.

def _exp_guarded(logmag, poly, *args):
    """exp(logmag) * poly(*args), with poly's values used only where the
    prefactor has not underflowed; there |poly| < exp(-logmag), so the
    recurrence cannot overflow.  poly runs on args (broadcast against
    logmag) with 0, where every caller's polynomial is finite, in place of
    the dropped entries.  A NaN log-magnitude (an argument outside the
    factor's domain) raises NonFiniteValueError.
    """
    logmag = sf._asarray(logmag)
    if np.isnan(logmag).any():
        raise NonFiniteValueError("log-magnitude is NaN: argument outside the domain")
    keep = logmag >= -700.0
    args = [np.where(keep, a, 0.0) for a in args]
    return np.where(keep, np.exp(logmag) * poly(*args), 0.0)[()]


# The log normalization constants of the four factors; interbasis builds its
# projection constants from them.  nu is an argument where it enters, since
# the per-state mu - d - 2n - 1 and the level's p1_nu can differ in the last
# bit.

def _morse_log_norm(m, mu):
    return 0.5 * (sf._each(math.log, 2.0 * mu) + sf.lgamma(m + 1.0)
                  - sf.lgamma(m + mu + 1.0))


def _pt_log_norm(p, n, mu, nu):
    return 0.5 * (sf._each(math.log, 2.0 * nu) + sf.lgamma(mu - n) + sf.lgamma(n + 1.0)
                  - sf.lgamma(mu - p.d - n) - sf.lgamma(1.0 + n + p.d))


def _osc_x_log_norm(p, n1):
    return 0.5 * (sf.lgamma(n1 + 1.0) + 0.5 * math.log(SQRT2 * p.beta)
                  - sf.lgamma(n1 + p.d + 1.0))


def _osc_y_log_norm(p, n2, nu):
    return 0.5 * (math.log(2.0) + sf.lgamma(n2 + 1.0)
                  + 0.5 * math.log(SQRT2 * p.beta) - sf.lgamma(n2 + nu + 1.0))


def _laguerre_factor(log_norm, n, a, u, power):
    """exp(log_norm - u/2 + power log u) L_n^a(u), through ``_exp_guarded``:
    the Laguerre form of the Morse and both oscillator factors."""
    with np.errstate(divide="ignore"):
        logmag = log_norm - u / 2.0 + power * np.log(u)
    return _exp_guarded(logmag, lambda v: sf.laguerre(n, a, v), u)


def morse_factor(p: P1Params, m, t2, mu=None):
    """Morse-problem factor S_m(t2), unit norm on t2 in (-inf, inf).

    S = sqrt(2 mu m! / Gamma(m+mu+1)) e^{-z/2} z^{mu/2} L_m^mu(z),
    z = sqrt2 beta e^{2 t2}.
    """
    if mu is None:
        mu = p1_mu(p, m)
    # e^{2 t2} overflows past t2 = 354; clamping t2 at 300 keeps z and
    # log z finite, so the log-magnitude stays a number (not NaN) where
    # the factor, below exp(-sqrt2 beta e^600 / 2), is 0 either way
    z = SQRT2 * p.beta * np.exp(2.0 * np.minimum(t2, 300.0))
    return _laguerre_factor(_morse_log_norm(m, mu), m, mu, z, 0.5 * mu)


def pt_factor(p, n, mu, t1):
    """Modified Poschl-Teller factor S_n(t1), unit norm on t1 in (0, inf).

        S = C tanh^{1/2+d} t1 cosh^{-nu} t1 P_n^{(d,nu)}(1 - 2 tanh^2 t1),

    nu = mu - d - 2n - 1: the form C sinh^{1/2+d} cosh^{1/2-mu}
    P_n^{(d,-mu)}(cosh 2 t1) with the polynomial's growth taken out, so
    its argument stays in [-1, 1] and the factor needs no clamp.  Even
    extension across the potential wall: |tanh t1| is used, so
    S(-t1) = S(t1).  Only p.d = sqrt(2 alpha^2 + 1/4) enters, so the second
    potential uses the same factor (``potential2.z_pt_factor``).
    """
    nu = mu - p.d - 2.0 * n - 1.0
    if _any(nu <= 0.0):
        n, mu = (np.broadcast_to(v, np.shape(nu))[nu <= 0.0][0] for v in (n, mu))
        raise OutOfWindowError(f"n = {n} outside window for mu = {mu:.6g}")
    t1a = np.abs(sf._asarray(t1))
    th = np.tanh(t1a)
    with np.errstate(divide="ignore"):
        # log cosh t1 = |t1| + log1p(e^{-2|t1|}) - log 2, finite for every t1
        logmag = (_pt_log_norm(p, n, mu, nu) + (0.5 + p.d) * np.log(th)
                  - nu * (t1a + np.log1p(np.exp(-2.0 * t1a)) - math.log(2.0)))
    return (np.exp(logmag) * sf.jacobi(n, p.d, nu, 1.0 - 2.0 * th * th))[()]


def pt_rule(p, n, mu):
    """Nodes t1 and dt1-weights v of the Gauss rule that integrates the
    products of the ``pt_factor`` states (n_i, mu_i) exactly: the Gram
    matrix of their factors F (a row per state) is (F * v) @ F.T.

    In x = 1/cosh^2 t1, S_i S_j dt1 is (1/2) x^{(nu_i+nu_j)/2 - 1} (1-x)^d dx
    times a polynomial of degree n_i + n_j.  With nu* the least nu and
    (nu - nu*)/2 whole (as between the levels of a well), the Gauss-Jacobi
    rule of x^{nu*-1} (1-x)^d with max(n + (nu - nu*)/2) + 1 nodes is
    exact.  Its mass B(nu*, d+1) stays in log space, folded into v.
    """
    n, mu = (np.ravel(v).astype(float) for v in (n, mu))
    nu = mu - p.d - 2.0 * n - 1.0
    low = float(np.min(nu))
    K = round(float(np.max(n + (nu - low) / 2.0))) + 1
    x, w = sf.gauss_rule(*sf.jacobi_recurrence(low - 1.0, p.d, K), 1.0)
    log_mass = sf.lgamma(low) + sf.lgamma(p.d + 1.0) - sf.lgamma(low + p.d + 1.0)
    # dt1 = dx / (2 x sqrt(1-x)), over the weight
    return (np.arcsinh(np.sqrt((1.0 - x) / x)), 0.5 * w * np.exp(
        log_mass - low * np.log(x) - (p.d + 0.5) * np.log1p(-x)))


def morse_rule(p: P1Params, m, mu):
    """``pt_rule`` for the ``morse_factor`` states (m_i, mu_i), in t2.

    In z = sqrt2 beta e^{2 t2}, S_i S_j dt2 is (1/2) z^{(mu_i+mu_j)/2 - 1}
    e^{-z} dz times a polynomial of degree m_i + m_j: the Gauss-Laguerre
    rule of z^{mu*-1} e^{-z} with max(m + (mu - mu*)/2) + 1 nodes is exact.
    Its mass Gamma(mu*) stays in log space (mu* is 225.9 on the s = 229
    well's level N = 1).
    """
    m, mu = (np.ravel(v).astype(float) for v in (m, mu))
    low = float(np.min(mu))
    K = round(float(np.max(m + (mu - low) / 2.0))) + 1
    z, w = sf.gauss_rule(*sf.laguerre_recurrence(low - 1.0, K), 1.0)
    # dt2 = dz / (2 z), over the weight
    return (0.5 * np.log(z / (SQRT2 * p.beta)),
            0.5 * w * np.exp(sf.lgamma(low) + z - low * np.log(z)))


def osc_x_factor(p: P1Params, n1, x):
    """Horicyclic x-factor (singular oscillator), unit norm on x in R.

    psi ~ |x|^{1/2+d} e^{-beta x^2/sqrt2} L_{n1}^d(sqrt2 beta x^2); even.
    """
    xa = sf._asarray(x)
    return _laguerre_factor(_osc_x_log_norm(p, n1), n1, p.d,
                            SQRT2 * p.beta * xa * xa, 0.25 + 0.5 * p.d)


def osc_y_factor(p: P1Params, N, n2, y):
    """Horicyclic y-factor with index nu(N), unit norm on y in (0, inf)."""
    nu = p1_nu(p, N)
    if _any(nu <= 0.0):
        raise NoBoundStateError("y-factor requires sqrt(-2E+1/4) > 0")
    ya = sf._asarray(y)
    return _laguerre_factor(_osc_y_log_norm(p, n2, nu), n2, nu,
                            SQRT2 * p.beta * ya * ya, 0.25 + 0.5 * nu)


def hc_norm_constant(p: P1Params, N: int) -> float:
    """Scale making the horicyclic product unit-norm in L^2(dx dy/y^2).

    With the 1D factors normalized as above, |psi1 psi2|^2 carries mass
    sqrt2 beta/(2 nu) on the half-chart x > 0; the canonical product
    multiplies by sqrt(2 nu/(sqrt2 beta)).
    """
    nu = p1_nu(p, N)
    return np.sqrt(2.0 * nu / (SQRT2 * p.beta))


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
    """A bound state of either potential in a definite chart basis: quantum
    numbers on the equidistant and horicyclic charts, a solved zero
    configuration on the others (and the chart's parameters on the
    semi-hyperbolic one)."""

    params: _EquidistantWell
    chart: str
    numbers: tuple
    roots: BetheRoots | None = None
    chart_params: tuple[float, float, float] | None = None

    def __post_init__(self):
        p, c, nums = self.params, self.chart, self.numbers
        if c not in p.charts:
            raise OutOfDomainError(
                f"chart {c!r} is not separable for {type(p).__name__}")
        if c in ("equidistant", "horicyclic") and len(nums) != 2:
            raise OutOfDomainError(f"{c} state needs two quantum numbers")
        if c == "equidistant":
            n, m = nums
            if n < 0 or n > p1_n_max(p, p1_mu(p, m)):
                raise OutOfWindowError(f"(n, m) = {nums} outside windows")
        elif c == "horicyclic":
            n1, n2 = nums
            if n1 < 0 or n2 < 0:
                raise OutOfWindowError("n1, n2 must be >= 0")
            _check_level(p, n1 + n2)
        elif self.roots is None:
            raise OutOfDomainError(f"{c} state requires solved roots")
        elif c == "semi-hyperbolic" and self.chart_params is None:
            raise OutOfDomainError(f"{c} state requires chart_params")

    @property
    def N(self) -> int:
        if self.chart in ("equidistant", "horicyclic"):
            return self.numbers[0] + self.numbers[1]
        return self.roots.N

    @property
    def energy(self) -> float:
        return p1_energy(self.params, self.N)

    @cached_property
    def log_norm(self) -> float:
        return _parabolic_projection(self, EquidistantBasis.level(self.params, self.N))[0]


def _check_chart(state: P1State, chart: str):
    if state.chart != chart:
        raise OutOfDomainError(f"a {state.chart} state has no {chart} wavefunction")


def p1_wf_equidistant(state: P1State, t1, t2):
    """Psi_{nm}(t1, t2) = (cosh t1)^{-1/2} S_n(t1) S_m(t2); unit norm for
    t1 > 0, t2 in R with measure cosh(t1) dt1 dt2."""
    _check_chart(state, "equidistant")
    return _equidistant_product(state.params, *state.numbers, t1, t2)


def _equidistant_product(p, n, m, t1, t2):
    """``p1_wf_equidistant`` of (n, m), or of columns n, m (a row each), of
    either potential (its t2-factor is ``p.m_factor``)."""
    mu = p1_mu(p, m)
    return (np.cosh(sf._asarray(t1)) ** -0.5
            * pt_factor(p, n, mu, t1)
            * p.m_factor(m, t2, mu))


class EquidistantBasis:
    """Equidistant states (n_i, m_i) of either potential on the tensor Gauss
    rule ``pt_rule`` x ``p.m_rule``, exact for the product of any two.  The
    1-D factors are taken once, a row per state at each rule's own nodes:
    ``f1`` (``pt_factor``) at t1, ``f2`` (``p.m_factor``, real up to
    round-off) at t2.  ``gram``, the rule's ``nodes`` (t1, t2) and ambient
    ``points`` (t1 major), their ``weight`` for cosh t1 dt1 dt2 and the
    states' ``values`` there (formed on each access: a row per state and
    point) come from them; ``project`` takes values at the points to
    coefficients.  ``level(p, N)`` stacks level N's states, m ascending;
    called with ambient points (or jets), the basis evaluates the stack."""

    def __init__(self, p, n, m):
        self.p = p
        self.n, self.m = (np.asarray(v, dtype=float).reshape(-1, 1) for v in (n, m))
        mu = p1_mu(p, self.m)
        (t1, v1), (t2, v2) = pt_rule(p, self.n, mu), p.m_rule(self.m, mu)
        self.t1, self.f1 = t1, pt_factor(p, self.n, mu, t1)
        self.t2, self.f2 = t2, p.m_factor(self.m, t2, mu)
        f2 = self.f2.real
        self.gram = ((self.f1 * v1) @ self.f1.T) * ((f2 * v2) @ f2.T)
        self.nodes = np.repeat(t1, len(t2)), np.tile(t2, len(t1))
        self.points = chart_points("equidistant", *self.nodes)
        self.weight = np.outer(v1 * np.cosh(t1), v2).ravel()

    @classmethod
    def level(cls, p, N: int) -> EquidistantBasis:
        return cls(p, *np.array(level_states_equidistant(p, N), dtype=float).T)

    @property
    def values(self) -> np.ndarray:
        """``_equidistant_product`` at the points, bit for bit, from the
        factors at the nodes: the inversion t2 = arctanh(w1/w0) loses digits
        where tanh t2 nears 1, as on the s = 229 well."""
        f1 = np.cosh(self.t1) ** -0.5 * self.f1
        return (f1[:, :, None] * self.f2[:, None, :]).reshape(len(f1), -1)

    def project(self, psi) -> tuple[np.ndarray, float]:
        """Coefficients c_k = sum_q v_q conj(psi_k(q)) psi(q) of values psi at the
        points, exact in the states' span, and max |psi - c @ values| / max |psi|."""
        eq = self.values
        c = (np.conj(eq) * self.weight) @ psi
        return c, float(np.max(np.abs(psi - c @ eq)) / np.max(np.abs(psi)))

    def __call__(self, q):
        return _equidistant_product(self.p, self.n, self.m,
                                    *chart_coordinates(q, "equidistant"))


def p1_wf_horicyclic(state: P1State, x, y):
    """Canonical horicyclic product: unit norm in L^2(dx dy/y^2), x > 0 half."""
    _check_chart(state, "horicyclic")
    return _horicyclic_product(state.params, *state.numbers, x, y)


def _horicyclic_product(p: P1Params, n1, n2, x, y):
    """``p1_wf_horicyclic`` of (n1, n2), or of columns n1, n2 (a row each)."""
    return (hc_norm_constant(p, n1 + n2)
            * osc_x_factor(p, n1, x)
            * osc_y_factor(p, n1 + n2, n2, y))


# ---------------------------------------------------------------------------
# Zero equations (Bethe-type) for the parabolic charts
# ---------------------------------------------------------------------------

def _pair_sums(theta: np.ndarray) -> np.ndarray:
    """sums_i = sum_{k != i} 1/(theta_k - theta_i), in order of k, per row."""
    if not theta.shape[-1]:
        return np.zeros(theta.shape)
    diag = np.eye(theta.shape[-1], dtype=bool)
    gap = np.where(diag, 1.0, theta[..., None, :] - theta[..., :, None])
    # cumsum adds strictly left to right, as a scalar loop would
    return np.cumsum(np.where(diag, 0.0, 1.0 / gap), axis=-1)[..., -1]


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


def _residual(eqs):
    """Largest absolute equation residual, per row; inf if not finite."""
    r = np.max(np.abs(eqs), axis=-1, initial=0.0)
    return np.where(np.isfinite(r), r, math.inf).tolist()


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
    reach ``tol``, and how many of the level's N + 1 are not real.  On the
    s = 229 well zone-B roots (th ~ 2,500-3,200) leave residuals to 2.1e-10
    at N <= 3: an absolute 1e-10 drops four, five on ``_p1_family``'s form."""
    _check_level(p, N)
    equations = (p1_ep_equations if chart == "elliptic-parabolic"
                 else p1_hp_equations)
    zones = (((0.0, 1.0), (1.0, math.inf)) if chart == "elliptic-parabolic"
             else ((-1.0, 0.0), (0.0, math.inf)))
    # zone-A roots crowd against th = 1 (elliptic) or th = -1 (hyperbolic)
    center = 1.0 if chart == "elliptic-parabolic" else -1.0
    configs = sf._stieltjes_roots(*_p1_family(p, N, chart, form), N, center)
    real = [np.sort(th) for th in configs if np.isrealobj(th)]
    residuals = _residual(equations(p, N, np.reshape(real, (len(real), N)), form))
    out, best = [], min(residuals, default=math.inf)
    for th, r in zip(real, residuals):
        if r > tol:
            continue
        a_count, b_count, off = _zone_counts(th, *zones)
        out.append(BetheRoots(chart, form, N, tuple(th), r,
                              (a_count, b_count), off))
    if not out:
        raise SolverFailureError(
            f"no root configuration reached residual {tol:g}",
            best_residual=best)
    out.sort(key=lambda br: (br.zone_counts[0], br.roots))
    return out, N + 1 - len(real)


def p1_ep_roots(p: P1Params, N: int, form: str = "derived",
                tol: float = 1e-10) -> list[BetheRoots]:
    """All real root configurations of the elliptic-parabolic zero equations.

    Zones: (0,1) hosts theta-direction zeros (count p), (1,inf) hosts
    a-direction zeros (count q); configurations are sorted by (p, q).
    Configurations with non-real roots (the printed form has some) are left
    out; the CLI ``roots`` command reports how many.
    """
    return _p1_roots(p, N, "elliptic-parabolic", form, tol)[0]


def p1_hp_roots(p: P1Params, N: int, form: str = "derived",
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

def _parabolic_raw(state: P1State, u, th):
    """The raw product form on the state's parabolic chart, as its
    log-magnitude and the ``_exp_guarded`` polynomial and arguments:

        (w1 w2)^{1/2+d} (r1 r2)^{nu+1/2} e^{-c (r1^2 + s r2^2)}
            prod_k (r1^2 - t_k)(r2^2 - s t_k),

    with walls (w1, w2) = (|sinh a|, |sin th|), radial factors
    (r1, r2) = (cosh a, cos th) and s = 1 on the elliptic-parabolic chart,
    and (cosh b, cos th), (|sinh b|, |sin th|), s = -1 on the
    hyperbolic-parabolic one.
    """
    p, roots, chart = state.params, state.roots, state.chart
    ua, tha = sf._asarray(u), sf._asarray(th)
    expo = p.s - p.d - 2.0 * roots.N - 1.5  # = nu + 1/2
    su, cu = np.abs(np.sinh(ua)), np.cosh(ua)
    st, ct = np.abs(np.sin(tha)), np.cos(tha)
    w1, w2, r1, r2, s = ((su, st, cu, ct, 1.0) if chart == "elliptic-parabolic"
                         else (cu, ct, su, st, -1.0))
    with np.errstate(divide="ignore"):
        logmag = ((0.5 + p.d) * (np.log(w1) + np.log(w2))
                  + expo * (np.log(r1) + np.log(r2))
                  - p.c * (r1**2 + s * r2**2))

    def poly(v1, v2):
        out = np.ones_like(v1)
        for t in roots.roots:
            out = out * (v1 - t) * (v2 - s * t)
        return out

    return logmag, poly, r1**2, r2**2


def _parabolic_projection(state: P1State, basis: EquidistantBasis
                          ) -> tuple[float, float, np.ndarray]:
    """log_norm of the raw product form, and its membership residual and
    coefficients c on basis, the state's ``EquidistantBasis.level``: built by
    ``P1State.log_norm``, held by the v1 eigen suite (``EquidistantBasis.project``).

    The state lies in its level's span, so sum c^2 is its squared norm over
    w2 > 0, which the t1 > 0 basis sees, to second order in the membership
    residual.  The form is taken at the nodes (t1, t2), with w0 - w1 =
    cosh t1 e^{-t2}, w2/(w0 - w1) = tanh t1 e^{t2}, 2 w1/(w0 - w1) =
    e^{2 t2} - 1, over e^L, L its largest log-magnitude there (near e^{+-790}
    on the s = 229 well): log_norm is L + (1/2) log(2 sum c^2) on the
    elliptic-parabolic chart (both halves) and L + (1/2) log(sum c^2) on the
    hyperbolic-parabolic one, and c is that of the form over e^L.
    """
    t1, t2 = basis.nodes
    logmag, *poly = _parabolic_raw(state, *parabolic_coordinates(
        state.chart, np.cosh(t1) * np.exp(-t2), np.tanh(t1) * np.exp(t2),
        np.expm1(2.0 * t2)))
    top = float(np.max(logmag))
    c, membership = basis.project(_exp_guarded(logmag - top, *poly))
    halves = 2.0 if state.chart == "elliptic-parabolic" else 1.0
    return top + 0.5 * math.log(halves * float(c @ c)), membership, c


def _parabolic_wf(chart: str, state: P1State, u, th):
    """The normalized product form of a state of chart: ``_parabolic_raw``
    with ``state.log_norm`` (its level is built on the state's first call)
    in its log-magnitude, where exp(-log_norm) cannot underflow on its own.
    Its coefficients on the level's equidistant states have sum c^2 = 1/2 on
    the elliptic-parabolic chart, normalized over both halves, and 1 on the
    hyperbolic-parabolic one, over w2 > 0."""
    _check_chart(state, chart)
    if not np.all(in_chart_domain(chart, u, th)):
        raise OutOfDomainError(f"{chart} product form needs points inside the chart")
    logmag, *poly = _parabolic_raw(state, u, th)
    return _exp_guarded(logmag - state.log_norm, *poly)


# volume elements of the parabolic charts (conformal factors)
def ep_volume_element(a, th):
    return (np.cosh(a) ** 2 - np.cos(th) ** 2) / (np.cosh(a) ** 2 * np.cos(th) ** 2)


def hp_volume_element(b, th):
    return (np.sinh(b) ** 2 + np.sin(th) ** 2) / (np.sinh(b) ** 2 * np.sin(th) ** 2)


def p1_wf_elliptic_parabolic(state: P1State, a, th):
    """Product-form wavefunction on the elliptic-parabolic chart, from the
    state's solved zero configuration; normalized over both halves of the
    chart, so sum c^2 = 1/2 on the level's equidistant states, which see
    w2 > 0.  Raises OutOfDomainError for points outside the chart
    (``geometry.in_chart_domain``).
    """
    return _parabolic_wf("elliptic-parabolic", state, a, th)


def p1_wf_hyperbolic_parabolic(state: P1State, b, th):
    """The hyperbolic-parabolic product form, as on the elliptic-parabolic
    chart; normalized over w2 > 0, so sum c^2 = 1."""
    return _parabolic_wf("hyperbolic-parabolic", state, b, th)


# ---------------------------------------------------------------------------
# Ambient evaluation
# ---------------------------------------------------------------------------

def wf_ambient(state: P1State):
    """Wavefunction as a function of ambient points, of either potential.

    Called with an AmbientPoint it returns a number (complex for the second
    potential), with an AmbientPoints batch an array (one vectorized
    evaluation).  Uses the chart inversions; the equidistant/horicyclic
    factors are even across the w2 = 0 wall, the parabolic products are
    evaluated on their chart's domain.
    """
    wf = {"equidistant": p1_wf_equidistant,
          "horicyclic": p1_wf_horicyclic,
          "elliptic-parabolic": p1_wf_elliptic_parabolic,
          "hyperbolic-parabolic": p1_wf_hyperbolic_parabolic}[state.chart]

    def f(q):
        if isinstance(q, AmbientPoints):
            return wf(state, *chart_coordinates(q, state.chart))
        cp = ambient_to_chart(q, state.chart)
        return wf(state, cp.u1, cp.u2).item()
    return f
