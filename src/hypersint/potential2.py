"""Second potential: complex-parameter solutions and the semi-hyperbolic system.

Ambient form (authoritative; the published equidistant chart display carries
a sign typo on the alpha^2 term, which the cross-check test surfaces):

    V2 = alpha^2/w2^2 + gamma^2 w0 w1/(w0^2+w1^2)^2
         + (alpha^2 - beta^2)(w0^2 - w1^2)/(w0^2+w1^2)^2

Derived constants:

    B = 2 beta^2 - 2 alpha^2 + 1
    M = sqrt((B + sqrt(B^2 + gamma^4))/2)
    a = the Re < 0 branch of  a^2 = (B - i gamma^2)/4   (so Re a = -M/2)
    k1 = a,  k2 = conj(a),  k3 = d = sqrt(2 alpha^2 + 1/4)

Spectrum: E_N = -(1/2)(2N + 2 + d - M)^2 + 1/8, equal by construction to the
semi-hyperbolic form -(1/2)(2N + 2 + k1 + k2 + k3)^2 + 1/8.

The semi-hyperbolic chart lives on the complexified two-sphere
s1 = (w0 + i w1)/sqrt2, s2 = conj(s1), s3 = i w2 with elliptic parameters
e1 = conj(e2) = a_c + i b_c and real e3; the zeros theta_j of the polynomial
factor may be complex but come in conjugate-closed configurations, keeping
the wavefunction real up to one global phase on the real hyperboloid.

Phase convention: all wavefunctions are returned with the global phase
removed (real positive at the reference point), so values are real up to
round-off; tests assert this rather than assume it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import specfun as sf
from .errors import (
    NoBoundStateError,
    OutOfDomainError,
    OutOfWindowError,
    SingularConfigurationError,
    SolverFailureError,
)
from .geometry import AmbientPoint, AmbientPoints, chart_coordinates
from .potential1 import (
    BetheRoots,
    _residual,
    _stieltjes_roots,
    _window_top,
    p1_n_max,
    pt_factor,
)

__all__ = [
    "P2Params",
    "P2State",
    "DEFAULT_SH_PARAMS",
    "p2_energy",
    "p2_energy_semihyperbolic",
    "p2_mu",
    "p2_sh_lambda",
    "p2_sh_lambda_closed",
    "p2_sh_lambda_from_ode",
    "p2_sh_roots",
    "p2_spectrum",
    "p2_wf_equidistant",
    "p2_wf_semihyperbolic",
    "s2_complex_factor",
    "sh_bracket",
    "v2_ambient",
    "v2_equidistant",
    "wf_ambient",
    "z_pt_factor",
]

SQRT2 = math.sqrt(2.0)

#: fixture parameters for the semi-hyperbolic chart: e1 = conj(e2) = i, e3 = 0
DEFAULT_SH_PARAMS = (0.0, 1.0, 0.0)


def _lg(x) -> complex:
    return sf.log_gamma(x)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class P2Params:
    """Coupling constants of the second potential (all strictly positive).

    The derived constants are computed once per instance: cached_property
    stores them in the instance dict (no slots), and equality and hashing
    use the three fields only.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0 and self.gamma > 0):
            raise OutOfDomainError("P2Params requires alpha, beta, gamma > 0")

    @cached_property
    def B(self) -> float:
        return 2.0 * self.beta**2 - 2.0 * self.alpha**2 + 1.0

    @cached_property
    def M(self) -> float:
        return math.sqrt((self.B + math.hypot(self.B, self.gamma**2)) / 2.0)

    @cached_property
    def a(self) -> complex:
        """Re < 0 branch of a^2 = (B - i gamma^2)/4."""
        f = math.hypot(self.B, self.gamma**2)
        re = -math.sqrt(f + self.B) / (2.0 * SQRT2)
        im = math.sqrt(f - self.B) / (2.0 * SQRT2)
        return complex(re, im)

    @cached_property
    def d(self) -> float:
        return math.sqrt(2.0 * self.alpha**2 + 0.25)

    @property
    def k1(self) -> complex:
        return self.a

    @property
    def k2(self) -> complex:
        return self.a.conjugate()

    @property
    def k3(self) -> float:
        return self.d

    @cached_property
    def nmax(self) -> int | None:
        k = _window_top(self.M - self.d - 2.0)
        return k if k >= 0 else None

    @cached_property
    def m_max(self) -> int:
        # closed bracket of the quantization window: mu = 0 is included
        return math.floor((self.M - 1.0) / 2.0)


def p2_mu(p: P2Params, m: int) -> float:
    """mu = -2m - 1 + M."""
    if m < 0 or m > p.m_max:
        raise OutOfWindowError(f"m = {m} outside window 0..{p.m_max}")
    return p.M - 2.0 * m - 1.0


def _check_level(p: P2Params, N: int):
    nmax = p.nmax
    if nmax is None:
        raise NoBoundStateError("no bound states: M - d - 2 < 0")
    if N < 0 or N > nmax:
        raise NoBoundStateError(f"N = {N} outside the bound window 0..{nmax}")


def p2_energy(p: P2Params, N: int) -> float:
    """E_N = -(1/2)(2N + 2 + d - M)^2 + 1/8."""
    _check_level(p, N)
    return -0.5 * (2.0 * N + 2.0 + p.d - p.M) ** 2 + 0.125


def p2_energy_semihyperbolic(p: P2Params, N: int) -> float:
    """Same level energy via -(1/2)(2N + 2 + k1 + k2 + k3)^2 + 1/8.

    Evaluated in complex arithmetic from the k's; the imaginary part (exact
    zero analytically) is checked and discarded.
    """
    _check_level(p, N)
    ksum = p.k1 + p.k2 + p.k3
    e = -0.5 * (2.0 * N + 2.0 + ksum) ** 2 + 0.125
    if abs(e.imag) > 1e-12 * max(1.0, abs(e.real)):
        raise SolverFailureError("semi-hyperbolic energy came out complex")
    return e.real


def p2_spectrum(p: P2Params) -> list[dict]:
    out = []
    nmax = p.nmax
    if nmax is None:
        return out
    for N in range(nmax + 1):
        states = []
        for m in range(0, min(N, p.m_max) + 1):
            mu = p2_mu(p, m)
            if N - m <= p1_n_max(p, mu):
                states.append({"n": N - m, "m": m, "mu": mu})
        out.append({"N": N, "E": p2_energy(p, N),
                    "degeneracy": len(states), "states": states})
    return out


# ---------------------------------------------------------------------------
# Potential
# ---------------------------------------------------------------------------

def v2_ambient(p: P2Params, q: AmbientPoint) -> float:
    """V2 at an AmbientPoint, or at every point of an AmbientPoints."""
    if np.any(q.w2 == 0.0):
        raise SingularConfigurationError("V2 singular at w2 = 0")
    ssum = q.w0**2 + q.w1**2
    return (p.alpha**2 / q.w2**2
            + p.gamma**2 * q.w0 * q.w1 / ssum**2
            + (p.alpha**2 - p.beta**2) * (q.w0**2 - q.w1**2) / ssum**2)


def v2_equidistant(p: P2Params, t1, t2, sign_corrected: bool = True):
    """Equidistant chart form of V2.

    The published display carries -alpha^2/sinh^2 t1, inconsistent with the
    ambient +alpha^2/w2^2 (w2 = sinh t1); ``sign_corrected=True`` (default)
    uses the ambient-consistent sign, False reproduces the display.
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    sign = 1.0 if sign_corrected else -1.0
    return (sign * p.alpha**2 / np.sinh(t1) ** 2
            + (p.alpha**2 - p.beta**2 + p.gamma**2 * np.cosh(t2) * np.sinh(t2))
            / (np.cosh(t1) ** 2 * np.cosh(2.0 * t2) ** 2))


# ---------------------------------------------------------------------------
# Equidistant wavefunction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _s2_phase(p: P2Params, m: int) -> complex:
    raw = _s2_raw(p, m, np.array([0.0]))[0]
    return raw / abs(raw)


def _s2_raw(p: P2Params, m: int, t2: np.ndarray) -> np.ndarray:
    a = p.a
    mu = p2_mu(p, m)
    # real positive normalization: mu m! |Gamma(-m-a)|^2 / (pi 2^{1-M} Gamma(M-m))
    log_norm = 0.5 * (math.log(mu) + _lg(m + 1.0).real
                      + 2.0 * _lg(-m - a).real
                      - math.log(math.pi) - (1.0 - p.M) * math.log(2.0)
                      - _lg(p.M - m).real)
    x = np.sinh(2.0 * t2)
    zp = 1.0 + 1j * x
    zm = 1.0 - 1j * x
    powers = np.exp((a / 2.0 + 0.25) * np.log(zp)
                    + (a.conjugate() / 2.0 + 0.25) * np.log(zm))
    poly = sf.jacobi(m, a, a.conjugate(), -1j * x)
    return math.exp(log_norm) * powers * np.asarray(poly, dtype=complex)


def s2_complex_factor(p: P2Params, m: int, t2) -> np.ndarray:
    """Complex-Jacobi factor S_m(t2), unit norm on t2 in R, phase-fixed.

    S(0) is real positive; the value is real for all t2 up to round-off
    (the two branch factors are conjugate, the polynomial has conjugate
    parameters), which tests assert.
    """
    t2 = np.atleast_1d(np.asarray(t2, dtype=float))
    return _s2_raw(p, m, t2) / _s2_phase(p, m)


#: Modified Poschl-Teller factor, unit norm on t1 in (0, inf).  It is the
#: first potential's factor: the Jacobi superscript pair is (d, -mu) with
#: d = sqrt(2 alpha^2 + 1/4) (required for the stated normalization; the
#: published display's bare alpha superscript is a typo this package does
#: not follow).
z_pt_factor = pt_factor


@dataclass(frozen=True)
class P2State:
    """Bound state of the second potential."""

    params: P2Params
    chart: str
    numbers: tuple
    roots: BetheRoots | None = None
    chart_params: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.chart == "equidistant":
            n, m = self.numbers
            mu = p2_mu(self.params, m)
            if n < 0 or n > p1_n_max(self.params, mu):
                raise OutOfWindowError(f"(n, m) = {self.numbers} outside windows")
        elif self.chart == "semi-hyperbolic":
            if self.roots is None or self.chart_params is None:
                raise OutOfDomainError(
                    "semi-hyperbolic state needs roots and chart_params")
        else:
            raise OutOfDomainError(f"unsupported chart {self.chart!r} for potential 2")

    @property
    def N(self) -> int:
        if self.chart == "equidistant":
            return self.numbers[0] + self.numbers[1]
        return self.roots.N

    @property
    def energy(self) -> float:
        return p2_energy(self.params, self.N)


def p2_wf_equidistant(state: P2State, t1, t2) -> np.ndarray:
    """Psi_{nm}(t1, t2), real up to round-off after the global phase fix."""
    n, m = state.numbers
    p = state.params
    mu = p2_mu(p, m)
    t1 = np.asarray(t1, dtype=float)
    return (np.cosh(t1) ** -0.5
            * z_pt_factor(p, n, mu, t1)
            * s2_complex_factor(p, m, t2))


# ---------------------------------------------------------------------------
# Semi-hyperbolic system
# ---------------------------------------------------------------------------

def _es(chart_params) -> tuple[complex, complex, float]:
    a_c, b_c, e3 = chart_params
    e1 = complex(a_c, b_c)
    return e1, e1.conjugate(), e3


def p2_sh_equations(p: P2Params, theta: np.ndarray,
                    chart_params) -> np.ndarray:
    """Zero equations on the complexified sphere, one per root."""
    e1, e2, e3 = _es(chart_params)
    ks = (p.k1, p.k2, p.k3)
    es = (e1, e2, e3)
    theta = np.asarray(theta, dtype=complex)
    n = len(theta)
    out = np.zeros(n, dtype=complex)
    for i in range(n):
        v = 0.0 + 0.0j
        for k, e in zip(ks, es):
            v += (k + 1.0) / (theta[i] - e)
        for j in range(n):
            if j != i:
                v += 2.0 / (theta[i] - theta[j])
        out[i] = v
    return out


def _sh_family(p: P2Params, chart_params) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (a, b), ascending, of the zero equations multiplied
    through by P = prod_l (theta - e_l):

        a = 2 P,   b = sum_l (k_l + 1) prod_{m != l} (theta - e_m).

    Both are real, because e2 = conj(e1) and k2 = conj(k1); the imaginary
    parts left by the complex arithmetic are round-off and are dropped.
    """
    es = _es(chart_params)
    ks = (p.k1, p.k2, p.k3)
    lin = [np.array([-e, 1.0]) for e in es]
    a = 2.0 * np.convolve(np.convolve(lin[0], lin[1]), lin[2])
    b = sum((k + 1.0) * np.convolve(lin[m], lin[n])
            for k, (m, n) in zip(ks, ((1, 2), (0, 2), (0, 1))))
    return a.real, b.real


def p2_sh_roots(p: P2Params, N: int, chart_params=DEFAULT_SH_PARAMS,
                tol: float = 1e-10) -> list[BetheRoots]:
    """Root configurations of the semi-hyperbolic zero equations.

    All N + 1 candidates come from one Heine-Stieltjes eigenproblem (see
    ``potential1``).  Roots may be complex; each returned configuration is
    closed under conjugation (required for a real wavefunction), with
    zone_counts recording (real roots, complex pairs).
    """
    _check_level(p, N)
    if N == 0:
        return [BetheRoots("semi-hyperbolic", "sphere", 0, (), 0.0, (0, 0))]
    found: list[tuple[np.ndarray, float]] = []
    best = math.inf
    for x in _stieltjes_roots(*_sh_family(p, chart_params), N):
        r = _residual(p2_sh_equations(p, x, chart_params))
        best = min(best, r)
        if r > tol:
            continue
        # conjugate closure (guards realness of the wavefunction)
        key = np.sort_complex(np.round(x, 8))
        conj = np.sort_complex(np.round(x.conjugate(), 8))
        if np.max(np.abs(key - conj)) > 1e-6:
            continue
        found.append((np.sort_complex(x), r))
    if not found:
        raise SolverFailureError(
            f"no semi-hyperbolic configuration reached residual {tol:g}",
            best_residual=best)
    out = []
    for roots, r in found:
        n_real = int(np.sum(np.abs(roots.imag) < 1e-9))
        out.append(BetheRoots("semi-hyperbolic", "sphere", N,
                              tuple(roots), r, (n_real, (N - n_real) // 2)))
    out.sort(key=lambda br: (br.zone_counts[0], [(z.real, z.imag) for z in br.roots]))
    return out


def p2_sh_lambda(p: P2Params, roots: BetheRoots, chart_params=DEFAULT_SH_PARAMS,
                 variant: str = "symmetric") -> complex:
    """Separation constant of the semi-hyperbolic separated equation.

    variant="symmetric" (default): all three root-sum terms carry the
    coefficient 4, which is forced by conjugation symmetry (lambda must be
    real) and confirmed by the ODE oracle; "printed" reproduces the
    published display, whose middle term lacks the 4.
    """
    e1, e2, e3 = _es(chart_params)
    k1, k2, k3 = p.k1, p.k2, p.k3
    th = np.asarray(roots.roots, dtype=complex)

    def root_sum(e):
        return np.sum(1.0 / (th - e)) if len(th) else 0.0

    out = (-2.0 * (k1 * (e2 + e3) + k2 * (e1 + e3) + k3 * (e1 + e2))
           - 2.0 * (e3 * k1 * k2 + e2 * k1 * k3 + e1 * k2 * k3)
           - 1.5 * (e1 + e2 + e3))
    c_mid = 4.0 if variant == "symmetric" else 1.0
    out -= 4.0 * e2 * e3 * (k1 + 1.0) * root_sum(e1)
    out -= c_mid * e1 * e3 * (k2 + 1.0) * root_sum(e2)
    out -= 4.0 * e1 * e2 * (k3 + 1.0) * root_sum(e3)
    return out


def p2_sh_lambda_from_ode(p: P2Params, roots: BetheRoots, N: int,
                          chart_params=DEFAULT_SH_PARAMS,
                          rho_values=(0.37, 1.91, -2.63)) -> complex:
    """Independent oracle: solve the separated ODE for lambda.

    The separated equation is linear in lambda; with the product ansatz
    psi = prod_l (rho - e_l)^{(k_l + 1/2)/2} prod_j (rho - theta_j) every
    term is known in closed form, so lambda can be read off at any probe
    rho.  Constancy across probes is checked.
    """
    e1, e2, e3 = _es(chart_params)
    es = (e1, e2, e3)
    ks = (p.k1, p.k2, p.k3)
    cs = [(es[0] - es[1]) * (es[0] - es[2]),
          (es[1] - es[0]) * (es[1] - es[2]),
          (es[2] - es[0]) * (es[2] - es[1])]
    th = np.asarray(roots.roots, dtype=complex)
    e_level = p2_energy(p, N)
    vals = []
    for rho in rho_values:
        rho = complex(rho)
        if min(abs(rho - e) for e in es) < 1e-6 or (
                len(th) and np.min(np.abs(rho - th)) < 1e-6):
            continue
        dlog = sum((k + 0.5) / 2.0 / (rho - e) for k, e in zip(ks, es))
        if len(th):
            dlog += np.sum(1.0 / (rho - th))
        d2log = -sum((k + 0.5) / 2.0 / (rho - e) ** 2 for k, e in zip(ks, es))
        if len(th):
            d2log -= np.sum(1.0 / (rho - th) ** 2)
        psi_pp = dlog * dlog + d2log  # psi''/psi
        half_sum = 0.5 * sum(1.0 / (rho - e) for e in es)
        P = (rho - e1) * (rho - e2) * (rho - e3)
        lam = (4.0 * P * (psi_pp + half_sum * dlog)
               - sum((k * k - 0.25) * c / (rho - e)
                     for k, e, c in zip(ks, es, cs))
               + 2.0 * e_level * rho)
        vals.append(lam)
    vals = np.array(vals)
    if np.max(np.abs(vals - vals[0])) > 1e-8 * max(1.0, np.max(np.abs(vals))):
        raise SolverFailureError("ODE lambda probe values are not constant")
    return complex(np.mean(vals))


def p2_sh_lambda_closed(p: P2Params, roots: BetheRoots, N: int,
                        chart_params=DEFAULT_SH_PARAMS) -> complex:
    """Closed form of the separation constant from large-rho matching.

    Expanding the separated equation at rho -> inf and reading off the
    constant term gives, with sigma_l = (k_l + 1/2)/2, sigma = sum sigma_l,
    S1 = e1 + e2 + e3 and T1 = sum theta_j:

        lambda = 4 (sum_l sigma_l e_l + T1)(2 sigma + 2N - 1/2)
                 + 2 S1 (sigma + N) - 4 S1 (sigma + N)(sigma + N + 1/2).

    Agrees with the ODE-probe oracle and with the measured operator
    eigenvalue; the published display differs from all three by a
    root-independent constant.
    """
    e1, e2, e3 = _es(chart_params)
    ks = (p.k1, p.k2, p.k3)
    sig_l = [(k + 0.5) / 2.0 for k in ks]
    sigma = sum(sig_l)
    s1 = e1 + e2 + e3
    t1 = sum(roots.roots) if roots.roots else 0.0
    se = sum(s * e for s, e in zip(sig_l, (e1, e2, e3)))
    x = sigma + N
    return (4.0 * (se + t1) * (2.0 * x - 0.5)
            + 2.0 * s1 * x - 4.0 * s1 * x * (x + 0.5))


def sh_bracket(theta: complex, q: AmbientPoint, chart_params) -> complex:
    """One zero factor of the product wavefunction, in ambient variables
    (arrays for an AmbientPoints).

    Equals s1^2/(theta-e1) + s2^2/(theta-e2) + s3^2/(theta-e3); the partial
    fraction form below is the published identity, verified pointwise by
    tests against the sphere-side sum.
    """
    a_c, b_c, e3 = chart_params
    num = ((q.w0**2 - q.w1**2) * (theta - a_c) - 2.0 * q.w0 * q.w1 * b_c)
    return num / ((theta - a_c) ** 2 + b_c**2) - q.w2**2 / (theta - e3)


def p2_wf_semihyperbolic(state: P2State, q: AmbientPoint) -> complex:
    """Product wavefunction directly from the ambient point (or from every
    point of an AmbientPoints, as an array).

    Principal branches throughout; the constant phase of (i w2)^{k3+1/2} is
    divided out and |w2| is used (even extension across the wall), so the
    value is real up to round-off for conjugate-closed root configurations.
    """
    if np.any(q.w2 == 0.0):
        raise SingularConfigurationError("wavefunction factor singular at w2 = 0")
    p = state.params
    s1 = (q.w0 + 1j * q.w1) / SQRT2
    # s1^{k1+1/2} s2^{k2+1/2} = exp(2 Re[(k1+1/2) Log s1]) is real positive
    radial = np.exp(2.0 * ((p.k1 + 0.5) * np.log(s1)).real)
    wall = np.abs(q.w2) ** (p.k3 + 0.5)
    prod = 1.0 + 0.0j
    for th in state.roots.roots:
        prod = prod * sh_bracket(th, q, state.chart_params)
    return radial * wall * prod


def wf_ambient(state: P2State):
    """Wavefunction as a function of ambient points: complex for an
    AmbientPoint, a complex array for an AmbientPoints batch.

    Equidistant states go through the chart inversion; semi-hyperbolic
    states are evaluated directly in ambient variables.
    """
    if state.chart == "semi-hyperbolic":
        return lambda q: p2_wf_semihyperbolic(state, q)

    def f(q):
        out = p2_wf_equidistant(state, *chart_coordinates(q, "equidistant"))
        if isinstance(q, AmbientPoints):
            return out
        return complex(np.asarray(out).reshape(()))
    return f
