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
from functools import cached_property

import numpy as np

from . import specfun as sf
from .errors import SingularConfigurationError, SolverFailureError
from .geometry import AmbientPoint
from .potential1 import (
    BetheRoots,
    P1State,
    _check_couplings,
    _check_level,
    _EquidistantWell,
    _equidistant_product,
    _residual,
    p1_energy,
    p1_mu,
    p1_spectrum,
    pt_factor,
    wf_ambient as p1_wf_ambient,
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
    "s2_rule",
    "sh_bracket",
    "v2_ambient",
    "v2_equidistant",
    "wf_ambient",
    "z_pt_factor",
]

SQRT2 = math.sqrt(2.0)

#: fixture parameters for the semi-hyperbolic chart: e1 = conj(e2) = i, e3 = 0
DEFAULT_SH_PARAMS = (0.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class P2Params(_EquidistantWell):
    """Coupling constants of the second potential (all strictly positive).

    The derived constants are computed once per instance: cached_property
    stores them in the instance dict (no slots), and equality and hashing
    use the three fields only.  The equidistant well (windows, energies,
    spectrum) is the first potential's, with strength M.
    """

    alpha: float
    beta: float
    gamma: float
    _strength = "M"
    charts = ("equidistant", "semi-hyperbolic")

    def __post_init__(self):
        _check_couplings(self, ("B", "M", "a", "d"))

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

    def m_factor(self, m, t2, mu):
        return s2_complex_factor(self, m, t2)

    def m_rule(self, m, mu):
        return s2_rule(self, m)


p2_mu = p1_mu
p2_energy = p1_energy
p2_spectrum = p1_spectrum
P2State = P1State


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

def s2_complex_factor(p: P2Params, m, t2) -> np.ndarray:
    """Complex-Jacobi factor S_m(t2), unit norm on t2 in R, of m or of a
    column m (a row each), as ``potential1.morse_factor``: with x = sinh 2 t2

        C (1+ix)^{a/2+1/4} (1-ix)^{conj a/2+1/4} P_m^{(a, conj a)}(-ix),

    C^2 = mu m! |Gamma(-m-a)|^2 / (pi 2^{1-M} Gamma(M-m)).  Both branch
    factors are 1 at t2 = 0, so the phase |P_m(0)| / P_m(0) makes S(0) real
    positive; S is real for all t2 up to round-off, which tests assert.
    """
    a, mu = p.a, p2_mu(p, m)
    log_norm = 0.5 * (sf._each(math.log, mu) + sf.lgamma(m + 1.0)
                      + 2.0 * sf.lgamma(-m - a)
                      - math.log(math.pi) - (1.0 - p.M) * math.log(2.0)
                      - sf.lgamma(p.M - m))
    x = np.sinh(2.0 * sf._asarray(t2))
    powers = np.exp((a / 2.0 + 0.25) * np.log(1.0 + 1j * x)
                    + (a.conjugate() / 2.0 + 0.25) * np.log(1.0 - 1j * x))
    poly = sf.jacobi(m, a, a.conjugate(), -1j * x)
    c = sf._each(math.exp, log_norm)
    # S(0) before the phase fix, in the complex arithmetic of every t2
    s0 = c * sf.jacobi(m, a, a.conjugate(), 0j)
    return c * powers * sf._asarray(poly, complex) / (s0 / np.abs(s0))


def s2_rule(p: P2Params, m):
    """``potential1.pt_rule`` for the ``s2_complex_factor`` states m_i
    (their real parts), in t2.

    In x = sinh 2 t2, S_i S_j dt2 is (1/2) (1+ix)^a (1-ix)^{conj a} dx times a
    polynomial of degree m_i + m_j: the Romanovski rule of max m + 1 nodes
    is exact.  Its mass pi 2^{2 + 2 Re a} Gamma(-1 - 2 Re a) / |Gamma(-a)|^2
    stays in log space.
    """
    a = p.a
    x, w = sf.gauss_rule(*sf.romanovski_recurrence(a, int(np.max(m)) + 1), 1.0)
    log_mass = (math.log(math.pi) + (2.0 - p.M) * math.log(2.0)
                + sf.lgamma(p.M - 1.0) - 2.0 * sf.lgamma(-a))
    # dt2 = dx / (2 sqrt(1+x^2)), over the weight
    return 0.5 * np.arcsinh(x), 0.5 * w * np.exp(
        log_mass + 2.0 * a.imag * np.arctan(x) - (a.real + 0.5) * np.log1p(x * x))


#: Modified Poschl-Teller factor, unit norm on t1 in (0, inf).  It is the
#: first potential's factor: the Jacobi superscript pair is (d, -mu) with
#: d = sqrt(2 alpha^2 + 1/4) (required for the stated normalization; the
#: published display's bare alpha superscript is a typo this package does
#: not follow).
z_pt_factor = pt_factor


def p2_wf_equidistant(state: P2State, t1, t2) -> np.ndarray:
    """Psi_{nm}(t1, t2), real up to round-off after the global phase fix."""
    return _equidistant_product(state.params, *state.numbers, t1, t2)


# ---------------------------------------------------------------------------
# Semi-hyperbolic system
# ---------------------------------------------------------------------------

def _es(chart_params) -> tuple[complex, complex, float]:
    a_c, b_c, e3 = chart_params
    e1 = complex(a_c, b_c)
    return e1, e1.conjugate(), e3


def p2_sh_equations(p: P2Params, theta: np.ndarray,
                    chart_params) -> np.ndarray:
    """Zero equations on the complexified sphere, one per root (per row of
    a stack theta): the sum, from 0 and in this order, of (k_l + 1)/(theta_i
    - e_l) for l = 1..3 and 2/(theta_i - theta_j) for j != i."""
    theta = np.asarray(theta, dtype=complex)[..., None]
    gap = theta - np.swapaxes(theta, -1, -2)
    gap[..., np.eye(theta.shape[-2], dtype=bool)] = np.inf  # 2/inf = 0
    terms = np.concatenate([np.zeros_like(theta),
                            (np.array([p.k1, p.k2, p.k3]) + 1.0)
                            / (theta - np.array(_es(chart_params))),
                            2.0 / gap], axis=-1)
    return np.cumsum(terms, axis=-1)[..., -1]


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
    """Root configurations of the semi-hyperbolic zero equations that
    reach ``tol``.

    The candidates come from one Heine-Stieltjes eigenproblem (see
    ``specfun._stieltjes_roots``): the family is real, so each is closed
    under conjugation (required for a real wavefunction).  Their residuals
    are one stacked ``p2_sh_equations`` call.  zone_counts records (real
    roots, complex pairs).
    """
    _check_level(p, N)
    configs = sf._stieltjes_roots(*_sh_family(p, chart_params), N)
    residuals = _residual(p2_sh_equations(
        p, np.reshape(configs, (len(configs), N)), chart_params))
    out = []
    for x, r in zip(configs, residuals):
        if r > tol:
            continue
        roots = np.sort_complex(x)
        n_real = int(np.sum(np.abs(roots.imag) < 1e-9))
        out.append(BetheRoots("semi-hyperbolic", "sphere", N,
                              tuple(roots), r, (n_real, (N - n_real) // 2)))
    if not out:
        raise SolverFailureError(
            f"no semi-hyperbolic configuration reached residual {tol:g}",
            best_residual=min(residuals, default=math.inf))
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
                          chart_params=DEFAULT_SH_PARAMS) -> complex:
    """Independent oracle: solve the separated ODE for lambda.

    The separated equation is linear in lambda; with the product ansatz
    psi = prod_l (rho - e_l)^{(k_l + 1/2)/2} prod_j (rho - theta_j) every
    term is known in closed form, so lambda can be read off at any probe
    rho.  Constancy across the probes 0.37, 1.91 and -2.63 is checked.
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
    for rho in (0.37, 1.91, -2.63):
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

    Semi-hyperbolic states are evaluated directly in ambient variables,
    equidistant ones by ``potential1.wf_ambient``.
    """
    if state.chart != "semi-hyperbolic":
        return p1_wf_ambient(state)
    return lambda q: p2_wf_semihyperbolic(state, q)
