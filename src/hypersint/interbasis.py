"""Expansion of horicyclic eigenstates over equidistant ones at fixed energy.

On level N the two bases are related by

    Psi^(hc)_{n1 n2}(x, y) = sum_m  W[(n1,n2),(n,m)] Psi^(eq)_{n m}(a, b),

with n1 + n2 = n + m = N and the coordinate bridge x = e^b tanh a,
y = e^b / cosh a.  Both bases are taken orthonormal in L^2 of the invariant
measure on the half-chart a > 0 (see potential1), so W is a real orthogonal
(N+1) x (N+1) matrix.

Three independent computations are provided:

* ``w_quadrature`` -- the large-b reduction of the overlap to a
  one-dimensional integral over a, which x = tanh^2 a turns into a
  polynomial against a Jacobi weight, evaluated by each row's exact
  Gauss-Jacobi rule (ground truth);
* ``w_3f2``        -- the same integral summed in closed form via the
  Beta-integral, yielding a terminating 3F2 at unit argument;
* ``w_hahn``       -- the 3F2 re-expressed through a Hahn polynomial.

``variant="printed"`` switches every method to a verbatim transcription of
the published formulas.  The printed chain is internally consistent (its own
integral/3F2/Hahn forms agree once the integral is read over (0, inf)) but
is *not* orthogonal and does not reproduce the pointwise expansion: its
integrand carries cosh^{1-2mu-2m} where the orthogonality projection gives
cosh^{-1-2mu-2m}, and the prefactor differs by level-dependent factors.
The canonical variant is the one all invariants are stated for; the printed
variant exists so the discrepancy can be measured and reported.

Each call assembles its whole matrix in a fixed number of array passes:
prefactors formed as a column of row terms and a row of column terms,
added in the order of the scalar formulas; the 3F2 or Hahn sums of all
entries from one ``specfun.hyp3f2_unit`` or ``specfun.hahn`` call (equal
to the per-entry sums bit for bit); and, for quadrature, the Gauss rules
of all rows from one ``specfun.gauss_rule`` call (one stacked eigh, with
Christoffel weights, which stay relatively accurate where the weights span
30 decades on wide wells) and the polynomial values of all columns and
nodes from one Jacobi recurrence.
Every matrix carries ``cancellation``, the largest ratio sum|t_k| /
|sum t_k| of the sums behind its entries (as specfun returns it for the
terminating sums, or of the quadrature terms w q); round-off in an entry
grows with it (about 1e16 at N = 10 on deep wells for 3F2, where
orthogonality is lost; 4.6e6 there for quadrature).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import potential1 as p1m
from . import specfun as sf
from .errors import NonFiniteValueError, OutOfDomainError
from .geometry import box_points
from .potential1 import P1Params

__all__ = [
    "InterbasisMatrix",
    "orthogonality_defect",
    "verify_expansion",
    "w_3f2",
    "w_hahn",
    "w_quadrature",
]

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class InterbasisMatrix:
    """Level-N change of basis; rows (n1, n2), columns (n, m).

    ``cancellation`` is the largest sum|t_k| / |sum t_k| over the sums
    behind the entries: the terminating sums (``3f2`` and ``hahn``) or the
    Gauss rules (``quadrature``); inf if a sum is exactly 0.
    """

    N: int
    method: str
    variant: str
    entries: np.ndarray
    rows: tuple
    cols: tuple
    cancellation: float | None = None

    def __post_init__(self):
        if self.entries.shape != (len(self.rows), len(self.cols)):
            raise OutOfDomainError("entry shape does not match the index sets")


def orthogonality_defect(w: InterbasisMatrix) -> float:
    """max |W^T W - I|; inf where W^T W is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = w.entries.T @ w.entries
    if not np.all(np.isfinite(g)):
        return math.inf
    return float(np.max(np.abs(g - np.eye(g.shape[0]))))


class _Level:
    """What all entries of one level-N matrix share: the index sets and nu.

    The rows (n1, n2) are held as columns and the columns (n, m, mu) and
    their signs (-1)^n as rows, so an entry is a broadcast sum or product
    of row and column terms, taken in the scalar formula's order.
    """

    def __init__(self, p: P1Params, N: int, variant: str):
        self.p, self.N, self.d, self.nu = p, N, p.d, p1m.p1_nu(p, N)
        self.rows = tuple(p1m.level_states_horicyclic(p, N))
        self.cols = tuple(p1m.level_states_equidistant(p, N))
        if variant not in ("canonical", "printed"):
            raise OutOfDomainError(f"unknown variant {variant!r}")
        self.canonical = variant == "canonical"
        self.n1, self.n2 = np.array(self.rows, dtype=float).T[:, :, None]
        self.n, self.m = np.array(self.cols, dtype=float).T[:, None, :]
        self.mu, self.sign = p1m.p1_mu(p, self.m), (-1.0) ** self.n


def _log_k0(lv: _Level) -> np.ndarray:
    """log of the positive canonical prefactor K0 A_n multiplying the
    a-integral, log K0 + log A_n in that order.

    K0 = (m! mu / nu) chat C1 C2 / (C_m n1! n2!) with chat the canonical
    horicyclic scale and C1, C2, C_m the 1D factors' normalizations; A_n is
    the t1-factor's normalization.
    """
    p, nu, lg, n1, n2, m, mu = lv.p, lv.nu, sf.lgamma, lv.n1, lv.n2, lv.m, lv.mu
    log_chat = 0.5 * (math.log(2.0) + math.log(nu) - math.log(SQRT2 * p.beta))
    head = lg(m + 1.0) + sf._each(math.log, mu) - math.log(nu) + log_chat
    k0 = (head + p1m._osc_x_log_norm(p, n1) + p1m._osc_y_log_norm(p, n2, nu)
          - p1m._morse_log_norm(m, mu) - lg(n1 + 1.0) - lg(n2 + 1.0))
    return k0 + p1m._pt_log_norm(p, lv.n, mu, nu)


def _jacobi_rules(lv: _Level) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, (rows, N//2 + 1) each, of the Gauss rule of each
    row's weight x^{d+n1} (1-x)^A on (0, 1), A = nu + n2 (printed: nu + n2
    - 1), with mass B(d+n1+1, A+1): all rows from one ``specfun.gauss_rule``.
    """
    al, be = lv.d + lv.n1, lv.nu + lv.n2 - (0.0 if lv.canonical else 1.0)
    lg = sf.lgamma
    return sf.gauss_rule(*sf.jacobi_recurrence(al, be, lv.N // 2 + 1),
                         sf._each(math.exp, lg(al + 1.0) + lg(be + 1.0)
                                  - lg(al + be + 2.0))[:, 0])


def _a_integrals(lv: _Level) -> tuple[np.ndarray, np.ndarray]:
    """int_0^inf sinh^{1+2d+2n1} cosh^c P_n^{(d,-mu)}(cosh 2a) da of every
    entry, with c = -1-2mu-2m (canonical) or 1-2mu-2m (printed), and the
    same rule's sum of the moduli of its terms.

    With x = tanh^2 a the integral is (1/2) int_0^1 x^{d+n1} (1-x)^A q_n(x)
    dx, where q_n(x) = (1-x)^n P_n^{(d,-mu)}((1+x)/(1-x)).  Its series
    sum_k C(n+d, n-k) C(n-mu, k) x^k is a 2F1 that, since mu - 2n - 1 - d
    = nu, makes q_n(x) = P_n^{(d,nu)}(1-2x): a polynomial of degree n with
    the level's parameters, evaluated inside (-1, 1) by one recurrence for
    all columns and nodes.  Both exponents exceed -1 on every bound level,
    and the row's rule of N//2 + 1 nodes is exact for every column.
    """
    x, w = _jacobi_rules(lv)
    t = sf.jacobi(lv.n.T[:, :, None], lv.d, lv.nu, 1.0 - 2.0 * x) * w  # (cols, rows, nodes)
    return 0.5 * np.sum(t, axis=2).T, 0.5 * np.sum(np.abs(t), axis=2).T


def w_quadrature(p: P1Params, N: int, variant: str = "canonical") -> InterbasisMatrix:
    """Interbasis matrix from the one-dimensional overlap integral.

    canonical: orthogonality projection of the large-b limit, with the
    canonical normalizations; entry = (-1)^n K0 A_n J where

        J = int_0^inf sinh^{1+2d+2n1} cosh^{-1-2mu-2m} P_n^{(d,-mu)}(cosh 2a) da.

    printed: verbatim published prefactor and the integrand with
    cosh^{1-2mu-2m}, integral read over (0, inf).

    Raises NonFiniteValueError when an entry is not finite.
    """
    lv = _Level(p, N, variant)
    d, lg, n1, n2, n, m, mu = lv.d, sf.lgamma, lv.n1, lv.n2, lv.n, lv.m, lv.mu
    val, mass = _a_integrals(lv)
    if lv.canonical:
        logk = _log_k0(lv)
    else:
        head = (lg(m + 1.0) + lg(n + 1.0) + math.log(SQRT2 * p.beta)
                + sf._each(math.log, mu - d - 2.0 * n - 1.0) + lg(mu + m + 1.0)
                + lg(mu - n))
        logk = 0.5 * (
            head - lg(n1 + 1.0) - lg(n2 + 1.0) - sf._each(math.log, mu)
            - lg(n1 + d + 1.0) - lg(n2 + d + 1.0) - lg(n + d + 1.0)
            - lg(mu - d - n))
    entries = lv.sign * sf._each(math.exp, logk) * val
    bad = np.count_nonzero(~np.isfinite(entries))
    if bad:
        raise NonFiniteValueError(f"w_quadrature at N = {N}: {bad} of "
                                  f"{entries.size} entries are not finite")
    ratio = np.divide(mass, np.abs(val), out=np.full(val.shape, math.inf),
                      where=val != 0)
    return InterbasisMatrix(N, "quadrature", variant, entries,
                            lv.rows, lv.cols, float(np.max(ratio)))


def w_3f2(p: P1Params, N: int, variant: str = "canonical") -> InterbasisMatrix:
    """Closed form of the overlap: terminating 3F2 at unit argument.

    canonical: Beta-integral summation of the canonical a-integral,

        W = K0 A_n ((1-mu)_n / n!) (1/2)
            Gamma(1+d+n1) Gamma(mu+m-d-n1) / Gamma(1+mu+m)
            3F2(-n, n+d-mu+1, -mu-m; 1-mu, 1+d+n1-mu-m; 1).

    printed: the published display (whose lower/upper parameters and Gamma
    arguments sit one unit away from the canonical ones).
    """
    lv = _Level(p, N, variant)
    d, lg, n1, n2, n, m, mu = lv.d, sf.lgamma, lv.n1, lv.n2, lv.n, lv.m, lv.mu
    c, e = ((-mu - m, 1.0 + d + n1 - mu - m) if lv.canonical
            else (1.0 - mu - m, 2.0 + n1 + d - mu - m))
    f32, ratio = sf.hyp3f2_unit(n, n + d - mu + 1.0, c, 1.0 - mu, e)
    if lv.canonical:
        # every factor (1-mu)+k = -((mu-1)-k) of (1-mu)_n is negative inside
        # the window mu > d + 1 + 2n, so its sign is (-1)^n; its log sums the
        # rows k < N of log((mu-1)-k) (0 where k >= n) in the product's order
        k, sgn = np.arange(N, dtype=float)[:, None], lv.sign
        logp = sum(sf._each(math.log, np.where(k < n, mu - 1.0 - k, 1.0)), 0.0)
        logmag = (_log_k0(lv) + logp - lg(n + 1.0)
                  - math.log(2.0) + lg(1.0 + d + n1)
                  + lg(mu + m - d - n1) - lg(1.0 + mu + m))
    else:
        sgn = lv.sign
        head = (lg(m + 1.0) + math.log(SQRT2 * p.beta)
                + sf._each(math.log, mu - d - 2.0 * n - 1.0)
                + sf._each(math.log, mu + m))
        logmag = 0.5 * (
            head + lg(n1 + d + 1.0) - lg(n + 1.0) - lg(n1 + 1.0)
            - lg(n2 + 1.0) - sf._each(math.log, mu) - lg(n2 + d + 1.0)
            - lg(n + d + 1.0) - lg(mu - n - d)
            - lg(mu - n) - lg(mu + m))
        logmag += (lg(mu) + lg(mu + m - d - n1 - 1.0) - math.log(2.0))
    return InterbasisMatrix(N, "3f2", variant,
                            sgn * sf._each(math.exp, logmag) * f32,
                            lv.rows, lv.cols, float(np.max(ratio)))


def w_hahn(p: P1Params, N: int, variant: str = "canonical") -> InterbasisMatrix:
    """The 3F2 assembly re-expressed through Hahn polynomials.

    canonical: W = K0 A_n (-1)^n (1/2) Gamma(1+d+n1)
                   Gamma(mu+m-d-n1-n) / Gamma(1+mu+m)
                   h_n^{(d,-mu)}(mu+m, mu+m-d-n1).

    printed: h_n^{(d,-mu)}(mu+m+1, mu+m-d-n1-1) with the published
    prefactor.
    """
    lv = _Level(p, N, variant)
    d, lg, n1, n2, n, m, mu = lv.d, sf.lgamma, lv.n1, lv.n2, lv.n, lv.m, lv.mu
    x, big_n = ((mu + m, mu + m - d - n1) if lv.canonical
                else (mu + m + 1.0, mu + m - d - n1 - 1.0))
    h, ratio = sf.hahn(n, d, -mu, x, big_n)
    if lv.canonical:
        logmag = (_log_k0(lv) - math.log(2.0)
                  + lg(1.0 + d + n1) + lg(mu + m - d - n1 - n)
                  - lg(1.0 + mu + m))
    else:
        head = (lg(m + 1.0) + lg(n + 1.0) + math.log(SQRT2 * p.beta)
                + sf._each(math.log, mu - d - 2.0 * n - 1.0)
                + sf._each(math.log, mu + m))
        logmag = 0.5 * (
            head - lg(n1 + 1.0) - lg(n2 + 1.0) - sf._each(math.log, mu)
            - lg(n + d + 1.0) - lg(mu - n - d)
            + lg(n1 + d + 1.0) + lg(mu - n)
            - lg(n2 + d + 1.0) - lg(mu + m))
        logmag += lg(mu + m - d - n1 - n - 1.0) - math.log(2.0)
    return InterbasisMatrix(N, "hahn", variant,
                            lv.sign * sf._each(math.exp, logmag) * h,
                            lv.rows, lv.cols, float(np.max(ratio)))


def verify_expansion(p: P1Params, N: int, w: InterbasisMatrix) -> float:
    """Pointwise residual of the expansion over 50 fixed chart points: the
    ``geometry.box_points`` design of 0.15 <= a <= 1.8, -1.2 <= b <= 0.9.

    max over points and rows of |Psi_hc(x,y) - sum_m W Psi_eq(a,b)|, scaled
    by the largest |Psi_hc| encountered; coordinates are bridged by
    x = e^b tanh a, y = e^b / cosh a.
    """
    a_pts, b_pts = box_points(50, (0.15, -1.2), (1.8, 0.9)).T
    x_pts = np.exp(b_pts) * np.tanh(a_pts)
    y_pts = np.exp(b_pts) / np.cosh(a_pts)
    # each basis in one pass, its quantum numbers as float columns (as in
    # _Level), so all the factor arithmetic stays in float64: (N+1, 50)
    hc = p1m._horicyclic_product(p, *np.array(w.rows, dtype=float).T[:, :, None],
                                 x_pts, y_pts)
    eq_vals = p1m._equidistant_product(p, *np.array(w.cols, dtype=float).T[:, :, None],
                                       a_pts, b_pts)
    recon = np.array([w.entries[i, :] @ eq_vals for i in range(len(w.rows))])
    # one max over all rows, so a NaN entry makes the residual NaN
    worst = float(np.max(np.abs(hc - recon)))
    return worst / max(float(np.max(np.abs(hc))), 1e-300)
