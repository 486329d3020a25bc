"""Expansion of horicyclic eigenstates over equidistant ones at fixed energy.

On level N the two bases are related by

    Psi^(hc)_{n1 n2}(x, y) = sum_m  W[(n1,n2),(n,m)] Psi^(eq)_{n m}(a, b),

with n1 + n2 = n + m = N and the coordinate bridge x = e^b tanh a,
y = e^b / cosh a.  Both bases are taken orthonormal in L^2 of the invariant
measure on the half-chart a > 0 (see potential1), so W is a real orthogonal
(N+1) x (N+1) matrix.

Three independent computations are provided:

* ``w_quadrature`` -- the large-b reduction of the overlap to a
  one-dimensional integral over a, evaluated numerically (ground truth);
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

All three share one assembly: each call builds the row index arrays, a
table of every distinct log-gamma argument (evaluated once per call) and,
for quadrature, the node tables of each node count; a column's entries are
then formed together, with one Jacobi evaluation per column and node count.
The 3F2 and Hahn matrices carry ``cancellation``, the largest ratio
sum|t_k| / |sum t_k| of their terminating sums; round-off in an entry grows
with it (about 1e16 at N = 10 on deep wells, where orthogonality is lost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import potential1 as p1m
from . import specfun as sf
from .errors import OutOfDomainError
from .potential1 import P1Params, P1State

__all__ = [
    "InterbasisMatrix",
    "orthogonality_defect",
    "verify_expansion",
    "w_3f2",
    "w_hahn",
    "w_quadrature",
]

SQRT2 = math.sqrt(2.0)
_HALF = math.pi / 4.0  # half-width of the phi interval (0, pi/2)


@dataclass(frozen=True)
class InterbasisMatrix:
    """Level-N change of basis; rows (n1, n2), columns (n, m).

    ``cancellation`` is the largest sum|t_k| / |sum t_k| over the terminating
    sums behind the entries (``3f2`` and ``hahn``; inf if a sum is exactly 0;
    None for quadrature).  ``unconverged`` is, for quadrature, the largest
    relative difference between the last two node counts of an integral
    that never met its 1e-13 stop rule (0.0 when all converged; None for
    ``3f2`` and ``hahn``).
    """

    N: int
    method: str
    variant: str
    entries: np.ndarray
    rows: tuple
    cols: tuple
    cancellation: float | None = None
    unconverged: float | None = None

    def __post_init__(self):
        if self.entries.shape != (len(self.rows), len(self.cols)):
            raise OutOfDomainError("entry shape does not match the index sets")


def orthogonality_defect(w: InterbasisMatrix) -> float:
    """max |W^T W - I|."""
    g = w.entries.T @ w.entries
    return float(np.max(np.abs(g - np.eye(g.shape[0]))))


class _LogGammaTable(dict):
    """Real log Gamma of each distinct argument met while building one
    matrix, evaluated on first lookup; called on an array, it looks up
    every element."""

    def __missing__(self, x: float) -> float:
        v = self[x] = sf.log_gamma(x).real
        return v

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return np.array([self[v] for v in x.tolist()])
        return self[x]


def _exp(x: np.ndarray) -> np.ndarray:
    # math.exp element by element: np.exp can differ in the last bit, and the
    # entries must equal those of the scalar formulas
    return np.array([math.exp(v) for v in x.tolist()])


class _Level:
    """What all entries of one level-N matrix share: the index sets (rows as
    float arrays n1, n2), nu, the log-gamma table and the node tables."""

    def __init__(self, p: P1Params, N: int, variant: str):
        self.p, self.d, self.nu = p, p.d, p1m.p1_nu(p, N)
        self.rows = tuple(p1m.level_states_horicyclic(p, N))
        self.cols = tuple(p1m.level_states_equidistant(p, N))
        if len(self.cols) != N + 1:
            raise OutOfDomainError(
                f"level N = {N} does not carry the full N+1 equidistant states")
        if variant not in ("canonical", "printed"):
            raise OutOfDomainError(f"unknown variant {variant!r}")
        self.canonical = variant == "canonical"
        self.n1, self.n2 = np.array(self.rows, dtype=float).T
        self.lg = _LogGammaTable()
        self._nodes = {}

    def nodes(self, n_nodes: int):
        """(w, cosh 2a, log sin phi, log cos phi) on the phi-mapped rule."""
        if n_nodes not in self._nodes:
            x, w = sf.gauss_legendre_nodes(n_nodes)
            phi = _HALF * (x + 1.0)
            sp, cp = np.sin(phi), np.cos(phi)
            self._nodes[n_nodes] = (w, (1.0 + sp * sp) / (cp * cp),
                                    np.log(sp), np.log(cp))
        return self._nodes[n_nodes]


def _log_k0(lv: _Level, m: int, mu: float) -> np.ndarray:
    """log of the positive projection constant multiplying the a-integral.

    K0 = (m! mu / nu) chat C1 C2 / (C_m n1! n2!) with chat the canonical
    horicyclic scale and C1, C2, C_m the closed-form 1D normalizations.
    """
    d, nu, lg, n1, n2 = lv.d, lv.nu, lv.lg, lv.n1, lv.n2
    sb = SQRT2 * lv.p.beta
    log_chat = 0.5 * (math.log(2.0) + math.log(nu) - math.log(sb))
    log_c1 = 0.5 * (lg(n1 + 1.0) + 0.5 * math.log(sb) - lg(n1 + d + 1.0))
    log_c2 = 0.5 * (math.log(2.0) + lg(n2 + 1.0) + 0.5 * math.log(sb)
                    - lg(n2 + nu + 1.0))
    log_cm = 0.5 * (math.log(2.0 * mu) + lg(m + 1.0) - lg(m + mu + 1.0))
    return (lg(m + 1.0) + math.log(mu) - math.log(nu) + log_chat
            + log_c1 + log_c2 - log_cm - lg(n1 + 1.0) - lg(n2 + 1.0))


def _log_an(lv: _Level, n: int, mu: float) -> float:
    d, lg = lv.d, lv.lg
    return 0.5 * (math.log(2.0 * lv.nu) + lg(mu - n) + lg(n + 1.0)
                  - lg(mu - d - n) - lg(1.0 + n + d))


def _sums(parts) -> tuple[np.ndarray, list[float]]:
    """Re(pref * sum_k t_k) of each (pref, terms) in parts, by the compensated
    sum of ``specfun``, and each sum's cancellation sum|t_k| / |sum t_k|."""
    vals, ratios = [], []
    for pref, terms in parts:
        total = sf._compensated_sum(terms)
        vals.append((pref * total).real)
        ratios.append(sum(map(abs, terms)) / abs(total) if total else math.inf)
    return np.array(vals), ratios


def _a_integrals(lv: _Level, n: int, mu: float, cosh_pow: float,
                 sinh_pow: np.ndarray,
                 tol: float = 1e-13) -> tuple[np.ndarray, float]:
    """int_0^inf sinh^s cosh^cosh_pow P_n^{(d,-mu)}(cosh 2a) da, s in sinh_pow,
    and the largest last-doubling difference of an unconverged integral.

    Substitution u = tanh a followed by u = sin(phi) (which turns the
    (1-u^2)^{half-integer} endpoint branch into an analytic factor), then
    Gauss-Legendre on (0, pi/2) with node doubling.  The integrals share one
    Jacobi evaluation per node count; each stops at the first node count
    where it agrees with the previous one, |val - prev| <= tol max(1, |val|).
    An integral that never does takes the last node count's value; the
    second result is the largest |val - prev| / max(1, |val|) among those
    (0.0 when every integral converged).
    """
    s = sinh_pow[:, None]
    c = s + cosh_pow + 1.0
    out = np.empty(len(sinh_pow))
    todo = np.ones(len(sinh_pow), dtype=bool)
    prev = None
    for n_nodes in (48, 96, 192, 384, 768):
        w, arg, log_sp, log_cp = lv.nodes(n_nodes)
        poly = np.real(sf.jacobi(n, lv.d, -mu, arg))
        val = _HALF * np.sum(w * (np.exp(s * log_sp - c * log_cp) * poly),
                             axis=1)
        if prev is not None:
            step = np.abs(val - prev)
            done = todo & (step <= tol * np.maximum(1.0, np.abs(val)))
            out[done] = val[done]
            todo &= ~done
            if not todo.any():
                return out, 0.0
        prev = val
    out[todo] = val[todo]
    return out, float(np.max(step[todo] / np.maximum(1.0, np.abs(val[todo]))))


def _assemble(p: P1Params, N: int, method: str, variant: str,
              column) -> InterbasisMatrix:
    """The matrix, one column at a time: ``column(lv, n, m, mu)`` returns the
    column's entries, the cancellation ratios of its sums (or None) and the
    unconverged-integral difference of its integrals (or None)."""
    lv = _Level(p, N, variant)
    ent = np.zeros((N + 1, N + 1))
    ratios, diffs = [], []
    for j, (n, m) in enumerate(lv.cols):
        ent[:, j], col_ratios, col_diff = column(lv, n, m, p1m.p1_mu(p, m))
        ratios += col_ratios or []
        if col_diff is not None:
            diffs.append(col_diff)
    return InterbasisMatrix(N, method, variant, ent, lv.rows, lv.cols,
                            max(ratios) if ratios else None,
                            max(diffs) if diffs else None)


def _quadrature_column(lv: _Level, n: int, m: int, mu: float):
    d, lg, n1, n2 = lv.d, lv.lg, lv.n1, lv.n2
    cosh_pow = (-(1.0 + 2.0 * mu + 2.0 * m) if lv.canonical
                else 1.0 - 2.0 * mu - 2.0 * m)
    val, unconverged = _a_integrals(lv, n, mu, cosh_pow,
                                    1.0 + 2.0 * d + 2.0 * n1)
    if lv.canonical:
        logk = _log_k0(lv, m, mu) + _log_an(lv, n, mu)
    else:
        logk = 0.5 * (
            lg(m + 1.0) + lg(n + 1.0) + math.log(SQRT2 * lv.p.beta)
            + math.log(mu - d - 2.0 * n - 1.0) + lg(mu + m + 1.0)
            + lg(mu - n) - lg(n1 + 1.0) - lg(n2 + 1.0) - math.log(mu)
            - lg(n1 + d + 1.0) - lg(n2 + d + 1.0) - lg(n + d + 1.0)
            - lg(mu - d - n))
    return (-1.0) ** n * _exp(logk) * val, None, unconverged


def w_quadrature(p: P1Params, N: int, variant: str = "canonical") -> InterbasisMatrix:
    """Interbasis matrix from the one-dimensional overlap integral.

    canonical: orthogonality projection of the large-b limit, with the
    canonical normalizations; entry = (-1)^n K0 A_n J where

        J = int_0^inf sinh^{1+2d+2n1} cosh^{-1-2mu-2m} P_n^{(d,-mu)}(cosh 2a) da.

    printed: verbatim published prefactor and the integrand with
    cosh^{1-2mu-2m}, integral read over (0, inf).
    """
    return _assemble(p, N, "quadrature", variant, _quadrature_column)


def _signed_pochhammer_log(a: float, n: int) -> tuple[float, float]:
    """(sign, log|.|) of the rising factorial (a)_n for real a."""
    sign = 1.0
    logmag = 0.0
    for k in range(n):
        v = a + k
        if v == 0.0:
            return 0.0, -math.inf
        sign *= math.copysign(1.0, v)
        logmag += math.log(abs(v))
    return sign, logmag


def _3f2_column(lv: _Level, n: int, m: int, mu: float):
    d, lg, n1, n2 = lv.d, lv.lg, lv.n1, lv.n2
    c, e = ((-mu - m, 1.0 + d + n1 - mu - m) if lv.canonical
            else (1.0 - mu - m, 2.0 + n1 + d - mu - m))
    f32, ratios = _sums((1.0, sf._hyp3f2_terms(n, n + d - mu + 1.0, c, 1.0 - mu, ei))
                        for ei in e.tolist())
    if lv.canonical:
        sgn, logp = _signed_pochhammer_log(1.0 - mu, n)
        logmag = (_log_k0(lv, m, mu)
                  + _log_an(lv, n, mu) + logp - lg(n + 1.0)
                  - math.log(2.0) + lg(1.0 + d + n1)
                  + lg(mu + m - d - n1) - lg(1.0 + mu + m))
        return sgn * _exp(logmag) * f32, ratios, None
    logmag = 0.5 * (
        lg(m + 1.0) + math.log(SQRT2 * lv.p.beta)
        + math.log(mu - d - 2.0 * n - 1.0) + math.log(mu + m)
        + lg(n1 + d + 1.0) - lg(n + 1.0) - lg(n1 + 1.0)
        - lg(n2 + 1.0) - math.log(mu) - lg(n2 + d + 1.0)
        - lg(n + d + 1.0) - lg(mu - n - d)
        - lg(mu - n) - lg(mu + m))
    logmag += (lg(mu) + lg(mu + m - d - n1 - 1.0) - math.log(2.0))
    return (-1.0) ** n * _exp(logmag) * f32, ratios, None


def w_3f2(p: P1Params, N: int, variant: str = "canonical") -> InterbasisMatrix:
    """Closed form of the overlap: terminating 3F2 at unit argument.

    canonical: Beta-integral summation of the canonical a-integral,

        W = K0 A_n ((1-mu)_n / n!) (1/2)
            Gamma(1+d+n1) Gamma(mu+m-d-n1) / Gamma(1+mu+m)
            3F2(-n, n+d-mu+1, -mu-m; 1-mu, 1+d+n1-mu-m; 1).

    printed: the published display (whose lower/upper parameters and Gamma
    arguments sit one unit away from the canonical ones).
    """
    return _assemble(p, N, "3f2", variant, _3f2_column)


def _hahn_column(lv: _Level, n: int, m: int, mu: float):
    d, lg, n1, n2 = lv.d, lv.lg, lv.n1, lv.n2
    x, big_n = ((mu + m, mu + m - d - n1) if lv.canonical
                else (mu + m + 1.0, mu + m - d - n1 - 1.0))
    h, ratios = _sums(sf._hahn_parts(n, d, -mu, x, bn) for bn in big_n.tolist())
    if lv.canonical:
        logmag = (_log_k0(lv, m, mu)
                  + _log_an(lv, n, mu) - math.log(2.0)
                  + lg(1.0 + d + n1) + lg(mu + m - d - n1 - n)
                  - lg(1.0 + mu + m))
    else:
        logmag = 0.5 * (
            lg(m + 1.0) + lg(n + 1.0) + math.log(SQRT2 * lv.p.beta)
            + math.log(mu - d - 2.0 * n - 1.0) + math.log(mu + m)
            - lg(n1 + 1.0) - lg(n2 + 1.0) - math.log(mu)
            - lg(n + d + 1.0) - lg(mu - n - d)
            + lg(n1 + d + 1.0) + lg(mu - n)
            - lg(n2 + d + 1.0) - lg(mu + m))
        logmag += lg(mu + m - d - n1 - n - 1.0) - math.log(2.0)
    return (-1.0) ** n * _exp(logmag) * h, ratios, None


def w_hahn(p: P1Params, N: int, variant: str = "canonical") -> InterbasisMatrix:
    """The 3F2 assembly re-expressed through Hahn polynomials.

    canonical: W = K0 A_n (-1)^n (1/2) Gamma(1+d+n1)
                   Gamma(mu+m-d-n1-n) / Gamma(1+mu+m)
                   h_n^{(d,-mu)}(mu+m, mu+m-d-n1).

    printed: h_n^{(d,-mu)}(mu+m+1, mu+m-d-n1-1) with the published
    prefactor.
    """
    return _assemble(p, N, "hahn", variant, _hahn_column)


def verify_expansion(p: P1Params, N: int, w: InterbasisMatrix,
                     n_points: int = 50, seed: int = 0) -> float:
    """Pointwise residual of the expansion over random chart points.

    max over points and rows of |Psi_hc(x,y) - sum_m W Psi_eq(a,b)|, scaled
    by the largest |Psi_hc| encountered; coordinates are bridged by
    x = e^b tanh a, y = e^b / cosh a.
    """
    rng = np.random.default_rng(seed)
    a_pts = rng.uniform(0.15, 1.8, size=n_points)
    b_pts = rng.uniform(-1.2, 0.9, size=n_points)
    x_pts = np.exp(b_pts) * np.tanh(a_pts)
    y_pts = np.exp(b_pts) / np.cosh(a_pts)
    eq_states = [P1State(p, "equidistant", nm) for nm in w.cols]
    eq_vals = np.array([p1m.p1_wf_equidistant(st, a_pts, b_pts)
                        for st in eq_states])  # (N+1, n_points)
    worst = 0.0
    scale = 0.0
    for i, (n1, n2) in enumerate(w.rows):
        hc = p1m.p1_wf_horicyclic(P1State(p, "horicyclic", (n1, n2)),
                                  x_pts, y_pts)
        recon = w.entries[i, :] @ eq_vals
        worst = max(worst, float(np.max(np.abs(hc - recon))))
        scale = max(scale, float(np.max(np.abs(hc))))
    return worst / max(scale, 1e-300)
