"""Symmetry operators, their eigenvalue residuals and the quadratic algebra.

Operator conventions
--------------------
The four chart operators of the first potential obey the exact linear
relations L3 = -L2 - L1 and L4 = L2 - L1.  The published displays are
mutually consistent only up to additive constants: the horicyclic display
carries +2 gamma^2 while its printed eigenvalue line corresponds to
-2 gamma^2.  This package fixes the constants by the *eigenvalue* lines:

    L1 = K3^2 - 2 b^2 u^2 + 2 g^2 u,        u = (w0+w1)/(w0-w1),
         eigenvalue (s - 2m - 1)^2 = mu^2
    L2 = (K2-M1)^2 - 2 b^2 w2^2/(w0-w1)^2 - 2 a^2 (w0-w1)^2/w2^2 - 2 g^2,
         eigenvalue -[2 sqrt2 b (2 n1 + d + 1) + 2 g^2]

and then defines L3, L4 as the transcribed displays plus the compensating
constants +4 g^2 and -4 g^2 respectively, which makes the linear relations
hold identically.  The raw displays are available as ``L3_display`` and
``L4_display``; their eigenvalues are the separated-ODE constants of the
parabolic charts (they differ from the L3/L4 eigenvalues by -+4 g^2, a
discrepancy the verification reports surface rather than hide).

Quadratic algebra
-----------------
With N1 = L1, N2 = L2 - 2 g^2 and R = [N1, N2] the published identities
close *exactly* under the shifted convention N2 + 4 g^2 (i.e. with the
+2 gamma^2 operator display); under the eigenvalue-line convention they
acquire computable defects.  ``check_quadratic_algebra`` evaluates both and
reports, never silently passes.

Evaluation
----------
Operators are applied to batches of points (``geometry.apply_operator``).
Every function passed to ``eigen_residual``, ``project_operator`` or
``check_linear_relations``, like every coefficient and guard of the
operators built here, is array-safe: it takes an ``AmbientPoints`` batch
and returns one value per point or a scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import potential1 as p1m
from . import potential2 as p2m
from .errors import OutOfDomainError, SingularConfigurationError
from .geometry import AmbientPoints, OperatorExpr, apply_operator
from .interbasis import InterbasisMatrix
from .potential1 import P1Params
from .potential2 import P2Params

__all__ = [
    "AlgebraReport",
    "MultipletRep",
    "build_operator",
    "check_linear_relations",
    "check_quadratic_algebra",
    "eigen_residual",
    "multiplet_matrices",
    "project_operator",
]

#: step used for second-order operator words (noise floor ~1e-8 relative)
EIGEN_STEP = 1e-3
#: step for the third-order words of R
R_STEP = 2e-3


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _sq(word_a: str, word_b: str) -> tuple:
    """(A - B)^2 expanded into words."""
    return (
        (1.0, (word_a, word_a)),
        (-1.0, (word_a, word_b)),
        (-1.0, (word_b, word_a)),
        (1.0, (word_b, word_b)),
    )


def _p1_l1(p: P1Params) -> OperatorExpr:
    def mult(q: AmbientPoints):
        u = (q.w0 + q.w1) / (q.w0 - q.w1)
        return -2.0 * p.beta**2 * u * u + 2.0 * p.gamma**2 * u
    return OperatorExpr(
        terms=((1.0, ("K3", "K3")), (mult, ())),
        guards=(lambda q: q.w0 - q.w1,),
        name="L1",
    )


def _p1_l2(p: P1Params) -> OperatorExpr:
    def mult(q: AmbientPoints):
        dm = q.w0 - q.w1
        return (-2.0 * p.beta**2 * q.w2**2 / dm**2
                - 2.0 * p.alpha**2 * dm**2 / q.w2**2)
    return OperatorExpr(
        terms=_sq("K2", "M1") + ((mult, ()),),
        constant_term=-2.0 * p.gamma**2,
        guards=(lambda q: q.w2, lambda q: q.w0 - q.w1),
        name="L2",
    )


def _p1_l3(p: P1Params, display: bool) -> OperatorExpr:
    def mult(q: AmbientPoints):
        dm = q.w0 - q.w1
        return (2.0 * p.beta**2 * ((q.w0 + q.w1) ** 2 + q.w2**2) / dm**2
                + 2.0 * p.alpha**2 * dm**2 / q.w2**2
                - 4.0 * p.gamma**2 * q.w0 / dm)
    terms = tuple((-c, w) for c, w in _sq("K2", "M1"))
    terms += ((-1.0, ("K3", "K3")), (mult, ()))
    return OperatorExpr(
        terms=terms,
        constant_term=0.0 if display else 4.0 * p.gamma**2,
        guards=(lambda q: q.w2, lambda q: q.w0 - q.w1),
        name="L3_display" if display else "L3",
    )


def _p1_l4(p: P1Params, display: bool) -> OperatorExpr:
    def mult(q: AmbientPoints):
        dm = q.w0 - q.w1
        return (2.0 * p.beta**2 * ((q.w0 + q.w1) ** 2 - q.w2**2) / dm**2
                - 2.0 * p.alpha**2 * dm**2 / q.w2**2
                - 4.0 * p.gamma**2 * q.w1 / dm)
    terms = _sq("K2", "M1") + ((-1.0, ("K3", "K3")), (mult, ()))
    return OperatorExpr(
        terms=terms,
        constant_term=0.0 if display else -4.0 * p.gamma**2,
        guards=(lambda q: q.w2, lambda q: q.w0 - q.w1),
        name="L4_display" if display else "L4",
    )


def _p1_r(p: P1Params) -> OperatorExpr:
    a2, b2, g2 = p.alpha**2, p.beta**2, p.gamma**2
    words3 = (
        # 2 {K3, {K2, M1}}
        (2.0, ("K3", "K2", "M1")), (2.0, ("K3", "M1", "K2")),
        (2.0, ("K2", "M1", "K3")), (2.0, ("M1", "K2", "K3")),
        # -2 {K3, K2^2}
        (-2.0, ("K3", "K2", "K2")), (-2.0, ("K2", "K2", "K3")),
        # -2 {K3, M1^2}
        (-2.0, ("K3", "M1", "M1")), (-2.0, ("M1", "M1", "K3")),
    )

    def c_k3(q):
        dm = q.w0 - q.w1
        return 8.0 * (a2 * (dm / q.w2) ** 2 + b2 * (q.w2 / dm) ** 2)

    def c_k2(q):
        dm = q.w0 - q.w1
        return (16.0 * b2 * q.w2 * q.w0 / dm**2
                - 8.0 * g2 * q.w2 / dm)

    def c_m1(q):
        dm = q.w0 - q.w1
        return (-16.0 * b2 * q.w2 * q.w1 / dm**2
                + 8.0 * g2 * q.w2 / dm)

    def mult(q):
        dm = q.w0 - q.w1
        return -4.0 * (g2 + 2.0 * a2 * (dm / q.w2) ** 2
                       - 2.0 * b2 * (1.0 + 2.0 * q.w2**2) / dm**2)

    return OperatorExpr(
        terms=words3 + ((c_k3, ("K3",)), (c_k2, ("K2",)), (c_m1, ("M1",)),
                        (mult, ())),
        guards=(lambda q: q.w2, lambda q: q.w0 - q.w1),
        name="R",
    )


def _p1_h(p: P1Params) -> OperatorExpr:
    return OperatorExpr(
        terms=((-0.5, ("K3", "K3")), (-0.5, ("K2", "K2")), (0.5, ("M1", "M1")),
               (lambda q: p1m.v1_ambient(p, q), ())),
        guards=(lambda q: q.w2, lambda q: q.w0 - q.w1),
        name="H_p1",
    )


def _p2_l1(p: P2Params) -> OperatorExpr:
    def mult(q: AmbientPoints):
        ssum = q.w0**2 + q.w1**2
        sdif = q.w0**2 - q.w1**2
        return (-2.0 * (p.alpha**2 - p.beta**2) * (sdif / ssum) ** 2
                - 2.0 * p.gamma**2 * q.w0 * q.w1 * sdif / ssum**2)
    return OperatorExpr(
        terms=((1.0, ("K3", "K3")), (mult, ())),
        name="L1_p2",
    )


def _p2_l12(p: P2Params) -> OperatorExpr:
    w1c = 0.25 - p.k1**2
    w2c = 0.25 - p.k2**2

    def mult(q: AmbientPoints):
        zp = q.w0 + 1j * q.w1
        r = (zp.conjugate() / zp) ** 2
        return w1c * r + w2c / r
    return OperatorExpr(terms=((-1.0, ("K3", "K3")), (mult, ())), name="L12")


def _p2_l13(p: P2Params, conj: bool) -> OperatorExpr:
    # (M1 -+ i K2)^2 / 2 plus the potential pieces: L13, or L23 when conj
    i = 1j * (-1.0 if not conj else 1.0)
    coeff_pot = (p.beta**2 - p.alpha**2) + (0.5j * p.gamma**2) * (-1.0 if not conj else 1.0)

    def mult(q: AmbientPoints):
        zp = q.w0 - 1j * q.w1 if conj else q.w0 + 1j * q.w1
        return (coeff_pot * q.w2**2 / zp**2
                + p.alpha**2 * zp**2 / q.w2**2)
    terms = (
        (0.5, ("M1", "M1")),
        (0.5 * i, ("M1", "K2")),
        (0.5 * i, ("K2", "M1")),
        (-0.5, ("K2", "K2")),
        (mult, ()),
    )
    return OperatorExpr(terms=terms,
                        guards=(lambda q: q.w2,),
                        name="L23" if conj else "L13")


def _p2_l2_sh(p: P2Params, chart_params: tuple[float, float, float]) -> OperatorExpr:
    a_c, b_c, e3 = chart_params
    e1 = complex(a_c, b_c)
    e2 = e1.conjugate()
    l12 = _p2_l12(p)
    l13 = _p2_l13(p, conj=False)
    l23 = _p2_l13(p, conj=True)

    def scaled(expr: OperatorExpr, z: complex):
        out = []
        for coeff, word in expr.terms:
            if callable(coeff):
                out.append(((lambda q, c=coeff, z=z: z * c(q)), word))
            else:
                out.append((z * coeff, word))
        return tuple(out)

    const = (-p.k1**2 * (e2 + e3 - e1)
             - p.k2**2 * (e1 + e3 - e2)
             - p.k3**2 * (e1 + e2 - e3)
             + 0.25 * (e1 + e2 + e3))
    return OperatorExpr(
        terms=scaled(l12, e3) + scaled(l13, e2) + scaled(l23, e1),
        constant_term=const,
        guards=(lambda q: q.w2,),
        name="L2_sh",
    )


def _p2_h(p: P2Params) -> OperatorExpr:
    return OperatorExpr(
        terms=((-0.5, ("K3", "K3")), (-0.5, ("K2", "K2")), (0.5, ("M1", "M1")),
               (lambda q: p2m.v2_ambient(p, q), ())),
        guards=(lambda q: q.w2,),
        name="H_p2",
    )


def build_operator(op_id: str, params, chart_params=None) -> OperatorExpr:
    """Construct a symmetry operator as an OperatorExpr.

    For P1Params: L1, L2, L3, L4, L3_display, L4_display, N1, N2, R, H_p1.
    For P2Params: L1 (the equidistant operator), L12, L13, L23,
    L2 (semi-hyperbolic, requires chart_params = (a_c, b_c, e3)), H_p2.
    """
    if isinstance(params, P1Params):
        p = params
        if op_id in ("L1", "N1"):
            return _p1_l1(p)
        if op_id == "L2":
            return _p1_l2(p)
        if op_id == "N2":
            l2 = _p1_l2(p)
            return OperatorExpr(l2.terms, l2.constant_term - 2.0 * p.gamma**2,
                                l2.guards, "N2")
        if op_id == "L3":
            return _p1_l3(p, display=False)
        if op_id == "L3_display":
            return _p1_l3(p, display=True)
        if op_id == "L4":
            return _p1_l4(p, display=False)
        if op_id == "L4_display":
            return _p1_l4(p, display=True)
        if op_id == "R":
            return _p1_r(p)
        if op_id in ("H", "H_p1"):
            return _p1_h(p)
        raise OutOfDomainError(f"unknown operator {op_id!r} for potential 1")
    if isinstance(params, P2Params):
        p = params
        if op_id == "L1":
            return _p2_l1(p)
        if op_id == "L12":
            return _p2_l12(p)
        if op_id == "L13":
            return _p2_l13(p, conj=False)
        if op_id == "L23":
            return _p2_l13(p, conj=True)
        if op_id in ("L2", "L2_sh"):
            if chart_params is None:
                raise OutOfDomainError("semi-hyperbolic L2 needs chart_params")
            return _p2_l2_sh(p, chart_params)
        if op_id in ("H", "H_p2"):
            return _p2_h(p)
        raise OutOfDomainError(f"unknown operator {op_id!r} for potential 2")
    raise OutOfDomainError("params must be P1Params or P2Params")


# ---------------------------------------------------------------------------
# Residual measurements
# ---------------------------------------------------------------------------

def _on_points(fn, pts: AmbientPoints) -> np.ndarray:
    """fn at every point of the batch (fn is array-safe)."""
    return np.broadcast_to(np.asarray(fn(pts)), (len(pts),))


def eigen_residual(op: OperatorExpr, wf, expected: complex,
                   points, h: float = EIGEN_STEP,
                   richardson: bool = True) -> float:
    """max over points of |(op wf - expected wf) / wf|.

    Points where |wf| is below 1e-8 of its largest value over all points
    are skipped (the relative residual is meaningless near nodes).  The
    points (a sequence of AmbientPoint, or an AmbientPoints) form one
    batch, and wf must be array-safe: it costs one apply_operator call.
    """
    pts = AmbientPoints.stack(points)
    psi = _on_points(wf, pts)
    mag = np.abs(psi)
    used = mag >= 1e-8 * np.max(mag)
    if not np.any(used):
        raise SingularConfigurationError("all points fell on wavefunction nodes")
    val = apply_operator(op, wf, pts[used], h=h, richardson=richardson)
    return float(np.max(np.abs(val - expected * psi[used]) / mag[used]))


def project_operator(op: OperatorExpr, basis_fns, points,
                     h: float = EIGEN_STEP, richardson: bool = True) -> np.ndarray:
    """Least-squares matrix of op restricted to span(basis_fns).

    Columns: op applied to each basis function, expanded back over the basis
    by least squares on the sample points.  Needs len(points) comfortably
    larger than the multiplet dimension.  The basis functions are real and
    array-safe; each costs one apply_operator call on the whole point batch.
    """
    pts = AmbientPoints.stack(points)
    design = np.column_stack([np.real(_on_points(f, pts)) for f in basis_fns])
    out = np.zeros((len(basis_fns),) * 2)
    for j, f in enumerate(basis_fns):
        y = np.real(apply_operator(op, f, pts, h=h, richardson=richardson))
        sol, *_ = np.linalg.lstsq(design, y, rcond=None)
        out[:, j] = sol
    return out


# ---------------------------------------------------------------------------
# Multiplet representations and algebra identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultipletRep:
    """N1, N2, R restricted to the (N+1)-dim level-N eigenspace.

    Matrices are in the equidistant basis (m ascending): N1 is diagonal with
    entries mu_m^2; N2 = W^T diag(eigs) W with the horicyclic eigenvalues
    -[2 sqrt2 beta (2 n1 + d + 1) + 2 gamma^2] - 2 gamma^2 (n1 ascending);
    R = [N1, N2].
    """

    N: int
    energy: float
    basis: str
    n1_matrix: np.ndarray
    n2_matrix: np.ndarray
    r_matrix: np.ndarray


@dataclass(frozen=True)
class AlgebraReport:
    identity: str
    residual: float
    tolerance: float
    passed: bool
    notes: dict = field(default_factory=dict)


def n2_horicyclic_eigenvalues(p: P1Params, N: int) -> np.ndarray:
    """Eigenvalues of N2 on the level, in the horicyclic basis order."""
    d = p.d
    sb = math.sqrt(2.0) * p.beta
    return np.array([-(2.0 * sb * (2.0 * n1 + d + 1.0) + 2.0 * p.gamma**2)
                     - 2.0 * p.gamma**2 for n1 in range(N + 1)])


def multiplet_matrices(p: P1Params, N: int, w: InterbasisMatrix) -> MultipletRep:
    """Finite matrices of N1, N2, R on the degenerate level N."""
    if w.N != N:
        raise OutOfDomainError("interbasis matrix level mismatch")
    if w.variant != "canonical":
        raise OutOfDomainError("multiplet matrices need the canonical (orthogonal) W")
    mus = np.array([p1m.p1_mu(p, m) for (_, m) in w.cols])
    n1_mat = np.diag(mus**2)
    n2_mat = w.entries.T @ np.diag(n2_horicyclic_eigenvalues(p, N)) @ w.entries
    r_mat = n1_mat @ n2_mat - n2_mat @ n1_mat
    return MultipletRep(N, p1m.p1_energy(p, N), "equidistant",
                        n1_mat, n2_mat, r_mat)


def check_linear_relations(p: P1Params, testfns, points,
                           h: float = EIGEN_STEP,
                           tolerance: float = 1e-5) -> list[AlgebraReport]:
    """Pointwise residuals of L3 = -L2 - L1 and L4 = L2 - L1.

    Each relation is evaluated on every test function at every point;
    the defect is normalized by the largest single-term magnitude.  The
    points (a sequence of AmbientPoint, or an AmbientPoints) form one
    batch: each operator is applied to an array-safe test function in one
    apply_operator call, and L1, L2 serve both relations.
    """
    pts = AmbientPoints.stack(points)
    ops = {k: build_operator(k, p) for k in ("L1", "L2", "L3", "L4")}
    worst = {"linRel3": 0.0, "linRel4": 0.0}
    for f in testfns:
        v = {k: apply_operator(op, f, pts, h=h) for k, op in ops.items()}
        for ident, lhs, sign in (("linRel3", "L3", 1.0),
                                 ("linRel4", "L4", -1.0)):
            va, vb, vc = v[lhs], v["L2"], v["L1"]
            scale = np.maximum(np.maximum(np.abs(va), np.abs(vb)),
                               np.maximum(np.abs(vc), 1e-300))
            defect = np.abs(va + sign * vb + vc)
            worst[ident] = max(worst[ident], float(np.max(defect / scale)))
    return [AlgebraReport(ident, r, tolerance, r <= tolerance)
            for ident, r in worst.items()]


def _anticomm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def _sym3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return (a @ b @ c + a @ c @ b + b @ c @ a
            + b @ a @ c + c @ a @ b + c @ b @ a)


def _identity_defects(p: P1Params, e: float, n1: np.ndarray, n2: np.ndarray,
                      r: np.ndarray):
    """(lhs, rhs) pairs of the three published identities for given N1, N2."""
    a2, b2, g2 = p.alpha**2, p.beta**2, p.gamma**2
    eye = np.eye(n1.shape[0])
    h = e * eye
    out = {}
    out["commRN2"] = (
        r @ n2 - n2 @ r,
        8.0 * n2 @ n2 + 64.0 * b2 * h + 16.0 * g2 * n2 + 32.0 * b2 * n1
        + 16.0 * b2 * (1.0 - 4.0 * a2) * eye,
    )
    out["commRN1"] = (
        r @ n1 - n1 @ r,
        -8.0 * _anticomm(n1, n2) - 32.0 * g2 * h + 16.0 * n2
        - 16.0 * g2 * n1 + 16.0 * g2 * (1.0 - 2.0 * a2) * eye,
    )
    out["Rsquared"] = (
        r @ r,
        (8.0 / 3.0) * _sym3(n2, n2, n1) - (176.0 / 3.0) * n2 @ n2
        + 32.0 * b2 * n1 @ n1 + 128.0 * b2 * h @ h + 64.0 * g2 * h @ n2
        + 128.0 * b2 * h @ n1 + 16.0 * g2 * _anticomm(n1, n2)
        + (128.0 / 3.0 + 256.0 * a2) * b2 * h
        + (64.0 * a2 * g2 - 352.0 * g2 / 3.0) * n2
        + (352.0 / 3.0 - 128.0 * a2) * b2 * n1
        + (128.0 * a2**2 * b2 + 128.0 * g2**2 * a2 - 128.0 * a2 * b2 / 3.0
           - 64.0 * b2 / 3.0 - 48.0 * g2**2) * eye,
    )
    return out


def check_quadratic_algebra(rep: MultipletRep, p: P1Params,
                            tolerance: float = 1e-6) -> list[AlgebraReport]:
    """Evaluate the three published quadratic-algebra identities on a level.

    Primary evaluation uses the package convention N2 = L2 - 2 gamma^2 (the
    one pinned by the printed eigenvalue lines).  A failing identity is not
    an abort: the report carries a fitted constant offset, and the residuals
    under the shifted convention N2 + 4 gamma^2 (the display-faithful one,
    under which the identities close) are attached as notes.
    """
    n1, n2, r = rep.n1_matrix, rep.n2_matrix, rep.r_matrix
    n2_alt = n2 + 4.0 * p.gamma**2 * np.eye(n2.shape[0])
    r_alt = n1 @ n2_alt - n2_alt @ n1  # equals r: constants drop
    primary = _identity_defects(p, rep.energy, n1, n2, r)
    shifted = _identity_defects(p, rep.energy, n1, n2_alt, r_alt)
    reports = []
    for ident in ("commRN2", "commRN1", "Rsquared"):
        lhs, rhs = primary[ident]
        scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1.0)
        defect = lhs - rhs
        residual = float(np.max(np.abs(defect))) / scale
        k = defect.shape[0]
        fitted = float(np.trace(defect)) / k
        after_fit = float(np.max(np.abs(defect - fitted * np.eye(k)))) / scale
        lhs_s, rhs_s = shifted[ident]
        scale_s = max(float(np.max(np.abs(lhs_s))), float(np.max(np.abs(rhs_s))), 1.0)
        resid_s = float(np.max(np.abs(lhs_s - rhs_s))) / scale_s
        reports.append(AlgebraReport(
            ident, residual, tolerance, residual <= tolerance,
            notes={
                "fitted_constant_offset": fitted,
                "residual_after_constant_fit": after_fit,
                "residual_with_shifted_N2": resid_s,
            }))
    return reports
