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
acquire computable defects.  ``check_quadratic_algebra`` measures both; the
``verify`` suite reports them as soft records.

Evaluation
----------
Operators are applied exactly, with no step, to batches of points
(``geometry.apply_operators``).  Every function passed to ``eigen_residual``
or ``check_linear_relations``, like every coefficient and guard of the
operators built here, is array-safe: it takes an ``AmbientPoints`` batch and
returns one value per point or a scalar; the functions also run on
``geometry.Jet`` points.  ``galerkin`` applies operators to the states of a
``potential1.EquidistantBasis``, stacked into one such function (one row
per state), at the points of their exact Gauss rule.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import potential1 as p1m
from . import potential2 as p2m
from .errors import OutOfDomainError, SingularConfigurationError
from .geometry import (AmbientPoints, OperatorExpr, apply_operator,
                       apply_operators)
from .potential1 import P1Params
from .potential2 import P2Params

__all__ = [
    "build_operator",
    "check_linear_relations",
    "check_quadratic_algebra",
    "eigen_residual",
    "galerkin",
]

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


def _hamiltonian(potential, guards: tuple, name: str) -> OperatorExpr:
    """H = -(K3^2 + K2^2 - M1^2) / 2 + V."""
    return OperatorExpr(
        terms=((-0.5, ("K3", "K3")), (-0.5, ("K2", "K2")), (0.5, ("M1", "M1")),
               (potential, ())), guards=guards, name=name)


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


def build_operator(op_id: str, params, chart_params=None) -> OperatorExpr:
    """Construct a symmetry operator as an OperatorExpr.

    For P1Params: L1, L2, L3, L4, L3_display, L4_display, N1, N2, R, H.
    For P2Params: L1 (the equidistant operator), L12, L13, L23,
    L2 (semi-hyperbolic, requires chart_params = (a_c, b_c, e3)), H.
    """
    if isinstance(params, P1Params):
        potential, builders = 1, {
            "L1": _p1_l1, "N1": _p1_l1, "L2": _p1_l2, "R": _p1_r,
            # N2 = L2 - 2 gamma^2
            "N2": lambda p: replace(_p1_l2(p), constant_term=-4.0 * p.gamma**2,
                                    name="N2"),
            "L3": lambda p: _p1_l3(p, display=False),
            "L3_display": lambda p: _p1_l3(p, display=True),
            "L4": lambda p: _p1_l4(p, display=False),
            "L4_display": lambda p: _p1_l4(p, display=True),
            "H": lambda p: _hamiltonian(lambda q: p1m.v1_ambient(p, q),
                                        (lambda q: q.w2, lambda q: q.w0 - q.w1),
                                        "H_p1")}
    elif isinstance(params, P2Params):
        if op_id == "L2" and chart_params is None:
            raise OutOfDomainError("semi-hyperbolic L2 needs chart_params")
        potential, builders = 2, {
            "L1": _p2_l1, "L12": _p2_l12,
            "L13": lambda p: _p2_l13(p, conj=False),
            "L23": lambda p: _p2_l13(p, conj=True),
            "L2": lambda p: _p2_l2_sh(p, chart_params),
            "H": lambda p: _hamiltonian(lambda q: p2m.v2_ambient(p, q),
                                        (lambda q: q.w2,), "H_p2")}
    else:
        raise OutOfDomainError("params must be P1Params or P2Params")
    if op_id not in builders:
        raise OutOfDomainError(f"unknown operator {op_id!r} for potential {potential}")
    return builders[op_id](params)


# ---------------------------------------------------------------------------
# Residual measurements
# ---------------------------------------------------------------------------

def eigen_residual(op: OperatorExpr, wf, expected: complex,
                   points) -> tuple[float, int]:
    """max over points of |(op wf - expected wf) / wf|, and how many points
    it was taken over.

    Points where |wf| is 0 or below 1e-8 of its largest value over all
    points are skipped (the relative residual is meaningless near nodes).
    The points (a sequence of AmbientPoint, or an AmbientPoints) form one
    batch, and wf must be array-safe: it costs one apply_operator call.
    """
    pts = AmbientPoints.stack(points)
    psi = np.broadcast_to(np.asarray(wf(pts)), (len(pts),))
    mag = np.abs(psi)
    used = (mag > 0) & (mag >= 1e-8 * np.max(mag))
    if not np.any(used):
        raise SingularConfigurationError("all points fell on wavefunction nodes")
    val = apply_operator(op, wf, pts[used])
    return (float(np.max(np.abs(val - expected * psi[used]) / mag[used])),
            int(np.count_nonzero(used)))


# ---------------------------------------------------------------------------
# Galerkin matrices and algebra identities
# ---------------------------------------------------------------------------

def n2_horicyclic_eigenvalues(p: P1Params, N: int) -> np.ndarray:
    """Eigenvalues of N2 on the level, in the horicyclic basis order."""
    sb, n1 = math.sqrt(2.0) * p.beta, np.arange(N + 1.0)
    return -(2.0 * sb * (2.0 * n1 + p.d + 1.0) + 2.0 * p.gamma**2) - 2.0 * p.gamma**2


def galerkin(basis: p1m.EquidistantBasis, ops) -> list[np.ndarray]:
    """The Galerkin matrices <psi_i, L psi_j> of the operators ops on the
    states of a ``potential1.EquidistantBasis``, on its exact rule: one
    apply_operators call on the stacked states, whose identity row pairs
    the values with the jets.  The rule integrates the product of any two
    states of a level exactly, and an integral of motion maps the level
    into itself, so its matrices are exact up to round-off."""
    psi, *applied = apply_operators(
        (OperatorExpr((), 1.0, name="identity"), *ops), basis, basis.points)
    bra = np.conj(psi) * basis.weight
    return [bra @ v.T for v in applied]


def check_linear_relations(p: P1Params, testfns, points) -> dict[str, float]:
    """Pointwise residuals of L3 = -L2 - L1 and L4 = L2 - L1, by identity
    (``linRel3``, ``linRel4``).

    Each relation is evaluated on every test function at every point;
    the defect is normalized by the largest single-term magnitude.  The
    points (a sequence of AmbientPoint, or an AmbientPoints) form one
    batch: L1..L4 are applied to an array-safe test function in one
    apply_operators call, and L1, L2 serve both relations.
    """
    pts = AmbientPoints.stack(points)
    ops = {k: build_operator(k, p) for k in ("L1", "L2", "L3", "L4")}
    worst = {"linRel3": 0.0, "linRel4": 0.0}
    for f in testfns:
        v = dict(zip(ops, apply_operators(tuple(ops.values()), f, pts)))
        for ident, lhs, sign in (("linRel3", "L3", 1.0),
                                 ("linRel4", "L4", -1.0)):
            va, vb, vc = v[lhs], v["L2"], v["L1"]
            scale = np.maximum(np.maximum(np.abs(va), np.abs(vb)),
                               np.maximum(np.abs(vc), 1e-300))
            defect = np.abs(va + sign * vb + vc)
            worst[ident] = max(worst[ident], float(np.max(defect / scale)))
    return worst


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


def check_quadratic_algebra(p: P1Params, N: int, n1: np.ndarray,
                            n2: np.ndarray) -> dict[str, tuple[float, dict]]:
    """Evaluate the three published quadratic-algebra identities on level N,
    from the matrices of N1 and N2 there (R = [N1, N2], H = E_N): (residual,
    notes) by identity (``commRN2``, ``commRN1``, ``Rsquared``).

    Primary evaluation uses the package convention N2 = L2 - 2 gamma^2 (the
    one pinned by the printed eigenvalue lines).  The notes carry a fitted
    constant offset and the residual under the shifted convention
    N2 + 4 gamma^2 (the display-faithful one, under which the identities
    close).
    """
    e, r = p1m.p1_energy(p, N), n1 @ n2 - n2 @ n1
    n2_alt = n2 + 4.0 * p.gamma**2 * np.eye(n2.shape[0])
    primary = _identity_defects(p, e, n1, n2, r)
    shifted = _identity_defects(p, e, n1, n2_alt, r)
    reports = {}
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
        reports[ident] = (residual, {
            "fitted_constant_offset": fitted,
            "residual_after_constant_fit": after_fit,
            "residual_with_shifted_N2": resid_s,
        })
    return reports
