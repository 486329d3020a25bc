"""The verification suites: one table per potential, one record rule.

``SUITES[potential][name](params, cfg)`` returns a suite's records in a
fixed order (cfg is a ``cli.RunConfig``).  ``record`` makes each one: a
check passes when its residual is at most its tolerance, which is written
there and nowhere else.  A record without a tolerance is a measurement; a
soft record reports a discrepancy of the published formulas and never fails
a run.  The orthonormality and quadratic-algebra suites integrate on the
equidistant states' exact Gauss rules (``potential1.EquidistantBasis``):
the Gram matrix of every state of the well, and a level's Galerkin matrices
(``algebra.galerkin``).  The other suites sample fixed points: each point
set is the ``geometry.box_points`` design of its box and count, so a report
depends on its inputs alone.  An eigen record notes how many of its points
the node filter of ``algebra.eigen_residual`` kept (``points_used`` of
``points_drawn``).
"""

from __future__ import annotations

import math

import numpy as np

from . import algebra as alg
from . import geometry as geo
from . import interbasis as ib
from . import potential1 as p1
from . import potential2 as p2
from .errors import HypersintError, NoBoundStateError

SQRT2 = math.sqrt(2.0)


def record(ident: str, residual: float, tol: float | None, soft: bool = False,
           notes: dict | None = None) -> dict:
    """One report record; tol=None marks a purely informational measurement."""
    rec = {"id": ident, "residual": float(residual), "tolerance": tol,
           "pass": True if tol is None else bool(residual <= tol),
           "soft": soft}
    if notes:
        rec["notes"] = notes
    return rec


def run(cfg) -> tuple[list[dict], bool]:
    """The records of ``cfg.suite`` and whether a hard check failed."""
    suites = SUITES[cfg.potential]
    if cfg.suite not in suites:
        raise HypersintError(f"suite {cfg.suite!r} does not apply to "
                             f"{cfg.potential}; choose from {list(suites)}")
    records = suites[cfg.suite](cfg.params(), cfg)
    return records, any(not r["pass"] and not r["soft"] for r in records)


def _nmax(params) -> int:
    """The top level; an empty spectrum leaves nothing to check."""
    if params.nmax is None:
        raise NoBoundStateError("empty spectrum: no bound states to check")
    return params.nmax


def eq_points(n: int = 10) -> geo.AmbientPoints:
    """n equidistant-chart points with 0.3 <= |t1| <= 1.3, |t2| <= 1: the
    ``geometry.box_points`` design of (t1, the sign of t1, t2)."""
    t1, sign, t2 = geo.box_points(n, (0.3, 0.0, -1.0), (1.3, 1.0, 1.0)).T
    return geo.chart_points("equidistant", np.where(sign < 0.5, -t1, t1), t2)


def _eigen_record(ident: str, op, wf, expected, pts, notes=None) -> dict:
    """The ``algebra.eigen_residual`` record of wf at 1e-6, noting how many
    of the points the node filter kept."""
    residual, used = alg.eigen_residual(op, wf, expected, pts)
    return record(ident, residual, 1e-6,
                  notes={**(notes or {}), "points_used": used,
                         "points_drawn": len(pts)})


def _amax(a) -> float:
    return float(np.max(np.abs(a)))


def _rel_max(a, b) -> float:
    """max |a - b| / max(1, |a|)."""
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))))


def _orthonormality(params, cfg) -> list[dict]:
    """The Gram matrix of every equidistant state of the well."""
    n, m = np.array([nm for N in range(_nmax(params) + 1)
                     for nm in p1.level_states_equidistant(params, N)],
                    dtype=float).T
    gram = p1.EquidistantBasis(params, n, m).gram
    worst = np.max(np.triu(np.abs(gram - np.eye(len(n)))), initial=0.0)
    return [record(f"{cfg.potential}-equidistant-gram", worst, 1e-7)]


def _v1_eigen(params, cfg) -> list[dict]:
    pts = eq_points()
    st = p1.P1State(params, "equidistant",
                    p1.level_states_equidistant(params, min(1, _nmax(params)))[0])
    mu = p1.p1_mu(params, st.numbers[1])
    recs = [_eigen_record("L1-equidistant", alg.build_operator("L1", params),
                          p1.wf_ambient(st), mu**2, pts)]
    sth = p1.P1State(params, "horicyclic", st.numbers[::-1])
    n1 = sth.numbers[0]
    lam2 = -(2.0 * SQRT2 * params.beta * (2 * n1 + params.d + 1.0)
             + 2.0 * params.gamma**2)
    recs.append(_eigen_record("L2-horicyclic", alg.build_operator("L2", params),
                              p1.wf_ambient(sth), lam2, pts))
    if _nmax(params) < 1:
        return recs
    # operator, chart, roots, separation constant, its name, offset / g^2
    members = []
    for op, chart, roots, sep, name, offset in (
            ("L3", "elliptic-parabolic", p1.p1_ep_roots, p1.p1_ep_lambda,
             "lambda", 4.0),
            ("L4", "hyperbolic-parabolic", p1.p1_hp_roots, p1.p1_hp_tau,
             "tau", -4.0)):
        conf = roots(params, 1, form="derived")[0]
        stp = p1.P1State(params, chart, (1,), roots=conf)
        value = sep(params, conf)
        offset *= params.gamma**2
        where = pts if op == "L3" else pts[pts.w2 > 0]  # 6 of 10, any well
        recs.append(_eigen_record(
            f"{op}-{chart}", alg.build_operator(op, params), p1.wf_ambient(stp),
            value + offset, where,
            notes={f"{name}_separation": value,
                   f"{name}_operator": value + offset,
                   "display_offset": offset}))
        # the norm is exact only in the level's span
        members.append(record(f"parabolic-membership-{chart}",
                              p1._parabolic_projection(stp)[1], 1e-6))
    lam = recs[-2]["notes"]
    recs.append(record(
        "lambda-AL0-vs-FEP10",
        abs(lam["lambda_operator"] - lam["lambda_separation"]), None, soft=True,
        notes={"comment": "operator eigenvalue minus separated-ODE "
                          "constant; equals 4 gamma^2 by the display "
                          "constant mismatch"}))
    return recs + members


def _v2_eigen(params, cfg) -> list[dict]:
    _nmax(params)
    pts = eq_points()
    wf = p2.wf_ambient(p2.P2State(params, "equidistant", (0, 0)))
    mu0 = p2.p2_mu(params, 0)
    recs = [_eigen_record("L1-v2-equidistant", alg.build_operator("L1", params),
                          wf, mu0**2, pts)]
    psi = wf(pts)
    v = (-geo.apply_operator(alg.build_operator("L12", params), wf, pts)
         + (params.beta**2 - params.alpha**2) * psi)
    recs.append(record("L1-from-L12-relation",
                       np.max(np.abs(v - mu0**2 * psi) / np.abs(psi)), 1e-6))
    cp = cfg.chart_params
    if cp is None:
        return recs
    conf = p2.p2_sh_roots(params, 0, cp)[0]
    wfs = p2.wf_ambient(p2.P2State(params, "semi-hyperbolic", (0,),
                                   roots=conf, chart_params=cp))
    lam_true = p2.p2_sh_lambda_closed(params, conf, 0, cp)
    mu_, nu_ = geo.box_points(8, (0.4, 0.4), (2.0, 2.0)).T
    pts_sh = geo.chart_points("semi-hyperbolic", mu_, -nu_, cp)
    recs.append(_eigen_record(
        "L2-semi-hyperbolic", alg.build_operator("L2", params, chart_params=cp),
        wfs, lam_true, pts_sh))
    lam_disp = p2.p2_sh_lambda(params, conf, cp)
    recs.append(record("lambda-display-vs-eigenvalue",
                       abs(lam_disp - lam_true), None, soft=True,
                       notes={"display_symmetrized":
                              [lam_disp.real, lam_disp.imag],
                              "eigenvalue": [lam_true.real, lam_true.imag]}))
    return recs


def _linear_relations(params, cfg) -> list[dict]:
    fs = (lambda q: q.w2 * np.exp(-q.w0),
          lambda q: q.w0**2 / (1.0 + q.w2**2))
    residuals = alg.check_linear_relations(params, fs, eq_points())
    return [record(ident, r, 1e-5) for ident, r in residuals.items()]


def _quadratic_algebra(params, cfg) -> list[dict]:
    """The level's Galerkin matrices against what the spectrum fixes, each
    relative to the size of its terms; R applied against [N1, N2]; and the
    published identities."""
    N = min(2, _nmax(params))
    basis = p1.EquidistantBasis.level(params, N)
    n1, n2, r_applied = alg.galerkin(
        basis, [alg.build_operator(k, params) for k in ("N1", "N2", "R")])
    r = n1 @ n2 - n2 @ n1
    mu2 = p1.p1_mu(params, np.arange(N + 1.0)) ** 2  # every level is full
    eigs = np.sort(alg.n2_horicyclic_eigenvalues(params, N))
    recs = [record("level-gram", _amax(basis.gram - np.eye(N + 1)), 1e-10),
            record("matrix-symmetries", max(
                _amax(n1 - n1.T) / _amax(n1), _amax(n2 - n2.T) / _amax(n2),
                _amax(r + r.T) / (_amax(n1) * _amax(n2))), 1e-10),
            record("N1-diagonal", _amax(n1 - np.diag(mu2)) / _amax(mu2), 1e-10),
            record("N2-horicyclic-spectrum",
                   _amax(np.linalg.eigvalsh(n2) - eigs) / _amax(eigs), 1e-10),
            record("R-commutator-vs-projected",
                   _amax(r_applied - r) / max(_amax(r), 1.0), 1e-5)]
    for ident, (res, notes) in alg.check_quadratic_algebra(params, N, n1, n2).items():
        recs.append(record(ident, res, 1e-6, soft=True, notes=notes))
    return recs


def interbasis_level(params: p1.P1Params, N: int, variant: str) -> dict:
    """Level N's matrix by the three methods, their agreements, the 3F2
    one's orthogonality defect, (canonical) pointwise expansion residual and
    each method's ``cancellation`` as notes, keyed as in the interbasis report."""
    wq, w3, wh = (w(params, N, variant=variant)
                  for w in (ib.w_quadrature, ib.w_3f2, ib.w_hahn))
    out = {"rows_horicyclic": [list(r) for r in wq.rows],
           "cols_equidistant": [list(c) for c in wq.cols],
           "w_quadrature": wq.entries, "w_3f2": w3.entries,
           "w_hahn": wh.entries,
           "agreement_quad_3f2": float(np.max(np.abs(wq.entries - w3.entries))),
           "agreement_3f2_hahn": float(np.max(np.abs(w3.entries - wh.entries))),
           "orthogonality_defect": ib.orthogonality_defect(w3)}
    if variant == "canonical":
        out["pointwise_residual"] = ib.verify_expansion(params, N, w3)
    out["notes"] = {f"cancellation_{w.method}": w.cancellation
                    for w in (wq, w3, wh)}
    return out


def _interbasis(params, cfg) -> list[dict]:
    recs = []
    for N in range(min(2, _nmax(params)) + 1):
        lv = interbasis_level(params, N, "canonical")
        recs.append(record(f"three-method-agreement-N{N}",
                           max(lv["agreement_quad_3f2"],
                               lv["agreement_3f2_hahn"]), 1e-8,
                           notes=lv["notes"]))
        recs.append(record(f"orthogonality-N{N}", lv["orthogonality_defect"],
                           1e-8))
        recs.append(record(f"pointwise-expansion-N{N}",
                           lv["pointwise_residual"], 1e-6))
        w3p = ib.w_3f2(params, N, variant="printed")
        recs.append(record(f"printed-variant-orthogonality-N{N}",
                           ib.orthogonality_defect(w3p), None, soft=True,
                           notes={"comment": "published prefactors are not "
                                             "orthogonal; canonical variant is "
                                             "used for all hard checks"}))
    return recs


def _v1_cross_chart(params, cfg) -> list[dict]:
    recs = []
    chart_form = {
        "equidistant": ((0.2, -2.0), (2.0, 2.0), p1.v1_equidistant),
        "horicyclic": ((0.2, 0.2), (2.0, 3.0), p1.v1_horicyclic),
        "elliptic-parabolic": ((0.2, 0.2), (2.0, 1.3),
                               p1.v1_elliptic_parabolic),
        "hyperbolic-parabolic": ((0.2, 0.2), (2.0, 1.3),
                                 p1.v1_hyperbolic_parabolic),
    }
    res_worst = 0.0
    for chart, (lo, hi, form) in chart_form.items():
        u, v = geo.box_points(100, lo, hi).T
        q = geo.chart_points(chart, u, v)
        res_worst = max(res_worst, float(np.max(geo.hyperboloid_residual(q))))
        recs.append(record(f"potential-identity-{chart}",
                           _rel_max(p1.v1_ambient(params, q),
                                    form(params, u, v)), 1e-12))
    recs.append(record("chart-maps-on-surface", res_worst, 1e-10))
    if params.nmax is not None:
        w = 0.0
        for N in range(params.nmax + 1):
            e = p1.p1_energy(params, N)
            w = max(w, abs(e - p1.p1_energy_from_horicyclic(params, N)),
                    abs(e - p1.p1_energy_from_elliptic_parabolic(params, N)))
        recs.append(record("cross-chart-quantization", w, 1e-12))
    a_, b_ = geo.box_points(100, (-2.0, -2.0), (2.0, 2.0)).T
    x, y = geo.chart_coordinates(geo.chart_points("equidistant", a_, b_),
                                 "horicyclic")
    w = max(np.max(np.abs(x - np.exp(b_) * np.tanh(a_))),
            np.max(np.abs(y - np.exp(b_) / np.cosh(a_))))
    recs.append(record("horicyclic-bridge", w, 1e-12))
    return recs


def _v2_cross_chart(params, cfg) -> list[dict]:
    recs = []
    cp = cfg.chart_params or p2.DEFAULT_SH_PARAMS
    t1, t2 = geo.box_points(100, (0.2, -2.0), (2.0, 2.0)).T
    va = p2.v2_ambient(params, geo.chart_points("equidistant", t1, t2))
    recs.append(record("potential-identity-equidistant",
                       _rel_max(va, p2.v2_equidistant(params, t1, t2)), 1e-12))
    recs.append(record("printed-alpha-sign-defect",
                       _rel_max(va, p2.v2_equidistant(params, t1, t2,
                                                      sign_corrected=False)),
                       None, soft=True,
                       notes={"comment": "published chart display has "
                                         "-alpha^2/sinh^2 t1; ambient form "
                                         "requires +"}))
    e1, e3 = complex(cp[0], cp[1]), cp[2]
    mu_, nu_, th_re, th_im = geo.box_points(
        50, (e3 + 0.1, e3 - 3.0, -3.0, -2.0), (e3 + 3.0, e3 - 0.1, 3.0, 2.0)).T
    q = geo.chart_points("semi-hyperbolic", mu_, nu_, cp)
    th = th_re + 1j * th_im
    s1 = (q.w0 + 1j * q.w1) / SQRT2
    lhs = (s1**2 / (th - e1) + np.conj(s1) ** 2 / (th - e1.conjugate())
           + (1j * q.w2) ** 2 / (th - e3))
    worst = max(np.max(np.abs(lhs - p2.sh_bracket(th, q, cp))),
                np.max(np.abs(lhs - (mu_ - th) * (nu_ - th)
                              / ((th - e1) * (th - e1.conjugate())
                                 * (th - e3)))))
    recs.append(record("semi-hyperbolic-factor-identity", worst, 1e-10))
    worst_e, worst_k = 0.0, 0.0
    for abc in geo.box_points(50, (0.05, 0.5, 0.3), (2.0, 6.0, 3.0)):
        pr = p2.P2Params(*abc.tolist())
        # k1 = a, the root of a^2 = (B - i gamma^2)/4 with Re a < 0 (the
        # sign is checked by the energies below)
        worst_k = max(worst_k, _rel_max(pr.k1**2,
                                        (pr.B - 1j * pr.gamma**2) / 4.0))
        if pr.nmax is not None:
            for N in range(min(pr.nmax, 2) + 1):
                worst_e = max(worst_e, abs(p2.p2_energy(pr, N)
                                           - p2.p2_energy_semihyperbolic(pr, N)))
    recs.append(record("energy-branch-consistency", worst_e, 1e-12))
    recs.append(record("k1-equals-a", worst_k, 1e-13))
    if params.nmax is None:
        return recs
    # Hamiltonian decomposition via the L_jk: closes with +3/8
    wf = p2.wf_ambient(p2.P2State(params, "equidistant", (0, 0)))
    ops = [alg.build_operator(o, params) for o in ("L12", "L13", "L23")]
    ksq = params.k1**2 + params.k2**2 + params.k3**2
    e0 = p2.p2_energy(params, 0)
    batch = eq_points(6)
    psi = wf(batch)
    s = sum(geo.apply_operators(ops, wf, batch))
    v = 0.5 * s + (-0.5 * ksq + 0.375) * psi
    v_pr = 0.5 * s + (-0.5 * ksq + 0.75) * psi
    worst = np.max(np.abs(v - e0 * psi) / np.abs(psi))
    worst_printed = np.max(np.abs(v_pr - e0 * psi) / np.abs(psi))
    recs.append(record("hamiltonian-decomposition", worst, 1e-6,
                       notes={"constant_used": 0.375}))
    recs.append(record("hamiltonian-decomposition-printed-constant",
                       worst_printed, None, soft=True,
                       notes={"comment": "published constant 3/4; the "
                                         "decomposition closes with 3/8"}))
    return recs


SUITES = {
    "v1": {"orthonormality": _orthonormality, "eigen": _v1_eigen,
           "linear-relations": _linear_relations,
           "quadratic-algebra": _quadratic_algebra,
           "interbasis": _interbasis, "cross-chart": _v1_cross_chart},
    "v2": {"orthonormality": _orthonormality, "eigen": _v2_eigen,
           "cross-chart": _v2_cross_chart},
}
