"""The verification suites: one table per potential, one record rule.

``SUITES[potential][name](params, cfg)`` returns a suite's records in a
fixed order (cfg is a ``cli.RunConfig``).  ``record`` makes each one: a
check passes when its residual is at most its tolerance, which is written
there and nowhere else.  A record without a tolerance is a measurement; a
soft record reports a discrepancy of the published formulas and never fails
a run.  The Gram, eigen, quadratic-algebra and v2 Hamiltonian checks run on
the equidistant states' exact Gauss rules (``potential1.EquidistantBasis``):
the well's Gram matrix and a level's Galerkin matrices (``algebra.galerkin``),
with parabolic and semi-hyperbolic states as their level coefficients
(``project``), every configuration of the level; eigen records note the
rule's ``nodes``, and those of product states the ``configurations``.  The
other checks sample the ``geometry.box_points`` design of a fixed box and
count, so a report depends on its inputs alone.  A largest-of residual
keeps a NaN part (``_worst``), so that part fails the record.
"""

from __future__ import annotations

import numpy as np

from . import algebra as alg
from . import geometry as geo
from . import interbasis as ib
from . import potential1 as p1
from . import potential2 as p2
from .errors import HypersintError, NoBoundStateError


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


def _amax(a) -> float:
    return float(np.max(np.abs(a)))


def _worst(residuals) -> float:
    """The largest of residuals, 0 if none; NaN if any is (max() drops a later NaN)."""
    return float(np.max(list(residuals), initial=0.0))


def _rel_max(a, b) -> float:
    """max |a - b| / max(1, |a|)."""
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))))


def _product_states(ident: str, mat, cs, lams, notes: dict) -> dict:
    """An eigen record of product states: the worst over the configurations
    of max |mat c - lam c| / (max |mat| max |c|), c their level coefficients."""
    return record(ident, _worst(_amax(mat @ c - lam * c) / (_amax(mat) * _amax(c))
                                for c, lam in zip(cs, lams)), 1e-6,
                  notes={**notes, "configurations": len(cs)})


def _orthonormality(params, cfg) -> list[dict]:
    """The Gram matrix of every equidistant state of the well."""
    n, m = np.array([nm for N in range(_nmax(params) + 1)
                     for nm in p1.level_states_equidistant(params, N)],
                    dtype=float).T
    gram = p1.EquidistantBasis(params, n, m).gram
    worst = np.max(np.triu(np.abs(gram - np.eye(len(n)))), initial=0.0)
    return [record(f"{cfg.potential}-equidistant-gram", worst, 1e-7)]


def _v1_eigen(params, cfg) -> list[dict]:
    """L1..L4 as Galerkin matrices on level min(1, nmax), each relative to
    the size of its terms: L1 against diag(mu^2), the L2 spectrum against
    the horicyclic one, L3 and L4 on the coefficients of every parabolic
    configuration of the level (the largest residual), with the first
    configuration's separation constant as notes."""
    N = min(1, _nmax(params))
    basis = p1.EquidistantBasis.level(params, N)
    l1, l2, l3, l4 = alg.galerkin(basis, [alg.build_operator(k, params)
                                          for k in ("L1", "L2", "L3", "L4")])
    nodes = len(basis.points)
    mu2 = p1.p1_mu(params, np.arange(N + 1.0)) ** 2  # every level is full
    eigs = np.sort(alg.n2_horicyclic_eigenvalues(params, N)) + 2.0 * params.gamma**2
    recs = [record("L1-equidistant", _amax(l1 - np.diag(mu2)) / _amax(mu2), 1e-6,
                   notes={"nodes": nodes}),
            record("L2-horicyclic", _amax(np.linalg.eigvalsh(l2) - eigs)
                   / _amax(eigs), 1e-6, notes={"nodes": nodes})]
    if N < 1:
        return recs
    # op, matrix, chart, roots, separation constant, its name, offset / g^2
    members = []
    for op, mat, chart, roots, sep, name, offset in (
            ("L3", l3, "elliptic-parabolic", p1.p1_ep_roots, p1.p1_ep_lambda,
             "lambda", 4.0),
            ("L4", l4, "hyperbolic-parabolic", p1.p1_hp_roots, p1.p1_hp_tau,
             "tau", -4.0)):
        confs = roots(params, 1, form="derived")
        values = [sep(params, conf) for conf in confs]
        offset *= params.gamma**2
        _, memberships, cs = zip(*(p1._parabolic_projection(
            p1.P1State(params, chart, (1,), roots=conf), basis) for conf in confs))
        recs.append(_product_states(
            f"{op}-{chart}", mat, cs, [value + offset for value in values],
            {f"{name}_separation": values[0], f"{name}_operator": values[0] + offset,
             "display_offset": offset, "nodes": nodes}))
        # the norm is exact only in the level's span
        members.append(record(f"parabolic-membership-{chart}", _worst(memberships), 1e-6))
    lam = recs[-2]["notes"]
    recs.append(record(
        "lambda-AL0-vs-FEP10",
        abs(lam["lambda_operator"] - lam["lambda_separation"]), None, soft=True,
        notes={"comment": "operator eigenvalue minus separated-ODE "
                          "constant; equals 4 gamma^2 by the display "
                          "constant mismatch"}))
    return recs + members


def v2_eigen_level(params, N: int, chart_params=None) -> list[dict]:
    """Level N's Galerkin L1 and -L12 + (beta^2 - alpha^2) against
    diag(mu^2), and with chart_params the L2 of every semi-hyperbolic
    configuration, on its coefficients, against ``p2_sh_lambda_closed``;
    each relative to the size of its terms."""
    basis = p1.EquidistantBasis.level(params, N)
    names = ("L1", "L12") + (("L2",) if chart_params is not None else ())
    l1, l12, *l2 = alg.galerkin(basis, [alg.build_operator(
        k, params, chart_params=chart_params) for k in names])
    nodes = {"nodes": len(basis.points)}
    mu2 = np.diag(p2.p2_mu(params, np.arange(N + 1.0)) ** 2)  # every level is full
    l1_rel = -l12 + (params.beta**2 - params.alpha**2) * basis.gram  # L1 by the relation
    recs = [record(ident, _amax(mat - mu2) / _amax(mu2), 1e-6, notes=nodes) for ident, mat
            in (("L1-v2-equidistant", l1), ("L1-from-L12-relation", l1_rel))]
    if chart_params is None:
        return recs
    confs = p2.p2_sh_roots(params, N, chart_params)
    lams = [p2.p2_sh_lambda_closed(params, conf, N, chart_params) for conf in confs]
    cs, members = zip(*(basis.project(p2.p2_wf_semihyperbolic(p2.P2State(
        params, "semi-hyperbolic", (N,), roots=conf, chart_params=chart_params),
        basis.points)) for conf in confs))
    recs.append(_product_states("L2-semi-hyperbolic", l2[0], cs, lams, nodes))
    lam_true, lam_disp = lams[0], p2.p2_sh_lambda(params, confs[0], chart_params)
    recs.append(record(
        "lambda-display-vs-eigenvalue", abs(lam_disp - lam_true), None, soft=True,
        notes={"display_symmetrized": [lam_disp.real, lam_disp.imag],
               "eigenvalue": [lam_true.real, lam_true.imag]}))
    # the coefficients are exact only in the level's span
    return recs + [record("semi-hyperbolic-membership", _worst(members), 1e-6)]


def _v2_eigen(params, cfg) -> list[dict]:
    return v2_eigen_level(params, min(1, _nmax(params)), cfg.chart_params)


def _linear_relations(params, cfg) -> list[dict]:
    """L3 = -L2 - L1 and L4 = L2 - L1 on two test functions at ten points."""
    fs = (lambda q: q.w2 * np.exp(-q.w0),
          lambda q: q.w0**2 / (1.0 + q.w2**2))
    t1, sign, t2 = geo.box_points(10, (0.3, 0.0, -1.0), (1.3, 1.0, 1.0)).T
    residuals = alg.check_linear_relations(params, fs, geo.chart_points(
        "equidistant", np.where(sign < 0.5, -t1, t1), t2))
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
            record("matrix-symmetries", _worst((
                _amax(n1 - n1.T) / _amax(n1), _amax(n2 - n2.T) / _amax(n2),
                _amax(r + r.T) / (_amax(n1) * _amax(n2)))), 1e-10),
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
                           _worst((lv["agreement_quad_3f2"],
                                   lv["agreement_3f2_hahn"])), 1e-8,
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
    on_surface = []
    for chart, (lo, hi, form) in chart_form.items():
        u, v = geo.box_points(100, lo, hi).T
        q = geo.chart_points(chart, u, v)
        on_surface.append(np.max(geo.hyperboloid_residual(q)))
        dm = q.w0 - q.w1  # relative to V1's three terms, which can cancel
        size = (params.alpha**2 / q.w2**2 + params.gamma**2 / dm**2
                + params.beta**2 * np.abs((q.w0 + q.w1) / dm**3))
        err = np.abs(p1.v1_ambient(params, q) - form(params, u, v)) / size
        recs.append(record(f"potential-identity-{chart}", np.max(err), 1e-12))
    recs.append(record("chart-maps-on-surface", _worst(on_surface), 1e-10))
    if params.nmax is not None:
        recs.append(record("cross-chart-quantization", _worst(
            _rel_max(p1.p1_energy(params, N), other(params, N))
            for N in range(params.nmax + 1)
            for other in (p1.p1_energy_from_horicyclic,
                          p1.p1_energy_from_elliptic_parabolic)), 1e-12))
    a_, b_ = geo.box_points(100, (-2.0, -2.0), (2.0, 2.0)).T
    x, y = geo.chart_coordinates(geo.chart_points("equidistant", a_, b_),
                                 "horicyclic")
    recs.append(record("horicyclic-bridge", _worst((
        _amax(x - np.exp(b_) * np.tanh(a_)), _amax(y - np.exp(b_) / np.cosh(a_)))), 1e-12))
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
    s1 = (q.w0 + 1j * q.w1) / np.sqrt(2.0)
    lhs = (s1**2 / (th - e1) + np.conj(s1) ** 2 / (th - e1.conjugate())
           + (1j * q.w2) ** 2 / (th - e3))
    recs.append(record("semi-hyperbolic-factor-identity", _worst((
        _amax(lhs - p2.sh_bracket(th, q, cp)),
        _amax(lhs - (mu_ - th) * (nu_ - th)
              / ((th - e1) * (th - e1.conjugate()) * (th - e3))))), 1e-10))
    branch, k1 = [], []
    for abc in geo.box_points(50, (0.05, 0.5, 0.3), (2.0, 6.0, 3.0)):
        pr = p2.P2Params(*abc.tolist())
        # k1 = a, the root of a^2 = (B - i gamma^2)/4 with Re a < 0 (the
        # sign is checked by the energies below)
        k1.append(_rel_max(pr.k1**2, (pr.B - 1j * pr.gamma**2) / 4.0))
        if pr.nmax is not None:
            branch += [abs(p2.p2_energy(pr, N) - p2.p2_energy_semihyperbolic(pr, N))
                       for N in range(min(pr.nmax, 2) + 1)]
    recs.append(record("energy-branch-consistency", _worst(branch), 1e-12))
    recs.append(record("k1-equals-a", _worst(k1), 1e-13))
    if params.nmax is None:
        return recs
    return recs + hamiltonian_decomposition(params, min(1, params.nmax))


def hamiltonian_decomposition(params, N: int) -> list[dict]:
    """Level N's Galerkin (1/2)(L12 + L13 + L23) - (k1^2 + k2^2 + k3^2)/2
    + 3/8 against E_N I, relative to the sum of its terms in magnitude; the
    printed 3/4 is a soft record of the defect in energy units."""
    basis = p1.EquidistantBasis.level(params, N)
    s = 0.5 * sum(alg.galerkin(basis, [alg.build_operator(o, params)
                                       for o in ("L12", "L13", "L23")]))
    shift = -0.5 * (params.k1**2 + params.k2**2 + params.k3**2) + 0.375
    e = p2.p2_energy(params, N)
    worst, worst_printed = (_amax(s + (shift + c) * basis.gram - e * np.eye(N + 1))
                            for c in (0.0, 0.375))
    return [record("hamiltonian-decomposition",
                   worst / (_amax(s) + abs(shift) + abs(e)), 1e-6,
                   notes={"constant_used": 0.375, "nodes": len(basis.points)}),
            record("hamiltonian-decomposition-printed-constant",
                   worst_printed, None, soft=True,
                   notes={"comment": "published constant 3/4; the "
                                     "decomposition closes with 3/8"})]


SUITES = {
    "v1": {"orthonormality": _orthonormality, "eigen": _v1_eigen,
           "linear-relations": _linear_relations,
           "quadratic-algebra": _quadratic_algebra,
           "interbasis": _interbasis, "cross-chart": _v1_cross_chart},
    "v2": {"orthonormality": _orthonormality, "eigen": _v2_eigen,
           "cross-chart": _v2_cross_chart},
}
