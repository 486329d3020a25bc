"""hypersint command line interface.

Subcommands
-----------
spectrum      bound levels with degeneracies and state labels
wavefunction  evaluate a state on a rectangular chart grid
roots         solve the zero (Bethe-type) equations of a parabolic or
              semi-hyperbolic chart
interbasis    the level-N change of basis, three ways, with diagnostics
verify        machine-readable verification report for one suite

Output is deterministic: floats are rendered with %.17g, key and record
order is fixed, files are written atomically (temp + rename), LF endings.
Exit codes: 0 success, 2 invalid parameters or configuration (the message
names the violated window), 3 root-solver failure (with the best residual
reached).

Configuration: a flat key=value file can be passed with --config; explicit
command line flags override file values.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from . import algebra as alg
from . import geometry as geo
from . import interbasis as ib
from . import potential1 as p1
from . import potential2 as p2
from . import specfun as sf
from .errors import HypersintError, SolverFailureError

SQRT2 = math.sqrt(2.0)

V1_CHARTS = ("equidistant", "horicyclic", "elliptic-parabolic",
             "hyperbolic-parabolic")
V2_CHARTS = ("equidistant", "semi-hyperbolic")


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _json_key(k) -> str:
    # json's own key rules: str as is; bool, int, float and None as literals
    return encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k))


def _json(obj, pad: str) -> str:
    """JSON text of obj, laid out as json.dumps(indent=2), floats as %.17g
    and non-finite floats (NaN, infinities) as null.

    Plain finite floats inside containers are formatted in place, not by a
    call; x - x == 0.0 holds exactly for the finite ones.
    """
    if type(obj) is float:
        return "%.17g" % obj if obj - obj == 0.0 else "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        return _json(float(obj), pad)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.ndarray):
        return _json(obj.tolist(), pad)
    if isinstance(obj, complex):
        obj = {"re": obj.real, "im": obj.imag}
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = (_json_key(k) + ": "
                + ("%.17g" % v if type(v) is float and v - v == 0.0
                   else _json(v, inner))
                for k, v in obj.items())
        return "{\n" + inner + (",\n" + inner).join(body) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ("%.17g" % v if type(v) is float and v - v == 0.0
                else _json(v, inner) for v in obj)
        return "[\n" + inner + (",\n" + inner).join(body) + "\n" + pad + "]"
    return json.dumps(obj)


def dumps_json(obj) -> str:
    return _json(obj, "") + "\n"


def dumps_csv(header: list[str], rows: list[list], meta: dict) -> str:
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (float, np.floating))
                              else str(v) for v in row))
    return "\n".join(lines) + "\n"


def write_output(text: str, path: str | None):
    """Atomic write (or stdout when no path is given)."""
    if path is None:
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".hypersint-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    potential: str = "v1"
    alpha: float = 1.0
    beta: float = 1.0 / SQRT2
    gamma: float = 2.0 * SQRT2
    chart: str = "equidistant"
    chart_params: tuple[float, float, float] | None = None
    N: int = 0
    quantum: tuple[int, ...] = (0, 0)
    form: str = "derived"
    grid: tuple = (50, 50, -2.0, 2.0, -2.0, 2.0)
    quad_level: int = 8
    diff_step: float = 1e-3
    bethe_tol: float = 1e-10
    fmt: str = "json"
    out: str | None = None
    suite: str = "orthonormality"

    def params(self):
        if self.potential == "v1":
            return p1.P1Params(self.alpha, self.beta, self.gamma)
        if self.potential == "v2":
            return p2.P2Params(self.alpha, self.beta, self.gamma)
        raise HypersintError(f"unknown potential {self.potential!r}")

    def meta(self) -> dict:
        m = {"potential": self.potential, "alpha": self.alpha,
             "beta": self.beta, "gamma": self.gamma}
        if self.chart_params is not None:
            m["chart_params"] = list(self.chart_params)
        return m


def _parse_config_file(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise HypersintError(f"config line without '=': {line!r}")
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise HypersintError("chart-params needs exactly three values a,b,e3")
    return tuple(parts)


def _parse_grid(text: str):
    m = re.fullmatch(r"(\d+)x(\d+):([^,]+),([^,]+),([^,]+),([^,]+)", text)
    if not m:
        raise HypersintError("grid must look like 50x50:lo1,hi1,lo2,hi2")
    n1, n2 = int(m.group(1)), int(m.group(2))
    lo1, hi1, lo2, hi2 = (float(m.group(i)) for i in range(3, 7))
    return (n1, n2, lo1, hi1, lo2, hi2)


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    file_vals = _parse_config_file(args.config) if args.config else {}
    str_keys = {"potential", "chart", "form", "suite"}
    float_keys = {"alpha", "beta", "gamma", "diff_step", "bethe_tol"}
    int_keys = {"N", "quad_level"}
    for k, v in file_vals.items():
        key = k.replace("-", "_")
        if key in str_keys:
            setattr(cfg, key, v)
        elif key == "format":
            cfg.fmt = v
        elif key == "out":
            cfg.out = v
        elif key in float_keys:
            setattr(cfg, key, float(v))
        elif key in int_keys:
            setattr(cfg, key, int(v))
        elif key == "chart_params":
            cfg.chart_params = _parse_triple(v)
        elif key == "quantum":
            cfg.quantum = tuple(int(x) for x in v.split(","))
        elif key == "grid":
            cfg.grid = _parse_grid(v)
        else:
            raise HypersintError(f"unknown config key {k!r}")
    for key in ("potential", "chart", "form", "suite"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    for key in ("alpha", "beta", "gamma", "N", "quad_level"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if getattr(args, "diff_step", None) is not None:
        cfg.diff_step = args.diff_step
    if getattr(args, "bethe_tol", None) is not None:
        cfg.bethe_tol = args.bethe_tol
    if getattr(args, "chart_params", None) is not None:
        cfg.chart_params = _parse_triple(args.chart_params)
    if getattr(args, "quantum", None) is not None:
        cfg.quantum = tuple(int(x) for x in args.quantum.split(","))
    if getattr(args, "grid", None) is not None:
        cfg.grid = _parse_grid(args.grid)
    if getattr(args, "format", None) is not None:
        cfg.fmt = args.format
    if getattr(args, "out", None) is not None:
        cfg.out = args.out
    if cfg.potential == "v1" and cfg.chart not in V1_CHARTS:
        raise HypersintError(f"chart {cfg.chart!r} is not separable for v1")
    if cfg.potential == "v2" and cfg.chart not in V2_CHARTS:
        raise HypersintError(f"chart {cfg.chart!r} is not separable for v2")
    return cfg


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: RunConfig) -> str:
    params = cfg.params()
    levels = (p1.p1_spectrum(params) if cfg.potential == "v1"
              else p2.p2_spectrum(params))
    if cfg.fmt == "csv":
        rows = []
        for lev in levels:
            for st in lev["states"]:
                rows.append([lev["N"], lev["E"], lev["degeneracy"],
                             st["n"], st["m"], st["mu"]])
        if not rows:
            return dumps_csv(["no_bound_states"], [["true"]], cfg.meta())
        return dumps_csv(["N", "E", "degeneracy", "n", "m", "mu"], rows,
                         cfg.meta())
    payload = {"meta": cfg.meta(),
               "records": levels if levels else [{"no_bound_states": True}]}
    return dumps_json(payload)


def _grid_axes(cfg: RunConfig):
    n1, n2, lo1, hi1, lo2, hi2 = cfg.grid
    return (np.linspace(lo1, hi1, n1), np.linspace(lo2, hi2, n2))


def _state_for(cfg: RunConfig):
    """Build the requested state plus normalization metadata.

    The returned function maps chart coordinate arrays (u, v) to real
    values, NaN at points outside the chart (``geo.in_chart_domain``): only
    the points inside are evaluated.
    """
    params = cfg.params()
    meta: dict = {}
    if cfg.potential == "v1":
        if cfg.chart == "equidistant":
            st = p1.P1State(params, "equidistant", tuple(cfg.quantum))
            fn = lambda u, v: p1.p1_wf_equidistant(st, u, v)
            meta["normalization"] = "unit on t1>0, measure cosh(t1) dt1 dt2"
        elif cfg.chart == "horicyclic":
            st = p1.P1State(params, "horicyclic", tuple(cfg.quantum))
            fn = lambda u, v: p1.p1_wf_horicyclic(st, u, v)
            meta["normalization"] = "unit on x>0, measure dx dy/y^2"
        else:
            want = tuple(cfg.quantum)
            if len(want) != 3:
                raise HypersintError(
                    "parabolic charts need --quantum N,zoneA,zoneB")
            N, za, zb = want
            confs = (p1.p1_ep_roots(params, N, form=cfg.form, tol=cfg.bethe_tol)
                     if cfg.chart == "elliptic-parabolic"
                     else p1.p1_hp_roots(params, N, form=cfg.form,
                                         tol=cfg.bethe_tol))
            match = [c for c in confs if c.zone_counts == (za, zb)]
            if not match:
                raise SolverFailureError(
                    f"no configuration with zone counts ({za}, {zb}); "
                    f"found {[c.zone_counts for c in confs]}",
                    best_residual=min(c.residual for c in confs))
            st = p1.P1State(params, cfg.chart, (N,), roots=match[0])
            fn = (lambda u, v: p1.p1_wf_elliptic_parabolic(st, u, v)) \
                if cfg.chart == "elliptic-parabolic" else \
                (lambda u, v: p1.p1_wf_hyperbolic_parabolic(st, u, v))
            meta["roots"] = [float(r) for r in match[0].roots]
            meta["root_residual"] = match[0].residual
            meta["form"] = cfg.form
            meta["log_norm"] = p1._parabolic_log_norm(st)
    elif cfg.chart == "equidistant":
        st = p2.P2State(params, "equidistant", tuple(cfg.quantum))
        fn = lambda u, v: np.real(p2.p2_wf_equidistant(st, u, v))
        meta["normalization"] = "unit on t1>0; global phase removed"
    else:
        cp = cfg.chart_params
        if cp is None:
            raise HypersintError("semi-hyperbolic chart requires --chart-params")
        N, idx = (cfg.quantum + (0,))[:2]
        confs = p2.p2_sh_roots(params, N, cp, tol=cfg.bethe_tol)
        if idx >= len(confs):
            raise HypersintError(
                f"configuration index {idx} out of range ({len(confs)} found)")
        st = p2.P2State(params, "semi-hyperbolic", (N,), roots=confs[idx],
                        chart_params=cp)
        meta["roots"] = [[z.real, z.imag] for z in confs[idx].roots]
        meta["root_residual"] = confs[idx].residual
        meta["normalization"] = "unnormalized product form; global phase removed"

        def fn(u, v):
            out = np.full(u.shape, math.nan)
            w = geo.semi_hyperbolic_to_ambient(u, v, cp)
            ok = geo.on_sheet(*w) & (w[2] != 0.0)
            q = geo.AmbientPoints(*(c[ok] for c in w))
            out[ok] = p2.p2_wf_semihyperbolic(st, q).real
            return out

    def on_grid(u, v):
        out = np.full(u.shape, math.nan)
        inside = geo.in_chart_domain(cfg.chart, u, v, cfg.chart_params)
        out[inside] = fn(u[inside], v[inside])
        return out
    return on_grid, meta


def cmd_wavefunction(cfg: RunConfig) -> str:
    fn, meta = _state_for(cfg)
    u, v = (a.ravel() for a in np.meshgrid(*_grid_axes(cfg), indexing="ij"))
    try:
        vals = np.asarray(fn(u, v), dtype=float)
    except HypersintError:  # a failure that does not depend on the point
        vals = np.full(u.shape, math.nan)
    rows = [[a, b, c, c * c]
            for a, b, c in zip(u.tolist(), v.tolist(), vals.tolist())]
    meta_all = {**cfg.meta(), "chart": cfg.chart,
                "quantum": ",".join(str(q) for q in cfg.quantum), **meta}
    if cfg.fmt == "csv":
        return dumps_csv(["u1", "u2", "psi", "abs2"], rows, meta_all)
    return dumps_json({"meta": meta_all,
                       "records": [{"u1": r[0], "u2": r[1], "psi": r[2],
                                    "abs2": r[3]} for r in rows]})


def cmd_roots(cfg: RunConfig) -> str:
    params = cfg.params()
    recs = []
    meta = {**cfg.meta(), "chart": cfg.chart, "N": cfg.N, "form": cfg.form}
    if cfg.potential == "v1":
        if cfg.chart not in ("elliptic-parabolic", "hyperbolic-parabolic"):
            raise HypersintError("v1 roots live on the parabolic charts")
        sep_fn = (p1.p1_ep_lambda if cfg.chart == "elliptic-parabolic"
                  else p1.p1_hp_tau)
        confs, meta["non_real_configurations"] = p1._p1_roots(
            params, cfg.N, cfg.chart, cfg.form, cfg.bethe_tol)
        for c in confs:
            recs.append({
                "roots": [float(r) for r in c.roots],
                "residual": c.residual,
                "zone_counts": list(c.zone_counts),
                "off_zone": c.off_zone,
                "separation_constant": sep_fn(params, c),
                "form": c.form,
            })
    else:
        cp = cfg.chart_params
        if cp is None:
            raise HypersintError("v2 roots need --chart-params a,b,e3")
        for c in p2.p2_sh_roots(params, cfg.N, cp, tol=cfg.bethe_tol):
            lam = p2.p2_sh_lambda(params, c, cp)
            lam_true = p2.p2_sh_lambda_closed(params, c, cfg.N, cp)
            recs.append({
                "roots": [[z.real, z.imag] for z in c.roots],
                "residual": c.residual,
                "real_roots": c.zone_counts[0],
                "complex_pairs": c.zone_counts[1],
                "lambda_display_symmetrized": [lam.real, lam.imag],
                "lambda_eigenvalue": [lam_true.real, lam_true.imag],
            })
    payload = {"meta": meta, "records": recs}
    if cfg.fmt == "csv":
        rows = [[i, r["residual"], ";".join(map(str, r["roots"]))]
                for i, r in enumerate(recs)]
        return dumps_csv(["config", "residual", "roots"], rows, payload["meta"])
    return dumps_json(payload)


def cmd_interbasis(cfg: RunConfig) -> str:
    params = cfg.params()
    if cfg.potential != "v1":
        raise HypersintError("interbasis expansion is defined for v1 only")
    N = cfg.N
    wq = ib.w_quadrature(params, N)
    w3 = ib.w_3f2(params, N)
    wh = ib.w_hahn(params, N)
    wq_pr = ib.w_quadrature(params, N, variant="printed")
    w3_pr = ib.w_3f2(params, N, variant="printed")
    wh_pr = ib.w_hahn(params, N, variant="printed")
    payload = {
        "meta": {**cfg.meta(), "N": N},
        "records": [{
            "rows_horicyclic": [list(r) for r in wq.rows],
            "cols_equidistant": [list(c) for c in wq.cols],
            "w_quadrature": wq.entries,
            "w_3f2": w3.entries,
            "w_hahn": wh.entries,
            "agreement_quad_3f2": float(np.max(np.abs(wq.entries - w3.entries))),
            "agreement_3f2_hahn": float(np.max(np.abs(w3.entries - wh.entries))),
            "orthogonality_defect": ib.orthogonality_defect(w3),
            "pointwise_residual": ib.verify_expansion(params, N, w3),
            "printed_variant": {
                "w_3f2": w3_pr.entries,
                "agreement_quad_3f2": float(np.max(np.abs(wq_pr.entries
                                                          - w3_pr.entries))),
                "agreement_3f2_hahn": float(np.max(np.abs(w3_pr.entries
                                                          - wh_pr.entries))),
                "orthogonality_defect": ib.orthogonality_defect(w3_pr),
            },
        }],
    }
    return dumps_json(payload)


# ---------------------------------------------------------------------------
# Verify suites
# ---------------------------------------------------------------------------

def _rec(ident: str, residual: float, tol: float | None, soft: bool = False,
         notes: dict | None = None) -> dict:
    """One report record; tol=None marks a purely informational measurement."""
    rec = {"id": ident, "residual": float(residual), "tolerance": tol,
           "pass": True if tol is None else bool(residual <= tol),
           "soft": soft}
    if notes:
        rec["notes"] = notes
    return rec


def _gram(rows, spec) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix of 1-D factors, and its change from the next-coarser
    level, as ``integrate`` gives them for one integral.

    rows(t) returns one row of factor values per state on the nodes t.
    """
    def gram(x, w):
        f = np.reshape(rows(x), (-1, x.size))
        return (f * w) @ f.T
    fine, coarse = (gram(*sf.quadrature_rule(s))
                    for s in (spec, replace(spec, level=max(1, spec.level - 1))))
    return fine, np.abs(fine - coarse)


def _suite_orthonormality(cfg: RunConfig) -> list[dict]:
    recs = []
    params = cfg.params()
    spec_a = sf.QuadratureSpec("tanh-sinh", cfg.quad_level, 0.0, math.inf,
                               "exp-map")
    if cfg.potential == "v1":
        states = [nm for N in range((params.nmax or -1) + 1)
                  for nm in p1.level_states_equidistant(params, N)]
        mus = {m: p1.p1_mu(params, m) for _, m in states}

        def pt_rows(t):
            return np.array([p1.pt_factor(params, n, mus[m], t)
                             for n, m in states])

        def morse_rows(t):
            # one Morse factor per m, shared by every n
            f = {m: p1.morse_factor(params, m, t, mu) for m, mu in mus.items()}
            return np.array([f[m] for _, m in states])

        ga, _ = _gram(pt_rows, spec_a)
        gb, _ = _gram(morse_rows, sf.QuadratureSpec(
            "tanh-sinh", cfg.quad_level, -25.0, 5.0))
        worst = np.max(np.triu(np.abs(ga * gb - np.eye(len(states)))),
                       initial=0.0)
        recs.append(_rec("v1-equidistant-gram", worst, 1e-7))
    else:
        mu0 = p2.p2_mu(params, 0)
        va, _ = sf.integrate(lambda t: p2.z_pt_factor(params, 0, mu0, t) ** 2,
                             spec_a)
        vb, _ = sf.integrate(
            lambda t: np.abs(p2.s2_complex_factor(params, 0, t)) ** 2,
            sf.QuadratureSpec("tanh-sinh", cfg.quad_level, -8.0, 8.0))
        recs.append(_rec("v2-ground-norm", abs(va * vb - 1.0), 1e-7))
    return recs


def _eq_points(seed: int = 11, n: int = 10,
               both_signs: bool = True) -> geo.AmbientPoints:
    """n equidistant-chart points with 0.3 <= |t1| <= 1.3 (t1 > 0 unless
    both_signs), |t2| <= 1; per point the draws are t1, the sign, t2."""
    rng = np.random.default_rng(seed)
    if both_signs:
        t1, sign, t2 = rng.uniform((0.3, 0.0, -1.0), (1.3, 1.0, 1.0),
                                   size=(n, 3)).T
        t1 = np.where(sign < 0.5, -t1, t1)
    else:
        t1, t2 = rng.uniform((0.3, -1.0), (1.3, 1.0), size=(n, 2)).T
    return geo.chart_points("equidistant", t1, t2)


def _suite_eigen(cfg: RunConfig) -> list[dict]:
    recs = []
    h = cfg.diff_step
    if cfg.potential == "v1":
        params = cfg.params()
        pts = _eq_points()
        l1 = alg.build_operator("L1", params)
        l2 = alg.build_operator("L2", params)
        st = p1.P1State(params, "equidistant",
                        p1.level_states_equidistant(params, min(1, params.nmax or 0))[0])
        mu = p1.p1_mu(params, st.numbers[1])
        recs.append(_rec("L1-equidistant", alg.eigen_residual(
            l1, p1.wf_ambient(st), mu**2, pts, h=h), 1e-6))
        sth = p1.P1State(params, "horicyclic", st.numbers[::-1])
        n1 = sth.numbers[0]
        lam2 = -(2.0 * SQRT2 * params.beta * (2 * n1 + params.d + 1.0)
                 + 2.0 * params.gamma**2)
        recs.append(_rec("L2-horicyclic", alg.eigen_residual(
            l2, p1.wf_ambient(sth), lam2, pts, h=h), 1e-6))
        if (params.nmax or -1) >= 1:
            l3 = alg.build_operator("L3", params)
            l4 = alg.build_operator("L4", params)
            conf = p1.p1_ep_roots(params, 1, form="derived")[0]
            stp = p1.P1State(params, "elliptic-parabolic", (1,), roots=conf)
            lam_sep = p1.p1_ep_lambda(params, conf)
            lam3 = lam_sep + 4.0 * params.gamma**2
            recs.append(_rec("L3-elliptic-parabolic", alg.eigen_residual(
                l3, p1.wf_ambient(stp), lam3, pts, h=h), 1e-6,
                notes={"lambda_separation": lam_sep,
                       "lambda_operator": lam3,
                       "display_offset": 4.0 * params.gamma**2}))
            pts_hp = pts[pts.w2 > 0] or _eq_points(both_signs=False)
            confh = p1.p1_hp_roots(params, 1, form="derived")[0]
            sthp = p1.P1State(params, "hyperbolic-parabolic", (1,), roots=confh)
            tau_sep = p1.p1_hp_tau(params, confh)
            tau4 = tau_sep - 4.0 * params.gamma**2
            recs.append(_rec("L4-hyperbolic-parabolic", alg.eigen_residual(
                l4, p1.wf_ambient(sthp), tau4, pts_hp, h=h), 1e-6,
                notes={"tau_separation": tau_sep, "tau_operator": tau4,
                       "display_offset": -4.0 * params.gamma**2}))
            recs.append(_rec(
                "lambda-AL0-vs-FEP10",
                abs(lam3 - lam_sep), None, soft=True,
                notes={"comment": "operator eigenvalue minus separated-ODE "
                                  "constant; equals 4 gamma^2 by the display "
                                  "constant mismatch"}))
    else:
        params = cfg.params()
        pts = _eq_points()
        wf = p2.wf_ambient(p2.P2State(params, "equidistant", (0, 0)))
        l1 = alg.build_operator("L1", params)
        mu0 = p2.p2_mu(params, 0)
        recs.append(_rec("L1-v2-equidistant", alg.eigen_residual(
            l1, wf, mu0**2, pts, h=h), 1e-6))
        l12 = alg.build_operator("L12", params)
        psi = wf(pts)
        v = (-geo.apply_operator(l12, wf, pts, h=h)
             + (params.beta**2 - params.alpha**2) * psi)
        recs.append(_rec("L1-from-L12-relation",
                         np.max(np.abs(v - mu0**2 * psi) / np.abs(psi)), 1e-6))
        if cfg.chart_params is not None:
            cp = cfg.chart_params
            conf = p2.p2_sh_roots(params, 0, cp)[0]
            wfs = p2.wf_ambient(p2.P2State(params, "semi-hyperbolic", (0,),
                                           roots=conf, chart_params=cp))
            lam_true = p2.p2_sh_lambda_closed(params, conf, 0, cp)
            l2sh = alg.build_operator("L2", params, chart_params=cp)
            mu_, nu_ = np.random.default_rng(19).uniform(0.4, 2.0,
                                                         size=(8, 2)).T
            pts_sh = geo.chart_points("semi-hyperbolic", mu_, -nu_, cp)
            recs.append(_rec("L2-semi-hyperbolic", alg.eigen_residual(
                l2sh, wfs, lam_true, pts_sh, h=h), 1e-6))
            lam_disp = p2.p2_sh_lambda(params, conf, cp)
            recs.append(_rec("lambda-display-vs-eigenvalue",
                             abs(lam_disp - lam_true), None, soft=True,
                             notes={"display_symmetrized":
                                    [lam_disp.real, lam_disp.imag],
                                    "eigenvalue":
                                    [lam_true.real, lam_true.imag]}))
    return recs


def _suite_linear_relations(cfg: RunConfig) -> list[dict]:
    params = cfg.params()
    if cfg.potential != "v1":
        raise HypersintError("linear relations are a v1 suite")
    pts = _eq_points()
    fs = (lambda q: q.w2 * np.exp(-q.w0),
          lambda q: q.w0**2 / (1.0 + q.w2**2))
    out = []
    for rep in alg.check_linear_relations(params, fs, pts, h=cfg.diff_step):
        out.append(_rec(rep.identity, rep.residual, rep.tolerance))
    return out


def _suite_quadratic_algebra(cfg: RunConfig) -> list[dict]:
    params = cfg.params()
    if cfg.potential != "v1":
        raise HypersintError("the quadratic algebra suite applies to v1")
    nmax = params.nmax
    if nmax is None:
        raise HypersintError("empty spectrum: no multiplets to check")
    N = min(2, nmax)
    w = ib.w_3f2(params, N)
    rep = alg.multiplet_matrices(params, N, w)
    recs = []
    sym1 = float(np.max(np.abs(rep.n1_matrix - rep.n1_matrix.T)))
    sym2 = float(np.max(np.abs(rep.n2_matrix - rep.n2_matrix.T)))
    anti = float(np.max(np.abs(rep.r_matrix + rep.r_matrix.T)))
    recs.append(_rec("matrix-symmetries", max(sym1, sym2, anti), 1e-10))
    pts = _eq_points(seed=13, n=14 + 8 * N)
    basis = [p1.wf_ambient(p1.P1State(params, "equidistant", nm))
             for nm in w.cols]
    r_op = alg.build_operator("R", params)
    r_proj = alg.project_operator(r_op, basis, pts, h=alg.R_STEP)
    scale = max(float(np.max(np.abs(rep.r_matrix))), 1.0)
    recs.append(_rec("R-commutator-vs-projected",
                     float(np.max(np.abs(r_proj - rep.r_matrix))) / scale,
                     1e-5))
    for r in alg.check_quadratic_algebra(rep, params):
        recs.append(_rec(r.identity, r.residual, r.tolerance, soft=True,
                         notes=r.notes))
    return recs


def _suite_interbasis(cfg: RunConfig) -> list[dict]:
    params = cfg.params()
    if cfg.potential != "v1":
        raise HypersintError("interbasis suite applies to v1")
    recs = []
    nmax = params.nmax
    if nmax is None:
        raise HypersintError("empty spectrum")
    for N in range(min(2, nmax) + 1):
        wq = ib.w_quadrature(params, N)
        w3 = ib.w_3f2(params, N)
        wh = ib.w_hahn(params, N)
        recs.append(_rec(f"three-method-agreement-N{N}",
                         max(float(np.max(np.abs(wq.entries - w3.entries))),
                             float(np.max(np.abs(w3.entries - wh.entries)))),
                         1e-8))
        recs.append(_rec(f"orthogonality-N{N}", ib.orthogonality_defect(w3),
                         1e-8))
        recs.append(_rec(f"pointwise-expansion-N{N}",
                         ib.verify_expansion(params, N, w3), 1e-6))
        w3p = ib.w_3f2(params, N, variant="printed")
        recs.append(_rec(f"printed-variant-orthogonality-N{N}",
                         ib.orthogonality_defect(w3p), None, soft=True,
                         notes={"comment": "published prefactors are not "
                                           "orthogonal; canonical variant is "
                                           "used for all hard checks"}))
    return recs


def _rel_max(a, b) -> float:
    """max |a - b| / max(1, |a|)."""
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))))


def _suite_cross_chart(cfg: RunConfig) -> list[dict]:
    # point sets are drawn as (n, k) arrays: row by row, the same numbers in
    # the same order as n rounds of k scalar draws
    recs = []
    rng = np.random.default_rng(29)
    params = cfg.params()
    if cfg.potential == "v1":
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
            u, v = rng.uniform(lo, hi, size=(100, 2)).T
            q = geo.chart_points(chart, u, v)
            res_worst = max(res_worst, float(np.max(geo.hyperboloid_residual(q))))
            recs.append(_rec(f"potential-identity-{chart}",
                             _rel_max(p1.v1_ambient(params, q),
                                      form(params, u, v)), 1e-12))
        recs.append(_rec("chart-maps-on-surface", res_worst, 1e-10))
        if params.nmax is not None:
            w = 0.0
            for N in range(params.nmax + 1):
                e = p1.p1_energy(params, N)
                w = max(w, abs(e - p1.p1_energy_from_horicyclic(params, N)),
                        abs(e - p1.p1_energy_from_elliptic_parabolic(params, N)))
            recs.append(_rec("cross-chart-quantization", w, 1e-12))
        a_, b_ = rng.uniform(-2.0, 2.0, size=(100, 2)).T
        x, y = geo.chart_coordinates(geo.chart_points("equidistant", a_, b_),
                                     "horicyclic")
        w = max(np.max(np.abs(x - np.exp(b_) * np.tanh(a_))),
                np.max(np.abs(y - np.exp(b_) / np.cosh(a_))))
        recs.append(_rec("horicyclic-bridge", w, 1e-12))
    else:
        cp = cfg.chart_params or p2.DEFAULT_SH_PARAMS
        t1, t2 = rng.uniform((0.2, -2.0), (2.0, 2.0), size=(100, 2)).T
        va = p2.v2_ambient(params, geo.chart_points("equidistant", t1, t2))
        recs.append(_rec("potential-identity-equidistant",
                         _rel_max(va, p2.v2_equidistant(params, t1, t2)), 1e-12))
        recs.append(_rec("printed-alpha-sign-defect",
                         _rel_max(va, p2.v2_equidistant(params, t1, t2,
                                                        sign_corrected=False)),
                         None, soft=True,
                         notes={"comment": "published chart display has "
                                           "-alpha^2/sinh^2 t1; ambient form "
                                           "requires +"}))
        e1, e3 = complex(cp[0], cp[1]), cp[2]
        mu_, nu_, th_re, th_im = rng.uniform(
            (e3 + 0.1, e3 - 3.0, -3.0, -2.0), (e3 + 3.0, e3 - 0.1, 3.0, 2.0),
            size=(50, 4)).T
        q = geo.chart_points("semi-hyperbolic", mu_, nu_, cp)
        th = th_re + 1j * th_im
        s1 = (q.w0 + 1j * q.w1) / SQRT2
        lhs = (s1**2 / (th - e1) + np.conj(s1) ** 2 / (th - e1.conjugate())
               + (1j * q.w2) ** 2 / (th - e3))
        worst = max(np.max(np.abs(lhs - p2.sh_bracket(th, q, cp))),
                    np.max(np.abs(lhs - (mu_ - th) * (nu_ - th)
                                  / ((th - e1) * (th - e1.conjugate())
                                     * (th - e3)))))
        recs.append(_rec("semi-hyperbolic-factor-identity", worst, 1e-10))
        worst_e, worst_k = 0.0, 0.0
        for abc in rng.uniform((0.05, 0.5, 0.3), (2.0, 6.0, 3.0), size=(50, 3)):
            pr = p2.P2Params(*abc.tolist())
            worst_k = max(worst_k, abs(pr.k1 - pr.a))
            if pr.nmax is not None:
                for N in range(min(pr.nmax, 2) + 1):
                    worst_e = max(worst_e, abs(p2.p2_energy(pr, N)
                                               - p2.p2_energy_semihyperbolic(pr, N)))
        recs.append(_rec("energy-branch-consistency", worst_e, 1e-12))
        recs.append(_rec("k1-equals-a", worst_k, 1e-13))
        # Hamiltonian decomposition via the L_jk: closes with +3/8
        wf = p2.wf_ambient(p2.P2State(params, "equidistant", (0, 0)))
        ops = [alg.build_operator(o, params) for o in ("L12", "L13", "L23")]
        ksq = params.k1**2 + params.k2**2 + params.k3**2
        e0 = p2.p2_energy(params, 0)
        batch = _eq_points(seed=31, n=6)
        psi = wf(batch)
        s = sum(geo.apply_operator(o, wf, batch, h=cfg.diff_step) for o in ops)
        v = 0.5 * s + (-0.5 * ksq + 0.375) * psi
        v_pr = 0.5 * s + (-0.5 * ksq + 0.75) * psi
        worst = np.max(np.abs(v - e0 * psi) / np.abs(psi))
        worst_printed = np.max(np.abs(v_pr - e0 * psi) / np.abs(psi))
        recs.append(_rec("hamiltonian-decomposition", worst, 1e-6,
                         notes={"constant_used": 0.375}))
        recs.append(_rec("hamiltonian-decomposition-printed-constant",
                         worst_printed, None, soft=True,
                         notes={"comment": "published constant 3/4; the "
                                           "decomposition closes with 3/8"}))
    return recs


_SUITES = {
    "orthonormality": _suite_orthonormality,
    "eigen": _suite_eigen,
    "linear-relations": _suite_linear_relations,
    "quadratic-algebra": _suite_quadratic_algebra,
    "interbasis": _suite_interbasis,
    "cross-chart": _suite_cross_chart,
}


def cmd_verify(cfg: RunConfig) -> tuple[str, int]:
    if cfg.suite not in _SUITES:
        raise HypersintError(f"unknown suite {cfg.suite!r}; "
                             f"choose from {sorted(_SUITES)}")
    records = _SUITES[cfg.suite](cfg)
    payload = {"meta": {**cfg.meta(), "suite": cfg.suite}, "records": records}
    hard_fail = any((not r["pass"]) and not r.get("soft") for r in records)
    return dumps_json(payload), (1 if hard_fail else 0)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser):
    sp.add_argument("--potential", choices=("v1", "v2"))
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--beta", type=float)
    sp.add_argument("--gamma", type=float)
    sp.add_argument("--chart")
    sp.add_argument("--chart-params", dest="chart_params",
                    help="a,b,e3 for the semi-hyperbolic chart")
    sp.add_argument("--N", type=int)
    sp.add_argument("--quantum", help="comma-separated quantum numbers")
    sp.add_argument("--form", choices=("printed", "derived"))
    sp.add_argument("--grid", help="n1xn2:lo1,hi1,lo2,hi2")
    sp.add_argument("--quad-level", dest="quad_level", type=int)
    sp.add_argument("--diff-step", dest="diff_step", type=float)
    sp.add_argument("--bethe-tol", dest="bethe_tol", type=float)
    sp.add_argument("--format", choices=("json", "csv"))
    sp.add_argument("--out")
    sp.add_argument("--config")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared: parse_args
    returns a fresh Namespace each call and leaves the parser unchanged."""
    ap = argparse.ArgumentParser(
        prog="hypersint",
        description="Two superintegrable systems on the 2D hyperboloid")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "wavefunction", "roots", "interbasis"):
        _add_common(sub.add_parser(name))
    spv = sub.add_parser("verify")
    _add_common(spv)
    spv.add_argument("--suite", choices=sorted(_SUITES))
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "spectrum":
            write_output(cmd_spectrum(cfg), cfg.out)
            return 0
        if args.command == "wavefunction":
            write_output(cmd_wavefunction(cfg), cfg.out)
            return 0
        if args.command == "roots":
            write_output(cmd_roots(cfg), cfg.out)
            return 0
        if args.command == "interbasis":
            write_output(cmd_interbasis(cfg), cfg.out)
            return 0
        text, code = cmd_verify(cfg)
        write_output(text, cfg.out)
        return code
    except SolverFailureError as exc:
        best = "" if exc.best_residual is None else \
            f" (best residual {exc.best_residual:.3e})"
        print(f"hypersint: solver failure: {exc}{best}", file=sys.stderr)
        return 3
    except HypersintError as exc:
        print(f"hypersint: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
