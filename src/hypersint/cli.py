"""hypersint command line interface.

Subcommands
-----------
spectrum      bound levels with degeneracies and state labels
wavefunction  evaluate a state on a rectangular chart grid
roots         solve the zero (Bethe-type) equations of a parabolic or
              semi-hyperbolic chart
interbasis    the level-N change of basis, three ways, with diagnostics
verify        machine-readable report of one suite of ``hypersint.verify``

Each subcommand takes only the options it reads (``COMMAND_OPTIONS``); any
other flag exits 2 when the command line is parsed.

Output is deterministic: floats are rendered with %.17g, key and record
order is fixed, files are written atomically (temp + rename), LF endings.
Exit codes: 0 success, 2 invalid parameters or configuration (the message
names the violated window), 3 root-solver failure (with the best residual
reached).

Configuration: a flat key=value file (--config) is shared by every
subcommand: each entry is checked exactly as the flag of that name is, a
command ignores the keys it does not read, and explicit command line flags
override the file's values.
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
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import geometry as geo
from . import potential1 as p1
from . import potential2 as p2
from . import verify
from .errors import HypersintError, SolverFailureError

SQRT2 = math.sqrt(2.0)


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
    bethe_tol: float = 1e-10
    fmt: str = "json"
    out: str | None = None
    suite: str = "orthonormality"

    @property
    def kind(self):
        return p1.P1Params if self.potential == "v1" else p2.P2Params

    def params(self):
        return self.kind(self.alpha, self.beta, self.gamma)

    def meta(self) -> dict:
        m = {"potential": self.potential, "alpha": self.alpha,
             "beta": self.beta, "gamma": self.gamma}
        if self.chart_params is not None:
            m["chart_params"] = list(self.chart_params)
        return m


# Argument types: a ValueError or TypeError (no match) is reported by the
# parser as "invalid <type name> value".

def float_triple(text: str) -> tuple[float, float, float]:
    a, b, e3 = (float(v) for v in text.split(","))
    return a, b, e3


def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def grid_spec(text: str) -> tuple:
    m = re.fullmatch(r"(\d+)x(\d+):([^,]+),([^,]+),([^,]+),([^,]+)", text)
    return (int(m[1]), int(m[2]), *(float(m[i]) for i in range(3, 7)))


def _read_config(path: str) -> dict:
    """The values of a flat key=value config file, checked exactly as flags
    are: each entry is one --key=value token of the options of every
    subcommand, not abbreviated, so a value that begins with '-' parses too."""
    tokens = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in map(str.strip, fh):
                if line and not line.startswith("#"):
                    key, eq, value = line.partition("=")
                    tokens.append(f"--{key.strip().replace('_', '-')}{eq}"
                                  f"{value.strip()}")
        ns, unknown = _add_options(argparse.ArgumentParser(
            add_help=False, allow_abbrev=False, exit_on_error=False),
            _OPTIONS).parse_known_args(tokens)
    except (OSError, argparse.ArgumentError) as exc:
        raise HypersintError(f"config file {path!r}: {exc}") from None
    if unknown or ns.config is not None:  # config files do not nest
        entry = (unknown or ["--config"])[0][2:].partition("=")[0].replace("-", "_")
        raise HypersintError(f"config file {path!r}: unknown entry {entry!r}")
    return vars(ns)


def build_config(args: argparse.Namespace) -> RunConfig:
    """The run configuration: defaults, then the config file, then flags;
    only the options of the command's parser (its namespace) are applied."""
    cfg = RunConfig()
    for vals in (_read_config(args.config) if args.config else {}, vars(args)):
        for key, value in vals.items():
            if (value is not None and key in vars(args)
                    and key in RunConfig.__dataclass_fields__):
                setattr(cfg, key, value)
    if cfg.chart not in cfg.kind.charts:  # the default is separable for both
        raise HypersintError(
            f"chart {cfg.chart!r} is not separable for {cfg.potential}")
    return cfg


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: RunConfig) -> str:
    levels = p1.p1_spectrum(cfg.params())
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


def _state_for(cfg: RunConfig):
    """Build the requested state plus normalization metadata.

    The returned function maps chart coordinate arrays (u, v) to real
    values, NaN at points outside the chart (``geo.in_chart_domain``): only
    the points inside are evaluated.
    """
    params, chart, cp = cfg.params(), cfg.chart, cfg.chart_params
    meta: dict = {}
    if chart in ("equidistant", "horicyclic"):
        st = p1.P1State(params, chart, tuple(cfg.quantum))
        wf, meta["normalization"] = {
            ("v1", "equidistant"): (p1.p1_wf_equidistant,
                                    "unit on t1>0, measure cosh(t1) dt1 dt2"),
            ("v1", "horicyclic"): (p1.p1_wf_horicyclic,
                                   "unit on x>0, measure dx dy/y^2"),
            ("v2", "equidistant"): (p2.p2_wf_equidistant,
                                    "unit on t1>0; global phase removed"),
        }[cfg.potential, chart]
    elif chart == "semi-hyperbolic":
        if cp is None:
            raise HypersintError("semi-hyperbolic chart requires --chart-params")
        if len(cfg.quantum) > 2:
            raise HypersintError("semi-hyperbolic chart needs --quantum N "
                                 "or N,configuration")
        N, idx = (cfg.quantum + (0,))[:2]
        confs = p2.p2_sh_roots(params, N, cp, tol=cfg.bethe_tol)
        if idx >= len(confs):
            raise HypersintError(
                f"configuration index {idx} out of range ({len(confs)} found)")
        st = p2.P2State(params, chart, (N,), roots=confs[idx], chart_params=cp)
        meta["roots"] = [[z.real, z.imag] for z in confs[idx].roots]
        meta["root_residual"] = confs[idx].residual
        meta["normalization"] = "unnormalized product form; global phase removed"

        def wf(st, u, v):  # NaN off the sheet and on the wall w2 = 0
            out = np.full(u.shape, complex(math.nan))
            w = geo.semi_hyperbolic_to_ambient(u, v, cp)
            ok = geo.on_sheet(*w) & (w[2] != 0.0)
            out[ok] = p2.p2_wf_semihyperbolic(
                st, geo.AmbientPoints(*(c[ok] for c in w)))
            return out
    else:
        if len(cfg.quantum) != 3:
            raise HypersintError("parabolic charts need --quantum N,zoneA,zoneB")
        N, za, zb = cfg.quantum
        confs = p1._p1_roots(params, N, chart, cfg.form, cfg.bethe_tol)[0]
        match = [c for c in confs if c.zone_counts == (za, zb)]
        if not match:
            raise SolverFailureError(
                f"no configuration with zone counts ({za}, {zb}); "
                f"found {[c.zone_counts for c in confs]}",
                best_residual=min(c.residual for c in confs))
        st = p1.P1State(params, chart, (N,), roots=match[0])
        wf = (p1.p1_wf_elliptic_parabolic if chart == "elliptic-parabolic"
              else p1.p1_wf_hyperbolic_parabolic)
        meta["roots"] = [float(r) for r in match[0].roots]
        meta["root_residual"] = match[0].residual
        meta["form"] = cfg.form
        # from the state's projection onto its level on the level's rule
        meta["log_norm"] = st.log_norm

    def on_grid(u, v):
        out = np.full(u.shape, math.nan)
        inside = geo.in_chart_domain(chart, u, v, cp)
        out[inside] = np.real(wf(st, u[inside], v[inside]))
        return out
    return on_grid, meta


def cmd_wavefunction(cfg: RunConfig) -> str:
    fn, meta = _state_for(cfg)
    n1, n2, lo1, hi1, lo2, hi2 = cfg.grid
    u, v = (a.ravel() for a in np.meshgrid(
        np.linspace(lo1, hi1, n1), np.linspace(lo2, hi2, n2), indexing="ij"))
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
    if cfg.chart in ("equidistant", "horicyclic"):
        root_charts = [c for c in cfg.kind.charts
                       if c not in ("equidistant", "horicyclic")]
        raise HypersintError(f"{cfg.potential} roots live on the "
                             f"{' or '.join(root_charts)} chart")
    if cfg.potential == "v1":
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
    level = verify.interbasis_level(params, cfg.N, "canonical")
    printed = verify.interbasis_level(params, cfg.N, "printed")
    level["printed_variant"] = {
        k: printed[k] for k in ("w_3f2", "agreement_quad_3f2",
                                "agreement_3f2_hahn", "orthogonality_defect",
                                "notes")}
    return dumps_json({"meta": {**cfg.meta(), "N": cfg.N}, "records": [level]})


def cmd_verify(cfg: RunConfig) -> tuple[str, int]:
    records, failed = verify.run(cfg)
    payload = {"meta": {**cfg.meta(), "suite": cfg.suite}, "records": records}
    return dumps_json(payload), int(failed)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# Every option once, with its add_argument keywords, and the options each
# subcommand reads: its parser takes those and no other (nor abbreviations).
_OPTIONS = {
    "potential": dict(choices=("v1", "v2")),
    "alpha": dict(type=float),
    "beta": dict(type=float),
    "gamma": dict(type=float),
    "chart": {},
    "chart-params": dict(type=float_triple,
                         help="a,b,e3 for the semi-hyperbolic chart"),
    "N": dict(type=int),
    "quantum": dict(type=int_list, help="comma-separated quantum numbers"),
    "form": dict(choices=("printed", "derived")),
    "grid": dict(type=grid_spec, help="n1xn2:lo1,hi1,lo2,hi2"),
    "bethe-tol": dict(type=float),
    "suite": dict(choices=sorted(set().union(*verify.SUITES.values()))),
    "format": dict(dest="fmt", choices=("json", "csv")),
    "out": {},
    "config": {},
}
_WELL = ("potential", "alpha", "beta", "gamma")
COMMAND_OPTIONS = {
    "spectrum": _WELL + ("format", "out", "config"),
    "wavefunction": _WELL + ("chart", "chart-params", "quantum", "form", "grid",
                             "bethe-tol", "format", "out", "config"),
    "roots": _WELL + ("chart", "chart-params", "N", "form", "bethe-tol", "format",
                      "out", "config"),
    "interbasis": ("alpha", "beta", "gamma", "N", "out", "config"),
    "verify": _WELL + ("chart-params", "suite", "out", "config")}


def _add_options(parser: argparse.ArgumentParser, names) -> argparse.ArgumentParser:
    for name in names:
        parser.add_argument(f"--{name}", **_OPTIONS[name])
    return parser


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared: parse_args
    returns a fresh Namespace each call and leaves the parser unchanged."""
    ap = argparse.ArgumentParser(
        prog="hypersint",
        description="Two superintegrable systems on the 2D hyperboloid")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, options in COMMAND_OPTIONS.items():
        _add_options(sub.add_parser(name, allow_abbrev=False), options)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "verify":
            text, code = cmd_verify(cfg)
        else:
            command = {"spectrum": cmd_spectrum, "roots": cmd_roots,
                       "wavefunction": cmd_wavefunction,
                       "interbasis": cmd_interbasis}[args.command]
            text, code = command(cfg), 0
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
