"""Per-layer tracing of the hypersint package, installed from outside.

A layer is one module of the package.  ``Tracer.install`` wraps every public
function a module defines (plus a few named private ones that carry work
counts) and rebinds the wrapper at *every* module attribute that referred to
the original function, so ``from .geometry import apply_operator`` aliases
in other modules are traced too.  ``Tracer.uninstall`` restores every
binding; an untraced run never calls ``install``.

Each call records one span: function, start, end, parent span and job id.
Spans stay in compact in-memory arrays and are written out by ``save`` when
the run ends.  A span's self time is its duration minus the time covered by
child spans of *other* layers (same-layer children count as its own work),
so the outermost span of each layer chain partitions the traced wall time
exactly between the layers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "hypersint"
LAYERS = ("specfun", "geometry", "potential1", "potential2", "interbasis",
          "algebra", "cli")

# Private functions wrapped for the work they count.
EXTRA = {"specfun": ("_eval_vec",)}

# Argument that carries the evaluation points, by function name.
POINT_ARG = {
    "jacobi": 3, "laguerre": 2, "_eval_vec": 1,
    "p1_wf_equidistant": 1, "p1_wf_horicyclic": 1,
    "p1_wf_elliptic_parabolic": 1, "p1_wf_hyperbolic_parabolic": 1,
    "p2_wf_equidistant": 1,
}


def _is_own_function(obj, modname: str) -> bool:
    if getattr(obj, "__module__", None) != modname:
        return False
    return inspect.isfunction(obj) or isinstance(
        obj, functools._lru_cache_wrapper)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, only: dict[str, tuple[str, ...]] | None = None):
        """``only`` restricts the wrapped functions, by layer."""
        self.only = only
        self.names: list[tuple[str, str]] = []   # fn id -> (layer, name)
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.fn = array("i")
        self.job = array("i")
        self.points = array("i")
        self.nested = array("b")
        self.counters: dict[str, float] = {}
        self.job_names: list[str] = []
        self._stack = [-1]
        self._active: list[int] = []
        self._job = -1
        self._saved: list[tuple[object, str, object]] = []
        self.binding_sites: dict[str, int] = {}

    # -- recording --------------------------------------------------------

    def fn_id(self, layer: str, name: str) -> int:
        self.names.append((layer, name))
        self._active.append(0)
        return len(self.names) - 1

    def open(self, fid: int, points: int = 0) -> int:
        sid = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.fn.append(fid)
        self.job.append(self._job)
        self.points.append(points)
        self._active[fid] += 1
        self.nested.append(self._active[fid] > 1)
        self._stack.append(sid)
        return sid

    def close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        self._active[self.fn[sid]] -= 1

    def begin_job(self, name: str) -> int:
        """Open a harness span for one job; its id tags all nested spans."""
        self.job_names.append(name)
        self._job = len(self.job_names) - 1
        return self.open(self.fn_id("bench", name))

    def end_job(self, sid: int):
        self.close(sid)
        self._job = -1

    def count(self, key: str, value: float = 1.0):
        self.counters[key] = self.counters.get(key, 0.0) + value

    def observe_max(self, key: str, value: float):
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, f, hook=None):
        fid = self.fn_id(layer, name)
        point_arg = POINT_ARG.get(name)
        tracer = self

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            pts = 0
            if point_arg is not None and len(args) > point_arg:
                pts = getattr(args[point_arg], "size", 1)
            if hook is not None:
                args, kwargs, after = hook(args, kwargs)
            sid = tracer.open(fid, pts)
            try:
                out = f(*args, **kwargs)
            finally:
                tracer.close(sid)
            if hook is not None:
                after(out)
            return out
        return wrapper

    def install(self):
        """Wrap the layers' functions at every binding site in the package."""
        mods = _package_modules()
        hooks = self._hooks()
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            if self.only is not None:
                wanted = self.only.get(layer, ())
            else:
                wanted = [n for n, v in vars(mod).items()
                          if not n.startswith("_")
                          and _is_own_function(v, mod.__name__)]
                wanted += [n for n in EXTRA.get(layer, ()) if hasattr(mod, n)]
            for name in wanted:
                orig = getattr(mod, name, None)
                if orig is None:
                    continue
                wrapper = self._wrap(layer, name, orig, hooks.get(name))
                sites = 0
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._saved.append((m, attr, orig))
                            setattr(m, attr, wrapper)
                            sites += 1
                self.binding_sites[f"{layer}.{name}"] = sites

    def uninstall(self):
        for m, attr, orig in reversed(self._saved):
            setattr(m, attr, orig)
        self._saved.clear()

    # -- hooks: (args, kwargs) -> (args, kwargs, after(result)) ------------

    def _hooks(self) -> dict:
        """Work counters attached to particular functions, by name."""
        p1_roots = self._roots_hook("potential1.roots", derived_only=True)
        return {
            "apply_operator": self._count_wf_evals,
            "p1_ep_roots": p1_roots,
            "p1_hp_roots": p1_roots,
            "p2_sh_roots": self._roots_hook("potential2.sh_roots",
                                            derived_only=False),
            "w_quadrature": self._orthogonality_hook("quadrature"),
            "w_3f2": self._orthogonality_hook("3f2"),
            "w_hahn": self._orthogonality_hook("hahn"),
            "write_output": self._count_output_bytes,
        }

    def _count_wf_evals(self, args, kwargs):
        """Replace the wavefunction argument by a counting closure."""
        def counted(f):
            def g(q):
                self.count("geometry.wf_evals")
                return f(q)
            return g
        if len(args) > 1:
            args = (args[0], counted(args[1])) + tuple(args[2:])
        elif "f" in kwargs:
            kwargs = {**kwargs, "f": counted(kwargs["f"])}
        return args, kwargs, lambda out: None

    def _roots_hook(self, key: str, derived_only: bool):
        """Configurations found, and the N + 1 expected (derived form)."""
        def hook(args, kwargs):
            N = kwargs.get("N", args[1] if len(args) > 1 else None)
            form = kwargs.get("form", args[2] if len(args) > 2 else "printed")

            def after(out):
                if not derived_only or form == "derived":
                    self.count(f"{key}.configs_found", len(out))
                    self.count(f"{key}.configs_expected", N + 1)
            return args, kwargs, after
        return hook

    def _orthogonality_hook(self, method: str):
        """Largest max|W^T W - I| over the canonical matrices built."""
        def hook(args, kwargs):
            variant = kwargs.get("variant", args[2] if len(args) > 2
                                 else "canonical")

            def after(out):
                if variant == "canonical":
                    g = out.entries.T @ out.entries
                    defect = float(np.max(np.abs(g - np.eye(g.shape[0]))))
                    self.observe_max(f"interbasis.orth_defect_max.{method}",
                                     defect)
            return args, kwargs, after
        return hook

    def _count_output_bytes(self, args, kwargs):
        text = args[0] if args else kwargs.get("text", "")
        self.count("cli.output_bytes", len(text))
        return args, kwargs, lambda out: None

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "fn": np.frombuffer(self.fn, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "points": np.frombuffer(self.points, dtype=np.int32),
            "nested": np.frombuffer(self.nested, dtype=np.int8),
        }

    def summarize(self) -> dict:
        """Calls, points, self and inclusive time per function and per layer."""
        a = self.arrays()
        n = len(a["start"])
        dur = a["end"] - a["start"]
        layer_of_fn = [layer for layer, _ in self.names]
        span_layer = [layer_of_fn[f] for f in a["fn"].tolist()]
        parent = a["parent"].tolist()
        cross = [0.0] * n
        durl = dur.tolist()
        for c in range(n - 1, -1, -1):
            p = parent[c]
            if p >= 0:
                cross[p] += durl[c] if span_layer[c] != span_layer[p] \
                    else cross[c]
        self_t = dur - np.asarray(cross)
        outer = ~a["nested"].astype(bool)
        nf = len(self.names)
        fn = a["fn"]
        calls = np.bincount(fn, minlength=nf)
        points = np.bincount(fn, weights=a["points"], minlength=nf)
        selfs = np.bincount(fn[outer], weights=self_t[outer], minlength=nf)
        incl = np.bincount(fn[outer], weights=dur[outer], minlength=nf)
        per_fn: dict[str, dict] = {}
        for i, (layer, name) in enumerate(self.names):
            key = f"{layer}.{name}"
            rec = per_fn.setdefault(key, {"calls": 0, "points": 0,
                                          "self_s": 0.0, "incl_s": 0.0})
            rec["calls"] += int(calls[i])
            rec["points"] += int(points[i])
            rec["self_s"] += float(selfs[i])
            rec["incl_s"] += float(incl[i])
        boundary = np.array([parent[s] < 0 or span_layer[parent[s]]
                             != span_layer[s] for s in range(n)], dtype=bool)
        layers: dict[str, float] = {}
        for s in np.nonzero(boundary)[0].tolist():
            layers[span_layer[s]] = layers.get(span_layer[s], 0.0) \
                + float(self_t[s])
        return {"functions": per_fn, "layers": layers,
                "counters": dict(self.counters), "spans": n,
                "binding_sites": dict(self.binding_sites)}

    def save(self, path):
        """Write every span and the function table to an ``.npz`` file."""
        names = np.array([f"{layer}.{name}" for layer, name in self.names])
        np.savez(path, names=names, jobs=np.array(self.job_names),
                 **self.arrays())
