"""In-memory span tracer that wraps kposim's public functions from outside.

The tracer replaces public functions of the package's modules with timing
wrappers for the duration of a traced run and restores them afterwards; the
package itself is not modified.  A wrapped function is replaced in every
kposim module that bound it, so ``from .parallel import parallel_map`` in
``dynamics`` is traced as well as ``parallel.parallel_map``.  A target that
no longer exists is skipped and listed in ``absent``.

Each call of a wrapped function records a span: name, start, end, parent span
and the id of the experiment (the enclosing ``cli.run_experiment`` span).
``model.hamiltonian_at`` runs ~1e5 times per experiment, so it records no span
of its own: its call count and summed time are added to the innermost open
span of the calling thread.  The parent span crosses into pool threads
because ``parallel_map`` is handed a wrapped ``fn`` that installs it.
Spans stay in memory until :meth:`Tracer.write` is called.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict

LAYERS = ("model", "dynamics", "parallel", "spectral", "tomography", "qpt",
          "fileio", "cli")

_FILE_WRITERS = ("write_csv", "write_json", "write_record_jsonl",
                 "write_chi_json", "write_chi_csv")

# (module, attribute, kind); kind selects what the wrapper records besides
# the span itself.
TARGETS = (
    [("model", "hamiltonian_at", "aggregate"),
     ("model", "cat_basis_from_model", "span"),
     ("dynamics", "propagate", "propagate"),
     ("dynamics", "fit_exp_decay", "span"),
     ("dynamics", "fit_damped_cosine", "span"),
     ("dynamics", "rabi_map", "span"),
     ("dynamics", "tls_rabi_map", "span"),
     ("dynamics", "cat_rabi_map", "span"),
     ("dynamics", "relaxation_experiment", "span"),
     ("parallel", "parallel_map", "map"),
     ("spectral", "quasienergies", "span"),
     ("spectral", "splitting_surface", "span"),
     ("spectral", "energy_gap", "span"),
     ("tomography", "wigner_ideal", "wigner_points"),
     ("tomography", "simulate_ld_tomography", "record_points"),
     ("tomography", "reconstruct_density", "span"),
     ("tomography", "cat_size", "span"),
     ("qpt", "calibrate_x2", "span"),
     ("qpt", "calibrate_z2", "span"),
     ("qpt", "chi_matrix", "span"),
     ("qpt", "qpt_experiment", "span"),
     ("cli", "run_experiment", "experiment")]
    + [("fileio", name, "file") for name in _FILE_WRITERS])

PROPAGATE_CLASSES = ("ket_static", "ket_driven", "dm_static", "dm_driven")

COUNT_SUFFIXES = (".calls", ".nfev", ".points", ".bytes", ".items", ".spans",
                  ".absent_targets")


def _unit(name):
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    if name.startswith("dynamics.rhs_us."):
        return "us"
    if name.endswith(".point_ms"):
        return "ms"
    return "s"


def _metric_names():
    names = ["model.hamiltonian_at.calls", "model.hamiltonian_at.s"]
    for cls in PROPAGATE_CLASSES:
        names += [f"dynamics.propagate.{cls}.{k}"
                  for k in ("calls", "nfev", "s", "self_s")]
    names += [f"dynamics.rhs_us.{cls}" for cls in PROPAGATE_CLASSES]
    names += ["dynamics.fit.calls", "dynamics.fit.s",
              "parallel.map.calls", "parallel.map.items", "parallel.map.s",
              "parallel.map.item_s",
              "spectral.quasienergies.calls", "spectral.quasienergies.s",
              "tomography.wigner_ideal.calls", "tomography.wigner_ideal.points",
              "tomography.wigner_ideal.s",
              "tomography.simulate_ld_tomography.points",
              "tomography.simulate_ld_tomography.s",
              "tomography.simulate_ld_tomography.point_ms",
              "tomography.reconstruct_density.calls",
              "tomography.reconstruct_density.s",
              "qpt.calibrate_x2.calls", "qpt.calibrate_x2.s",
              "qpt.calibrate_z2.calls", "qpt.calibrate_z2.s",
              "qpt.chi_matrix.calls", "qpt.chi_matrix.s",
              "model.cat_basis_from_model.calls", "model.cat_basis_from_model.s",
              "fileio.write.calls", "fileio.write.bytes", "fileio.write.s",
              "cli.run_experiment.self_s"]
    names += [f"layer.{layer}.self_s" for layer in LAYERS]
    names += ["trace.spans", "trace.absent_targets", "trace.overhead_s"]
    return names


#: every per-layer metric the traced run reports, with its unit
PER_LAYER = tuple((name, _unit(name)) for name in _metric_names())


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "exp", "attrs",
                 "aggregates")

    def __init__(self, id_, name, parent, exp):
        self.id = id_
        self.name = name
        self.parent = parent
        self.exp = exp
        self.start = self.end = 0.0
        self.attrs = {}
        self.aggregates = {}    # name -> [calls, seconds] of untraced leaves

    def to_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "exp": self.exp,
                "attrs": self.attrs,
                "aggregates": {k: {"calls": c, "s": s}
                               for k, (c, s) in self.aggregates.items()}}


class Tracer:
    """Installs wrappers on ``install()`` and removes them on ``uninstall()``."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._patches = []       # (module, attribute, original)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.orphan = Span(0, "orphan", None, None)

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, name, root=False):
        st = self._stack()
        parent = st[-1] if st else None
        span = Span(next(self._ids), name,
                    parent.id if parent else None,
                    parent.exp if parent else None)
        if root:
            span.exp = span.id
        st.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def reset(self):
        self.spans = []
        self.orphan = Span(0, "orphan", None, None)

    def metrics(self):
        """Per-layer metrics of the spans recorded since the last reset."""
        return layer_metrics(self.spans, self.orphan, self.absent)

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn, after=None, root=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, root=root)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, args, kwargs, result)
                return result
            finally:
                tracer._close(span)

        return wrapper

    def _aggregated(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                st = tracer._stack()
                if st:
                    agg = st[-1].aggregates.setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += dt
                else:
                    with tracer._lock:
                        agg = tracer.orphan.aggregates.setdefault(name, [0, 0.0])
                        agg[0] += 1
                        agg[1] += dt

        return wrapper

    def _mapped(self, name, fn):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            item_fn = bound.arguments["fn"]
            span = tracer._open(name)
            span.attrs.update(items=0, item_s=0.0)

            def item(x):
                # the pool thread starts with an empty stack: install the
                # map span as the parent of whatever the item traces
                st = tracer._stack()
                saved = st[:]
                st[:] = [span]
                t0 = time.perf_counter()
                try:
                    return item_fn(x)
                finally:
                    dt = time.perf_counter() - t0
                    st[:] = saved
                    with tracer._lock:
                        span.attrs["items"] += 1
                        span.attrs["item_s"] += dt

            bound.arguments["fn"] = item
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                tracer._close(span)

        return wrapper

    def _make(self, module, attr, kind, fn):
        name = f"{module}.{attr}"
        if kind == "aggregate":
            return self._aggregated(name, fn)
        if kind == "map":
            return self._mapped(name, fn)
        if kind == "experiment":
            return self._spanned(name, fn, root=True)
        after = None
        if kind == "propagate":
            signature = inspect.signature(fn)

            def after(span, args, kwargs, result):
                schedule = signature.bind(*args, **kwargs).arguments["schedule"]
                static = all(seg.is_static() for seg in schedule.segments)
                meta = result.meta
                ket = meta.get("branch") == "unitary"
                span.attrs["cls"] = (("ket_" if ket else "dm_")
                                     + ("static" if static else "driven"))
                span.attrs["nfev"] = int(meta.get("nfev", 0))
        elif kind == "wigner_points":
            def after(span, args, kwargs, result):
                span.attrs["points"] = int(result.values.size)
        elif kind == "record_points":
            def after(span, args, kwargs, result):
                span.attrs["points"] = int(result.alphas.size)
        elif kind == "file":
            def after(span, args, kwargs, result):
                span.attrs["bytes"] = os.path.getsize(args[0])
        return self._spanned(name, fn, after=after)

    def install(self):
        modules = {}
        for sub in LAYERS:
            try:
                modules[sub] = importlib.import_module(f"kposim.{sub}")
            except ImportError:
                modules[sub] = None
        self.absent = []
        for module, attr, kind in TARGETS:
            mod = modules.get(module)
            original = getattr(mod, attr, None) if mod is not None else None
            if original is None:
                self.absent.append(f"{module}.{attr}")
                continue
            wrapper = self._make(module, attr, kind, original)
            for other in modules.values():
                if other is None:
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)
                        self._patches.append((other, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path, passes):
        """Write each pass's spans as JSON lines, tagged with the pass index."""
        with open(path, "w") as fh:
            for index, spans in enumerate(passes):
                for span in spans:
                    rec = span.to_dict()
                    rec["pass"] = index
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from one pass's spans


def _covered(span, children):
    """Time inside ``span`` covered by child spans (union) and aggregates."""
    ivs = sorted((max(c.start, span.start), min(c.end, span.end))
                 for c in children)
    covered, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in ivs:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered + sum(s for _, s in span.aggregates.values())


def layer_metrics(spans, orphan=None, absent=()):
    """Per-layer metrics (see ``PER_LAYER``) from the spans of one pass."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    by_id = {s.id: s for s in spans}
    m = defaultdict(float)

    def add(prefix, span, dur):
        m[prefix + ".calls"] += 1
        m[prefix + ".s"] += dur

    all_spans = list(spans) + ([orphan] if orphan is not None else [])
    for span in all_spans:
        calls, secs = span.aggregates.get("model.hamiltonian_at", (0, 0.0))
        m["model.hamiltonian_at.calls"] += calls
        m["model.hamiltonian_at.s"] += secs
        m["layer.model.self_s"] += secs
    for span in spans:
        dur = span.end - span.start
        self_s = max(dur - _covered(span, children[span.id]), 0.0)
        layer = span.name.split(".", 1)[0]
        m[f"layer.{layer}.self_s"] += self_s
        name = span.name
        if name == "dynamics.propagate":
            cls = span.attrs.get("cls", "unclassified")
            add(f"dynamics.propagate.{cls}", span, dur)
            m[f"dynamics.propagate.{cls}.nfev"] += span.attrs.get("nfev", 0)
            m[f"dynamics.propagate.{cls}.self_s"] += self_s
        elif name in ("dynamics.fit_exp_decay", "dynamics.fit_damped_cosine"):
            add("dynamics.fit", span, dur)
        elif name == "parallel.parallel_map":
            add("parallel.map", span, dur)
            m["parallel.map.items"] += span.attrs.get("items", 0)
            m["parallel.map.item_s"] += span.attrs.get("item_s", 0.0)
        elif name in ("tomography.wigner_ideal",
                      "tomography.simulate_ld_tomography"):
            add(name, span, dur)
            m[name + ".points"] += span.attrs.get("points", 0)
        elif name.startswith("fileio."):
            parent = by_id.get(span.parent)
            if parent is None or not parent.name.startswith("fileio."):
                add("fileio.write", span, dur)
                m["fileio.write.bytes"] += span.attrs.get("bytes", 0)
        elif name == "cli.run_experiment":
            m["cli.run_experiment.self_s"] += self_s
        else:
            add(name, span, dur)
    for cls in PROPAGATE_CLASSES:
        nfev = m[f"dynamics.propagate.{cls}.nfev"]
        secs = m[f"dynamics.propagate.{cls}.s"]
        m[f"dynamics.rhs_us.{cls}"] = 1e6 * secs / nfev if nfev else 0.0
    pts = m["tomography.simulate_ld_tomography.points"]
    m["tomography.simulate_ld_tomography.point_ms"] = (
        1e3 * m["tomography.simulate_ld_tomography.s"] / pts if pts else 0.0)
    m["trace.spans"] = len(spans)
    m["trace.absent_targets"] = len(absent)
    return {name: (int(m[name]) if unit == "count" else float(m[name]))
            for name, unit in PER_LAYER if name != "trace.overhead_s"}
