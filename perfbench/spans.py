"""Per-layer spans taken from outside the program.

:class:`Tracer` replaces the public functions of every ``fracsew`` module
with wrappers that record a span (name, start, end, parent) and a few work
counts, then puts the originals back.  A function that other modules
imported under their own names (``adaptive_quad`` inside ``fbm``,
``integrals`` and ``local_time``, say) is replaced under every name.  Spans
stay in memory until :meth:`Tracer.save`.  Only the benchmark's files are
involved; the program is not edited.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "fbm", "sewing", "integrals", "local_time", "fsde",
          "numerics", "csvio", "svgplot")

# per-cell formatting helpers: called once per CSV cell, their cost belongs
# to the writer that calls them, and a span each would dwarf it
SKIP = {"csvio.format_value", "csvio.parse_scalar"}
RENAME = {"local_time.cumulative_local_time": "local_time.cumulative"}
# spans named after a call's arguments, or around a callable a function returns
SOURCE = {"local_time.curve": "local_time.local_time_curve",
          "fsde.mollified_sigma": "fsde.mollify_coefficient"}


def source_of(metric: str) -> str:
    """The wrapped name a per-layer metric is measured on."""
    span = metric.rsplit(".", 1)[0]
    for prefix, wrapped in SOURCE.items():
        if span == prefix or span.startswith(prefix + "."):
            return wrapped
    return span


class Tracer:
    def __init__(self) -> None:
        self._ids: dict[str, int] = {}       # span name -> index in save()
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.total = defaultdict(float)    # inclusive seconds, outermost only
        self.self_s = defaultdict(float)   # minus the time of child spans
        self.counts = defaultdict(int)
        self._stack: list[list] = []       # [span index, name, child seconds]
        self._undo: list[tuple] = []
        self.wrapped: set[str] = set()     # names install() found and wrapped

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> None:
        idx = len(self.span_start)
        self.span_name.append(self._ids.setdefault(name, len(self._ids)))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([idx, name, 0.0])
        self.span_start.append(time.perf_counter())

    def _close(self) -> None:
        end = time.perf_counter()
        idx, name, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.self_s[name] += dur - child
        self.counts[name + ".calls"] += 1
        if self._stack:
            self._stack[-1][2] += dur
        if all(frame[1] != name for frame in self._stack):
            self.total[name] += dur

    def wrap(self, fn, name: str, after=None, span_of=None):
        """``fn`` with a span around each call.

        ``after(args, kwargs, result)`` adds work counts and, if it returns
        something other than None, replaces the result; ``span_of(args,
        kwargs)`` names the span from the call's arguments.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(span_of(args, kwargs) if span_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                replaced = after(args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result
        return traced

    # -- installing the wrappers -------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        modules = [sys.modules[f"{package.__name__}.{m}"] for m in LAYERS
                   if f"{package.__name__}.{m}" in sys.modules]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr in getattr(mod, "__all__", ()):
                fn = mod.__dict__.get(attr)
                name = RENAME.get(f"{short}.{attr}", f"{short}.{attr}")
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and name not in SKIP):
                    wrappers[fn] = self.wrap(fn, name, *self._hooks(name))
                    self.wrapped.add(name)
        for mod in modules + [package]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])
        self._wrap_method(package, "fbm", "FbmPath", "indices_of", "fbm.indices_of")
        self._wrap_method(package, "sewing", "Germ", "evaluate_batch",
                          "sewing.germ_batch")

    def _wrap_method(self, package, module: str, cls_name: str, method: str,
                     name: str) -> None:
        cls = getattr(sys.modules.get(f"{package.__name__}.{module}"), cls_name, None)
        if cls is not None and inspect.isfunction(cls.__dict__.get(method)):
            self._set(cls, method, self.wrap(cls.__dict__[method], name))
            self.wrapped.add(name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- work counts -------------------------------------------------------

    def _count(self, key: str, amount) -> None:
        self.counts[key] += int(amount)

    def _hooks(self, name: str):
        """(after, span_of) for functions whose work is counted."""
        count = self._count

        def arg(args, kwargs, pos, key, default=None):
            return args[pos] if len(args) > pos else kwargs.get(key, default)

        if name == "fbm.sample_fbm":
            return (lambda a, k, r: count("fbm.sample_fbm.points", np.size(r.values)),
                    None)
        if name == "sewing.riemann_sum":
            return (lambda a, k, r: count("sewing.riemann_sum.intervals",
                                          arg(a, k, 2, "partition").n_intervals),
                    None)
        if name == "csvio.write_table":
            def table_size(a, k, r):
                with open(arg(a, k, 0, "file_path"), "rb") as fh:
                    data = fh.read()
                comments = data.count(b"\n#") + data.startswith(b"#")
                count("csvio.write_table.bytes", len(data))
                count("csvio.write_table.rows", data.count(b"\n") - comments - 1)
            return table_size, None
        if name == "svgplot.polyline_svg":
            return (lambda a, k, r: count("svgplot.polyline_svg.points",
                                          sum(s.x.size for s in arg(a, k, 0, "series"))),
                    None)
        if name == "svgplot.write_svg":
            return (lambda a, k, r: count("svgplot.write_svg.bytes",
                                          os.path.getsize(arg(a, k, 0, "file_path"))),
                    None)
        if name == "fsde.young_euler_solve":
            return lambda a, k, r: count("fsde.young_euler_solve.steps", r.step_count), None
        if name == "integrals.conditional_mc_check":
            return (lambda a, k, r: count("integrals.conditional_mc_check.redraws",
                                          r.replicas),
                    None)
        if name == "local_time.local_time_curve":
            return None, lambda a, k: f"local_time.curve.{arg(a, k, 2, 'estimator')}"
        if name == "fsde.mollify_coefficient":
            def wrap_sigma(a, k, smooth):
                return self.wrap(smooth, "fsde.mollified_sigma", lambda a2, k2, r2: count(
                    "fsde.mollified_sigma.points", np.size(a2[0])))
            return wrap_sigma, None
        return None, None

    # -- output ------------------------------------------------------------

    def save(self, file_path: str) -> None:
        np.savez(file_path, names=np.array(list(self._ids)),
                 name=np.array(self.span_name, dtype=np.int32),
                 start=np.array(self.span_start), end=np.array(self.span_end),
                 parent=np.array(self.span_parent, dtype=np.int64))
