"""Spans around calls into qwtrap's public functions, kept in memory.

The package binds functions by name across modules (``verification`` and
``cli`` do ``from .spectral import find_eigenphases``), so a function is
wrapped in every ``qwtrap`` module, and every module-level dict, that holds
it; patching only its home module would miss those callers.  Nothing in the
package changes on disk: ``Tracer.uninstall`` puts every original back.

A span is ``[id, parent, op, name, start_ns, end_ns, warn_lo, warn_hi,
info]``; ``warn_lo:warn_hi`` indexes the warnings recorded while it was
open, and ``info`` holds what a derived metric needs (the field and phase
count of a solve, the horizon of a propagation).
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import warnings
from typing import Callable

ID, PARENT, OP, NAME, START, END, WLO, WHI, INFO = range(9)


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _field_and_count(args, kwargs, out):
    return {"field": _first(args, kwargs, "field"), "phases": len(out)}


def _steps(key):
    def info(args, kwargs, out):
        return {"T": args[2] if len(args) > 2 else kwargs[key]}
    return info


#: (module, attribute, span name or a function of the call's arguments,
#: info) of every traced public function
TARGETS = (
    ("qwtrap.spectral", "find_eigenphases", "spectral.find_eigenphases", _field_and_count),
    ("qwtrap.spectral", "build_eigenvector", "spectral.build_eigenvector", None),
    ("qwtrap.spectral", "eigen_residual", "spectral.eigen_residual", None),
    ("qwtrap.spectral", "limit_distribution", "spectral.limit_distribution", None),
    ("qwtrap.spectral", "is_strongly_trapped", "spectral.is_strongly_trapped", None),
    ("qwtrap.spectral", "trapped_mass", "spectral.trapped_mass", None),
    ("qwtrap.walk", "evolve", "walk.evolve", _steps("t")),
    ("qwtrap.walk", "time_averaged", "walk.time_averaged", _steps("horizon")),
    ("qwtrap.models", "model1", "models.report", None),
    ("qwtrap.models", "model2", "models.report", None),
    ("qwtrap.models", "model3", "models.report", None),
    ("qwtrap.models", "model4", "models.report", None),
    ("qwtrap.models", "model5", "models.report", None),
    ("qwtrap.verification", "run_all", "verification.run_all", None),
    ("qwtrap.algebra", "make_coin", "algebra.make_coin", None),
    ("qwtrap.cli", "run", lambda args: f"cli.run.{args[0][0]}", None),
)
#: traced methods: (module, class, method, span name)
METHOD_TARGETS = (("qwtrap.figures", "FigurePreset", "sweep", "figures.sweep"),)


class Tracer:
    """Records spans while installed; one thread, one open-span stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.warnings: list[warnings.WarningMessage] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list[Callable[[], None]] = []
        self._catch: warnings.catch_warnings | None = None
        self.enabled = False

    # ---------------------------------------------------------- recording
    def _open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None, self._op,
                name, 0, 0, len(self.warnings), 0, None]
        self.spans.append(span)
        self._stack.append(span[ID])
        span[START] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        span[WHI] = len(self.warnings)
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, info=None, op: bool = False, **kwargs):
        """Run ``fn`` inside a span; ``op=True`` marks the root span of one operation."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._open(name)
        if op:
            self._op = span[ID]
            span[OP] = span[ID]
        try:
            out = fn(*args, **kwargs)
        finally:
            self._close(span)
            if op:
                self._op = None
        if info is not None:
            span[INFO] = info(args, kwargs, out)
        return out

    def wrap(self, name, fn: Callable, info=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            return self.call(span, fn, *args, info=info, **kwargs)
        return traced

    # ------------------------------------------------------------ patching
    def install(self) -> None:
        """Wrap every binding of the traced functions and record warnings."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "qwtrap" or n.startswith("qwtrap.")]
        for home, attr, name, info in TARGETS:
            original = getattr(sys.modules[home], attr)
            wrapped = self.wrap(name, original, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch_attr(mod, key, original, wrapped)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch_item(value, k, original, wrapped)
        for home, cls_name, attr, name in METHOD_TARGETS:
            cls = getattr(sys.modules[home], cls_name)
            original = vars(cls)[attr]
            self._patch_attr(cls, attr, original, self.wrap(name, original))
        self._catch = warnings.catch_warnings(record=True)
        self.warnings = self._catch.__enter__()
        warnings.simplefilter("always")
        self.enabled = True

    def _patch_attr(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append(lambda: setattr(owner, attr, original))

    def _patch_item(self, mapping, key, original, wrapped) -> None:
        mapping[key] = wrapped
        self._restore.append(lambda: mapping.__setitem__(key, original))

    def uninstall(self) -> None:
        self.enabled = False
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()
        if self._catch is not None:
            self._catch.__exit__(None, None, None)
            self._catch = None

    @contextlib.contextmanager
    def paused(self):
        """Context in which calls run untraced (for the output checks)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -------------------------------------------------------------- output
    def write(self, path: str) -> None:
        """Spans as JSON lines; fields are written as their hash."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                info = s[INFO]
                if info and "field" in info:
                    info = dict(info, field=hash(info["field"]))
                fh.write(json.dumps({
                    "id": s[ID], "parent": s[PARENT], "op": s[OP], "name": s[NAME],
                    "start_ns": s[START], "end_ns": s[END], "warnings": s[WHI] - s[WLO],
                    "info": info,
                }) + "\n")


def duration(span) -> float:
    return (span[END] - span[START]) * 1e-9


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals derived from the recorded spans."""
    spans = tracer.spans
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(s)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def finished(name):  # spans whose call returned, so their info was taken
        return [s for s in by_name.get(name, ()) if s[INFO] is not None]

    def secs(name):
        return sum(duration(s) for s in by_name.get(name, ()))

    def self_time(names, child_prefixes):
        total = 0.0
        for s in (s for n in names for s in by_name.get(n, ())):
            covered = sum(duration(c) for c in children.get(s[ID], ())
                          if c[NAME].startswith(child_prefixes))
            total += duration(s) - covered
        return total

    m: dict[str, float] = {}
    for name in ("spectral.find_eigenphases", "spectral.build_eigenvector", "spectral.eigen_residual",
                 "walk.time_averaged", "walk.evolve", "models.report", "figures.sweep", "algebra.make_coin"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = secs(name)
    for name in ("spectral.limit_distribution", "spectral.is_strongly_trapped", "verification.run_all"):
        m[f"{name}.s"] = secs(name)

    solves = finished("spectral.find_eigenphases")
    m["spectral.phases_found"] = sum(s[INFO]["phases"] for s in solves)
    distinct = {(s[OP], s[INFO]["field"]) for s in solves}
    m["spectral.calls_per_field"] = len(solves) / len(distinct) if distinct else 0.0
    names = {s[ID]: s[NAME] for s in spans}
    m["spectral.runtime_warnings"] = sum(
        sum(issubclass(w.category, RuntimeWarning) for w in tracer.warnings[s[WLO]:s[WHI]])
        for s in spans
        if s[NAME].startswith("spectral.")
        and not (s[PARENT] is not None and names[s[PARENT]].startswith("spectral."))
    )
    walks = finished("walk.evolve") + finished("walk.time_averaged")
    m["walk.cone_sites"] = sum(s[INFO]["T"] ** 2 for s in walks)
    walk_s = secs("walk.evolve") + secs("walk.time_averaged")
    m["walk.ns_per_cone_site"] = walk_s * 1e9 / m["walk.cone_sites"] if m["walk.cone_sites"] else 0.0
    m["verification.self_s"] = self_time(["verification.run_all"], ("spectral.", "walk."))
    cli_runs = sorted(n for n in by_name if n.startswith("cli.run."))
    m["cli.self_s"] = self_time(cli_runs, ("",))
    for cmd in ("trap", "eigen", "limit", "simulate", "model", "figure"):
        m[f"cli.run.{cmd}.s"] = secs(f"cli.run.{cmd}")
    return m
