"""Out-of-program tracing of dagmix's layers for the traced benchmark run.

The tracer replaces module-level functions with thin wrappers and puts the
originals back on ``uninstall``.  Each function is patched at the binding
its caller looks up: ``engine`` imports ``observed_loglik`` and friends by
name, so those are patched in ``engine``, not in their defining modules.
Nothing is patched unless ``install`` is called, and the untraced run never
calls it.

A wrapped call records a span (name, start, end, parent span, operation
id); spans and counters stay in memory and are written once, at the end.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

# (module, attribute, metric name).  The metric name is the defining
# module's; the module is where the caller looks the function up.
SPANNED = (
    ("cli", "main", "cli.main"),
    ("cli", "load_csv", "cli.load_csv"),
    ("cli", "save_model", "cli.save_model"),
    ("cli", "fit", "engine.fit"),
    ("engine", "select_k", "engine.select_k"),
    ("engine", "fit", "engine.fit"),
    ("engine", "initialize", "engine.initialize"),
    ("engine", "run_em", "engine.run_em"),
    ("stats", "expected_stats", "stats.expected_stats"),
    ("engine", "observed_loglik", "scoring.observed_loglik"),
    ("engine", "map_parameters", "bayes.map_parameters"),
    ("engine", "search_all_components", "search.search_all_components"),
    ("engine", "complete_model_score", "scoring.complete_model_score"),
    ("engine", "completed_loglik", "scoring.completed_loglik"),
    ("search", "local_score", "bayes.local_score"),
    ("search", "neighbors", "search.neighbors"),
    ("harness", "match_components", "harness.match_components"),
    ("harness", "structural_difference", "search.structural_difference"),
)
# Called tens of thousands of times per recovery pass: counted, not spanned.
COUNTED = (("search", "to_cpdag", "search.to_cpdag"),)

PATCH_POINTS = tuple((m, a) for m, a, _ in SPANNED + COUNTED)

# Spanned functions whose spans can contain other spans get a self time.
WITH_CHILDREN = (
    "cli.main",
    "engine.select_k",
    "engine.fit",
    "engine.run_em",
    "search.search_all_components",
    "search.structural_difference",
    "harness.match_components",
)

COUNTERS = (
    ("engine.em_steps", "count"),
    ("engine.outer_iterations", "count"),
    ("search.moves_enumerated", "count"),
    ("search.arcs_changed", "count"),
    ("cli.bytes_read", "B"),
    ("cli.bytes_written", "B"),
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the top
    op: int  # operation id: position of the call in the workload's list


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def _arc_marks(parents) -> dict[tuple[int, int], int]:
    """Unordered node pair -> arc direction (+1 low->high, -1 high->low)."""
    marks = {}
    for child, ps in enumerate(parents):
        for p in ps:
            marks[(min(p, child), max(p, child))] = 1 if p < child else -1
    return marks


def arcs_changed(before, after) -> int:
    """Node pairs whose arc status (absent, one way, the other) differs."""
    a, b = _arc_marks(before), _arc_marks(after)
    return sum(a.get(pair) != b.get(pair) for pair in set(a) | set(b))


class Tracer:
    """Installs span-recording wrappers on the dagmix modules it is given."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name ("engine", ...) -> module object
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {name: 0 for name, _ in COUNTERS}
        self.counts.update({name: 0 for _, _, name in COUNTED})
        self.op = 0
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[str, object] = {}
        for module, attr, name in SPANNED:
            mod = self.modules[module]
            original = getattr(mod, attr)
            # cli.fit and engine.fit are one function: wrap it once.
            wrapper = wrappers.get(name)
            if wrapper is None or wrapper.__wrapped__ is not original:
                wrapper = self._spanned(name, original)
                wrappers[name] = wrapper
            self._saved.append((mod, attr, original))
            setattr(mod, attr, wrapper)
        for module, attr, name in COUNTED:
            mod = self.modules[module]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._counted(name, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _spanned(self, name, fn):
        spans, stack, opened = self.spans, self._stack, self._open
        after = self._after.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)  # placeholder keeps indices in call order
            stack.append(index)
            opened[name] = opened.get(name, 0) + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                opened[name] -= 1
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters read off arguments and results --------------------------

    def _after_run_em(self, args, kwargs, result):
        self.counts["engine.em_steps"] += len(result[1].logliks) - 1

    def _after_fit(self, args, kwargs, result):
        self.counts["engine.outer_iterations"] += len(result.trace)

    def _after_neighbors(self, args, kwargs, result):
        if self._open.get("search.search_all_components"):
            self.counts["search.moves_enumerated"] += len(result)

    def _after_search(self, args, kwargs, result):
        before = args[1] if len(args) > 1 else kwargs["structures"]
        for old, new in zip(before, result):
            self.counts["search.arcs_changed"] += arcs_changed(old.parents, new.parents)

    def _after_load_csv(self, args, kwargs, result):
        self.counts["cli.bytes_read"] += os.path.getsize(args[0])

    def _after_save_model(self, args, kwargs, result):
        self.counts["cli.bytes_written"] += os.path.getsize(args[0])

    _after = {
        "engine.run_em": _after_run_em,
        "engine.fit": _after_fit,
        "search.neighbors": _after_neighbors,
        "search.search_all_components": _after_search,
        "cli.load_csv": _after_load_csv,
        "cli.save_model": _after_save_model,
    }

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over everything recorded so far."""
        selfs = self_times(self.spans)
        names = sorted({name for _, _, name in SPANNED})
        out: dict[str, tuple[float, str]] = {}
        for name in names:
            out[f"{name}.calls"] = (0, "count")
            out[f"{name}.s"] = (0.0, "s")
            if name in WITH_CHILDREN:
                out[f"{name}.self_s"] = (0.0, "s")
        for prefix in ("em", "ec"):
            out[f"stats.expected_stats.{prefix}_calls"] = (0, "count")
            out[f"stats.expected_stats.{prefix}_s"] = (0.0, "s")

        def add(key, value):
            total, unit = out[key]
            out[key] = (total + value, unit)

        for span, own in zip(self.spans, selfs):
            duration = span.end - span.start
            add(f"{span.name}.calls", 1)
            add(f"{span.name}.s", duration)
            if span.name in WITH_CHILDREN:
                add(f"{span.name}.self_s", own)
            if span.name == "stats.expected_stats" and span.parent is not None:
                # Inside run_em it is an EM step's E sweep; directly under
                # fit it is the post-burst Ec pass that feeds search.
                caller = self.spans[span.parent].name
                prefix = {"engine.run_em": "em", "engine.fit": "ec"}.get(caller)
                if prefix is not None:
                    add(f"stats.expected_stats.{prefix}_calls", 1)
                    add(f"stats.expected_stats.{prefix}_s", duration)
        units = dict(COUNTERS)
        for name, value in self.counts.items():
            out[name if name in units else f"{name}.calls"] = (
                value,
                units.get(name, "count"),
            )
        enumerated = self.counts["search.moves_enumerated"]
        out["search.move_yield"] = (
            self.counts["search.arcs_changed"] / enumerated if enumerated else 0.0,
            "ratio",
        )
        return out

    def write(self, path: str) -> None:
        """Write every span and counter as JSON lines."""
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (s, own) in enumerate(zip(self.spans, selfs)):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "op": s.op,
                            "self_s": own,
                        }
                    )
                    + "\n"
                )
            fh.write(json.dumps({"counts": self.counts}) + "\n")
