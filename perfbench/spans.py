"""Spans for the traced benchmark run, and the per-layer metrics made from them.

The tracer wraps the package's public entry points where the planner and the
CLI look them up (module attributes of ``krigplan.adaptive``, ``krigplan.cli``
and ``krigplan.experiment_io``), plus two ``KrigingSystem`` methods and the
benchmark's own oracle instance.  Nothing inside the package changes and no
private name is wrapped, so refactors behind these entry points keep their
metric names.  Every call becomes one span: name, start, end, parent span and
the task (campaign or report call) it belongs to.  Spans stay in memory and
are reduced to metrics when the run ends.
"""
from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import krigplan.adaptive as adaptive
import krigplan.cli as cli
import krigplan.experiment_io as eio
from krigplan.kriging import KrigingSystem
from krigplan.variogram import FAMILIES

# Every per-layer metric the traced run prints, in BENCHMARK.json order.
# "*.ms" is self time summed over one task; counts marked computed in
# README.md come from array sizes, not from timers.
PER_LAYER = (
    ("variogram.empirical.calls", "count"),
    ("variogram.empirical.ms", "ms"),
    ("variogram.pairs", "count"),
    ("variogram.select.calls", "count"),
    ("variogram.select.ms", "ms"),
    ("variogram.family_fits", "count"),
    ("variogram.family_changes", "count"),
    ("grid.build_grid.calls", "count"),
    ("grid.build_grid.ms", "ms"),
    ("kriging.assemble.calls", "count"),
    ("kriging.assemble.ms", "ms"),
    ("kriging.condition.ms", "ms"),
    ("kriging.lu.ms", "ms"),
    ("kriging.solve_grid.calls", "count"),
    ("kriging.solve_grid.ms", "ms"),
    ("kriging.solve_grid.targets", "count"),
    ("kriging.solve_grid.bytes", "bytes"),
    ("kriging.predict_grid.ms", "ms"),
    ("kriging.predict_grid.cells", "count"),
    ("adaptive.self.ms", "ms"),
    ("adaptive.candidates", "count"),
    ("adaptive.uncertain", "count"),
    ("adaptive.useful_fraction", "ratio"),
    ("adaptive.pair_bytes", "bytes"),
    ("adaptive.boundary_pick_fraction", "ratio"),
    ("oracle.evaluate.calls", "count"),
    ("oracle.evaluate.ms", "ms"),
    ("region.classify.ms", "ms"),
    ("region.largest_region.ms", "ms"),
    ("region.contour.ms", "ms"),
    ("region.contour_vertices", "count"),
    ("region.region_cells", "count"),
    ("experiment_io.load_state.ms", "ms"),
    ("experiment_io.save_state.calls", "count"),
    ("experiment_io.save_state.ms", "ms"),
    ("experiment_io.format.ms", "ms"),
    ("experiment_io.write.calls", "count"),
    ("experiment_io.write.ms", "ms"),
    ("experiment_io.artifact_bytes", "bytes"),
    ("cli.self.ms", "ms"),
    ("trace_overhead", "ratio"),
)

# Self-time metrics that sum more than one span name.
_SELF_TIME = {
    "adaptive.self.ms": ("adaptive.run_experiment", "adaptive.iteration"),
    "cli.self.ms": ("cli.main",),
}

_FORMATTERS = ("predictions_csv_text", "labels_csv_text", "region_json_text",
               "contour_csv_text", "audit_log_text", "measurements_csv_text")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    task: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans; ``task`` groups them per campaign or call."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._task: int | None = None
        self._tasks = 0

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self._task))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        """Close span ``index`` and any span still open inside it."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top].end = now
            if top == index:
                return

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                self.spans[index].counts.update(count(result, *args, **kwargs))
            return result
        return traced

    @contextmanager
    def task(self, name: str):
        """One campaign or report call; its spans form one sample."""
        self._task = self._tasks
        self._tasks += 1
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)
            self._task = None

    def next_iteration(self) -> None:
        """Called from ``on_update``: the planner finished one interval.

        Closes the running ``adaptive.iteration`` span and opens the next, so
        the calls made between two callbacks become its children.
        """
        if self._stack and self.spans[self._stack[-1]].name == "adaptive.iteration":
            self.end(self._stack[-1])
        self.begin("adaptive.iteration")

    def task_ids(self) -> list[int]:
        return sorted({s.task for s in self.spans if s.task is not None})


def _pairs(result, measurements, *args, **kwargs):
    n = len(measurements)
    return {"variogram.pairs": n * (n - 1) // 2}


def _fits(result, empirical, *args, **kwargs):
    # select_model fits every family unless it falls back (fewer than 3 bins).
    return {"variogram.family_fits": len(FAMILIES) if empirical.n_bins >= 3 else 0,
            "family": result.family}


def _solve_size(result, system, targets, *args, **kwargs):
    p = len(result.targets)
    return {"kriging.solve_grid.targets": p,
            "kriging.solve_grid.bytes": 2 * (system.n + 1) * p * 8}


def _cells(result, *args, **kwargs):
    return {"kriging.predict_grid.cells": len(result)}


def _vertices(result, *args, **kwargs):
    return {"region.contour_vertices": sum(len(line) for line in result)}


def _written(result, path, text, *args, **kwargs):
    return {"experiment_io.artifact_bytes": len(text.encode())}


@contextmanager
def installed(tracer: Tracer, oracle=None):
    """Wrap the traced entry points for the duration of the block."""
    patches = [
        (adaptive, "empirical_variogram", "variogram.empirical", _pairs),
        (adaptive, "select_model", "variogram.select", _fits),
        (adaptive, "build_grid", "grid.build_grid", None),
        (adaptive, "assemble_system", "kriging.assemble", None),
        (adaptive, "solve_grid", "kriging.solve_grid", _solve_size),
        (cli, "empirical_variogram", "variogram.empirical", _pairs),
        (cli, "select_model", "variogram.select", _fits),
        (cli, "build_grid", "grid.build_grid", None),
        (cli, "predict_grid", "kriging.predict_grid", _cells),
        (cli, "classify_grid", "region.classify", None),
        (cli, "largest_reliable_region", "region.largest_region", None),
        (cli, "threshold_contour", "region.contour", _vertices),
        (cli, "run_experiment", "adaptive.run_experiment", None),
        (eio, "load_state", "experiment_io.load_state", None),
        (eio, "save_state", "experiment_io.save_state", None),
        (eio, "atomic_write_text", "experiment_io.write", _written),
        (KrigingSystem, "lu", "kriging.lu", None),
        (KrigingSystem, "condition_estimate", "kriging.condition", None),
    ] + [(eio, name, "experiment_io.format", None) for name in _FORMATTERS]
    saved = []
    try:
        for owner, attr, name, count in patches:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, count))
        if oracle is not None:
            # The oracle is a frozen dataclass; an instance attribute shadows
            # its method without touching the class.
            object.__setattr__(oracle, "evaluate", tracer.wrap(oracle.evaluate, "oracle.evaluate"))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        if oracle is not None and "evaluate" in vars(oracle):
            object.__delattr__(oracle, "evaluate")


def task_profile(tracer: Tracer, task: int) -> tuple[dict, dict, list]:
    """(self-time ms by metric, summed counts, selected families) for one task."""
    spans = {i: s for i, s in enumerate(tracer.spans) if s.task == task}
    covered = dict.fromkeys(spans, 0.0)
    for s in spans.values():
        if s.parent in covered:
            covered[s.parent] += s.end - s.start
    self_ms: dict[str, float] = {}
    counts: dict[str, int] = {}
    families = []
    for i, s in spans.items():
        self_ms[s.name + ".ms"] = self_ms.get(s.name + ".ms", 0.0) + 1000.0 * (s.end - s.start - covered[i])
        counts[s.name + ".calls"] = counts.get(s.name + ".calls", 0) + 1
        for key, value in s.counts.items():
            if key == "family":
                families.append(value)
            else:
                counts[key] = counts.get(key, 0) + value
    for metric, names in _SELF_TIME.items():
        self_ms[metric] = sum(self_ms.pop(name + ".ms", 0.0) for name in names)
    counts["variogram.family_changes"] = sum(a != b for a, b in zip(families, families[1:]))
    return self_ms, counts, families


def per_layer(tracer: Tracer) -> tuple[dict, dict, list, bool]:
    """Per-layer values over all traced tasks.

    Times are medians over tasks.  Counts come from the first task, and the
    last element says whether every task gave the same counts and families.
    """
    profiles = [task_profile(tracer, t) for t in tracer.task_ids()]
    times = {}
    for key in {k for p in profiles for k in p[0]}:
        times[key] = statistics.median(p[0].get(key, 0.0) for p in profiles)
    _, counts, families = profiles[0]
    same = all(p[1] == counts and p[2] == families for p in profiles)
    return times, counts, families, same
