"""The three workloads: inputs from the seed, the timed loop, output checks.

study_run and large_grid run campaigns back to back through the public API
(``run_experiment``); report_large calls ``krigplan report`` in-process
through ``krigplan.cli.main`` on an experiment file that set-up produced with
``krigplan init`` and ``krigplan run``, also in-process.  Every input is built
from the workload's config and the seed.  The checks are written here, against the
synthetic surface's closed-form boundary, and import nothing from the tests.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
import statistics
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from krigplan import (
    STOP_BUDGET,
    ExperimentConfig,
    GridSpec,
    assemble_system,
    build_grid,
    build_oracle,
    classify_grid,
    empirical_variogram,
    evenly_spaced_design,
    largest_reliable_region,
    predict_grid,
    run_experiment,
    select_model,
    solve_grid,
)
from krigplan.cli import main as cli_main
from krigplan.experiment_io import audit_log_text, load_state
from krigplan.grid import Measurement

import spans

THRESHOLD = 4.0
ALPHA = 0.1
NOISE_STD = math.sqrt(0.025)
# An adaptive pick is "near" the boundary within this scaled distance, and
# criterion 6 of the acceptance suite wants at least this share of them near.
NEAR_BOUNDARY = 2.0
MIN_NEAR_FRACTION = 0.6

STUDY_GRID = {"m_min": 0.5, "m_max": 6.0, "m_stride": 0.5,
              "k_min": 1.0, "k_max": 60.0, "k_stride": 1.0, "k_scale": 0.1}
LARGE_GRID = {"m_min": 0.5, "m_max": 6.0, "m_stride": 0.1,
              "k_min": 1.0, "k_max": 100.0, "k_stride": 1.0, "k_scale": 0.1}

# workload -> (grid, initial lattice, adaptive iterations, measurements at the
# budget stop).  report_large's experiment starts from an 8x10 design: after
# large_grid's 3x4 design and eight iterations the reliable region holds
# anywhere from 6 to 2,461 cells depending on the seed, and a report's cost
# follows it.  From 8x10 it holds 2,700-2,850 cells on every seed tried.  Its
# run has no adaptive iterations: one iteration on this grid scores about
# 5,520^2 candidate/target pairs and peaks near 1.3 GB, which a report never
# needs; without it a set-up takes well under a second and stays in-process.
WORKLOADS = {
    "study_run": (STUDY_GRID, (3, 4), 50, 62),
    "large_grid": (LARGE_GRID, (3, 4), 8, 20),
    "report_large": (LARGE_GRID, (8, 10), 0, 80),
}

# Set-up is repeated and its median reported.  A planning set-up takes tens
# of milliseconds and the machine's speed can swing for seconds at a time, so
# it runs five times before every campaign, spread over the whole run.
# report_large sets up before its first report call and again before every
# tenth, so its set-ups are spread over the run too.
PLAN_SETUPS = 5
CALLS_PER_SETUP = 10
ARTIFACTS = ("predictions.csv", "labels.csv", "region.json", "contour.csv",
             "audit.ndjson", "measurements.csv")


@dataclass
class Outcome:
    """What one benchmark run measured, and which operations failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    task_s: list[float] = field(default_factory=list)
    wait_ms: list[float] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    tracer: spans.Tracer | None = None

    def record(self, ok: bool, problem: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok


def config_dict(workload: str, seed: int) -> dict:
    """The workload's config, as the CLI reads it; the API path parses the same dict."""
    grid, lattice, iterations, _ = WORKLOADS[workload]
    return {
        "name": "bench",
        "grid": dict(grid),
        "threshold": THRESHOLD,
        "alpha": ALPHA,
        "max_iterations": iterations,
        "seed": seed,
        "initial_design": {"lattice": list(lattice)},
        "oracle": {"kind": "synthetic_logistic", "noise_std": NOISE_STD, "seed": seed},
    }


def api_inputs(cfg: dict):
    grid = GridSpec(**cfg["grid"])
    config = ExperimentConfig(
        grid=grid,
        threshold=cfg["threshold"],
        initial_design=tuple(evenly_spaced_design(grid, *cfg["initial_design"]["lattice"])),
        alpha=cfg["alpha"],
        max_iterations=cfg["max_iterations"],
        seed=cfg["seed"],
    )
    return config, build_oracle(cfg["oracle"], grid)


# --- checks against the closed-form surface ---------------------------------

def _true_mean(oracle, m: float, k: float) -> float:
    return oracle.floor + oracle.amplitude / (1.0 + math.exp(oracle.steepness * (k - oracle.boundary_ratio * m)))


def boundary_pick_fraction(state, oracle) -> float:
    """Share of adaptive picks within NEAR_BOUNDARY of the true threshold curve."""
    grid = state.config.grid
    offset = math.log(oracle.amplitude / (THRESHOLD - oracle.floor) - 1.0) / oracle.steepness
    m = np.linspace(grid.m_min, grid.m_max, 600)
    curve = np.column_stack([m, (oracle.boundary_ratio * m + offset) * grid.k_scale])
    near = sum(
        float(np.min(np.hypot(curve[:, 0] - r.location.m, curve[:, 1] - r.location.k * grid.k_scale)))
        <= NEAR_BOUNDARY
        for r in state.history
    )
    return near / len(state.history)


def reliable_region(state):
    grid = state.config.grid
    preds = predict_grid(state.measurements, state.model, grid, build_grid(grid), alpha=state.config.alpha)
    labels = classify_grid(preds, state.measurements, state.config.threshold)
    return largest_reliable_region(labels, state.measurements, state.config.threshold)


def adaptive_counts(state) -> dict:
    """Candidates and uncertain cells summed over the adaptive iterations."""
    size = state.config.grid.m_count * state.config.grid.k_count
    order = {m.location: i for i, m in enumerate(state.measurements)}
    candidates = [size - order[rec.location] for rec in state.history]
    uncertain = sum(rec.n_uncertain for rec in state.history)
    return {
        "adaptive.candidates": sum(candidates),
        "adaptive.uncertain": uncertain,
        "adaptive.useful_fraction": uncertain / sum(candidates) if candidates else 0.0,
        "adaptive.pair_bytes": sum(8 * c * c for c in candidates),
    }


def check_stop(state, expected: int) -> str:
    if state.stop_reason != STOP_BUDGET or len(state.measurements) != expected:
        return (f"stopped {state.stop_reason!r} with {len(state.measurements)} measurements; "
                f"expected a budget stop with {expected}")
    return ""


def check_study(state, oracle, region) -> list[str]:
    """Criterion 6 on the first campaign: a sound region, picks near the boundary."""
    problems = []
    if region.cell_count == 0:
        problems.append("the reliable region is empty")
    above = [c for c in region.cells if _true_mean(oracle, c.m, c.k) > THRESHOLD + 1e-9]
    if above:
        problems.append(f"{len(above)} region cells lie above the true boundary, e.g. {above[0]}")
    fraction = boundary_pick_fraction(state, oracle)
    if fraction < MIN_NEAR_FRACTION:
        problems.append(f"only {fraction:.3f} of picks are near the boundary")
    return problems


# --- planning workloads (study_run, large_grid) -----------------------------

def prepare_campaign(cfg: dict):
    """Set-up: inputs, grid, initial design, first fit and first grid solve.

    This is everything a campaign needs before its first adaptive pick, so
    work a change moves out of the loop and into per-config set-up shows here.
    """
    config, oracle = api_inputs(cfg)
    grid = build_grid(config.grid)
    measurements = [Measurement(p, oracle.evaluate(p)) for p in config.initial_design]
    model = select_model(empirical_variogram(measurements, config.grid))
    solve_grid(assemble_system(measurements, model, config.grid), grid)
    return config, oracle


def repeat(seconds: float, task) -> None:
    """Call ``task()`` until ``seconds`` have passed, at least once; stop when it returns False."""
    start = time.perf_counter()
    while task() and time.perf_counter() - start < seconds:
        pass


def measure(seconds: float, traced: bool, out: Outcome, task, oracle=None) -> None:
    """Repeat ``task(times, tracer)``, which appends its duration to ``times``.

    A traced run alternates an untraced and a traced task, so both halves see
    the same machine, and reports their ratio as ``trace_overhead``.
    """
    if not traced:
        repeat(seconds, lambda: task(out.task_s))
        return
    out.tracer = spans.Tracer()
    untraced, with_spans = [], []

    def pair() -> bool:
        if not task(untraced):
            return False
        with spans.installed(out.tracer, oracle):
            return task(with_spans, out.tracer)

    repeat(seconds, pair)
    if not out.failed:
        out.counts["trace_overhead"] = statistics.median(with_spans) / statistics.median(untraced)


def plan_workload(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    cfg = config_dict(workload, seed)
    expected = WORKLOADS[workload][3]
    # One config and oracle serve every campaign, so a traced run can wrap
    # the oracle instance once.
    config, oracle = api_inputs(cfg)
    reference = {}

    def setups() -> bool:
        for _ in range(PLAN_SETUPS):
            t0 = time.perf_counter()
            try:
                built, _ = prepare_campaign(cfg)
            except Exception:
                return out.record(False, "set-up raised:\n" + traceback.format_exc())
            out.setup_s.append(time.perf_counter() - t0)
            if not out.record(built == config, "set-up built a different config from the same seed"):
                return False
        return True

    def campaign(times: list, tracer=None) -> bool:
        if not setups():
            return False
        marks = []

        def on_update(state):
            marks.append((time.perf_counter(), state.iteration))
            if tracer is not None:
                tracer.next_iteration()

        t0 = time.perf_counter()
        try:
            with tracer.task("adaptive.run_experiment") if tracer else nullcontext():
                state = run_experiment(config, oracle, on_update=on_update)
        except Exception:
            return out.record(False, "campaign raised:\n" + traceback.format_exc())
        times.append(time.perf_counter() - t0)
        # The wait for one adaptive pick: the time between the callback before
        # it and the callback that reports it.
        out.wait_ms.extend(1000.0 * (t1 - t0) for (t0, i0), (t1, i1) in zip(marks, marks[1:]) if i1 > i0)

        audit = audit_log_text(state.history)
        if not reference:
            region = reliable_region(state)
            problems = [p for p in [check_stop(state, expected)] if p]
            if workload == "study_run":
                problems += check_study(state, oracle, region)
            reference.update(audit=audit, state=state, region=region, problems=problems)
        problems = list(reference["problems"])
        if audit != reference["audit"]:
            problems.append("campaign history differs from the first campaign of the run")
        return out.record(not problems, "; ".join(problems))

    measure(seconds, traced, out, campaign, oracle)
    if not out.failed:
        state = reference["state"]
        out.counts["adaptive.boundary_pick_fraction"] = boundary_pick_fraction(state, oracle)
        out.counts["region.region_cells"] = reference["region"].cell_count
        out.counts.update(adaptive_counts(state))
    return out


# --- report_large -----------------------------------------------------------

def _cli(argv: list[str]) -> str:
    """Run one krigplan command in-process; return "" or why it failed (a raise or a non-zero exit)."""
    buf = io.StringIO()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            code = cli_main(argv)
    except Exception:
        return f"krigplan {argv[0]} raised:\n" + traceback.format_exc()
    return f"krigplan {argv[0]} exited {code}: {buf.getvalue().strip()[-500:]}" if code else ""


def _digest(directory: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0" + (directory / name).read_bytes() + b"\0")
    return h.hexdigest()


def prepare_report(cfg: dict, workroot: Path, out: Outcome) -> Path | None:
    """Set-up: ``krigplan init`` and ``krigplan run`` in a fresh directory."""
    work = Path(tempfile.mkdtemp(prefix="report-", dir=workroot))
    config_path = work / "config.json"
    t0 = time.perf_counter()
    config_path.write_text(json.dumps(cfg, indent=2) + "\n")
    experiment = work / f"{cfg['name']}.json"
    problem = _cli(["init", "--config", str(config_path)]) or _cli(["run", str(experiment)])
    out.setup_s.append(time.perf_counter() - t0)
    return experiment if out.record(not problem, problem) else None


def report_workload(seed: int, seconds: float, traced: bool, workroot: Path) -> Outcome:
    out = Outcome()
    cfg = config_dict("report_large", seed)
    first = prepare_report(cfg, workroot, out)
    if first is None:
        return out
    names = [first.name, *ARTIFACTS]
    state, _ = load_state(first)
    problems = [p for p in [check_stop(state, WORKLOADS["report_large"][3])] if p]
    if state.config != api_inputs(cfg)[0]:
        problems.append("the CLI built a different config from the one the API builds")
    if not out.record(not problems, "; ".join(problems)):
        return out

    reference = _digest(first.parent, names)
    argv = ["report", str(first)]

    def set_up_again() -> bool:
        again = prepare_report(cfg, workroot, out)
        if again is None:
            return False
        same = _digest(again.parent, names) == reference
        shutil.rmtree(again.parent)
        return out.record(same, "a repeated set-up wrote different experiment files or artifacts")

    def call(times: list, tracer=None) -> bool:
        if out.wait_ms and len(out.wait_ms) % CALLS_PER_SETUP == 0 and not set_up_again():
            return False
        t0 = time.perf_counter()
        with tracer.task("cli.main") if tracer else nullcontext():
            problem = _cli(argv)
        times.append(time.perf_counter() - t0)
        out.wait_ms.append(1000.0 * times[-1])
        if problem:
            return out.record(False, problem)
        return out.record(_digest(first.parent, names) == reference,
                          "krigplan report wrote different artifacts from the first call")

    measure(seconds, traced, out, call)
    out.counts["region.region_cells"] = json.loads((first.parent / "region.json").read_text())["cell_count"]
    return out
