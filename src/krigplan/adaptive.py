"""Sequential measurement planning.

Each iteration refits the variogram, kriges the whole grid, and scores
every unmeasured combination by the total uncertainty that would remain
if it were measured next: the sum, over grid points whose confidence
interval still straddles the threshold, of the hypothetical kriging
variance conditional on the augmented measurement set (variogram held
fixed).  The candidate minimizing that remaining-uncertainty score is
measured next.  The run stops naturally once no interval straddles the
threshold, or on budget after max_iterations adaptive measurements.

suggest_next is one planner step: fit, evaluate the grid once, apply the
stop rule, pick the argmin.  run_experiment is the interactive step/append
loop with the oracle in the middle, so batch and interactive runs share one
code path and an oracle miss on any point resumes with an append.  The
read-only views (select_next, check_stop, candidate_scores, rc_score) share
the same grid evaluation.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DuplicateLocationError, OracleMissError
from .grid import (
    Combination,
    GridSpec,
    Measurement,
    ensure_unique_locations,
    offset_distances,
)
from .kriging import assemble_system, confidence_bounds, solve_grid, solve_lattice, z_quantile
from .variogram import VariogramModel, empirical_variogram, eval_model, select_model

# Not called here, but the benchmark's tracer (perfbench/spans.py) wraps
# this name on this module, so it must stay importable from it.
from .grid import build_grid  # noqa: F401

STOP_NATURAL = "natural"
STOP_BUDGET = "budget"

# Candidates whose scores differ by less than this are tied; the earliest in
# row-major grid order wins.  Keeps the argmin stable under float noise.
TIE_TOL = 1e-12

# Below this current variance the rank-one update divides by almost zero;
# such candidates are rescored by full re-assembly instead.
FAST_PATH_VARIANCE_MIN = 1e-10

# Candidate/target entries per scoring block (float64, 512 KB).  Bounds the
# scoring's working memory whatever the grid and uncertain-set sizes, and
# keeps each block's temporaries in cache: on the 5,600-cell grid, on a
# 2-core x86-64 host with single-threaded OpenBLAS, 2**16 scored about twice
# as fast as 2**20.
_SCORE_BLOCK_ELEMENTS = 2 ** 16

# Each BLAS product in the scoring covers this many candidate rows, at fixed
# offsets, and a block is a whole number of such runs.  BLAS rounds a row
# differently depending on the shape of the call it sits in, so fixed runs
# keep the scores bit-identical whatever the block size.
_BLAS_ROWS = 16

# Threads that score candidate blocks: the CPUs this process may run on.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

# An iteration with fewer than this many scoring blocks per worker is scored
# in the calling thread.  On a 2-core x86-64 host with single-threaded
# OpenBLAS, pooling every iteration gained nothing on the 720-cell study
# grid (1-7 blocks per iteration; run_s +4% in the median of five
# alternating benchmark pairs, peak RSS +3 MB), while the 5,600-cell grid
# (20-350 blocks) ran about 30% faster.
_POOL_BLOCKS_PER_WORKER = 4

_pool: tuple[int, ThreadPoolExecutor] | None = None  # (pid that started it, pool)
_pool_lock = threading.Lock()


@dataclass(frozen=True)
class ExperimentConfig:
    grid: GridSpec
    threshold: float
    initial_design: tuple[Combination, ...]
    alpha: float = 0.1
    max_iterations: int = 50
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.threshold) or self.threshold <= 0:
            raise ConfigurationError(f"threshold must be positive, got {self.threshold}")
        if not 0 < self.alpha < 1:
            raise ConfigurationError(f"alpha must be in (0, 1), got {self.alpha}")
        z_quantile(self.alpha)
        if self.max_iterations < 0:
            raise ConfigurationError(f"max_iterations must be >= 0, got {self.max_iterations}")
        object.__setattr__(self, "initial_design", tuple(self.initial_design))
        seen = set()
        for c in self.initial_design:
            if not self.grid.contains(c):
                raise ConfigurationError(f"initial design point ({c.m}, {c.k}) is not on the grid")
            if c in seen:
                raise DuplicateLocationError(f"duplicate initial design point ({c.m}, {c.k})")
            seen.add(c)


@dataclass(frozen=True)
class IterationRecord:
    """Audit record for one adopted measurement."""

    iteration: int
    location: Combination
    rc_score: float
    model: VariogramModel
    n_uncertain: int


@dataclass(frozen=True)
class PendingSuggestion:
    """A suggestion produced by one fit+selection step, awaiting its measurement."""

    location: Combination
    phase: str  # "initial" or "adaptive"
    rc_score: float | None = None
    model: VariogramModel | None = None
    n_uncertain: int | None = None


@dataclass
class ExperimentState:
    config: ExperimentConfig
    measurements: list[Measurement] = field(default_factory=list)
    model: VariogramModel | None = None
    iteration: int = 0
    history: list[IterationRecord] = field(default_factory=list)
    stop_reason: str | None = None
    pending: PendingSuggestion | None = None

    def __post_init__(self):
        ensure_unique_locations(self.measurements)
        if self.iteration < 0 or len(self.history) != self.iteration:
            raise ConfigurationError(
                f"history length {len(self.history)} does not match iteration {self.iteration}"
            )

    def measured_locations(self) -> set[Combination]:
        return {m.location for m in self.measurements}


def _straddles(lower, upper, threshold: float):
    """The straddle rule of weight_indicator, elementwise on arrays."""
    return np.logical_not((lower > threshold) | (upper <= threshold))


def weight_indicator(prediction, threshold: float) -> int:
    """1 while the CI straddles the threshold, 0 once it falls entirely on
    one side (an upper bound exactly at the threshold counts as below)."""
    return int(_straddles(prediction.ci_lower, prediction.ci_upper, threshold))


def _fit(state: ExperimentState) -> VariogramModel:
    return select_model(empirical_variogram(state.measurements, state.config.grid))


@dataclass
class _Evaluation:
    """One fit's view of the grid: the lattice solve (columns indexed by flat
    grid index) plus the straddle indicators of the unmeasured points."""

    model: VariogramModel
    spec: GridSpec
    variances: np.ndarray  # (P,)
    rhs: np.ndarray        # (n+1, P)
    solution: np.ndarray   # (n+1, P)
    unmeasured_idx: np.ndarray
    indicators: np.ndarray  # bool, aligned with unmeasured_idx

    @property
    def n_uncertain(self) -> int:
        return int(self.indicators.sum())

    def candidate(self, pos: int) -> Combination:
        return self.spec.point(int(self.unmeasured_idx[pos]))


def _evaluate(state: ExperimentState, model: VariogramModel) -> _Evaluation:
    spec = state.config.grid
    means, variances, rhs, solution, measured = solve_lattice(
        assemble_system(state.measurements, model, spec))
    unmeasured_idx = np.setdiff1d(np.arange(spec.point_count), measured)
    lower, upper = confidence_bounds(means[unmeasured_idx], variances[unmeasured_idx],
                                     z_quantile(state.config.alpha))
    indicators = _straddles(lower, upper, state.config.threshold)
    return _Evaluation(model, spec, variances, rhs, solution, unmeasured_idx, indicators)


def _current_evaluation(state: ExperimentState) -> _Evaluation:
    """The evaluation under the state's model (fitted if it has none yet),
    for the read-only views."""
    return _evaluate(state, state.model if state.model is not None else _fit(state))


def _stop_reason(state: ExperimentState, ev: _Evaluation) -> str | None:
    """STOP_NATURAL once nothing unmeasured straddles the threshold (checked
    first), STOP_BUDGET once the adaptive budget is spent, else None."""
    if ev.n_uncertain == 0:
        return STOP_NATURAL
    if state.iteration >= state.config.max_iterations:
        return STOP_BUDGET
    return None


def _fast_scores(state: ExperimentState, ev: _Evaluation, indicators: np.ndarray) -> np.ndarray:
    """Scores for every unmeasured candidate via the bordered-system identity.

    Appending candidate x to the measurement set extends the solved system by
    one row whose border column is exactly the right-hand side of x under the
    current system.  Block elimination then gives the conditional variance at
    target t in closed form:

        var(t | S + x) = var(t | S) - (q - g)^2 / var(x | S)

    with q the cross-solve term rhs(x) . solve(rhs(t)) and g = gamma(x, t).
    Everything needed is already in the batch grid solution.  Only the
    flagged targets carry weight, so q, g and the updated variances are built
    for those U columns alone, and the P candidates are walked in row blocks
    of about _SCORE_BLOCK_ELEMENTS entries each: the working memory is
    bounded by the block, not by P^2.  Each block writes only its own slice
    of the scores, so the blocks run on the scoring pool (_run_blocks) when
    there are enough of them.  Candidates with vanishing current
    variance fall back to full re-assembly (rc_score).  A degenerate model
    leaves no variance to reduce, so every score is zero.

    Candidates and targets are lattice nodes, so g depends only on their
    index offset: gamma is evaluated once per call over offset_distances,
    and each block gathers g from that table at center - pos(x) + pos(t),
    pos being a node's flat index in the table.
    """
    idx = ev.unmeasured_idx
    if ev.model.is_degenerate or len(idx) == 0:
        return np.zeros(len(idx))
    variances = ev.variances[idx]
    cols = np.flatnonzero(indicators)
    XT = ev.solution[:, idx].T
    D = ev.rhs[:, idx[cols]]
    spec = ev.spec
    gamma = eval_model(ev.model, offset_distances(spec)).ravel()
    width = 2 * spec.k_count - 1
    row, col = np.divmod(idx, spec.k_count)
    pos = row * width + col
    offsets = (spec.m_count - 1) * width + (spec.k_count - 1) - pos
    target_pos = pos[cols]
    target_var = variances[cols]
    ones = np.ones(len(cols))

    safe = variances >= FAST_PATH_VARIANCE_MIN
    denom = np.where(safe, variances, 1.0)
    scores = np.empty(len(idx))
    rows = _BLAS_ROWS * max(1, _SCORE_BLOCK_ELEMENTS // max(1, len(cols)) // _BLAS_ROWS)

    def _score_blocks(starts):
        for start in starts:
            block = slice(start, start + rows)
            # (row, column) of each candidate in this block that is also a target
            self_rows = np.flatnonzero(indicators[block])
            self_cols = np.searchsorted(cols, start + self_rows)

            g = np.take(gamma, offsets[block, None] + target_pos)
            updated = _row_runs_product(XT[block], D, np.empty_like(g))
            updated -= g
            updated **= 2
            updated /= denom[block, None]
            np.subtract(target_var, updated, out=updated)
            np.maximum(updated, 0.0, out=updated)
            updated[self_rows, self_cols] = 0.0  # the candidate itself is not a target
            _row_runs_product(updated, ones, scores[block])

    _run_blocks(_score_blocks, range(0, len(idx), rows))
    for pos in np.nonzero(~safe)[0]:
        scores[pos] = _score_by_reassembly(state, ev, indicators, int(pos))
    return scores


def _run_blocks(kernel, starts: range) -> None:
    """kernel(starts), split across the scoring pool when there are enough blocks.

    Worker i gets every _WORKERS-th start from the i-th.  A block's arithmetic
    does not depend on the thread that runs it, so neither do the scores.
    Returns once every share has finished; a share's exception is re-raised
    then, so no worker is still writing after a failure.
    """
    workers = _WORKERS
    if workers < 2 or len(starts) < _POOL_BLOCKS_PER_WORKER * workers:
        kernel(starts)
        return
    pool = _scoring_pool()
    futures = [pool.submit(kernel, starts[i::workers]) for i in range(workers)]
    wait(futures)
    for future in futures:
        future.result()


def _scoring_pool() -> ThreadPoolExecutor:
    """The process's scoring pool, started on first use.  A forked child
    starts its own: the parent's threads do not exist there."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            _pool = (os.getpid(), ThreadPoolExecutor(_WORKERS, thread_name_prefix="krigplan-score"))
        return _pool[1]


def _row_runs_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = a @ b, one BLAS call per run of _BLAS_ROWS rows of a."""
    for r in range(0, len(a), _BLAS_ROWS):
        np.matmul(a[r:r + _BLAS_ROWS], b, out=out[r:r + _BLAS_ROWS])
    return out


def _score_by_reassembly(state: ExperimentState, ev: _Evaluation,
                         indicators: np.ndarray, pos: int) -> float:
    """Reference score: rebuild the augmented system and solve it afresh."""
    idx = ev.unmeasured_idx
    target_pos = [p for p in range(len(idx)) if p != pos and indicators[p]]
    if not target_pos:
        return 0.0
    targets = [ev.candidate(p) for p in target_pos]
    hyp = list(state.measurements) + [Measurement(ev.candidate(pos), 0.0)]
    hyp_system = assemble_system(hyp, ev.model, state.config.grid)
    hyp_sol = solve_grid(hyp_system, targets)
    return float(hyp_sol.variances.sum())


def rc_score(candidate: Combination, state: ExperimentState, indicators=None) -> float:
    """Remaining-uncertainty score for one candidate, by full re-assembly.

    This is the reference implementation the batched fast path must agree
    with; select_next uses the fast path, tests and callers that only need
    one score use this.  The indicator set comes from the current fit unless
    an explicit boolean array (aligned with the unmeasured grid points in
    row-major order) is supplied.
    """
    ev = _current_evaluation(state)
    i = ev.spec.flat_index(candidate)
    pos = int(np.searchsorted(ev.unmeasured_idx, -1 if i is None else i))
    if i is None or pos == len(ev.unmeasured_idx) or ev.unmeasured_idx[pos] != i:
        raise ConfigurationError(
            f"candidate ({candidate.m}, {candidate.k}) is measured or off-grid"
        )
    return _score_by_reassembly(state, ev, _indicators(ev, indicators), pos)


def _indicators(ev: _Evaluation, indicators) -> np.ndarray:
    """ev's straddle set, or the caller's explicit one once its length is checked."""
    if indicators is None:
        return ev.indicators
    ind = np.asarray(indicators, dtype=bool)
    if ind.shape != ev.indicators.shape:
        raise ConfigurationError(
            f"indicator array of shape {ind.shape} does not match {len(ev.indicators)} unmeasured points"
        )
    return ind


def candidate_scores(state: ExperimentState, indicators=None):
    """(candidates, scores) for every unmeasured grid point, row-major.

    indicators defaults to the straddle set of the current fit; tests pass
    explicit arrays (e.g. all ones) to probe the pure variance objective.
    """
    ev = _current_evaluation(state)
    ind = _indicators(ev, indicators)
    return [ev.spec.point(i) for i in ev.unmeasured_idx.tolist()], _fast_scores(state, ev, ind)


def _argmin_tied(scores: np.ndarray) -> int:
    smin = float(scores.min())
    tol = TIE_TOL * max(1.0, abs(smin))
    return int(np.argmax(scores <= smin + tol))


def _pick(state: ExperimentState, ev: _Evaluation) -> tuple[int, float]:
    """(position among the unmeasured points, score) of the next measurement."""
    scores = _fast_scores(state, ev, ev.indicators)
    pos = _argmin_tied(scores)
    return pos, float(scores[pos])


def select_next(state: ExperimentState) -> Combination | None:
    """Next combination to measure, or None when nothing is left to learn.

    None means the natural stop: every unmeasured point's CI already falls
    entirely on one side of the threshold (or the grid is fully measured).
    Score ties break toward the earliest point in row-major grid order.
    """
    ev = _current_evaluation(state)
    if _stop_reason(state, ev) == STOP_NATURAL:
        return None
    return ev.candidate(_pick(state, ev)[0])


def check_stop(state: ExperimentState) -> str | None:
    """STOP_NATURAL, STOP_BUDGET, or None to continue.

    The natural condition is evaluated first, so a run that exhausts its
    budget on the same pass that resolves all uncertainty reports natural.
    """
    return _stop_reason(state, _current_evaluation(state))


def _notify(on_update, state: ExperimentState) -> None:
    if on_update is not None:
        on_update(state)


def run_experiment(config: ExperimentConfig, oracle, state: ExperimentState | None = None,
                   on_update=None) -> ExperimentState:
    """Run (or resume) the measure-fit-select loop to a stop.

    This is the interactive step/append loop with the oracle in the middle:
    suggest_next, measure, record_appended_measurement, on_update, until a
    stop.  The loop is deterministic given the config and oracle: refits
    depend only on the measurement set, selection ties break by grid order,
    and oracle noise is keyed by location.  A run interrupted at any point
    can therefore be resumed from its persisted state and will reproduce
    exactly the history an uninterrupted run would have produced.  on_update
    (when given) is called after every appended measurement and once at the
    stop, which is the persistence hook the CLI uses.  An oracle miss aborts
    with the partial state attached to the exception; the missed point is
    that state's pending suggestion, so appending its value resumes the loop.
    """
    if state is None:
        state = ExperimentState(config=config)
    elif state.config != config:
        raise ConfigurationError("state was created under a different config")

    while True:
        suggestion, _ = suggest_next(state)
        if suggestion is None:
            break
        try:
            value = oracle.evaluate(suggestion.location)
        except OracleMissError as exc:
            exc.state = state
            raise
        record_appended_measurement(state, Measurement(suggestion.location, value))
        _notify(on_update, state)

    _notify(on_update, state)
    return state


def suggest_next(state: ExperimentState) -> tuple[PendingSuggestion | None, str | None]:
    """One fit + selection without measuring: the interactive-mode step.

    Returns (suggestion, stop_reason); exactly one of the two is set.  While
    the initial design is incomplete the suggestion is its first unmeasured
    point, after that it is the score argmin.  The suggestion is also stored
    on state.pending so the completing append can record the audit entry.
    """
    measured = state.measured_locations()
    for point in state.config.initial_design:
        if point not in measured:
            state.pending = PendingSuggestion(location=point, phase="initial")
            return state.pending, None

    model = state.model = _fit(state)
    ev = _evaluate(state, model)
    state.stop_reason = _stop_reason(state, ev)
    if state.stop_reason is not None:
        state.pending = None
        return None, state.stop_reason
    pos, score = _pick(state, ev)
    state.pending = PendingSuggestion(
        location=ev.candidate(pos),
        phase="adaptive",
        rc_score=score,
        model=model,
        n_uncertain=ev.n_uncertain,
    )
    return state.pending, None


def record_appended_measurement(state: ExperimentState, measurement: Measurement) -> None:
    """Append a measurement produced outside the loop (interactive mode).

    Only two kinds of appends keep the audit history meaningful: completing
    the pending suggestion, or supplying an unmeasured initial-design point.
    Anything else is rejected.
    """
    loc = measurement.location
    if loc in state.measured_locations():
        raise DuplicateLocationError(f"location ({loc.m}, {loc.k}) is already measured")
    pending = state.pending
    if pending is not None and pending.location == loc:
        state.measurements.append(measurement)
        if pending.phase == "adaptive":
            state.iteration += 1
            state.history.append(IterationRecord(
                iteration=state.iteration,
                location=loc,
                rc_score=float(pending.rc_score),
                model=pending.model,
                n_uncertain=int(pending.n_uncertain),
            ))
        state.pending = None
        state.stop_reason = None
        return
    if loc in set(state.config.initial_design):
        state.measurements.append(measurement)
        state.stop_reason = None
        return
    raise ConfigurationError(
        f"location ({loc.m}, {loc.k}) is neither the pending suggestion nor an "
        "unmeasured initial-design point; run `step` first to get a suggestion"
    )
