"""Sequential measurement planning.

Each iteration refits the variogram, kriges the whole grid, and scores
every unmeasured combination by the total uncertainty that would remain
if it were measured next: the sum, over the points region.classify_cells
labels uncertain (their confidence interval straddles the threshold), of
the hypothetical kriging variance conditional on the augmented measurement
set (variogram held fixed).  The candidate minimizing that score is
measured next.  The run stops naturally once no point is uncertain, or on
budget after max_iterations adaptive measurements.

The scores come from one rule, _fast_scores, which the pick and
candidate_scores share: every candidate in closed form, from lattice FFT
convolutions, when the uncertain points are many against the measurements,
and target by target in candidate blocks otherwise.  rc_score re-assembles
the augmented system for one candidate and is the reference for both.

suggest_next is one planner step: fit, evaluate the grid once, apply the
stop rule, pick the argmin.  run_experiment is the interactive step/append
loop with the oracle in the middle, so batch and interactive runs share one
code path and an oracle miss on any point resumes with an append.  The views
(select_next, check_stop, candidate_scores, rc_score) and ``krigplan
report`` share its one route to the grid, _fit, and change nothing on the
state but the fit that _fit caches there when the state has no model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    DuplicateLocationError,
    InsufficientDataError,
    NumericalFailureError,
    OracleMissError,
)
from .grid import Combination, GridSpec, Measurement, ensure_unique_locations
from .kriging import EPS, KrigingSystem, LatticePrediction, _solve, assemble_system, solve_lattice, z_quantile
from .region import LABELS, UNCERTAIN, classify_cells
from .variogram import VariogramModel, _ranked_fits, empirical_variogram, select_model

# Not called here, but the benchmark's tracer (perfbench/spans.py) wraps
# these names on this module, so they must stay importable from it.
from .grid import build_grid  # noqa: F401
from .kriging import solve_grid  # noqa: F401

STOP_NATURAL = "natural"
STOP_BUDGET = "budget"

# Candidates whose scores differ by less than this are tied; the earliest in
# row-major grid order wins.  Keeps the argmin stable under float noise.
TIE_TOL = 1e-12

# Below this current variance the rank-one update divides by almost zero;
# such candidates are rescored by full re-assembly instead.
FAST_PATH_VARIANCE_MIN = 1e-10

# Candidate/target entries per scoring block of the walk (float64, 512 KB).
# A block is the unit of the walk's work: its candidate rows are scored by
# one BLAS product against the targets and one row sum.  Bounds the walk's
# working memory whatever the grid and uncertain-set sizes, and keeps each
# block's temporaries in cache: on the 5,600-cell grid, on a 2-core x86-64
# host with single-threaded OpenBLAS, 2**16 scored about twice as fast as
# 2**20.
_SCORE_BLOCK_ELEMENTS = 2 ** 16

# _fast_scores takes the closed form when the flagged targets number at
# least this many per row of the solved system, U >= 10 (n + 1) with n
# measurements, and walks the blocks below it.  Per candidate, the walk
# costs about U (n + 1) and the closed form about (n + 1)^2 plus the n + 2
# transforms' (n + 2) log P, so the grid size all but drops out.  Both timed
# at every pick of the campaigns of study_run seeds 1 and 7 (100 picks) and
# large_grid seeds 1, 7 and 11 (24 picks), on a 2-core x86-64 host with
# single-threaded OpenBLAS; milliseconds of scoring per set of campaigns, by
# multiplier:
#               walk only     4    6    8   10   12   14   16   20  closed only
#   study_run      242      207  198  196  198  201  205  213  217     286
#   large_grid    1896      175  175  175  175  175  175  178  183     175
# The best choice pick by pick gave 195 and 175: 6 to 12 are all within 3%.
_CLOSED_FORM_TARGETS_PER_ROW = 10

# A closed-form candidate x is rescored by re-assembly when the rounding of
# its S(x) / v(x), about eps (|Q| + 2 |R| + |H|) / v(x), exceeds this share of
# the summed target variance (see _closed_form_scores).
_CLOSED_FORM_RTOL = 1e-6

# The closed form transforms its n + 2 planes this many at a time, reusing
# one padded input from batch to batch.  All at once, the spectra of the
# 5,600-cell grid take about 4 MB per pick, and the page faults of that
# fresh memory cost about as much as the transforms.  np.fft has no
# in-place transform, so every batch's m-axis spectra are fresh arrays;
# batching keeps each a quarter of that size.  Closed-form CPU time per
# pick, median of four runs of ten large_grid and four study_run campaigns
# (seed 7) on a 2-core x86-64 host, all at once / four at a time: 9.1 /
# 7.3 ms with 2,414 / 1,034 page faults on the 5,600-cell grid, 1.67 /
# 1.31 ms with 375 / 24 on the 720-cell grid.
_FFT_PLANES = 4


def _next_fast_len(n: int) -> int:
    """The smallest 5-smooth integer (2^a 3^b 5^c) at least n >= 1: a
    transform length that pocketfft factors into radix-2, -3 and -5 passes
    only, as scipy.fft.next_fast_len(n, real=True) gives it."""
    best = 1 << (n - 1).bit_length()  # the power of two at least n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p2 = 1 << (-(-n // p35) - 1).bit_length()  # least power of two with p2 * p35 >= n
            best = min(best, p2 * p35)
            p35 *= 3
        p5 *= 5
    return best


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
        # The experiment file reads integers back in the signed 64-bit range
        # (experiment_io.as_int), so a value outside it could not be loaded.
        if not 0 <= self.max_iterations < 2**63:
            raise ConfigurationError(f"max_iterations must be in [0, 2**63), got {self.max_iterations}")
        if not -2**63 <= self.seed < 2**63:
            raise ConfigurationError(f"seed must be in [-2**63, 2**63), got {self.seed}")
        design = tuple(self.initial_design)
        object.__setattr__(self, "initial_design", design)
        seen = set()
        for c, index in zip(design, self.grid.flat_indices(design).tolist()):
            if index < 0:
                raise ConfigurationError(f"initial design point ({c.m}, {c.k}) is not on the grid")
            if index in seen:
                raise DuplicateLocationError(f"duplicate initial design point ({c.m}, {c.k})")
            seen.add(index)
        # The first fit's empirical variogram needs two measurements; a
        # smaller design would spend an oracle call before failing on it.
        if len(design) < 2:
            raise ConfigurationError(f"initial design needs at least 2 points, got {len(design)}")


def _check_audit_values(score: float | None, n_uncertain: int | None) -> None:
    """A remaining-uncertainty score is a sum of variances: finite, nonnegative.
    The uncertain points it sums over are a count.  None, unscored, passes."""
    if score is not None and not (math.isfinite(score) and score >= 0):
        raise ConfigurationError(f"rc_score must be finite and nonnegative, got {score}")
    if n_uncertain is not None and n_uncertain < 0:
        raise ConfigurationError(f"n_uncertain must be nonnegative, got {n_uncertain}")


@dataclass(frozen=True)
class IterationRecord:
    """Audit record for one adopted measurement."""

    iteration: int
    location: Combination
    rc_score: float
    model: VariogramModel
    n_uncertain: int

    def __post_init__(self):
        _check_audit_values(self.rc_score, self.n_uncertain)


@dataclass(frozen=True)
class PendingSuggestion:
    """A suggestion produced by one fit+selection step, awaiting its measurement."""

    location: Combination
    phase: str  # "initial" or "adaptive"
    rc_score: float | None = None
    model: VariogramModel | None = None
    n_uncertain: int | None = None

    def __post_init__(self):
        _check_audit_values(self.rc_score, self.n_uncertain)


@dataclass
class ExperimentState:
    config: ExperimentConfig
    measurements: list[Measurement] = field(default_factory=list)
    model: VariogramModel | None = None  # the fit of the current measurements, or None
    iteration: int = 0
    history: list[IterationRecord] = field(default_factory=list)
    stop_reason: str | None = None
    pending: PendingSuggestion | None = None

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        """Raise unless the measurements are distinct and the history is
        numbered 1..iteration, each record a distinct measured location.
        Construction runs it; experiment_io.save_state runs it again before
        writing, since the lists can be edited after construction."""
        ensure_unique_locations(self.measurements)
        if self.iteration < 0 or len(self.history) != self.iteration:
            raise ConfigurationError(
                f"history length {len(self.history)} does not match iteration {self.iteration}"
            )
        unpicked = self.measured_locations()
        for number, record in enumerate(self.history, start=1):
            if record.iteration != number:
                raise ConfigurationError(
                    f"history record {number} has iteration {record.iteration}, expected {number}"
                )
            if record.location not in unpicked:  # each pick is a distinct measured point
                raise ConfigurationError(f"history record {number} chose ({record.location.m}, "
                                         f"{record.location.k}), which is not measured or was chosen before")
            unpicked.remove(record.location)

    def measured_locations(self) -> set[Combination]:
        return {m.location for m in self.measurements}


def weight_indicator(prediction, threshold: float) -> int:
    """1 while classify_cells labels the prediction uncertain (its CI
    straddles the threshold), 0 once the CI falls entirely on one side (an
    upper bound exactly at the threshold counts as below)."""
    code = classify_cells(prediction.mean, prediction.ci_lower, prediction.ci_upper, threshold, [], [])
    return int(code == LABELS.index(UNCERTAIN))


@dataclass
class _Evaluation:
    """One model's view of the grid: its kriging system, the lattice solve
    (columns indexed by flat grid index), its prediction and classify_cells
    codes, and the uncertain unmeasured points."""

    system: KrigingSystem
    prediction: LatticePrediction
    codes: np.ndarray      # (m_count, k_count), indices into region.LABELS
    solution: np.ndarray   # (n+1, P), the system solved against system.lattice
    unmeasured_idx: np.ndarray
    indicators: np.ndarray  # bool, aligned with unmeasured_idx

    @property
    def model(self) -> VariogramModel:
        return self.system.model

    @property
    def variances(self) -> np.ndarray:  # (P,)
        return self.prediction.variance.reshape(-1)

    @property
    def n_uncertain(self) -> int:
        return int(self.indicators.sum())

    def candidate(self, pos: int) -> Combination:
        return self.prediction.spec.point(int(self.unmeasured_idx[pos]))


def _evaluate(state: ExperimentState, model: VariogramModel) -> _Evaluation:
    """Krig and classify every grid point under model, intervals at the config's alpha."""
    spec = state.config.grid
    z = z_quantile(state.config.alpha)
    system = assemble_system(state.measurements, model, spec)
    means, variances, solution = solve_lattice(system)
    measured = system.flat
    prediction = LatticePrediction.from_flat(spec, means, variances, z)
    # solve_lattice gives every measured point its observed response as mean.
    codes = classify_cells(prediction.mean, prediction.ci_lower, prediction.ci_upper,
                           state.config.threshold, measured, means[measured])
    unmeasured_idx = np.delete(np.arange(spec.point_count), measured)
    indicators = codes.reshape(-1)[unmeasured_idx] == LABELS.index(UNCERTAIN)
    return _Evaluation(system, prediction, codes, solution, unmeasured_idx, indicators)


def _fit(state: ExperimentState) -> _Evaluation:
    """The grid evaluation under state.model, the one route to the grid for
    every planner step, view and report.  A state with no model is fitted
    first (_admissible_fit) and the fit stored on it; when no family
    qualifies, the failure is raised and nothing is stored."""
    if state.model is not None:
        return _evaluate(state, state.model)
    ev = _admissible_fit(state)
    state.model = ev.model
    return ev


def _admissible_fit(state: ExperimentState) -> _Evaluation:
    """Fit the current measurements and evaluate the grid under the
    lowest-MSE family whose lattice solve raises no NumericalFailureError,
    exact MSE ties broken by FAMILIES order as in select_model.

    select_model's pick is evaluated first; the other distinct fits
    (_ranked_fits) are tried only when its solve fails, which a
    bounded-linear fit, valid only in 1-D, can do on larger layouts.  When
    no family qualifies, the first failure is raised.
    """
    empirical = empirical_variogram(state.measurements, state.config.grid)
    model = select_model(empirical)
    try:
        return _evaluate(state, model)
    except NumericalFailureError as exc:
        failure = exc
    for other in _ranked_fits(empirical):
        if other == model:
            continue
        try:
            return _evaluate(state, other)
        except NumericalFailureError:
            pass
    raise failure


def _next_design_point(state: ExperimentState) -> Combination | None:
    """The first unmeasured initial-design point, or None once all are measured."""
    measured = state.measured_locations()
    return next((p for p in state.config.initial_design if p not in measured), None)


def _stop_reason(state: ExperimentState, ev: _Evaluation) -> str | None:
    """STOP_NATURAL once no unmeasured point is uncertain (checked
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
    Everything needed is already in the lattice solution, and only the U
    flagged targets carry weight.  With U at least
    _CLOSED_FORM_TARGETS_PER_ROW times the n + 1 rows of the solution, every
    candidate's sum over the targets is taken in closed form, by lattice
    convolutions (_closed_form_scores); below it the P candidates are walked
    in row blocks of about _SCORE_BLOCK_ELEMENTS entries each (_walk_scores),
    so the working memory is bounded by the block, not by P^2.  The two
    agree to rounding: the closed form's scores move in the last bits
    against the walk's.  Candidates with vanishing current variance, and
    closed-form candidates the cancellation guard flags, are rescored by full
    re-assembly (rc_score).  A degenerate model leaves no variance to
    reduce, so every score is zero.
    """
    idx = ev.unmeasured_idx
    if ev.model.is_degenerate or len(idx) == 0:
        return np.zeros(len(idx))
    variances = ev.variances[idx]
    cols = np.flatnonzero(indicators)
    XT = ev.solution[:, idx].T
    D = ev.system.lattice[:, idx[cols]]
    safe = variances >= FAST_PATH_VARIANCE_MIN
    denom = np.where(safe, variances, 1.0)
    if len(cols) >= _CLOSED_FORM_TARGETS_PER_ROW * len(D):
        scores, unsure = _closed_form_scores(ev, indicators, XT, D, variances, denom)
        rescore = ~safe | unsure
    else:
        scores = _walk_scores(ev, indicators, XT, D, variances, denom)
        rescore = ~safe
    for pos in np.flatnonzero(rescore):
        scores[pos] = _score_by_reassembly(state, ev, indicators, int(pos))
    return scores


def _walk_scores(ev: _Evaluation, indicators, XT, D, variances, denom) -> np.ndarray:
    """Every candidate's score, target by target, in blocks of candidate rows.

    Candidates and targets are lattice nodes, so g depends only on their
    index offset: each block gathers g from the system's table of gamma over
    grid.offset_distances (evaluated once per fit, with the lattice solve)
    at center - pos(x) + pos(t), pos being a node's flat index in the table.
    Each conditional variance is clamped at 0, and the candidate itself is
    not one of its targets.
    """
    spec, idx = ev.system.spec, ev.unmeasured_idx
    cols = np.flatnonzero(indicators)
    gamma = ev.system.table.ravel()
    width = 2 * spec.k_count - 1
    row, col = np.divmod(idx, spec.k_count)
    pos = row * width + col
    offsets = (spec.m_count - 1) * width + (spec.k_count - 1) - pos
    target_pos = pos[cols]
    target_var = variances[cols]
    ones = np.ones(len(cols))
    rows = max(1, _SCORE_BLOCK_ELEMENTS // max(1, len(cols)))
    scores = np.empty(len(idx))
    for start in range(0, len(idx), rows):
        block = slice(start, start + rows)
        # (row, column) of each candidate in this block that is also a target
        self_rows = np.flatnonzero(indicators[block])
        self_cols = np.searchsorted(cols, start + self_rows)

        g = np.take(gamma, offsets[block, None] + target_pos)
        updated = XT[block] @ D
        updated -= g
        updated **= 2
        updated /= denom[block, None]
        np.subtract(target_var, updated, out=updated)
        np.maximum(updated, 0.0, out=updated)
        updated[self_rows, self_cols] = 0.0  # the candidate itself is not a target
        scores[block] = updated @ ones
    return scores


def _closed_form_scores(ev: _Evaluation, indicators, XT, D, variances, denom):
    """(scores, unsure): every candidate's score in closed form, and which
    of them the cancellation guard leaves to re-assembly.

    Without the walk's per-target clamp, the score of candidate x is
    F(x) = V(x) - S(x) / v(x), with V the summed variance of the targets
    other than x and S = sum over those targets of (q - g)^2.  Summed over
    all targets t instead, S = Q - 2 R + H - q(x, x)^2, the last term only
    when x is a target (g(x, x) = 0), with Q = X Gram X' (X the candidate's
    solution row, Gram = D D'), R = sum_t q g and H = sum_t g^2.  R and H
    are lattice correlations of the n+1 rows of D, and of the target
    indicator, with the offset table and its square; the table is symmetric
    under reversal of both axes, so they are convolutions (Dietrich &
    Newsam 1997, circulant embedding).  Real FFTs of _next_fast_len(2m-1) x
    _next_fast_len(2k-1), at least the table's size, give all n+2 of them
    with no offset wrapping onto another.  The score is F clamped at 0.

    S / v(x) cancels against V when v(x) is small: its rounding is about
    eps (|Q| + 2 |R| + |H|) / v(x).  Candidates where that exceeds
    _CLOSED_FORM_RTOL of the summed target variance are flagged unsure.
    This is a first-order guard on the cancellation, not a bound on the
    error: the clamp could otherwise report that such a candidate removes
    all the uncertainty.
    """
    table, idx = ev.system.table, ev.unmeasured_idx
    m, k = ev.system.spec.m_count, ev.system.spec.k_count
    n1 = len(D)
    cols = np.flatnonzero(indicators)
    shape = (_next_fast_len(2 * m - 1), _next_fast_len(2 * k - 1))
    kernels = np.fft.rfft2(np.stack([table, table * table]), s=shape)
    targets = np.divmod(idx[cols], k)
    row, col = np.divmod(idx, k)
    values = np.vstack([D, np.ones(len(cols))])
    conv = np.empty((n1 + 1, len(idx)))
    # rfft2 and irfft2 one axis at a time, so that the k-axis transforms
    # skip the rows that are padding on the way in and unused on the way out.
    # Each batch reuses the same zero-padded input, of which only the target
    # nodes are written; the m-axis transform pads its m rows of spectra.
    planes = np.zeros((min(_FFT_PLANES, n1 + 1), m, shape[1]))
    for start in range(0, n1 + 1, _FFT_PLANES):
        batch = values[start:start + _FFT_PLANES]
        b = len(batch)
        planes[:b, targets[0], targets[1]] = batch
        s = np.fft.fft(np.fft.rfft(planes[:b]), n=shape[0], axis=1)
        s[:n1 - start] *= kernels[0]  # rows of D
        s[n1 - start:] *= kernels[1]  # the target indicator, in the last batch
        s = np.fft.ifft(s, axis=1)
        conv[start:start + b] = np.fft.irfft(s[:, m - 1:2 * m - 1], n=shape[1])[:, row, col + k - 1]
    C, H = conv[:n1], conv[n1]
    R = np.einsum("pi,ip->p", XT, C)
    Q = np.einsum("pi,pi->p", XT @ (D @ D.T), XT)
    q_self = np.zeros(len(idx))
    q_self[cols] = np.einsum("ti,it->t", XT[cols], D)
    target_var_sum = float(variances[cols].sum())
    V = target_var_sum - np.where(indicators, variances, 0.0)
    S = Q - 2 * R + H - q_self * q_self
    scores = np.maximum(V - S / denom, 0.0)
    rounding = EPS * (np.abs(Q) + 2 * np.abs(R) + np.abs(H))
    unsure = rounding > _CLOSED_FORM_RTOL * denom * target_var_sum
    return scores, unsure


def _score_by_reassembly(state: ExperimentState, ev: _Evaluation,
                         indicators: np.ndarray, pos: int) -> float:
    """Reference score: the augmented system re-assembled and solved at the other flagged targets."""
    targets = np.delete(ev.unmeasured_idx, pos)[np.delete(indicators, pos)]
    if not len(targets):
        return 0.0
    hyp = list(state.measurements) + [Measurement(ev.candidate(pos), 0.0)]
    hyp_system = assemble_system(hyp, ev.model, state.config.grid)
    _, variances, _ = _solve(hyp_system, targets, np.take(hyp_system.lattice, targets, axis=1))
    return float(variances.sum())


def rc_score(candidate: Combination, state: ExperimentState, indicators=None) -> float:
    """Remaining-uncertainty score for one candidate, by full re-assembly.

    This is the reference implementation the batched fast path must agree
    with; select_next uses the fast path, tests and callers that only need
    one score use this.  The indicator set comes from the current fit unless
    an explicit boolean array (aligned with the unmeasured grid points in
    row-major order) is supplied.  Raises InsufficientDataError while the
    initial design is incomplete.
    """
    ev, ind = _scoring_view(state, indicators)
    i = int(state.config.grid.flat_indices([candidate])[0])  # -1 off the grid, never unmeasured
    pos = int(np.searchsorted(ev.unmeasured_idx, i))
    if pos == len(ev.unmeasured_idx) or ev.unmeasured_idx[pos] != i:
        raise ConfigurationError(
            f"candidate ({candidate.m}, {candidate.k}) is measured or off-grid"
        )
    return _score_by_reassembly(state, ev, ind, pos)


def _scoring_view(state: ExperimentState, indicators) -> tuple[_Evaluation, np.ndarray]:
    """The current evaluation and its uncertain set, or the caller's explicit one once its
    length is checked.  Nothing is scored while the initial design is incomplete."""
    point = _next_design_point(state)
    if point is not None:
        raise InsufficientDataError(
            f"initial design point ({point.m}, {point.k}) is not measured yet; "
            "candidates are scored once the whole initial design is measured"
        )
    ev = _fit(state)
    if indicators is None:
        return ev, ev.indicators
    ind = np.asarray(indicators, dtype=bool)
    if ind.shape != ev.indicators.shape:
        raise ConfigurationError(
            f"indicator array of shape {ind.shape} does not match {len(ev.indicators)} unmeasured points"
        )
    return ev, ind


def candidate_scores(state: ExperimentState, indicators=None):
    """(candidates, scores) for every unmeasured grid point, row-major.

    indicators defaults to the uncertain set of the current fit; tests pass
    explicit arrays (e.g. all ones) to probe the pure variance objective.
    Raises InsufficientDataError while the initial design is incomplete.
    """
    ev, ind = _scoring_view(state, indicators)
    return [state.config.grid.point(i) for i in ev.unmeasured_idx.tolist()], _fast_scores(state, ev, ind)


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
    While the initial design is incomplete it is the design's first
    unmeasured point, as suggest_next would give.
    """
    point = _next_design_point(state)
    if point is not None:
        return point
    ev = _fit(state)
    if _stop_reason(state, ev) == STOP_NATURAL:
        return None
    return ev.candidate(_pick(state, ev)[0])


def check_stop(state: ExperimentState) -> str | None:
    """STOP_NATURAL, STOP_BUDGET, or None to continue.

    The natural condition is evaluated first, so a run that exhausts its
    budget on the same pass that resolves all uncertainty reports natural.
    None, without a fit, while the initial design is incomplete.
    """
    if _next_design_point(state) is not None:
        return None
    return _stop_reason(state, _fit(state))


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
    point, after that it is the score argmin under state.model, which _fit
    fits and stores when the state has none.  The suggestion is also stored
    on state.pending so the completing append can record the audit entry.
    """
    point = _next_design_point(state)
    if point is not None:
        state.pending = PendingSuggestion(location=point, phase="initial")
        return state.pending, None

    ev = _fit(state)
    state.stop_reason = _stop_reason(state, ev)
    if state.stop_reason is not None:
        state.pending = None
        return None, state.stop_reason
    pos, score = _pick(state, ev)
    state.pending = PendingSuggestion(
        location=ev.candidate(pos),
        phase="adaptive",
        rc_score=score,
        model=ev.model,
        n_uncertain=ev.n_uncertain,
    )
    return state.pending, None


def record_appended_measurement(state: ExperimentState, measurement: Measurement) -> None:
    """Append a measurement produced outside the loop (interactive mode).

    Only two kinds of appends keep the audit history meaningful: completing
    the pending suggestion, or supplying an unmeasured initial-design point.
    Anything else is rejected.  An accepted append clears state.model, which
    no longer fits the measurements; the next view or step refits.
    """
    loc = measurement.location
    if loc in state.measured_locations():
        raise DuplicateLocationError(f"location ({loc.m}, {loc.k}) is already measured")
    pending = state.pending
    if pending is not None and pending.location == loc:
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
    elif loc not in set(state.config.initial_design):
        raise ConfigurationError(
            f"location ({loc.m}, {loc.k}) is neither the pending suggestion nor an "
            "unmeasured initial-design point; run `step` first to get a suggestion"
        )
    state.measurements.append(measurement)
    state.stop_reason = None
    state.model = None
