import json
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import krigplan.adaptive as adaptive

from krigplan import (
    Combination,
    ConfigurationError,
    DuplicateLocationError,
    ExperimentConfig,
    ExperimentState,
    GridSpec,
    InsufficientDataError,
    Measurement,
    NumericalFailureError,
    OracleMissError,
    PendingSuggestion,
    Prediction,
    ResponseRecord,
    SyntheticLogisticOracle,
    TableReplayOracle,
    VariogramModel,
    assemble_system,
    build_grid,
    candidate_scores,
    evenly_spaced_design,
    check_stop,
    predict_grid,
    rc_score,
    record_appended_measurement,
    run_experiment,
    select_next,
    solve_grid,
    suggest_next,
    weight_indicator,
)
from krigplan.adaptive import STOP_BUDGET, STOP_NATURAL
from krigplan.experiment_io import audit_log_text, state_from_dict, state_to_dict
from krigplan.region import LABELS, UNCERTAIN, largest_region
from krigplan.variogram import (
    FAMILIES,
    FLAG_DEGENERATE,
    FLAG_LOW_INFORMATION,
    empirical_variogram,
    fit_model,
    select_model,
)

from conftest import random_measurements
from test_acceptance import NOISE_STD, study_config
from test_grid import scaled_coords

SPH = VariogramModel("spherical", 0.025, 2.0, 0.5)


def small_config(**overrides):
    """180-point grid crossed by the synthetic oracle's threshold boundary."""
    grid = GridSpec(0.5, 3.0, 0.5, 1.0, 30.0, 1.0, k_scale=0.1)
    design = [Combination(m, k) for m in (0.5, 3.0) for k in (1.0, 15.0, 30.0)]
    defaults = dict(grid=grid, threshold=4.0, initial_design=tuple(design),
                    alpha=0.1, max_iterations=6, seed=0)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def replay_oracle(config, exclude=()):
    oracle = SyntheticLogisticOracle(noise_std=0.0)
    records = [ResponseRecord(c, oracle.evaluate(c))
               for c in build_grid(config.grid) if c not in set(exclude)]
    return TableReplayOracle(records)


def flat_oracle(config, response=3.0):
    """The same response everywhere: every fit of it is degenerate."""
    return TableReplayOracle([ResponseRecord(c, response) for c in build_grid(config.grid)])


# --- indicator ---------------------------------------------------------------

def make_pred(lower, upper):
    mean = (lower + upper) / 2.0
    half = (upper - lower) / 2.0
    return Prediction(Combination(1.0, 1.0), mean, (half / 1.645) ** 2, lower, upper)


def test_weight_indicator():
    assert weight_indicator(make_pred(3.0, 5.0), 4.0) == 1
    assert weight_indicator(make_pred(1.0, 3.0), 4.0) == 0   # entirely below
    assert weight_indicator(make_pred(4.5, 6.0), 4.0) == 0   # entirely above
    assert weight_indicator(make_pred(3.0, 4.0), 4.0) == 0   # upper at threshold
    assert weight_indicator(make_pred(4.0, 5.0), 4.0) == 1   # lower at threshold


# --- config validation -------------------------------------------------------

def test_config_validation():
    grid = GridSpec(1.0, 3.0, 1.0, 1.0, 3.0, 1.0, k_scale=1.0)
    design = (Combination(1.0, 1.0), Combination(3.0, 3.0))
    ExperimentConfig(grid=grid, threshold=4.0, initial_design=design)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(grid=grid, threshold=0.0, initial_design=design)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(grid=grid, threshold=4.0, initial_design=design, alpha=0.2)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(grid=grid, threshold=4.0, initial_design=design, max_iterations=-1)
    # The experiment file reads integers back in the signed 64-bit range.
    ExperimentConfig(grid=grid, threshold=4.0, initial_design=design,
                     max_iterations=2**63 - 1, seed=-2**63)
    ExperimentConfig(grid=grid, threshold=4.0, initial_design=design, seed=2**63 - 1)
    for fields in ({"max_iterations": 2**63}, {"seed": 2**63}, {"seed": -2**63 - 1}):
        with pytest.raises(ConfigurationError, match=next(iter(fields))):
            ExperimentConfig(grid=grid, threshold=4.0, initial_design=design, **fields)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(grid=grid, threshold=4.0,
                         initial_design=(Combination(1.5, 1.0),))  # off grid
    with pytest.raises(DuplicateLocationError):
        ExperimentConfig(grid=grid, threshold=4.0,
                         initial_design=(design[0], design[0]))  # duplicate
    for small in (design[:1], ()):
        with pytest.raises(ConfigurationError, match="at least 2 points"):
            ExperimentConfig(grid=grid, threshold=4.0, initial_design=small)


def reference_design_error(grid, design):
    """The point-by-point design check: the first point that is off the grid
    or repeats an earlier one decides the error."""
    seen = set()
    for c in design:
        if not grid.contains(c):
            return ConfigurationError, f"location ({c.m}, {c.k}) is not a point of the grid"
        if c in seen:
            return DuplicateLocationError, f"duplicate location ({c.m}, {c.k})"
        seen.add(c)
    return None


@pytest.mark.parametrize("defect", [
    "last-off-grid", "first-off-grid", "off-grid-then-duplicate", "duplicate-then-off-grid",
    "last-duplicate", "outside", "none",
])
def test_design_check_names_the_first_bad_point(defect):
    """The one-pass check on the 5,600-cell grid's 80-point design raises
    what the point-by-point walk raises, naming the same point."""
    grid = GridSpec(0.5, 6.0, 0.1, 1.0, 100.0, 1.0, k_scale=0.1)
    design = evenly_spaced_design(grid, 8, 10)
    off, outside = Combination(0.55, 1.0), Combination(6.1, 100.0)
    design = {
        "last-off-grid": design[:-1] + [off],
        "first-off-grid": [off] + design[1:],
        "off-grid-then-duplicate": design[:40] + [off] + design[:1] + design[42:],
        "duplicate-then-off-grid": design[:40] + design[:1] + [off] + design[42:],
        "last-duplicate": design[:-1] + design[-2:-1],
        "outside": design[:-1] + [outside],
        "none": design,
    }[defect]
    assert len(design) == 80
    expected = reference_design_error(grid, design)
    if expected is None:
        config = ExperimentConfig(grid=grid, threshold=4.0, initial_design=design)
        assert config.initial_design == tuple(design)
        return
    with pytest.raises(expected[0]) as exc:
        ExperimentConfig(grid=grid, threshold=4.0, initial_design=design)
    assert type(exc.value) is expected[0]
    assert str(exc.value) == expected[1]


# --- refinement scores -------------------------------------------------------

def brute_force_scores(state, indicators):
    """Score every candidate by rebuilding the full system with it added."""
    grid = build_grid(state.config.grid)
    measured = state.measured_locations()
    candidates = [c for c in grid if c not in measured]
    scores = []
    for x in candidates:
        extended = state.measurements + [Measurement(x, 1.0)]  # value is irrelevant
        system = assemble_system(extended, state.model, state.config.grid)
        sol = solve_grid(system, candidates)
        variances = np.array(sol.variances)
        scores.append(float(variances @ np.asarray(indicators, dtype=float)))
    return candidates, np.array(scores)


@pytest.mark.parametrize("nm,nk,n_meas,seed", [(3, 3, 3, 0), (4, 5, 4, 1), (5, 5, 6, 2)])
def test_fast_scores_match_brute_force(nm, nk, n_meas, seed):
    grid = GridSpec(1.0, float(nm), 1.0, 1.0, float(nk), 1.0, k_scale=1.0)
    rng = np.random.default_rng(seed)
    ms = random_measurements(rng, grid, n_meas)
    config = ExperimentConfig(grid=grid, threshold=4.0,
                              initial_design=tuple(m.location for m in ms))
    state = ExperimentState(config=config, measurements=list(ms), model=SPH)

    n_candidates = grid.point_count - n_meas
    ones = np.ones(n_candidates, dtype=bool)
    candidates, fast = candidate_scores(state, indicators=ones)
    expected_candidates, slow = brute_force_scores(state, np.ones(n_candidates))
    assert candidates == expected_candidates
    np.testing.assert_allclose(fast, slow, atol=1e-10)
    assert int(np.argmin(fast)) == int(np.argmin(slow))


# Models the property test draws from: one per family, each well conditioned
# on a unit-spaced lattice.
SCORE_MODELS = [
    SPH,
    VariogramModel("exponential", 0.05, 1.5, 0.8),
    VariogramModel("gaussian", 0.1, 1.5, 0.6),
    VariogramModel("bounded_linear", 0.02, 4.0, 1.0),
]

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)


@PROPERTY
@given(data=st.data())
def test_fast_scores_match_brute_force_on_partial_indicators(data):
    """Flagged-column scoring agrees with full re-assembly for any indicator
    set, walked at every block size and in closed form, and agrees when some
    candidates take the re-assembly path, by their variance or, with the
    cancellation guard at 0, every closed-form candidate.  Strides of 0.5 and
    0.1 and a k_scale of 0.1 make the offset-table distances differ from the
    coordinate distances that the re-assembly uses in the last bits."""
    nm, nk = data.draw(st.integers(3, 8)), data.draw(st.integers(3, 10))
    m_stride, k_stride = (data.draw(st.sampled_from([1.0, 0.5, 0.1])) for _ in range(2))
    grid = GridSpec(1.0, 1.0 + (nm - 1) * m_stride, m_stride,
                    1.0, 1.0 + (nk - 1) * k_stride, k_stride,
                    k_scale=data.draw(st.sampled_from([1.0, 0.1])))
    n_meas = data.draw(st.integers(3, 8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    ms = random_measurements(rng, grid, n_meas)
    config = ExperimentConfig(grid=grid, threshold=4.0,
                              initial_design=tuple(m.location for m in ms))
    model = data.draw(st.sampled_from(SCORE_MODELS))
    state = ExperimentState(config=config, measurements=list(ms), model=model)
    n_candidates = grid.point_count - n_meas
    indicators = np.array(data.draw(st.lists(st.booleans(), min_size=n_candidates,
                                             max_size=n_candidates)))

    candidates, expected = brute_force_scores(state, indicators)
    current = solve_grid(assemble_system(ms, model, grid), candidates).variances
    variance_min = adaptive.FAST_PATH_VARIANCE_MIN
    if data.draw(st.booleans()):
        # raise the cut so about half the candidates are rescored by re-assembly
        variance_min = float(np.median(current))
    rescored = int(np.sum(current < variance_min))

    walk, closed = 10**9, 0  # _CLOSED_FORM_TARGETS_PER_ROW forcing either path
    n_targets = max(1, int(indicators.sum()))
    # (targets per row, block, guard, re-assembled): walked in blocks of 16
    # and 32 candidate rows, so the candidates span several blocks, and at the
    # production size; then in closed form, guarded as in production and with
    # a guard that sends every closed-form candidate to re-assembly (but for
    # no flagged target, where there is nothing to cancel)
    ways = [(walk, block, adaptive._CLOSED_FORM_RTOL, rescored)
            for block in (16 * n_targets, 32 * n_targets, 2**16)]
    ways += [(closed, 2**16, adaptive._CLOSED_FORM_RTOL, rescored),
             (closed, 2**16, 0.0, n_candidates if indicators.any() else rescored)]
    for per_row, block, guard, reassembled in ways:
        with mock.patch.multiple(adaptive, FAST_PATH_VARIANCE_MIN=variance_min,
                                 _CLOSED_FORM_TARGETS_PER_ROW=per_row,
                                 _SCORE_BLOCK_ELEMENTS=block, _CLOSED_FORM_RTOL=guard), \
                mock.patch.object(adaptive, "_score_by_reassembly",
                                  wraps=adaptive._score_by_reassembly) as spy:
            got_candidates, scores = candidate_scores(state, indicators=indicators)
        assert spy.call_count == reassembled
        assert got_candidates == candidates
        np.testing.assert_allclose(scores, expected, atol=1e-10)


def grid_campaign_start(grid):
    """The 3x4 design on grid, measured on the noiseless synthetic surface."""
    design = evenly_spaced_design(grid, 3, 4)
    oracle = SyntheticLogisticOracle(noise_std=0.0)
    config = ExperimentConfig(grid=grid, threshold=4.0, initial_design=tuple(design))
    return ExperimentState(config, [Measurement(c, oracle.evaluate(c)) for c in design]), oracle


LARGE_GRID = GridSpec(0.5, 6.0, 0.1, 1.0, 100.0, 1.0, k_scale=0.1)


def test_screened_pick_matches_the_full_argmin():
    """On the 5,600-cell grid and on the study grid, over three picks each,
    _pick returns the position and the score repr of the tied argmin of
    candidate_scores, which follows the same rule; forcing the closed form
    or the walk on every candidate picks the same position, with scores
    within 1e-11 relative of each other."""
    for grid in (LARGE_GRID, study_config().grid):
        state, oracle = grid_campaign_start(grid)
        for _ in range(3):
            ev = adaptive._fit(state)
            pos, score = adaptive._pick(state, ev, adaptive._Workspace())
            _, scores = candidate_scores(state)
            best = adaptive._argmin_tied(scores)
            assert (pos, repr(score)) == (best, repr(float(scores[best])))
            forced = []
            for per_row in (0, 10**9):
                with mock.patch.object(adaptive, "_CLOSED_FORM_TARGETS_PER_ROW", per_row):
                    forced.append(adaptive._pick(state, ev, adaptive._Workspace()))
            assert forced[0][0] == forced[1][0] == pos
            assert forced[0][1] == pytest.approx(forced[1][1], rel=1e-11, abs=0)
            location = ev.candidate(pos)
            state.pending = PendingSuggestion(location, score, ev.model, ev.n_uncertain)
            record_appended_measurement(state, Measurement(location, oracle.evaluate(location)))


def test_scoring_memory_stays_below_one_candidate_matrix():
    """Walking 3,348 candidates against all of them as targets never holds a
    P x P float64 matrix, and neither does the closed form on the 5,600-cell
    grid: its memory is linear in the grid."""
    for grid, per_row in ((GridSpec(0.5, 6.0, 0.1, 1.0, 60.0, 1.0), 10**9),
                          (LARGE_GRID, adaptive._CLOSED_FORM_TARGETS_PER_ROW)):
        state, _ = grid_campaign_start(grid)
        state.model = SPH
        n_candidates = grid.point_count - len(state.measurements)
        ev = adaptive._evaluate(state, SPH)
        ev.indicators = np.ones(n_candidates, dtype=bool)
        tracemalloc.start()
        try:
            with mock.patch.object(adaptive, "_CLOSED_FORM_TARGETS_PER_ROW", per_row), \
                    mock.patch.object(adaptive, "_closed_form_scores",
                                      wraps=adaptive._closed_form_scores) as spy:
                adaptive._fast_scores(state, ev, ev.indicators, adaptive._Workspace())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        closed_form = per_row < 10**9
        assert spy.call_count == closed_form
        assert peak < 8 * n_candidates ** 2  # 85.5 MB, 250 MB
        if closed_form:
            # eight float64 per cell of each of the n + 2 planes, padded to
            # about four times the grid
            assert peak < 64 * (len(state.measurements) + 2) * 4 * grid.point_count


def large_grid_config():
    """The benchmark's large_grid campaign: the 5,600-cell grid from its 3x4
    design, 8 picks."""
    design = evenly_spaced_design(LARGE_GRID, 3, 4)
    return ExperimentConfig(LARGE_GRID, 4.0, tuple(design), max_iterations=8, seed=7)


def workspace_bytes(workspace):
    return sum(storage.nbytes for storage in workspace._slots.values())


@pytest.mark.parametrize("config", [study_config(seed=7), large_grid_config()],
                         ids=["criterion-6", "5600-cells"])
def test_reusing_the_workspace_is_invisible(config):
    """At every pick of a campaign, walked on every pick and then in closed
    form on every pick, the scores in the campaign's workspace equal, bit for
    bit, those in a fresh one.  The flagged targets shrink at some picks,
    and the closed form's count of transform batches grows at others."""
    fast_scores = adaptive._fast_scores
    for per_row in (10**9, 0):
        picks = []

        def compared(state, ev, indicators, workspace):
            scores = fast_scores(state, ev, indicators, workspace)
            assert np.array_equal(scores, fast_scores(state, ev, indicators, adaptive._Workspace()))
            batches = -(-(len(state.measurements) + 1) // adaptive._FFT_PLANES)
            picks.append((int(indicators.sum()), batches))
            return scores

        with mock.patch.multiple(adaptive, _fast_scores=compared, _CLOSED_FORM_TARGETS_PER_ROW=per_row):
            state = run_experiment(config, SyntheticLogisticOracle(noise_std=NOISE_STD, seed=7))
        assert len(picks) == state.iteration == config.max_iterations
        flagged, batches = zip(*picks)
        assert any(later < earlier for earlier, later in zip(flagged, flagged[1:]))
        assert any(later > earlier for earlier, later in zip(batches, batches[1:]))


def test_interleaved_campaigns_on_one_workspace_match_their_runs_alone(unit_grid_5x5):
    """Criterion 6's campaign and one on a 5 x 5 unit grid, stepped in turn
    through one workspace, so that its arrays change shape at every pick,
    record the histories that each records alone."""
    design = tuple(evenly_spaced_design(unit_grid_5x5, 2, 2))
    runs = [(study_config(seed=7), SyntheticLogisticOracle(noise_std=NOISE_STD, seed=7)),
            (ExperimentConfig(unit_grid_5x5, 5.5, design, max_iterations=10, seed=7),
             SyntheticLogisticOracle(boundary_ratio=1.0, noise_std=NOISE_STD, seed=7))]
    alone = [run_experiment(config, oracle).history for config, oracle in runs]
    assert [len(history) for history in alone] == [50, 10]
    workspace = adaptive._Workspace()
    states = [ExperimentState(config) for config, _ in runs]
    stepping = [0, 1]
    while stepping:
        for i in list(stepping):
            suggestion, _ = adaptive._suggest(states[i], workspace)
            if suggestion is None:
                stepping.remove(i)
                continue
            value = runs[i][1].evaluate(suggestion.location)
            record_appended_measurement(states[i], Measurement(suggestion.location, value))
    assert [state.history for state in states] == alone


def traced_peak(call, *args):
    """(result, peak bytes traced while call ran), np.fft's arrays excepted:
    tracing stops around each np.fft call, so what a transform allocates,
    and its freeing later, is not counted."""
    segment_peaks = []

    def untraced(transform):
        def call_untraced(*args, **kwargs):
            segment_peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            try:
                return transform(*args, **kwargs)
            finally:
                tracemalloc.start()
        return call_untraced

    transforms = {name: untraced(getattr(np.fft, name)) for name in ("rfft2", "rfft", "fft", "ifft", "irfft")}
    tracemalloc.start()
    try:
        with mock.patch.multiple(np.fft, **transforms):
            result = call(*args)
        segment_peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return result, max(segment_peaks)


def test_a_warm_pick_allocates_nothing_large():
    """From the second pick of a campaign on, a walked pick of criterion 6
    allocates less than 64 KB beyond the iteration buffers numpy's ufuncs
    take for a broadcast operand, and a closed-form pick of the 5,600-cell
    campaign, its np.fft arrays aside, no more than that and 16 vectors of
    the candidate count.  Picks at which the workspace grows are excepted,
    and they are few: it grows geometrically.  Taking one fresh (n+1) x U
    gather, or one fresh walk block, breaks either bound."""
    block = np.ones((128, adaptive._SCORE_BLOCK_ELEMENTS // 128))
    column, row = np.ones((len(block), 1)), np.ones(block.shape[1])
    buffers = max(traced_peak(np.add, column.astype(np.int64), row.astype(np.int64), block.view(np.int64))[1],
                  traced_peak(np.divide, block, column, block)[1],
                  traced_peak(np.subtract, row, block, block)[1])
    fast_scores = adaptive._fast_scores
    for config, walked in ((study_config(seed=7), True), (large_grid_config(), False)):
        picks = []

        def measured(state, ev, indicators, workspace):
            before = workspace_bytes(workspace)
            scores, peak = traced_peak(fast_scores, state, ev, indicators, workspace)
            closed = indicators.sum() >= adaptive._CLOSED_FORM_TARGETS_PER_ROW * len(ev.solution)
            picks.append((closed, workspace_bytes(workspace) > before, peak, len(scores)))
            return scores

        with mock.patch.object(adaptive, "_fast_scores", measured):
            run_experiment(config, SyntheticLogisticOracle(noise_std=NOISE_STD, seed=7))
        assert sum(grew for _, grew, _, _ in picks) <= max(3, len(picks) // 5)
        warm = [(peak, n) for closed, grew, peak, n in picks[1:] if closed != walked and not grew]
        assert len(warm) >= len(picks) // 2
        for peak, n in warm:
            assert peak < 2**16 + buffers + (0 if walked else 16 * 8 * n)


def test_rc_score_matches_batch(unit_grid_5x5):
    rng = np.random.default_rng(3)
    ms = random_measurements(rng, unit_grid_5x5, 5)
    config = ExperimentConfig(grid=unit_grid_5x5, threshold=4.0,
                              initial_design=tuple(m.location for m in ms))
    state = ExperimentState(config=config, measurements=list(ms), model=SPH)
    candidates, scores = candidate_scores(state)
    for i in (0, 7, len(candidates) - 1):
        assert rc_score(candidates[i], state) == pytest.approx(scores[i], abs=1e-10)


def test_rc_score_rejects_measured_candidate(unit_grid_5x5):
    rng = np.random.default_rng(3)
    ms = random_measurements(rng, unit_grid_5x5, 5)
    config = ExperimentConfig(grid=unit_grid_5x5, threshold=4.0,
                              initial_design=tuple(m.location for m in ms))
    state = ExperimentState(config=config, measurements=list(ms), model=SPH)
    with pytest.raises(ConfigurationError):
        rc_score(ms[0].location, state)


@pytest.mark.parametrize("n_flags", [0, 1, 20, 22, 40])
def test_explicit_indicators_must_match_the_unmeasured_points(unit_grid_5x5, n_flags):
    """Both scorers reject a flag array that does not line up with the 21
    unmeasured points, instead of indexing past it or misaligning it."""
    ms = random_measurements(np.random.default_rng(12), unit_grid_5x5, 4)
    config = ExperimentConfig(grid=unit_grid_5x5, threshold=4.0,
                              initial_design=tuple(m.location for m in ms))
    state = ExperimentState(config=config, measurements=list(ms), model=SPH)
    candidates, _ = candidate_scores(state)
    assert len(candidates) == 21
    flags = [True] * n_flags
    with pytest.raises(ConfigurationError):
        rc_score(candidates[0], state, indicators=flags)
    with pytest.raises(ConfigurationError):
        candidate_scores(state, indicators=flags)


def test_scores_never_exceed_current_uncertainty(unit_grid_5x5):
    """Measuring can only shrink the variance mass it is scored on."""
    rng = np.random.default_rng(12)
    ms = random_measurements(rng, unit_grid_5x5, 4)
    config = ExperimentConfig(grid=unit_grid_5x5, threshold=4.0,
                              initial_design=tuple(m.location for m in ms))
    state = ExperimentState(config=config, measurements=list(ms), model=SPH)
    system = assemble_system(ms, SPH, unit_grid_5x5)
    measured = {m.location for m in ms}
    candidates = [c for c in build_grid(unit_grid_5x5) if c not in measured]
    current = solve_grid(system, candidates).variances
    ones = np.ones(len(candidates), dtype=bool)
    _, scores = candidate_scores(state, indicators=ones)
    assert np.all(scores <= current.sum() + 1e-9)
    assert np.all(scores >= -1e-12)


def test_score_targets_indicator_cluster():
    # 1-D layout: uncertainty concentrated near m=2 should pull the pick there
    grid = GridSpec(0.0, 10.0, 1.0, 1.0, 1.0, 1.0, k_scale=1.0)
    ms = [Measurement(Combination(0.0, 1.0), 2.0), Measurement(Combination(10.0, 1.0), 6.0)]
    config = ExperimentConfig(grid=grid, threshold=4.0,
                              initial_design=tuple(m.location for m in ms))
    state = ExperimentState(config=config, measurements=list(ms), model=SPH)
    candidates, _ = candidate_scores(state)
    indicators = np.array([c.m in (1.0, 2.0, 3.0) for c in candidates])
    _, scores = candidate_scores(state, indicators=indicators)
    assert candidates[int(np.argmin(scores))].m == 2.0


def test_select_next_breaks_ties_row_major():
    """On the 3 x 2 grid measured along m = 2, the four candidates mirror
    each other across both axes: they straddle and score identically by
    symmetry, so the row-major first, (1, 1), wins.  The walk scores them
    equal to the bit; the closed form, which sums in another order, within
    TIE_TOL of each other, and the tie still goes to (1, 1)."""
    grid = GridSpec(1.0, 3.0, 1.0, 1.0, 2.0, 1.0, k_scale=1.0)
    design = (Combination(2.0, 1.0), Combination(2.0, 2.0))
    config = ExperimentConfig(grid=grid, threshold=4.0, initial_design=design)
    state = ExperimentState(
        config=config,
        measurements=[Measurement(c, 4.0) for c in design],
        model=SPH,
    )
    candidates, scores = candidate_scores(state)
    assert len(candidates) == 4 and len(set(scores.tolist())) == 1
    assert select_next(state) == Combination(1.0, 1.0)
    with mock.patch.object(adaptive, "_CLOSED_FORM_TARGETS_PER_ROW", 0), \
            mock.patch.object(adaptive, "_closed_form_scores", wraps=adaptive._closed_form_scores) as spy:
        _, scores = candidate_scores(state)
        assert scores.tolist() == pytest.approx([scores[0]] * 4, rel=adaptive.TIE_TOL, abs=0)
        assert select_next(state) == Combination(1.0, 1.0)
    assert spy.call_count == 2


# --- stopping ----------------------------------------------------------------

def test_check_stop_natural_when_nothing_uncertain():
    config = small_config(threshold=1000.0, max_iterations=0)
    rng = np.random.default_rng(1)
    ms = random_measurements(rng, config.grid, 5)
    # the measured points are the whole initial design, so check_stop evaluates the fit
    config = small_config(threshold=1000.0, max_iterations=0,
                          initial_design=tuple(m.location for m in ms))
    state = ExperimentState(config=config, measurements=list(ms), model=SPH)
    # natural wins even though the budget is also exhausted
    assert check_stop(state) == STOP_NATURAL


def test_check_stop_budget():
    config = small_config(max_iterations=0)
    oracle = SyntheticLogisticOracle(noise_std=0.0)
    ms = [Measurement(c, oracle.evaluate(c)) for c in config.initial_design]
    state = ExperimentState(config=config, measurements=ms, model=SPH)
    assert check_stop(state) == STOP_BUDGET


def test_check_stop_continue():
    config = small_config()
    oracle = SyntheticLogisticOracle(noise_std=0.0)
    ms = [Measurement(c, oracle.evaluate(c)) for c in config.initial_design]
    state = ExperimentState(config=config, measurements=ms, model=SPH)
    assert check_stop(state) is None


# --- the full loop -----------------------------------------------------------

def test_run_stops_at_budget_with_exact_count():
    config = small_config(max_iterations=6)
    state = run_experiment(config, replay_oracle(config))
    assert state.stop_reason == STOP_BUDGET
    assert len(state.measurements) == len(config.initial_design) + 6
    assert [rec.iteration for rec in state.history] == [1, 2, 3, 4, 5, 6]
    assert state.iteration == 6
    locations = [m.location for m in state.measurements]
    assert len(set(locations)) == len(locations)
    assert state.model is not None


def test_run_stops_naturally_with_unreachable_threshold():
    config = small_config(threshold=500.0)
    state = run_experiment(config, replay_oracle(config))
    assert state.stop_reason == STOP_NATURAL
    assert state.iteration == 0
    assert len(state.measurements) == len(config.initial_design)
    assert state.history == []


def test_run_records_scores_and_models():
    config = small_config(max_iterations=3)
    state = run_experiment(config, replay_oracle(config))
    for rec in state.history:
        assert rec.rc_score >= 0.0
        assert rec.model.family in ("bounded_linear", "spherical", "exponential", "gaussian")
        assert rec.n_uncertain > 0
        assert rec.location in {m.location for m in state.measurements}


def test_run_is_deterministic():
    config = small_config(max_iterations=5)
    s1 = run_experiment(config, replay_oracle(config))
    s2 = run_experiment(config, replay_oracle(config))
    assert audit_log_text(s1.history) == audit_log_text(s2.history)
    assert [(m.location, m.response) for m in s1.measurements] == \
           [(m.location, m.response) for m in s2.measurements]


def test_run_rejects_foreign_state():
    config = small_config()
    other = small_config(max_iterations=9)
    with pytest.raises(ConfigurationError):
        run_experiment(config, replay_oracle(config), state=ExperimentState(config=other))


def test_interrupted_run_resumes_identically():
    """A run interrupted after any on_update call (each initial-design
    append, each adaptive iteration, the stop) resumes from that call's
    persisted snapshot to exactly the uninterrupted run, on the synthetic
    surface and on all-equal responses, whose every fit is degenerate."""
    config = small_config(max_iterations=5)

    for oracle in (replay_oracle, flat_oracle):
        full = run_experiment(config, oracle(config))

        snapshots = []

        def persist(st):
            snapshots.append(json.dumps(state_to_dict(st, {"kind": "synthetic_logistic"})))

        run_experiment(config, oracle(config), on_update=persist)
        assert len(snapshots) == len(full.measurements) + 1

        for snapshot in snapshots:
            restored, _ = state_from_dict(json.loads(snapshot))
            resumed = run_experiment(config, oracle(config), state=restored)

            assert resumed.history == full.history
            assert [(m.location, m.response) for m in resumed.measurements] == \
                   [(m.location, m.response) for m in full.measurements]
            assert resumed.stop_reason == full.stop_reason
    assert full.model.is_degenerate and full.stop_reason == STOP_BUDGET


def test_planner_lists_no_grid_of_combinations():
    """A campaign plans on lattice indices: it never builds the grid as
    Combinations and never solves Combination targets, not even to
    re-assemble the candidates that fall back from the fast scores.  A
    Combination is made only for each pick and for each re-assembled
    candidate's hypothetical measurement, never for a target."""
    config = small_config(max_iterations=3)
    oracle = replay_oracle(config)
    # a cut of 3.0 sends the lowest-variance tenth or so of the candidates
    # to re-assembly on this grid
    with mock.patch.object(adaptive, "build_grid", side_effect=AssertionError("grid built")), \
            mock.patch.object(adaptive, "FAST_PATH_VARIANCE_MIN", 3.0), \
            mock.patch.object(adaptive, "solve_grid", side_effect=AssertionError("solve_grid")), \
            mock.patch.object(GridSpec, "point", autospec=True, side_effect=GridSpec.point) as points, \
            mock.patch.object(adaptive, "_score_by_reassembly",
                              wraps=adaptive._score_by_reassembly) as rescored:
        state = run_experiment(config, oracle)
    assert state.iteration == 3
    assert rescored.call_count > 0
    assert points.call_count == state.iteration + rescored.call_count


def test_oracle_miss_aborts_with_partial_state():
    config = small_config()
    # withhold one initial-design point so the first phase trips
    missing = config.initial_design[2]
    oracle = replay_oracle(config, exclude=[missing])
    with pytest.raises(OracleMissError) as exc:
        run_experiment(config, oracle)
    assert exc.value.location == missing
    assert exc.value.state is not None
    assert len(exc.value.state.measurements) == 2  # the points before the miss


DEGENERATE_MESSAGE = r"degenerate \(nugget and sill 0\)"


def nearest_measurement_distances(config, measured):
    """(unmeasured grid points in row-major order, each one's scaled distance
    to its nearest point of measured), from coordinates."""
    grid = build_grid(config.grid)
    unmeasured = [c for c in grid if c not in measured]
    d = cdist(scaled_coords(unmeasured, config.grid), scaled_coords(list(measured), config.grid))
    return unmeasured, d.min(axis=1)


def assert_no_information_campaign(state):
    """Every pick of a campaign under degenerate fits is the
    unmeasured point farthest from every earlier measurement, ties to the
    first in row-major order, scored 0 while every unmeasured point was
    uncertain.  At its end, every unmeasured point is labelled uncertain
    and the largest region holds measured points only."""
    config = state.config
    n0 = len(state.measurements) - state.iteration
    for record in state.history:
        measured = {m.location for m in state.measurements[:n0 + record.iteration - 1]}
        unmeasured, nearest = nearest_measurement_distances(config, measured)
        farthest = unmeasured[int(np.argmax(nearest >= nearest.max() * (1 - 1e-9)))]
        assert record.location == farthest
        assert record.model.is_degenerate
        assert record.rc_score == 0.0
        assert record.n_uncertain == len(unmeasured)

    ev = adaptive._fit(state)
    measured = ev.system.flat
    codes = ev.codes.reshape(-1)
    assert (np.delete(codes, measured) == LABELS.index(UNCERTAIN)).all()
    region = largest_region(ev.codes, config.grid.m_values(), config.grid.k_values())
    assert set(region.rows * config.grid.k_count + region.cols) <= set(measured.tolist())


def test_degenerate_model_behaviour():
    """All-equal responses fit a variogram with no variability, which says
    nothing away from the measurements: every unmeasured point stays
    uncertain, the picks fill space until the budget stops the run, and
    re-assembly scoring raises, as kriging refuses the degenerate system."""
    config = small_config()
    state = run_experiment(config, flat_oracle(config))
    assert state.model.is_degenerate
    assert state.stop_reason == STOP_BUDGET and state.iteration == config.max_iterations
    assert check_stop(state) == STOP_BUDGET
    assert_no_information_campaign(state)

    candidates, scores = candidate_scores(state)
    unmeasured, nearest = nearest_measurement_distances(config, state.measured_locations())
    assert candidates == unmeasured
    np.testing.assert_allclose(scores, nearest.max() - nearest, rtol=0, atol=1e-12)
    ones = np.ones(len(candidates), dtype=bool)
    np.testing.assert_array_equal(candidate_scores(state, indicators=ones)[1], scores)
    assert select_next(state) == candidates[int(np.argmin(scores))]
    for call in (lambda: rc_score(candidates[0], state),
                 lambda: rc_score(candidates[7], state, indicators=ones),
                 lambda: predict_grid(state.measurements, state.model, config.grid, candidates)):
        with pytest.raises(NumericalFailureError, match=DEGENERATE_MESSAGE):
            call()


@pytest.mark.parametrize("design, flag", [
    (tuple(study_config().initial_design), FLAG_DEGENERATE),
    ((Combination(1.0, 10.0), Combination(5.0, 40.0)), FLAG_LOW_INFORMATION),
], ids=["study-design", "two-points"])
def test_equal_responses_certify_nothing_unmeasured(design, flag):
    """On the study grid (threshold 4.0), all responses at 3.0: the 3x4
    design first fits a degenerate variogram, and the 2-point design the
    low-information fallback with sill 0.  Neither claims a cell it did not
    measure: each campaign runs to its budget, every unmeasured point
    uncertain at every step, picking space-filling."""
    config = replace(study_config(threshold=4.0, max_iterations=4), initial_design=design)
    state = run_experiment(config, flat_oracle(config))
    assert state.history[0].model.flag == flag
    assert state.stop_reason == STOP_BUDGET and state.iteration == 4
    assert_no_information_campaign(state)


# --- interactive stepping ----------------------------------------------------

def test_suggest_walks_initial_design_first():
    config = small_config()
    state = ExperimentState(config=config)
    suggestion, stop = suggest_next(state)
    assert stop is None
    assert suggestion.phase == "initial"
    assert suggestion.location == config.initial_design[0]
    assert state.pending is suggestion


def test_append_completes_pending_initial_point():
    config = small_config()
    state = ExperimentState(config=config)
    suggestion, _ = suggest_next(state)
    record_appended_measurement(state, Measurement(suggestion.location, 5.0))
    assert len(state.measurements) == 1
    assert state.history == []  # initial points carry no audit entry
    assert state.pending is None


def test_append_adaptive_point_extends_history():
    config = small_config()
    oracle = replay_oracle(config)
    state = ExperimentState(config=config)
    for point in config.initial_design:
        record_appended_measurement(state, Measurement(point, oracle.evaluate(point)))
    suggestion, stop = suggest_next(state)
    assert stop is None
    assert suggestion.phase == "adaptive"
    assert suggestion.rc_score >= 0.0
    record_appended_measurement(state, Measurement(suggestion.location, 3.3))
    assert state.iteration == 1
    assert len(state.history) == 1
    assert state.history[0].location == suggestion.location


def test_append_rejects_unsolicited_point():
    config = small_config()
    state = ExperimentState(config=config)
    suggest_next(state)
    stray = Combination(1.5, 7.0)
    assert stray not in config.initial_design
    with pytest.raises(ConfigurationError):
        record_appended_measurement(state, Measurement(stray, 3.0))


def test_append_rejects_duplicate():
    config = small_config()
    state = ExperimentState(config=config)
    point = config.initial_design[0]
    record_appended_measurement(state, Measurement(point, 5.0))
    with pytest.raises(DuplicateLocationError):
        record_appended_measurement(state, Measurement(point, 5.0))


def test_suggest_reports_natural_stop():
    config = small_config(threshold=500.0)
    oracle = replay_oracle(config)
    state = ExperimentState(config=config)
    for point in config.initial_design:
        record_appended_measurement(state, Measurement(point, oracle.evaluate(point)))
    suggestion, stop = suggest_next(state)
    assert suggestion is None
    assert stop == STOP_NATURAL
    assert state.stop_reason == STOP_NATURAL
    assert state.pending is None


def test_suggest_reports_budget_stop():
    config = small_config(max_iterations=0)
    oracle = replay_oracle(config)
    state = ExperimentState(config=config)
    for point in config.initial_design:
        record_appended_measurement(state, Measurement(point, oracle.evaluate(point)))
    suggestion, stop = suggest_next(state)
    assert suggestion is None
    assert stop == STOP_BUDGET


def step_append_to_stop(config, oracle):
    """The interactive loop driven by hand: suggest, measure, append, repeat."""
    state = ExperimentState(config=config)
    while True:
        suggestion, stop = suggest_next(state)
        if stop is not None:
            return state
        location = suggestion.location
        record_appended_measurement(state, Measurement(location, oracle.evaluate(location)))


@pytest.mark.parametrize("config, make_oracle", [
    (small_config(), lambda: replay_oracle(small_config())),
    (study_config(max_iterations=12, seed=9),
     lambda: SyntheticLogisticOracle(noise_std=NOISE_STD, seed=9)),
], ids=["small", "criterion-8"])
def test_step_append_loop_equals_run_experiment(config, make_oracle):
    batch = run_experiment(config, make_oracle())
    stepped = step_append_to_stop(config, make_oracle())
    assert stepped.history == batch.history
    assert stepped.measurements == batch.measurements
    assert stepped.stop_reason == batch.stop_reason
    assert audit_log_text(stepped.history) == audit_log_text(batch.history)


def test_views_after_an_append_use_the_current_measurements():
    """An append clears the fit, so select_next and check_stop refit and
    agree with the next suggest_next, pick for pick, to the stop."""
    config = study_config(max_iterations=12)
    oracle = SyntheticLogisticOracle(noise_std=NOISE_STD, seed=7)
    state = ExperimentState(config=config)
    for point in config.initial_design:
        record_appended_measurement(state, Measurement(point, oracle.evaluate(point)))
    while True:
        pick, stop_seen = select_next(state), check_stop(state)
        suggestion, stop = suggest_next(state)
        assert stop_seen == stop
        if stop is not None:
            break
        assert pick == suggestion.location
        record_appended_measurement(state, Measurement(suggestion.location,
                                                       oracle.evaluate(suggestion.location)))
        assert state.model is None
    assert state.iteration == 12


@pytest.mark.parametrize("n_measured", [1, 6])
def test_views_follow_an_incomplete_initial_design(monkeypatch, n_measured):
    """Until the initial design is measured, select_next is its next point
    and check_stop continues, as suggest_next does, candidate_scores and
    rc_score raise InsufficientDataError naming that point, and none fits."""
    config = study_config()
    oracle = SyntheticLogisticOracle(noise_std=NOISE_STD, seed=7)
    design = config.initial_design
    state = ExperimentState(config=config,
                            measurements=[Measurement(p, oracle.evaluate(p)) for p in design[:n_measured]])
    monkeypatch.setattr(adaptive, "_fit", lambda state: pytest.fail("fitted before the design was measured"))
    assert select_next(state) == design[n_measured]
    assert check_stop(state) is None
    point = design[n_measured]
    named = rf"\({point.m}, {point.k}\) is not measured"
    with pytest.raises(InsufficientDataError, match=named):
        candidate_scores(state)
    with pytest.raises(InsufficientDataError, match=named):
        rc_score(point, state)
    assert suggest_next(state) == (PendingSuggestion(point), None)


def test_every_entry_point_krigs_with_the_states_model(monkeypatch):
    """The views and suggest_next reach the grid by one route: on a state
    with no model the first of them fits once and stores the fit, and every
    later one krigs with it; a model already on the state is used as it is."""
    config = study_config()
    oracle = SyntheticLogisticOracle(noise_std=NOISE_STD, seed=7)
    measurements = [Measurement(p, oracle.evaluate(p)) for p in config.initial_design]
    fits = []
    monkeypatch.setattr(adaptive, "empirical_variogram",
                        lambda *args: fits.append(1) or empirical_variogram(*args))
    state = ExperimentState(config=config, measurements=list(measurements))
    assert check_stop(state) is None
    fitted = state.model
    assert fitted == select_model(empirical_variogram(measurements, config.grid))
    candidates, _ = candidate_scores(state)
    rc_score(candidates[0], state)
    assert select_next(state) == suggest_next(state)[0].location
    assert state.pending.model is state.model is fitted
    assert len(fits) == 1
    state = ExperimentState(config=config, measurements=list(measurements), model=SPH)
    assert suggest_next(state)[0].model is state.model is SPH
    assert len(fits) == 1


# --- admissible variogram family ---------------------------------------------

def _spy_evaluate(monkeypatch):
    """Record each _evaluate call as (model, error or None)."""
    calls = []
    evaluate = adaptive._evaluate

    def spy(state, model):
        try:
            ev = evaluate(state, model)
        except NumericalFailureError as exc:
            calls.append((model, exc))
            raise
        calls.append((model, None))
        return ev

    monkeypatch.setattr(adaptive, "_evaluate", spy)
    return calls


def refuse_family(monkeypatch, family):
    """Make every lattice solve under `family` raise NumericalFailureError."""
    evaluate = adaptive._evaluate

    def refuse(state, model):
        if model.family == family:
            raise NumericalFailureError(f"{family} refused")
        return evaluate(state, model)

    monkeypatch.setattr(adaptive, "_evaluate", refuse)


def test_larger_design_campaign_skips_inadmissible_fits_to_its_stop(monkeypatch):
    """A bounded-linear fit (a valid variogram only in 1-D) leaves negative
    variances on the study grid's 6x8 design; the planner krigs with the next
    family instead of aborting, and records the model it kriged with."""
    config = replace(study_config(seed=0),
                     initial_design=tuple(evenly_spaced_design(study_config().grid, 6, 8)))
    calls = _spy_evaluate(monkeypatch)
    state = run_experiment(config, SyntheticLogisticOracle(noise_std=NOISE_STD, seed=0))
    assert state.stop_reason == STOP_BUDGET
    assert len(state.measurements) == 48 + 50
    skipped = [model for model, exc in calls if exc is not None]
    assert skipped and {model.family for model in skipped} == {"bounded_linear"}
    kriged = [model for model, exc in calls if exc is None]
    assert [record.model for record in state.history] == kriged[:-1]
    assert state.model == kriged[-1]


def test_planner_takes_the_lowest_mse_admissible_family(monkeypatch):
    config = study_config()
    oracle = SyntheticLogisticOracle(noise_std=NOISE_STD, seed=7)
    state = ExperimentState(config=config, measurements=[
        Measurement(p, oracle.evaluate(p)) for p in config.initial_design])
    empirical = empirical_variogram(state.measurements, config.grid)
    fits = sorted((fit_model(empirical, family) for family in FAMILIES),
                  key=lambda m: (m.fit_mse, FAMILIES.index(m.family)))
    assert fits[0] == select_model(empirical)
    refuse_family(monkeypatch, fits[0].family)
    assert check_stop(state) is None
    assert candidate_scores(state)[0]
    suggestion, stop = suggest_next(state)
    assert stop is None
    assert state.model == suggestion.model == fits[1]


def test_no_admissible_family_raises_the_first_failure(monkeypatch):
    from krigplan import kriging

    config = study_config()
    oracle = SyntheticLogisticOracle(noise_std=NOISE_STD, seed=7)
    state = ExperimentState(config=config, measurements=[
        Measurement(p, oracle.evaluate(p)) for p in config.initial_design])
    calls = _spy_evaluate(monkeypatch)
    monkeypatch.setattr(kriging, "VARIANCE_FLOOR", 1e9)
    with pytest.raises(NumericalFailureError) as raised:
        suggest_next(state)
    assert raised.value is calls[0][1]
    assert calls[0][0] == select_model(empirical_variogram(state.measurements, config.grid))
    assert sorted(model.family for model, _ in calls) == sorted(FAMILIES)
    assert all(exc is not None for _, exc in calls)
    assert state.model is None


def test_a_fallback_fit_is_evaluated_once(monkeypatch):
    """Below 3 bins every family's fit is the same spherical fallback, so
    when its solve fails there is no other model to try: one evaluation,
    then the failure."""
    from krigplan import kriging

    grid = study_config().grid
    config = replace(study_config(), initial_design=(grid.point(0), grid.point(grid.point_count - 1)))
    oracle = SyntheticLogisticOracle(noise_std=NOISE_STD, seed=7)
    state = ExperimentState(config=config, measurements=[
        Measurement(p, oracle.evaluate(p)) for p in config.initial_design])
    assert empirical_variogram(state.measurements, config.grid).n_bins < 3
    calls = _spy_evaluate(monkeypatch)
    monkeypatch.setattr(kriging, "VARIANCE_FLOOR", 1e9)
    with pytest.raises(NumericalFailureError) as raised:
        suggest_next(state)
    assert [(model.flag, exc) for model, exc in calls] == [("low_information", raised.value)]
    assert state.model is None
