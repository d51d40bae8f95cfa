import contextlib
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krigplan.adaptive as adaptive

from krigplan import (
    Combination,
    ConfigurationError,
    DuplicateLocationError,
    ExperimentConfig,
    ExperimentState,
    GridSpec,
    Measurement,
    OracleMissError,
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

from conftest import random_measurements
from test_acceptance import NOISE_STD, study_config

SPH = VariogramModel("spherical", 0.025, 2.0, 0.5)


def forced_pool():
    """Score every iteration's blocks on a two-worker pool, however few."""
    return mock.patch.multiple(adaptive, _WORKERS=2, _POOL_BLOCKS_PER_WORKER=0)


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
    with pytest.raises(ConfigurationError):
        ExperimentConfig(grid=grid, threshold=4.0,
                         initial_design=(Combination(1.5, 1.0),))  # off grid
    with pytest.raises(DuplicateLocationError):
        ExperimentConfig(grid=grid, threshold=4.0,
                         initial_design=(design[0], design[0]))  # duplicate


def test_state_history_length_checked():
    config = small_config()
    with pytest.raises(ConfigurationError):
        ExperimentState(config=config, iteration=2, history=[])


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
    set, gives bit-identical scores whatever the block size and whether the
    blocks run on the pool, and agrees when some candidates take the
    re-assembly path."""
    nm, nk = data.draw(st.integers(3, 8)), data.draw(st.integers(3, 10))
    grid = GridSpec(1.0, float(nm), 1.0, 1.0, float(nk), 1.0, k_scale=1.0)
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

    by_block = []
    with mock.patch.object(adaptive, "FAST_PATH_VARIANCE_MIN", variance_min):
        # blocks of 16 and 32 candidate rows, so the candidates span several
        # blocks, then the production size
        n_targets = max(1, int(indicators.sum()))
        for block in (16 * n_targets, 32 * n_targets, 2**16):
            for pool in (contextlib.nullcontext(), forced_pool()):
                with mock.patch.object(adaptive, "_SCORE_BLOCK_ELEMENTS", block), pool, \
                        mock.patch.object(adaptive, "_score_by_reassembly",
                                          wraps=adaptive._score_by_reassembly) as spy:
                    got_candidates, scores = candidate_scores(state, indicators=indicators)
                assert spy.call_count == rescored
                by_block.append(scores)

    assert got_candidates == candidates
    np.testing.assert_allclose(by_block[-1], expected, atol=1e-10)
    for scores in by_block[:-1]:
        assert np.array_equal(scores, by_block[-1])


def test_scoring_memory_stays_below_one_candidate_matrix():
    """Scoring 3,348 candidates against all of them as targets never holds a
    P x P float64 matrix, in the calling thread or on the pool."""
    grid = GridSpec(0.5, 6.0, 0.1, 1.0, 60.0, 1.0)
    design = evenly_spaced_design(grid, 3, 4)
    oracle = SyntheticLogisticOracle(noise_std=0.0)
    ms = [Measurement(c, oracle.evaluate(c)) for c in design]
    config = ExperimentConfig(grid=grid, threshold=4.0, initial_design=tuple(design))
    state = ExperimentState(config=config, measurements=ms, model=SPH)
    n_candidates = grid.point_count - len(ms)
    assert n_candidates == 3348
    for pool in (contextlib.nullcontext(), forced_pool()):
        tracemalloc.start()
        try:
            with pool:
                candidate_scores(state, indicators=np.ones(n_candidates, dtype=bool))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_candidates ** 2  # 85.5 MB


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
    grid = GridSpec(1.0, 3.0, 1.0, 1.0, 1.0, 1.0, k_scale=1.0)
    config = ExperimentConfig(grid=grid, threshold=4.0,
                              initial_design=(Combination(2.0, 1.0),))
    state = ExperimentState(
        config=config,
        measurements=[Measurement(Combination(2.0, 1.0), 4.0)],
        model=SPH,
    )
    # both flanking points straddle and score identically by symmetry
    assert select_next(state) == Combination(1.0, 1.0)


# --- stopping ----------------------------------------------------------------

def test_check_stop_natural_when_nothing_uncertain():
    config = small_config(threshold=1000.0, max_iterations=0)
    rng = np.random.default_rng(1)
    ms = random_measurements(rng, config.grid, 5)
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
    persisted snapshot to exactly the uninterrupted run."""
    config = small_config(max_iterations=5)

    full = run_experiment(config, replay_oracle(config))

    snapshots = []

    def persist(st):
        snapshots.append(json.dumps(state_to_dict(st, {"kind": "synthetic_logistic"})))

    run_experiment(config, replay_oracle(config), on_update=persist)
    assert len(snapshots) == len(full.measurements) + 1

    for snapshot in snapshots:
        restored, _ = state_from_dict(json.loads(snapshot))
        resumed = run_experiment(config, replay_oracle(config), state=restored)

        assert resumed.history == full.history
        assert [(m.location, m.response) for m in resumed.measurements] == \
               [(m.location, m.response) for m in full.measurements]
        assert resumed.stop_reason == full.stop_reason


def test_planner_lists_no_grid_of_combinations():
    """A campaign plans on lattice indices: it never builds the grid as
    Combinations, and solves Combination targets only to re-assemble the
    candidates that fall back from the fast scores."""
    config = small_config(max_iterations=3)
    oracle = replay_oracle(config)
    # a cut of 3.0 sends the lowest-variance tenth or so of the candidates
    # to re-assembly on this grid
    with mock.patch.object(adaptive, "build_grid", side_effect=AssertionError("grid built")), \
            mock.patch.object(adaptive, "FAST_PATH_VARIANCE_MIN", 3.0), \
            mock.patch.object(adaptive, "solve_grid", wraps=adaptive.solve_grid) as solves, \
            mock.patch.object(adaptive, "_score_by_reassembly",
                              wraps=adaptive._score_by_reassembly) as rescored:
        state = run_experiment(config, oracle)
    assert state.iteration == 3
    assert rescored.call_count > 0
    assert solves.call_count == rescored.call_count


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


def test_degenerate_model_behaviour():
    """All-equal responses fit a variogram with no variability: every cell is
    predicted with certainty, so nothing is uncertain and nothing scores."""
    config = small_config()
    flat = TableReplayOracle([ResponseRecord(c, 3.0) for c in build_grid(config.grid)])
    state = run_experiment(config, flat)
    assert state.model.is_degenerate
    assert state.stop_reason == STOP_NATURAL
    assert state.iteration == 0 and state.history == []
    assert check_stop(state) == STOP_NATURAL
    assert select_next(state) is None

    candidates, scores = candidate_scores(state)
    ones = np.ones(len(candidates), dtype=bool)
    np.testing.assert_array_equal(scores, np.zeros(len(candidates)))
    np.testing.assert_array_equal(candidate_scores(state, indicators=ones)[1],
                                  np.zeros(len(candidates)))
    assert rc_score(candidates[0], state) == 0.0
    assert rc_score(candidates[7], state, indicators=ones) == 0.0

    preds = predict_grid(state.measurements, state.model, config.grid, build_grid(config.grid))
    assert all(p.mean == 3.0 and p.variance == 0.0 and p.ci_lower == p.ci_upper == 3.0
               for p in preds)


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
