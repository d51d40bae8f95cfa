"""Candidate scoring in the calling thread.

Scoring starts no thread and no pool.  On iterations with many scoring
blocks, _pick screens the candidates with lattice FFT convolutions and scores
only the blocks that can hold the argmin; that must change no bit of any
pick, score or artifact, and the 720-cell study grid never takes the screen.
"""
import hashlib
import json
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import krigplan.adaptive as adaptive
import krigplan.kriging as kriging
from krigplan import (
    ExperimentConfig,
    ExperimentState,
    GridSpec,
    Measurement,
    SyntheticLogisticOracle,
    candidate_scores,
    evenly_spaced_design,
    record_appended_measurement,
    run_experiment,
    suggest_next,
)
from krigplan.cli import main
from krigplan.experiment_io import load_state

from test_acceptance import study_config
from test_adaptive import SPH
from test_byte_identity import EXPECTED, STUDY_GRID

SRC = Path(__file__).resolve().parent.parent / "src"


def study_state():
    """Criterion 6's initial design, all 708 candidates flagged: 8 blocks."""
    config = study_config()
    oracle = SyntheticLogisticOracle(noise_std=0.0)
    ms = [Measurement(c, oracle.evaluate(c)) for c in config.initial_design]
    return ExperimentState(config=config, measurements=ms, model=SPH)


def test_import_starts_no_thread():
    """Neither the import nor a screened pick on the 5,600-cell grid."""
    script = """
import threading
before = threading.active_count()
import krigplan
import krigplan.adaptive as adaptive
from krigplan import (ExperimentConfig, ExperimentState, GridSpec, Measurement,
                      SyntheticLogisticOracle, evenly_spaced_design, suggest_next)
assert threading.active_count() == before, threading.enumerate()
grid = GridSpec(0.5, 6.0, 0.1, 1.0, 100.0, 1.0, k_scale=0.1)
design = evenly_spaced_design(grid, 3, 4)
oracle = SyntheticLogisticOracle(noise_std=0.0)
config = ExperimentConfig(grid=grid, threshold=4.0, initial_design=tuple(design))
state = ExperimentState(config, [Measurement(c, oracle.evaluate(c)) for c in design])
screened = []
screen = adaptive._screen_scores
adaptive._screen_scores = lambda *args: screened.append(1) or screen(*args)
suggestion, _ = suggest_next(state)
assert suggestion is not None and screened == [1]
assert threading.active_count() == before, threading.enumerate()
"""
    subprocess.run([sys.executable, "-c", script], check=True, cwd=SRC)


def test_study_run_scores_in_the_calling_thread():
    """Criterion 6's campaign has too few blocks per iteration for the
    screen: every pick walks every block, and no thread starts."""
    before = threading.active_count()
    with mock.patch.object(adaptive, "_screen_scores", wraps=adaptive._screen_scores) as screen:
        state = run_experiment(study_config(), SyntheticLogisticOracle(noise_std=0.0))
    assert screen.call_count == 0
    assert state.iteration > 0
    assert threading.active_count() == before


def test_unforced_screen_matches_the_public_walk():
    """On the 5,600-cell grid after the 3x4 design the screen fires by
    itself, and each of three picks of suggest_next has the location and the
    score repr of the tied argmin of candidate_scores, which walks every
    block."""
    grid = GridSpec(0.5, 6.0, 0.1, 1.0, 100.0, 1.0, k_scale=0.1)
    design = evenly_spaced_design(grid, 3, 4)
    oracle = SyntheticLogisticOracle(noise_std=0.0)
    config = ExperimentConfig(grid=grid, threshold=4.0, initial_design=tuple(design))
    state = ExperimentState(config, [Measurement(c, oracle.evaluate(c)) for c in design])
    for _ in range(3):
        with mock.patch.object(adaptive, "_screen_scores",
                               wraps=adaptive._screen_scores) as screen:
            suggestion, _ = suggest_next(state)
        assert screen.call_count == 1
        candidates, scores = candidate_scores(state)
        best = adaptive._argmin_tied(scores)
        assert (suggestion.location, repr(suggestion.rc_score)) == \
            (candidates[best], repr(float(scores[best])))
        record_appended_measurement(
            state, Measurement(suggestion.location, oracle.evaluate(suggestion.location)))


def test_one_semivariance_table_per_fit_and_pick():
    """The fit's system evaluates the variogram once, into its table, and
    the pick reads that table, however many blocks, walked or screened."""
    state = study_state()
    ones = np.ones(708, dtype=bool)
    for block, screened in ((16 * 708, False), (2**16, False), (2**16, True)):
        with mock.patch.object(adaptive, "_SCORE_BLOCK_ELEMENTS", block), \
                mock.patch.object(adaptive, "_SCREEN_MIN_BLOCKS", 0 if screened else 10**9), \
                mock.patch.object(adaptive, "_screen_scores",
                                  wraps=adaptive._screen_scores) as screen, \
                mock.patch.object(kriging, "eval_model", wraps=kriging.eval_model) as spy:
            ev = adaptive._fit(state)
            ev.indicators = ones
            adaptive._pick(state, ev)
        assert screen.call_count == int(screened)
        assert spy.call_count == 1


def _cli_campaign(directory, capsys, seed, iterations):
    """CLI init -> run -> report of the byte-identity gate's config; returns
    the experiment file."""
    config = {
        "name": "gate",
        "grid": STUDY_GRID,
        "threshold": 4.0,
        "alpha": 0.1,
        "max_iterations": iterations,
        "seed": seed,
        "initial_design": {"lattice": [3, 4]},
        "oracle": {"kind": "synthetic_logistic"},
    }
    directory.mkdir()
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["init", "--config", str(config_path)]) == 0
    exp_path = Path(capsys.readouterr().out.strip())
    assert main(["run", str(exp_path)]) == 0
    assert main(["report", str(exp_path)]) == 0
    return exp_path


@pytest.mark.parametrize("seed, iterations", sorted(EXPECTED))
def test_screen_on_every_iteration_reproduces_the_recorded_artifacts(
        tmp_path, capsys, seed, iterations):
    walked = _cli_campaign(tmp_path / "walked", capsys, seed, iterations)
    with mock.patch.object(adaptive, "_SCREEN_MIN_BLOCKS", 0), \
            mock.patch.object(adaptive, "_screen_scores", wraps=adaptive._screen_scores) as spy:
        screened = _cli_campaign(tmp_path / "screened", capsys, seed, iterations)
    assert spy.call_count >= iterations  # at least one screen per pick
    digests = {name: hashlib.sha256((tmp_path / "screened" / name).read_bytes()).hexdigest()
               for name in EXPECTED[seed, iterations]}
    assert digests == EXPECTED[seed, iterations]
    walked_scores = [repr(rec.rc_score) for rec in load_state(walked)[0].history]
    screened_scores = [repr(rec.rc_score) for rec in load_state(screened)[0].history]
    assert len(screened_scores) == iterations
    assert screened_scores == walked_scores
