"""Candidate scoring in the calling thread, and where it takes the closed form.

Scoring starts no thread and no pool.  _fast_scores scores every candidate in
closed form, by lattice FFT convolutions, when the flagged targets number at
least _CLOSED_FORM_TARGETS_PER_ROW per row of the solved system, and walks
the candidate blocks below that: criterion 6's campaign takes the closed form
early and the walk late.  The closed form moves scores in the last bits
only: forced on every iteration it must give the same picks and the same
recorded artifacts.
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
from scipy import fft

import krigplan.adaptive as adaptive
import krigplan.kriging as kriging
from krigplan import ExperimentState, Measurement, SyntheticLogisticOracle, run_experiment
from krigplan.cli import main
from krigplan.experiment_io import load_state
from krigplan.grid import MAX_GRID_POINTS

from test_acceptance import NOISE_STD, study_config
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
    """Neither the import nor a closed-form pick on the 5,600-cell grid."""
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
closed = []
closed_form = adaptive._closed_form_scores
adaptive._closed_form_scores = lambda *args: closed.append(1) or closed_form(*args)
suggestion, _ = suggest_next(state)
assert suggestion is not None and closed == [1]
assert threading.active_count() == before, threading.enumerate()
"""
    subprocess.run([sys.executable, "-c", script], check=True, cwd=SRC)


def test_study_run_scores_in_the_calling_thread():
    """Criterion 6's campaign, closed-form and walked picks alike, starts no
    thread."""
    before = threading.active_count()
    state = run_experiment(study_config(), SyntheticLogisticOracle(noise_std=0.0))
    assert state.iteration > 0
    assert threading.active_count() == before


def test_criterion_6_takes_the_closed_form_early_and_the_walk_late():
    """Criterion 6's campaign flags many targets early and few late: each
    pick takes the closed form exactly when its U flagged targets number at
    least 10 (n + 1), which is 21 of its 50 picks, the first 17 among them,
    and the walk on the other 29, the last 28 among them.  On its 12-point
    design, 130 flagged targets take the closed form and 129 the walk."""
    config = study_config(seed=7)
    paths = []

    def spy(name):
        scorer = getattr(adaptive, name)
        return lambda *args: paths.append(name) or scorer(*args)

    with mock.patch.multiple(adaptive, _closed_form_scores=spy("_closed_form_scores"),
                             _walk_scores=spy("_walk_scores")):
        state = run_experiment(config, SyntheticLogisticOracle(noise_std=NOISE_STD, seed=7))
    assert state.iteration == 50
    closed = [path == "_closed_form_scores" for path in paths]
    n0 = len(config.initial_design)
    assert closed == [record.n_uncertain >= 10 * (n0 + i + 1)
                      for i, record in enumerate(state.history)]
    assert sum(closed) == 21 and all(closed[:17])
    assert not any(closed[-28:])

    state = study_state()
    ev = adaptive._evaluate(state, SPH)
    for flagged, path in ((130, "_closed_form_scores"), (129, "_walk_scores")):
        paths.clear()
        ev.indicators = np.arange(len(ev.unmeasured_idx)) < flagged
        with mock.patch.multiple(adaptive, _closed_form_scores=spy("_closed_form_scores"),
                                 _walk_scores=spy("_walk_scores")):
            adaptive._pick(state, ev)
        assert paths == [path]


def test_transform_lengths_match_scipy_next_fast_len():
    """The closed form pads each axis of 2 * count - 1 offsets to
    _next_fast_len of it: scipy.fft.next_fast_len's real-input length, the
    next 5-smooth integer, for every n up to 2 * MAX_GRID_POINTS."""
    ns = range(1, 2 * MAX_GRID_POINTS + 1)
    assert [adaptive._next_fast_len(n) for n in ns] == [fft.next_fast_len(n, real=True) for n in ns]


def test_one_semivariance_table_per_fit_and_pick():
    """The fit's system evaluates the variogram once, into its table, and
    the pick reads that table, however many blocks it walks, or in closed
    form."""
    state = study_state()
    ones = np.ones(708, dtype=bool)
    for block, per_row in ((16 * 708, 10**9), (2**16, 10**9), (2**16, 0)):
        with mock.patch.multiple(adaptive, _SCORE_BLOCK_ELEMENTS=block,
                                 _CLOSED_FORM_TARGETS_PER_ROW=per_row), \
                mock.patch.object(adaptive, "_closed_form_scores",
                                  wraps=adaptive._closed_form_scores) as closed, \
                mock.patch.object(kriging, "eval_model", wraps=kriging.eval_model) as spy:
            ev = adaptive._fit(state)
            ev.indicators = ones
            adaptive._pick(state, ev)
        assert closed.call_count == int(per_row == 0)
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
def test_closed_form_on_every_iteration_reproduces_the_recorded_artifacts(
        tmp_path, capsys, seed, iterations):
    """The closed form forced on every pick, and the walk forced on every
    pick, each give the recorded artifacts, the same locations, and scores
    within 1e-11 relative of each other."""
    runs = {}
    for name, per_row in (("walked", 10**9), ("closed", 0)):
        with mock.patch.object(adaptive, "_CLOSED_FORM_TARGETS_PER_ROW", per_row), \
                mock.patch.object(adaptive, "_closed_form_scores",
                                  wraps=adaptive._closed_form_scores) as spy:
            path = _cli_campaign(tmp_path / name, capsys, seed, iterations)
        assert spy.call_count == (iterations if per_row == 0 else 0)
        digests = {artifact: hashlib.sha256((tmp_path / name / artifact).read_bytes()).hexdigest()
                   for artifact in EXPECTED[seed, iterations]}
        assert digests == EXPECTED[seed, iterations]
        runs[name] = load_state(path)[0].history
    assert len(runs["closed"]) == iterations
    assert [r.location for r in runs["closed"]] == [r.location for r in runs["walked"]]
    np.testing.assert_allclose([r.rc_score for r in runs["closed"]],
                               [r.rc_score for r in runs["walked"]], rtol=1e-11, atol=0)
