"""Candidate scoring on the thread pool.

The scoring blocks of an iteration run on a pool of one thread per usable
CPU once there are enough of them.  The pool must change no bit of any
score, pick or artifact, must not start for small grids, and must surface a
worker's exception as the serial path would.
"""
import contextlib
import hashlib
import itertools
import json
import multiprocessing
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import krigplan.adaptive as adaptive
from krigplan import (
    ExperimentState,
    Measurement,
    NumericalFailureError,
    SyntheticLogisticOracle,
    candidate_scores,
    run_experiment,
)
from krigplan.cli import main
from krigplan.experiment_io import load_state, state_to_dict

from test_acceptance import study_config
from test_adaptive import SPH, forced_pool, small_config
from test_byte_identity import EXPECTED, STUDY_GRID

SRC = Path(__file__).resolve().parent.parent / "src"


def study_state():
    """Criterion 6's initial design, all 708 candidates flagged: 9 blocks."""
    config = study_config()
    oracle = SyntheticLogisticOracle(noise_std=0.0)
    ms = [Measurement(c, oracle.evaluate(c)) for c in config.initial_design]
    return ExperimentState(config=config, measurements=ms, model=SPH)


def test_import_starts_no_thread():
    script = ("import threading; before = threading.active_count(); import krigplan; "
              "assert threading.active_count() == before, threading.enumerate()")
    subprocess.run([sys.executable, "-c", script], check=True, cwd=SRC)


def test_scoring_below_the_threshold_starts_no_thread():
    state = ExperimentState(config=small_config(), model=SPH, measurements=[
        Measurement(c, 1.0 + c.m) for c in small_config().initial_design])
    before = threading.active_count()
    with mock.patch.multiple(adaptive, _WORKERS=2, _pool=None):
        candidate_scores(state, indicators=np.ones(174, dtype=bool))
        assert adaptive._pool is None
    assert threading.active_count() == before


def test_study_run_scores_in_the_calling_thread():
    """Criterion 6's campaign has too few blocks per iteration for the pool."""
    with mock.patch.multiple(adaptive, _WORKERS=2, _pool=None):
        state = run_experiment(study_config(), SyntheticLogisticOracle(noise_std=0.0))
        assert adaptive._pool is None
    assert state.iteration > 0


def test_pool_matches_serial_scores_whatever_the_worker_count():
    """More workers than cores, and more than blocks, switching threads as
    often as the interpreter allows: a lost or misplaced block write shows."""
    state = study_state()
    ones = np.ones(708, dtype=bool)
    _, serial = candidate_scores(state, indicators=ones)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 3, 9, 12):
            with mock.patch.multiple(adaptive, _WORKERS=workers, _POOL_BLOCKS_PER_WORKER=0,
                                     _pool=None):
                assert np.array_equal(candidate_scores(state, indicators=ones)[1], serial)
    finally:
        sys.setswitchinterval(interval)


def test_worker_exception_surfaces_unchanged():
    state = study_state()
    before = state_to_dict(state, {})
    ones = np.ones(708, dtype=bool)
    error = NumericalFailureError("block failed")
    calls = itertools.count()
    raised_in = []
    original = adaptive._row_runs_product

    def failing_on_one_block(a, b, out):
        if next(calls) == 4:
            raised_in.append(threading.current_thread())
            raise error
        return original(a, b, out)

    with forced_pool(), mock.patch.object(adaptive, "_row_runs_product", failing_on_one_block):
        with pytest.raises(NumericalFailureError) as excinfo:
            candidate_scores(state, indicators=ones)
        finished = next(calls)
        time.sleep(0.05)
        assert next(calls) == finished + 1  # no worker still scoring
    assert excinfo.value is error
    assert raised_in and raised_in[0] is not threading.main_thread()
    assert state_to_dict(state, {}) == before

    with forced_pool():
        pooled = candidate_scores(state, indicators=ones)[1]
    assert np.array_equal(pooled, candidate_scores(state, indicators=ones)[1])


def test_scoring_evaluates_the_variogram_once_per_call():
    """One semivariance table per call, however many blocks and threads."""
    state = study_state()
    ones = np.ones(708, dtype=bool)
    for block, pool in itertools.product((16 * 708, 2**16), (contextlib.nullcontext(), forced_pool())):
        with mock.patch.object(adaptive, "_SCORE_BLOCK_ELEMENTS", block), pool, \
                mock.patch.object(adaptive, "eval_model", wraps=adaptive.eval_model) as spy:
            candidate_scores(state, indicators=ones)
        assert spy.call_count == 1


def _score_in_child(state, queue):
    with forced_pool():
        queue.put(candidate_scores(state, indicators=np.ones(708, dtype=bool))[1])


def test_forked_child_starts_its_own_pool():
    """A pool started before a fork has no threads in the child; the child
    must not queue work onto it."""
    state = study_state()
    with forced_pool():
        expected = candidate_scores(state, indicators=np.ones(708, dtype=bool))[1]
    assert adaptive._pool is not None
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_score_in_child, args=(state, queue))
    child.start()
    try:
        assert np.array_equal(queue.get(timeout=60), expected)
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


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
def test_pool_on_every_iteration_reproduces_the_recorded_artifacts(
        tmp_path, capsys, seed, iterations):
    serial = _cli_campaign(tmp_path / "serial", capsys, seed, iterations)
    with forced_pool(), mock.patch.object(adaptive, "_scoring_pool",
                                          wraps=adaptive._scoring_pool) as spy:
        pooled = _cli_campaign(tmp_path / "pooled", capsys, seed, iterations)
    assert spy.call_count >= iterations  # at least one pool dispatch per pick
    digests = {name: hashlib.sha256((tmp_path / "pooled" / name).read_bytes()).hexdigest()
               for name in EXPECTED[seed, iterations]}
    assert digests == EXPECTED[seed, iterations]
    serial_scores = [repr(rec.rc_score) for rec in load_state(serial)[0].history]
    pooled_scores = [repr(rec.rc_score) for rec in load_state(pooled)[0].history]
    assert len(pooled_scores) == iterations
    assert pooled_scores == serial_scores
