import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krigplan import (
    Combination,
    ConfigurationError,
    ExperimentConfig,
    ExperimentState,
    GridSpec,
    IterationRecord,
    Measurement,
    PendingSuggestion,
    SchemaError,
    VariogramModel,
    run_experiment,
)
from krigplan.adaptive import STOP_BUDGET, STOP_NATURAL
from krigplan.cli import main
from krigplan.experiment_io import (
    atomic_write_text,
    audit_log_text,
    contour_csv_text,
    format_float,
    labels_csv_text,
    load_state,
    measurements_csv_text,
    predictions_csv_text,
    region_json_text,
    save_state,
    state_from_dict,
    state_to_dict,
)

from krigplan.variogram import FAMILIES, FLAG_DEGENERATE, FLAG_LOW_INFORMATION

from test_adaptive import refuse_family, replay_oracle, small_config


# --- formatting and atomic writes ---------------------------------------------

def test_format_float_six_significant_digits():
    assert format_float(0.1) == "0.1"
    assert format_float(1.0 / 3.0) == "0.333333"
    assert format_float(1234567.0) == "1.23457e+06"
    assert format_float(0.0) == "0"


def test_atomic_write(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "first\n")
    assert path.read_text() == "first\n"
    atomic_write_text(path, "second\n")
    assert path.read_text() == "second\n"
    assert os.listdir(tmp_path) == ["out.txt"]  # no stray temp files


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_atomic_write_failure_keeps_the_old_file(tmp_path, monkeypatch, failure):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "first\n")
    text = "second\n" * 1000
    if failure == "write":
        text += "\ud800"  # a lone surrogate: no encoding can write it
    else:
        def refuse(src, dst):
            raise OSError("replace refused")
        monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises((OSError, UnicodeEncodeError)):
        atomic_write_text(path, text)
    assert path.read_text() == "first\n"
    assert os.listdir(tmp_path) == ["out.txt"]


# --- state persistence ---------------------------------------------------------

def finished_state():
    config = small_config(max_iterations=3)
    return run_experiment(config, replay_oracle(config))


def test_state_round_trip(tmp_path):
    state = finished_state()
    oracle_spec = {"kind": "synthetic_logistic", "noise_std": 0.0}
    path = tmp_path / "exp.json"
    save_state(state, oracle_spec, path)
    loaded, spec = load_state(path)
    assert spec == oracle_spec
    assert state_to_dict(loaded, spec) == state_to_dict(state, oracle_spec)
    assert loaded.measurements == state.measurements
    assert loaded.history == state.history
    assert loaded.model == state.model
    assert loaded.stop_reason == state.stop_reason


def test_round_trip_preserves_full_float_precision(tmp_path):
    state = finished_state()
    path = tmp_path / "exp.json"
    save_state(state, {"kind": "synthetic_logistic"}, path)
    loaded, _ = load_state(path)
    for a, b in zip(state.measurements, loaded.measurements):
        assert a.response == b.response  # bitwise, not approximate


NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def variogram_models(draw):
    """Any family; degenerate fits have no nugget and no sill."""
    flag = draw(st.sampled_from([None, FLAG_DEGENERATE, FLAG_LOW_INFORMATION]))
    nugget, sill = (0.0, 0.0) if flag == FLAG_DEGENERATE else (draw(NONNEGATIVE), draw(NONNEGATIVE))
    return VariogramModel(
        family=draw(st.sampled_from(FAMILIES)),
        nugget=nugget,
        range=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        sill=sill,
        fit_mse=draw(NONNEGATIVE),
        flag=flag,
    )


@st.composite
def experiment_states(draw):
    """Whole states on grids of up to 5 x 6 points: measurements, history
    (its locations distinct measured points), model, a pending suggestion of
    either phase and either stop reason."""
    axes = []
    for _ in "mk":
        low = draw(st.sampled_from([-1.5, -0.0, 0.0, 0.5, 1.0]))
        stride = draw(st.sampled_from([0.1, 0.5, 1.0, 2.5]))
        axes += [low, low + draw(st.integers(1, 5)) * stride, stride]
    grid = GridSpec(*axes, k_scale=draw(st.sampled_from([0.1, 1.0, 3.0])))
    points = [grid.point(i) for i in range(grid.point_count)]
    order = draw(st.permutations(range(grid.point_count)))
    design = order[:draw(st.integers(2, len(order)))]
    measured = order[:draw(st.integers(0, len(order)))]
    config = ExperimentConfig(
        grid=grid,
        threshold=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        initial_design=tuple(points[i] for i in design),
        alpha=draw(st.sampled_from([0.5, 0.25, 0.1, 0.05, 0.01])),
        max_iterations=draw(st.integers(0, 2**63 - 1)),
        seed=draw(st.integers(-2**63, 2**63 - 1)),
    )
    picks = draw(st.permutations(measured))[:draw(st.integers(0, 4))]
    history = [
        IterationRecord(iteration=i + 1, location=points[pick],
                        rc_score=draw(NONNEGATIVE), model=draw(variogram_models()),
                        n_uncertain=draw(st.integers(0, grid.point_count)))
        for i, pick in enumerate(picks)
    ]
    return ExperimentState(
        config=config,
        measurements=[Measurement(points[i], draw(NONNEGATIVE)) for i in measured],
        model=draw(st.none() | variogram_models()),
        iteration=len(history),
        history=history,
        stop_reason=draw(STOP_REASONS),
        pending=draw(pending_suggestions(grid)),
    )


STOP_REASONS = st.sampled_from([None, STOP_NATURAL, STOP_BUDGET])


def pending_suggestions(grid):
    """None, or a pending suggestion of either phase on the grid."""
    points = st.builds(grid.point, st.integers(0, grid.point_count - 1))
    return st.one_of(
        st.none(),
        st.builds(PendingSuggestion, location=points, phase=st.just("initial")),
        st.builds(PendingSuggestion, location=points,
                  phase=st.just("adaptive"), rc_score=NONNEGATIVE, model=variogram_models(),
                  n_uncertain=st.integers(0, grid.point_count)),
    )


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(state=experiment_states())
def test_state_round_trips_through_dict_and_file(state):
    oracle_spec = {"kind": "synthetic_logistic", "noise_std": 0.0}
    assert state_from_dict(state_to_dict(state, oracle_spec)) == (state, oracle_spec)
    with tempfile.TemporaryDirectory() as directory:
        first, second = Path(directory, "first.json"), Path(directory, "second.json")
        save_state(state, oracle_spec, first)
        loaded, loaded_spec = load_state(first)
        save_state(loaded, loaded_spec, second)
        assert loaded == state
        assert second.read_bytes() == first.read_bytes()


def canonical_text(state, oracle_spec):
    """The experiment file's text by definition: the whole state through
    json.dumps."""
    return json.dumps(state_to_dict(state, oracle_spec), indent=2, sort_keys=True) + "\n"


# Zeros of both signs are equal but encode differently, so a writer that
# reused text by value would write the wrong sign.
SIGNED = st.sampled_from([0.0, -0.0]) | NONNEGATIVE


def twin(value):
    """An object equal to value but not the same object, with the sign of
    each zero it holds flipped."""
    def flip(x):
        return -x if x == 0 else x

    if isinstance(value, Measurement):
        return Measurement(value.location, flip(value.response))
    if isinstance(value, IterationRecord):
        return replace(value, rc_score=flip(value.rc_score))
    grid = value.grid
    return replace(value, grid=replace(grid, m_min=flip(grid.m_min), k_min=flip(grid.k_min)))


WRITER_STEPS = ["append", "append", "record", "pop", "model", "pending", "stop", "config",
                "config-twin", "row-twin", "record-twin", "state", "path", "spec", "spec-edit"]


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(data=st.data())
def test_every_save_writes_the_canonical_encoding(data):
    """One run of saves through save_state, as a campaign and its edits would
    make them: each file is the canonical encoding of the state saved."""
    state = data.draw(experiment_states())
    specs = [{"kind": "synthetic_logistic", "noise_std": 0.0}, {"kind": "table_replay", "path": "t.csv"}]
    spec = specs[0]
    with tempfile.TemporaryDirectory() as directory:
        paths = [Path(directory, "a.json"), Path(directory, "b.json")]
        path = paths[0]
        for step in data.draw(st.lists(st.sampled_from(WRITER_STEPS), min_size=1, max_size=15)):
            grid = state.config.grid
            if step == "append":
                measured = state.measured_locations()
                free = [i for i in range(grid.point_count) if grid.point(i) not in measured]
                if free:
                    location = grid.point(data.draw(st.sampled_from(free)))
                    state.measurements.append(Measurement(location, data.draw(SIGNED)))
            elif step == "record":
                # A record names a measured point no earlier record chose,
                # and "pop" drops only a measurement no record names: save
                # refuses any other state (test_save_refuses_a_state_load_would_refuse).
                chosen = {rec.location for rec in state.history}
                unchosen = [m.location for m in state.measurements if m.location not in chosen]
                if unchosen:
                    state.history.append(IterationRecord(
                        iteration=state.iteration + 1, location=data.draw(st.sampled_from(unchosen)),
                        rc_score=data.draw(SIGNED), model=data.draw(variogram_models()),
                        n_uncertain=data.draw(st.integers(0, grid.point_count))))
                    state.iteration += 1
            elif step == "pop":
                chosen = {rec.location for rec in state.history}
                unchosen = [i for i, m in enumerate(state.measurements) if m.location not in chosen]
                if unchosen:
                    state.measurements.pop(data.draw(st.sampled_from(unchosen)))
            elif step == "model":
                state.model = data.draw(st.none() | variogram_models())
            elif step == "pending":
                state.pending = data.draw(pending_suggestions(grid))
            elif step == "stop":
                state.stop_reason = data.draw(STOP_REASONS)
            elif step == "config":
                state.config = replace(state.config, seed=data.draw(st.integers(-2**63, 2**63 - 1)),
                                       max_iterations=data.draw(st.integers(0, 100)))
            elif step == "config-twin":
                state.config = twin(state.config)
            elif step == "row-twin" and state.measurements:
                i = data.draw(st.integers(0, len(state.measurements) - 1))
                state.measurements[i] = twin(state.measurements[i])
            elif step == "record-twin" and state.history:
                i = data.draw(st.integers(0, len(state.history) - 1))
                state.history[i] = twin(state.history[i])
            elif step == "state":
                state = data.draw(experiment_states())
            elif step == "path":
                path = paths[paths.index(path) - 1]
            elif step == "spec":
                spec = specs[specs.index(spec) - 1]
            elif step == "spec-edit":
                spec["noise_std"] = data.draw(SIGNED)
            save_state(state, spec, path)
            assert path.read_bytes() == canonical_text(state, spec).encode()


def test_save_refuses_a_state_load_would_refuse(tmp_path):
    """A history record naming a measurement since dropped would make a file
    that load_state rejects, so save_state raises before writing: no new
    file, and a file already at the path is unchanged."""
    state = finished_state()
    state.measurements.pop()
    spec = {"kind": "synthetic_logistic"}
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_text("kept\n")
    message = "history record 3 chose (2.0, 25.0), which is not measured or was chosen before"
    for path in (fresh, kept):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            save_state(state, spec, path)
    assert kept.read_text() == "kept\n"
    assert os.listdir(tmp_path) == ["kept.json"]


def test_load_rejects_wrong_version(tmp_path):
    state = finished_state()
    payload = state_to_dict(state, {"kind": "synthetic_logistic"})
    payload["version"] = 99
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError):
        load_state(path)


def test_load_rejects_missing_field(tmp_path):
    state = finished_state()
    payload = state_to_dict(state, {"kind": "synthetic_logistic"})
    del payload["config"]["threshold"]
    with pytest.raises(SchemaError):
        state_from_dict(payload)


@pytest.mark.parametrize("path, value", [
    pytest.param(("history", 0, "rc_score"), "x", id="rc_score-str"),
    pytest.param(("history", 0, "rc_score"), [1], id="rc_score-list"),
    pytest.param(("history", 0, "model"), None, id="history-model-null"),
    pytest.param(("history", 0, "iteration"), 1.5, id="history-iteration-fraction"),
    pytest.param(("history", 0, "n_uncertain"), "x", id="n_uncertain-str"),
    pytest.param(("iteration",), 2.5, id="iteration-fraction"),
    pytest.param(("config", "max_iterations"), 1.5, id="max_iterations-fraction"),
    pytest.param(("config", "initial_design", 0), [0.5], id="design-point-short"),
    pytest.param(("measurements", 0, "m"), 10**400, id="m-overflow"),
    pytest.param(("pending_suggestion", "phase"), "adaptive", id="pending-adaptive-unscored"),
    pytest.param(("pending_suggestion", "phase"), "later", id="pending-unknown-phase"),
    pytest.param(("oracle",), [], id="oracle-list"),
    pytest.param(("oracle",), "x", id="oracle-str"),
    pytest.param(("oracle",), None, id="oracle-null"),
])
def test_load_rejects_mistyped_field(path, value):
    payload = state_to_dict(finished_state(), {"kind": "synthetic_logistic"})
    payload["pending_suggestion"] = {"m": 1.0, "k": 2.0, "phase": "initial",
                                     "rc_score": None, "model": None, "n_uncertain": None}
    state_from_dict(payload)  # valid before the mutation
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(SchemaError):
        state_from_dict(payload)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("path, value", [
    pytest.param(("history", 0, "rc_score"), NAN, id="rc_score-nan"),
    pytest.param(("history", 0, "rc_score"), INF, id="rc_score-inf"),
    pytest.param(("history", 0, "rc_score"), -1.0, id="rc_score-negative"),
    pytest.param(("pending_suggestion", "rc_score"), NAN, id="pending-rc_score-nan"),
    pytest.param(("pending_suggestion", "rc_score"), -INF, id="pending-rc_score-negative"),
    pytest.param(("history", 0, "model", "fit_mse"), NAN, id="fit_mse-nan"),
    pytest.param(("model", "fit_mse"), INF, id="fit_mse-inf"),
    pytest.param(("pending_suggestion", "model", "fit_mse"), -0.5, id="fit_mse-negative"),
    pytest.param(("history", 0, "model", "flag"), "bogus", id="flag-unknown"),
    pytest.param(("model", "flag"), 1, id="flag-number"),
    pytest.param(("stop_reason",), "later", id="stop_reason-unknown"),
    pytest.param(("stop_reason",), [], id="stop_reason-list"),
    pytest.param(("measurements", 0, "response"), True, id="response-true"),
    pytest.param(("measurements", 0, "m"), "1.0", id="m-string"),
    pytest.param(("history", 0, "model", "nugget"), True, id="nugget-true"),
    pytest.param(("history", 0, "rc_score"), False, id="rc_score-false"),
    pytest.param(("history", 0, "chosen_k"), True, id="chosen_k-true"),
    pytest.param(("pending_suggestion", "m"), True, id="pending-m-true"),
    pytest.param(("model", "range"), True, id="range-true"),
    pytest.param(("config", "grid", "k_min"), True, id="k_min-true"),
    pytest.param(("config", "threshold"), True, id="threshold-true"),
    pytest.param(("history", "iteration"), [2, 1], id="iterations-2-1"),
    pytest.param(("history", "iteration"), [1, 3], id="iterations-1-3"),
])
def test_cli_rejects_out_of_range_values_in_the_experiment_file(tmp_path, capsys, path, value):
    """Each command exits 2 on the file, and report writes no artifact from it
    (a NaN score would reach audit.ndjson as the bare token NaN, not JSON).
    The ("history", "iteration") cases renumber the first history records."""
    config_path = write_config(tmp_path)
    assert main(["init", "--config", str(config_path)]) == 0
    exp_path = tmp_path / "demo.json"
    assert main(["run", str(exp_path)]) == 0
    payload = json.loads(exp_path.read_text())
    record = payload["history"][0]
    payload["pending_suggestion"] = {"m": record["chosen_m"], "k": record["chosen_k"],
                                     "phase": "adaptive", "rc_score": record["rc_score"],
                                     "model": dict(record["model"]), "n_uncertain": 1}
    state_from_dict(json.loads(json.dumps(payload)))  # valid before the mutation
    if path == ("history", "iteration"):
        assert len(payload["history"]) >= len(value)
        for record, number in zip(payload["history"], value):
            record["iteration"] = number
    else:
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    exp_path.write_text(json.dumps(payload))
    audit = (tmp_path / "audit.ndjson").read_bytes()
    for command in ("report", "step", "run"):
        assert main([command, str(exp_path)]) == 2, command
    assert (tmp_path / "audit.ndjson").read_bytes() == audit
    assert b"NaN" not in audit


@pytest.mark.parametrize("fault", ["unmeasured-picks", "repeated-pick",
                                   "n_uncertain-negative", "pending-n_uncertain-negative"])
def test_cli_rejects_a_history_its_measurements_do_not_hold(tmp_path, capsys, fault):
    """A finished 3-iteration run whose file is then edited: its measurements
    cut back to the 6 design points, one pick recorded twice, or a negative
    uncertain count.  Each command exits 2 and leaves every file as it was,
    audit.ndjson included."""
    config_path = write_config(tmp_path, {"max_iterations": 3})
    assert main(["init", "--config", str(config_path)]) == 0
    exp_path = tmp_path / "demo.json"
    assert main(["run", str(exp_path)]) == 0
    payload = json.loads(exp_path.read_text())
    history = payload["history"]
    assert len(history) == 3 and len(payload["measurements"]) == 9
    if fault == "unmeasured-picks":
        payload["measurements"] = payload["measurements"][:6]
        payload["model"] = None
        message = "history record 1 chose"
    elif fault == "repeated-pick":
        history[1].update(chosen_m=history[0]["chosen_m"], chosen_k=history[0]["chosen_k"])
        message = "history record 2 chose"
    elif fault == "n_uncertain-negative":
        history[0]["n_uncertain"] = -7
        message = "n_uncertain must be nonnegative, got -7"
    else:
        payload["pending_suggestion"] = {"m": 3.0, "k": 30.0, "phase": "adaptive", "rc_score": 1.0,
                                         "model": history[0]["model"], "n_uncertain": -1}
        message = "n_uncertain must be nonnegative, got -1"
    exp_path.write_text(json.dumps(payload))
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    for command in ("report", "step", "run"):
        assert main([command, str(exp_path)]) == 2, command
        assert message in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text('{"version": 1,\n  broken\n}')
    with pytest.raises(SchemaError) as exc:
        load_state(path)
    assert "line 2" in str(exc.value)


def test_load_missing_file(tmp_path):
    with pytest.raises(SchemaError):
        load_state(tmp_path / "absent.json")


# --- derived exports -----------------------------------------------------------

def test_export_formats():
    state = finished_state()
    from krigplan import classify_cells, largest_region, predict_lattice

    spec = state.config.grid
    prediction = predict_lattice(state.measurements, state.model, spec)
    codes = classify_cells(prediction.mean, prediction.ci_lower, prediction.ci_upper,
                           state.config.threshold,
                           [spec.flat_index(m.location) for m in state.measurements],
                           [m.response for m in state.measurements])

    csv = predictions_csv_text(prediction)
    lines = csv.strip().split("\n")
    assert lines[0] == "m,k,mean,variance,ci_lower,ci_upper"
    assert len(lines) == 1 + spec.point_count

    ltext = labels_csv_text(spec, codes)
    body = ltext.strip().split("\n")[1:]
    keys = [tuple(float(v) for v in row.split(",")[:2]) for row in body]
    assert keys == sorted(keys)

    mtext = measurements_csv_text(state.measurements)
    assert mtext.startswith("m,k,response\n")
    assert len(mtext.strip().split("\n")) == 1 + len(state.measurements)

    audit = audit_log_text(state.history)
    rows = [json.loads(line) for line in audit.strip().split("\n")]
    assert len(rows) == len(state.history)
    for row, rec in zip(rows, state.history):
        assert row["iteration"] == rec.iteration
        assert set(row) == {"iteration", "chosen_m", "chosen_k", "rc_score",
                            "model_family", "nugget", "range", "sill", "n_uncertain"}
        assert list(row) == sorted(row)  # stable key order for byte comparisons

    region = largest_region(codes, spec.m_values(), spec.k_values())
    rtext = region_json_text(region)
    assert rtext == region_json_text(region)  # deterministic
    parsed = json.loads(rtext)
    assert parsed["cell_count"] == region.cell_count


def test_exports_are_byte_stable_across_runs():
    s1 = finished_state()
    s2 = finished_state()
    assert audit_log_text(s1.history) == audit_log_text(s2.history)
    assert measurements_csv_text(s1.measurements) == measurements_csv_text(s2.measurements)


# Today's artifact text is written from lattice arrays; these are the
# Combination-based formatters it replaced, kept as the reference.

def reference_predictions_csv_text(predictions):
    lines = ["m,k,mean,variance,ci_lower,ci_upper"]
    for p in predictions:
        lines.append(",".join(format_float(v) for v in
                              (p.location.m, p.location.k, p.mean, p.variance, p.ci_lower, p.ci_upper)))
    return "\n".join(lines) + "\n"


def reference_labels_csv_text(labels):
    lines = ["m,k,label"]
    for loc in sorted(labels, key=lambda c: (c.m, c.k)):
        lines.append(f"{format_float(loc.m)},{format_float(loc.k)},{labels[loc]}")
    return "\n".join(lines) + "\n"


def reference_region_json_text(report):
    def round6(value):
        return None if value is None else float(format_float(value))

    payload = {
        "cell_count": report.cell_count,
        "m_min": round6(report.m_min),
        "m_max": round6(report.m_max),
        "k_min": round6(report.k_min),
        "k_max": round6(report.k_max),
        "cells": [[round6(c.m), round6(c.k)] for c in report.cells],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


SPECIAL_FLOATS = [0.0, -0.0, 1.0, -1.5, 1e-300, 5e-324, 1.7976931348623157e308, 123456.5,
                  1234567.0, 0.1 + 0.2, 1e16, -2.5e-7, float("inf"), float("-inf"), float("nan")]


def test_percent_format_is_format_float():
    rng = np.random.default_rng(5)
    values = SPECIAL_FLOATS + rng.standard_normal(2000).tolist() + \
        (rng.standard_normal(2000) * 10.0 ** rng.integers(-30, 30, 2000)).tolist()
    for v in values:
        assert "%.6g" % v == format_float(v)


@pytest.mark.parametrize("seed", range(6))
def test_region_json_text_is_json_dumps_layout(seed):
    from krigplan import LatticeRegion

    rng = np.random.default_rng(seed)
    n_m, n_k = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    m_axis = np.sort(rng.uniform(-5.0, 50.0, n_m))
    k_axis = np.sort(rng.uniform(0.0, 1e7, n_k))
    cells = np.flatnonzero(rng.random(n_m * n_k) < (0.5 if seed else 0.0))  # seed 0: empty
    region = LatticeRegion(m_axis, k_axis, *np.divmod(cells, n_k))
    assert region_json_text(region) == reference_region_json_text(region.report())


CRITERION_8 = {
    "name": "gate",
    "grid": {"m_min": 0.5, "m_max": 6.0, "m_stride": 0.5,
             "k_min": 1.0, "k_max": 60.0, "k_stride": 1.0, "k_scale": 0.1},
    "threshold": 4.0,
    "alpha": 0.1,
    "max_iterations": 12,
    "seed": 9,
    "initial_design": {"lattice": [3, 4]},
    "oracle": {"kind": "synthetic_logistic"},
}


def test_report_alpha_artifacts_equal_combination_functions(tmp_path, capsys):
    """`report --alpha 0.05` on the criterion 8 config writes the text the
    Combination functions give at alpha 0.05."""
    from krigplan import (build_grid, classify_grid, largest_reliable_region,
                          predict_grid, threshold_contour)

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CRITERION_8))
    assert main(["init", "--config", str(config_path)]) == 0
    exp_path = capsys.readouterr().out.strip()
    assert main(["run", exp_path]) == 0
    assert main(["report", exp_path, "--alpha", "0.05"]) == 0

    state, _ = load_state(exp_path)
    grid_points = build_grid(state.config.grid)
    preds = predict_grid(state.measurements, state.model, state.config.grid, grid_points, alpha=0.05)
    labels = classify_grid(preds, state.measurements, 4.0, grid=grid_points)
    region = largest_reliable_region(labels, state.measurements, 4.0)
    expected = {
        "predictions.csv": reference_predictions_csv_text(preds),
        "labels.csv": reference_labels_csv_text(labels),
        "region.json": reference_region_json_text(region),
        "contour.csv": contour_csv_text(threshold_contour(preds, 4.0)),
    }
    assert {name: (tmp_path / name).read_text() for name in expected} == expected


# --- CLI ------------------------------------------------------------------------

CONFIG = {
    "name": "demo",
    "grid": {"m_min": 0.5, "m_max": 3.0, "m_stride": 0.5,
             "k_min": 1.0, "k_max": 30.0, "k_stride": 1.0, "k_scale": 0.1},
    "threshold": 4.0,
    "alpha": 0.1,
    "max_iterations": 4,
    "seed": 0,
    "initial_design": {"lattice": [2, 3]},
    "oracle": {"kind": "synthetic_logistic", "noise_std": 0.05, "seed": 0},
}

ARTIFACTS = ["predictions.csv", "labels.csv", "region.json",
             "contour.csv", "audit.ndjson", "measurements.csv"]


def write_config(tmp_path, overrides=None, name="config.json"):
    data = json.loads(json.dumps(CONFIG))
    for key, value in (overrides or {}).items():
        if value is None:
            data.pop(key, None)
        else:
            data[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_cli_init_run_report(tmp_path, capsys):
    config_path = write_config(tmp_path)
    assert main(["init", "--config", str(config_path)]) == 0
    exp_path = capsys.readouterr().out.strip()
    assert exp_path == str(tmp_path / "demo.json")

    assert main(["run", exp_path]) == 0
    out = capsys.readouterr().out
    assert "measurements:" in out and "model:" in out
    for name in ARTIFACTS:
        assert (tmp_path / name).exists()

    state, _ = load_state(exp_path)
    assert state.stop_reason in ("natural", "budget")
    assert len(state.measurements) >= 6

    assert main(["report", exp_path]) == 0
    assert "reliable region" in capsys.readouterr().out


# Run in a fresh interpreter in which no scipy module can be imported.  Every
# fit inverts a system and every report labels the region; the closed-form
# calls are counted so that the transforms are known to have run too.
NO_SCIPY = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, BlockScipy())
import krigplan
import krigplan.cli
from krigplan import adaptive

closed_form = adaptive._closed_form_scores
calls = []
adaptive._closed_form_scores = lambda *args: calls.append(1) or closed_form(*args)
config, experiment = sys.argv[1:]
for argv in (["init", "--config", config], ["run", experiment], ["report", experiment]):
    if krigplan.cli.main(argv) != 0:
        sys.exit(f"krigplan {argv[0]} failed")
assert calls, "the closed form never ran"
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_cli_runs_without_scipy(tmp_path):
    """The package needs numpy alone: init, run and report on the study grid
    exit 0 with every scipy import refused, and load no scipy module."""
    config_path = write_config(tmp_path, {
        "grid": {"m_min": 0.5, "m_max": 6.0, "m_stride": 0.5,
                 "k_min": 1.0, "k_max": 60.0, "k_stride": 1.0, "k_scale": 0.1},
        "initial_design": {"lattice": [3, 4]}, "max_iterations": 3})
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, str(config_path), str(tmp_path / "demo.json")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in ARTIFACTS:
        assert (tmp_path / name).exists()


def test_cli_summary_names_an_empty_region(tmp_path, capsys):
    """A threshold below the surface's floor leaves no cell reliably below it."""
    config_path = write_config(tmp_path, {"threshold": 0.5, "max_iterations": 2})
    assert main(["init", "--config", str(config_path)]) == 0
    assert main(["run", str(tmp_path / "demo.json")]) == 0
    assert capsys.readouterr().out.endswith("\nreliable region: empty\n")
    assert json.loads((tmp_path / "region.json").read_text())["cell_count"] == 0


def test_cli_run_writes_the_experiment_file_once_per_append_and_once_at_the_stop(
        tmp_path, capsys, monkeypatch):
    config_path = write_config(tmp_path)
    main(["init", "--config", str(config_path)])
    exp_path = capsys.readouterr().out.strip()
    writes = []

    def counting_save(state, oracle_spec, path):
        writes.append(path)
        save_state(state, oracle_spec, path)

    monkeypatch.setattr("krigplan.experiment_io.save_state", counting_save)
    assert main(["run", exp_path]) == 0
    state, _ = load_state(exp_path)
    assert state.stop_reason is not None
    assert writes == [exp_path] * (len(state.measurements) + 1)


def test_cli_run_writes_the_canonical_encoding_every_time(tmp_path, capsys, monkeypatch):
    """Every experiment-file write of a criterion 8 run is the canonical
    encoding of the state read back from it."""
    from krigplan import experiment_io

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CRITERION_8))
    assert main(["init", "--config", str(config_path)]) == 0
    exp_path = capsys.readouterr().out.strip()
    texts = []

    def capturing_write(path, text):
        if os.fspath(path) == exp_path:
            texts.append(text)
        atomic_write_text(path, text)

    monkeypatch.setattr(experiment_io, "atomic_write_text", capturing_write)
    assert main(["run", exp_path]) == 0
    assert len(texts) == 12 + 12 + 1
    for text in texts:
        state, spec = state_from_dict(json.loads(text))
        assert text == canonical_text(state, spec)
    assert state.stop_reason == STOP_BUDGET and len(state.history) == 12


def test_cli_report_leaves_a_fitted_experiment_file_alone(tmp_path, capsys):
    config_path = write_config(tmp_path, {"max_iterations": 2})
    main(["init", "--config", str(config_path)])
    exp_path = capsys.readouterr().out.strip()
    assert main(["run", exp_path]) == 0
    assert main(["report", exp_path]) == 0
    # an old timestamp, so that any rewrite would show
    os.utime(exp_path, ns=(10**18, 10**18))
    before = Path(exp_path).read_bytes()

    assert main(["report", exp_path]) == 0
    assert Path(exp_path).read_bytes() == before
    assert os.stat(exp_path).st_mtime_ns == 10**18


def test_cli_report_persists_the_model_it_fits(tmp_path, capsys):
    config_path = write_config(tmp_path, {"max_iterations": 2})
    main(["init", "--config", str(config_path)])
    exp_path = capsys.readouterr().out.strip()
    assert main(["run", exp_path]) == 0
    fitted = Path(exp_path).read_bytes()
    data = json.loads(fitted)
    assert data["model"] is not None
    data["model"] = None
    Path(exp_path).write_text(json.dumps(data))

    assert main(["report", exp_path]) == 0
    assert load_state(exp_path)[0].model is not None
    assert Path(exp_path).read_bytes() == fitted


def test_cli_report_alpha_persists_the_model_under_the_files_alpha(tmp_path, capsys):
    """`report --alpha 0.05` on a state with no model writes its intervals at
    0.05 and persists the model it fits, the file keeping its alpha of 0.1."""
    from krigplan import SyntheticLogisticOracle

    config_path = write_config(tmp_path)
    main(["init", "--config", str(config_path)])
    exp_path = capsys.readouterr().out.strip()
    config = load_state(exp_path)[0].config
    oracle = SyntheticLogisticOracle(noise_std=0.0)
    for point in config.initial_design:
        assert main(["append", exp_path, "--m", str(point.m), "--k", str(point.k),
                     "--response", repr(oracle.evaluate(point))]) == 0
    assert load_state(exp_path)[0].model is None

    assert main(["report", exp_path, "--alpha", "0.05"]) == 0
    state, _ = load_state(exp_path)
    assert state.model is not None
    assert state.config == config and json.loads(Path(exp_path).read_text())["config"]["alpha"] == 0.1
    at_alpha = (tmp_path / "predictions.csv").read_text()
    assert main(["report", exp_path]) == 0
    assert (tmp_path / "predictions.csv").read_text() != at_alpha
    assert main(["report", exp_path, "--alpha", "0.05"]) == 0
    assert (tmp_path / "predictions.csv").read_text() == at_alpha


def test_cli_report_on_a_partial_initial_design(tmp_path, capsys):
    """With 3 of the 2x3 design's points appended, report fits what is
    measured and writes every artifact."""
    config_path = write_config(tmp_path)
    main(["init", "--config", str(config_path)])
    exp_path = capsys.readouterr().out.strip()
    for point in load_state(exp_path)[0].config.initial_design[:3]:
        assert main(["append", exp_path, "--m", str(point.m), "--k", str(point.k),
                     "--response", "3.5"]) == 0
    assert main(["report", exp_path]) == 0
    assert "measurements: 3 (adaptive iterations: 0)" in capsys.readouterr().out
    for name in ARTIFACTS:
        assert (tmp_path / name).exists()
    assert load_state(exp_path)[0].model is not None


def test_cli_report_without_a_model_solves_the_lattice_once(tmp_path, capsys, monkeypatch):
    """report on a state with no model krigs the grid once: the artifacts come
    from the evaluation that fitted the model."""
    from krigplan import adaptive, kriging

    config_path = write_config(tmp_path, {"max_iterations": 2})
    main(["init", "--config", str(config_path)])
    exp_path = capsys.readouterr().out.strip()
    assert main(["run", exp_path]) == 0
    data = json.loads(Path(exp_path).read_text())
    data["model"] = None
    Path(exp_path).write_text(json.dumps(data))

    calls = []

    def counting(solve):
        def wrapped(system):
            calls.append(system)
            return solve(system)
        return wrapped

    for module in (adaptive, kriging):
        monkeypatch.setattr(module, "solve_lattice", counting(module.solve_lattice))
    assert main(["report", exp_path]) == 0
    assert len(calls) == 1


def test_cli_step_and_report_agree_on_the_uncertain_cells(tmp_path, capsys):
    """Mid-campaign on the criterion 8 config, the step's n_uncertain is the
    number of cells report labels uncertain at the config's alpha: both come
    from one classification."""
    from krigplan import build_oracle, record_appended_measurement, suggest_next

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CRITERION_8))
    assert main(["init", "--config", str(config_path)]) == 0
    exp_path = capsys.readouterr().out.strip()
    state, oracle_spec = load_state(exp_path)
    oracle = build_oracle(oracle_spec, state.config.grid, default_seed=state.config.seed)
    for _ in range(len(state.config.initial_design) + 5):
        suggestion, stop = suggest_next(state)
        assert stop is None
        record_appended_measurement(state, Measurement(suggestion.location,
                                                       oracle.evaluate(suggestion.location)))
    save_state(state, oracle_spec, exp_path)

    assert main(["step", exp_path]) == 0
    pending = load_state(exp_path)[0].pending
    assert pending.phase == "adaptive" and pending.n_uncertain > 0
    assert main(["report", exp_path]) == 0
    labels = (tmp_path / "labels.csv").read_text().splitlines()[1:]
    assert sum(line.endswith(",uncertain") for line in labels) == pending.n_uncertain


@pytest.mark.parametrize("kind", ["synthetic_logistic", "table_replay"])
@pytest.mark.parametrize("flag, value", [("--seed", 10**20), ("--seed", -2**63 - 1),
                                         ("--max-iter", 2**63), ("--max-iter", 10**20)])
def test_cli_run_rejects_an_override_the_experiment_file_cannot_hold(tmp_path, capsys, kind, flag, value):
    """run exits 2 before writing on a --seed or --max-iter outside the signed
    64-bit range the experiment file reads its integers back in."""
    table_path = tmp_path / "table.csv"
    table_path.write_text("m,k,response\n0.5,1.0,3.0\n0.5,2.0,4.0\n1.0,1.0,5.0\n1.0,2.0,6.0\n")
    oracle = {"kind": kind, "path": str(table_path)} if kind == "table_replay" else {"kind": kind}
    config_path = write_config(tmp_path, {
        "grid": {"m_min": 0.5, "m_max": 1.0, "m_stride": 0.5,
                 "k_min": 1.0, "k_max": 2.0, "k_stride": 1.0, "k_scale": 0.1},
        "initial_design": {"lattice": [2, 2]}, "oracle": oracle})
    assert main(["init", "--config", str(config_path)]) == 0
    exp_path = capsys.readouterr().out.strip()
    before = Path(exp_path).read_bytes()

    assert main(["run", exp_path, flag, str(value)]) == 2
    field = "seed" if flag == "--seed" else "max_iterations"
    assert f"{field} must be in" in capsys.readouterr().err
    assert Path(exp_path).read_bytes() == before
    assert load_state(exp_path)[0].measurements == []
    assert not (tmp_path / "predictions.csv").exists()


@pytest.mark.parametrize("oracle", [[], "x", None])
def test_cli_run_seed_rejects_a_non_object_oracle(tmp_path, capsys, oracle):
    config_path = write_config(tmp_path)
    main(["init", "--config", str(config_path)])
    exp_path = capsys.readouterr().out.strip()
    data = json.loads(Path(exp_path).read_text())
    data["oracle"] = oracle
    Path(exp_path).write_text(json.dumps(data))
    assert main(["run", exp_path, "--seed", "1"]) == 2
    assert "oracle must be an object" in capsys.readouterr().err


def test_cli_init_refuses_overwrite(tmp_path, capsys):
    config_path = write_config(tmp_path)
    assert main(["init", "--config", str(config_path)]) == 0
    capsys.readouterr()
    assert main(["init", "--config", str(config_path)]) == 2
    assert "--force" in capsys.readouterr().err
    assert main(["init", "--config", str(config_path), "--force"]) == 0


def test_cli_out_dir_override(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "artifacts"
    monkeypatch.setenv("KRIGPLAN_OUT_DIR", str(out_dir))
    config_path = write_config(tmp_path)
    assert main(["init", "--config", str(config_path)]) == 0
    exp_path = capsys.readouterr().out.strip()
    assert exp_path == str(out_dir / "demo.json")
    assert main(["run", exp_path]) == 0
    for name in ARTIFACTS:
        assert (out_dir / name).exists()


def test_cli_step_and_append_flow(tmp_path, capsys):
    from krigplan import SyntheticLogisticOracle

    surface = SyntheticLogisticOracle(noise_std=0.0)
    config_path = write_config(tmp_path, {"max_iterations": 2})
    main(["init", "--config", str(config_path)])
    exp_path = capsys.readouterr().out.strip()

    # walk the whole initial design interactively
    for _ in range(6):
        assert main(["step", exp_path]) == 0
        out = capsys.readouterr().out
        assert "suggest:" in out and "(initial)" in out
        parts = dict(p.split("=") for p in out.split()[1:3])
        value = surface.mean(float(parts["m"]), float(parts["k"]))
        assert main(["append", exp_path, "--m", parts["m"], "--k", parts["k"],
                     "--response", repr(value)]) == 0
        capsys.readouterr()

    assert main(["step", exp_path]) == 0
    out = capsys.readouterr().out
    assert "(adaptive)" in out
    assert "score:" in out
    parts = dict(p.split("=") for p in out.split()[1:3])
    assert main(["append", exp_path, "--m", parts["m"], "--k", parts["k"],
                 "--response", "3.9"]) == 0
    capsys.readouterr()

    state, _ = load_state(exp_path)
    assert state.iteration == 1
    assert len(state.history) == 1


def test_cli_append_rejects_unsolicited_point(tmp_path, capsys):
    config_path = write_config(tmp_path)
    main(["init", "--config", str(config_path)])
    exp_path = capsys.readouterr().out.strip()
    assert main(["append", exp_path, "--m", "1.5", "--k", "7", "--response", "3.0"]) == 2


@pytest.mark.parametrize("missed", ["initial-design", "adaptive"])
def test_cli_run_resumes_after_oracle_miss(tmp_path, capsys, missed):
    from krigplan import SyntheticLogisticOracle, build_grid
    grid = GridSpec(**CONFIG["grid"])
    surface = SyntheticLogisticOracle(noise_std=0.0)

    def replay_experiment(subdir, withheld=None):
        """A 2-iteration experiment whose replay table lacks `withheld`."""
        directory = tmp_path / subdir
        directory.mkdir()
        rows = ["m,k,response"] + [f"{c.m},{c.k},{surface.evaluate(c)!r}"
                                   for c in build_grid(grid) if c != withheld]
        table_path = directory / "table.csv"
        table_path.write_text("\n".join(rows) + "\n")
        config_path = write_config(
            directory, {"oracle": {"kind": "table_replay", "path": str(table_path)},
                        "max_iterations": 2})
        assert main(["init", "--config", str(config_path)]) == 0
        return capsys.readouterr().out.strip()

    full_path = replay_experiment("full")
    assert main(["run", full_path]) == 0
    capsys.readouterr()
    full, _ = load_state(full_path)
    withheld = Combination(3.0, 15.0) if missed == "initial-design" else full.history[0].location

    exp_path = replay_experiment("missed", withheld)
    assert main(["run", exp_path]) == 3
    err = capsys.readouterr().err
    assert f"krigplan append {exp_path} --m {withheld.m} --k {withheld.k}" in err
    state, _ = load_state(exp_path)
    assert state.pending.location == withheld
    assert 0 < len(state.measurements)  # everything before the miss was saved
    assert state.measurements == full.measurements[:len(state.measurements)]

    assert main(["append", exp_path, "--m", str(withheld.m), "--k", str(withheld.k),
                 "--response", repr(surface.evaluate(withheld))]) == 0
    capsys.readouterr()
    assert main(["run", exp_path]) == 0
    resumed, _ = load_state(exp_path)
    assert resumed.stop_reason == "budget"
    assert len(resumed.measurements) == 6 + 2
    assert resumed.history == full.history
    assert resumed.measurements == full.measurements


def test_cli_exit_code_2_on_bad_config(tmp_path, capsys):
    missing = write_config(tmp_path, {"threshold": None})
    assert main(["init", "--config", str(missing)]) == 2

    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    assert main(["init", "--config", str(bad_json)]) == 2
    assert "line 1" in capsys.readouterr().err

    array = tmp_path / "array.json"
    array.write_text(json.dumps([CONFIG]))
    assert main(["init", "--config", str(array)]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err

    for oracle, message in (({"noise_std": 0.05}, "needs an 'oracle' object with a 'kind'"),
                            ({"kind": "table_replay", "path": 3}, "needs a 'path' string")):
        path = write_config(tmp_path, {"oracle": oracle}, name="oracle.json")
        assert main(["init", "--config", str(path)]) == 2, oracle
        assert message in capsys.readouterr().err

    bad_oracle = write_config(tmp_path, {"oracle": {"kind": "crystal_ball"}},
                              name="bad_oracle.json")
    assert main(["init", "--config", str(bad_oracle)]) == 2

    bad_name = write_config(tmp_path, {"name": "no/slashes"}, name="bad_name.json")
    assert main(["init", "--config", str(bad_name)]) == 2

    synthetic = CONFIG["oracle"]
    for malformed in ({"initial_design": {"lattice": [3]}},
                      {"max_iterations": "many"},
                      {"max_iterations": 1.5},
                      {"max_iterations": True},
                      {"initial_design": {"lattice": [True, 4]}},
                      {"seed": False},
                      {"initial_design": [[0.5, 1.0], [1.0, "x"]]},
                      {"alpha": "x"},
                      {"seed": "x"},
                      {"oracle": {**synthetic, "noise_std": "x"}},
                      {"oracle": {**synthetic, "amplitude": "x"}},
                      {"oracle": {**synthetic, "noise_std": 10**400}},
                      {"oracle": {**synthetic, "floor": "x"}},
                      {"oracle": {**synthetic, "seed": "x"}},
                      {"oracle": {**synthetic, "seed": 1.5}},
                      {"threshold": True},
                      {"threshold": "4.0"},
                      {"alpha": False},
                      {"grid": {**CONFIG["grid"], "k_min": True}},
                      {"grid": {**CONFIG["grid"], "k_scale": "0.1"}},
                      {"grid": [0.5, 3.0, 0.5, 1.0, 30.0, 1.0]},
                      {"initial_design": [[0.5, 1.0], [True, 2.0]]},
                      {"oracle": {**synthetic, "noise_std": False}},
                      {"oracle": {**synthetic, "steepness": True}},
                      {"oracle": {**synthetic, "floor": "1.0"}},
                      {"initial_design": "lattice"},
                      {"initial_design": {"lattice": [2, 3], "extra": 1}}):
        path = write_config(tmp_path, malformed, name="malformed.json")
        assert main(["init", "--config", str(path)]) == 2, malformed
    assert "initial_design must be a list" in capsys.readouterr().err


@pytest.mark.parametrize("design", [[[0.5, 1.0]], []])
def test_cli_init_rejects_a_design_of_fewer_than_two_points(tmp_path, capsys, design):
    """The first fit needs two measurements: init refuses a smaller design
    and writes nothing, rather than leave run to spend an oracle call first."""
    config_path = write_config(tmp_path, {"initial_design": design})
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["init", "--config", str(config_path)]) == 2
    assert f"initial design needs at least 2 points, got {len(design)}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_cli_exit_code_2_on_bad_experiment_file(tmp_path, capsys):
    config_path = write_config(tmp_path)
    assert main(["init", "--config", str(config_path)]) == 0
    exp_path = capsys.readouterr().out.strip()
    assert main(["report", exp_path]) == 2
    assert "no measurements yet" in capsys.readouterr().err

    array = tmp_path / "array.json"
    array.write_text(json.dumps([json.loads(Path(exp_path).read_text())]))
    assert main(["run", str(array)]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err

    assert main(["report", str(tmp_path)]) == 2
    assert "cannot read experiment file" in capsys.readouterr().err


@pytest.mark.parametrize("table, message", [
    ("", "empty file"),
    ("m,k,response\n0.5,1.0,2.0\n1.0,1.0\n", ":3: expected 3 fields, got 2"),
])
def test_cli_exit_code_2_on_bad_replay_table(tmp_path, capsys, table, message):
    csv_path = tmp_path / "table.csv"
    csv_path.write_text(table)
    config_path = write_config(tmp_path, {"oracle": {"kind": "table_replay", "path": str(csv_path)}})
    assert main(["init", "--config", str(config_path)]) == 0
    exp_path = capsys.readouterr().out.strip()
    assert main(["run", exp_path]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("below", [False, True])
def test_cli_exit_code_2_on_unusable_out_dir(tmp_path, capsys, monkeypatch, below):
    """KRIGPLAN_OUT_DIR naming a file (or a path below one) exits 2 before
    anything is written; run fails before its first oracle call."""
    config_path = write_config(tmp_path)
    assert main(["init", "--config", str(config_path)]) == 0
    exp_path = capsys.readouterr().out.strip()
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    monkeypatch.setenv("KRIGPLAN_OUT_DIR", str(blocker / "out" if below else blocker))
    before = Path(exp_path).read_bytes()
    for argv in (["init", "--config", str(config_path), "--force"], ["run", exp_path], ["report", exp_path]):
        assert main(argv) == 2, argv
        assert "KRIGPLAN_OUT_DIR" in capsys.readouterr().err
    assert Path(exp_path).read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["blocker", "config.json", "demo.json"]


def test_cli_init_reads_a_config_with_a_byte_order_mark(tmp_path, capsys):
    """An editor or spreadsheet may start the config with a byte-order mark."""
    config_path = write_config(tmp_path)
    config_path.write_bytes(config_path.read_text().encode("utf-8-sig"))
    assert main(["init", "--config", str(config_path)]) == 0
    exp_path = tmp_path / "demo.json"
    state, _ = load_state(exp_path)
    assert state.config.grid == GridSpec(**CONFIG["grid"])
    exp_path.write_bytes(exp_path.read_text().encode("utf-8-sig"))
    assert load_state(exp_path)[0] == state


def test_cli_init_rejects_oversized_grid(tmp_path, capsys):
    for field, value in (("m_stride", 1e-300), ("m_max", 1e300)):
        path = write_config(tmp_path, {"grid": {**CONFIG["grid"], field: value}},
                            name="huge.json")
        assert main(["init", "--config", str(path)]) == 2, field
        assert "limit of 100000" in capsys.readouterr().err


def test_config_file_and_experiment_file_share_one_schema(tmp_path, capsys):
    from krigplan.cli import _load_config
    from krigplan.experiment_io import config_from_dict

    config_path = write_config(tmp_path)
    assert main(["init", "--config", str(config_path)]) == 0
    exp_path = capsys.readouterr().out.strip()
    saved = json.loads(Path(exp_path).read_text())
    config, _, _ = _load_config(str(config_path))
    assert config_from_dict(saved["config"]) == config
    assert load_state(exp_path)[0].config == config

    saved["config"]["max_iterations"] = 1.5
    Path(exp_path).write_text(json.dumps(saved))
    assert main(["run", exp_path]) == 2
    assert "expected an integer, got 1.5" in capsys.readouterr().err


def test_cli_exit_code_4_on_numerical_failure(tmp_path, capsys):
    config_path = write_config(tmp_path)
    main(["init", "--config", str(config_path)])
    exp_path = capsys.readouterr().out.strip()

    # hand the report a hopeless model: adjacent points, near-flat variogram
    data = json.loads(Path(exp_path).read_text())
    data["measurements"] = [
        {"m": 1.0, "k": 3.0, "response": 2.0},
        {"m": 1.0, "k": 4.0, "response": 2.1},
    ]
    data["model"] = {"family": "gaussian", "nugget": 0.0, "range": 1e6,
                     "sill": 1.0, "fit_mse": 0.0, "flag": None}
    Path(exp_path).write_text(json.dumps(data))

    assert main(["report", exp_path]) == 4
    assert "ill-conditioned" in capsys.readouterr().err


def test_cli_report_fits_the_lowest_mse_admissible_family(tmp_path, capsys, monkeypatch):
    """With no model in the file, report krigs with the family the planner
    would: the best fit whose lattice solve succeeds."""
    config_path = write_config(tmp_path, {"max_iterations": 2})
    main(["init", "--config", str(config_path)])
    exp_path = capsys.readouterr().out.strip()
    assert main(["run", exp_path]) == 0
    data = json.loads(Path(exp_path).read_text())
    winner = data["model"]["family"]
    data["model"] = None
    Path(exp_path).write_text(json.dumps(data))
    refuse_family(monkeypatch, winner)
    assert main(["report", exp_path]) == 0
    model = load_state(exp_path)[0].model
    assert model is not None and model.family != winner
    assert f"model: {model.family}" in capsys.readouterr().out


def test_cli_run_seed_override_changes_responses(tmp_path, capsys):
    config_path = write_config(tmp_path)
    main(["init", "--config", str(config_path)])
    exp_path = capsys.readouterr().out.strip()
    assert main(["run", exp_path, "--seed", "1", "--max-iter", "1"]) == 0
    capsys.readouterr()
    state1, _ = load_state(exp_path)

    main(["init", "--config", str(config_path), "--force"])
    capsys.readouterr()
    assert main(["run", exp_path, "--seed", "2", "--max-iter", "1"]) == 0
    capsys.readouterr()
    state2, _ = load_state(exp_path)

    r1 = [m.response for m in state1.measurements]
    r2 = [m.response for m in state2.measurements]
    assert r1 != r2


def test_cli_step_after_stop(tmp_path, capsys):
    config_path = write_config(tmp_path, {"max_iterations": 1})
    main(["init", "--config", str(config_path)])
    exp_path = capsys.readouterr().out.strip()
    assert main(["run", exp_path]) == 0
    capsys.readouterr()
    assert main(["step", exp_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("stop:")
