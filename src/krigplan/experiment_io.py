"""Experiment persistence and result exports.

The experiment file is JSON with a version tag and full-precision floats,
so load(save(state)) reproduces the state exactly.  Result exports (CSV,
region JSON, audit log) are derived artifacts: they format every float at
6 significant digits with stable ordering, so identical states always
produce byte-identical files.  All writes are atomic (temp file in the
target directory, then rename).
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict

from .adaptive import (
    ExperimentConfig,
    ExperimentState,
    IterationRecord,
    PendingSuggestion,
)
from .errors import ConfigurationError, SchemaError
from .grid import GridSpec, Measurement, evenly_spaced_design
from .kriging import LatticePrediction
from .region import LABELS, LatticeRegion
from .variogram import VariogramModel

STATE_VERSION = 1


def format_float(value: float) -> str:
    """Fixed 6-significant-digit decimal form used in every export."""
    return f"{value:.6g}"


def _round6(value: float) -> float:
    return float(format_float(value))


def atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- experiment state -------------------------------------------------------

# What a malformed field raises while it is parsed: a missing key, a value of
# the wrong JSON type, a bad number, or a number too large for a float.  Each
# caller turns these into its own exit-2 error.
PARSE_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


def as_int(value) -> int:
    """The rule for every integer field: a value equal to an integer in the
    signed 64-bit range.  Non-integral values are rejected, not truncated,
    and so are booleans, which Python would read as 0 and 1."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    integer = int(value)
    if integer != value:
        raise ValueError(f"expected an integer, got {value!r}")
    if not -2**63 <= integer < 2**63:
        raise OverflowError(f"integer {integer} is out of range")
    return integer


def as_float(value) -> float:
    """The rule for every float field: a JSON number.  Booleans and strings
    are rejected, though float() would read them as 0, 1 or the number they
    spell."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _as_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be an object, got {value!r}")
    return value


_MODEL_FLOATS = ("nugget", "range", "sill", "fit_mse")


def _model_from_dict(data) -> VariogramModel:
    return VariogramModel(**{name: as_float(value) if name in _MODEL_FLOATS else value
                             for name, value in _as_object(data, "model").items()})


def config_from_dict(data: dict) -> ExperimentConfig:
    """Parse the experiment-config schema: a config file, or the ``config``
    object of an experiment file.

    ``initial_design`` is a list of [m, k] grid points or {"lattice": [n_m,
    n_k]}.  Raises ConfigurationError for values the planner rejects and one
    of PARSE_ERRORS for missing or mistyped fields.
    """
    grid = GridSpec(**{name: as_float(value)
                       for name, value in _as_object(data["grid"], "grid").items()})
    design = data.get("initial_design")
    if isinstance(design, dict) and set(design) == {"lattice"}:
        n_m, n_k = design["lattice"]
        initial = evenly_spaced_design(grid, as_int(n_m), as_int(n_k))
    elif isinstance(design, list):
        initial = [grid.snap(as_float(m), as_float(k)) for m, k in design]
    else:
        raise TypeError('initial_design must be a list of [m, k] pairs or {"lattice": [n_m, n_k]}')
    return ExperimentConfig(
        grid=grid,
        threshold=as_float(data["threshold"]),
        alpha=as_float(data.get("alpha", 0.1)),
        max_iterations=as_int(data.get("max_iterations", 50)),
        initial_design=tuple(initial),
        seed=as_int(data.get("seed", 0)),
    )


# The experiment file's fields.  state_to_dict and the writer both build the
# file from these helpers, so the schema is written down once.

def _config_fields(config: ExperimentConfig) -> dict:
    return {
        "grid": asdict(config.grid),
        "threshold": config.threshold,
        "alpha": config.alpha,
        "max_iterations": config.max_iterations,
        "initial_design": [[c.m, c.k] for c in config.initial_design],
        "seed": config.seed,
    }


def _measurement_fields(measurement: Measurement) -> dict:
    return {"m": measurement.location.m, "k": measurement.location.k, "response": measurement.response}


def _model_fields(model: VariogramModel | None) -> dict | None:
    return None if model is None else asdict(model)


def _record_fields(rec: IterationRecord) -> dict:
    return {
        "iteration": rec.iteration,
        "chosen_m": rec.location.m,
        "chosen_k": rec.location.k,
        "rc_score": rec.rc_score,
        "model": _model_fields(rec.model),
        "n_uncertain": rec.n_uncertain,
    }


def _pending_fields(pending: PendingSuggestion | None) -> dict | None:
    return None if pending is None else {
        "m": pending.location.m,
        "k": pending.location.k,
        "phase": pending.phase,
        "rc_score": pending.rc_score,
        "model": _model_fields(pending.model),
        "n_uncertain": pending.n_uncertain,
    }


def _state_fields(state: ExperimentState, oracle_spec: dict, config, measurements, history) -> dict:
    """The file's top-level object, with the values of its config,
    measurements and history given by the caller."""
    return {
        "version": STATE_VERSION,
        "config": config,
        "oracle": oracle_spec,
        "measurements": measurements,
        "model": _model_fields(state.model),
        "iteration": state.iteration,
        "history": history,
        "stop_reason": state.stop_reason,
        "pending_suggestion": _pending_fields(state.pending),
    }


def state_to_dict(state: ExperimentState, oracle_spec: dict) -> dict:
    return _state_fields(state, oracle_spec, _config_fields(state.config),
                         [_measurement_fields(m) for m in state.measurements],
                         [_record_fields(rec) for rec in state.history])


_PENDING_AUDIT = (("rc_score", as_float), ("model", _model_from_dict), ("n_uncertain", as_int))


def _pending_from_dict(pend: dict, grid: GridSpec) -> PendingSuggestion:
    """An adaptive suggestion's score, model and count must be there.  An
    initial one's are null, as save_state writes them, or absent; one that
    is given is read, and PendingSuggestion refuses a suggestion that
    carries some but not all three.  The file's phase must be the one those
    fields give the suggestion."""
    location = grid.snap(as_float(pend["m"]), as_float(pend["k"]))
    phase = pend["phase"]
    audit = {name: None if phase == "initial" and pend.get(name) is None else parse(pend[name])
             for name, parse in _PENDING_AUDIT}
    pending = PendingSuggestion(location=location, **audit)
    if pending.phase != phase:
        raise SchemaError(f"pending phase {phase!r} does not match its score, model and count")
    return pending


def state_from_dict(data: dict) -> tuple[ExperimentState, dict]:
    if not isinstance(data, dict):
        raise SchemaError("experiment file must hold a JSON object")
    try:
        if as_int(data["version"]) != STATE_VERSION:
            raise SchemaError(f"unsupported experiment file version {data['version']!r} (expected {STATE_VERSION})")
        config = config_from_dict(data["config"])
        grid = config.grid
        measurements = [
            Measurement(grid.snap(as_float(row["m"]), as_float(row["k"])), as_float(row["response"]))
            for row in data["measurements"]
        ]
        history = [
            IterationRecord(
                iteration=as_int(rec["iteration"]),
                location=grid.snap(as_float(rec["chosen_m"]), as_float(rec["chosen_k"])),
                rc_score=as_float(rec["rc_score"]),
                model=_model_from_dict(rec["model"]),
                n_uncertain=as_int(rec["n_uncertain"]),
            )
            for rec in data["history"]
        ]
        if as_int(data["iteration"]) != len(history):
            raise SchemaError(f"iteration {data['iteration']} does not match the {len(history)} history records")
        pend = data.get("pending_suggestion")
        state = ExperimentState(
            config=config,
            measurements=measurements,
            model=None if data["model"] is None else _model_from_dict(data["model"]),
            history=history,
            stop_reason=data.get("stop_reason"),
            pending=None if pend is None else _pending_from_dict(pend, grid),
        )
        oracle_spec = _as_object(data["oracle"], "oracle")
    except PARSE_ERRORS as exc:
        raise SchemaError(f"experiment file is missing or mistypes a field: {exc!r}") from None
    return state, oracle_spec


def _json_at(value, depth: int) -> str:
    """json.dumps(value, indent=2, sort_keys=True) as it reads nested
    `depth` levels deep in a larger document."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def _lay_out(items: list[str], depth: int, brackets: str) -> str:
    """A JSON array or object whose items are laid out one level below
    `depth`, in the layout of json.dumps(..., indent=2)."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * depth + brackets[1]


class _Encoded(str):
    """JSON text already laid out at its place in the file."""


class _StateWriter:
    """Writes the experiment file, encoding only the parts it has not
    encoded before.

    It keeps the JSON text of the config, of each measurement row and of
    each history record of the last state written, keyed by object
    identity: these are frozen dataclasses, so one object always encodes
    the same way.  Identity and not equality, because equal values can
    encode differently (0.0 == -0.0).  Each entry holds its object, so the
    id cannot be reused while the entry lives.  The oracle spec, the model,
    the pending suggestion and the scalars are encoded on every write.
    """

    def __init__(self):
        self._texts: dict[int, tuple[object, str]] = {}

    def text(self, state: ExperimentState, oracle_spec: dict) -> str:
        """The file's text: json.dumps(state_to_dict(state, oracle_spec),
        indent=2, sort_keys=True) and a newline, byte for byte."""
        texts = {}

        def encoded(part, fields, depth: int) -> str:
            entry = self._texts.get(id(part))
            if entry is None or entry[0] is not part:
                entry = (part, _json_at(fields(part), depth))
            texts[id(part)] = entry
            return entry[1]

        def rows(parts, fields) -> _Encoded:
            return _Encoded(_lay_out([encoded(part, fields, 2) for part in parts], 1, "[]"))

        payload = _state_fields(state, oracle_spec,
                                _Encoded(encoded(state.config, _config_fields, 1)),
                                rows(state.measurements, _measurement_fields),
                                rows(state.history, _record_fields))
        items = [f"{json.dumps(key)}: {value if isinstance(value, _Encoded) else _json_at(value, 1)}"
                 for key, value in sorted(payload.items())]
        self._texts = texts
        return _lay_out(items, 0, "{}") + "\n"


_WRITER = _StateWriter()


def save_state(state: ExperimentState, oracle_spec: dict, path) -> None:
    """Write the experiment file; a state that load_state would refuse
    (ExperimentState.check), or an oracle spec that is not an object,
    raises before anything is written."""
    state.check()
    if not isinstance(oracle_spec, dict):
        raise ConfigurationError(f"oracle spec must be an object, got {oracle_spec!r}")
    atomic_write_text(path, _WRITER.text(state, oracle_spec))


def read_json(path, error=SchemaError, what: str = "experiment file"):
    """The JSON document at path; `error` names the problem if it cannot be read."""
    try:
        # utf-8-sig: an editor or a spreadsheet export may start the file with a byte-order mark
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise error(f"{what} {path} does not exist") from None
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except (OSError, ValueError) as exc:
        raise error(f"{path}: cannot read {what}: {exc}") from None


def load_state(path) -> tuple[ExperimentState, dict]:
    return state_from_dict(read_json(path))


# --- derived exports --------------------------------------------------------

def _cell_prefixes(spec: GridSpec) -> list[str]:
    """The "m,k," that starts each grid point's row, in row-major order; each
    axis value is formatted once."""
    m_text = [format_float(m) + "," for m in spec.m_values().tolist()]
    k_text = [format_float(k) + "," for k in spec.k_values().tolist()]
    return [m + k for m in m_text for k in k_text]


def predictions_csv_text(prediction: LatticePrediction) -> str:
    columns = (v.reshape(-1).tolist() for v in
               (prediction.mean, prediction.variance, prediction.ci_lower, prediction.ci_upper))
    lines = ["m,k,mean,variance,ci_lower,ci_upper"]
    # "%.6g" % x is format_float(x) for a float x.
    lines += [prefix + "%.6g,%.6g,%.6g,%.6g" % values
              for prefix, values in zip(_cell_prefixes(prediction.spec), zip(*columns))]
    return "\n".join(lines) + "\n"


def labels_csv_text(spec: GridSpec, codes) -> str:
    """labels.csv from the label codes (indices into LABELS) of every grid point."""
    lines = ["m,k,label"]
    lines += [prefix + LABELS[code] for prefix, code in zip(_cell_prefixes(spec), codes.reshape(-1).tolist())]
    return "\n".join(lines) + "\n"


def region_json_text(region: LatticeRegion) -> str:
    """The region's count, bounding box and cells at 6 significant digits,
    written in exactly the layout of json.dumps(..., indent=2, sort_keys=True)."""
    def number(value):
        return json.dumps(None if value is None else _round6(value))

    m_text = [number(m) for m in region.m_axis.tolist()]
    k_text = [number(k) for k in region.k_axis.tolist()]
    cells = [f"    [\n      {m_text[i]},\n      {k_text[j]}\n    ]"
             for i, j in zip(region.rows.tolist(), region.cols.tolist())]
    m_min, m_max, k_min, k_max = region.bbox()
    fields = {
        "cell_count": json.dumps(region.cell_count),
        "cells": "[\n" + ",\n".join(cells) + "\n  ]" if cells else "[]",
        "k_max": number(k_max),
        "k_min": number(k_min),
        "m_max": number(m_max),
        "m_min": number(m_min),
    }
    return "{\n" + ",\n".join(f"  {json.dumps(key)}: {fields[key]}" for key in sorted(fields)) + "\n}\n"


def contour_csv_text(polylines) -> str:
    lines = ["polyline_id,m,k"]
    for pid, line in enumerate(polylines):
        for m, k in line:
            lines.append(f"{pid},{format_float(m)},{format_float(k)}")
    return "\n".join(lines) + "\n"


def audit_log_text(history) -> str:
    lines = []
    for rec in history:
        lines.append(json.dumps({
            "iteration": rec.iteration,
            "chosen_m": _round6(rec.location.m),
            "chosen_k": _round6(rec.location.k),
            "rc_score": _round6(rec.rc_score),
            "model_family": rec.model.family,
            "nugget": _round6(rec.model.nugget),
            "range": _round6(rec.model.range),
            "sill": _round6(rec.model.sill),
            "n_uncertain": rec.n_uncertain,
        }, sort_keys=True))
    return "".join(line + "\n" for line in lines)


def measurements_csv_text(measurements) -> str:
    lines = ["m,k,response"]
    for m in measurements:
        lines.append(",".join(format_float(v) for v in (m.location.m, m.location.k, m.response)))
    return "\n".join(lines) + "\n"
