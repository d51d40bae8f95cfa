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
    STOP_BUDGET,
    STOP_NATURAL,
    ExperimentConfig,
    ExperimentState,
    IterationRecord,
    PendingSuggestion,
)
from .errors import SchemaError
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


def config_from_dict(data: dict) -> ExperimentConfig:
    """Parse the experiment-config schema: a config file, or the ``config``
    object of an experiment file.

    ``initial_design`` is a list of [m, k] grid points or {"lattice": [n_m,
    n_k]}.  Raises ConfigurationError for values the planner rejects and one
    of PARSE_ERRORS for missing or mistyped fields.
    """
    grid = GridSpec(**data["grid"])
    design = data.get("initial_design")
    if isinstance(design, dict) and set(design) == {"lattice"}:
        n_m, n_k = design["lattice"]
        initial = evenly_spaced_design(grid, as_int(n_m), as_int(n_k))
    elif isinstance(design, list):
        initial = [grid.snap(float(m), float(k)) for m, k in design]
    else:
        raise TypeError('initial_design must be a list of [m, k] pairs or {"lattice": [n_m, n_k]}')
    return ExperimentConfig(
        grid=grid,
        threshold=float(data["threshold"]),
        alpha=float(data.get("alpha", 0.1)),
        max_iterations=as_int(data.get("max_iterations", 50)),
        initial_design=tuple(initial),
        seed=as_int(data.get("seed", 0)),
    )


def state_to_dict(state: ExperimentState, oracle_spec: dict) -> dict:
    config = state.config
    pending = state.pending
    return {
        "version": STATE_VERSION,
        "config": {
            "grid": asdict(config.grid),
            "threshold": config.threshold,
            "alpha": config.alpha,
            "max_iterations": config.max_iterations,
            "initial_design": [[c.m, c.k] for c in config.initial_design],
            "seed": config.seed,
        },
        "oracle": oracle_spec,
        "measurements": [
            {"m": m.location.m, "k": m.location.k, "response": m.response}
            for m in state.measurements
        ],
        "model": None if state.model is None else asdict(state.model),
        "iteration": state.iteration,
        "history": [
            {
                "iteration": rec.iteration,
                "chosen_m": rec.location.m,
                "chosen_k": rec.location.k,
                "rc_score": rec.rc_score,
                "model": asdict(rec.model),
                "n_uncertain": rec.n_uncertain,
            }
            for rec in state.history
        ],
        "stop_reason": state.stop_reason,
        "pending_suggestion": None if pending is None else {
            "m": pending.location.m,
            "k": pending.location.k,
            "phase": pending.phase,
            "rc_score": pending.rc_score,
            "model": None if pending.model is None else asdict(pending.model),
            "n_uncertain": pending.n_uncertain,
        },
    }


def _pending_from_dict(pend: dict, grid: GridSpec) -> PendingSuggestion:
    location = grid.snap(float(pend["m"]), float(pend["k"]))
    if pend["phase"] == "initial":
        return PendingSuggestion(location=location, phase="initial")
    if pend["phase"] != "adaptive":
        raise ValueError(f"unknown pending phase {pend['phase']!r}")
    return PendingSuggestion(
        location=location,
        phase="adaptive",
        rc_score=float(pend["rc_score"]),
        model=VariogramModel(**pend["model"]),
        n_uncertain=as_int(pend["n_uncertain"]),
    )


def state_from_dict(data: dict) -> tuple[ExperimentState, dict]:
    if not isinstance(data, dict):
        raise SchemaError("experiment file must hold a JSON object")
    version = data.get("version")
    if version != STATE_VERSION:
        raise SchemaError(f"unsupported experiment file version {version!r} (expected {STATE_VERSION})")
    try:
        config = config_from_dict(data["config"])
        grid = config.grid
        measurements = [
            Measurement(grid.snap(float(row["m"]), float(row["k"])), float(row["response"]))
            for row in data["measurements"]
        ]
        history = [
            IterationRecord(
                iteration=as_int(rec["iteration"]),
                location=grid.snap(float(rec["chosen_m"]), float(rec["chosen_k"])),
                rc_score=float(rec["rc_score"]),
                model=VariogramModel(**rec["model"]),
                n_uncertain=as_int(rec["n_uncertain"]),
            )
            for rec in data["history"]
        ]
        pend = data.get("pending_suggestion")
        stop_reason = data.get("stop_reason")
        if stop_reason not in (None, STOP_NATURAL, STOP_BUDGET):
            raise ValueError(f"unknown stop_reason {stop_reason!r}")
        state = ExperimentState(
            config=config,
            measurements=measurements,
            model=None if data["model"] is None else VariogramModel(**data["model"]),
            iteration=as_int(data["iteration"]),
            history=history,
            stop_reason=stop_reason,
            pending=None if pend is None else _pending_from_dict(pend, grid),
        )
        oracle_spec = data["oracle"]
    except PARSE_ERRORS as exc:
        raise SchemaError(f"experiment file is missing or mistypes a field: {exc!r}") from None
    return state, oracle_spec


def save_state(state: ExperimentState, oracle_spec: dict, path) -> None:
    payload = state_to_dict(state, oracle_spec)
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path, error=SchemaError, what: str = "experiment file"):
    """The JSON document at path; `error` names the problem if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
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
