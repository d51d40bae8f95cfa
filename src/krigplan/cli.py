"""Command-line driver.

Workflow: ``init`` turns a config file into an experiment file; ``run``
drives the measure-fit-select loop against the configured response source;
``step``/``append`` run the same loop interactively, one suggestion at a
time, for responses produced offline; ``report`` rebuilds the derived
artifacts (predictions, labels, region, contour, audit log) from whatever
is measured so far, from the planner's own grid evaluation, so the cells
labelled uncertain are the cells the planner targets.

Exit codes: 0 success (including a clean stop), 2 configuration/validation
problems, 3 missing oracle value, 4 numerical failure.

Artifacts are written next to the experiment file unless KRIGPLAN_OUT_DIR
is set.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import replace

from . import experiment_io as eio
from .adaptive import (
    ExperimentConfig,
    ExperimentState,
    _fit,
    record_appended_measurement,
    run_experiment,
    suggest_next,
)
from .errors import (
    ConfigurationError,
    KrigplanError,
    NumericalFailureError,
    OracleMissError,
)
from .grid import Measurement
from .oracle import SYNTHETIC_KIND, build_oracle, check_oracle_spec
from .region import LatticeRegion, contour_lines, largest_region

# Not called here, but the benchmark's tracer (perfbench/spans.py) wraps
# these names on this module, so they must stay importable from it.
from .grid import build_grid  # noqa: F401
from .kriging import predict_grid  # noqa: F401
from .region import classify_grid, largest_reliable_region, threshold_contour  # noqa: F401
from .variogram import empirical_variogram, select_model  # noqa: F401

OUT_DIR_ENV = "KRIGPLAN_OUT_DIR"

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def _out_dir(path: str) -> str:
    """The directory for what a command writes: KRIGPLAN_OUT_DIR (created if
    missing) when set, else the directory of path."""
    override = os.environ.get(OUT_DIR_ENV)
    if not override:
        return os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(override, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"{OUT_DIR_ENV}={override!r} is not a usable directory: {exc}") from None
    return override


def _load_config(path: str) -> tuple[ExperimentConfig, dict, str]:
    data = eio.read_json(path, ConfigurationError, "config file")
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: config must be a JSON object")

    name = data.get("name", "experiment")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ConfigurationError(f"experiment name {name!r} must match {_NAME_RE.pattern}")

    try:
        config = eio.config_from_dict(data)
    except eio.PARSE_ERRORS as exc:
        raise ConfigurationError(f"{path}: config is missing or mistypes a field: {exc!r}") from None

    oracle_spec = data.get("oracle")
    try:
        check_oracle_spec(oracle_spec, default_seed=config.seed)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    return config, oracle_spec, name


def _write_artifacts(state: ExperimentState, out_dir: str) -> LatticeRegion:
    """Write every derived artifact from the evaluation under the state's model (fitted and kept
    if it has none), intervals at the config's alpha; returns the reliable region."""
    if not state.measurements:
        raise ConfigurationError("no measurements yet; nothing to report")
    ev = _fit(state)
    spec = state.config.grid
    m_axis, k_axis = spec.m_values(), spec.k_values()
    region = largest_region(ev.codes, m_axis, k_axis)
    contour = contour_lines(m_axis, k_axis, ev.prediction.mean, state.config.threshold)

    eio.atomic_write_text(os.path.join(out_dir, "predictions.csv"), eio.predictions_csv_text(ev.prediction))
    eio.atomic_write_text(os.path.join(out_dir, "labels.csv"), eio.labels_csv_text(spec, ev.codes))
    eio.atomic_write_text(os.path.join(out_dir, "region.json"), eio.region_json_text(region))
    eio.atomic_write_text(os.path.join(out_dir, "contour.csv"), eio.contour_csv_text(contour))
    eio.atomic_write_text(os.path.join(out_dir, "audit.ndjson"), eio.audit_log_text(state.history))
    eio.atomic_write_text(os.path.join(out_dir, "measurements.csv"),
                          eio.measurements_csv_text(state.measurements))
    return region


def _print_summary(state: ExperimentState, region: LatticeRegion) -> None:
    model = state.model
    print(f"measurements: {len(state.measurements)} (adaptive iterations: {state.iteration})")
    if state.stop_reason:
        print(f"stop: {state.stop_reason}")
    flag = f" flag={model.flag}" if model.flag else ""
    print(f"model: {model.family} nugget={eio.format_float(model.nugget)} "
          f"range={eio.format_float(model.range)} sill={eio.format_float(model.sill)}{flag}")
    if region.cell_count:
        m_min, m_max, k_min, k_max = (eio.format_float(v) for v in region.bbox())
        print(f"reliable region: {region.cell_count} cells, "
              f"bounding box m in [{m_min}, {m_max}], k in [{k_min}, {k_max}]")
    else:
        print("reliable region: empty")


def cmd_init(args) -> int:
    config, oracle_spec, name = _load_config(args.config)
    experiment_path = os.path.join(_out_dir(args.config), f"{name}.json")
    if os.path.exists(experiment_path) and not args.force:
        raise ConfigurationError(
            f"experiment file {experiment_path} already exists; pass --force to overwrite"
        )
    state = ExperimentState(config=config)
    eio.save_state(state, oracle_spec, experiment_path)
    print(experiment_path)
    return 0


def cmd_run(args) -> int:
    state, oracle_spec = eio.load_state(args.experiment)
    out_dir = _out_dir(args.experiment)
    config = state.config
    if args.max_iter is not None:
        config = replace(config, max_iterations=args.max_iter)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
        if oracle_spec.get("kind") == SYNTHETIC_KIND:
            oracle_spec = {**oracle_spec, "seed": args.seed}
    state.config = config
    oracle = build_oracle(oracle_spec, config.grid, default_seed=config.seed)

    def persist(st: ExperimentState) -> None:
        eio.save_state(st, oracle_spec, args.experiment)

    try:
        state = run_experiment(config, oracle, state=state, on_update=persist)
    except OracleMissError as exc:
        if exc.state is not None:
            eio.save_state(exc.state, oracle_spec, args.experiment)
        loc = exc.location
        print(f"error: {exc}", file=sys.stderr)
        if loc is not None:
            print(
                f"produce the response offline, then resume with:\n"
                f"  krigplan append {args.experiment} --m {loc.m} --k {loc.k} --response <value>\n"
                f"  krigplan run {args.experiment}",
                file=sys.stderr,
            )
        return 3

    # run_experiment saved the final state through persist at the stop.
    _print_summary(state, _write_artifacts(state, out_dir))
    return 0


def cmd_step(args) -> int:
    state, oracle_spec = eio.load_state(args.experiment)
    suggestion, stop = suggest_next(state)
    eio.save_state(state, oracle_spec, args.experiment)
    if stop is not None:
        print(f"stop: {stop}")
        return 0
    loc = suggestion.location
    print(f"suggest: m={loc.m} k={loc.k} ({suggestion.phase})")
    if suggestion.rc_score is not None:
        print(f"score: {eio.format_float(suggestion.rc_score)} "
              f"uncertain_points: {suggestion.n_uncertain}")
    return 0


def cmd_append(args) -> int:
    state, oracle_spec = eio.load_state(args.experiment)
    location = state.config.grid.snap(args.m, args.k)
    record_appended_measurement(state, Measurement(location, args.response))
    eio.save_state(state, oracle_spec, args.experiment)
    print(f"recorded: m={location.m} k={location.k} response={args.response} "
          f"(total {len(state.measurements)})")
    return 0


def cmd_report(args) -> int:
    state, oracle_spec = eio.load_state(args.experiment)
    config, fitted = state.config, state.model is None
    if args.alpha is not None:  # for the artifacts only; the file keeps its alpha
        state.config = replace(config, alpha=args.alpha)
    region = _write_artifacts(state, _out_dir(args.experiment))
    if fitted:  # persist the model _write_artifacts fitted
        state.config = config
        eio.save_state(state, oracle_spec, args.experiment)
    _print_summary(state, region)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krigplan",
        description="Kriging-guided measurement planning for threshold-region mapping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="create an experiment file from a config")
    p_init.add_argument("--config", required=True, help="path to the JSON config")
    p_init.add_argument("--force", action="store_true", help="overwrite an existing experiment file")
    p_init.set_defaults(func=cmd_init)

    p_run = sub.add_parser("run", help="run the adaptive loop to a stop")
    p_run.add_argument("experiment", help="path to the experiment file")
    p_run.add_argument("--max-iter", type=int, default=None,
                       help="override the adaptive-measurement budget")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the experiment seed (and synthetic oracle noise seed)")
    p_run.set_defaults(func=cmd_run)

    p_step = sub.add_parser("step", help="compute one suggestion without measuring")
    p_step.add_argument("experiment")
    p_step.set_defaults(func=cmd_step)

    p_append = sub.add_parser("append", help="record an offline-measured response")
    p_append.add_argument("experiment")
    p_append.add_argument("--m", type=float, required=True)
    p_append.add_argument("--k", type=float, required=True)
    p_append.add_argument("--response", type=float, required=True)
    p_append.set_defaults(func=cmd_append)

    p_report = sub.add_parser("report", help="rebuild artifacts from the current state")
    p_report.add_argument("experiment")
    p_report.add_argument("--alpha", type=float, default=None,
                          help="confidence level for the exported intervals")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except KrigplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
