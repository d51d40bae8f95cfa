#!/usr/bin/env python3
"""krigplan benchmark: the planner end to end, and by module.

    python3 perfbench/run.py --workload study_run --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory, never from an installed copy.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones from a separate traced run.  Lines
before the last describe the environment and the samples; the last line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every operation passed its checks.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKROOT = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("study_run", "large_grid", "report_large")
# Two-thread OpenBLAS made study campaigns slower on a 2-core machine;
# the baseline is single-threaded.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = "1"
# A timing percentile is trusted only with this many samples beyond it.
TAIL_SAMPLES = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=7,
                        help="seeds the oracle noise and the config (default 7, criterion 6's seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to measure, after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def percentile_line(name: str, samples: list[float], q: float, unit: str, what: str) -> str:
    import numpy as np

    value = np.percentile(samples, q)
    beyond = sum(s > value for s in samples)
    note = "" if beyond >= TAIL_SAMPLES else f"; indicative only, {beyond} beyond it"
    return f"{name} = {value:.3f} {unit} ({len(samples)} {what}{note})"


def end_to_end(workload: str, out) -> tuple[dict, list[str]]:
    """The untraced metrics, plus readable lines under the per-workload names."""
    import numpy as np

    ok_ratio = (out.attempted - out.failed) / out.attempted
    metrics = {
        "setup_s": (statistics.median(out.setup_s), "s"),
        "run_s": (statistics.median(out.task_s), "s"),
        "wait_ms_p50": (float(np.percentile(out.wait_ms, 50)), "ms"),
        "wait_ms_p90": (float(np.percentile(out.wait_ms, 90)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (ok_ratio, "ratio"),
    }
    wait = "report_ms" if workload == "report_large" else "step_ms"
    what = "calls" if workload == "report_large" else "steps"
    lines = [
        f"setup_s = {metrics['setup_s'][0]:.4f} s ({len(out.setup_s)} set-ups)",
        f"run_s = {metrics['run_s'][0]:.4f} s ({len(out.task_s)} "
        f"{'report calls' if workload == 'report_large' else 'campaigns'})",
        percentile_line(f"{wait}_p50", out.wait_ms, 50, "ms", what),
        percentile_line(f"{wait}_p90", out.wait_ms, 90, "ms", what),
        f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB",
        f"failed_ratio = {1.0 - ok_ratio:.4f} ({out.failed}/{out.attempted})",
        f"region_cells = {out.counts['region.region_cells']}",
    ]
    if "adaptive.boundary_pick_fraction" in out.counts:  # report_large makes no picks
        lines.append(f"boundary_pick_fraction = {out.counts['adaptive.boundary_pick_fraction']:.4f}")
    return metrics, lines


def per_layer(out) -> tuple[dict, list[str]]:
    import spans

    times, counts, families, same = spans.per_layer(out.tracer)
    counts.update(out.counts)
    if not same:
        out.record(False, "traced tasks of one run gave different counts")
    metrics = {}
    for name, unit in spans.PER_LAYER:
        value = times.get(name, 0.0) if unit == "ms" else counts.get(name, 0)
        metrics[name] = (value, unit)
    exact = {name: value for name, (value, unit) in metrics.items()
             if unit in ("count", "bytes") or name in ("adaptive.useful_fraction",
                                                       "adaptive.boundary_pick_fraction")}
    exact["families"] = families
    return metrics, [f"tasks = {len(out.tracer.task_ids())}", "counts " + json.dumps(exact)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "krigplan" / "__init__.py").is_file():
        print(f"error: no krigplan package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS  # before numpy is first imported
    os.environ.pop("KRIGPLAN_OUT_DIR", None)
    sys.path.insert(0, str(SRC))
    import krigplan
    import workloads

    if Path(krigplan.__file__).resolve().parent != SRC / "krigplan":
        print(f"error: imported krigplan from {krigplan.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    traced = bool(args.trace)
    WORKROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKROOT))
    try:
        if args.workload == "report_large":
            out = workloads.report_workload(args.seed, args.seconds, traced, work)
        else:
            out = workloads.plan_workload(args.workload, args.seed, args.seconds, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORKROOT.rmdir()  # only succeeds once no other run is using it
        except OSError:
            pass

    metrics, lines = {}, []
    if not out.failed:
        metrics, lines = per_layer(out) if traced else end_to_end(args.workload, out)
    for line in lines:
        print(line)
    for problem in out.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = out.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
