"""The benchmark's tracer against the package it wraps.

perfbench/spans.py wraps public entry points by name on ``krigplan.adaptive``,
``krigplan.cli`` and ``krigplan.experiment_io``, and the ``lu`` and
``condition_estimate`` methods of ``KrigingSystem``.  Removing or renaming one
of those names makes every traced benchmark run fail, and the benchmark's own
tests are too slow for the default suite, so this checks the wrapping here.
"""
import json
from pathlib import Path

import pytest

from krigplan.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    return spans


def test_tracer_wraps_and_restores_every_entry_point(spans, tmp_path, capsys):
    import krigplan.adaptive as adaptive
    import krigplan.cli as cli
    import krigplan.experiment_io as eio
    from krigplan.kriging import KrigingSystem

    modules = (adaptive, cli, eio, KrigingSystem)
    before = [dict(vars(owner)) for owner in modules]

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "name": "demo",
        "grid": {"m_min": 0.5, "m_max": 3.0, "m_stride": 0.5,
                 "k_min": 1.0, "k_max": 30.0, "k_stride": 1.0, "k_scale": 0.1},
        "threshold": 4.0,
        "max_iterations": 2,
        "initial_design": {"lattice": [2, 3]},
        "oracle": {"kind": "synthetic_logistic"},
    }))
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert main(["init", "--config", str(config_path)]) == 0
        exp_path = capsys.readouterr().out.strip()
        with tracer.task("cli.main"):
            assert main(["run", exp_path]) == 0
            assert main(["report", exp_path]) == 0

    assert [dict(vars(owner)) for owner in modules] == before
    times, counts, _, same = spans.per_layer(tracer)
    assert same
    assert counts["experiment_io.format.calls"] == 12  # six artifacts, twice
    assert counts["variogram.select.calls"] >= 2
    # Every fit estimates one empirical variogram and selects one model from
    # it; a refactor that stops calling either traced name fails here rather
    # than zeroing its per-layer metric.
    assert counts["variogram.empirical.calls"] == counts["variogram.select.calls"]
    assert "kriging.lu.ms" in times
    assert "kriging.condition.ms" in times
    # One condition read and one inversion per assembled system.
    assert counts["kriging.condition.calls"] == counts["kriging.lu.calls"] == counts["kriging.assemble.calls"]
