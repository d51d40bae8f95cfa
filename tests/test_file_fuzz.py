"""Mutation fuzz of the CLI's file edges.

Each example replaces one value of a valid config file (for ``init``) or of
a valid finished experiment file (for ``step``, ``run``, ``run --seed 1`` and
``report``) with a malformed value: a leaf, or as often a whole object or
list.  Whatever the value, ``main`` must return one of the documented exit
codes instead of raising.
"""
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krigplan.cli import main

from test_io_cli import CONFIG

EXIT_CODES = {0, 2, 3, 4}

# Floats are drawn from a fixed set: a tiny stride or a huge axis bound is a
# well-formed grid of astronomically many points, which exhausts memory
# rather than failing to parse.
VALUES = st.one_of(
    st.sampled_from([None, True, False, 10**400, [], {}, [1], [1.0, 2.0, 3.0],
                     float("nan"), float("inf"), float("-inf"), -0.0, 0.25, 1.5, -2.5, 7.0]),
    st.integers(-3, 3),
    st.text(max_size=3),
)

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=80)


def key_paths(node, prefix=()):
    """(leaves, containers): the key paths of every scalar or empty container
    in a JSON document, and of every non-empty object or list below its root."""
    if isinstance(node, dict) and node:
        children = node.items()
    elif isinstance(node, list) and node:
        children = enumerate(node)
    else:
        return [prefix], []
    leaves, containers = [], [prefix] if prefix else []
    for key, child in children:
        below = key_paths(child, prefix + (key,))
        leaves += below[0]
        containers += below[1]
    return leaves, containers


def targets(document):
    """The key path to replace: a leaf, or as often a whole object or list."""
    leaves, containers = key_paths(document)
    return st.one_of(st.sampled_from(leaves), st.sampled_from(containers))


def mutated(document, path, value):
    copy = json.loads(json.dumps(document))
    target = copy
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return copy


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def finished_experiment(tmp_path_factory):
    directory = tmp_path_factory.mktemp("finished")
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(CONFIG))
    assert quiet_main(["init", "--config", str(config_path)]) == 0
    experiment = directory / f"{CONFIG['name']}.json"
    assert quiet_main(["run", str(experiment)]) == 0
    return json.loads(experiment.read_text())


COMMANDS = [["step"], ["run"], ["run", "--seed", "1"], ["report"]]


@FUZZ
@given(path=targets(CONFIG), value=VALUES)
def test_init_survives_one_malformed_config_leaf(workdir, path, value):
    config_path = workdir / "fuzz-config.json"
    config_path.write_text(json.dumps(mutated(CONFIG, path, value)))
    assert quiet_main(["init", "--config", str(config_path), "--force"]) in EXIT_CODES


@FUZZ
@given(data=st.data(), command=st.sampled_from(COMMANDS), value=VALUES)
def test_commands_survive_one_malformed_experiment_leaf(workdir, finished_experiment,
                                                       data, command, value):
    path = data.draw(targets(finished_experiment))
    experiment = workdir / "fuzz-experiment.json"
    experiment.write_text(json.dumps(mutated(finished_experiment, path, value)))
    assert quiet_main([command[0], str(experiment), *command[1:]]) in EXIT_CODES
