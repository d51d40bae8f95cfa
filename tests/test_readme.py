"""README's library example and CLI section run as written."""
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from krigplan.adaptive import STOP_BUDGET, STOP_NATURAL

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def section(title: str) -> str:
    text = README.read_text()
    start = text.index(f"\n{title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_readme_library_example_reaches_a_stop(capsys):
    blocks = re.findall(r"```python\n(.*?)```", section("## Library use"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    state = namespace["state"]
    assert state.stop_reason in (STOP_BUDGET, STOP_NATURAL)
    assert capsys.readouterr().out == f"{state.stop_reason} {len(state.measurements)}\n"


def krigplan(args, cwd, env):
    """`krigplan ARGS` as its own process: (exit code, stdout, stderr)."""
    done = subprocess.run([sys.executable, "-m", "krigplan.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_readme_cli_section_runs_as_processes(tmp_path):
    """The example config, saved as demo.json, through every `export` and
    `krigplan` line of the CLI section's shell blocks but `append` (init, run,
    report, step), each a `python -m krigplan.cli` process: each exits 0, run
    stops on budget and names the region, and every artifact in the table
    exists.  The same config with an unsupported alpha exits 2."""
    cli = section("## CLI")
    config = json.loads(re.search(r"```json\n(.*?)```", cli, re.S).group(1))
    (tmp_path / "demo.json").write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", cli, re.S):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["export"]:
                name, _, value = words[1].partition("=")
                env[name] = value
            elif words[:1] == ["krigplan"] and words[1] != "append":
                commands.append(words[1:])
    assert [words[0] for words in commands] == ["init", "run", "report", "step"]
    for args in commands:
        code, out, err = krigplan(args, tmp_path, env)
        assert code == 0, (args, err)
        if args[0] == "run":
            assert "stop: budget\n" in out
            assert re.search(r"^reliable region: \d+ cells, bounding box m in \[.*\], k in \[.*\]$",
                             out, re.M), out
    out_dir = tmp_path / env["KRIGPLAN_OUT_DIR"]
    artifacts = re.findall(r"^\| `([^`]+)` \|", section("### Artifacts"), re.M)
    assert len(artifacts) == 7
    for artifact in artifacts:
        assert (out_dir / artifact.replace("<name>", config["name"])).is_file(), artifact
    state = json.loads((out_dir / "demo.json").read_text())
    assert state["stop_reason"] == STOP_BUDGET and len(state["measurements"]) == 10

    (tmp_path / "demo.json").write_text(json.dumps({**config, "alpha": 0.2}))
    code, _, err = krigplan(["init", "--config", "demo.json", "--force"], tmp_path, env)
    assert code == 2
    assert "alpha 0.2 is not supported" in err
