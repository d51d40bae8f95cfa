"""README's library example runs as written."""
import re
from pathlib import Path

from krigplan.adaptive import STOP_BUDGET, STOP_NATURAL

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_reaches_a_stop(capsys):
    text = README.read_text()
    start = text.index("## Library use\n")
    section = text[start:text.index("\n## ", start)]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    state = namespace["state"]
    assert state.stop_reason in (STOP_NATURAL, STOP_BUDGET)
    assert capsys.readouterr().out == f"{state.stop_reason} {len(state.measurements)}\n"
