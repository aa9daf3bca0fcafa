"""The README's Python blocks run as written, each in a fresh namespace, so
the API they show cannot drift from the code."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(code, capsys):
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out  # every block prints what it shows
