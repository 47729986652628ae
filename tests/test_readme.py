"""The README's library example runs as printed."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from cantornorm import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comments():
    text = README.read_text()
    section = text[text.index("## Library example"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["2/3", "True"]


def _examples():
    text = README.read_text()
    section = text[text.index("Examples:"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines()
            if line.startswith("cantornorm ")]


@pytest.mark.parametrize("line", _examples())
def test_cli_example_runs(line, monkeypatch, capsys):
    monkeypatch.chdir(README.parent)
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
