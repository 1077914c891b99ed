"""README examples run as written, so the README cannot drift from the code."""

import ast
import io
import re
import sys
from pathlib import Path

import pytest

from specdom.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)

# README commands that read no input file; `search --gen-all 7` is left to
# the acceptance sweeps, which cover the same scan at length
COMMANDS = [
    ("specdom build brouwer-extremal 8 15 4", None),
    ("specdom build cycle-dominator 8", None),
    ("specdom build pineapple 8 6", None),
    ("specdom build clique-isolated 9", None),
    ("echo GhCGKC | specdom analyze -", "GhCGKC\n"),
    ("specdom enumerate-threshold 10", None),
    ("specdom enumerate-threshold 10 20 --json", None),
]


def test_python_blocks_found():
    assert len(PYTHON_BLOCKS) == 2


@pytest.mark.parametrize("block", PYTHON_BLOCKS)
def test_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})


def test_commented_results_hold():
    # lines "expr   # literal" state the value of expr after the lines above
    block = next(b for b in PYTHON_BLOCKS if "ThresholdGraph(8, (4, 3, 1))" in b)
    namespace = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment.strip():
            assert eval(code, namespace) == ast.literal_eval(comment.strip()), line
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 2


@pytest.mark.parametrize("command,stdin_text", COMMANDS)
def test_command_exits_zero(command, stdin_text, capsys, monkeypatch):
    assert command in README
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin_text.encode())))
    argv = command.split("specdom ", 1)[1].split()
    assert main(argv) == 0
    assert capsys.readouterr().out
