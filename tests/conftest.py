"""Shared fixtures and the acceptance summary hook."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ACCEPTANCE_PREFIX = "test_acceptance.py"
SRC = Path(__file__).resolve().parent.parent / "src"

_results = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if ACCEPTANCE_PREFIX not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    _results[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_results):
        outcome = _results[name].upper()
        terminalreporter.write_line(f"ACCEPTANCE {outcome:6s} {name}")


@pytest.fixture(scope="session")
def all_graphs_cache():
    """Bit masks of every labeled graph, keyed by n (lazy, shared)."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = list(range(1 << (n * (n - 1) // 2)))
        return cache[n]

    return get


@pytest.fixture(scope="session")
def run_python():
    """``python ARGS...`` in a subprocess that imports specdom from this
    checkout's ``src``, whatever the caller's PYTHONPATH; returns the
    CompletedProcess with stdout and stderr captured."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")

    def run(args, **kwargs):
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, **kwargs)
    return run
