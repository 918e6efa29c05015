"""Shared test plumbing: collects acceptance-criterion result lines and
prints them as a summary section at the end of the run, and gives child
interpreters an environment that imports this checkout."""

import os

import pytest

import padic_spectra

_criterion_lines = []


@pytest.fixture
def criterion_log():
    def log(line):
        _criterion_lines.append(line)

    return log


@pytest.fixture
def child_env():
    """os.environ with this checkout's src/ first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(padic_spectra.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_criterion_lines):
            terminalreporter.write_line(line)
