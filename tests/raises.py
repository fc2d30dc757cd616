"""Raise statements in src/annlogic that the test suite never runs.

    python3 tests/raises.py [PYTEST ARG ...]

The script runs pytest in this interpreter (by default on all of tests/,
as tier-1 does) under a `sys.settrace` line tracer that follows only the
frames of src/annlogic.  It then prints, as file:line, each `raise`
statement whose first line never ran, the count of those that did, the
wall time and pytest's exit status.  It exits 1 if pytest failed.  It
needs only the standard library: coverage.py would do the same.  A call
that runs in a fresh interpreter, such as a subprocess test, is not
traced, so a raise that only such a call reaches is listed.  Hypothesis
runs with seed 0, so that two runs list the same statements, and without
deadlines, as the tracer slows every call.  Pytest does not collect this
file, and tier-1 does not run it.
"""

import ast
import os
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "annlogic"


def raise_lines():
    """(file name, line) of the first line of every raise statement, sorted."""
    return sorted((path.name, node.lineno)
                  for path in PACKAGE.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Raise))


class NoDeadlines:
    """Turns Hypothesis deadlines off before the test modules are imported;
    Hypothesis itself is imported as a pytest plugin, not before."""

    @staticmethod
    def pytest_sessionstart(session):
        from hypothesis import settings

        settings.register_profile("raises", deadline=None)
        settings.load_profile("raises")


def traced(args):
    """(pytest's exit status, {(file name, line)} of the package lines that ran)."""
    ran, traced_files = set(), {}

    def in_package(filename):
        if filename not in traced_files:
            path = Path(filename).resolve()
            traced_files[filename] = path.parent == PACKAGE and path.name
        return traced_files[filename]

    def line_tracer(frame, event, arg):
        if event == "line":
            ran.add((traced_files[frame.f_code.co_filename], frame.f_lineno))
        return line_tracer

    def call_tracer(frame, event, arg):
        return line_tracer if in_package(frame.f_code.co_filename) else None

    sys.settrace(call_tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *args],
                             plugins=[NoDeadlines()])
    finally:
        sys.settrace(None)
    return status, ran


def main(args):
    os.chdir(ROOT)
    start = time.perf_counter()
    status, ran = traced(args or ["tests"])
    elapsed = time.perf_counter() - start
    statements = raise_lines()
    never = [f"{name}:{line}" for name, line in statements if (name, line) not in ran]
    print("raise statements that never ran:", ", ".join(never) or "none")
    print(f"{len(statements) - len(never)} of {len(statements)} raise statements ran; "
          f"{elapsed:.0f} s; pytest exit status {int(status)}")
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
