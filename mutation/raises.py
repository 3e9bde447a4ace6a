"""Pytest plugin: every `raise` statement in src/heatfleet must be executed by a test.

    PYTHONPATH=src:mutation python -m pytest -p raises -q -p no:cacheprovider --hypothesis-seed=0

The stdlib `ast` lists the `raise` statements of src/heatfleet. While the
tests run, sys.settrace and threading.settrace trace only the code objects
of those files that hold one, and stop tracing a code object once all of
its raises have run. A raise counts as executed when an exception is
raised at one of its lines; no line events are asked for. A bare `raise`
re-raises without that event, so src/heatfleet may hold none: the plugin
refuses one with a usage error that names its file and line.

At the end of the session the plugin lists every raise that no test
executed and fails the session, unless ALLOWED names it. An ALLOWED key is
the file and the stripped first line of the raise statement, so it survives
edits elsewhere in the file; its value is the one-line reason no test needs
to reach it. A key that matches no unexecuted raise fails the session too,
so the list cannot go stale. Run it over the whole tier-1 suite: a subset
leaves most raises unexecuted.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from typing import NamedTuple

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "heatfleet"

# "<file relative to the repo>: <stripped first line of the raise>" -> reason
ALLOWED: dict[str, str] = {}


class Raise(NamedTuple):
    file: str  # relative to the repo
    line: int  # the first line of the statement
    text: str  # that line, stripped

    @property
    def key(self) -> str:
        return f"{self.file}: {self.text}"


def raise_statements(root: Path = SRC) -> dict[str, dict[int, Raise]]:
    """{absolute file: {line: its Raise}} over every line of every raise statement.
    A bare raise sends the tracer no exception event, so one is a usage error."""
    statements = {}
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        name = path.relative_to(root.parent.parent).as_posix()
        by_line = {}
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.Raise):
                if node.exc is None:
                    raise pytest.UsageError(f"{name}:{node.lineno}: a bare raise cannot be "
                                            "traced; raise an exception object")
                statement = Raise(name, node.lineno, lines[node.lineno - 1].strip())
                by_line.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), statement))
        if by_line:
            statements[str(path)] = by_line
    return statements


class RaiseTracer:
    """Records which raise statements run. trace is the sys.settrace hook: it
    gives a frame a tracer only while its code object holds a raise that has
    not run, and that tracer sees the frame's exceptions, not its lines."""

    def __init__(self, statements: dict[str, dict[int, Raise]]):
        self.statements = statements
        self.executed: set[Raise] = set()
        local_of = {}  # code object -> its tracer, or None once nothing is left

        def tracer(code):
            by_line = statements.get(os.path.abspath(code.co_filename))
            if by_line is None:
                return None
            pending = {by_line[line] for _, _, line in code.co_lines() if line in by_line}
            if not pending:
                return None

            def local(frame, event, arg):
                # a raise statement raises at its first line, a call inside
                # it at a line of its span: both mean the statement ran
                statement = by_line.get(frame.f_lineno)
                if statement in pending and event == "exception":
                    pending.discard(statement)
                    self.executed.add(statement)
                    if not pending:
                        local_of[code] = None
                return local

            return local

        def trace(frame, event, arg):
            code = frame.f_code
            try:
                local = local_of[code]
            except KeyError:
                local = local_of[code] = tracer(code)
            if local is not None:
                frame.f_trace_lines = False
            return local

        self.trace = trace

    def unexecuted(self) -> list[Raise]:
        every = {s for by_line in self.statements.values() for s in by_line.values()}
        return sorted(every - self.executed)


TRACER = pytest.StashKey[RaiseTracer]()
REPORT = pytest.StashKey[list]()


def pytest_configure(config):
    tracer = config.stash[TRACER] = RaiseTracer(raise_statements())
    threading.settrace(tracer.trace)
    sys.settrace(tracer.trace)


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    tracer = session.config.stash[TRACER]
    missing = tracer.unexecuted()
    keys = {s.key for s in missing}
    report = ([f"unexecuted raise: {s.file}:{s.line}: {s.text}"
               for s in missing if s.key not in ALLOWED]
              + [f"allowlist entry matches no unexecuted raise: {key}"
                 for key in ALLOWED if key not in keys])
    total = len({s for by_line in tracer.statements.values() for s in by_line.values()})
    report.append(f"{total - len(missing)} of {total} raise statements executed, "
                  f"{sum(s.key in ALLOWED for s in missing)} unexecuted and allowed")
    session.config.stash[REPORT] = report
    if len(report) > 1 and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    terminalreporter.section("raise statements")
    for line in config.stash[REPORT]:
        terminalreporter.write_line(line)
