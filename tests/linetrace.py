"""List the lines of ``src/tcassim`` that no test runs.

A pytest plugin, loaded by name, that needs nothing beyond the standard
library:

    PYTHONPATH=tests:src python -m pytest -p linetrace

It traces every line the package runs in the pytest process (not in the
subprocesses some tests start) with ``sys.settrace``, and when the session
ends prints each executable line that never ran, as ``path:line``.  The
executable lines of a module are those its compiled code objects map an
instruction to (``co_lines``).  Pytest does not collect this file, as its
name does not start with ``test_``.

Under the tracer the suite runs several times slower, so a wall-clock
budget can fail.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tcassim"

_ran: set[tuple[str, int]] = set()
_in_package: dict[str, str | None] = {}  # co_filename -> resolved path, or None
_untraced: list[str] = []  # tests that found the tracer unset


def _package_file(filename: str) -> str | None:
    if filename not in _in_package:
        real = Path(os.path.realpath(filename))
        _in_package[filename] = str(real) if real.parent == PACKAGE else None
    return _in_package[filename]


def _trace_lines(frame, event, arg):
    if event == "line":
        _ran.add((_in_package[frame.f_code.co_filename], frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    path = _package_file(frame.f_code.co_filename)
    if path is None:
        return None
    _ran.add((path, frame.f_lineno))  # a function's first instruction is on its def line
    return _trace_lines


def _executable_lines(path: Path) -> set[int]:
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def unrun_lines() -> list[str]:
    """``path:line`` for every executable package line not traced yet."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = {line for file, line in _ran if file == str(path)}
        rel = path.relative_to(PACKAGE.parent.parent)
        out += [f"{rel}:{line}" for line in sorted(_executable_lines(path) - ran)]
    return out


def pytest_configure(config):
    sys.settrace(_trace_calls)


def pytest_runtest_setup(item):
    # an exception inside a trace function (a RecursionError in a deep
    # test, say) unsets it; trace the next test anyway, and say so
    if sys.gettrace() is not _trace_calls:
        _untraced.append(item.nodeid)
        sys.settrace(_trace_calls)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    unrun = unrun_lines()
    terminalreporter.section(f"linetrace: src/tcassim lines never run: {len(unrun)}")
    for entry in unrun:
        terminalreporter.write_line(entry)
    for nodeid in _untraced:
        terminalreporter.write_line(f"tracer was unset before {nodeid}")
