"""List the statements of src/flowtree that the tier-1 suite never runs.

    python3 tools/never_run.py [pytest arguments]

Run it from anywhere; it runs ``tests/`` of its own checkout in this
interpreter under a standard-library ``sys.settrace`` line tracer, so no
coverage package is needed, and then prints every statement of
``src/flowtree`` that no test ran: by module, its line number and first
source line, then the count.  Last it names each failed test whose only
failed assertion is a runtime limit (the "criterion N runtime Xs > Ls"
of the acceptance criteria), since the tracer slows every test: such a
failure is a timing under the tracer, not a fault of the library.

A statement counts as run when a line event falls on its first lines (its
decorators and header for a compound statement, all of it otherwise) or
when a statement in its body ran; string constants standing alone
(docstrings) compile to nothing and are not counted.  Code that runs only
in a child process is not seen.  The tracer makes the suite several times
slower, so this is not part of tier-1; pytest does not collect it.  The
exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import pathlib
import re
import sys
import threading
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "flowtree"
# the message of an acceptance criterion that failed on its runtime limit only
RUNTIME_LIMIT = re.compile(r"AssertionError: (criterion \d+ runtime \S+ > \S+)")


def _spans(tree):
    """(statement, first line, last line of its header, child statements)
    for every statement that compiles to code."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        bodies = [getattr(node, f, []) for f in ("body", "orelse", "finalbody")]
        bodies += [h.body for h in getattr(node, "handlers", ())]
        bodies += [c.body for c in getattr(node, "cases", ())]
        children = [s for body in bodies for s in body]
        last = max(first, children[0].lineno - 1) if children else node.end_lineno
        out.append((node, first, last, children))
    return out


def never_run(path: pathlib.Path, hits: set[int]) -> list[int]:
    """The first lines of path's statements that did not run, given the
    lines on which line events fell."""
    spans = _spans(ast.parse(path.read_text(encoding="utf-8")))
    ran = {}
    # ast.walk is breadth first, so reversed, children come before parents
    for node, first, last, children in reversed(spans):
        ran[node] = (any(line in hits for line in range(first, last + 1))
                     or any(ran.get(c, False) for c in children))
    return sorted(first for node, first, _, _ in spans if not ran[node])


class _Failures:
    """A pytest plugin that keeps the id and crash message of every failed
    test report."""

    def __init__(self):
        self.reports: list[tuple[str, str]] = []

    def pytest_runtest_logreport(self, report):
        if report.failed:
            crash = getattr(report.longrepr, "reprcrash", None)
            self.reports.append((report.nodeid, crash.message if crash
                                 else str(report.longrepr)))


def _trace_lines(argv) -> tuple[int, dict[str, set[int]], list[tuple[str, str]]]:
    """pytest's exit status on tests/, the lines run in each file of SRC,
    and the (test id, crash message) of each failed test report."""
    import pytest

    prefix = str(SRC) + os.sep
    hits: dict[str, set[int]] = defaultdict(set)
    failures = _Failures()

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors",
                              str(ROOT / "tests"), *argv], plugins=[failures])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits, failures.reports


def main(argv) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    status, hits, failed = _trace_lines(argv)
    total = 0
    print("\nstatements of src/flowtree that no tier-1 test ran:")
    for path in sorted(SRC.glob("*.py")):
        lines = never_run(path, hits.get(str(path), set()))
        if not lines:
            continue
        source = path.read_text(encoding="utf-8").splitlines()
        print(f"{path.relative_to(ROOT)}: {len(lines)}")
        for line in lines:
            print(f"  {line:5d}  {source[line - 1].strip()}")
        total += len(lines)
    print(f"total: {total}")
    timed = [(test, limit[1]) for test, message in failed
             if (limit := RUNTIME_LIMIT.match(message))]
    print("failures whose only failed assertion is a runtime limit:"
          + ("" if timed else " none"))
    for test, limit in timed:
        print(f"  {test}: {limit}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
