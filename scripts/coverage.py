"""List the `src/` statements that no test under `tests/` executes.

Stdlib only: `sys.settrace` and `threading.settrace` record every line run
in `src/slicesim` while `pytest.main` runs the suite, and `ast` gives each
file's statements.  A statement counts as run when any line of its own
(its header, for a compound statement) is run.  Docstrings, other bare
constants and `global`/`nonlocal` compile to no code and are not counted.

    PYTHONPATH=src python3 scripts/coverage.py [pytest args, default: tests]

Prints `path:line  statement` per unexecuted statement, a count per file, a
total and the line count of `src/`'s Python files.  It is slow (the whole suite under a line tracer) and is not part of
the test suite.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "slicesim"
PREFIX = str(SRC)


def statement_lines(path: Path) -> dict:
    """First line -> own lines of every counted statement in `path`."""
    source = path.read_text(encoding="utf-8")
    statements = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(
                node, (ast.Global, ast.Nonlocal)) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        statements[first] = range(first, max(first, last) + 1)
    return statements


def main(argv: list) -> int:
    executed: dict = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PREFIX):
            return None
        executed.setdefault(filename, set()).add(frame.f_lineno)
        return local

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["tests", "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        hit = executed.get(str(path), set())
        lines = path.read_text(encoding="utf-8").splitlines()
        src_lines += len(lines)
        missed = [first for first, own in sorted(statement_lines(path).items())
                  if not hit.intersection(own)]
        for first in missed:
            print(f"{path.relative_to(ROOT)}:{first}  {lines[first - 1].strip()}")
        if missed:
            print(f"  {path.relative_to(ROOT)}: {len(missed)} unexecuted")
        total += len(missed)
    print(f"total unexecuted statements in src/: {total}")
    print(f"lines in src/: {src_lines}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
