"""List every statement inside a function of ``src/eitkit`` that tier-1 never runs.

Runs pytest on ``tests`` and ``perfbench`` in this interpreter under a
line tracer built on ``sys.settrace`` and ``threading.settrace`` alone, then
prints each statement that no test executed as ``path:line: source``, and
appends the list to the file named by ``$GITHUB_STEP_SUMMARY`` when that is
set. It reports and does not gate: the exit status is 0 whatever pytest or
the list says. Code run in a child interpreter is not traced. Run it from
the repository root:

    PYTHONPATH=src python tools/unrun_statements.py

A statement counts as run when any line of its header ran: the whole of a
simple statement, or a compound statement up to its first body statement.
Statements that compile to no code (docstrings, ``global``) are not listed.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "eitkit"


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for ``args``, and the lines each ``SOURCE`` file
    executed, keyed by resolved path."""
    import pytest

    hits: dict[str, set[int]] = {}
    wanted: dict[str, set[int] | None] = {}  # co_filename -> its hit set, or None outside SOURCE

    def local(frame, event, arg):
        if event == "line":
            wanted[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in wanted:
            path = Path(name).resolve()
            wanted[name] = hits.setdefault(str(path), set()) if path.parent == SOURCE else None
        return local if wanted[name] is not None else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def code_lines(code) -> set[int]:
    """Every line that ``code`` or a code object nested in it can report."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def header(node: ast.stmt) -> range:
    """The lines of ``node`` whose execution shows it ran."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    end = max(node.lineno, body[0].lineno - 1) if isinstance(body, list) and body else node.end_lineno
    return range(start, end + 1)


def unrun(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """``(line, source)`` of each statement inside a function of ``path``
    that compiles to code and of which no header line is in ``ran``."""
    source = path.read_text()
    executable = code_lines(compile(source, str(path), "exec"))
    statements = {
        (stmt.lineno, stmt.col_offset): stmt
        for func in ast.walk(ast.parse(source))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for stmt in ast.walk(func)
        if isinstance(stmt, ast.stmt) and stmt is not func
    }
    lines = source.splitlines()
    return [
        (stmt.lineno, lines[stmt.lineno - 1].strip())
        for _, stmt in sorted(statements.items())
        if executable.intersection(header(stmt)) and not ran.intersection(header(stmt))
    ]


def main() -> int:
    status, hits = traced_run(["-q", "-p", "no:cacheprovider", "tests", "perfbench"])
    root = SOURCE.parent.parent
    found = [
        f"{path.relative_to(root)}:{line}: {text}"
        for path in sorted(SOURCE.glob("*.py"))
        for line, text in unrun(path, hits.get(str(path), set()))
    ]
    report = "\n".join([f"### Statements in src/eitkit functions that tier-1 never runs: {len(found)}",
                        f"(pytest exit status {status} under the tracer)", "", "```", *found, "```", ""])
    print(report)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as fh:
            fh.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
