"""List the statements inside the package's functions that the Tier-1 suite never runs.

    python tools/unreached.py [PYTEST_ARGS...]

Run it from the root of a checkout. It runs pytest in this process (``-p no:cacheprovider
--continue-on-collection-errors`` plus any arguments given, so ``tests/test_mesh.py -x``
narrows the run) under ``sys.settrace``, recording the lines executed in frames whose code
lies in ``src/varifold_lab``. Then it prints, per module, each statement inside a function
or method whose lines never ran, and exits with pytest's exit code.

A statement counts as run when any of its lines ran; for a compound statement (``if``,
``for``, ``with``, ...) only the lines of its header count, its body's statements are
judged one by one. A line counts only when the compiled code starts a line event there, so
a statement that compiles to nothing (``global``) is never listed. Code that only runs in
a subprocess, such as the CLI tests that start ``python -m varifold_lab.cli``, is not
traced and so is listed unless an in-process test reaches it too. Tracing about doubles
the suite's time (76 s against 39 s on a 2-vCPU host). The script needs nothing beyond
pytest.
"""
from __future__ import annotations

import ast
import sys
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "varifold_lab"


def trace_lines(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """(pytest's exit code, the lines run in each package file, by path) for one pytest run."""
    import pytest

    prefix = str(SRC) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        ran.setdefault(path, set()).add(frame.f_lineno)
        return local

    sys.settrace(call)  # this thread only: neither the package nor its tests start threads
    try:
        code = pytest.main(["-p", "no:cacheprovider", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
    return int(code), ran


def line_starts(code: types.CodeType) -> set[int]:
    """Lines at which ``code`` or a code object nested in it starts a line event."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= line_starts(const)
    return lines


def function_statements(tree: ast.Module) -> list[tuple[int, int]]:
    """(first, last) line of each statement inside a function or method, in source order.

    A compound statement (``def``, ``if``, ``for``, ...) spans its decorators and header
    only: its body's statements are listed one by one.
    """
    spans = []

    def visit(stmts: list[ast.stmt], in_function: bool) -> None:
        for s in stmts:
            blocks = [getattr(s, f) for f in ("body", "orelse", "finalbody") if getattr(s, f, None)]
            blocks += [h.body for h in getattr(s, "handlers", [])] + [c.body for c in getattr(s, "cases", [])]
            if in_function:
                first = min([s.lineno] + [d.lineno for d in getattr(s, "decorator_list", [])])
                spans.append((first, min([s.end_lineno] + [b[0].lineno - 1 for b in blocks])))
            inside = in_function or isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
            for b in blocks:
                visit(b, inside)

    visit(tree.body, False)
    return sorted(spans)


def unreached(path: Path, ran: set[int]) -> list[tuple[int, int]]:
    """(first, last) line of each function statement of ``path`` none of whose lines ran."""
    text = path.read_text()
    starts = line_starts(compile(text, str(path), "exec"))
    out = []
    for first, last in function_statements(ast.parse(text)):
        lines = starts.intersection(range(first, last + 1))
        if lines and not lines & ran:
            out.append((first, last))
    return out


def main(argv: list[str]) -> int:
    code, ran = trace_lines(argv)
    total = 0
    print()
    for path in sorted(SRC.glob("*.py")):
        spans = unreached(path, ran.get(str(path), set()))
        if spans:
            print(path.name)
            lines = path.read_text().splitlines()
        for first, last in spans:
            where = f"{first}" if first == last else f"{first}-{last}"
            print(f"  {where:>9}  {lines[first - 1].strip()}")
        total += len(spans)
    print(f"{total} statement(s) in functions never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
