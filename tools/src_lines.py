"""Count the code lines and physical lines of each ``src/varifold_lab/*.py`` module.

A code line is a non-blank line that is neither a comment nor part of a module, class or
function docstring. A physical line is any line. The script reads the sources with ``ast``
and imports nothing from the package::

    python tools/src_lines.py [SRC_DIR [NEW_SRC_DIR]]

SRC_DIR defaults to ``src/varifold_lab`` next to this script's directory. Given a second tree,
it prints each module's code and physical lines in both and the change in code lines; a module
in one tree only counts 0 lines in the other.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers (1-based) spanned by the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(code lines, physical lines) of one source file."""
    text = path.read_text()
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    code = sum(1 for k, line in enumerate(lines, 1)
               if line.strip() and not line.strip().startswith("#") and k not in docs)
    return code, len(lines)


def counts(src: Path) -> dict[str, tuple[int, int]]:
    """``count`` of each module in ``src``, by file name."""
    return {path.name: count(path) for path in sorted(src.glob("*.py"))}


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        sys.exit("usage: python tools/src_lines.py [SRC_DIR [NEW_SRC_DIR]]")
    trees = [counts(Path(a)) for a in argv] or [
        counts(Path(__file__).resolve().parent.parent / "src" / "varifold_lab")]
    rows = {name: [t.get(name, (0, 0)) for t in trees] for name in sorted(set().union(*trees))}
    rows["total"] = [(sum(c for c, _ in t.values()), sum(p for _, p in t.values())) for t in trees]
    if len(trees) == 1:
        print(f"{'module':<16}{'code':>7}{'physical':>10}")
        for name, [(code, physical)] in rows.items():
            print(f"{name:<16}{code:>7,}{physical:>10,}")
    else:
        print(f"{'module':<16}{'code':>7}{'new':>7}{'delta':>7}{'physical':>10}{'new':>7}")
        for name, [(code, physical), (new_code, new_physical)] in rows.items():
            print(f"{name:<16}{code:>7,}{new_code:>7,}{new_code - code:>+7,}{physical:>10,}{new_physical:>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
