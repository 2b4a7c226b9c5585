"""Count the code lines and physical lines of each ``src/varifold_lab/*.py`` module.

A code line is a non-blank line that is neither a comment nor part of a module, class or
function docstring. A physical line is any line. The script reads the sources with ``ast``
and imports nothing from the package::

    python tools/src_lines.py [SRC_DIR]

SRC_DIR defaults to ``src/varifold_lab`` next to this script's directory.
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


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "varifold_lab"
    total_code = total_physical = 0
    print(f"{'module':<16}{'code':>7}{'physical':>10}")
    for path in sorted(src.glob("*.py")):
        code, physical = count(path)
        total_code += code
        total_physical += physical
        print(f"{path.name:<16}{code:>7,}{physical:>10,}")
    print(f"{'total':<16}{total_code:>7,}{total_physical:>10,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
