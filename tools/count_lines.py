"""Count total and code lines of each module in ``src/sliceforge``.

A code line is non-blank, not comment-only, and not inside a module, class or
function docstring. Prints one row per file, then the sums, as a Markdown
table. Standard library only.

    python tools/count_lines.py [source directory]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "sliceforge"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers (1-based) of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple:
    """(total lines, code lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text, str(path)))
    lines = text.splitlines()
    code = sum(1 for i, line in enumerate(lines, 1)
               if line.strip() and not line.strip().startswith("#") and i not in docs)
    return len(lines), code


def main(argv: list) -> int:
    source = Path(argv[1]) if len(argv) > 1 else SOURCE
    rows = [(path.name, *count(path)) for path in sorted(source.glob("*.py"))]
    print("| file | total lines | code lines |\n|---|---:|---:|")
    for name, total, code in rows:
        print(f"| {name} | {total:,} | {code:,} |")
    print(f"| **sum** | **{sum(r[1] for r in rows):,}** | **{sum(r[2] for r in rows):,}** |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
