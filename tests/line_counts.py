"""Blank, comment, docstring and code lines of each ``src/qdiscord`` module.

Run from anywhere: ``python tests/line_counts.py``.  A line inside the
docstring of a module, class or function (found with :mod:`ast`) is a
docstring line; otherwise a whitespace-only line is blank, a line that
starts with ``#`` is a comment and any other line is code, a trailing
comment included.  Only code lines measure how much program there is.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qdiscord"
KINDS = ("blank", "comment", "docstring", "code")


def docstring_lines(tree):
    """Line numbers (1-based) spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        owner = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        if owner and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def split(text):
    """{kind: line count} of one module's source ``text``."""
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        if number in docs:
            counts["docstring"] += 1
        elif not line.strip():
            counts["blank"] += 1
        elif line.lstrip().startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main():
    print(f"{'module':<16}" + "".join(f"{k:>10}" for k in KINDS) + f"{'total':>10}")
    total = dict.fromkeys(KINDS, 0)
    for path in sorted(PACKAGE.glob("*.py")):
        counts = split(path.read_text())
        for k in KINDS:
            total[k] += counts[k]
        print(f"{path.name:<16}" + "".join(f"{counts[k]:>10}" for k in KINDS) + f"{sum(counts.values()):>10}")
    print(f"{'total':<16}" + "".join(f"{total[k]:>10}" for k in KINDS) + f"{sum(total.values()):>10}")


if __name__ == "__main__":
    main()
