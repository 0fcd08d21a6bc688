"""Print the code lines of each module of ``src/regover``: the lines that
are not blank, not a comment and not part of a docstring (the string that
opens a module, class or function body).

    python3 tools/code_lines.py
"""

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "regover"


def docstring_lines(tree):
    """The line numbers taken by the docstrings in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of code lines in the Python source text."""
    skip = docstring_lines(ast.parse(text))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), 1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


def main():
    total = 0
    for path in sorted(SOURCE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.stem:12} {count:5}")
    print(f"{'total':12} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
