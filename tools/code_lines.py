"""Count the source lines of each module of the twinfringes package.

Prints, per module and in total, the code lines (every line that holds
part of a statement, with docstrings, comments and blank lines left
out) and the plain line count that ``wc -l`` gives. Standard library
only.

Usage: python3 tools/code_lines.py [DIR]   (default: src/twinfringes)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(text: str) -> tuple[int, int]:
    """(code lines, plain lines) of one module's source text."""
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NON_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings), text.count("\n")


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1] / "src" / "twinfringes")
    total_code = total_plain = 0
    for path in sorted(root.glob("*.py")):
        code, plain = count_lines(path.read_text(encoding="utf-8"))
        total_code += code
        total_plain += plain
        print(f"{path.name:20} {code:6} {plain:6}")
    print(f"{'total':20} {total_code:6} {total_plain:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
