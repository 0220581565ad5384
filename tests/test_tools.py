"""The repository tools, run on small inputs whose answers are known."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

SYNTHETIC = '''\
"""Module docstring
over two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """One-line docstring."""
    text = """a string
that spans two lines"""
    return (x +
            1)


class C:
    \'\'\'Class docstring.\'\'\'

    y = 1
'''


def test_code_lines_leaves_out_docstrings_comments_and_blanks(tmp_path):
    # code: import, def, the two-line string, the two-line return, class
    # and y = 1; the module, function and class docstrings do not count
    (tmp_path / "a.py").write_text(SYNTHETIC)
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n")
    out = subprocess.run(
        [sys.executable, str(TOOLS / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert [line.split() for line in out.splitlines()] == [
        ["a.py", "8", "20"],
        ["b.py", "1", "3"],
        ["total", "9", "23"],
    ]
