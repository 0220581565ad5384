"""The repository tools, run on small inputs whose answers are known."""

import importlib.util
import json
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


def _byte_identity():
    spec = importlib.util.spec_from_file_location("byte_identity", TOOLS / "byte_identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_byte_identity_names_what_differs_in_json_and_csv(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    report = {"model": "maximal", "radii_m": [0.0, 1e-3], "tol": 0.01, "passed": True}
    (parent / "r.json").write_text(json.dumps(report))
    report.update(radii_m=[0.0, 1.5e-3], tol=0.02, added=1.0)
    (change / "r.json").write_text(json.dumps(report))
    (parent / "p.csv").write_text("rho_m,rate\n0.0,1.0\n1.0,4.0\n2.0,2.0\n")
    (change / "p.csv").write_text("rho_m,rate\n0.0,1.0\n1.0,5.0\n2.0,2.5\n")
    (parent / "same.csv").write_text("a\n1\n")
    (change / "same.csv").write_text("a\n1\n")
    codes = ({"run": 0}, {"run": 0})
    assert _byte_identity().compare(parent, change, codes) == [
        "p.csv: bytes differ (35 vs 35 bytes; 2 fields changed, largest relative change 0.2)",
        "r.json: bytes differ (74 vs 89 bytes; keys changed: radii_m, tol; "
        "keys only in change: added; largest numeric change 0.01)",
    ]
