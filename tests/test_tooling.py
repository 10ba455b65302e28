"""Checks on the package source itself and on the scripts that drive it."""

import ast
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "hopla"


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements, so no check in src/ may be one
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_coderivation_scan_script_reports_no_failures():
    # the first four seeds draw arity-2 families only; seeds 4, 7, 9 and 10
    # add an arity-1 operation, which gives the Perm extension's degenerate
    # unshuffle blocks
    done = subprocess.run([sys.executable, "scripts/coderivation_scan.py", "12", "4", "4"],
                          cwd=REPO, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "arities [1, 2]" in done.stdout
    assert "12 ok, 0 failures" in done.stdout
