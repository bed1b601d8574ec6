"""Verdicts do not rest on `assert` statements, which `python -O` strips."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_assert_statements_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "hcomplex").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_report_is_the_same_under_python_O(subprocess_env):
    argv = ["-m", "hcomplex.cli", "report", "--n-max", "6", "--no-cache"]
    plain, optimized = (
        subprocess.run([sys.executable, *flags, *argv], env=subprocess_env,
                       capture_output=True, text=True, timeout=300)
        for flags in ([], ["-O"])
    )
    assert plain.returncode == 0 and "PASS" in plain.stdout, plain.stderr
    assert optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout
