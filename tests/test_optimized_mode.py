"""Verdicts do not rest on `assert` statements, which `python -O` strips,
only the face table reads its `words`, so a released table fails with one
error at every reader, and the matching checks read no cover incidence."""

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


def test_only_the_face_table_reads_its_words_attribute():
    # every other module reads the words through FaceTable._words(), which
    # raises one ValueError on a released table
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "hcomplex").rglob("*.py"))
        if path.name != "complexes.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "words"
    ]
    assert found == []


def test_the_matching_module_never_reads_the_cover_incidence():
    # both matchings are checked on the words: a pair by cover_swap, the dual as a mirror
    found = [
        node.lineno
        for node in ast.walk(ast.parse((SRC / "hcomplex" / "matching.py").read_text()))
        if "cover_incidence" in (getattr(node, "attr", None), getattr(node, "id", None))
    ]
    assert found == []


def run_plain_and_optimized(env, *argv):
    """Run the CLI with and without -O; both must exit 0."""
    plain, optimized = (
        subprocess.run([sys.executable, *flags, "-m", "hcomplex.cli", *argv], env=env,
                       capture_output=True, text=True, timeout=300)
        for flags in ([], ["-O"])
    )
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == 0, optimized.stderr
    return plain.stdout, optimized.stdout


def test_report_is_the_same_under_python_O(subprocess_env):
    plain, optimized = run_plain_and_optimized(
        subprocess_env, "report", "--n-max", "6", "--no-cache")
    assert "PASS" in plain
    assert optimized == plain


def test_homology_is_the_same_under_python_O(subprocess_env):
    # the cleared Smith forms rest on no assert
    plain, optimized = run_plain_and_optimized(
        subprocess_env, "homology", "--n", "7", "--coefficients", "Z")
    assert '"betti": [' in plain
    assert optimized == plain


def test_witness_is_the_same_under_python_O(subprocess_env):
    # each swap term is checked by face_from_perm, not by an assert
    plain, optimized = run_plain_and_optimized(
        subprocess_env, "witness", "--n", "8", "--k", "2")
    assert '"freeFace": ' in plain
    assert optimized == plain


def test_dual_matching_and_morse_are_the_same_under_python_O(subprocess_env):
    # the dual check is the primal report, M1 and M2, none of them an assert
    for command in ("match", "morse"):
        plain, optimized = run_plain_and_optimized(
            subprocess_env, command, "--n", "6", "--dual")
        assert '"dual": true' in plain
        assert optimized == plain
