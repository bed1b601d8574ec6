"""Integer Smith form and ranks, cross-checked against sympy and dense Gauss."""

import copy
import random
import subprocess
import sys

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from hcomplex.snf import (
    rank_mod_p,
    rank_q,
    rows_from_dense,
    smith_normal_form,
)


def transpose_rows(rows):
    out = {}
    for i, row in rows.items():
        for j, v in row.items():
            out.setdefault(j, {})[i] = v
    return out


def sympy_invariants(dense):
    m = sympy.Matrix(dense)
    if m.rows == 0 or m.cols == 0:
        return ()
    return tuple(int(d) for d in sympy_snf(m).diagonal() if d)


def test_frozen_smith_forms():
    assert smith_normal_form(rows_from_dense([[2, 4], [0, 6]])) == (2, 6)
    assert smith_normal_form(rows_from_dense([[4, 0], [0, 6]])) == (2, 12)
    assert smith_normal_form(rows_from_dense([[1, 0], [0, 1]])) == (1, 1)
    assert smith_normal_form(rows_from_dense([[0, 0], [0, 0]])) == ()
    assert smith_normal_form({}) == ()
    # divisibility chain on a matrix with torsion
    assert smith_normal_form(rows_from_dense([[2, 0, 0], [0, 3, 0], [0, 0, 10]])) == (1, 2, 30)


dense_matrices = st.integers(0, 6).flatmap(
    lambda rows: st.integers(0, 6).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(dense_matrices)
def test_smith_form_matches_sympy(dense):
    ours = smith_normal_form(rows_from_dense(dense))
    theirs = sympy_invariants(dense)
    assert tuple(abs(d) for d in ours) == tuple(abs(d) for d in theirs)
    for a, b in zip(ours, ours[1:]):
        assert b % a == 0  # divisibility chain


@settings(max_examples=150, deadline=None)
@given(dense_matrices)
def test_rank_q_matches_sympy(dense):
    expected = sympy.Matrix(dense).rank() if dense and dense[0] else 0
    assert rank_q(smith_normal_form(rows_from_dense(dense))) == expected


@settings(max_examples=150, deadline=None)
@given(dense_matrices, st.sampled_from([2, 3, 5, 7]))
def test_rank_mod_p_matches_dense_gauss(gauss_rank_mod_p, dense, p):
    invariants = smith_normal_form(rows_from_dense(dense))
    assert rank_mod_p(invariants, p) == gauss_rank_mod_p(dense, p)


def test_pivots_name_the_unit_pivot_columns():
    found = []
    assert smith_normal_form(rows_from_dense([[0, 1], [2, 4]]), found) == (1, 2)
    assert found == [1]  # the 2 the dense residual finds is no unit pivot
    found = []
    assert smith_normal_form(rows_from_dense([[2, 4], [0, 6]]), found) == (2, 6)
    assert found == []


@settings(max_examples=150, deadline=None)
@given(dense_matrices)
def test_pivot_columns_span_a_unimodular_block(dense):
    # the columns a Smith form reports as unit pivots have all invariant
    # factors 1: some square block of them has determinant +-1
    pivots = []
    smith_normal_form(rows_from_dense(dense), pivots)
    assert len(set(pivots)) == len(pivots)
    block = [[row[j] for j in pivots] for row in dense]
    assert tuple(abs(d) for d in sympy_invariants(block)) == (1,) * len(pivots)


def set_indexed_pivots(rows):
    """The unit pivot columns, in order, of the same greedy elimination with
    a set of rows per column: shortest row first (ties to the lower row id),
    then its unit entry whose column has the fewest rows (ties to the lower
    column id); rows without a unit entry wait until the next pivot."""
    rows = {i: {j: v for j, v in row.items() if v} for i, row in rows.items()}
    rows = {i: row for i, row in rows.items() if row}
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    pivots, waiting = [], set()
    while len(waiting) < len(rows):
        i = min(set(rows) - waiting, key=lambda r: (len(rows[r]), r))
        units = [j for j, v in rows[i].items() if v in (1, -1)]
        if not units:
            waiting.add(i)
            continue
        j = min(units, key=lambda c: (len(cols[c]), c))
        prow = rows.pop(i)
        for c in prow:
            cols[c].discard(i)
        for r in list(cols.pop(j)):
            m = rows[r].pop(j) * prow[j]
            for c, v in prow.items():
                if c != j:
                    cur = rows[r].get(c, 0) - m * v
                    if cur:
                        rows[r][c] = cur
                        cols[c].add(r)
                    elif c in rows[r]:
                        del rows[r][c]
                        cols[c].discard(r)
            if not rows[r]:
                del rows[r]
        pivots.append(j)
        waiting.clear()
    return pivots


def test_pivot_sequence_equals_a_set_indexed_reference(table):
    from hcomplex.homology import boundary_matrix

    matrices = [boundary_matrix(table(n), d).cols for n in range(2, 7) for d in range(n - 1)]
    rng = random.Random(7)
    entries = (-2, -1, 1, 1, 3)
    matrices += [
        {i: {j: rng.choice(entries) for j in rng.sample(range(30), 4)} for i in range(25)}
        for _ in range(20)
    ]
    for rows in matrices:
        expected = set_indexed_pivots(rows)
        pivots = []
        smith_normal_form(copy.deepcopy(rows), pivots)
        assert pivots == expected


def test_transpose_invariance():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randrange(5)
        cols = rng.randrange(5)
        dense = [[rng.randrange(-8, 9) for _ in range(cols)] for _ in range(rows)]
        sparse = rows_from_dense(dense)
        invariants = smith_normal_form(copy.deepcopy(sparse))  # consumes its argument
        transposed = smith_normal_form(transpose_rows(sparse))
        assert invariants == transposed
        assert rank_q(invariants) == rank_q(transposed)
        for p in (2, 3, 5):
            assert rank_mod_p(invariants, p) == rank_mod_p(transposed, p)


def test_unit_heavy_sparse_matrix():
    # mostly +-1 entries, the regime the eliminator is built for
    rng = random.Random(11)
    dense = [[0] * 40 for _ in range(40)]
    for _ in range(200):
        dense[rng.randrange(40)][rng.randrange(40)] = rng.choice([-1, 1, 1, -1, 2])
    sparse = rows_from_dense(dense)
    assert smith_normal_form(copy.deepcopy(sparse)) == sympy_invariants(dense)
    assert rank_q(smith_normal_form(sparse)) == sympy.Matrix(dense).rank()


def test_elimination_runs_in_the_rows_it_is_given():
    # zero entries and empty rows are dropped in place; what is left is the
    # residual of the elimination, so the argument is consumed
    rows = {0: {0: 0, 1: 2}, 1: {}}
    assert smith_normal_form(rows) == (2,)
    assert rows == {0: {1: 2}}
    rows = rows_from_dense([[1, 1], [1, -1]])
    assert smith_normal_form(rows) == (1, 2)
    assert rows == {1: {1: -2}}


def test_frozen_gcd_step_finishes():
    # no unit entry, so each whole matrix reaches the finish: the gcd and lcm
    # chain of a diagonal, and a negative pivot of least absolute value
    for dense, expected in [
        ([[6, 0], [0, 10]], (2, 30)),
        ([[4, 0, 0], [0, 6, 0], [0, 0, 9]], (1, 6, 36)),
        ([[-4, 6], [6, -9]], (1,)),
    ]:
        pivots = []
        assert smith_normal_form(rows_from_dense(dense), pivots) == expected
        assert pivots == []


def test_seeded_residuals_without_a_unit_match_sympy():
    # larger than the matrices hypothesis tries, and with no unit entry, so
    # the unit-pivot elimination passes them whole to the gcd-step finish;
    # the sparser ones have several factors above 1 to put in a chain
    rng = random.Random(22)
    nonzero = (2, -2, 3, -3, 4, -4, 6, -6, 9, -9, 10, -10)
    for _ in range(40):
        rows, cols = rng.randint(7, 12), rng.randint(7, 12)
        entries = (0,) * rng.randint(3, 20) + nonzero
        dense = [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
        pivots = []
        ours = smith_normal_form(rows_from_dense(dense), pivots)
        assert pivots == []
        assert ours == tuple(abs(d) for d in sympy_invariants(dense))
        assert all(b % a == 0 for a, b in zip(ours, ours[1:]))


def test_report_rows_never_reach_the_gcd_step_finish(monkeypatch):
    # every Smith form of the conjecture rows n <= 8 has as many unit pivots
    # as factors, so the finish gets an empty residual: the report's timing
    # does not depend on it
    from hcomplex import homology
    from hcomplex.complexes import enumerate_faces

    counts = []

    def counted(rows, pivots):
        factors = smith_normal_form(rows, pivots)
        counts.append((len(pivots), len(factors)))
        return factors

    monkeypatch.setattr(homology, "smith_normal_form", counted)
    for n in range(1, 9):
        homology.invariant_factors(enumerate_faces(n), 0)
    assert len(counts) == 28  # one Smith form per boundary, d = 0..n-2
    assert all(units == factors for units, factors in counts)


def test_dense_fallback_refuses_a_large_residual():
    # no unit pivot, so the whole 101 x 100 matrix reaches the dense reduction
    with pytest.raises(ValueError, match="101 x 100"):
        smith_normal_form(rows_from_dense([[2] * 100 for _ in range(101)]))
    assert smith_normal_form(rows_from_dense([[2] * 100 for _ in range(100)])) == (2,)


def test_field_ranks_never_import_numpy(subprocess_env):
    # F_p ranks come from the integral invariant factors, with no dense sweep
    script = (
        "import sys\n"
        "from hcomplex.cli import main\n"
        "code = main(['homology', '--n', '5', '--coefficients', 'F3', '--no-cache'])\n"
        "sys.exit(code or 'numpy' in sys.modules)\n"
    )
    run = subprocess.run([sys.executable, "-c", script], env=subprocess_env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert '"coeff": "F3"' in run.stdout
