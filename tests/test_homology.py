"""Boundary operators, exact homology, and the non-vanishing window."""

import pytest
import sympy

from hcomplex.complexes import alternating_eulerian
from hcomplex.homology import (
    COEFFICIENTS,
    SignedChain,
    betti_table,
    boundary_matrix,
    boundary_of_chain,
    check_betti_symmetry,
    check_conjecture,
    expected_nonzero_dims,
    nonzero_dims_over_z,
    nonzero_dims_via_ranks,
)
from hcomplex.perms import BarredFace, Permutation, face_from_perm

BETTI = {
    1: {-1: 1},  # only the empty face: reduced homology in dimension -1
    2: {},
    3: {0: 2},
    4: {0: 2, 1: 2},
    5: {1: 16},
    6: {1: 24, 2: 24},
    7: {1: 4, 2: 280, 3: 4},
}


def dense(bm):
    out = [[0] * bm.n_cols for _ in range(bm.n_rows)]
    for r, row in bm.rows.items():
        for c, v in row.items():
            out[r][c] = v
    return out


def boundary_by_chain_deletion(t, dim):
    """d_dim built by deleting one chain element and looking the rest up."""
    id_of_chain = {f.chain(): i for i, f in enumerate(t.faces)}
    by_dim = t.ids_by_dim()
    row_pos = {g: k for k, g in enumerate(by_dim.get(dim - 1, []))}
    rows = {}
    for c, g in enumerate(by_dim.get(dim, [])):
        chain = t.faces[g].chain()
        for i in range(len(chain)):
            r = row_pos[id_of_chain[chain[:i] + chain[i + 1:]]]
            rows.setdefault(r, {})[c] = 1 if i % 2 == 0 else -1
    return len(row_pos), len(by_dim.get(dim, [])), rows


def test_boundary_matrices_match_chain_deletion(table):
    for n in range(1, 7):
        t = table(n)
        for d in range(0, n - 1):
            bm = boundary_matrix(t, d)
            assert (bm.n_rows, bm.n_cols, bm.rows) == boundary_by_chain_deletion(t, d)


def test_boundary_matrices_compose_to_zero(table):
    for n in range(2, 7):
        t = table(n)
        mats = {d: boundary_matrix(t, d) for d in range(0, n - 1)}
        for d in range(1, n - 1):
            upper, lower = mats[d], mats[d - 1]
            assert upper.n_rows == lower.n_cols
            for r, row in lower.rows.items():
                acc = {}
                for k, a in row.items():
                    for c, b in mats[d].rows.get(k, {}).items():
                        acc[c] = acc.get(c, 0) + a * b
                assert all(v == 0 for v in acc.values()), (n, d, r)


def test_boundary_of_boundary_is_zero_chainwise(table):
    for n in range(2, 6):
        for f in table(n).faces:
            if f.dim < 1:
                continue
            dd = boundary_of_chain(boundary_of_chain(SignedChain(n, f.dim, {f: 1})))
            assert dd.is_zero()


def test_boundary_matrix_golden_n3(table):
    t = table(3)
    bm0 = boundary_matrix(t, 0)
    assert (bm0.n_rows, bm0.n_cols, bm0.nnz) == (1, 4, 4)
    assert dense(bm0) == [[1, 1, 1, 1]]  # augmentation: every vertex hits [empty]
    bm1 = boundary_matrix(t, 1)
    assert (bm1.n_rows, bm1.n_cols) == (4, 1)
    # d[3|21] = [231-face] - [312-face]; rows follow the dim-0 id list (1,2,3,4)
    assert dense(bm1) == [[0], [0], [1], [-1]]


def test_betti_numbers_frozen(table):
    for n, nonzero in BETTI.items():
        bt = betti_table(table(n))
        assert bt.torsion == {}
        assert {d: b for d, b in bt.betti.items() if b} == nonzero
        assert bt.nonzero_dims() == set(nonzero)


def test_betti_agree_across_coefficients(table):
    for n in range(1, 7):
        tables = {c: betti_table(table(n), c) for c in COEFFICIENTS}
        for c, bt in tables.items():
            assert bt.betti == tables["Z"].betti, c


def test_betti_against_sympy_ranks(table):
    for n in range(2, 6):
        t = table(n)
        f = {d: len(ids) for d, ids in t.ids_by_dim().items()}
        ranks = {
            d: sympy.Matrix(dense(boundary_matrix(t, d))).rank()
            for d in range(0, n - 1)
        }
        bt = betti_table(t, "Q")
        for d in range(-1, n - 1):
            expected = f[d] - ranks.get(d, 0) - ranks.get(d + 1, 0)
            assert bt.betti[d] == expected


def test_euler_characteristic_from_betti(table):
    for n in range(1, 8):
        bt = betti_table(table(n), "Q")
        chi = sum((-1 if d % 2 else 1) * b for d, b in bt.betti.items())
        assert chi == alternating_eulerian(n)


def test_betti_symmetry(table):
    for n in range(1, 8):
        assert check_betti_symmetry(betti_table(table(n), "Q"))


def test_expected_window_matches_inequalities():
    for n in range(1, 13):
        literal = {i for i in range(-2, n) if 3 * i + 5 <= 2 * n <= 2 * (3 * i + 4)}
        assert expected_nonzero_dims(n) == literal
    assert sorted(expected_nonzero_dims(7)) == [1, 2, 3]
    assert sorted(expected_nonzero_dims(8)) == [2, 3]


def test_conjecture_window(table):
    for n in range(1, 7):
        check = check_conjecture(table(n))
        assert check.ok and check.method == "snf"
        assert check.observed == tuple(sorted(expected_nonzero_dims(n)))
        ranks = check_conjecture(table(n), method="ranks")
        assert ranks.ok and ranks.observed == check.observed
    with pytest.raises(ValueError):
        check_conjecture(table(3), method="magic")


def test_rank_detection_equals_smith_form(table):
    for n in range(1, 7):
        t = table(n)
        assert nonzero_dims_via_ranks(t) == nonzero_dims_over_z(t)


def test_signed_chain_validation():
    f0 = face_from_perm(Permutation.from_core((2, 1, 3)))  # dim 0
    f1 = face_from_perm(Permutation.from_core((3, 2, 1)))  # dim 1
    with pytest.raises(ValueError):
        SignedChain(3, 0, {f0: 1, f1: 1})
    with pytest.raises(ValueError):
        SignedChain(3, 0, {f0: 0})
    with pytest.raises(ValueError):
        SignedChain(4, 0, {f0: 1})  # wrong n
    z = SignedChain(3, 0, {f0: 2})
    assert len(z) == 1 and not z.is_zero()


def test_betti_rejects_unknown_coefficients(table):
    with pytest.raises(ValueError):
        betti_table(table(3), "F4")
