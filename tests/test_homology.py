"""Boundary operators, exact homology, and the non-vanishing window."""

import random
from array import array
from fractions import Fraction
from itertools import accumulate, chain, combinations, permutations

import pytest
import sympy

import hcomplex.homology
from hcomplex.complexes import FaceTable, alternating_eulerian, enumerate_faces
from hcomplex.homology import (
    COEFFICIENTS,
    SignedChain,
    betti_table,
    boundary_matrix,
    boundary_of_chain,
    check_betti_symmetry,
    expected_nonzero_dims,
    invariant_factors,
    nonzero_dims_via_ranks,
)
from hcomplex.perms import BarredFace, block_labels, face_from_chain, face_from_perm
from hcomplex.snf import smith_normal_form
from hcomplex.witnesses import admissible_pairs, cycle_witness

from test_snf import sympy_invariants, transpose_rows

BETTI = {
    1: {-1: 1},  # only the empty face: reduced homology in dimension -1
    2: {},
    3: {0: 2},
    4: {0: 2, 1: 2},
    5: {1: 16},
    6: {1: 24, 2: 24},
    7: {1: 4, 2: 280, 3: 4},
}


def rows_of(bm):
    """The boundary matrix by rows: the transpose of its columns."""
    return transpose_rows(bm.cols)


def dense(bm):
    out = [[0] * bm.n_cols for _ in range(bm.n_rows)]
    for r, row in rows_of(bm).items():
        for c, v in row.items():
            out[r][c] = v
    return out


def boundary_by_chain_deletion(t, dim):
    """d_dim built by deleting one chain element and looking the rest up."""
    id_of_chain = {f.chain(): i for i, f in enumerate(map(t.face, range(len(t))))}
    by_dim = t.ids_by_dim()
    row_pos = {g: k for k, g in enumerate(by_dim.get(dim - 1, []))}
    rows = {}
    for c, g in enumerate(by_dim.get(dim, [])):
        chain = t.face(g).chain()
        for i in range(len(chain)):
            r = row_pos[id_of_chain[chain[:i] + chain[i + 1:]]]
            rows.setdefault(r, {})[c] = 1 if i % 2 == 0 else -1
    return len(row_pos), len(by_dim.get(dim, [])), rows


def test_boundary_matrices_match_chain_deletion(table):
    for n in range(1, 7):
        t = table(n)
        for d in range(0, n - 1):
            bm = boundary_matrix(t, d)
            assert (bm.n_rows, bm.n_cols, rows_of(bm)) == boundary_by_chain_deletion(t, d)


def test_boundary_matrices_compose_to_zero(table):
    for n in range(2, 7):
        t = table(n)
        mats = {d: boundary_matrix(t, d) for d in range(0, n - 1)}
        rows = {d: rows_of(m) for d, m in mats.items()}
        for d in range(1, n - 1):
            upper, lower = mats[d], mats[d - 1]
            assert upper.n_rows == lower.n_cols
            for r, row in rows[d - 1].items():
                acc = {}
                for k, a in row.items():
                    for c, b in rows[d].get(k, {}).items():
                        acc[c] = acc.get(c, 0) + a * b
                assert all(v == 0 for v in acc.values()), (n, d, r)


def test_boundary_of_boundary_is_zero_chainwise(table):
    for n in range(2, 6):
        t = table(n)
        for f in map(t.face, range(len(t))):
            if f.dim < 1:
                continue
            dd = boundary_of_chain(boundary_of_chain(SignedChain(n, f.dim, {f: 1})))
            assert dd.is_zero()


def boundary_of_chain_by_chain_deletion(chain):
    """The table-free boundary that merging blocks replaced: delete one chain
    element and rebuild the face from the remaining bitmasks."""
    acc = {}
    for face, c in chain.coeffs.items():
        masks = face.chain()
        for i in range(len(masks)):
            g = face_from_chain(chain.n, masks[:i] + masks[i + 1:])
            acc[g] = acc.get(g, 0) + (c if i % 2 == 0 else -c)
    return SignedChain(chain.n, chain.dim - 1, {f: v for f, v in acc.items() if v})


def test_boundary_of_chain_equals_table_columns(table):
    for n in range(1, 7):
        t = table(n)
        by_dim = t.ids_by_dim()
        for d in range(-1, n - 1):
            cols = {}
            if d >= 0:
                for c, col in boundary_matrix(t, d).cols.items():
                    cols[c] = {t.face(by_dim[d - 1][r]): v for r, v in col.items()}
            for c, g in enumerate(by_dim[d]):
                f = t.face(g)
                got = boundary_of_chain(SignedChain(n, d, {f: 1}))
                assert got.dim == d - 1
                assert dict(got.coeffs) == cols.get(c, {}), f


def test_boundary_of_witnesses_equals_chain_deletion():
    for n, k in admissible_pairs(13):
        z = cycle_witness(n, k)
        # the cycle itself, whose boundary is zero, and each of its terms
        for chain in [z] + [SignedChain(n, k, {f: c}) for f, c in z.coeffs.items()]:
            got = boundary_of_chain(chain)
            want = boundary_of_chain_by_chain_deletion(chain)
            assert (got.dim, dict(got.coeffs)) == (want.dim, dict(want.coeffs)), chain


def test_boundary_of_random_chains_equals_chain_deletion():
    # several terms of one dimension with coefficients that cancel only partly
    rng = random.Random(2025)
    for n in range(1, 8):
        by_dim = {}
        for core in permutations(range(1, n + 1)):
            f = face_from_perm(core)
            by_dim.setdefault(f.dim, []).append(f)
        for _ in range(40):
            faces = by_dim[rng.choice(sorted(by_dim))]
            terms = rng.sample(faces, min(len(faces), rng.randint(1, 8)))
            chain = SignedChain(n, terms[0].dim, {f: rng.choice((1, -1, 2, -2, 3)) for f in terms})
            got = boundary_of_chain(chain)
            want = boundary_of_chain_by_chain_deletion(chain)
            assert got.dim == want.dim
            assert list(got.coeffs.items()) == list(want.coeffs.items()), chain


def test_boundary_of_a_face_with_every_bar_at_n_254():
    # the decreasing core has a bar at each of ranks 2..254: labels reach 253
    f = face_from_perm(range(254, 0, -1))
    assert f.dim == 252 and max(block_labels(f.word)) == 253
    d = boundary_of_chain(SignedChain(254, 252, {f: 1}))
    want = boundary_of_chain_by_chain_deletion(SignedChain(254, 252, {f: 1}))
    assert len(d) == 253 and dict(d.coeffs) == dict(want.coeffs)
    assert boundary_of_chain(d).is_zero()


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


def test_field_betti_against_dense_gauss(table, gauss_rank_mod_p):
    # independent of the shared Smith forms: ranks by Gauss mod p per boundary
    for n in range(1, 6):
        t = table(n)
        f = {d: len(ids) for d, ids in t.ids_by_dim().items()}
        for p in (2, 3, 5):
            ranks = {
                d: gauss_rank_mod_p(dense(boundary_matrix(t, d)), p)
                for d in range(0, n - 1)
            }
            bt = betti_table(t, f"F{p}")
            for d in range(-1, n - 1):
                expected = f[d] - ranks.get(d, 0) - ranks.get(d + 1, 0)
                assert bt.betti[d] == expected, (n, p, d)


def test_one_smith_form_per_boundary(monkeypatch):
    calls = []

    def recording(name):
        original = getattr(hcomplex.homology, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((name, result.dim if name == "boundary_matrix" else None))
            return result

        return wrapper

    for name in ("boundary_matrix", "smith_normal_form"):
        monkeypatch.setattr(hcomplex.homology, name, recording(name))
    t = enumerate_faces(6)  # fresh: the session tables may hold factors already
    for c in COEFFICIENTS:
        betti_table(t, c)
    nonzero_dims_via_ranks(t)
    # one boundary and one Smith form per dimension, from the top down
    assert calls == [
        call for d in (4, 3, 2, 1, 0)
        for call in (("boundary_matrix", d), ("smith_normal_form", None))
    ]


def uncleared_factors(t, dim):
    """The invariant factors as computed before clearing: the whole d_dim, in
    whichever orientation has the sparser rows."""
    bm = boundary_matrix(t, dim)
    return smith_normal_form(rows_of(bm) if bm.n_rows >= bm.n_cols else bm.cols)


def test_clearing_changes_no_invariant_factor(table):
    for n in range(1, 8):
        t = table(n)
        for d in range(0, n - 1):
            assert invariant_factors(t, d) == uncleared_factors(t, d), (n, d)
            if n <= 5:
                theirs = sympy_invariants(dense(boundary_matrix(t, d)))
                assert invariant_factors(t, d) == tuple(map(abs, theirs)), (n, d)


def test_clearing_drops_the_pivots_of_the_boundary_above(monkeypatch):
    # with no torsion, d_d keeps f_d - rank d_{d+1} of its columns
    t = enumerate_faces(6)
    kept = {}

    def recording(table, dim, skip=()):
        bm = boundary_matrix(table, dim, skip)
        kept[dim] = len(bm.cols)
        return bm

    monkeypatch.setattr(hcomplex.homology, "boundary_matrix", recording)
    invariant_factors(t, 0)
    f = {d: len(ids) for d, ids in t.ids_by_dim().items()}
    assert kept == {d: f[d] - len(invariant_factors(t, d + 1)) for d in range(0, 5)}
    assert kept[0] < f[0] and kept[2] < f[2]


def projective_plane():
    """The 6-vertex real projective plane as a face table: 6 vertices, all 15
    edges, 10 triangles; its reduced homology is Z/2 in dimension 1."""
    triangles = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                 (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]
    cells = [()] + [(v,) for v in range(1, 7)] + list(combinations(range(1, 7), 2)) + triangles
    ids = {s: i for i, s in enumerate(cells)}
    # deleting vertex i of a simplex carries the sign (-1)^i, as erasing bar i does
    covers = [[ids[s[:i] + s[i + 1:]] for i in range(len(s))] for s in cells]
    incidence = array("i", [0, *accumulate(map(len, covers))]), array("i", chain(*covers))
    bars = bytes(map(len, cells))  # a simplex with d + 1 vertices has dimension d
    return FaceTable(4, [], bars, _incidence=incidence)


def test_clearing_keeps_torsion_on_the_projective_plane():
    t = projective_plane()
    assert [len(t.ids_by_dim()[d]) for d in range(-1, 3)] == [1, 6, 15, 10]
    assert invariant_factors(t, 2) == (1,) * 9 + (2,)
    assert invariant_factors(t, 1) == (1,) * 5
    assert invariant_factors(t, 0) == (1,)
    bt = betti_table(t)
    assert bt.betti == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert bt.torsion == {1: (2,)}
    for c in ("Q", "F3", "F5"):
        assert set(betti_table(t, c).betti.values()) == {0}
    assert betti_table(t, "F2").betti == {-1: 0, 0: 0, 1: 1, 2: 1}


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
        assert betti_table(table(n)).nonzero_dims() == expected_nonzero_dims(n)


def test_rank_detection_equals_smith_form(table):
    for n in range(1, 7):
        t = table(n)
        assert nonzero_dims_via_ranks(t) == betti_table(t).nonzero_dims()


def test_signed_chain_validation():
    f0 = face_from_perm((2, 1, 3))  # dim 0
    f1 = face_from_perm((3, 2, 1))  # dim 1
    with pytest.raises(ValueError):
        SignedChain(3, 0, {f0: 1, f1: 1})
    with pytest.raises(ValueError):
        SignedChain(3, 0, {f0: 0})
    with pytest.raises(ValueError):
        SignedChain(4, 0, {f0: 1})  # wrong n
    z = SignedChain(3, 0, {f0: 2})
    assert len(z) == 1 and not z.is_zero()


@pytest.mark.parametrize("c", [0.5, 1.0, True, Fraction(1), "1", None])
def test_a_signed_chain_refuses_a_coefficient_that_is_not_an_int(c):
    # an integer chain: 0.5 used to pass and give a 0.5 term in the boundary
    with pytest.raises(ValueError, match="non-zero ints"):
        SignedChain(3, 0, {face_from_perm((2, 1, 3)): c})


def test_a_signed_chain_keeps_its_terms_when_its_dict_changes():
    # a 1-face added to the dict a 0-chain was built from stays out of it
    d = {face_from_perm((2, 1, 3)): 1}
    z = SignedChain(3, 0, d)
    d[face_from_perm((3, 2, 1))] = 1
    assert dict(z.coeffs) == {face_from_perm((2, 1, 3)): 1}
    assert dict(boundary_of_chain(z).coeffs) == {face_from_perm((1, 2, 3)): 1}
    with pytest.raises(TypeError):
        z.coeffs[face_from_perm((3, 2, 1))] = 1


def test_betti_rejects_unknown_coefficients(table):
    with pytest.raises(ValueError):
        betti_table(table(3), "F4")
