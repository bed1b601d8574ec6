"""Face enumeration, counting identities, free faces, and the shelling scan."""

from itertools import permutations
from math import factorial

import pytest
import sympy

from hcomplex.complexes import (
    BudgetExceededError,
    FaceTable,
    alternating_eulerian,
    covers_down,
    enumerate_faces,
    euler_characteristic,
    eulerian_row,
    f_vector,
    is_free_face,
    lex_shelling_check,
    tanh_euler_characteristic,
)
from hcomplex.perms import BarredFace, Permutation, face_from_perm

EULERIAN_7 = (1, 120, 1191, 2416, 1191, 120, 1)
EULERIAN_8 = (1, 247, 4293, 15619, 15619, 4293, 247, 1)
EULERIAN_9 = (1, 502, 14608, 88234, 156190, 88234, 14608, 502, 1)


def test_one_face_per_permutation(table):
    for n in range(1, 8):
        t = table(n)
        assert len(t) == factorial(n)
        assert len({f.blocks for f in t.faces}) == len(t)
        assert t.faces[0].dim == -1  # identity comes first in lex order


def test_ids_by_dim_partition_the_table(table):
    for n in range(1, 7):
        t = table(n)
        by_dim = t.ids_by_dim()
        assert sorted(i for ids in by_dim.values() for i in ids) == list(range(len(t)))
        for d, ids in by_dim.items():
            assert all(t.faces[i].dim == d for i in ids)


def test_f_vector_is_the_eulerian_row(table):
    for n in range(1, 8):
        assert f_vector(table(n)) == eulerian_row(n)


def brute_descent_row(n):
    row = [0] * n
    for core in permutations(range(1, n + 1)):
        row[sum(1 for x, y in zip(core, core[1:]) if x > y)] += 1
    return tuple(row)


def test_eulerian_row_matches_brute_force_descent_counting():
    for n in range(1, 9):
        assert eulerian_row(n) == brute_descent_row(n)
    assert eulerian_row(7) == EULERIAN_7
    assert eulerian_row(8) == EULERIAN_8
    assert eulerian_row(9) == EULERIAN_9


def test_face_dimension_is_descent_count_minus_one(table):
    for n in range(1, 7):
        for f in table(n).faces:
            core = f.word[1:-1]
            des = sum(1 for x, y in zip(core, core[1:]) if x > y)
            assert f.dim == des - 1


def test_covers_down_matches_chain_deletion(table):
    for n in range(1, 6):
        t = table(n)
        for f in t.faces:
            chain = f.chain()
            edges = covers_down(t, f)
            assert len(edges) == len(chain)
            assert sorted(e.bar_index for e in edges) == list(range(len(chain)))
            for e in edges:
                assert e.upper == t.id_of_face(f)
                expected = chain[: e.bar_index] + chain[e.bar_index + 1 :]
                assert t.faces[e.lower].chain() == expected


def test_cover_incidence_is_covers_down_in_bar_order(table):
    for n in range(1, 7):
        t = table(n)
        covers = t.cover_incidence()
        assert len(covers) == len(t)
        for f, lowers in zip(t.faces, covers):
            assert lowers == [e.lower for e in covers_down(t, f)]


def test_covers_down_rejects_a_table_with_swapped_faces():
    t = enumerate_faces(4)
    faces = list(t.faces)
    top = len(faces) - 1
    assert faces[1].dim == 0 and faces[top].dim == 2
    faces[1], faces[top] = faces[top], faces[1]
    bad = FaceTable(4, faces, dict(t.id_of_core))
    with pytest.raises(ValueError, match="one block fewer"):
        for f in bad.faces:
            covers_down(bad, f)
    with pytest.raises(ValueError, match="one block fewer"):
        bad.cover_incidence()


def test_free_faces_match_brute_force_containment(table):
    for n in range(1, 6):
        t = table(n)
        chains = [set(f.chain()) for f in t.faces]
        for i, f in enumerate(t.faces):
            brute_free = not any(
                j != i and chains[i] < chains[j] for j in range(len(t))
            )
            assert is_free_face(t, f) == brute_free, f


def test_known_free_face(table):
    f = BarredFace(5, ((0, 1, 5), (2, 4), (3, 6)))
    assert is_free_face(table(5), f)
    assert not is_free_face(table(5), face_from_perm(Permutation.from_core((1, 2, 3, 4, 5))))


def test_euler_characteristics_agree(table):
    for n in range(1, 8):
        chi = euler_characteristic(table(n))
        assert chi == alternating_eulerian(n) == tanh_euler_characteristic(n)
    assert alternating_eulerian(1) == -1
    assert alternating_eulerian(3) == 2
    assert alternating_eulerian(5) == -16
    assert alternating_eulerian(7) == 272


def test_tanh_coefficients_against_sympy():
    x = sympy.symbols("x")
    series = sympy.series(-sympy.tanh(x), x, 0, 12).removeO()
    for n in range(1, 11):
        coeff = series.coeff(x, n)
        assert tanh_euler_characteristic(n) == int(coeff * factorial(n))


def test_lex_shelling_scan():
    for n in range(1, 7):
        r = lex_shelling_check(n)
        assert r.ok and not r.failures
        assert r.facet_count == factorial(n)
        assert r.dim_histogram == eulerian_row(n)
        assert r.closed_under_subchains


def test_enumeration_budgets():
    with pytest.raises(BudgetExceededError):
        enumerate_faces(10)
    with pytest.raises(BudgetExceededError):
        enumerate_faces(3, max_n=2)
    with pytest.raises(BudgetExceededError):
        lex_shelling_check(9)
    assert len(enumerate_faces(3, max_n=None)) == 6
