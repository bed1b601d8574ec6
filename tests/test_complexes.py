"""Face enumeration, counting identities, free faces, and the shelling scan."""

from array import array
from itertools import accumulate, permutations
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
from hcomplex.perms import BarredFace, face_from_perm

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
    for n in range(1, 7):
        t = table(n)
        for fid, f in enumerate(t.faces):
            chain = f.chain()
            lowers = covers_down(t, t.words[fid])
            assert len(lowers) == len(chain)
            assert tuple(t.lowers(fid)) == lowers
            for bar, lower in enumerate(lowers):
                expected = chain[:bar] + chain[bar + 1 :]
                assert t.faces[lower].chain() == expected


def test_cover_incidence_is_covers_down_in_bar_order(table):
    for n in range(1, 7):
        t = table(n)
        offsets, lowers = t.cover_incidence()
        assert (offsets.typecode, lowers.typecode) == ("i", "i")
        assert len(offsets) == len(t) + 1 and offsets[0] == 0
        assert offsets[-1] == len(lowers) == sum(t.bars)
        for fid, word in enumerate(t.words):
            assert t.lowers(fid) == array("i", covers_down(t, word))


def test_faces_carry_the_table_words_and_offsets_come_from_bars(table):
    for n in range(1, 7):
        t = table(n)
        offsets, _ = t.cover_incidence()
        assert offsets == array("i", accumulate(t.bars, initial=0))
        assert all(t.faces[i].word is t.words[i] for i in range(len(t)))


def test_bar_counts_all_one_too_high_are_caught_at_face_0():
    # every face then expects its covers one bar higher too, so only the
    # cover count of face 0 (no bars, no covers) disagrees
    t = enumerate_faces(4)
    bad = FaceTable(4, t.words, t.id_of_word, bytes(b + 1 for b in t.bars))
    with pytest.raises(AssertionError, match=r"face 0 covers 0 faces, but bars\[0\] is 1"):
        bad.cover_incidence()


def test_covers_down_rejects_a_table_with_swapped_faces():
    # two words trade ids while the bar counts stay where they were
    t = enumerate_faces(4)
    words = list(t.words)
    top = len(words) - 1
    assert t.bars[1] == 1 and t.bars[top] == 3
    words[1], words[top] = words[top], words[1]
    bad = FaceTable(4, words, {w: i for i, w in enumerate(words)}, t.bars)
    with pytest.raises(AssertionError, match="one block fewer"):
        for w in bad.words:
            covers_down(bad, w)
    with pytest.raises(AssertionError, match="one block fewer"):
        bad.cover_incidence()


def test_faces_view_builds_each_face_from_its_word(table):
    for n in range(1, 7):
        t = table(n)
        expected = [face_from_perm(core) for core in permutations(range(1, n + 1))]
        assert list(t.faces) == expected
        assert [t.faces[i] for i in range(len(t))] == expected
        assert t.faces[-1] == expected[-1] and t.faces[1:3] == expected[1:3]
        assert [f.dim + 1 for f in expected] == list(t.bars)
        assert [f.word for f in expected] == t.words


def test_faces_view_is_read_only_and_checks_each_word():
    t = enumerate_faces(4)
    with pytest.raises(TypeError):
        t.faces[0] = t.faces[1]
    assert not any(isinstance(v, BarredFace) for v in vars(t).values())
    t.words[3] = b"\0\1\2\2\5"  # a repeated letter: no sentinel word
    with pytest.raises(ValueError, match="not a permutation"):
        t.faces[3]
    with pytest.raises(ValueError, match="not a permutation"):
        list(t.faces)
    assert t.faces[4].word is t.words[4]


def test_id_of_face_inverts_the_view(table):
    for n in range(1, 7):
        t = table(n)
        for i, f in enumerate(t.faces):
            assert t.id_of_face(f) == i


def test_a_face_from_another_n_is_a_value_error():
    from hcomplex.witnesses import free_face, verify_witness

    t = enumerate_faces(4)
    with pytest.raises(ValueError, match=r"BarredFace\(5, .* n=4"):
        is_free_face(t, free_face(5, 1))
    with pytest.raises(ValueError, match=r"BarredFace\(3, 02\|134\) .* n=4"):
        t.id_of_face(face_from_perm((2, 1, 3)))
    with pytest.raises(ValueError, match="n=4"):
        verify_witness(5, 1, t)


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
    assert not is_free_face(table(5), face_from_perm((1, 2, 3, 4, 5)))


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
