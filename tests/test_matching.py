"""The discrete matching: involution structure, type pairing, dual mirror."""

import enum
from array import array
from bisect import bisect_right
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcomplex.complexes import enumerate_faces
from hcomplex.matching import (
    MatchingMap,
    build_matching,
    critical_faces,
    dual_partner,
    partner,
    verify_well_defined,
)
from hcomplex.perms import (
    BarredFace,
    MatchableType,
    complement_word,
    diagnose_word,
    face_from_perm,
)

PAIRED = {
    MatchableType.ONE_SPLIT: MatchableType.ONE_MERGED,
    MatchableType.ONE_MERGED: MatchableType.ONE_SPLIT,
    MatchableType.TWO_MERGED: MatchableType.TWO_SPLIT,
    MatchableType.TWO_SPLIT: MatchableType.TWO_MERGED,
}


# -- the matching rules read off the blocks: an oracle ------------------------
#
# The clauses as stated on tuples of blocks, with inversion counts between
# blocks.  diagnose_word reads the same rules at the run ends of the word.


def inversions_between(a, b) -> int:
    """Number of pairs x in a, y in b with x > y, for sorted blocks a, b.

    >>> inversions_between((0, 1, 3), (2, 6))
    1
    >>> inversions_between((2, 3), (1, 4))
    2
    """
    return sum(len(a) - bisect_right(a, y) for y in b)


def s_count(f: BarredFace, block_index: int) -> int:
    """Size of the maximal run of 2-blocks immediately above a block whose
    only inversions against the block and each other are the separating
    descents."""
    blocks = f.blocks
    prev = blocks[block_index]
    seen_max = -1  # max letter over the block and all accepted runs but prev
    count = 0
    for cand in blocks[block_index + 1:]:
        if len(cand) != 2:
            break
        if inversions_between(prev, cand) != 1:
            break
        if seen_max > cand[0]:
            break
        count += 1
        seen_max = max(seen_max, prev[-1])
        prev = cand
    return count


def _one_merged_shape(below, block) -> bool:
    """The one-merged test: even size >= 4 and the largest letter below the
    block beats its two smallest letters."""
    if below is None or len(block) < 4 or len(block) % 2:
        return False
    return below[-1] > block[0] and below[-1] > block[1]


def classify_interval(f: BarredFace, block_index: int) -> MatchableType | None:
    """Match type of one block, or None.  Clauses are checked in the order
    one-split, one-merged, two-merged, two-split."""
    blocks = f.blocks
    block = blocks[block_index]
    below = blocks[block_index - 1] if block_index > 0 else None
    above = blocks[block_index + 1] if block_index + 1 < len(blocks) else None

    if (
        len(block) == 1
        and above is not None
        and len(above) >= 3
        and len(above) % 2 == 1
        and inversions_between(block, above) == 1
    ):
        return MatchableType.ONE_SPLIT
    if _one_merged_shape(below, block):
        return MatchableType.ONE_MERGED
    s = s_count(f, block_index)
    if len(block) >= 4 and s % 2 == 0:
        return MatchableType.TWO_MERGED
    if (
        len(block) >= 2
        and s % 2 == 1
        and above is not None
        and inversions_between(block, above) == 1
        and not _one_merged_shape(below, tuple(sorted(block + above)))
    ):
        return MatchableType.TWO_SPLIT
    return None


def diagnosis_by_blocks(f: BarredFace):
    """(block index, start rank, match type) of the lowest matchable block,
    or None."""
    for i in range(len(f.blocks)):
        kind = classify_interval(f, i)
        if kind is not None:
            return i, (1, *f.bar_ranks())[i], kind  # rank of the bar below; 1 for block 0
    return None


# -- the matching computed by block surgery: an oracle ------------------------
#
# Split types merge the block with the one above it; merged types cut the
# block in two, so that the halves have exactly one inversion between them.
# partner computes the same face as one adjacent swap of the word.


def merge_blocks(f: BarredFace, bar_index: int) -> BarredFace:
    """Erase bar bar_index, merging blocks bar_index and bar_index + 1."""
    blocks = f.blocks
    if not 0 <= bar_index < len(blocks) - 1:
        raise ValueError(f"no bar {bar_index} in a face with {len(blocks)} blocks")
    merged = tuple(sorted(blocks[bar_index] + blocks[bar_index + 1]))
    return BarredFace(f.n, blocks[:bar_index] + (merged,) + blocks[bar_index + 2:])


class SplitMode(enum.Enum):
    """How to cut one block in two; both cuts create exactly one inversion."""

    SINGLETON = "singleton"  # sizes (1, m-1): {b2} | {b1, b3, .., bm}
    PAIR = "pair"            # sizes (m-2, 2): {b1, .., b(m-3), b(m-1)} | {b(m-2), bm}


def split_sorted_block(block, mode: SplitMode):
    """Cut a sorted block per the mode; the unique such cut of those sizes
    whose two halves have exactly one inversion between them."""
    m = len(block)
    if mode is SplitMode.SINGLETON:
        if m < 2:
            raise ValueError("singleton split needs at least 2 elements")
        return (block[1],), (block[0],) + block[2:]
    if m < 4:
        raise ValueError("pair split needs at least 4 elements")
    return block[: m - 3] + (block[m - 2],), (block[m - 3], block[m - 1])


def split_block(f: BarredFace, block_index: int, mode: SplitMode) -> BarredFace:
    """Split one block of a face; BarredFace rejects an illegal splice."""
    blocks = f.blocks
    lower, upper = split_sorted_block(blocks[block_index], mode)
    return BarredFace(f.n, blocks[:block_index] + (lower, upper) + blocks[block_index + 1:])


def partner_by_surgery(f: BarredFace) -> BarredFace | None:
    """Same map as partner, computed by merging or splitting blocks."""
    diag = diagnosis_by_blocks(f)
    if diag is None:
        return None
    i, _, kind = diag
    if kind in (MatchableType.ONE_SPLIT, MatchableType.TWO_SPLIT):
        return merge_blocks(f, i)
    if kind is MatchableType.ONE_MERGED:
        return split_block(f, i, SplitMode.SINGLETON)
    return split_block(f, i, SplitMode.PAIR)


def dual_partner_by_surgery(f: BarredFace) -> BarredFace | None:
    g = partner_by_surgery(complemented(f))
    return None if g is None else complemented(g)


# -- the dual matching computed directly on mirrored words: an oracle --------
#
# The mirrored world reverses the value order: words run n+1, a_1..a_n, 0,
# blocks are maximal decreasing runs, a bar needs its left block to end below
# the right block's start (an ascent), and "inversion" means an increasing
# pair across blocks.  Everything below is the image of the primal rules
# under v -> n+1-v.


def _desc_runs(word: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    runs: list[tuple[int, ...]] = []
    start = 0
    for i in range(1, len(word)):
        if word[i - 1] < word[i]:
            runs.append(tuple(word[start:i]))
            start = i
    runs.append(tuple(word[start:]))
    return tuple(runs)


def _anti_inversions(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(1 for x in a for y in b if x < y)


def _s_count_desc(blocks: tuple[tuple[int, ...], ...], i: int) -> int:
    prev = blocks[i]
    seen_min = None
    count = 0
    for cand in blocks[i + 1:]:
        if len(cand) != 2:
            break
        if _anti_inversions(prev, cand) != 1:
            break
        if seen_min is not None and seen_min < cand[0]:
            break
        count += 1
        low = prev[-1]
        seen_min = low if seen_min is None else min(seen_min, low)
        prev = cand
    return count


def _one_merged_shape_desc(below: tuple[int, ...] | None, block: tuple[int, ...]) -> bool:
    if below is None or len(block) < 4 or len(block) % 2:
        return False
    return below[-1] < block[0] and below[-1] < block[1]


def _classify_desc(blocks: tuple[tuple[int, ...], ...], i: int) -> MatchableType | None:
    block = blocks[i]
    below = blocks[i - 1] if i > 0 else None
    above = blocks[i + 1] if i + 1 < len(blocks) else None
    if (
        len(block) == 1
        and above is not None
        and len(above) >= 3
        and len(above) % 2 == 1
        and _anti_inversions(block, above) == 1
    ):
        return MatchableType.ONE_SPLIT
    if _one_merged_shape_desc(below, block):
        return MatchableType.ONE_MERGED
    s = _s_count_desc(blocks, i)
    if len(block) >= 4 and s % 2 == 0:
        return MatchableType.TWO_MERGED
    if (
        len(block) >= 2
        and s % 2 == 1
        and above is not None
        and _anti_inversions(block, above) == 1
        and not _one_merged_shape_desc(below, tuple(sorted(block + above, reverse=True)))
    ):
        return MatchableType.TWO_SPLIT
    return None


def dual_diagnosis_by_runs(f: BarredFace):
    """(run index, start rank, match type) of the lowest matchable
    decreasing run of the mirrored word, or None."""
    blocks = _desc_runs((f.n + 1, *f.word[1:-1], 0))
    for i in range(len(blocks)):
        kind = _classify_desc(blocks, i)
        if kind is not None:
            return i, sum(map(len, blocks[:i])) or 1, kind
    return None


def dual_partner_by_runs(f: BarredFace) -> BarredFace | None:
    """Same map as dual_partner, computed on mirrored words directly."""
    core = tuple(f.word[1:-1])
    n = f.n
    blocks = _desc_runs((n + 1,) + core + (0,))
    for i in range(len(blocks)):
        kind = _classify_desc(blocks, i)
        if kind is None:
            continue
        block = blocks[i]
        if kind in (MatchableType.ONE_SPLIT, MatchableType.TWO_SPLIT):
            merged = tuple(sorted(block + blocks[i + 1], reverse=True))
            new = blocks[:i] + (merged,) + blocks[i + 2:]
        elif kind is MatchableType.ONE_MERGED:
            new = blocks[:i] + ((block[1],), (block[0],) + block[2:]) + blocks[i + 1:]
        else:
            m = len(block)
            new = (
                blocks[:i]
                + (block[: m - 3] + (block[m - 2],), (block[m - 3], block[m - 1]))
                + blocks[i + 1:]
            )
        word = tuple(x for b in new for x in b)
        return face_from_perm(word[1:-1])
    return None


def test_partner_frozen_examples():
    f = BarredFace(7, ((0, 3), (1, 2, 4, 6), (5, 7, 8)))
    g = BarredFace(7, ((0, 3), (2,), (1, 4, 6), (5, 7, 8)))
    assert partner(f) == g
    assert partner(g) == f
    assert partner(BarredFace(3, ((0, 2), (1, 3, 4)))) is None


def one_adjacent_swap_apart(v, w):
    diff = [i for i in range(len(v)) if v[i] != w[i]]
    if len(diff) != 2 or diff[1] != diff[0] + 1:
        return False
    i, j = diff
    return (v[i], v[j]) == (w[j], w[i])


def complemented(f):
    n = f.n
    return BarredFace.from_word(n, bytes((0, *(n + 1 - v for v in f.word[1:-1]), n + 1)))


def assert_local_match(f, g, match, structure):
    """The matching properties of f <-> g that need no face table."""
    assert match(g) == f
    assert abs(g.dim - f.dim) == 1
    lower, upper = (f, g) if f.dim < g.dim else (g, f)
    assert set(lower.chain()) < set(upper.chain())
    (_, rank_f, kind_f, _), (_, rank_g, kind_g, _) = (
        diagnose_word(structure(h).word) for h in (f, g)
    )
    assert rank_f == rank_g
    assert PAIRED[kind_f] is kind_g
    assert one_adjacent_swap_apart(f.word, g.word)


def test_partner_is_a_cover_involution_with_shared_rank(table):
    for n in range(1, 7):
        for f in table(n).faces:
            g = partner(f)
            if g is not None:
                assert_local_match(f, g, partner, lambda h: h)


# n = 10..30 is beyond enumeration: partner is local, so no table is needed
BIG_PERMUTATIONS = st.integers(10, 30).flatmap(lambda n: st.permutations(range(1, n + 1)))


@settings(max_examples=200, deadline=None)
@given(BIG_PERMUTATIONS)
def test_partner_properties_beyond_enumeration(core):
    f = face_from_perm(core)
    g = partner(f)
    assert g == partner_by_surgery(f)
    if g is not None:
        assert_local_match(f, g, partner, lambda h: h)


@settings(max_examples=200, deadline=None)
@given(BIG_PERMUTATIONS)
def test_dual_partner_properties_beyond_enumeration(core):
    f = face_from_perm(core)
    g = dual_partner(f)
    assert g == dual_partner_by_surgery(f)
    if g is not None:
        assert_local_match(f, g, dual_partner, complemented)


def test_partners_equal_block_surgery(table):
    for n in range(1, 8):
        for f in table(n).faces:
            assert partner(f) == partner_by_surgery(f), f
            assert dual_partner(f) == dual_partner_by_surgery(f), f


@pytest.mark.parametrize(
    "diag",
    [
        # swapping letters 2, 4 of 0 3 2 4 1 5 erases the bar at rank 2 too
        (1, 2, MatchableType.ONE_MERGED, 2),
        # swapping the sentinel 0 with the letter after it
        (0, 1, MatchableType.ONE_MERGED, 0),
    ],
)
def test_partner_guard_rejects_a_swap_that_moves_a_neighbouring_bar(monkeypatch, diag):
    f = BarredFace(4, ((0, 3), (2, 4), (1, 5)))
    monkeypatch.setattr("hcomplex.matching.diagnose_word", lambda word: diag)
    with pytest.raises(AssertionError, match="not a cover move"):
        partner(f)
    with pytest.raises(AssertionError, match="not a cover move"):
        dual_partner(f)


def test_whole_table_matchings_verify(table, matching):
    for n in range(1, 7):
        t = table(n)
        for dual in (False, True):
            m = matching(n, dual)
            report = verify_well_defined(t, m)
            assert report.ok, report.violations
            assert not report.violations
            assert 2 * report.pair_count + report.critical_count == factorial(n)


def test_dual_partner_matches_mirrored_implementation(table):
    for n in range(1, 6):
        for f in table(n).faces:
            assert dual_partner(f) == dual_partner_by_runs(f), f


def test_dual_pairs_for_n3():
    f321 = face_from_perm((3, 2, 1))
    f312 = face_from_perm((3, 1, 2))
    assert dual_partner(f321) == f312
    assert dual_partner(f312) == f321
    for core in ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1)):
        assert dual_partner(face_from_perm(core)) is None


def test_critical_faces_structure(table, matching):
    t = table(3)
    assert critical_faces(t, matching(3)) == {-1: [], 0: [2, 3, 4], 1: [5]}
    dual = critical_faces(t, matching(3, True))
    assert dual[-1] == [0] and len(dual[0]) == 3 and dual[1] == []
    for n in range(1, 7):
        for is_dual in (False, True):
            crit = critical_faces(table(n), matching(n, is_dual))
            total = sum(len(ids) for ids in crit.values())
            assert total == factorial(n) - len(matching(n, is_dual).pairs)


def test_matching_map_pairs_hold_both_directions(matching):
    for n in range(1, 7):
        for dual in (False, True):
            pairs = matching(n, dual).pairs
            assert all(pairs[g] == f for f, g in pairs.items())


def test_dual_matching_equals_complement_conjugated_primal(table, matching):
    for n in range(1, 8):
        t = table(n)
        comp = {
            fid: t.id_of_word[bytes((0, *(n + 1 - x for x in f.word[1:-1]), n + 1))]
            for fid, f in enumerate(t.faces)
        }
        primal, dual = matching(n).pairs, matching(n, True).pairs
        assert dual == {comp[f]: comp[g] for f, g in primal.items()}


def test_complement_reverses_face_ids(table):
    for n in range(1, 8):
        t = table(n)
        last = len(t) - 1
        for fid, f in enumerate(t.faces):
            assert t.id_of_word[bytes((0, *(n + 1 - x for x in f.word[1:-1]), n + 1))] == last - fid


def test_build_matching_diagnoses_each_face_once(monkeypatch):
    import hcomplex.matching as matching_module

    calls = Counter()

    def counted(name):
        original = getattr(matching_module, name)

        def wrapper(face):
            calls[name] += 1
            return original(face)

        monkeypatch.setattr(matching_module, name, wrapper)

    counted("diagnose_word")
    counted("partner")
    t = enumerate_faces(6)
    build_matching(t)
    assert calls == {"diagnose_word": 720, "partner": 720}
    calls.clear()
    build_matching(t, dual=True)
    assert not calls


def test_verifier_diagnoses_the_side_it_is_told(table, matching):
    for n in range(4, 7):
        t = table(n)
        mislabelled = MatchingMap(n, True, matching(n).partners)
        assert verify_well_defined(t, mislabelled).violations
        mislabelled = MatchingMap(n, False, matching(n, True).partners)
        assert verify_well_defined(t, mislabelled).violations


def test_primal_verifier_diagnoses_the_faces_it_is_given():
    # no word lookup on either side: an emptied index leaves both working
    t = enumerate_faces(5)
    primal, dual = build_matching(t), build_matching(t, dual=True)
    t.cover_incidence()
    t.id_of_word = {}
    assert verify_well_defined(t, primal).ok
    assert verify_well_defined(t, dual).ok


def test_cleared_pairs_leave_later_matchings_unchanged():
    t = enumerate_faces(5)
    primal, dual = build_matching(t), build_matching(t, dual=True)
    expected = (dict(primal.pairs), dict(dual.pairs))
    for m in (primal, dual):
        with pytest.raises(TypeError):
            m.pairs[0] = 1  # the pairs are a read-only view
        m.partners[:] = array("i", [-1]) * len(t)
    again = build_matching(t), build_matching(t, dual=True)
    assert (dict(again[0].pairs), dict(again[1].pairs)) == expected


def test_pairs_view_reads_the_partner_array(table, matching):
    for n in range(1, 7):
        t = table(n)
        for dual in (False, True):
            m = matching(n, dual)
            pairs = {f: g for f, g in enumerate(m.partners) if g >= 0}
            assert dict(m.pairs) == pairs and m.pairs == pairs
            assert len(m.pairs) == m.matched == len(pairs)
            assert [f in m.pairs for f in range(-1, len(t) + 1)] == [
                f in pairs for f in range(-1, len(t) + 1)
            ]
            for f in (-1, len(t)):
                with pytest.raises(KeyError):
                    m.pairs[f]


def _swap_position(v, w):
    """p such that w is v with the letters at p, p+1 swapped."""
    diff = [i for i, (x, y) in enumerate(zip(v, w)) if x != y]
    assert len(diff) == 2 and diff[1] == diff[0] + 1, (v, w)
    return diff[0]


def assert_word_diagnosis_equals_oracles(f):
    """Both sides: diagnose_word on the word (primal) and on the complemented
    word (dual) against the block oracle and the mirrored-run oracle, with
    the swap position read off the partner that block surgery builds."""
    for word, diagnosis, by_surgery in (
        (f.word, diagnosis_by_blocks, partner_by_surgery),
        (complement_word(f.word), dual_diagnosis_by_runs, dual_partner_by_runs),
    ):
        got, want = diagnose_word(word), diagnosis(f)
        if want is None:
            assert got is None, (f, got)
        else:
            assert got[:3] == want, (f, got, want)
            assert got[3] == _swap_position(f.word, by_surgery(f).word), (f, got)


def test_word_diagnosis_equals_block_oracle_through_n8(table):
    for n in range(1, 9):
        for f in table(n).faces:
            assert_word_diagnosis_equals_oracles(f)


@settings(max_examples=300, deadline=None)
@given(BIG_PERMUTATIONS)
def test_word_diagnosis_equals_block_oracle_beyond_enumeration(core):
    assert_word_diagnosis_equals_oracles(face_from_perm(core))
