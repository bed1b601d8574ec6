"""The discrete matching: involution structure, type pairing, dual mirror."""

import enum
from array import array
from bisect import bisect_right
from collections import Counter
from math import factorial
from operator import gt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcomplex.complexes import enumerate_faces
from hcomplex.matching import (
    MatchingMap,
    MatchingReport,
    build_matching,
    cover_swap,
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


def is_adjacent_swap(v, w):
    """Whether the words v and w differ by swapping two adjacent letters."""
    diff = [i for i, (x, y) in enumerate(zip(v, w)) if x != y]
    return (
        len(diff) == 2
        and diff[1] == diff[0] + 1
        and v[diff[0]] == w[diff[1]]
        and v[diff[1]] == w[diff[0]]
    )


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
    assert is_adjacent_swap(f.word, g.word)


def test_partner_is_a_cover_involution_with_shared_rank(table):
    for n in range(1, 7):
        t = table(n)
        for f in map(t.face, range(len(t))):
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
        t = table(n)
        for f in map(t.face, range(len(t))):
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
        t = table(n)
        for f in map(t.face, range(len(t))):
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
            fid: t.id_of_word(bytes((0, *(n + 1 - x for x in f.word[1:-1]), n + 1)))
            for fid, f in enumerate(map(t.face, range(len(t))))
        }
        primal, dual = matching(n).pairs, matching(n, True).pairs
        assert dual == {comp[f]: comp[g] for f, g in primal.items()}


def test_complement_reverses_face_ids(table):
    for n in range(1, 8):
        t = table(n)
        last = len(t) - 1
        for fid, f in enumerate(map(t.face, range(len(t)))):
            assert t.id_of_word(bytes((0, *(n + 1 - x for x in f.word[1:-1]), n + 1))) == last - fid


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
    # no word lookup on either side: a lookup that raises leaves both working
    t = enumerate_faces(5)
    primal, dual = build_matching(t), build_matching(t, dual=True)
    t.cover_incidence()

    def no_lookup(word):
        raise AssertionError(f"looked up {word!r}")

    t.id_of_word = no_lookup
    assert verify_well_defined(t, primal).ok
    assert verify_well_defined(t, dual).ok


# -- the dual check: the primal one mirrored ----------------------------------


def test_old_complemented_diagnosis_is_the_primal_one_mirrored(table, matching):
    # the dual check used to diagnose both complemented words of each dual
    # pair; each is the diagnosis of the mirrored face that the primal makes
    for n in range(1, 9):
        t = table(n)
        words, last = t.words, len(t) - 1
        for f in (f for f, g in enumerate(matching(n, True).partners) if g >= 0):
            assert diagnose_word(complement_word(words[f])) == diagnose_word(words[last - f]), (n, f)


def test_dual_check_with_its_primal_report_diagnoses_nothing(monkeypatch):
    import hcomplex.matching as matching_module

    t = enumerate_faces(6)
    primal = verify_well_defined(t, build_matching(t))

    def no_diagnosis(word):
        raise AssertionError(f"diagnosed {word!r}")

    monkeypatch.setattr(matching_module, "diagnose_word", no_diagnosis)
    report = verify_well_defined(t, build_matching(t, dual=True), primal)
    assert report.ok and report.pair_count == primal.pair_count


def test_dual_pair_moved_onto_a_non_cover_fails(table, matching):
    t = table(6)
    partners = array("i", matching(6, True).partners)
    f = next(f for f, g in enumerate(partners) if g >= 0)
    g = partners[f]
    h = next(
        h for h, p in enumerate(partners)
        if p < 0 and h not in t.lowers(f) and f not in t.lowers(h)
    )
    partners[f], partners[g], partners[h] = h, -1, f
    last = len(t) - 1
    for primal in (None, verify_well_defined(t, matching(6))):
        report = verify_well_defined(t, MatchingMap(6, True, partners), primal)
        # M1 alone fails it: the dual check no longer looks pairs up as covers
        assert not report.ok
        assert report.violations == tuple(
            f"{x}<->{partners[x]}: not primal face {last - x}'s pair relabelled"
            for x in sorted((f, g, h))
        )
        assert not any("not a cover pair" in v for v in report.violations)


def test_dual_check_with_its_primal_report_reads_no_incidence(monkeypatch):
    t = enumerate_faces(6)
    primal = verify_well_defined(t, build_matching(t))

    def no_incidence():
        raise AssertionError("read the cover incidence")

    monkeypatch.setattr(t, "cover_incidence", no_incidence)
    report = verify_well_defined(t, build_matching(t, dual=True), primal)
    assert report.ok and report.pair_count == primal.pair_count


@pytest.mark.parametrize("n", range(1, 9))
def test_complement_maps_exactly_the_adjacent_swap_covers_to_covers(table, n):
    # the lemma the dual check rests on: u covers l one adjacent swap apart
    # exactly when N-1-l covers N-1-u; no other cover is mapped to a cover
    t = table(n)
    words, last = t.words, len(t) - 1
    offsets, lowers = t.cover_incidence()
    covers = {(u, l) for u in range(len(t)) for l in lowers[offsets[u]:offsets[u + 1]]}
    for u, l in covers:
        assert ((last - l, last - u) in covers) == is_adjacent_swap(words[u], words[l]), (u, l)


def test_dual_differing_from_the_relabelled_primal_in_one_pair_fails(table, matching):
    # an unpaired dual pair leaves an involution on cover pairs: only M1 sees it
    t = table(6)
    last = len(t) - 1
    partners = array("i", matching(6, True).partners)
    f = next(f for f, g in enumerate(partners) if g >= 0)
    g = partners[f]
    partners[f] = partners[g] = -1
    report = verify_well_defined(t, MatchingMap(6, True, partners))
    assert not report.ok
    assert report.violations == tuple(
        f"{x}<->-1: not primal face {last - x}'s pair relabelled" for x in sorted((f, g))
    )


def test_two_swapped_words_break_the_complement_mirror():
    t = enumerate_faces(5)
    primal = verify_well_defined(t, build_matching(t))
    dual = build_matching(t, dual=True)
    t.words[1], t.words[2] = t.words[2], t.words[1]
    report = verify_well_defined(t, dual, primal)
    assert report.violations == tuple(
        f"word {f} complemented is not word {119 - f}" for f in (1, 2, 117, 118)
    )
    assert not verify_well_defined(t, dual).ok


def test_a_failed_primal_report_fails_the_dual(table, matching):
    from dataclasses import replace

    t = table(5)
    primal = verify_well_defined(t, matching(5))
    assert verify_well_defined(t, matching(5, True), primal).ok
    # a failed report, and an ok one holding no partner array to mirror
    for bad in (replace(primal, ok=False), MatchingReport(5, False, True, 0, 0)):
        report = verify_well_defined(t, matching(5, True), bad)
        assert report.violations == ("the primal matching it mirrors is not well defined",)


def test_the_dual_mirrors_the_ids_its_primal_report_checked():
    # a critical face re-paired in table A's partner memo with a matched face
    # one adjacent swap and one cover away: A's dual no longer mirrors the
    # ids that table B's ok report checked
    b = enumerate_faces(5)
    b_report = verify_well_defined(b, build_matching(b))
    assert b_report.ok
    memo, words = b_report.partners, b.words
    repairs = [
        (c, m) for c in range(120) if memo[c] < 0 for m in b.lowers(c)
        if memo[m] >= 0 and is_adjacent_swap(words[c], words[m])
    ]
    assert len(repairs) == 20
    for c, m in repairs:
        a = enumerate_faces(5)
        build_matching(a)
        p = a._partners
        p[p[m]], p[c], p[m] = -1, m, c
        dual = build_matching(a, dual=True)
        assert not verify_well_defined(a, dual).ok
        report = verify_well_defined(a, dual, b_report)
        assert f"{119 - c}<->{119 - m}: not primal face {c}'s pair relabelled" in report.violations


# -- the critical-face rule: primal words only --------------------------------


def test_a_critical_face_with_a_block_longer_than_3_is_a_violation(table, matching):
    # faces 0 and 1 (words 012345 and 0124|35) are a primal pair at n = 4
    t = table(4)
    partners = array("i", matching(4).partners)
    partners[0] = partners[1] = -1
    unpaired = MatchingMap(4, False, partners)
    report = verify_well_defined(t, unpaired)
    assert report.violations == (
        "critical face 0 [0, 1, 2, 3, 4, 5] has a block longer than 3",
        "critical face 1 [0, 1, 2, 4, 3, 5] has a block longer than 3",
    )
    assert critical_faces(t, unpaired)[-1] == [0]  # a listing: it raises nothing
    dual = verify_well_defined(t, matching(4, True), report)
    assert dual.violations[0] == "the primal matching it mirrors is not well defined"


def test_a_primal_pair_moved_onto_a_non_cover_fails(table, matching):
    from hcomplex.reports import check_matching

    t = table(6)
    partners = array("i", matching(6).partners)
    f = next(f for f, g in enumerate(partners) if g >= 0)
    g = partners[f]
    h = next(
        h for h, p in enumerate(partners)
        if p < 0 and h not in t.lowers(f) and f not in t.lowers(h)
    )
    partners[f], partners[g], partners[h] = h, -1, f
    moved = MatchingMap(6, False, partners)
    violation = f"{min(f, h)}<->{max(f, h)}: not a cover pair"
    assert violation in verify_well_defined(t, moved).violations
    assert violation in check_matching(t, moved)[1]


# -- the primal pair check on words, against the incidence -------------------


def incidence_check_violations(t, partners):
    """The primal check as it read the cover incidence: each pair looked up
    among its upper face's covers and diffed as words, with the ids, the
    involution, the critical words, the diagnoses, ranks and types."""
    words, bars, size = t.words, t.bars, len(partners)
    offsets, lowers = t.cover_incidence()
    out = []
    for fid, gid in enumerate(partners):
        if gid == -1:
            if b"\0\0\0" in bytes(map(gt, w := words[fid], w[1:])):
                out.append(f"critical face {fid} has a block longer than 3")
            continue
        if not 0 <= gid < size:
            out.append(f"{fid}<->{gid}: not a face id or -1")
        elif partners[gid] != fid or gid == fid:
            out.append(f"{fid}<->{gid}: not a fixed-point-free involution")
        elif fid < gid:
            lower, upper = (fid, gid) if bars[fid] < bars[gid] else (gid, fid)
            if lower not in lowers[offsets[upper]:offsets[upper + 1]]:
                out.append(f"{fid}<->{gid}: not a cover pair")
            if not is_adjacent_swap(words[fid], words[gid]):
                out.append(f"{fid}<->{gid}: words not one adjacent swap apart")
            df, dg = diagnose_word(words[fid]), diagnose_word(words[gid])
            if df is None or dg is None:
                out.append(f"{fid}<->{gid}: matched face has no matchable block")
            elif df[1] != dg[1] or PAIRED[df[2]] is not dg[2]:
                out.append(f"{fid}<->{gid}: ranks or types do not pair")
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_cover_swap_gives_a_word_exactly_for_a_cover_neighbour(table, n):
    # the lemma the primal check rests on: an adjacent swap that keeps the
    # bars at ranks p and p+2 is exactly a cover pair
    t = table(n)
    offsets, lowers = t.cover_incidence()
    covers = {(u, l) for u in range(len(t)) for l in lowers[offsets[u]:offsets[u + 1]]}
    found = 0
    for f, word in enumerate(t.words):
        for p in range(1, n):
            swapped = word[:p] + bytes((word[p + 1], word[p])) + word[p + 2:]
            g = t.id_of_word(swapped)
            got = cover_swap(word, p)
            assert got in (None, swapped)
            assert (got is not None) == ((f, g) in covers or (g, f) in covers), (f, p)
            found += got is not None
    assert found == 2 * sum(is_adjacent_swap(t.words[u], t.words[l]) for u, l in covers)


def test_a_cover_pair_one_swap_apart_off_the_diagnosed_position_fails(table, matching):
    # at n = 6 faces 1 and 7 are a cover pair one adjacent swap apart with the
    # same rank and inverse types, but their diagnoses name positions 5 and 1
    t = table(6)
    partners = array("i", matching(6).partners)
    assert (partners[1], partners[7]) == (0, 127)
    assert [diagnose_word(t.words[f])[3] for f in (1, 7)] == [5, 1]
    partners[0] = partners[127] = -1
    partners[1], partners[7] = 7, 1
    report = verify_well_defined(t, MatchingMap(6, False, partners))
    assert not report.ok
    assert [v for v in report.violations if v.startswith("1<->7")] == [
        "1<->7: a cover pair, not its diagnosed swap"
    ]
    # the incidence-based check passed this pair: it failed only face 0, left critical
    assert not [v for v in incidence_check_violations(t, partners) if v.startswith("1<->7")]


def test_two_pairs_crossed_onto_non_covers_with_like_diagnoses_fail(table, matching):
    # at n = 4 pairs 3<->13 and 9<->15 crossed are an involution with no
    # face left critical, and each new pair shares its diagnosed p, rank and
    # inverse types: only the swap itself tells them from cover pairs
    t = table(4)
    partners = array("i", matching(4).partners)
    assert (partners[3], partners[9]) == (13, 15)
    partners[3], partners[15], partners[9], partners[13] = 15, 3, 13, 9
    assert diagnose_word(t.words[3])[1:] == (1, MatchableType.TWO_MERGED, 1)
    assert diagnose_word(t.words[15])[1:] == (1, MatchableType.TWO_SPLIT, 1)
    report = verify_well_defined(t, MatchingMap(4, False, partners))
    assert report.violations == ("3<->15: not a cover pair", "9<->13: not a cover pair")


def test_a_pair_whose_diagnoses_name_two_positions_fails(monkeypatch, table, matching):
    # face 3's diagnosed swap gives face 13; a diagnosis of face 13 naming
    # another position breaks the pair from that side
    import hcomplex.matching as matching_module

    t = table(4)
    assert matching(4).partners[3] == 13
    bent = t.words[13]

    def diagnose(word):
        d = diagnose_word(word)
        return (*d[:3], d[3] + 1) if word == bent else d

    monkeypatch.setattr(matching_module, "diagnose_word", diagnose)
    report = verify_well_defined(t, matching(4))
    assert report.violations == ("3<->13: a cover pair, not its diagnosed swap",)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.sampled_from(("ids", "pairs", "array")), st.data())
def test_every_primal_array_the_word_check_accepts_passes_the_incidence_check(
    table, matching, n, change, data
):
    # the word check is no weaker: whatever it accepts, the incidence accepts
    t, size, ids = table(n), factorial(n), st.integers(-3, factorial(n) + 2)
    partners = array("i", matching(n).partners)
    if change == "array":
        partners = array("i", data.draw(st.lists(ids, min_size=size, max_size=size)))
    for f, g in data.draw(st.lists(st.tuples(st.integers(0, size - 1), ids), max_size=6)):
        if change == "ids":
            partners[f] = g
        elif change == "pairs" and (covered := t.lowers(f)):
            g = covered[g % len(covered)]
            for x in (f, g):  # re-pair f with a face it covers, their partners left critical
                if partners[x] >= 0:
                    partners[partners[x]] = -1
            partners[f], partners[g] = g, f
    if verify_well_defined(t, MatchingMap(n, False, partners)).ok:
        assert incidence_check_violations(t, partners) == []


# -- partner ids outside the table: violations, never exceptions --------------


@pytest.mark.parametrize("face, bad", [(2, -2), (2, 24), (3, -3), (3, 24)])
def test_a_partner_id_outside_the_table_is_a_violation(table, matching, face, bad):
    # at n = 4 face 2 is critical and face 3 is paired with face 13
    from hcomplex.morse import morse_numbers
    from hcomplex.reports import check_matching

    t = table(4)
    partners = array("i", matching(4).partners)
    assert (partners[2], partners[3]) == (-1, 13)
    partners[face] = bad
    bad_matching = MatchingMap(4, False, partners)
    report, violations, numbers = check_matching(t, bad_matching)
    expected = (f"{face}<->{bad}: not a face id or -1",)
    if face == 3:
        expected += ("13<->3: not a fixed-point-free involution",)
    assert not report.ok and report.violations == expected
    assert violations[:len(expected)] == expected
    assert numbers == morse_numbers(t, bad_matching)  # lists and counts the -1 ids alone
    assert sum(numbers.m) == partners.count(-1) == len(t) - bad_matching.matched
    dual = verify_well_defined(t, matching(4, True), report)
    assert dual.violations[0] == "the primal matching it mirrors is not well defined"


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.booleans(), st.data())
def test_no_partner_array_makes_a_matching_check_raise(table, matching, n, dual, data):
    from hcomplex.reports import certify_acyclic, check_matching

    # a few ids of the built matching changed, or an array of any ids
    size, ids = factorial(n), st.integers(-3, factorial(n) + 2)
    partners = array("i", matching(n, dual).partners)
    if data.draw(st.booleans()):
        for f, g in data.draw(st.lists(st.tuples(st.integers(0, size - 1), ids), max_size=6)):
            partners[f] = g
    else:
        partners = array("i", data.draw(st.lists(ids, min_size=size, max_size=size)))
    report, violations, numbers = check_matching(table(n), MatchingMap(n, dual, partners))
    unchanged = partners == matching(n, dual).partners
    if dual:
        assert report.ok == unchanged  # M1 names each id where it leaves the mirrored primal
    elif unchanged:
        assert report.ok
    assert sum(numbers.m) == partners.count(-1)
    certify_acyclic(table(n), MatchingMap(n, dual, partners))  # a verdict and no exception


def test_cleared_pairs_leave_later_matchings_unchanged():
    t = enumerate_faces(5)
    primal, dual = build_matching(t), build_matching(t, dual=True)
    expected = (primal.pairs, dual.pairs)
    for m, pairs in zip((primal, dual), expected):
        partners = array("i", m.partners)
        written = m.pairs
        written[0] = 0  # no face is its own partner: a write the copy alone sees
        assert m.partners == partners and m.pairs == pairs != written
        m.partners[:] = array("i", [-1]) * len(t)
    again = build_matching(t), build_matching(t, dual=True)
    assert (again[0].pairs, again[1].pairs) == expected


@pytest.mark.parametrize("sizes", [(4, 3), (3, 4)])
def test_a_matching_built_on_another_table_is_a_value_error(sizes):
    from hcomplex.morse import build_digraph
    from hcomplex.reports import matching_payload

    table_n, matching_n = sizes
    for dual in (False, True):
        m = build_matching(enumerate_faces(matching_n), dual=dual)
        for check in (verify_well_defined, critical_faces, build_digraph, matching_payload):
            t = enumerate_faces(table_n)
            counts = rf"{factorial(matching_n)} faces \(n={matching_n}\) .* {factorial(table_n)} faces"
            with pytest.raises(ValueError, match=counts):
                check(t, m)
            assert t._incidence is None  # refused before the cover incidence is built


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
        t = table(n)
        for f in map(t.face, range(len(t))):
            assert_word_diagnosis_equals_oracles(f)


@settings(max_examples=300, deadline=None)
@given(BIG_PERMUTATIONS)
def test_word_diagnosis_equals_block_oracle_beyond_enumeration(core):
    assert_word_diagnosis_equals_oracles(face_from_perm(core))
