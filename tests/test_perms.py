"""Core word/face machinery: oracles are brute force over small n."""

import copy
import pickle
from dataclasses import FrozenInstanceError
from itertools import accumulate, combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcomplex.perms import (
    BarredFace,
    MatchableType,
    block_labels,
    blocks_of_word,
    complement_word,
    diagnose_word,
    erase_bar,
    face_from_chain,
    face_from_perm,
    run_cuts,
)
# the block-level matching rules and the block surgery that the word-level
# diagnosis and partner replaced are kept as test oracles
from test_matching import (
    SplitMode,
    classify_interval,
    inversions_between,
    merge_blocks,
    s_count,
    split_block,
    split_sorted_block,
)


def all_faces(n):
    return [face_from_perm(c) for c in permutations(range(1, n + 1))]


def test_words_must_be_bytes():
    # a face keeps the table's own word object; any other sequence is refused
    for word in ([0, 2, 1, 3], (0, 2, 1, 3), bytearray(b"\0\2\1\3")):
        with pytest.raises(ValueError, match="bytes"):
            BarredFace.from_word(2, word)
    word = bytes((0, 2, 1, 3))
    assert BarredFace.from_word(2, word) == BarredFace(2, ((0, 2), (1, 3)))
    assert BarredFace.from_word(2, word).word is word


def test_n_above_the_byte_limit_is_refused():
    from hcomplex.complexes import enumerate_faces
    from hcomplex.perms import MAX_N
    from hcomplex.witnesses import witness_spec

    assert MAX_N == 254 and face_from_perm(range(1, 255)).n == 254
    for build in (
        lambda: face_from_perm(range(1, 256)),
        lambda: witness_spec(255, 84),
        lambda: enumerate_faces(255, max_n=None),
        lambda: face_from_chain(255, ()),
    ):
        with pytest.raises(ValueError, match="254"):
            build()


def test_from_word_rejects_what_is_not_a_sentinel_word():
    for n, word in ((2, (0, 1, 1, 3)), (2, (1, 0, 2, 3)), (3, (0, 2, 1, 3)), (2, (0, 2, 1))):
        with pytest.raises(ValueError):
            BarredFace.from_word(n, bytes(word))


@pytest.mark.parametrize(
    "n, word, message",
    [
        (0, b"", "n must be between 1 and 254 (one byte per letter), got 0"),
        (255, bytes(257), "n must be between 1 and 254 (one byte per letter), got 255"),
        (2, b"\0\2\1", "not a permutation of 0..3: [0, 2, 1]"),
        (2, b"\0\1\1\3", "not a permutation of 0..3: [0, 1, 1, 3]"),
        (2, b"\0\5\1\3", "not a permutation of 0..3: [0, 5, 1, 3]"),
        (1, b"\0\1\2\3", "not a permutation of 0..2: [0, 1, 2, 3]"),
        (2, b"\1\0\2\3", "sentinels must be 0 and 3: [1, 0, 2, 3]"),
        (2, b"\0\2\3\1", "sentinels must be 0 and 3: [0, 2, 3, 1]"),
    ],
)
def test_from_word_names_what_is_wrong(n, word, message):
    # one test of the whole word, then the message each check gave on its own
    with pytest.raises(ValueError) as exc:
        BarredFace.from_word(n, word)
    assert str(exc.value) == message


def test_a_face_hashes_as_its_word():
    for f in all_faces(4):
        assert hash(f) == hash(f.word)
    assert len({face_from_perm((2, 1)), face_from_perm((2, 1)), face_from_perm((1, 2))}) == 2


def test_from_word_equals_the_blocks_constructor_exhaustively():
    for n in range(1, 7):
        for core in permutations(range(1, n + 1)):
            word = bytes((0, *core, n + 1))
            f, g = BarredFace.from_word(n, word), BarredFace(n, blocks_of_word(word))
            assert f == g and hash(f) == hash(g)
            assert (f.n, f.word, f.dim, f.blocks) == (g.n, g.word, g.dim, g.blocks)
            assert f.dim == len(blocks_of_word(word)) - 2


def test_faces_are_immutable():
    f = BarredFace(2, ((0, 2), (1, 3)))
    # the stored fields, a derived property and a name the class lacks
    for name, value in (("n", 3), ("word", b"\0\1\2\3"), ("dim", -1),
                        ("blocks", ((0, 1, 2, 3),)), ("foo", 1)):
        with pytest.raises(FrozenInstanceError):
            setattr(f, name, value)
        with pytest.raises(FrozenInstanceError):
            delattr(f, name)
    assert (f.n, f.word, f.dim) == (2, b"\0\2\1\3", 0)
    for copied in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert copied == f and copied.dim == f.dim


def test_descents_only_at_inner_ranks():
    for n in range(1, 7):
        for core in permutations(range(1, n + 1)):
            ranks = face_from_perm(core).bar_ranks()
            assert all(2 <= r <= n for r in ranks)


def test_face_dimension_counts_bars():
    f = face_from_perm((1, 3, 2, 6, 5, 4))
    assert f.blocks == ((0, 1, 3), (2, 6), (5,), (4, 7))
    assert f.dim == 2
    assert f.bar_ranks() == (3, 5, 6)


def test_face_validation_rejects_non_descent_bars():
    with pytest.raises(ValueError):
        BarredFace(3, ((0, 1), (2, 3, 4)))  # 1 < 2 is an ascent
    with pytest.raises(ValueError):
        BarredFace(3, ((0, 2, 1), (3, 4)))  # block not increasing


def _five_condition_check(n, blocks):
    """Reference oracle for the face rule, five hand-derived conditions:
    non-empty blocks, increasing blocks, a tiling of 0..n+1, the two
    sentinels, and a descent at every bar.  Raises ValueError."""
    if not blocks or any(not b for b in blocks):
        raise ValueError("blocks must be non-empty")
    for b in blocks:
        if any(x >= y for x, y in zip(b, b[1:])):
            raise ValueError(f"block not strictly increasing: {b}")
    word = tuple(x for b in blocks for x in b)
    if len(word) != n + 2 or set(word) != set(range(n + 2)):
        raise ValueError(f"blocks do not tile 0..{n + 1}: {blocks}")
    if blocks[0][0] != 0:
        raise ValueError("block 0 must contain the sentinel 0")
    if blocks[-1][-1] != n + 1:
        raise ValueError(f"last block must contain the sentinel {n + 1}")
    for left, right in zip(blocks, blocks[1:]):
        if left[-1] < right[0]:
            raise ValueError(f"bar between {left} and {right} is not a descent")


def _rejects(build, n, blocks):
    try:
        build(n, blocks)
    except ValueError:
        return True
    return False


def _cut(word, cuts):
    ends = sorted(cuts) + [len(word)]
    return tuple(tuple(word[a:b]) for a, b in zip([0] + ends, ends))


MUTATIONS = (
    "none", "empty block", "duplicated letter", "moved sentinel", "wrong n", "swap across bar"
)
sized_cores = st.integers(1, 10).flatmap(
    lambda n: st.tuples(st.just(n), st.permutations(range(1, n + 1)))
)


@settings(max_examples=400, deadline=None)
@given(sized_cores, st.booleans(), st.sampled_from(MUTATIONS), st.data())
def test_face_rule_rejects_exactly_what_the_five_conditions_reject(
    n_core, at_descents, mutation, data
):
    n, core = n_core
    word = [0, *core, n + 1]
    if mutation == "duplicated letter":  # a copy overwrites a letter or is inserted
        i, j = data.draw(st.lists(st.integers(0, n + 1), min_size=2, max_size=2, unique=True))
        if data.draw(st.booleans()):
            word[i] = word[j]
        else:
            word.insert(i, word[j])
    elif mutation == "moved sentinel":
        letter = data.draw(st.sampled_from((0, n + 1)))
        word.remove(letter)
        word.insert(data.draw(st.integers(0, n + 1)), letter)
    if at_descents:
        cuts = {i for i in range(1, n + 2) if word[i - 1] > word[i]}
    else:
        cuts = data.draw(st.sets(st.integers(1, n + 1)))
    blocks = _cut(word, cuts)
    if mutation == "empty block":
        i = data.draw(st.integers(0, len(blocks)))
        blocks = blocks[:i] + ((),) + blocks[i:]
    elif mutation == "wrong n":
        n = data.draw(st.integers(-1, 12).filter(lambda m: m != n))
    elif mutation == "swap across bar" and len(blocks) > 1:
        i = data.draw(st.integers(0, len(blocks) - 2))
        left, right = blocks[i], blocks[i + 1]
        swapped = (left[:-1] + right[:1], left[-1:] + right[1:])
        blocks = blocks[:i] + swapped + blocks[i + 2:]
    assert _rejects(BarredFace, n, blocks) == _rejects(_five_condition_check, n, blocks)


def test_face_rule_agrees_with_the_five_conditions_exhaustively():
    # every cut of every sentinel word for n <= 5: valid exactly at the descents
    for n in range(1, 6):
        for core in permutations(range(1, n + 1)):
            word = (0, *core, n + 1)
            for k in range(n + 2):
                for cuts in combinations(range(1, n + 2), k):
                    blocks = _cut(word, cuts)
                    rejected = _rejects(BarredFace, n, blocks)
                    assert rejected == _rejects(_five_condition_check, n, blocks)
                    assert rejected == (blocks != blocks_of_word(word))


def test_face_blocks_must_be_a_tuple_of_tuples():
    face = BarredFace(3, ((0, 1, 2, 3, 4),))
    hash(face)
    for blocks in ([[0, 1, 2, 3, 4]], [(0, 1, 2, 3, 4)], ([0, 1, 2, 3, 4],)):
        with pytest.raises(ValueError, match="blocks_of_word"):
            BarredFace(3, blocks)


def test_perm_face_round_trip_exhaustive():
    for n in range(1, 7):
        for core in permutations(range(1, n + 1)):
            f = face_from_perm(core)
            assert f.word[1:-1] == bytes(core) and f.n == n
    for core in ((), (1, 1), (2, 3), (0, 1), (1, 3)):  # not a permutation of 1..n, n >= 1
        with pytest.raises(ValueError):
            face_from_perm(core)


def test_chain_round_trip_exhaustive():
    for n in range(1, 7):
        for f in all_faces(n):
            assert face_from_chain(n, f.chain()) == f


def test_face_from_chain_rejects_bad_chains():
    with pytest.raises(ValueError):
        face_from_chain(3, (0b0010, 0b0010))  # not strictly increasing
    with pytest.raises(ValueError):
        face_from_chain(3, (0b0110, 0b0010))  # not nested
    with pytest.raises(ValueError):
        face_from_chain(3, (0b0001,))  # touches the sentinel bit
    with pytest.raises(ValueError):
        face_from_chain(3, (0b0010,))  # bar at an ascent: 1 | 2 3
    for n in (0, -1, -2):  # no letters to read bits into
        with pytest.raises(ValueError):
            face_from_chain(n, ())


def test_complement_is_an_involution():
    for n in range(1, 7):
        for core in permutations(range(1, n + 1)):
            word = bytes((0, *core, n + 1))
            flipped = complement_word(word)
            assert flipped == bytes((0, *(n + 1 - v for v in core), n + 1))
            assert complement_word(flipped) == word


@given(
    st.lists(st.integers(0, 60), max_size=8, unique=True).map(sorted),
    st.lists(st.integers(0, 60), max_size=8, unique=True).map(sorted),
)
def test_inversions_between_matches_naive_count(a, b):
    b = [y for y in b if y not in a]
    assert inversions_between(a, b) == sum(1 for x in a for y in b if x > y)


def _bipartitions(block, lower_size):
    for lower in combinations(block, lower_size):
        upper = tuple(v for v in block if v not in lower)
        yield lower, upper


@pytest.mark.parametrize("block", [tuple(range(4)), (1, 2, 4, 6), (0, 2, 3, 5, 7, 9), tuple(range(7))])
def test_splits_are_the_unique_single_inversion_cuts(block):
    singleton = split_sorted_block(block, SplitMode.SINGLETON)
    hits = [c for c in _bipartitions(block, 1) if inversions_between(*c) == 1]
    assert hits == [singleton]

    pair = split_sorted_block(block, SplitMode.PAIR)
    hits = [
        c for c in _bipartitions(block, len(block) - 2) if inversions_between(*c) == 1
    ]
    assert hits == [pair]


def _split_is_legal(f, i, mode):
    """First-principles face validity for the spliced block sequence: the
    sentinels stay in the end blocks and every bar sits at a descent."""
    lower, upper = split_sorted_block(f.blocks[i], mode)
    blocks = f.blocks[:i] + (lower, upper) + f.blocks[i + 1 :]
    if blocks[0][0] != 0 or blocks[-1][-1] != f.n + 1:
        return False
    return all(a[-1] > b[0] for a, b in zip(blocks, blocks[1:]))


def test_split_then_merge_is_identity():
    for n in range(3, 7):
        for f in all_faces(n):
            for i, block in enumerate(f.blocks):
                for mode, least in ((SplitMode.SINGLETON, 2), (SplitMode.PAIR, 4)):
                    if len(block) < least:
                        continue
                    if _split_is_legal(f, i, mode):
                        g = split_block(f, i, mode)
                        assert g.dim == f.dim + 1
                        assert merge_blocks(g, i) == f
                    else:
                        with pytest.raises(ValueError):
                            split_block(f, i, mode)


def _s_count_oracle(f, i):
    """Largest s such that the s blocks above block i are all 2-blocks and
    the run's only inversions are the s separating descents."""
    best = 0
    for s in range(1, len(f.blocks) - i):
        run = f.blocks[i : i + s + 1]
        if any(len(b) != 2 for b in run[1:]):
            break
        total = sum(
            inversions_between(run[a], run[b])
            for a in range(len(run))
            for b in range(a + 1, len(run))
        )
        if total == s:
            best = s
    return best


def test_s_count_matches_literal_definition():
    for n in range(1, 7):
        for f in all_faces(n):
            for i in range(len(f.blocks)):
                assert s_count(f, i) == _s_count_oracle(f, i), (f, i)
    golden = BarredFace(9, ((0, 1, 2, 3, 6), (5, 8), (7, 9), (4, 10)))
    assert [s_count(golden, i) for i in range(4)] == [2, 1, 0, 0]
    assert [_s_count_oracle(golden, i) for i in range(4)] == [2, 1, 0, 0]


def _standalone_clauses(f, i):
    """Each match-type condition evaluated independently of clause order."""
    blocks = f.blocks
    block = blocks[i]
    below = blocks[i - 1] if i > 0 else None
    above = blocks[i + 1] if i + 1 < len(blocks) else None
    s = s_count(f, i)

    def one_merged_shape(b, blk):
        return (
            b is not None
            and len(blk) >= 4
            and len(blk) % 2 == 0
            and b[-1] > blk[0]
            and b[-1] > blk[1]
        )

    hits = []
    if (
        len(block) == 1
        and above is not None
        and len(above) >= 3
        and len(above) % 2 == 1
        and inversions_between(block, above) == 1
    ):
        hits.append(MatchableType.ONE_SPLIT)
    if one_merged_shape(below, block):
        hits.append(MatchableType.ONE_MERGED)
    if len(block) >= 4 and s % 2 == 0 and not one_merged_shape(below, block):
        hits.append(MatchableType.TWO_MERGED)
    if (
        len(block) >= 2
        and s % 2 == 1
        and above is not None
        and inversions_between(block, above) == 1
        and not one_merged_shape(below, tuple(sorted(block + above)))
    ):
        hits.append(MatchableType.TWO_SPLIT)
    return hits


def test_match_clauses_are_mutually_exclusive_and_agree():
    for n in range(1, 7):
        for f in all_faces(n):
            for i in range(len(f.blocks)):
                hits = _standalone_clauses(f, i)
                assert len(hits) <= 1, (f, i, hits)
                expected = hits[0] if hits else None
                assert classify_interval(f, i) == expected, (f, i)


def test_lowest_matchable_picks_first_matchable_block():
    for n in range(1, 7):
        for f in all_faces(n):
            diag = diagnose_word(f.word)
            kinds = [classify_interval(f, i) for i in range(len(f.blocks))]
            firsts = [i for i, k in enumerate(kinds) if k is not None]
            if not firsts:
                assert diag is None
            else:
                i = firsts[0]
                # the start rank is the rank of the bar below; 1 for block 0
                assert diag[:3] == (i, (1, *f.bar_ranks())[i], kinds[i])


def test_blocks_of_word_cuts_at_descents():
    assert blocks_of_word((0, 2, 1, 3, 4)) == ((0, 2), (1, 3, 4))
    assert blocks_of_word((0, 1, 2, 3)) == ((0, 1, 2, 3),)


sentinel_words = st.integers(1, 12).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(lambda core: bytes((0, *core, n + 1)))
)


@settings(max_examples=300, deadline=None)
@given(sentinel_words)
def test_run_cuts_and_erase_bar_on_bytes_words(word):
    cuts = run_cuts(word)
    blocks = blocks_of_word(word)
    assert bytes(sum(blocks, ())) == word
    assert [0, *accumulate(map(len, blocks))] == cuts
    for i in range(len(cuts) - 2):
        erased = erase_bar(word, cuts, i)
        assert type(erased) is bytes
        # the two runs either side of bar i become one, the others stay
        assert blocks_of_word(erased) == (
            blocks[:i] + (tuple(sorted(blocks[i] + blocks[i + 1])),) + blocks[i + 2:]
        )


@settings(max_examples=300, deadline=None)
@given(sentinel_words)
def test_block_labels_number_the_runs_and_join_as_erase_bar(word):
    labels = block_labels(word)
    blocks = blocks_of_word(word)
    assert type(labels) is bytes and len(labels) == len(word)
    assert all(labels[v] == b for b, block in enumerate(blocks) for v in block)
    assert bytes(sorted(range(len(word)), key=labels.__getitem__)) == word
    cuts = run_cuts(word)
    for i in range(len(cuts) - 2):
        # keep labels <= i, lower the rest by 1: the labels of erase_bar's word
        merge = bytes(range(i + 1)) + bytes(range(i, 255))
        assert labels.translate(merge) == block_labels(erase_bar(word, cuts, i))
