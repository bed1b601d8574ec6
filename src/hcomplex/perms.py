"""Sentinel permutations and their barred-block faces.

A permutation a_1 .. a_n of {1..n} is carried as the word 0, a_1, .., a_n,
n+1.  The slot between word positions i and i+1 is called rank i+1; because of
the sentinels, descents (a letter larger than its successor) can occur only at
ranks 2..n.  The face rule: the blocks of a barred face are the maximal
increasing runs of a sentinel word (a permutation of 0..n+1 with 0 first and
n+1 last), so every bar is a descent.  ``BarredFace`` accepts exactly that,
blocks as a tuple of tuples.  A face with b blocks has dimension b - 2, so the
identity word (one block) is the empty face.

>>> p = Permutation.from_core((1, 3, 2, 6, 5, 4))
>>> p.word
(0, 1, 3, 2, 6, 5, 4, 7)
>>> sorted(descent_ranks(p))
[3, 5, 6]
>>> face_from_perm(p).blocks
((0, 1, 3), (2, 6), (5,), (4, 7))
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

Block = tuple[int, ...]


def _check_sentinel_word(word: Sequence[int], n: int) -> None:
    """Raise ValueError unless word permutes 0..n+1 with 0 first, n+1 last."""
    if len(word) != n + 2 or set(word) != set(range(n + 2)):
        raise ValueError(f"not a permutation of 0..{n + 1}: {word}")
    if not word or word[0] != 0 or word[-1] != n + 1:
        raise ValueError(f"sentinels must be 0 and {n + 1}: {word}")


@dataclass(frozen=True, slots=True)
class Permutation:
    """A permutation of {1..n} stored as its sentinel word 0, a_1..a_n, n+1."""

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.word) < 3:
            raise ValueError("word must contain at least one core letter")
        _check_sentinel_word(self.word, len(self.word) - 2)

    @classmethod
    def from_core(cls, core: Iterable[int]) -> "Permutation":
        """Build from the one-line notation a_1 .. a_n.

        >>> Permutation.from_core([2, 1]).word
        (0, 2, 1, 3)
        """
        core = tuple(core)
        return cls((0,) + core + (len(core) + 1,))

    @property
    def n(self) -> int:
        return len(self.word) - 2

    @property
    def core(self) -> tuple[int, ...]:
        """One-line notation without sentinels.

        >>> Permutation((0, 2, 1, 3)).core
        (2, 1)
        """
        return self.word[1:-1]

    def __repr__(self) -> str:
        return f"Permutation({''.join(map(str, self.core)) if self.n <= 9 else self.core})"


@dataclass(frozen=True, slots=True)
class BarredFace:
    """Blocks of a sentinel word: maximal increasing runs, bars at descents.

    Valid exactly when the concatenated blocks form a sentinel word of
    length n + 2 and ``blocks_of_word(word) == blocks``; anything else,
    including list blocks, raises ValueError.  The face of 1324 (word
    0 1 3 2 4 5):

    >>> f = BarredFace(4, ((0, 1, 3), (2, 4, 5)))
    >>> f.dim
    0
    >>> f.word
    (0, 1, 3, 2, 4, 5)
    """

    n: int
    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        word = self.word
        _check_sentinel_word(word, self.n)
        if blocks_of_word(word) != self.blocks:
            raise ValueError(f"blocks {self.blocks!r} != blocks_of_word({word})")

    @property
    def word(self) -> tuple[int, ...]:
        return tuple(itertools.chain.from_iterable(self.blocks))

    @property
    def dim(self) -> int:
        """Dimension: number of bars minus one.

        >>> BarredFace(1, ((0, 1, 2),)).dim
        -1
        """
        return len(self.blocks) - 2

    def bar_ranks(self) -> tuple[int, ...]:
        """Ranks of the bars, i.e. the word length left of each bar.

        >>> BarredFace(4, ((0, 1, 3), (2, 4, 5))).bar_ranks()
        (3,)
        """
        return tuple(itertools.accumulate(map(len, self.blocks[:-1])))

    def chain(self) -> tuple[int, ...]:
        """The face as a chain of subsets of {1..n}, one bitmask per bar.

        Bit v is set when the value v lies left of the bar.  The empty face
        gives the empty chain.

        >>> [bin(m) for m in BarredFace(4, ((0, 1, 3), (2, 4, 5))).chain()]
        ['0b1010']
        """
        masks = []
        acc = 0
        for b in self.blocks[:-1]:
            for x in b:
                acc |= 1 << x
            masks.append(acc & ~1)  # drop the sentinel bit 0
        return tuple(masks)

    def start_rank(self, block_index: int) -> int:
        """Rank of the bar below a block; 1 for block 0 by convention."""
        if block_index == 0:
            return 1
        return sum(len(b) for b in self.blocks[:block_index])

    def __repr__(self) -> str:
        if self.n <= 8:  # all letters are single digits
            body = "|".join("".join(map(str, b)) for b in self.blocks)
            return f"BarredFace({self.n}, {body})"
        return f"BarredFace({self.n}, {self.blocks})"


def descent_ranks(p: Permutation) -> frozenset[int]:
    """Ranks i+1 with word[i] > word[i+1]; always a subset of 2..n.

    >>> sorted(descent_ranks(Permutation.from_core((1, 3, 2, 6, 5, 4))))
    [3, 5, 6]
    >>> descent_ranks(Permutation.from_core((1, 2, 3)))
    frozenset()
    """
    w = p.word
    return frozenset(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def blocks_of_word(word: Sequence[int]) -> tuple[Block, ...]:
    """Cut a word into maximal increasing runs."""
    blocks: list[Block] = []
    start = 0
    for i in range(1, len(word)):
        if word[i - 1] > word[i]:
            blocks.append(tuple(word[start:i]))
            start = i
    blocks.append(tuple(word[start:]))
    return tuple(blocks)


def face_from_perm(p: Permutation) -> BarredFace:
    """The minimal shelling face of a permutation: bars at its descents.

    >>> face_from_perm(Permutation.from_core((2, 1)))
    BarredFace(2, 02|13)
    """
    return BarredFace(p.n, blocks_of_word(p.word))


def face_from_chain(n: int, chain: Sequence[int]) -> BarredFace:
    """Rebuild the face whose subset chain (bitmasks, as from .chain()) is given.

    Raises ValueError if the masks are not a strictly increasing chain of
    proper non-empty subsets of {1..n}, or if some bar is not a descent.

    >>> f = face_from_perm(Permutation.from_core((2, 1, 3)))
    >>> face_from_chain(3, f.chain()) == f
    True
    >>> face_from_chain(2, ())
    BarredFace(2, 0123)
    """
    full = (1 << (n + 1)) - 2  # bits 1..n
    blocks = []
    prev = 0
    for mask in tuple(chain) + (full,):
        if mask & ~full or mask & prev != prev or mask == prev:
            raise ValueError("not a strictly increasing chain of proper subsets")
        diff = mask & ~prev
        blocks.append(tuple(v for v in range(1, n + 1) if diff >> v & 1))
        prev = mask
    blocks[0] = (0,) + blocks[0]
    blocks[-1] = blocks[-1] + (n + 1,)
    return BarredFace(n, tuple(blocks))


def perm_from_face(f: BarredFace) -> Permutation:
    """Concatenate the blocks back into the underlying permutation.

    >>> perm_from_face(BarredFace(2, ((0, 2), (1, 3))))
    Permutation(21)
    """
    return Permutation(f.word)


def complement(p: Permutation) -> Permutation:
    """Reverse the value order of the core letters: a_i -> n+1-a_i.

    Exchanges ascents and descents at ranks 2..n, so the face dimension maps
    to n-3-dim.

    >>> complement(Permutation.from_core((2, 1, 3)))
    Permutation(231)
    """
    n = p.n
    return Permutation.from_core(tuple(n + 1 - x for x in p.core))


def decreasing_runs(p: Permutation) -> tuple[Block, ...]:
    """Maximal decreasing runs of the sentinel word; bars at the ascents.

    The sentinels always stand alone since 0 precedes and n+1 follows larger
    resp. smaller letters.

    >>> decreasing_runs(Permutation.from_core((3, 2, 1)))
    ((0,), (3, 2, 1), (4,))
    >>> decreasing_runs(Permutation.from_core((1, 2, 3)))
    ((0,), (1,), (2,), (3,), (4,))
    """
    negated = blocks_of_word([-v for v in p.word])  # ascents become descents
    return tuple(tuple(-v for v in run) for run in negated)


def inversions_between(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of pairs x in a, y in b with x > y, for sorted blocks a, b.

    >>> inversions_between((0, 1, 3), (2, 6))
    1
    >>> inversions_between((5,), (4, 7))
    1
    >>> inversions_between((2, 3), (1, 4))
    2
    """
    return sum(len(a) - bisect_right(a, y) for y in b)


def s_count(f: BarredFace, block_index: int) -> int:
    """Size of the maximal run of 2-blocks immediately above a block whose
    only inversions against the block and each other are the separating
    descents.

    >>> f = BarredFace(9, ((0, 1, 2, 3, 6), (5, 8), (7, 9), (4, 10)))
    >>> s_count(f, 0)
    2
    >>> s_count(f, 1)
    1
    """
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


class MatchableType(enum.Enum):
    ONE_SPLIT = "one-split"
    ONE_MERGED = "one-merged"
    TWO_MERGED = "two-merged"
    TWO_SPLIT = "two-split"


def _one_merged_shape(below: Block | None, block: Block) -> bool:
    """The one-merged test: even size >= 4 and the largest letter below the
    block beats its two smallest letters."""
    if below is None or len(block) < 4 or len(block) % 2:
        return False
    return below[-1] > block[0] and below[-1] > block[1]


def classify_interval(f: BarredFace, block_index: int) -> MatchableType | None:
    """Match type of one block, or None.  Clauses are checked in the order
    one-split, one-merged, two-merged, two-split; they are mutually exclusive
    but the order keeps the rule mechanical.

    >>> classify_interval(BarredFace(3, ((0, 1, 3), (2, 4))), 0)
    <MatchableType.TWO_SPLIT: 'two-split'>
    >>> classify_interval(BarredFace(3, ((0, 2), (1, 3, 4))), 0) is None
    True
    """
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


@dataclass(frozen=True, slots=True)
class IntervalDiagnosis:
    """Lowest matchable block of a face: index, rank of its lower bar, and
    the match type."""

    block_index: int
    start_rank: int
    kind: MatchableType


def lowest_matchable(f: BarredFace) -> IntervalDiagnosis | None:
    """First matchable block from the bottom, or None for a critical face.

    >>> lowest_matchable(BarredFace(3, ((0, 2), (1, 3, 4)))) is None
    True
    >>> lowest_matchable(BarredFace(3, ((0, 1, 2, 3, 4),)))
    IntervalDiagnosis(block_index=0, start_rank=1, kind=<MatchableType.TWO_MERGED: 'two-merged'>)
    """
    for i in range(len(f.blocks)):
        kind = classify_interval(f, i)
        if kind is not None:
            return IntervalDiagnosis(i, f.start_rank(i), kind)
    return None
