"""Sentinel permutations and their barred-block faces.

A permutation a_1 .. a_n of {1..n} is carried as the word 0, a_1, .., a_n,
n+1.  The slot between word positions i and i+1 is called rank i+1; because of
the sentinels, descents (a letter larger than its successor) can occur only at
ranks 2..n.  A barred face is its sentinel word (a permutation of 0..n+1 with
0 first and n+1 last): its blocks are the word's maximal increasing runs, so
every bar is a descent.  ``BarredFace`` stores the word, and derives the
blocks from it.  A face with b blocks has dimension b - 2, so the identity
word (one block) is the empty face.  There is no separate permutation type:
``face_from_perm`` takes the one-line notation a_1 .. a_n, ``bar_ranks``
gives the descents and ``complement_word`` the complement.

A word is ``bytes``, one letter per byte, the same object the face table
keys its ids by; so n is at most ``MAX_N``.  Two helpers hold the rules on
words: ``run_cuts`` finds the runs, and ``erase_bar`` sorts the two runs a
bar separates into one, which gives a face the face it covers.
``diagnose_word`` finds the lowest matchable block in one pass over the run
cuts and names the adjacent swap that gives the matched face.

>>> f = face_from_perm((1, 3, 2, 6, 5, 4))
>>> list(f.word)
[0, 1, 3, 2, 6, 5, 4, 7]
>>> f.bar_ranks()
(3, 5, 6)
>>> f.blocks
((0, 1, 3), (2, 6), (5,), (4, 7))
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from operator import gt
from typing import Sequence

Block = tuple[int, ...]
MAX_N = 254  # the letters 0..n+1 of a word fit in one byte each


@lru_cache(maxsize=None)
def _letters(n: int) -> frozenset[int]:
    return frozenset(range(n + 2))


def check_n(n: int) -> None:
    """Raise ValueError unless 1 <= n <= MAX_N."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be between 1 and {MAX_N} (one byte per letter), got {n}")


def _check_sentinel_word(word: bytes, n: int) -> None:
    """Raise ValueError unless 1 <= n <= MAX_N and word permutes 0..n+1 with
    0 first, n+1 last."""
    check_n(n)
    if len(word) != n + 2 or _letters(n) != set(word):
        raise ValueError(f"not a permutation of 0..{n + 1}: {list(word)}")
    if not word or word[0] != 0 or word[-1] != n + 1:
        raise ValueError(f"sentinels must be 0 and {n + 1}: {list(word)}")


def frozen_slots(cls: type) -> type:
    """``dataclass(frozen=True, slots=True)``, but every set or delete raises
    FrozenInstanceError (alone, it raises TypeError for a non-field name)."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


def _refuse(self: object, name: str, *_: object) -> None:
    raise FrozenInstanceError(f"cannot set or delete {name!r}: {type(self).__name__} is frozen")


@frozen_slots
class BarredFace:
    """A face of the descent complex, stored as its sentinel word.

    The blocks are derived: the maximal increasing runs of the word, with a
    bar at every descent.  ``BarredFace(n, blocks)`` accepts exactly the
    blocks whose concatenation is a sentinel word of length n + 2 and for
    which ``blocks_of_word(word) == blocks``; anything else, including list
    blocks, raises ValueError.  ``BarredFace.from_word`` takes the word
    itself, as ``bytes``.  Faces are equal when their n and words are.  The
    face of 1324 (word 0 1 3 2 4 5):

    >>> f = BarredFace(4, ((0, 1, 3), (2, 4, 5)))
    >>> f.dim, f.word
    (0, b'\\x00\\x01\\x03\\x02\\x04\\x05')
    >>> f == BarredFace.from_word(4, bytes((0, 1, 3, 2, 4, 5)))
    True
    """

    n: int
    word: bytes
    dim: int  # number of bars minus one, read off the word

    def __init__(self, n: int, blocks: tuple[Block, ...]) -> None:
        check_n(n)
        word = bytes(itertools.chain.from_iterable(blocks))
        _check_sentinel_word(word, n)
        if blocks_of_word(word) != blocks:
            raise ValueError(f"blocks {blocks!r} != blocks_of_word({list(word)})")
        _init_face(self, n, word, len(blocks) - 2)

    @classmethod
    def from_word(cls, n: int, word: bytes) -> "BarredFace":
        """The face of a sentinel word, which it keeps as given; raises
        ValueError unless word is ``bytes`` permuting 0..n+1 with 0 first and
        n+1 last.

        >>> BarredFace.from_word(1, b"\\0\\1\\2").dim
        -1
        """
        if type(word) is not bytes:
            raise ValueError(f"word must be bytes, not {type(word).__name__}: {word!r}")
        _check_sentinel_word(word, n)
        face = object.__new__(cls)
        _init_face(face, n, word, sum(map(gt, word, word[1:])) - 1)
        return face

    def __reduce__(self):
        return BarredFace.from_word, (self.n, self.word)

    @property
    def blocks(self) -> tuple[Block, ...]:
        return blocks_of_word(self.word)

    def bar_ranks(self) -> tuple[int, ...]:
        """Ranks of the bars, i.e. the word length left of each bar.

        >>> BarredFace(4, ((0, 1, 3), (2, 4, 5))).bar_ranks()
        (3,)
        """
        return tuple(run_cuts(self.word)[1:-1])

    def chain(self) -> tuple[int, ...]:
        """The face as a chain of subsets of {1..n}, one bitmask per bar.

        Bit v is set when the value v lies left of the bar.  The empty face
        gives the empty chain.

        >>> [bin(m) for m in BarredFace(4, ((0, 1, 3), (2, 4, 5))).chain()]
        ['0b1010']
        """
        w = self.word  # w[0] is the sentinel 0, which sets no bit
        return tuple(sum(1 << v for v in w[1:cut]) for cut in run_cuts(w)[1:-1])

    def __repr__(self) -> str:
        if self.n <= 8:  # all letters are single digits
            body = "|".join("".join(map(str, b)) for b in self.blocks)
            return f"BarredFace({self.n}, {body})"
        return f"BarredFace({self.n}, {self.blocks})"


def _init_face(face: BarredFace, n: int, word: bytes, dim: int) -> None:
    object.__setattr__(face, "n", n)
    object.__setattr__(face, "word", word)
    object.__setattr__(face, "dim", dim)


def run_cuts(word: Sequence[int]) -> list[int]:
    """The word positions where its maximal increasing runs start, then its
    length: 0, each descent position, len(word).  Bar i separates the runs
    ``word[cuts[i]:cuts[i + 1]]`` and ``word[cuts[i + 1]:cuts[i + 2]]``.

    >>> run_cuts((0, 1, 3, 2, 6, 5, 4, 7))
    [0, 3, 5, 6, 8]
    """
    return [0, *itertools.compress(range(1, len(word)), map(gt, word, word[1:])), len(word)]


def erase_bar(word: bytes, cuts: list[int], i: int) -> bytes:
    """The word with bar i erased: the two runs it separates sorted into one.

    ``cuts`` is ``run_cuts(word)``.  As the cuts are the word's own
    descents, the letter before the merged run exceeds its least letter and
    the letter after it is below its greatest, so the bars either side stay
    descents: the result has exactly one block fewer.

    >>> erase_bar(b"\\0\\3\\1\\2\\4", [0, 2, 5], 0)
    b'\\x00\\x01\\x02\\x03\\x04'
    """
    lo, hi = cuts[i], cuts[i + 2]
    return word[:lo] + bytes(sorted(word[lo:hi])) + word[hi:]


def blocks_of_word(word: Sequence[int]) -> tuple[Block, ...]:
    """Cut a word into maximal increasing runs."""
    cuts = run_cuts(word)
    return tuple(tuple(word[lo:hi]) for lo, hi in zip(cuts, cuts[1:]))


def core_blocks(word: Sequence[int]) -> tuple[Block, ...]:
    """The blocks of a sentinel word with the sentinels 0 and n+1 left out.
    No block is left empty: 0 < a_1 and a_n < n+1, so neither sentinel
    stands alone in its block.

    >>> core_blocks((0, 1, 3, 2, 6, 5, 4, 7))
    ((1, 3), (2, 6), (5,), (4,))
    """
    top = len(word) - 1
    cuts = run_cuts(word)
    return tuple(tuple(word[max(lo, 1):min(hi, top)]) for lo, hi in zip(cuts, cuts[1:]))


def face_from_perm(core: Sequence[int]) -> BarredFace:
    """The minimal shelling face of a permutation a_1 .. a_n (one-line
    notation): bars at its descents.  Raises ValueError unless core permutes
    1..n, n at most ``MAX_N``.

    >>> face_from_perm((2, 1))
    BarredFace(2, 02|13)
    """
    n = len(core)
    check_n(n)
    return BarredFace.from_word(n, bytes((0, *core, n + 1)))


def face_from_chain(n: int, chain: Sequence[int]) -> BarredFace:
    """Rebuild the face whose subset chain (bitmasks, as from .chain()) is given.

    Raises ValueError if the masks are not a strictly increasing chain of
    proper non-empty subsets of {1..n}, or if some bar is not a descent.

    >>> f = face_from_perm((2, 1, 3))
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


def complement_word(word: bytes) -> bytes:
    """The sentinel word with its core letters a_i -> n+1-a_i.

    Exchanges ascents and descents at ranks 2..n, so the face dimension maps
    to n-3-dim.

    >>> list(complement_word(bytes((0, 2, 1, 3, 4))))
    [0, 2, 3, 1, 4]
    """
    top = len(word) - 1
    return bytes((0, *map(top.__sub__, word[1:-1]), top))


class MatchableType(enum.Enum):
    ONE_SPLIT = "one-split"
    ONE_MERGED = "one-merged"
    TWO_MERGED = "two-merged"
    TWO_SPLIT = "two-split"


def diagnose_word(word: bytes) -> tuple[int, int, MatchableType, int] | None:
    """Lowest matchable block of a sentinel word, or None for a critical face.

    Returns (block index, start rank, match type, p): swapping the letters
    at word positions p and p+1 gives the matched face.  One pass over the
    blocks (maximal increasing runs) from the bottom; with m the block size
    and s the number of 2-blocks above it whose bars are the only
    inversions of that run, the first clause to hold is:

    - one-split: m = 1, and the block above has odd size >= 3 and a second
      letter above this one; p is the block's letter;
    - one-merged: m even >= 4, and the block below ends above the second
      letter; p is the block's first position;
    - two-merged: m >= 4 and s even; p cuts b1..b(m-3) b(m-1) | b(m-2) bm;
    - two-split: m >= 2 and s odd, unless m is even and the block below ends
      above the second letter of the block merged with the one above; p is
      the block's last position.

    >>> diagnose_word(b"\\0\\1\\2\\3\\4")
    (0, 1, <MatchableType.TWO_MERGED: 'two-merged'>, 2)
    >>> diagnose_word(b"\\0\\2\\1\\3\\4") is None
    True
    """
    cuts = run_cuts(word)
    top_block = len(cuts) - 2
    for i in range(top_block + 1):
        start, end = cuts[i], cuts[i + 1]
        m = end - start
        if m == 1:
            if i < top_block:
                above = cuts[i + 2] - end
                if above >= 3 and above % 2 and word[start] < word[end + 1]:
                    return i, start, MatchableType.ONE_SPLIT, start
        else:
            if m >= 4 and not m % 2 and i and word[start - 1] > word[start + 1]:
                return i, start, MatchableType.ONE_MERGED, start
            # s: a 2-block c0 c1 joins when the block before it ends x y with
            # x < c0 and y < c1, and the block before that ends below c0
            s, seen, hi = 0, -1, end
            for top in cuts[i + 2:]:
                c0 = word[hi]
                if top - hi != 2 or word[hi - 2] > c0 or word[hi - 1] > word[hi + 1] or seen > c0:
                    break
                s, seen, hi = s + 1, word[hi - 1], top
            if s % 2 == 0:
                if m >= 4:
                    return i, start or 1, MatchableType.TWO_MERGED, start + m - 3
            elif not (
                i and not m % 2 and word[start - 1] > word[start + 1 if m > 2 else end]
            ):
                return i, start or 1, MatchableType.TWO_SPLIT, end - 1
    return None

