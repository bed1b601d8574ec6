"""The descent complex of the truncated Boolean lattice.

Faces are the barred faces of permutations of {1..n}: the chain of prefix
sets supported at the descent ranks.  There is one face per permutation, the
face of dimension d corresponds to a permutation with d+1 descents, and the
family is closed under erasing chain elements, so it forms a simplicial
complex (with the identity contributing the empty face).

``enumerate_faces`` builds the whole complex; ``lex_shelling_check``
recomputes, definitionally, the minimal new face of every facet of the order
complex of the lattice under the lexicographic shelling and confirms it is
the descent chain.

The table is flat.  ``words`` lists each face's sentinel word, as ``bytes``
(0, a_1..a_n, n+1), in lex order, so a face's id is its word's lex rank and
``id_of_word`` finds it by bisection; ``bars`` holds each face's bar count
(dim + 1) in one ``bytes``.  The cover relation (erase one bar) is kept as
two ``array('i')``: N + 1 offsets, the running sums of ``bars`` as face i
covers ``bars[i]`` faces, and the ids of the faces each face covers, one
``covers_down`` call per face, in bar order.  ``lowers(fid)`` is one face's
slice.  No ``BarredFace`` is stored: ``face(i)`` builds one around its
stored word when it is read, so ``face(i).word is words[i]``.  The Morse
digraphs, the free-face test and the boundaries read the incidence, and
the Smith forms read nothing else, so ``release_words`` lets a table go of
its words before them.
"""

from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import gt

from .perms import BarredFace, check_n, erase_bar, face_from_perm, run_cuts

ENUM_CEILING = 9  # largest n enumerated without an explicit override


class BudgetExceededError(Exception):
    """Raised when a computation would exceed its configured size ceiling."""


def _check_budget(n: int, max_n: int | None, what: str) -> None:
    check_n(n)
    if max_n is not None and n > max_n:
        raise BudgetExceededError(
            f"{what} for n={n} exceeds the ceiling max_n={max_n}; "
            "pass a larger max_n (or max_n=None) to override"
        )


@dataclass
class FaceTable:
    """All faces for one n, ids in lexicographic order of the permutation.

    ``words[i]`` is face i's sentinel word as bytes, strictly increasing in
    i, and ``bars[i]`` its bar count, dim + 1.  ``face(i)`` builds face i
    from its word when it is read.

    >>> t = enumerate_faces(3)
    >>> t.words[5], t.id_of_word(t.words[5]), t.bars[5], t.lowers(5), t.face(5)
    (b'\\x00\\x03\\x02\\x01\\x04', 5, 2, array('i', [3, 4]), BarredFace(3, 03|2|14))
    """

    n: int
    words: list[bytes] | None
    bars: bytes
    _incidence: tuple[array, array] | None = field(default=None, repr=False)
    _partners: array | None = field(default=None, repr=False)
    _ids_by_dim: dict[int, array] | None = field(default=None, repr=False)
    _invariants: dict[int, tuple[int, ...]] = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.bars)

    def _words(self) -> list[bytes]:
        if self.words is None:
            raise ValueError(f"the words of the face table for n={self.n} were released")
        return self.words

    def release_words(self) -> None:
        """Let go of ``words`` and of the partner ids memoized off them, which
        the Smith forms never read.  ``len``, ``bars``, ``f_vector``, an
        incidence built before, ``ids_by_dim``, the boundaries and the factor
        memo still work; every reader of a word raises ValueError."""
        self.words = None
        self._partners = None

    def face(self, i: int) -> BarredFace:
        """Face i, built around its stored word by ``BarredFace.from_word``,
        so a corrupted word raises ValueError when its face is read."""
        return BarredFace.from_word(self.n, self._words()[i])

    def id_of_word(self, word: bytes) -> int:
        """The id of the face of ``word``, its lex rank, by bisection: KeyError
        unless ``words`` lists it, AssertionError if bisection misses it there."""
        words = self._words()
        i = bisect_left(words, word)
        if i < len(words) and words[i] == word:
            return i
        if word in words:
            raise AssertionError(f"words out of lex order: bisection misses face {words.index(word)}")
        raise KeyError(word)

    def id_of_face(self, f: BarredFace) -> int:
        """The id of f; raises ValueError unless f is a face of this table."""
        if f.n == self.n:
            try:
                return self.id_of_word(f.word)
            except KeyError:
                pass
        raise ValueError(f"{f!r} is not a face of the table for n={self.n}")

    def cover_incidence(self) -> tuple[array, array]:
        """(offsets, lowers): face i covers ``lowers[offsets[i]:offsets[i + 1]]``.

        Erasing bar k carries the boundary sign (-1)^k.  Built on first use,
        in process: the offsets are the running sums of ``bars``, the lowers
        one ``covers_down`` call per face (which checks each cover count).

        >>> enumerate_faces(3).cover_incidence()
        (array('i', [0, 0, 1, 2, 3, 4, 6]), array('i', [0, 0, 0, 0, 3, 4]))
        """
        if self._incidence is None:
            offsets = array("i", itertools.accumulate(self.bars, initial=0))
            lowers = array("i")
            for fid in range(len(self)):
                lowers.extend(covers_down(self, fid))
            self._incidence = offsets, lowers
        return self._incidence

    def lowers(self, fid: int) -> array:
        """The ids of the faces face fid covers, in bar order."""
        offsets, lowers = self.cover_incidence()
        return lowers[offsets[fid]:offsets[fid + 1]]

    def ids_by_dim(self) -> dict[int, array]:
        """Face ids by dimension, one ``array('i')`` each, read off ``bars``."""
        if self._ids_by_dim is None:
            out = {d: array("i") for d in range(-1, self.n - 1)}
            for i, b in enumerate(self.bars):
                out[b - 1].append(i)
            self._ids_by_dim = out
        return self._ids_by_dim


def enumerate_faces(n: int, max_n: int | None = ENUM_CEILING) -> FaceTable:
    """Build the face table for n; one face per permutation.

    >>> t = enumerate_faces(3)
    >>> len(t), [f.dim for f in map(t.face, range(len(t)))]
    (6, [-1, 0, 0, 0, 0, 1])
    """
    _check_budget(n, max_n, "face enumeration")
    head, tail = b"\0", bytes([n + 1])
    words = [head + bytes(core) + tail for core in itertools.permutations(range(1, n + 1))]
    bars = bytes(sum(map(gt, w, w[1:])) for w in words)
    return FaceTable(n, words, bars)


def covers_down(table: FaceTable, fid: int) -> tuple[int, ...]:
    """The ids of the faces covered by face ``fid``, in bar order: entry i
    erases bar i.

    Erasing a bar of ``table.words[fid]`` (``perms.erase_bar``) sorts a
    segment, so the word it gives is found by bisection below ``fid``.
    Raises AssertionError, naming the face, unless each word found is a face
    with one bar fewer in ``bars`` (one block fewer) than this face has
    there, and this face covers as many faces as its bar count.

    >>> covers_down(enumerate_faces(3), 5)
    (3, 4)
    """
    words, bars = table._words(), table.bars
    word, below = words[fid], bars[fid] - 1
    cuts = run_cuts(word)
    lowers = []
    for bar in range(len(cuts) - 2):
        erased = erase_bar(word, cuts, bar)
        lower = bisect_left(words, erased, 0, fid)
        if words[lower] != erased:  # words out of lex order, or none of them
            if erased not in words:
                raise AssertionError(f"face {fid}: erasing bar {bar} gives no face of the table")
            lower = table.id_of_word(erased)
        if bars[lower] != below:
            raise AssertionError(
                f"erasing bar {bar} of face {fid} ({below + 1} bars) gives face {lower} "
                f"with {bars[lower]} bars, not a face with one block fewer"
            )
        lowers.append(lower)
    if len(lowers) != below + 1:
        raise AssertionError(
            f"face {fid} covers {len(lowers)} faces, but bars[{fid}] is {bars[fid]}"
        )
    return tuple(lowers)


def is_free_face(table: FaceTable, f: BarredFace) -> bool:
    """True iff no face of the table properly contains f.

    Containment of barred faces is containment of their chains; the complex
    is closed under erasing chain elements, so maximality is equivalent to
    having no cover.  Raises ValueError unless f is a face of the table.

    >>> t = enumerate_faces(3)
    >>> is_free_face(t, face_from_perm((1, 3, 2)))
    True
    >>> is_free_face(t, face_from_perm((1, 2, 3)))
    False
    """
    return table.id_of_face(f) not in table.cover_incidence()[1]


def f_vector(table: FaceTable) -> tuple[int, ...]:
    """Face counts by dimension, starting at the empty face (dim -1).

    >>> f_vector(enumerate_faces(3))
    (1, 4, 1)
    """
    return tuple(map(table.bars.count, range(table.n)))


def euler_characteristic(table: FaceTable) -> int:
    """Reduced Euler characteristic: alternating sum over all faces,
    the empty face contributing -1.

    >>> euler_characteristic(enumerate_faces(3))
    2
    """
    return sum(1 if b % 2 else -1 for b in table.bars)


@lru_cache(maxsize=None)
def eulerian_row(n: int) -> tuple[int, ...]:
    """Eulerian numbers A(n, 0..n-1): permutations of n by descent count.

    >>> eulerian_row(4)
    (1, 11, 11, 1)
    """
    if n == 1:
        return (1,)
    prev = eulerian_row(n - 1)
    row = []
    for k in range(n):
        left = (k + 1) * prev[k] if k < len(prev) else 0
        right = (n - k) * prev[k - 1] if 0 < k else 0
        row.append(left + right)
    return tuple(row)


def alternating_eulerian(n: int) -> int:
    """The reduced Euler characteristic predicted by the f-vector: the face
    of a permutation with d descents has dimension d-1.

    >>> [alternating_eulerian(n) for n in range(1, 8)]
    [-1, 0, 2, 0, -16, 0, 272]
    """
    return sum(a if k % 2 else -a for k, a in enumerate(eulerian_row(n)))


@lru_cache(maxsize=None)
def _tanh_series(order: int) -> tuple[Fraction, ...]:
    """Taylor coefficients of tanh x through x^order, by series division."""
    fact = [1] * (order + 1)
    for i in range(1, order + 1):
        fact[i] = fact[i - 1] * i
    sinh = [Fraction(1, fact[k]) if k % 2 else Fraction(0) for k in range(order + 1)]
    cosh = [Fraction(1, fact[k]) if k % 2 == 0 else Fraction(0) for k in range(order + 1)]
    tanh: list[Fraction] = []
    for k in range(order + 1):
        tanh.append(sinh[k] - sum(tanh[j] * cosh[k - j] for j in range(k)))
    return tuple(tanh)


def tanh_euler_characteristic(n: int) -> int:
    """n! times the x^n coefficient of -tanh x; always an integer.

    >>> [tanh_euler_characteristic(n) for n in range(1, 8)]
    [-1, 0, 2, 0, -16, 0, 272]
    """
    value = -_tanh_series(n)[n] * math.factorial(n)
    if value.denominator != 1:
        raise AssertionError(f"n! [x^n](-tanh x) = {value} is not an integer")
    return int(value)


@dataclass(frozen=True)
class ShellingReport:
    """Outcome of the definitional minimal-new-face scan."""

    n: int
    ok: bool
    facet_count: int
    dim_histogram: tuple[int, ...]
    closed_under_subchains: bool
    failures: tuple[str, ...] = ()


def lex_shelling_check(n: int, max_n: int | None = 8) -> ShellingReport:
    """Walk the facets of the order complex of proper non-empty subsets of
    {1..n} in lexicographic order and recompute each facet's minimal new face
    by scanning subchains against everything seen so far.  Confirms the new
    face is unique, equals the descent chain of the facet, and that the
    family of minimal faces is closed under subchains.

    >>> r = lex_shelling_check(4)
    >>> r.ok, r.facet_count, r.dim_histogram
    (True, 24, (1, 11, 11, 1))
    """
    _check_budget(n, max_n, "shelling scan")
    seen: set[tuple[int, ...]] = set()
    minimal: set[tuple[int, ...]] = set()
    histogram = [0] * n
    failures: list[str] = []
    for core in itertools.permutations(range(1, n + 1)):
        masks = []
        acc = 0
        for x in core[:-1]:
            acc |= 1 << x
            masks.append(acc)
        subchains = [
            combo
            for r in range(len(masks) + 1)
            for combo in itertools.combinations(masks, r)
        ]
        new = [c for c in subchains if c not in seen]
        # the old subchains are closed under deletion, so a new subchain is
        # minimal iff each of its one-shorter subchains is old
        minimal_new = [
            c
            for c in new
            if all(c[:i] + c[i + 1:] in seen for i in range(len(c)))
        ]
        expected = face_from_perm(core).chain()
        if len(minimal_new) != 1:
            failures.append(f"{core}: {len(minimal_new)} minimal new faces")
        elif minimal_new[0] != expected:
            failures.append(f"{core}: minimal new face {minimal_new[0]} != descent chain {expected}")
        if minimal_new:
            histogram[len(minimal_new[0])] += 1
            minimal.add(minimal_new[0])
        seen.update(new)
    closed = all(
        c[:i] + c[i + 1:] in minimal for c in minimal for i in range(len(c))
    )
    if not closed:
        failures.append("minimal faces are not closed under subchains")
    return ShellingReport(
        n=n,
        ok=not failures,
        facet_count=math.factorial(n),
        dim_histogram=tuple(histogram),
        closed_under_subchains=closed,
        failures=tuple(failures),
    )
