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

The cover relation (erase one bar) is computed once per face table, by one
``covers_down`` call per face, and kept as ``FaceTable.cover_incidence``:
per face id, the ids of the faces it covers, in bar order.  Both Morse
digraphs, the free-face flags and the signed boundary matrices all read it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .perms import BarredFace, Permutation, blocks_of_word, face_from_perm

ENUM_CEILING = 9  # largest n enumerated without an explicit override


class BudgetExceededError(Exception):
    """Raised when a computation would exceed its configured size ceiling."""


def _check_budget(n: int, max_n: int | None, what: str) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if max_n is not None and n > max_n:
        raise BudgetExceededError(
            f"{what} for n={n} exceeds the ceiling max_n={max_n}; "
            "pass a larger max_n (or max_n=None) to override"
        )


@dataclass(frozen=True, slots=True)
class CoverEdge:
    """A codimension-1 containment: erasing bar bar_index of upper gives lower."""

    upper: int
    lower: int
    bar_index: int


@dataclass
class FaceTable:
    """All faces for one n, ids in lexicographic order of the permutation."""

    n: int
    faces: list[BarredFace]
    id_of_core: dict[tuple[int, ...], int]
    _covers: list[list[int]] | None = field(default=None, repr=False)
    _has_parent: list[bool] | None = field(default=None, repr=False)
    _ids_by_dim: dict[int, list[int]] | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.faces)

    def id_of_face(self, f: BarredFace) -> int:
        return self.id_of_core[f.word[1:-1]]

    def cover_incidence(self) -> list[list[int]]:
        """Per face id, the ids of the faces it covers, in bar order.

        Erasing bar i carries the boundary sign (-1)^i.  Built on first use
        with one ``covers_down`` call per face.

        >>> enumerate_faces(3).cover_incidence()
        [[], [0], [0], [0], [0], [3, 4]]
        """
        if self._covers is None:
            self._covers = [[e.lower for e in covers_down(self, f)] for f in self.faces]
        return self._covers

    def ids_by_dim(self) -> dict[int, list[int]]:
        if self._ids_by_dim is None:
            out: dict[int, list[int]] = {d: [] for d in range(-1, self.n - 1)}
            for i, f in enumerate(self.faces):
                out[f.dim].append(i)
            self._ids_by_dim = out
        return self._ids_by_dim

    def has_parent(self, face_id: int) -> bool:
        """Whether some face of the table properly contains this one."""
        if self._has_parent is None:
            flags = [False] * len(self.faces)
            for lowers in self.cover_incidence():
                for g in lowers:
                    flags[g] = True
            self._has_parent = flags
        return self._has_parent[face_id]


def enumerate_faces(n: int, max_n: int | None = ENUM_CEILING) -> FaceTable:
    """Build the face table for n; one face per permutation.

    >>> t = enumerate_faces(3)
    >>> len(t), [f.dim for f in t.faces]
    (6, [-1, 0, 0, 0, 0, 1])
    """
    _check_budget(n, max_n, "face enumeration")
    faces: list[BarredFace] = []
    id_of_core: dict[tuple[int, ...], int] = {}
    sentinel = (n + 1,)
    for core in itertools.permutations(range(1, n + 1)):
        word = (0,) + core + sentinel
        id_of_core[core] = len(faces)
        faces.append(BarredFace(n, blocks_of_word(word)))
    return FaceTable(n, faces, id_of_core)


def covers_down(table: FaceTable, f: BarredFace) -> list[CoverEdge]:
    """All faces covered by f: one bar erased each.

    Erasing a bar sorts the two runs of the word it separates into one; the
    sorted word is looked up in the table.  Raises ValueError unless the face
    found there has exactly one block fewer than f.

    >>> t = enumerate_faces(3)
    >>> [(e.lower, e.bar_index) for e in covers_down(t, t.faces[5])]
    [(3, 0), (4, 1)]
    """
    core = f.word[1:-1]
    ids, faces = table.id_of_core, table.faces
    fid = ids[core]
    bars = len(f.blocks) - 1  # also the block count of every face below
    # ends[i]: word position just past block i, so core position just past
    # block i is ends[i] - 1 (slicing clamps the last block's end)
    ends = list(itertools.accumulate(map(len, f.blocks)))
    edges = []
    for bar in range(bars):
        lo = ends[bar - 1] - 1 if bar else 0
        hi = ends[bar + 1] - 1
        lower = ids[core[:lo] + tuple(sorted(core[lo:hi])) + core[hi:]]
        if len(faces[lower].blocks) != bars:
            raise ValueError(
                f"erasing bar {bar} of {f!r} gives {faces[lower]!r}, "
                "not a face with one block fewer"
            )
        edges.append(CoverEdge(fid, lower, bar))
    return edges


def is_free_face(table: FaceTable, f: BarredFace) -> bool:
    """True iff no face of the table properly contains f.

    Containment of barred faces is containment of their chains; the complex
    is closed under erasing chain elements, so maximality is equivalent to
    having no cover.

    >>> t = enumerate_faces(3)
    >>> is_free_face(t, face_from_perm(Permutation.from_core((1, 3, 2))))
    True
    >>> is_free_face(t, face_from_perm(Permutation.from_core((1, 2, 3))))
    False
    """
    return not table.has_parent(table.id_of_face(f))


def f_vector(table: FaceTable) -> tuple[int, ...]:
    """Face counts by dimension, starting at the empty face (dim -1).

    >>> f_vector(enumerate_faces(3))
    (1, 4, 1)
    """
    counts = [0] * table.n
    for f in table.faces:
        counts[f.dim + 1] += 1
    return tuple(counts)


def euler_characteristic(table: FaceTable) -> int:
    """Reduced Euler characteristic: alternating sum over all faces,
    the empty face contributing -1.

    >>> euler_characteristic(enumerate_faces(3))
    2
    """
    return sum(-1 if f.dim % 2 else 1 for f in table.faces)


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
        face = BarredFace(n, blocks_of_word((0,) + core + (n + 1,)))
        expected = face.chain()
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
