"""Boundary matrices, exact reduced homology, and the non-vanishing window.

The boundary of a face [U_1 < .. < U_j] is the alternating sum over deleted
chain elements, sum_i (-1)^(i-1) [.. U_{i-1} < U_{i+1} ..].  Deleting from a
chain keeps every bar a descent, so the terms stay in the complex.  With the
empty face kept as the unique (-1)-dimensional face, the same formula sends
every vertex to +[empty], which builds the augmentation in: all Betti numbers
computed here are reduced.

Reduced homology is read off the Smith normal form of the boundary matrices,

    betti~_d = f_d - rank d_d - rank d_{d+1},
    torsion of H~_d = invariant factors > 1 of d_{d+1},

exactly over Z.  ``invariant_factors`` eliminates each boundary once per
face table, and every coefficient ring reads the same tuple by the universal
coefficient theorem: rank_Q counts the factors and rank_p those p does not
divide, so H~_d has p-torsion exactly when rank_p d_{d+1} < rank_Q d_{d+1}.
It works top down from d = n-2, one row per d-face holding its boundary, and
clears: the unit pivots of d_{d+1} span a unimodular block, so as d_d d_{d+1}
is 0 the rows of d_d at those d-faces are integer combinations of the others,
and dropping them keeps the invariant factors.  Only unit pivots clear.

>>> t = enumerate_faces(3)
>>> betti_table(t).betti
{-1: 0, 0: 2, 1: 0}
>>> betti_table(t).nonzero_dims() == expected_nonzero_dims(3)
True
"""

from __future__ import annotations

from dataclasses import field
from typing import Collection, Mapping

from .complexes import FaceTable, enumerate_faces, f_vector
from .perms import BarredFace, erase_bar, frozen_slots, run_cuts
from .snf import Rows, rank_mod_p, rank_q, smith_normal_form

COEFFICIENTS = ("Z", "Q", "F2", "F3", "F5")
_FIELD_CHAR = {"F2": 2, "F3": 3, "F5": 5}


@frozen_slots
class BoundaryMatrix:
    """The matrix of d_dim, rows indexed by (dim-1)-faces, columns by dim-faces.

    Row and column indices are positions within the per-dimension id lists of
    the face table, not global face ids.  It is stored by column: ``cols``
    holds each dim-face's boundary.
    """

    n: int
    dim: int
    n_rows: int
    n_cols: int
    cols: Rows

    @property
    def nnz(self) -> int:
        return sum(map(len, self.cols.values()))


def boundary_matrix(table: FaceTable, dim: int, skip: Collection[int] = ()) -> BoundaryMatrix:
    """Assemble d_dim for the face table, leaving the columns in ``skip`` empty.

    >>> bm = boundary_matrix(enumerate_faces(3), 0)
    >>> bm.n_rows, bm.n_cols, bm.nnz  # every vertex maps to +[empty]
    (1, 4, 4)
    """
    by_dim = table.ids_by_dim()
    offsets, lowers = table.cover_incidence()
    col_ids, row_ids = by_dim.get(dim, []), by_dim.get(dim - 1, [])
    row_pos = {g: k for k, g in enumerate(row_ids)}.__getitem__
    signs = (1, -1) * table.n  # erasing bar i deletes chain element i: (-1)^i
    cols: Rows = {
        c: dict(zip(map(row_pos, lowers[offsets[g]:offsets[g + 1]]), signs))
        for c, g in enumerate(col_ids) if c not in skip
    }
    return BoundaryMatrix(table.n, dim, len(row_ids), len(col_ids), cols)


def invariant_factors(table: FaceTable, dim: int) -> tuple[int, ...]:
    """Non-zero invariant factors of d_dim, one Smith form per face table.

    The first call computes every dimension, top down with clearing (see
    the module docstring), and memoizes the factors on the table.

    >>> t = enumerate_faces(4)
    >>> invariant_factors(t, 1)  # rank 8 over every ring, no torsion
    (1, 1, 1, 1, 1, 1, 1, 1)
    >>> invariant_factors(t, 1) is invariant_factors(t, 1)  # memoized
    True
    """
    memo = table._invariants
    if not memo:
        cleared: set[int] = set()
        for d in range(table.n - 2, -1, -1):
            pivots: list[int] = []
            memo[d] = smith_normal_form(boundary_matrix(table, d, cleared).cols, pivots)
            cleared = set(pivots)
    return memo.get(dim, ())


@frozen_slots
class BettiTable:
    n: int
    coefficients: str
    betti: dict[int, int]
    torsion: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def nonzero_dims(self) -> set[int]:
        return {d for d, b in self.betti.items() if b} | set(self.torsion)


def betti_table(table: FaceTable, coefficients: str = "Z") -> BettiTable:
    """Reduced Betti numbers in every dimension, plus torsion over Z.

    >>> betti_table(enumerate_faces(4)).betti
    {-1: 0, 0: 2, 1: 2, 2: 0}
    >>> betti_table(enumerate_faces(4), "F3").betti
    {-1: 0, 0: 2, 1: 2, 2: 0}
    """
    if coefficients not in COEFFICIENTS:
        raise ValueError(f"coefficients must be one of {COEFFICIENTS}")
    n = table.n
    f = f_vector(table)  # f[d + 1] faces of dimension d
    ranks: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    p = _FIELD_CHAR.get(coefficients)
    for d in range(0, n - 1):
        invariants = invariant_factors(table, d)
        if coefficients == "Z":
            ranks[d] = len(invariants)
            bad = tuple(v for v in invariants if v > 1)
            if bad:
                torsion[d - 1] = bad
        elif coefficients == "Q":
            ranks[d] = rank_q(invariants)
        else:
            ranks[d] = rank_mod_p(invariants, p)
    betti = {
        d: f[d + 1] - ranks.get(d, 0) - ranks.get(d + 1, 0) for d in range(-1, n - 1)
    }
    if any(b < 0 for b in betti.values()):
        raise AssertionError(f"negative Betti number for n={n}: {betti}")
    return BettiTable(n, coefficients, betti, torsion)


def expected_nonzero_dims(n: int) -> set[int]:
    """Dimensions where homology is conjectured non-zero: the middle third.

    (n-4)/3 <= i <= (2n-5)/3, as a set of integers.

    >>> [sorted(expected_nonzero_dims(n)) for n in range(1, 9)]
    [[-1], [], [0], [0, 1], [1], [1, 2], [1, 2, 3], [2, 3]]
    """
    lo = -((4 - n) // 3)  # ceil((n-4)/3)
    hi = (2 * n - 5) // 3
    return set(range(lo, hi + 1))


def nonzero_dims_via_ranks(
    table: FaceTable, primes: tuple[int, ...] = (2, 3, 5)
) -> set[int]:
    """Non-trivial dimensions from rational plus mod-p ranks.

    Free parts come from rational Betti numbers; p-torsion in H~_d shows up
    as a rank drop of d_{d+1} from Q to F_p.  Detection covers the listed
    primes, which is what the larger cases are checked with.  All the ranks
    are counts over the shared ``invariant_factors``, so this adds no
    elimination to a ``betti_table`` call on the same table.

    >>> sorted(nonzero_dims_via_ranks(enumerate_faces(5)))
    [1]
    """
    n = table.n
    f = f_vector(table)  # f[d + 1] faces of dimension d
    rq: dict[int, int] = {}
    rp: dict[int, dict[int, int]] = {p: {} for p in primes}
    for d in range(0, n - 1):
        invariants = invariant_factors(table, d)
        rq[d] = rank_q(invariants)
        for p in primes:
            rp[p][d] = rank_mod_p(invariants, p)
    out = set()
    for d in range(-1, n - 1):
        free = f[d + 1] - rq.get(d, 0) - rq.get(d + 1, 0)
        drop = any(rp[p].get(d + 1, 0) < rq.get(d + 1, 0) for p in primes)
        if free or drop:
            out.add(d)
    return out


def check_betti_symmetry(bt: BettiTable) -> bool:
    """Whether betti~_i = betti~_{n-3-i} across the whole range.

    >>> check_betti_symmetry(betti_table(enumerate_faces(4)))
    True
    """
    n = bt.n
    return all(
        bt.betti.get(i, 0) == bt.betti.get(n - 3 - i, 0) for i in range(-1, n - 1)
    )


@frozen_slots
class SignedChain:
    """An integer chain: faces of one dimension with non-zero coefficients."""

    n: int
    dim: int
    coeffs: Mapping[BarredFace, int]

    def __post_init__(self) -> None:
        for face, c in self.coeffs.items():
            if face.n != self.n or face.dim != self.dim:
                raise ValueError(f"term {face!r} does not live in dimension {self.dim}")
            if not c:
                raise ValueError("coefficients must be non-zero")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __len__(self) -> int:
        return len(self.coeffs)


def boundary_of_chain(chain: SignedChain) -> SignedChain:
    """The boundary, computed term by term without a face table.

    Erasing bar i of a face is ``perms.erase_bar``, as in ``covers_down``
    on the table, with sign (-1)^i.  Terms are summed by their ``bytes``
    words, and only those with a non-zero coefficient become faces, each
    around its summed word.

    >>> from .perms import face_from_perm
    >>> f = face_from_perm((2, 1, 3))
    >>> sorted(repr(g) for g in boundary_of_chain(SignedChain(3, 0, {f: 1})).coeffs)
    ['BarredFace(3, 01234)']
    """
    acc: dict[bytes, int] = {}
    for face, c in chain.coeffs.items():
        word = face.word
        cuts = run_cuts(word)
        for i in range(len(cuts) - 2):
            key = erase_bar(word, cuts, i)
            acc[key] = acc.get(key, 0) + (c if i % 2 == 0 else -c)
    n = chain.n
    return SignedChain(n, chain.dim - 1, {BarredFace.from_word(n, w): v for w, v in acc.items() if v})
