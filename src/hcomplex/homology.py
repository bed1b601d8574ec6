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

either exactly over Z, or (for sizes where full Smith form is too slow) from
ranks over Q and over F_p for a few small primes: H~_d has p-torsion exactly
when rank_p d_{d+1} < rank_Q d_{d+1}.

>>> t = enumerate_faces(3)
>>> betti_table(t).betti
{-1: 0, 0: 2, 1: 0}
>>> check_conjecture(t).ok
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .complexes import FaceTable, enumerate_faces
from .perms import BarredFace, face_from_chain
from .snf import Rows, rank_mod_p, rank_q, smith_normal_form, transpose_rows

COEFFICIENTS = ("Z", "Q", "F2", "F3", "F5")
_FIELD_CHAR = {"F2": 2, "F3": 3, "F5": 5}


@dataclass(frozen=True, slots=True)
class BoundaryMatrix:
    """The matrix of d_dim, rows indexed by (dim-1)-faces, columns by dim-faces.

    Row and column indices are positions within the per-dimension id lists of
    the face table, not global face ids.
    """

    n: int
    dim: int
    n_rows: int
    n_cols: int
    rows: Rows

    @property
    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())


def boundary_matrix(table: FaceTable, dim: int) -> BoundaryMatrix:
    """Assemble d_dim for the face table.

    >>> bm = boundary_matrix(enumerate_faces(3), 0)
    >>> bm.n_rows, bm.n_cols, bm.nnz  # every vertex maps to +[empty]
    (1, 4, 4)
    """
    by_dim = table.ids_by_dim()
    covers = table.cover_incidence()
    col_ids = by_dim.get(dim, [])
    row_pos = {g: k for k, g in enumerate(by_dim.get(dim - 1, []))}
    rows: Rows = {}
    for c, g in enumerate(col_ids):
        # erasing bar i deletes chain element i: sign (-1)^i
        for i, lower in enumerate(covers[g]):
            rows.setdefault(row_pos[lower], {})[c] = 1 if i % 2 == 0 else -1
    return BoundaryMatrix(table.n, dim, len(row_pos), len(col_ids), rows)


def _tall(bm: BoundaryMatrix) -> Rows:
    # rank and invariant factors survive transposing; hand the engine the
    # orientation whose rows are sparser
    return bm.rows if bm.n_rows >= bm.n_cols else transpose_rows(bm.rows)


@dataclass(frozen=True, slots=True)
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
    by_dim = table.ids_by_dim()
    f = {d: len(by_dim.get(d, [])) for d in range(-1, n - 1)}
    ranks: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    p = _FIELD_CHAR.get(coefficients)
    for d in range(0, n - 1):
        rows = _tall(boundary_matrix(table, d))
        if coefficients == "Z":
            invariants = smith_normal_form(rows)
            ranks[d] = len(invariants)
            bad = tuple(v for v in invariants if v > 1)
            if bad:
                torsion[d - 1] = bad
        elif coefficients == "Q":
            ranks[d] = rank_q(rows)
        else:
            ranks[d] = rank_mod_p(rows, p)
    betti = {
        d: f[d] - ranks.get(d, 0) - ranks.get(d + 1, 0) for d in range(-1, n - 1)
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


def nonzero_dims_over_z(table: FaceTable) -> set[int]:
    """Dimensions with non-trivial integral reduced homology, via Smith form."""
    return betti_table(table, "Z").nonzero_dims()


def nonzero_dims_via_ranks(
    table: FaceTable, primes: tuple[int, ...] = (2, 3, 5)
) -> set[int]:
    """Non-trivial dimensions from rational plus mod-p ranks.

    Free parts come from rational Betti numbers; p-torsion in H~_d shows up
    as a rank drop of d_{d+1} from Q to F_p.  Detection covers the listed
    primes, which is what the larger cases are checked with.
    """
    n = table.n
    f = {d: len(table.ids_by_dim().get(d, [])) for d in range(-1, n - 1)}
    rq: dict[int, int] = {}
    rp: dict[int, dict[int, int]] = {p: {} for p in primes}
    for d in range(0, n - 1):
        rows = _tall(boundary_matrix(table, d))
        rq[d] = rank_q(rows)
        for p in primes:
            rp[p][d] = rank_mod_p(rows, p)
    out = set()
    for d in range(-1, n - 1):
        free = f[d] - rq.get(d, 0) - rq.get(d + 1, 0)
        drop = any(rp[p].get(d + 1, 0) < rq.get(d + 1, 0) for p in primes)
        if free or drop:
            out.add(d)
    return out


@dataclass(frozen=True, slots=True)
class ConjectureCheck:
    n: int
    expected: tuple[int, ...]
    observed: tuple[int, ...]
    method: str
    ok: bool


def check_conjecture(table: FaceTable, method: str = "auto") -> ConjectureCheck:
    """Compare observed non-vanishing dimensions with the middle-third window.

    method: "snf" for exact integral homology, "ranks" for the Q + F_p rank
    comparison, "auto" to use snf up to n = 7 and ranks beyond.

    >>> check_conjecture(enumerate_faces(5))
    ConjectureCheck(n=5, expected=(1,), observed=(1,), method='snf', ok=True)
    """
    if method == "auto":
        method = "snf" if table.n <= 7 else "ranks"
    if method == "snf":
        observed = nonzero_dims_over_z(table)
    elif method == "ranks":
        observed = nonzero_dims_via_ranks(table)
    else:
        raise ValueError("method must be snf, ranks, or auto")
    expected = expected_nonzero_dims(table.n)
    return ConjectureCheck(
        table.n,
        tuple(sorted(expected)),
        tuple(sorted(observed)),
        method,
        observed == expected,
    )


def check_betti_symmetry(bt: BettiTable) -> bool:
    """Whether betti~_i = betti~_{n-3-i} across the whole range.

    >>> check_betti_symmetry(betti_table(enumerate_faces(4)))
    True
    """
    n = bt.n
    return all(
        bt.betti.get(i, 0) == bt.betti.get(n - 3 - i, 0) for i in range(-1, n - 1)
    )


@dataclass(frozen=True, slots=True)
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

    >>> from .perms import Permutation, face_from_perm
    >>> f = face_from_perm(Permutation.from_core((2, 1, 3)))
    >>> sorted(repr(g) for g in boundary_of_chain(SignedChain(3, 0, {f: 1})).coeffs)
    ['BarredFace(3, 01234)']
    """
    acc: dict[BarredFace, int] = {}
    for face, c in chain.coeffs.items():
        masks = face.chain()
        for i in range(len(masks)):
            g = face_from_chain(chain.n, masks[:i] + masks[i + 1:])
            acc[g] = acc.get(g, 0) + (c if i % 2 == 0 else -c)
    return SignedChain(chain.n, chain.dim - 1, {f: v for f, v in acc.items() if v})
