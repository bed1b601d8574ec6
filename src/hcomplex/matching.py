"""Greedy interval matching on the face table, and its order-reversed dual.

Each non-critical face is paired through its lowest matchable block: split
types merge the block with the one above, merged types split it, and the two
moves are mutually inverse.  Matched faces differ by erasing or inserting one
chain element, and their permutations differ by one adjacent transposition.

The dual matching applies the same rules to the order-reversed structure
(maximal decreasing runs, bars at ascents).  It is implemented by complement
conjugation: complement the permutation letters (a_i -> n+1-a_i), match, and
complement back.  Dual critical faces are checked on the same structure:
``critical_faces`` reads their decreasing runs with ``perms.decreasing_runs``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import FaceTable
from .perms import (
    BarredFace,
    IntervalDiagnosis,
    MatchableType,
    SplitMode,
    complement,
    decreasing_runs,
    face_from_perm,
    lowest_matchable,
    merge_blocks,
    perm_from_face,
    split_block,
)

_SPLIT_KINDS = (MatchableType.ONE_SPLIT, MatchableType.TWO_SPLIT)
_PAIRED_KIND = {
    MatchableType.ONE_SPLIT: MatchableType.ONE_MERGED,
    MatchableType.ONE_MERGED: MatchableType.ONE_SPLIT,
    MatchableType.TWO_MERGED: MatchableType.TWO_SPLIT,
    MatchableType.TWO_SPLIT: MatchableType.TWO_MERGED,
}


def _is_adjacent_swap(v: tuple[int, ...], w: tuple[int, ...]) -> bool:
    diff = [i for i, (x, y) in enumerate(zip(v, w)) if x != y]
    return (
        len(diff) == 2
        and diff[1] == diff[0] + 1
        and v[diff[0]] == w[diff[1]]
        and v[diff[1]] == w[diff[0]]
    )


def partner(f: BarredFace) -> BarredFace | None:
    """The matched face, or None when f is critical.

    >>> partner(BarredFace(3, ((0, 1, 2, 3, 4),)))
    BarredFace(3, 013|24)
    >>> partner(BarredFace(3, ((0, 1, 3), (2, 4))))
    BarredFace(3, 01234)
    >>> partner(BarredFace(3, ((0, 2), (1, 3, 4)))) is None
    True
    """
    diag = lowest_matchable(f)
    if diag is None:
        return None
    i = diag.block_index
    if diag.kind in _SPLIT_KINDS:
        g = merge_blocks(f, i)
    elif diag.kind is MatchableType.ONE_MERGED:
        g = split_block(f, i, SplitMode.SINGLETON)
    else:
        g = split_block(f, i, SplitMode.PAIR)
    if not _is_adjacent_swap(f.word, g.word):
        raise AssertionError(f"match of {f} is {g}, not an adjacent swap")
    return g


def dual_partner(f: BarredFace) -> BarredFace | None:
    """Partner under the order-reversed matching, by complement conjugation.

    >>> dual_partner(BarredFace(3, ((0, 3), (2,), (1, 4))))
    BarredFace(3, 03|124)
    >>> dual_partner(BarredFace(3, ((0, 2), (1, 3, 4)))) is None
    True
    """
    g = partner(face_from_perm(complement(perm_from_face(f))))
    if g is None:
        return None
    return face_from_perm(complement(perm_from_face(g)))


# -- whole-table matchings ----------------------------------------------------


@dataclass
class MatchingMap:
    """A partial matching of the face table by cover pairs.

    pairs maps each matched id to its partner (both directions present).
    diagnosis holds, per face, the lowest-matchable data in the structure the
    matching was built on (the complemented face, for the dual).
    """

    n: int
    dual: bool
    pairs: dict[int, int]
    diagnosis: list[IntervalDiagnosis | None]


def build_matching(table: FaceTable, dual: bool = False) -> MatchingMap:
    """Match every non-critical face through its lowest matchable block.

    >>> from .complexes import enumerate_faces
    >>> m = build_matching(enumerate_faces(3))
    >>> m.pairs, sum(d is None for d in m.diagnosis)
    ({0: 1, 1: 0}, 4)
    """
    comp_id: list[int] | None = None
    if dual:
        n = table.n
        comp_id = [
            table.id_of_core[tuple(n + 1 - x for x in f.word[1:-1])]
            for f in table.faces
        ]
    pairs: dict[int, int] = {}
    diagnosis: list[IntervalDiagnosis | None] = []
    for fid, face in enumerate(table.faces):
        probe = table.faces[comp_id[fid]] if comp_id is not None else face
        diag = lowest_matchable(probe)
        diagnosis.append(diag)
        if diag is None:
            continue
        g = partner(probe)
        gid = table.id_of_face(g)
        pairs[fid] = comp_id[gid] if comp_id is not None else gid
    return MatchingMap(table.n, dual, pairs, diagnosis)


def critical_faces(table: FaceTable, matching: MatchingMap) -> dict[int, list[int]]:
    """Unmatched face ids by dimension.

    Checks the structural fingerprint of criticality: primal critical faces
    have no block longer than 3; dual critical faces have no decreasing run
    longer than 3.

    >>> from .complexes import enumerate_faces
    >>> t = enumerate_faces(3)
    >>> critical_faces(t, build_matching(t))
    {-1: [], 0: [2, 3, 4], 1: [5]}
    """
    out: dict[int, list[int]] = {d: [] for d in range(-1, table.n - 1)}
    for fid, face in enumerate(table.faces):
        if fid in matching.pairs:
            continue
        out[face.dim].append(fid)
        if matching.dual:
            if any(len(r) > 3 for r in decreasing_runs(perm_from_face(face))):
                raise AssertionError(f"dual critical face {face} has a decreasing run > 3")
        elif any(len(b) > 3 for b in face.blocks):
            raise AssertionError(f"critical face {face} has a block > 3")
    return out


@dataclass(frozen=True)
class MatchingReport:
    """Outcome of the well-definedness verification."""

    n: int
    dual: bool
    ok: bool
    pair_count: int
    critical_count: int
    violations: tuple[str, ...] = ()


def verify_well_defined(table: FaceTable, matching: MatchingMap) -> MatchingReport:
    """Confirm the matching is an involution by cover pairs in which both
    members share their lowest matchable rank with inverse types
    (one-split with one-merged, two-merged with two-split), and that the
    matched permutations differ by one adjacent transposition.
    """
    violations: list[str] = []
    pairs = matching.pairs
    n = table.n
    for fid, gid in pairs.items():
        if pairs.get(gid) != fid or gid == fid:
            violations.append(f"{fid}<->{gid}: not a fixed-point-free involution")
            continue
        if fid > gid:
            continue  # handle each pair once
        f, g = table.faces[fid], table.faces[gid]
        lower, upper = (f, g) if f.dim < g.dim else (g, f)
        if upper.dim != lower.dim + 1 or not set(lower.chain()) < set(upper.chain()):
            violations.append(f"{fid}<->{gid}: not a cover pair")
        if not _is_adjacent_swap(f.word, g.word):
            violations.append(f"{fid}<->{gid}: words not one adjacent swap apart")
        df, dg = matching.diagnosis[fid], matching.diagnosis[gid]
        if df is None or dg is None:
            violations.append(f"{fid}<->{gid}: matched face lacks a diagnosis")
            continue
        if df.start_rank != dg.start_rank:
            violations.append(
                f"{fid}<->{gid}: ranks differ ({df.start_rank} vs {dg.start_rank})"
            )
        if _PAIRED_KIND[df.kind] is not dg.kind:
            violations.append(
                f"{fid}<->{gid}: types {df.kind.value} and {dg.kind.value} not inverse"
            )
    critical = len(table.faces) - len(pairs)
    if len(pairs) % 2:
        violations.append("odd number of matched faces")
    return MatchingReport(
        n=n,
        dual=matching.dual,
        ok=not violations,
        pair_count=len(pairs) // 2,
        critical_count=critical,
        violations=tuple(violations[:20]),
    )
