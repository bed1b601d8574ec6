"""Greedy interval matching on the face table, and its order-reversed dual.

Each non-critical face is paired through its lowest matchable block by
swapping two adjacent letters of its word: split types swap the pair across
the bar above the block, erasing that bar; merged types swap a pair inside
the block, inserting one.  The bars either side of the pair keep their
state, so matched faces are a cover pair and the moves are mutually inverse.

The dual matching applies the same rules to the order-reversed structure
(maximal decreasing runs, bars at ascents): the complemented word
(a_i -> n+1-a_i) is diagnosed, and the same swap is made on the face's own
word.  Complement reverses the lex order of face ids, so the dual pairs are
the primal ones relabelled f -> n!-1-f.  ``critical_faces`` reads dual runs.

>>> from .complexes import enumerate_faces
>>> build_matching(enumerate_faces(3), dual=True).pairs
{4: 5, 5: 4}
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, count

from . import workers
from .complexes import FaceTable
from .perms import BarredFace, MatchableType, complement_word, diagnose_word

_PAIRED_KIND = {
    MatchableType.ONE_SPLIT: MatchableType.ONE_MERGED,
    MatchableType.ONE_MERGED: MatchableType.ONE_SPLIT,
    MatchableType.TWO_MERGED: MatchableType.TWO_SPLIT,
    MatchableType.TWO_SPLIT: MatchableType.TWO_MERGED,
}


def _is_adjacent_swap(v: bytes, w: bytes) -> bool:
    diff = [i for i, (x, y) in enumerate(zip(v, w)) if x != y]
    return (
        len(diff) == 2
        and diff[1] == diff[0] + 1
        and v[diff[0]] == w[diff[1]]
        and v[diff[1]] == w[diff[0]]
    )


def _swap(f: BarredFace, p: int) -> BarredFace:
    """The face of f's word with the letters at positions p, p+1 swapped.
    The bar at rank p+1 toggles; raises AssertionError unless the sentinels
    stay put and the bars at ranks p and p+2 keep their state."""
    w = bytearray(f.word)
    if not (
        1 <= p < f.n
        and (w[p - 1] > w[p]) == (w[p - 1] > w[p + 1])
        and (w[p] > w[p + 2]) == (w[p + 1] > w[p + 2])
    ):
        raise AssertionError(f"swapping word positions {p}, {p + 1} of {f} is not a cover move")
    w[p], w[p + 1] = w[p + 1], w[p]
    return BarredFace.from_word(f.n, bytes(w))


def partner(f: BarredFace) -> BarredFace | None:
    """The matched face, or None when f is critical.

    >>> partner(BarredFace(3, ((0, 1, 2, 3, 4),)))
    BarredFace(3, 013|24)
    >>> partner(BarredFace(3, ((0, 1, 3), (2, 4))))
    BarredFace(3, 01234)
    >>> partner(BarredFace(3, ((0, 2), (1, 3, 4)))) is None
    True
    """
    diag = diagnose_word(f.word)
    return None if diag is None else _swap(f, diag[3])


def dual_partner(f: BarredFace) -> BarredFace | None:
    """Partner under the order-reversed matching, by complement conjugation.

    >>> dual_partner(BarredFace(3, ((0, 3), (2,), (1, 4))))
    BarredFace(3, 03|124)
    >>> dual_partner(BarredFace(3, ((0, 2), (1, 3, 4)))) is None
    True
    """
    diag = diagnose_word(complement_word(f.word))
    return None if diag is None else _swap(f, diag[3])


# -- whole-table matchings ----------------------------------------------------


class PairView(Mapping):
    """Read-only face id -> partner id over a partner array, critical faces
    left out; ``len`` is the matched count, kept by the ``MatchingMap``."""

    def __init__(self, partners: array, matched: int) -> None:
        self._partners, self._matched = partners, matched

    def __getitem__(self, fid: int) -> int:
        gid = self._partners[fid] if 0 <= fid < len(self._partners) else -1
        if gid < 0:
            raise KeyError(fid)
        return gid

    def __contains__(self, fid: object) -> bool:
        return type(fid) is int and 0 <= fid < len(self._partners) and self._partners[fid] >= 0

    def __iter__(self) -> Iterator[int]:
        return compress(count(), map((-1).__lt__, self._partners))

    def __len__(self) -> int:
        return self._matched

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass
class MatchingMap:
    """One side's matching: ``partners[f]`` is the id of face f's cover-pair
    partner, -1 when f is critical.  ``matched`` counts the faces with a
    partner, and ``pairs`` reads the array as a mapping.

    >>> from .complexes import enumerate_faces
    >>> m = build_matching(enumerate_faces(3), dual=True)
    >>> m.partners, m.matched, m.pairs
    (array('i', [-1, -1, -1, -1, 5, 4]), 2, {4: 5, 5: 4})
    """

    n: int
    dual: bool
    partners: array
    matched: int = field(init=False)

    def __post_init__(self) -> None:
        self.matched = len(self.partners) - self.partners.count(-1)

    @property
    def pairs(self) -> PairView:
        return PairView(self.partners, self.matched)


def build_matching(table: FaceTable, dual: bool = False) -> MatchingMap:
    """Match every non-critical face through its lowest matchable block.

    The first call per table keeps one ``partner`` id per face (-1: critical),
    the upper half of the ids found in a worker on a table large enough for
    one (``workers.split``); the dual relabels those pairs f -> N-1-f.  Each
    call returns a new array.

    >>> from .complexes import enumerate_faces
    >>> t = enumerate_faces(3)
    >>> build_matching(t).pairs, build_matching(t, dual=True).pairs
    ({0: 1, 1: 0}, {4: 5, 5: 4})
    """
    if table._partners is None:
        table._partners = workers.split("partner ids", len(table), partial(_partner_span, table))
    primal = table._partners
    if dual:
        last = len(primal) - 1
        partners = array("i", (-1 if g < 0 else last - g for g in reversed(primal)))
    else:
        partners = array("i", primal)
    return MatchingMap(table.n, dual, partners)


def _partner_span(table: FaceTable, lo: int, hi: int) -> array:
    """The partner ids of faces lo..hi-1, -1 for a critical face."""
    id_of_face, face = table.id_of_face, table.faces.__getitem__
    found = map(partner, map(face, range(lo, hi)))
    return array("i", (-1 if g is None else id_of_face(g) for g in found))


def critical_faces(table: FaceTable, matching: MatchingMap) -> dict[int, list[int]]:
    """Unmatched face ids by dimension.

    Checks the structural fingerprint of criticality on the word: primal
    critical faces have no increasing run longer than 3 letters (no block
    longer than 3), dual critical faces no decreasing run longer than 3.

    >>> from .complexes import enumerate_faces
    >>> t = enumerate_faces(3)
    >>> critical_faces(t, build_matching(t))
    {-1: [], 0: [2, 3, 4], 1: [5]}
    """
    out: dict[int, list[int]] = {d: [] for d in range(-1, table.n - 1)}
    words, bars = table.words, table.bars
    for fid in compress(count(), map((0).__gt__, matching.partners)):
        w = words[fid]
        out[bars[fid] - 1].append(fid)
        fours = zip(w, w[1:], w[2:], w[3:])
        if matching.dual:
            if any(a > b > c > d for a, b, c, d in fours):
                raise AssertionError(f"dual critical face {fid} {list(w)} has a decreasing run > 3")
        elif any(a < b < c < d for a, b, c, d in fours):
            raise AssertionError(f"critical face {fid} {list(w)} has a block > 3")
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
    """Confirm the matching is an involution by cover pairs one adjacent
    transposition apart whose members, diagnosed here on the side
    ``matching.dual`` names (a primal face's word directly, a dual face's
    complemented word), share their lowest matchable rank with inverse types
    (one-split with one-merged, two-merged with two-split).

    >>> from .complexes import enumerate_faces
    >>> t = enumerate_faces(3)
    >>> verify_well_defined(t, build_matching(t, dual=True)).ok
    True
    """
    violations: list[str] = []
    partners = matching.partners
    size = len(partners)
    words, bars = table.words, table.bars
    offsets, lowers = table.cover_incidence()
    for fid in compress(count(), map((-1).__lt__, partners)):
        gid = partners[fid]
        if gid >= size or partners[gid] != fid or gid == fid:
            violations.append(f"{fid}<->{gid}: not a fixed-point-free involution")
            continue
        if fid > gid:
            continue  # handle each pair once
        lower, upper = (fid, gid) if bars[fid] < bars[gid] else (gid, fid)
        try:
            lowers.index(lower, offsets[upper], offsets[upper + 1])
        except ValueError:
            violations.append(f"{fid}<->{gid}: not a cover pair")
        if not _is_adjacent_swap(words[fid], words[gid]):
            violations.append(f"{fid}<->{gid}: words not one adjacent swap apart")
        pair = (words[fid], words[gid])
        if matching.dual:
            pair = map(complement_word, pair)
        df, dg = map(diagnose_word, pair)
        if df is None or dg is None:
            violations.append(f"{fid}<->{gid}: matched face has no matchable block")
            continue
        (_, rank_f, kind_f, _), (_, rank_g, kind_g, _) = df, dg
        if rank_f != rank_g:
            violations.append(f"{fid}<->{gid}: ranks differ ({rank_f} vs {rank_g})")
        if _PAIRED_KIND[kind_f] is not kind_g:
            violations.append(
                f"{fid}<->{gid}: types {kind_f.value} and {kind_g.value} not inverse"
            )
    if matching.matched % 2:
        violations.append("odd number of matched faces")
    return MatchingReport(
        n=table.n,
        dual=matching.dual,
        ok=not violations,
        pair_count=matching.matched // 2,
        critical_count=len(table) - matching.matched,
        violations=tuple(violations[:20]),
    )
