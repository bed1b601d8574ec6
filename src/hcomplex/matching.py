"""Greedy interval matching on the face table, and its order-reversed dual.

Each non-critical face is paired through its lowest matchable block by
swapping two adjacent letters of its word: split types swap the pair across
the bar above the block, erasing that bar; merged types swap a pair inside
the block, inserting one.  ``cover_swap``, the one rule for build and check,
keeps the bars either side of the pair: matched faces are a cover pair, and
the moves are mutually inverse.

The dual matching applies the same rules to the order-reversed structure
(maximal decreasing runs, bars at ascents): the complemented word
(a_i -> n+1-a_i) is diagnosed, and the same swap is made on the face's own
word.  Complement reverses the lex order of face ids, so the dual pairs are
the primal ones relabelled f -> n!-1-f.  ``verify_well_defined`` checks the
primal pairs on their words alone, with no cover incidence, and the dual only
as that mirror: complement maps each cover pair one adjacent swap apart to a
cover pair, so the primal check's facts carry over.

A ``MatchingMap`` is an ``array('i')`` of partner ids, ``pairs`` a new dict
of them.  Whatever reads a matching against a table calls ``check_table``
first: a matching built on a table of another size raises ValueError.

>>> from .complexes import enumerate_faces
>>> build_matching(enumerate_faces(3), dual=True).pairs
{4: 5, 5: 4}
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, count, islice, repeat
from operator import gt, ne
from typing import Iterator

from . import workers
from .complexes import FaceTable, covers_down
from .perms import BarredFace, MatchableType, complement_word, diagnose_word

_PAIRED_KIND = {
    MatchableType.ONE_SPLIT: MatchableType.ONE_MERGED,
    MatchableType.ONE_MERGED: MatchableType.ONE_SPLIT,
    MatchableType.TWO_MERGED: MatchableType.TWO_SPLIT,
    MatchableType.TWO_SPLIT: MatchableType.TWO_MERGED,
}


def cover_swap(word: bytes, p: int) -> bytes | None:
    """The word with the letters at positions p, p+1 swapped, or None unless
    the swap toggles only the bar between them: the sentinels stay put and
    the bars either side keep their state (a cover pair, by the lemma of
    ``verify_well_defined``).

    >>> cover_swap(b"\\0\\1\\3\\2\\4", 2), cover_swap(b"\\0\\3\\2\\4\\1\\5", 2)
    (b'\\x00\\x01\\x02\\x03\\x04', None)
    """
    if not 1 <= p < len(word) - 2:
        return None
    a, b, c, d = word[p - 1:p + 3]
    if (a > b) != (a > c) or (b > d) != (c > d):
        return None
    return word[:p] + bytes((c, b)) + word[p + 2:]


def _swap(f: BarredFace, p: int) -> BarredFace:
    """The face ``cover_swap`` gives at p; AssertionError where it gives None."""
    if (word := cover_swap(f.word, p)) is None:
        raise AssertionError(f"swapping word positions {p}, {p + 1} of {f} is not a cover move")
    return BarredFace.from_word(f.n, word)


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


@dataclass
class MatchingMap:
    """One side's matching: ``partners[f]`` is the id of face f's cover-pair
    partner, -1 when f is critical.  ``matched`` counts the faces with a
    partner, and ``pairs`` copies the matched ones into a new dict.

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
    def pairs(self) -> dict[int, int]:
        return {f: g for f, g in enumerate(self.partners) if g >= 0}


def check_table(table: FaceTable, matching: MatchingMap) -> None:
    """Raise ValueError unless the matching was built on a table of this
    size: one partner entry per face, and the same n."""
    if len(matching.partners) != len(table) or matching.n != table.n:
        raise ValueError(
            f"a matching of {len(matching.partners)} faces (n={matching.n}) "
            f"was given with a table of {len(table)} faces (n={table.n})"
        )


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
        span = partial(_partner_span, table)
        table._partners = workers.split("partner ids", len(table), span, len(table) // 2)
    primal = table._partners
    return MatchingMap(table.n, dual, array("i", _relabelled(primal) if dual else primal))


def _relabelled(partners: array) -> Iterator[int]:
    last = len(partners) - 1  # f -> N-1-f, -1 kept
    return (-1 if g < 0 else last - g for g in reversed(partners))


def _partner_span(table: FaceTable, lo: int, hi: int) -> array:
    """The partner ids of faces lo..hi-1, -1 for a critical face."""
    n, id_of_word = table.n, table.id_of_word
    found = (partner(BarredFace.from_word(n, w)) for w in islice(table._words(), lo, hi))
    return array("i", (-1 if g is None else id_of_word(g.word) for g in found))


def critical_faces(table: FaceTable, matching: MatchingMap) -> dict[int, list[int]]:
    """The ids whose partner is -1, by dimension, read off the bars and
    partner ids alone; ``verify_well_defined`` checks the critical words and
    reports any other id outside the table.

    >>> from .complexes import enumerate_faces
    >>> t = enumerate_faces(3)
    >>> critical_faces(t, build_matching(t))
    {-1: [], 0: [2, 3, 4], 1: [5]}
    """
    check_table(table, matching)
    out: dict[int, list[int]] = {d: [] for d in range(-1, table.n - 1)}
    bars = table.bars
    for fid in compress(count(), map((-1).__eq__, matching.partners)):
        out[bars[fid] - 1].append(fid)
    return out


@dataclass(frozen=True)
class MatchingReport:
    """Outcome of the well-definedness check; ``partners`` is the array it checked."""

    n: int
    dual: bool
    ok: bool
    pair_count: int
    critical_count: int
    violations: tuple[str, ...] = ()
    partners: array | None = field(default=None, compare=False, repr=False)


def verify_well_defined(
    table: FaceTable, matching: MatchingMap, primal: MatchingReport | None = None
) -> MatchingReport:
    """Confirm the matching is an involution by cover pairs one adjacent
    transposition apart whose members share their lowest matchable rank with
    inverse types (one-split with one-merged, two-merged with two-split).

    A primal matching is checked on its words alone: each id outside -1..N-1
    is reported, each critical word with a block longer than 3 letters, and
    each pair unless both words are diagnosed, naming one p, and
    ``cover_swap`` at p takes one to the other (a failing pair is tested for
    coverness by ``covers_down``, bar by bar).  Lemma: words one adjacent swap
    apart at p, p+1 are a cover pair exactly when ``cover_swap`` gives one
    from the other.  If u covers l, D(l) is D(u) less one rank, so the swap
    toggles only the bar between them; if it does, that run of l is
    increasing, and erasing that bar of u sorts it into l.  A dual one is
    checked only as the mirror of ``build_matching(table)``, whose report is
    ``primal`` (checked here when not given): that report ok on the ids it
    checked, (M1) ``partners[f] == N-1-ids[N-1-f]``, -1 kept, and (M2)
    ``complement_word(words[f]) == words[N-1-f]``.  That is all: complement
    flips each bar between core letters and keeps the two beside the
    sentinels, so ``cover_swap`` at p takes c(u) to c(l) when it takes u to
    l.  By M1 and M2 every dual pair is then a primal pair complemented: a
    cover pair, with the primal diagnoses, ranks, types and critical words.

    >>> from .complexes import enumerate_faces
    >>> t = enumerate_faces(3)
    >>> verify_well_defined(t, build_matching(t, dual=True)).ok
    True
    """
    check_table(table, matching)
    violations: list[str] = []
    partners, size = matching.partners, len(matching.partners)
    words = table._words()
    if matching.dual:
        primal = primal or verify_well_defined(table, build_matching(table))
        ids, last, n = primal.partners, size - 1, table.n
        if not primal.ok or ids is None or len(ids) != size:
            violations.append("the primal matching it mirrors is not well defined")
        for f in compress(count(), map(ne, partners, _relabelled(ids or ()))):
            violations.append(f"{f}<->{partners[f]}: not primal face {last - f}'s pair relabelled")
        flip = bytes.maketrans(bytes(range(1, n + 1)), bytes(range(n, 0, -1)))
        unlike = map(bytes.__ne__, map(bytes.translate, words, repeat(flip)), reversed(words))
        for f in compress(count(), unlike):
            violations.append(f"word {f} complemented is not word {last - f}")
    else:
        for fid in compress(count(), map((-1).__eq__, partners)):
            if b"\0\0\0" in bytes(map(gt, w := words[fid], w[1:])):  # 1 at each descent
                violations.append(f"critical face {fid} {list(w)} has a block longer than 3")
        for fid in compress(count(), map((-1).__ne__, partners)):
            gid = partners[fid]
            if not 0 <= gid < size:
                violations.append(f"{fid}<->{gid}: not a face id or -1")
                continue
            if partners[gid] != fid or gid == fid:
                violations.append(f"{fid}<->{gid}: not a fixed-point-free involution")
                continue
            if fid > gid:
                continue  # handle each pair once
            v, w = words[fid], words[gid]
            df, dg = diagnose_word(v), diagnose_word(w)
            if not (df and dg and df[3] == dg[3] and cover_swap(v, df[3]) == w):
                cover = gid in covers_down(table, fid) or fid in covers_down(table, gid)
                why = "a cover pair, not its diagnosed swap" if cover else "not a cover pair"
                violations.append(f"{fid}<->{gid}: {why}")
            if df is None or dg is None:
                violations.append(f"{fid}<->{gid}: matched face has no matchable block")
                continue
            (_, rank_f, kind_f, _), (_, rank_g, kind_g, _) = df, dg
            if rank_f != rank_g:
                violations.append(f"{fid}<->{gid}: ranks differ ({rank_f} vs {rank_g})")
            if _PAIRED_KIND[kind_f] is not kind_g:
                violations.append(
                    f"{fid}<->{gid}: types {kind_f.value} and {kind_g.value} not inverse")
    matched = matching.matched
    return MatchingReport(table.n, matching.dual, not violations, matched // 2,
                          len(table) - matched, tuple(violations[:20]), partners)
