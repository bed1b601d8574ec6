"""Matching digraph on the Hasse diagram, acyclicity, and Morse counts.

The digraph orients every cover edge downward except matched ones, which
point upward.  The matching is a Morse matching exactly when this digraph is
acyclic; the certificate is a topological order (re-checkable in one pass),
or an explicit directed cycle when verification fails.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import compress, count, islice
from operator import not_

from .complexes import FaceTable
from .matching import MatchingMap, critical_faces


@dataclass
class MorseDigraph:
    """Arcs in compressed rows: node v's out-neighbours are
    ``targets[offsets[v]:offsets[v + 1]]``, both ``array('i')``."""

    n: int
    dual: bool
    offsets: array
    targets: array

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def arc_count(self) -> int:
        return len(self.targets)

    def out(self, v: int) -> array:
        return self.targets[self.offsets[v]:self.offsets[v + 1]]


def build_digraph(table: FaceTable, matching: MatchingMap) -> MorseDigraph:
    """Orient the Hasse diagram: matched covers up, all others down.

    A face u covering l gives the arc l -> u when l's partner is u, and
    u -> l otherwise.  Node v lists its arcs in the order a walk over the
    uppers in id order, each over its covers in bar order, meets them: its
    down arcs in bar order, with its up arc, to p, before them when p < v
    and after them when p > v.

    >>> from .complexes import enumerate_faces
    >>> from .matching import build_matching
    >>> t = enumerate_faces(3)
    >>> g = build_digraph(t, build_matching(t))
    >>> g.arc_count, g.out(0), g.out(5)
    (6, array('i', [1]), array('i', [3, 4]))
    """
    offsets, lowers = table.cover_incidence()
    partners = matching.partners
    up = array("i", [-1]) * len(partners)  # the head of each node's up arc
    into = bytearray(len(partners))  # the number of up arcs into each node
    index, bars = lowers.index, table.bars
    for v in compress(count(), map((-1).__lt__, partners)):
        p = partners[v]
        if bars[p] > bars[v]:  # a face covers only faces with fewer bars
            try:
                index(v, offsets[p], offsets[p + 1])
            except ValueError:
                continue
            up[v] = p
            into[p] += 1
    out_offsets, targets = array("i", [0]), array("i")
    append, extend, mark = targets.append, targets.extend, out_offsets.append
    lo = 0
    for v, hi, p, k in zip(count(), islice(offsets, 1, None), up, into):
        down = lowers[lo:hi]
        if k:
            down = compress(down, map(v.__ne__, map(up.__getitem__, down)))
        if p < 0:
            extend(down)
        elif p < v:
            append(p)
            extend(down)
        else:
            extend(down)
            append(p)
        mark(len(targets))
        lo = hi
    return MorseDigraph(table.n, matching.dual, out_offsets, targets)


@dataclass(frozen=True)
class AcyclicityCertificate:
    acyclic: bool
    order: array | tuple[int, ...] | None  # topological order when acyclic
    cycle: tuple[int, ...] | None          # a directed cycle otherwise

    def digest(self) -> str:
        """sha256 over "order" or "cycle", then each id as 8 little-endian bytes."""
        import hashlib  # only a printed certificate needs it

        kind, seq = ("order", self.order) if self.acyclic else ("cycle", self.cycle)
        ids = array("q", seq or ())
        if sys.byteorder != "little":
            ids.byteswap()
        return hashlib.sha256(kind.encode() + ids.tobytes()).hexdigest()


def check_acyclic(g: MorseDigraph) -> AcyclicityCertificate:
    """Kahn peeling, first in first out; on failure, walk the leftover
    subgraph back to a cycle.  The order is its own queue: the nodes not yet
    peeled are the ones after the node being peeled.

    >>> from .complexes import enumerate_faces
    >>> from .matching import build_matching
    >>> t = enumerate_faces(3)
    >>> check_acyclic(build_digraph(t, build_matching(t))).order
    array('i', [2, 5, 3, 4, 0, 1])
    >>> loop = MorseDigraph(0, False, array("i", [0, 1, 2, 3]), array("i", [1, 2, 0]))
    >>> check_acyclic(loop).cycle
    (0, 1, 2)
    >>> sink = MorseDigraph(0, False, array("i", [0, 1, 2, 4, 4]), array("i", [1, 2, 3, 0]))
    >>> check_acyclic(sink).cycle
    (0, 1, 2)
    """
    offsets, targets = g.offsets, g.targets
    indeg = [0] * len(g)  # nearly all small ints, which Python shares
    for w in targets:
        indeg[w] += 1
    order = array("i", compress(count(), map(not_, indeg)))
    append = order.append
    for v in order:  # grows while it is read
        for w in targets[offsets[v]:offsets[v + 1]]:
            indeg[w] -= 1
            if not indeg[w]:
                append(w)
    if len(order) == len(g):
        return AcyclicityCertificate(True, order, None)
    # every remaining node keeps positive in-degree from the remainder, but
    # may be a sink: following in-arcs backward inside it must revisit a node
    remaining = {v for v in range(len(g)) if indeg[v] > 0}
    pred: dict[int, int] = {}
    for v in sorted(remaining):
        for w in g.out(v):
            if w in remaining:
                pred.setdefault(w, v)
    path: list[int] = []
    position: dict[int, int] = {}
    v = min(remaining)
    while v not in position:
        position[v] = len(path)
        path.append(v)
        v = pred[v]
    back = path[position[v]:]  # walked against the arcs, starting at v
    cycle = (v,) + tuple(reversed(back[1:]))
    return AcyclicityCertificate(False, None, cycle)


def verify_certificate(g: MorseDigraph, cert: AcyclicityCertificate) -> bool:
    """Re-check a certificate against the digraph in one pass.  An order is
    walked once: each node must be new, and so must each head of its arcs."""
    size = len(g)
    if cert.acyclic:
        order = cert.order
        if order is None or len(order) != size:
            return False
        if size and not (min(order) >= 0 and max(order) < size):
            return False
        offsets, targets = g.offsets, g.targets
        seen = bytearray(size)
        for v in order:
            if seen[v]:
                return False
            seen[v] = 1
            for w in targets[offsets[v]:offsets[v + 1]]:
                if seen[w]:
                    return False
        return True
    if not cert.cycle:
        return False
    k = len(cert.cycle)
    return all(cert.cycle[(i + 1) % k] in g.out(cert.cycle[i]) for i in range(k))


@dataclass(frozen=True)
class MorseNumbers:
    """Critical-face counts by dimension, indexed -1..n-2."""

    n: int
    dual: bool
    m: tuple[int, ...]

    def of_dim(self, d: int) -> int:
        return self.m[d + 1]


def morse_numbers(table: FaceTable, matching: MatchingMap) -> MorseNumbers:
    """Count the unmatched faces per dimension that ``critical_faces`` checks.

    >>> from .complexes import enumerate_faces
    >>> from .matching import build_matching
    >>> t = enumerate_faces(3)
    >>> morse_numbers(t, build_matching(t)).m
    (0, 3, 1)
    >>> morse_numbers(t, build_matching(t, dual=True)).m
    (1, 3, 0)
    """
    counts = tuple(len(ids) for ids in critical_faces(table, matching).values())
    if matching.matched + sum(counts) != len(table):
        raise AssertionError("matched pairs and critical faces do not tile the table")
    return MorseNumbers(table.n, matching.dual, counts)


@dataclass(frozen=True)
class ThresholdReport:
    """Vanishing pattern of Morse numbers against the predicted range."""

    n: int
    dual: bool
    ok: bool
    required_zero_dims: tuple[int, ...]
    violations: tuple[str, ...] = ()


def check_thresholds(numbers: MorseNumbers) -> ThresholdReport:
    """Primal: m_i = 0 whenever 3i+4 < n (all blocks of a critical face fit
    in size 3).  Dual: m_i = 0 whenever 3i > 2n-5.

    >>> from .complexes import enumerate_faces
    >>> from .matching import build_matching
    >>> t = enumerate_faces(3)
    >>> check_thresholds(morse_numbers(t, build_matching(t))).ok
    True
    """
    n = numbers.n
    if numbers.dual:
        required = [i for i in range(-1, n - 1) if 3 * i > 2 * n - 5]
    else:
        required = [i for i in range(-1, n - 1) if 3 * i + 4 < n]
    violations = tuple(
        f"m_{i} = {numbers.of_dim(i)} != 0" for i in required if numbers.of_dim(i) != 0
    )
    return ThresholdReport(n, numbers.dual, not violations, tuple(required), violations)


@dataclass(frozen=True)
class InequalityReport:
    """Betti numbers bounded by Morse numbers, dimension by dimension."""

    n: int
    dual: bool
    ok: bool
    violations: tuple[str, ...] = ()


def morse_inequalities(numbers: MorseNumbers, betti: dict[int, int]) -> InequalityReport:
    """Check betti_i <= m_i for every dimension."""
    violations = []
    for d, b in sorted(betti.items()):
        if b > numbers.of_dim(d):
            violations.append(f"dim {d}: betti {b} > m {numbers.of_dim(d)}")
    return InequalityReport(numbers.n, numbers.dual, not violations, tuple(violations))
