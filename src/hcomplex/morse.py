"""Matching digraph on the Hasse diagram, acyclicity, and Morse counts.

The digraph orients every cover edge downward except matched ones, which
point upward.  The matching is a Morse matching exactly when this digraph is
acyclic; the certificate is a topological order (re-checkable in one pass),
or an explicit directed cycle when verification fails.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass

from .complexes import FaceTable
from .matching import MatchingMap, critical_faces


@dataclass
class MorseDigraph:
    """Adjacency lists over face ids; arc_count kept for reporting."""

    n: int
    dual: bool
    out: list[list[int]]
    arc_count: int


def build_digraph(table: FaceTable, matching: MatchingMap) -> MorseDigraph:
    """Orient the Hasse diagram: matched covers up, all others down.

    >>> from .complexes import enumerate_faces
    >>> from .matching import build_matching
    >>> t = enumerate_faces(3)
    >>> g = build_digraph(t, build_matching(t))
    >>> g.arc_count, g.out[0], g.out[5]
    (6, [1], [3, 4])
    """
    offsets, lowers = table.cover_incidence()
    ids = list(table.id_of_word.values())  # ids[i] is i: every arc holds the index's ints
    out: list[list[int]] = [[] for _ in ids]
    pairs = matching.pairs
    for upper in ids:
        for lower in lowers[offsets[upper]:offsets[upper + 1]]:
            lower = ids[lower]
            if pairs.get(lower) == upper:
                out[lower].append(upper)
            else:
                out[upper].append(lower)
    return MorseDigraph(table.n, matching.dual, out, len(lowers))


@dataclass(frozen=True)
class AcyclicityCertificate:
    acyclic: bool
    order: tuple[int, ...] | None  # topological order when acyclic
    cycle: tuple[int, ...] | None  # a directed cycle otherwise
    digest: str                    # sha256 over the order or cycle


def _digest(kind: str, seq: tuple[int, ...]) -> str:
    h = hashlib.sha256()
    h.update(kind.encode())
    for x in seq:
        h.update(x.to_bytes(8, "little"))
    return h.hexdigest()


def check_acyclic(g: MorseDigraph) -> AcyclicityCertificate:
    """Kahn peeling; on failure, walk the leftover subgraph back to a cycle.

    >>> from .complexes import enumerate_faces
    >>> from .matching import build_matching
    >>> t = enumerate_faces(3)
    >>> check_acyclic(build_digraph(t, build_matching(t))).acyclic
    True
    >>> loop = MorseDigraph(0, False, [[1], [2], [0]], 3)
    >>> check_acyclic(loop).cycle
    (0, 1, 2)
    >>> check_acyclic(MorseDigraph(0, False, [[1], [2], [3, 0], []], 4)).cycle
    (0, 1, 2)
    """
    indeg = [0] * len(g.out)
    for targets in g.out:
        for v in targets:
            indeg[v] += 1
    queue = deque(v for v in range(len(g.out)) if indeg[v] == 0)
    order: list[int] = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in g.out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) == len(g.out):
        return AcyclicityCertificate(True, tuple(order), None, _digest("order", tuple(order)))
    # every remaining node keeps positive in-degree from the remainder, but
    # may be a sink: following in-arcs backward inside it must revisit a node
    remaining = {v for v in range(len(g.out)) if indeg[v] > 0}
    pred: dict[int, int] = {}
    for v in sorted(remaining):
        for w in g.out[v]:
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
    return AcyclicityCertificate(False, None, cycle, _digest("cycle", cycle))


def verify_certificate(g: MorseDigraph, cert: AcyclicityCertificate) -> bool:
    """Re-check a certificate against the digraph in one pass."""
    if cert.acyclic:
        if cert.order is None or sorted(cert.order) != list(range(len(g.out))):
            return False
        pos = [0] * len(g.out)
        for i, v in enumerate(cert.order):
            pos[v] = i
        return all(pos[v] < pos[w] for v in range(len(g.out)) for w in g.out[v])
    if not cert.cycle:
        return False
    k = len(cert.cycle)
    return all(cert.cycle[(i + 1) % k] in g.out[cert.cycle[i]] for i in range(k))


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
    if len(matching.pairs) + sum(counts) != len(table):
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
