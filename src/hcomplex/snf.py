"""Sparse exact elimination over Z, and Smith normal form.

Matrices are dicts of rows, each row a dict col -> int.  The elimination
runs in the dict it is given, with no copy, so ``smith_normal_form``
consumes its argument.  It clears one pivot at a time, chosen greedily from
the shortest rows with a fill-minimizing column (Markowitz-style).  Only
pivots of absolute value 1 are used, so all arithmetic stays integral; rows
that run out of unit entries are set aside and the survivors form a small
residual with no unit entry, finished on dense rows by gcd steps (integer
division by an entry of least absolute value, then gcd and lcm to make the
diagonal a divisibility chain).  That finish does not bound coefficient
growth, so it refuses a residual of more than ``DENSE_CELL_LIMIT`` cells
with a ValueError.

Clearing a pivot's column by row operations leaves that column with a single
non-zero, so dropping the pivot row and column afterwards is a unimodular
reduction: the invariant factors of the original matrix are those of the
residual plus one unit per pivot.  As only row operations clear pivots, the
pivot rows and columns of the original matrix form a unimodular block.

Every rank is read off those invariant factors, so there is one elimination
path: ``rank_q`` and ``rank_mod_p`` take the factor tuple that
``smith_normal_form`` returns and eliminate nothing themselves.  The rank
over Q counts the factors; by the universal coefficient theorem the rank
over F_p counts the ones p does not divide.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heapify, heappop, heappush
from math import gcd

Rows = dict[int, dict[int, int]]

DENSE_CELL_LIMIT = 10_000  # rows x columns the dense reduction accepts


def rows_from_dense(dense: list[list[int]]) -> Rows:
    return {
        i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(dense)
    }


class _Eliminator:
    """Eliminates the rows dict it is given, in place: zero entries and
    empty rows are dropped from it, and it ends as the residual."""

    def __init__(self, rows: Rows):
        self.rows = rows
        self.cols: dict[int, list[int]] = {}  # the rows holding each column, sorted
        for i in list(rows):
            row = rows[i]
            if 0 in row.values():
                for j in [j for j, v in row.items() if not v]:
                    del row[j]
            if not row:
                del rows[i]
                continue
            for j in row:
                self.cols.setdefault(j, []).append(i)
        for col in self.cols.values():
            col.sort()
        self.heap = [(len(row), i) for i, row in self.rows.items()]
        heapify(self.heap)
        self.pivots: list[int] = []  # the column of each unit pivot, in order

    def _pick_col(self, row: dict[int, int]) -> int | None:
        best = None
        for j, v in row.items():
            if v not in (1, -1):
                continue
            key = (len(self.cols[j]), j)
            if best is None or key < best:
                best = key
        return None if best is None else best[1]

    def _pivot(self, i: int, j: int) -> None:
        rows, cols = self.rows, self.cols
        prow = rows.pop(i)
        for jj in prow:
            col = cols[jj]
            del col[bisect_left(col, i)]
        v = prow[j]  # +-1, so 1/v = v
        rest = [(jj, vv) for jj, vv in prow.items() if jj != j]
        for r in cols.pop(j):
            row = rows[r]
            m = row.pop(j) * v  # the pivot column clears to 0 in every row
            for jj, vv in rest:
                cur = row.get(jj, 0) - m * vv
                if cur:
                    if jj not in row:
                        insort(cols[jj], r)
                    row[jj] = cur
                elif jj in row:
                    del row[jj]
                    col = cols[jj]
                    del col[bisect_left(col, r)]
            if not row:
                del rows[r]
                continue
            heappush(self.heap, (len(row), r))
        self.pivots.append(j)

    def run(self) -> Rows:
        """Eliminate until no unit pivot remains; returns the residual.  A
        row with no unit entry is passed over: ``_pivot`` re-pushes each row
        it changes."""
        while self.heap:
            length, i = heappop(self.heap)
            row = self.rows.get(i)
            if row is None or len(row) != length:
                continue  # stale entry
            j = self._pick_col(row)
            if j is not None:
                self._pivot(i, j)
        return self.rows


def _dense_snf(rows: Rows) -> list[int]:
    """Invariant factors of a small residual, by gcd steps on dense rows.

    The entry p of least absolute value clears its column by row operations
    and its row by column operations, each by integer division.  If that
    leaves p alone, |p| is recorded and its row and column are deleted;
    otherwise the next pivot is the least entry again, at most a remainder.
    Each remainder is smaller than its pivot, so this ends.  Pairwise gcd
    and lcm then turn the recorded diagonal into a divisibility chain.
    """
    col_ids = sorted({j for row in rows.values() for j in row})
    if len(rows) * len(col_ids) > DENSE_CELL_LIMIT:
        shape = f"{len(rows)} x {len(col_ids)}"
        raise ValueError(f"residual {shape} exceeds the dense limit of {DENSE_CELL_LIMIT} cells")
    m = [[row.get(j, 0) for j in col_ids] for row in rows.values()]
    diagonal: list[int] = []
    while cells := [(abs(v), i, j) for i, row in enumerate(m) for j, v in enumerate(row) if v]:
        _, i, j = min(cells)
        prow = m[i]
        p = prow[j]
        for k, row in enumerate(m):
            if k != i and row[j]:
                q = row[j] // p
                m[k] = [a - q * b for a, b in zip(row, prow)]
        qs = [(c, v // p) for c, v in enumerate(prow) if v and c != j]
        for row in m:
            if x := row[j]:
                for c, q in qs:
                    row[c] -= q * x
        if prow.count(0) == len(prow) - 1 and sum(1 for row in m if row[j]) == 1:
            diagonal.append(abs(p))
            del m[i]
            for row in m:
                del row[j]
    for a in range(len(diagonal)):
        for b in range(a + 1, len(diagonal)):
            g = gcd(diagonal[a], diagonal[b])
            diagonal[a], diagonal[b] = g, diagonal[a] * diagonal[b] // g
    return diagonal


def smith_normal_form(rows: Rows, pivots: list[int] | None = None) -> tuple[int, ...]:
    """Non-zero invariant factors d_1 | d_2 | .. of an integer matrix.

    Consumes ``rows``: the elimination runs in it, so the caller must not
    read it afterwards (pass a copy to keep it).  A ``pivots`` list gets the
    column of each unit pivot appended.

    >>> smith_normal_form(rows_from_dense([[1, 0], [0, 1]]))
    (1, 1)
    >>> smith_normal_form(rows_from_dense([[2, 4], [0, 6]]))
    (2, 6)
    >>> rows = {0: {0: 0, 1: 2}, 1: {}}
    >>> smith_normal_form(rows), rows  # consumed: what is left is the residual
    ((2,), {0: {1: 2}})
    """
    engine = _Eliminator(rows)
    residual = engine.run()
    if pivots is not None:
        pivots.extend(engine.pivots)
    return (1,) * len(engine.pivots) + tuple(_dense_snf(residual))


def rank_q(invariants: tuple[int, ...]) -> int:
    """Rank over the rationals, given the invariant factors: their number.

    >>> rank_q(smith_normal_form(rows_from_dense([[2, 4], [0, 6]])))
    2
    >>> rank_q(())
    0
    """
    return len(invariants)


def rank_mod_p(invariants: tuple[int, ...], p: int) -> int:
    """Rank over the prime field F_p, given the invariant factors.

    By the universal coefficient theorem it counts the factors p does not
    divide.

    >>> rank_mod_p((2, 6), 2)
    0
    >>> rank_mod_p((2, 6), 3)  # 6 = 0 mod 3
    1
    >>> rank_mod_p((2, 6), 5)
    2
    """
    return sum(1 for d in invariants if d % p)
