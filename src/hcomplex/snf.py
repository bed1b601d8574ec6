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

The column index is flat, built from the rows of each matrix: one
``array('i')`` of the rows holding each column, column by column from start
offsets, and an exact count per column, which the column choice reads.
Deletion is lazy: a row that leaves a column stays listed in it, and is
skipped when the column is cleared because it no longer holds the column.
A row that fill-in adds to a column goes on the column's overflow list, a
linked list in two more arrays with a head per column.  Once the overflow
holds more slots than the rows hold entries and than there are columns, the
index is built again from the rows as they are, so the overflow stays within
the size of the matrix and each rebuild is paid for by as many fill-ins.
The rows wait in a heap of int keys ``len << 32 | row``, in the order the
tuples ``(len, row)`` would have, and a column's key ``count << 32 | col``
breaks ties as ``(count, col)`` would, so the pivots do not depend on the
order in which a column lists its rows.  The index needs a slot per column
up to the largest key, so keys that do not fit it (a negative one, one far
above the entry count, a row key of 2**31 or more) are renamed to their
ranks first, and ``smith_normal_form`` reports the pivots and the residual
under the caller's keys.

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

from array import array
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain
from math import gcd

Rows = dict[int, dict[int, int]]

DENSE_CELL_LIMIT = 10_000  # rows x columns the dense reduction accepts
_LOW = (1 << 32) - 1  # a heap key is len << 32 | row
_ROW_LIMIT = 1 << 31  # a row key is an array('i') member


def rows_from_dense(dense: list[list[int]]) -> Rows:
    return {
        i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(dense)
    }


class _Eliminator:
    """Eliminates the rows dict it is given, in place: zero entries and
    empty rows are dropped from it, keys the column index cannot hold are
    renamed to their ranks (``names`` keeps the old ones, see
    ``_rank_keys``), and it ends as the residual."""

    def __init__(self, rows: Rows):
        self.rows = rows
        for i in list(rows):
            row = rows[i]
            try:  # one C-level pass: a float or Fraction entry makes the sum no int
                whole = type(sum(row.values())) is int
            except TypeError:  # a str entry
                whole = False
            if not whole:
                raise ValueError("the entries of a matrix must be ints")
            if 0 in row.values():
                for j in [j for j, v in row.items() if not v]:
                    del row[j]
            if not row:
                del rows[i]
        self.names, width = _rank_keys(rows)
        self.count = count = [0] * width  # the rows holding each column, exactly
        for row in rows.values():
            for j in row:
                count[j] += 1
        self._index()
        self.heap = [len(row) << 32 | i for i, row in rows.items()]
        heapify(self.heap)
        self.pivots: list[int] = []  # the column of each unit pivot, in order

    def _index(self) -> None:
        """List the rows holding each column, from the rows as they are now,
        with no overflow."""
        self.start = self.members = self.head = self.added = self.link = None  # freed first
        start = array("i", accumulate(self.count))  # the end of each column, at first
        start.append(start[-1] if start else 0)
        members = array("i", bytes(4 * start[-1]))
        for i, row in self.rows.items():
            for j in row:  # lowers start[j] to the start of column j
                k = start[j] - 1
                start[j] = k
                members[k] = i
        self.start, self.members = start, members
        self.entries = start[-1]  # the entries the rows hold, kept exact by _pivot
        # the rows fill-in adds to column j: added[k] for k = head[j], link[k], .. until -1
        self.head = array("i", [-1]) * len(self.count)
        self.added, self.link = array("i"), array("i")

    def _pick_col(self, row: dict[int, int]) -> int | None:
        count = self.count
        best = col = None
        for j, v in row.items():
            if v in (1, -1):
                key = count[j] << 32 | j
                if best is None or key < best:
                    best, col = key, j
        return col

    def _pivot(self, i: int, j: int) -> None:
        rows, count, head, added, link = self.rows, self.count, self.head, self.added, self.link
        prow = rows.pop(i)
        entries = self.entries - len(prow)
        for jj in prow:
            count[jj] -= 1
        v = prow[j]  # +-1, so 1/v = v
        rest = [(jj, vv) for jj, vv in prow.items() if jj != j]
        listed = self.members[self.start[j]:self.start[j + 1]]
        k = head[j]
        head[j], count[j] = -1, 0  # no row holds column j after this pivot
        while k >= 0:
            listed.append(added[k])
            k = link[k]
        for r in listed:
            row = rows.get(r)
            if row is None:
                continue  # the pivot row, or a row eliminated to nothing
            m = row.pop(j, 0) * v  # the pivot column clears to 0 in every row
            if not m:
                continue  # the row left column j, or is listed twice
            entries -= len(row) + 1
            for jj, vv in rest:
                cur = row.get(jj)
                if cur is None:  # fill-in
                    row[jj] = -m * vv
                    count[jj] += 1
                    link.append(head[jj])
                    head[jj] = len(added)
                    added.append(r)
                elif cur := cur - m * vv:
                    row[jj] = cur
                else:
                    del row[jj]
                    count[jj] -= 1
            entries += len(row)
            if not row:
                del rows[r]
                continue
            heappush(self.heap, len(row) << 32 | r)
        self.entries = entries
        self.pivots.append(j)
        if len(added) > max(entries, len(count)):  # a rebuild costs entries + columns
            self._index()

    def run(self) -> Rows:
        """Eliminate until no unit pivot remains; returns the residual.  A
        row with no unit entry is passed over: ``_pivot`` re-pushes each row
        it changes."""
        heap, rows = self.heap, self.rows
        while heap:
            key = heappop(heap)
            i = key & _LOW
            row = rows.get(i)
            if row is None or len(row) != key >> 32:
                continue  # stale entry
            j = self._pick_col(row)
            if j is not None:
                self._pivot(i, j)
        return rows


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
    column of each unit pivot appended.  An entry that is no int (a float, a
    Fraction, a str) raises ValueError.

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
    found = engine.pivots
    if engine.names:
        row_keys, col_keys = engine.names
        found = [col_keys[j] for j in found]
        _rename(residual, row_keys.__getitem__, col_keys.__getitem__)
    if pivots is not None:
        pivots.extend(found)
    return (1,) * len(found) + tuple(_dense_snf(residual))


def _rank_keys(rows: Rows) -> tuple[tuple[list[int], list[int]] | None, int]:
    """The old row and column keys in rank order, or None, and the number
    of column slots; renames the keys of ``rows`` (no empty row) in place to
    their ranks, unless they fit the column index already.

    A row key fits below 2**31, as it is an ``array('i')`` member; a column
    key is non-negative and below ``2 * entries + 1024``, as the index holds
    a slot for every column up to the largest.  Ranks keep the order of the
    keys, so the pivots and the factors are those of the original keys."""
    low = min(chain.from_iterable(rows.values()), default=0)
    high = max(chain.from_iterable(rows.values()), default=-1)
    if not rows or (
        min(rows) >= 0 and max(rows) < _ROW_LIMIT
        and low >= 0 and high < 2 * sum(map(len, rows.values())) + 1024
    ):
        return None, high + 1
    row_keys = sorted(rows)
    col_keys = sorted({j for row in rows.values() for j in row})
    row_rank = {k: r for r, k in enumerate(row_keys)}
    col_rank = {k: c for c, k in enumerate(col_keys)}
    _rename(rows, row_rank.__getitem__, col_rank.__getitem__)
    return (row_keys, col_keys), len(col_keys)


def _rename(rows: Rows, row_name, col_name) -> None:
    """Rename the keys of ``rows`` in place, keeping their order."""
    renamed = [(row_name(i), {col_name(j): v for j, v in row.items()}) for i, row in rows.items()]
    rows.clear()
    rows.update(renamed)


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
