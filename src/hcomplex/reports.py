"""JSON/CSV/markdown artifacts and the per-n conjecture verification pipeline.

A conjecture row for one n runs the whole machine: both matchings are built
and verified, both Morse digraphs certified acyclic, Morse numbers checked
against the vanishing thresholds, homology computed, both sides' Morse
numbers checked to bound the Betti numbers, Betti symmetry checked,
and every admissible cycle witness for that n verified against the full face
table.  Homology costs one Smith form per boundary: through n = 7 the
non-vanishing dimensions are read over Z, beyond it from the ranks over Q
and F2, F3, F5, all counted off the same invariant factors.  The verdict is
PASS only if all of it holds and the observed non-vanishing dimensions equal
the predicted middle third.  Every row is computed afresh; nothing is read
from or written to disk.

From n = 7 on (``workers.MIN_FACES`` faces), on a machine that lets this
process run on two CPUs and has ``os.fork``, a row uses two processes and
at most one worker at a time.  The upper half of the cover incidence and of
the primal partner ids are computed in a worker while this process computes
the lower half.  Then, with both matchings built, a worker checks the dual
side while this process checks the primal side, computes the homology and
verifies the witnesses; the worker returns only the small ``MatchingSide``.
Every other row, and every row on a machine without a second CPU, runs in
process.  The results are the same either way, and a worker that fails
raises in this process, so it can never turn into a PASS.

All payload builders emit deterministically ordered structures, so identical
inputs give byte-identical serializations.
"""

from __future__ import annotations

import json
from functools import partial

from . import workers
from .complexes import FaceTable, enumerate_faces
from .homology import (
    BettiTable,
    betti_table,
    check_betti_symmetry,
    expected_nonzero_dims,
    nonzero_dims_via_ranks,
)
from .matching import MatchingMap, build_matching, verify_well_defined
from .morse import (
    MorseNumbers,
    build_digraph,
    check_acyclic,
    check_thresholds,
    morse_inequalities,
    morse_numbers,
    verify_certificate,
)
from .perms import core_blocks, frozen_slots
from .witnesses import admissible_pairs, verify_witness

RENDER_FORMATS = ("json", "csv", "md")


def face_table_payload(table: FaceTable) -> dict:
    """Export {n, faces:[{id, perm, blocks, dim}]} with sentinel-free blocks."""
    faces = [
        {"id": i, "perm": list(word[1:-1]), "blocks": list(map(list, core_blocks(word))),
         "dim": bars - 1}
        for i, (word, bars) in enumerate(zip(table.words, table.bars))
    ]
    return {"n": table.n, "faces": faces}


def matching_payload(table: FaceTable, matching: MatchingMap) -> dict:
    """Export {n, dual, pairs:[[lower, upper]], critical:[ids]}."""
    pairs = sorted([a, b] for a, b in matching.pairs.items() if table.bars[a] < table.bars[b])
    critical = [i for i in range(len(table)) if i not in matching.pairs]
    return {"n": table.n, "dual": matching.dual, "pairs": pairs, "critical": critical}


@frozen_slots
class MatchingSide:
    """One matching, checked: well-definedness and threshold failures, Morse
    numbers, whether the digraph certificate is acyclic and re-checks, and
    the certificate's digest when it was asked for (None otherwise)."""

    violations: tuple[str, ...]
    numbers: MorseNumbers
    acyclic: bool
    digest: str | None


def check_matching_side(
    table: FaceTable, matching: MatchingMap, digest: bool = False
) -> MatchingSide:
    """Run every check of one matching; shared by report rows and ``morse``,
    which alone asks for the certificate digest."""
    report = verify_well_defined(table, matching)
    numbers = morse_numbers(table, matching)
    violations = report.violations + check_thresholds(numbers).violations
    g = build_digraph(table, matching)
    cert = check_acyclic(g)
    ok = cert.acyclic and verify_certificate(g, cert)
    return MatchingSide(violations, numbers, ok, cert.digest() if digest else None)


def morse_payload(side: MatchingSide) -> dict:
    """Export {n, dual, m, acyclic, certificateDigest}; m is keyed by dimension."""
    return {
        "n": side.numbers.n,
        "dual": side.numbers.dual,
        "m": {str(d - 1): c for d, c in enumerate(side.numbers.m)},
        "acyclic": side.acyclic,
        "certificateDigest": side.digest,
    }


def betti_payload(bt: BettiTable) -> dict:
    """Export {n, coeff, betti:[by dim from -1], torsion:[[dim, [factors]]]}."""
    return {
        "n": bt.n,
        "coeff": bt.coefficients,
        "betti": [bt.betti[d] for d in range(-1, bt.n - 1)],
        "torsion": [[d, list(fs)] for d, fs in sorted(bt.torsion.items())],
    }


# The pass/fail checks of a report row, in column order: (payload and CSV
# name, markdown column, ConjectureRow field).  The window check compares
# the observed dimensions with the expected ones.
CHECKS = (
    ("primalMorseOk", "primal", "primal_morse_ok"),
    ("dualMorseOk", "dual", "dual_morse_ok"),
    ("acyclicOk", "acyclic", "acyclic_ok"),
    ("symmetryOk", "symmetry", "symmetry_ok"),
    ("witnessOk", "witness", "witness_ok"),
)


@frozen_slots
class ConjectureRow:
    n: int
    expected: tuple[int, ...]
    observed: tuple[int, ...]
    primal_morse_ok: bool
    dual_morse_ok: bool
    acyclic_ok: bool
    symmetry_ok: bool
    witness_ok: bool

    def failed_checks(self) -> tuple[str, ...]:
        """The payload names of the checks this row fails; the window check
        is named by its observed dimensions."""
        window = () if self.expected == self.observed else ("observedNonzeroDims",)
        return window + tuple(name for name, _, field in CHECKS if not getattr(self, field))

    @property
    def verdict(self) -> str:
        return "FAIL" if self.failed_checks() else "PASS"


@frozen_slots
class ConjectureReport:
    rows: tuple[ConjectureRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.verdict == "PASS" for r in self.rows)


def conjecture_row(n: int, *, table: FaceTable | None = None) -> ConjectureRow:
    """Run every verification for one n, on ``table`` if one is given; a
    table for another n raises ValueError.

    >>> conjecture_row(3)  # doctest: +NORMALIZE_WHITESPACE
    ConjectureRow(n=3, expected=(0,), observed=(0,), primal_morse_ok=True,
                  dual_morse_ok=True, acyclic_ok=True, symmetry_ok=True,
                  witness_ok=True)
    """
    if table is None:
        table = enumerate_faces(n, max_n=n)
    elif table.n != n:
        raise ValueError(f"conjecture_row(n={n}) was given a face table for n={table.n}")
    table.cover_incidence()  # before the worker forks: both sides read it
    primal_matching = build_matching(table)

    def here():
        nonlocal primal_matching
        primal = check_matching_side(table, primal_matching)
        primal_matching = None  # not held through the Smith forms
        if n <= 7:
            bt = betti_table(table, "Z")
            observed = bt.nonzero_dims()
        else:
            bt = betti_table(table, "Q")
            observed = nonzero_dims_via_ranks(table)
        witness_ok = all(
            verify_witness(n, k, table).ok for m, k in admissible_pairs(n) if m == n
        )
        return primal, bt, observed, witness_ok

    (primal, bt, observed, witness_ok), dual = workers.both(
        "dual matching side", len(table), here,
        partial(check_matching_side, table, build_matching(table, dual=True)),
    )
    primal_ok, dual_ok = (
        not side.violations and morse_inequalities(side.numbers, bt.betti).ok
        for side in (primal, dual)
    )
    return ConjectureRow(
        n,
        tuple(sorted(expected_nonzero_dims(n))),
        tuple(sorted(observed)),
        primal_ok,
        dual_ok,
        primal.acyclic and dual.acyclic,
        check_betti_symmetry(bt),
        witness_ok,
    )


def conjecture_payload(report: ConjectureReport) -> dict:
    rows = [
        {
            "n": r.n,
            "expectedNonzeroDims": list(r.expected),
            "observedNonzeroDims": list(r.observed),
            **{name: getattr(r, field) for name, _, field in CHECKS},
            "verdict": r.verdict,
        }
        for r in report.rows
    ]
    return {"rows": rows}


def _dims(dims: tuple[int, ...]) -> str:
    return "{" + ",".join(map(str, dims)) + "}"


def render_report(report: ConjectureReport, fmt: str = "md") -> str:
    """Deterministic serialization of a conjecture report.

    >>> print(render_report(ConjectureReport(()), "csv"))
    n,expectedNonzeroDims,observedNonzeroDims,primalMorseOk,dualMorseOk,acyclicOk,symmetryOk,witnessOk,verdict
    <BLANKLINE>
    """
    if fmt == "json":
        return json.dumps(conjecture_payload(report), indent=2, sort_keys=True) + "\n"
    flags = [[getattr(r, field) for _, _, field in CHECKS] for r in report.rows]
    if fmt == "csv":
        head = ["n", "expectedNonzeroDims", "observedNonzeroDims", *(c[0] for c in CHECKS), "verdict"]
        lines = [head] + [
            [str(r.n), ";".join(map(str, r.expected)), ";".join(map(str, r.observed)),
             *(str(ok).lower() for ok in oks), r.verdict]
            for r, oks in zip(report.rows, flags)
        ]
        return "".join(",".join(cells) + "\n" for cells in lines)
    if fmt == "md":
        head = ["n", "expected nonzero dims", "observed", *(c[1] for c in CHECKS), "verdict"]
        lines = [head] + [
            [str(r.n), _dims(r.expected), _dims(r.observed),
             *("ok" if ok else "FAIL" for ok in oks), r.verdict]
            for r, oks in zip(report.rows, flags)
        ]
        rows = ["| " + " | ".join(cells) + " |" for cells in lines]
        rows.insert(1, "|" + "---|" * len(head))
        return "\n".join(rows) + "\n"
    raise ValueError(f"format must be one of {RENDER_FORMATS}")


def render_betti_csv(payload: dict) -> str:
    lines = ["dim,betti,torsion"]
    torsion = {d: fs for d, fs in payload["torsion"]}
    for i, b in enumerate(payload["betti"]):
        d = i - 1
        lines.append(f"{d},{b},{';'.join(map(str, torsion.get(d, [])))}")
    return "\n".join(lines) + "\n"


def render_morse_csv(payload: dict) -> str:
    lines = ["dim,critical"]
    for d in sorted(payload["m"], key=int):
        lines.append(f"{d},{payload['m'][d]}")
    return "\n".join(lines) + "\n"
