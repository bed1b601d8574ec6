"""JSON/CSV/markdown artifacts and the per-n conjecture verification pipeline.

A conjecture row for one n runs the whole machine: both matchings are built
and verified, both Morse digraphs certified acyclic, Morse numbers checked
against the vanishing thresholds, homology computed, both sides' Morse
numbers checked to bound the Betti numbers, Betti symmetry checked,
and every admissible cycle witness for that n verified against the full face
table.  Homology costs one Smith form per boundary and one Betti table over
Z per row, whose free ranks the Morse inequalities and the symmetry check
read: through n = 7 the non-vanishing dimensions are read off it, beyond it
from the ranks over Q and F2, F3, F5, all counted off the same invariant
factors.  The verdict is PASS only if all of it holds and the observed
non-vanishing dimensions equal the predicted middle third.  Every row is
computed afresh; nothing is read from or written to disk.

From n = 7 on (``workers.MIN_FACES`` faces), on a machine that lets this
process run on two CPUs and has ``os.fork``, a row forks twice, one worker
at a time.  First (``scan_table``, shared with ``hcomplex morse``) a worker
finds the primal partner ids while this process builds the cover incidence.
Then a worker certifies the primal digraph, lets go of the table's words and
partner ids and computes the invariant factors, while this process checks
the primal matching, the dual one as its mirror (handed the primal report)
and the witnesses, lets go of its own words and certifies the dual digraph;
the worker returns only its certificate's verdict and the factors of each
boundary as a count of leading units and the factors after them, from which
this process rebuilds the factor memo.  Every other row, and every row on a
machine without a second CPU, runs in process, each worker's half last, with
the same results; a worker that fails raises here, never reads as a PASS.

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
    invariant_factors,
    nonzero_dims_via_ranks,
)
from .matching import MatchingMap, MatchingReport, build_matching, check_table, verify_well_defined
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
        for i, (word, bars) in enumerate(zip(table._words(), table.bars))
    ]
    return {"n": table.n, "faces": faces}


def matching_payload(table: FaceTable, matching: MatchingMap) -> dict:
    """Export {n, dual, pairs:[[lower, upper]], critical:[ids]}."""
    check_table(table, matching)
    partners, bars = matching.partners, table.bars
    pairs = sorted([f, g] for f, g in enumerate(partners) if g >= 0 and bars[f] < bars[g])
    critical = [f for f, g in enumerate(partners) if g < 0]
    return {"n": table.n, "dual": matching.dual, "pairs": pairs, "critical": critical}


def check_matching(
    table: FaceTable, matching: MatchingMap, primal: MatchingReport | None = None
) -> tuple[MatchingReport, tuple[str, ...], MorseNumbers]:
    """The well-definedness report (a dual one handed ``primal``, the primal
    report), its violations and the thresholds', and the Morse numbers."""
    report = verify_well_defined(table, matching, primal)
    numbers = morse_numbers(table, matching)
    return report, report.violations + check_thresholds(numbers).violations, numbers


def scan_table(table: FaceTable) -> MatchingMap:
    """The primal matching, once the cover incidence is built here while a
    worker runs ``build_matching`` (``workers.both``); the table adopts the
    matching's partner ids as its memo, so one array holds both."""
    _, matching = workers.both("primal partner ids", len(table), table.cover_incidence,
                               partial(build_matching, table))
    table._partners = matching.partners
    return matching


def certify_acyclic(table: FaceTable, matching: MatchingMap, digest: bool = False) -> tuple:
    """Whether the matching digraph's certificate is acyclic and re-checks; its digest or None."""
    g = build_digraph(table, matching)
    cert = check_acyclic(g)
    return cert.acyclic and verify_certificate(g, cert), cert.digest() if digest else None


def morse_payload(numbers: MorseNumbers, acyclic: bool, digest: str | None) -> dict:
    """Export {n, dual, m, acyclic, certificateDigest}; m is keyed by dimension."""
    return {
        "n": numbers.n,
        "dual": numbers.dual,
        "m": {str(d - 1): c for d, c in enumerate(numbers.m)},
        "acyclic": acyclic,
        "certificateDigest": digest,
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


def conjecture_row(n: int) -> ConjectureRow:
    """Run every verification for one n on a face table of its own, which
    lets go of its words before the dual digraph and the Smith forms.

    >>> conjecture_row(3)  # doctest: +NORMALIZE_WHITESPACE
    ConjectureRow(n=3, expected=(0,), observed=(0,), primal_morse_ok=True,
                  dual_morse_ok=True, acyclic_ok=True, symmetry_ok=True,
                  witness_ok=True)
    """
    table = enumerate_faces(n, max_n=n)
    matching = scan_table(table)  # before the next fork: both sides read them

    def here():
        report, *primal = check_matching(table, matching)
        dual_matching = build_matching(table, dual=True)
        _, *dual = check_matching(table, dual_matching, report)
        witness_ok = all(
            verify_witness(n, k, table).ok for m, k in admissible_pairs(n) if m == n
        )
        table.release_words()  # the last word reader has run
        dual_acyclic, _ = certify_acyclic(table, dual_matching)
        return primal, dual, dual_acyclic, witness_ok

    (primal, dual, dual_acyclic, witness_ok), (acyclic, factors) = workers.both(
        "primal digraph and Smith forms", len(table), here,
        partial(_primal_digraph_and_factors, table, matching),
    )
    table._invariants = {d: (1,) * units + rest for d, (units, rest) in factors.items()}
    bt = betti_table(table, "Z")
    observed = bt.nonzero_dims() if n <= 7 else nonzero_dims_via_ranks(table)
    primal_ok, dual_ok = (
        not violations and morse_inequalities(numbers, bt.betti).ok
        for violations, numbers in (primal, dual)
    )
    return ConjectureRow(
        n,
        tuple(sorted(expected_nonzero_dims(n))),
        tuple(sorted(observed)),
        primal_ok,
        dual_ok,
        acyclic and dual_acyclic,
        check_betti_symmetry(bt),
        witness_ok,
    )


def _primal_digraph_and_factors(table: FaceTable, matching: MatchingMap) -> tuple:
    """Whether the primal digraph is certified acyclic, then the invariant
    factors of every boundary, each as its count of leading units and the
    factors after them; the words, the partner memo and the partner ids of
    ``matching`` (emptied in place: the caller's ``partial`` holds it) go
    first, as the Smith forms read none of them."""
    acyclic, _ = certify_acyclic(table, matching)
    table.release_words()
    del matching.partners[:]
    invariant_factors(table, 0)
    return acyclic, {d: _units_and_rest(fs) for d, fs in table._invariants.items()}


def _units_and_rest(factors: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The number of 1s in ``factors`` and the factors after them: in a
    divisibility chain every 1 comes first."""
    units = factors.count(1)
    return units, factors[units:]


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
