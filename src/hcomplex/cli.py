"""Command line surface: build, verify, and export every artifact.

Subcommands: build, match, morse, homology, witness, conjecture, report.
Exit codes: 0 when everything checks out, 1 when a verification is falsified,
2 on usage, resource or I/O errors (the size ceilings, an ``--out`` that
cannot be written, a worker that dies without its result).

Hard ceilings keep accidental big runs out: enumeration and matching stop at
n = 9, homology and the aggregate reports at n = 8, and cycle witnesses
(2^(k+1) terms) at k = 10.  ``--unsafe-budget`` lifts them.  Artifacts go
to stdout or ``--out``.  Every command prints only what it has just computed
and verified; nothing is read back from disk, and ``--out`` is the only file
written.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Sequence

from .complexes import ENUM_CEILING, BudgetExceededError, FaceTable, enumerate_faces
from .homology import COEFFICIENTS, betti_table
from .matching import build_matching, verify_well_defined
from .reports import (
    RENDER_FORMATS,
    ConjectureReport,
    betti_payload,
    certify_acyclic,
    check_matching,
    conjecture_row,
    face_table_payload,
    matching_payload,
    morse_payload,
    render_betti_csv,
    render_morse_csv,
    render_report,
)
from .witnesses import verify_witness

HOMOLOGY_CEILING = 8
WITNESS_CEILING = 10


class Falsification(Exception):
    """A verification failed; the artifact contradicts a proven statement."""


def _note(args: argparse.Namespace, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _peak_rss_mb() -> float:
    """The larger peak RSS of this process and of its largest reaped worker."""
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024  # Linux reports KiB


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BudgetExceededError(message + " (override with --unsafe-budget)")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _table(args: argparse.Namespace, n: int) -> FaceTable:
    _require(args.unsafe_budget or n <= ENUM_CEILING, f"n={n} exceeds n<={ENUM_CEILING}")
    start = time.monotonic()
    table = enumerate_faces(n, max_n=n)
    _note(args, f"enumerated {len(table)} faces in {time.monotonic()-start:.2f}s, "
          f"peak RSS {_peak_rss_mb():.1f} MB")
    return table


def _cmd_build(args: argparse.Namespace) -> int:
    _emit(_json(face_table_payload(_table(args, args.n))), args.out)
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    table = _table(args, args.n)
    matching = build_matching(table, dual=args.dual)
    report = verify_well_defined(table, matching)
    if not report.ok:
        raise Falsification(f"matching not well defined: {report.violations[:3]}")
    _emit(_json(matching_payload(table, matching)), args.out)
    return 0


def _cmd_morse(args: argparse.Namespace) -> int:
    table = _table(args, args.n)
    matching = build_matching(table, dual=args.dual)
    _, violations, numbers = check_matching(table, matching)
    if violations:
        raise Falsification(f"matching or Morse numbers: {violations[:3]}")
    acyclic, digest = certify_acyclic(table, matching, digest=True)
    if not acyclic:
        raise Falsification("matching digraph not certified acyclic")
    payload = morse_payload(numbers, acyclic, digest)
    _emit(render_morse_csv(payload) if args.format == "csv" else _json(payload), args.out)
    return 0


def _cmd_homology(args: argparse.Namespace) -> int:
    _require(
        args.unsafe_budget or args.n <= HOMOLOGY_CEILING,
        f"n={args.n} exceeds homology ceiling n<={HOMOLOGY_CEILING}",
    )
    payload = betti_payload(betti_table(_table(args, args.n), args.coefficients))
    _emit(render_betti_csv(payload) if args.format == "csv" else _json(payload), args.out)
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    _require(
        args.unsafe_budget or args.k <= WITNESS_CEILING,
        f"k={args.k} exceeds witness ceiling k<={WITNESS_CEILING}",
    )
    report = verify_witness(args.n, args.k)
    if not report.ok:
        raise Falsification(f"witness checks {report.checks}")
    _emit(_json(report.payload()), args.out)
    return 0


def _run_report(args: argparse.Namespace, fmt: str) -> int:
    if args.n_max < 1:
        raise ValueError(f"--n-max must be at least 1, got {args.n_max}")
    if not args.time_budget >= 0:
        raise ValueError(f"--time-budget must be 0 (off) or positive, got {args.time_budget}")
    _require(
        args.unsafe_budget or args.n_max <= HOMOLOGY_CEILING,
        f"n-max={args.n_max} exceeds homology ceiling n<={HOMOLOGY_CEILING}",
    )
    start = time.monotonic()
    rows = []
    for n in range(1, args.n_max + 1):
        if args.time_budget and time.monotonic() - start > args.time_budget:
            print(f"error: time budget exceeded before n={n}", file=sys.stderr)
            return 2
        rows.append(conjecture_row(n))
        _note(args, f"n={n}: {rows[-1].verdict} ({time.monotonic()-start:.1f}s elapsed, "
              f"peak RSS {_peak_rss_mb():.1f} MB)")
    report = ConjectureReport(tuple(rows))
    _emit(render_report(report, fmt), args.out)
    if not report.all_pass:
        for row in report.rows:
            if row.failed_checks():
                print(f"falsified: n={row.n}: {', '.join(row.failed_checks())}", file=sys.stderr)
        return 1
    return 0


def _cmd_conjecture(args: argparse.Namespace) -> int:
    return _run_report(args, "md")


def _cmd_report(args: argparse.Namespace) -> int:
    return _run_report(args, args.format)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcomplex",
        description="Build, verify, and export the descent complex machinery.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, n_max: bool = False) -> None:
        if n_max:
            sp.add_argument("--n-max", type=int, required=True, help="largest n to run")
        else:
            sp.add_argument("--n", type=int, required=True, help="number of letters")
        sp.add_argument("--out", help="write the artifact here instead of stdout")
        sp.add_argument(
            "--no-cache", action="store_true",
            help="accepted for old scripts; has no effect (nothing is cached)",
        )
        sp.add_argument("--unsafe-budget", action="store_true", help="lift size ceilings")
        sp.add_argument(
            "-v", "--verbose", action="count", default=argparse.SUPPRESS,
            help="progress notes on stderr",
        )

    sp = sub.add_parser("build", help="enumerate the face table")
    common(sp)
    sp.set_defaults(func=_cmd_build)

    sp = sub.add_parser("match", help="build and verify a matching")
    common(sp)
    sp.add_argument("--dual", action="store_true", help="order-reversed matching")
    sp.set_defaults(func=_cmd_match)

    sp = sub.add_parser("morse", help="Morse numbers and acyclicity certificate")
    common(sp)
    sp.add_argument("--dual", action="store_true", help="order-reversed matching")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_morse)

    sp = sub.add_parser("homology", help="reduced Betti numbers and torsion")
    common(sp)
    sp.add_argument("--coefficients", choices=COEFFICIENTS, default="Z")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_homology)

    sp = sub.add_parser("witness", help="free-face cycle witness")
    common(sp)
    sp.add_argument("--k", type=int, required=True, help="witness dimension")
    sp.set_defaults(func=_cmd_witness)

    sp = sub.add_parser("conjecture", help="run all verifications, print the table")
    common(sp, n_max=True)
    sp.add_argument("--time-budget", type=float, default=0.0, help="seconds, 0 = off")
    sp.set_defaults(func=_cmd_conjecture)

    sp = sub.add_parser("report", help="same as conjecture, in json/csv/md")
    common(sp, n_max=True)
    sp.add_argument("--format", choices=RENDER_FORMATS, default="json")
    sp.add_argument("--time-budget", type=float, default=0.0, help="seconds, 0 = off")
    sp.set_defaults(func=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Falsification as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"falsified: internal invariant broke: {exc}", file=sys.stderr)
        return 1
    except (BudgetExceededError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
