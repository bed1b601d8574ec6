"""Command line surface: build, verify, and export every artifact.

Subcommands: build, match, morse, homology, witness, conjecture, report.
Exit codes: 0 when everything checks out, 1 when a verification is falsified,
2 on usage or resource errors (including the size ceilings).

Hard ceilings keep accidental big runs out: enumeration and matching stop at
n = 9, homology and the aggregate reports at n = 8.  ``--unsafe-budget``
lifts them.  Artifacts go to stdout or ``--out``; when a cache directory is
configured (flag first, HCOMPLEX_CACHE_DIR otherwise) verified payloads are
reused and stored there.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

from .cache import cache_load, cache_store, resolve_cache_dir
from .complexes import ENUM_CEILING, BudgetExceededError, FaceTable, enumerate_faces
from .homology import COEFFICIENTS, betti_table
from .matching import build_matching, verify_well_defined
from .morse import check_thresholds, morse_numbers
from .reports import (
    RENDER_FORMATS,
    ConjectureReport,
    betti_payload,
    conjecture_row,
    face_table_payload,
    matching_payload,
    morse_payload,
    render_betti_csv,
    render_morse_csv,
    render_report,
)
from .witnesses import verify_witness, witness_payload

HOMOLOGY_CEILING = 8


class Falsification(Exception):
    """A verification failed; the artifact contradicts a proven statement."""


def _note(args: argparse.Namespace, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


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


def _cached(
    args: argparse.Namespace, kind: str, n: int, build: Callable[[], dict]
) -> dict:
    directory = None if args.no_cache else resolve_cache_dir(args.cache_dir)
    if directory is not None:
        payload = cache_load(directory, kind, n)
        if payload is not None:
            _note(args, f"cache hit: {kind} n={n}")
            return payload
    payload = build()
    if directory is not None:
        cache_store(directory, kind, n, payload)
        _note(args, f"cache store: {kind} n={n}")
    return payload


def _table(args: argparse.Namespace, n: int) -> FaceTable:
    start = time.monotonic()
    table = enumerate_faces(n, max_n=n)
    _note(args, f"enumerated {len(table.faces)} faces in {time.monotonic()-start:.2f}s")
    return table


def _cmd_build(args: argparse.Namespace) -> int:
    _require(args.unsafe_budget or args.n <= ENUM_CEILING, f"n={args.n} exceeds n<={ENUM_CEILING}")
    payload = _cached(args, "faces", args.n, lambda: face_table_payload(_table(args, args.n)))
    _emit(_json(payload), args.out)
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    _require(args.unsafe_budget or args.n <= ENUM_CEILING, f"n={args.n} exceeds n<={ENUM_CEILING}")
    side = "dual" if args.dual else "primal"

    def build() -> dict:
        table = _table(args, args.n)
        matching = build_matching(table, dual=args.dual)
        report = verify_well_defined(table, matching)
        if not report.ok:
            raise Falsification(f"matching not well defined: {report.violations[:3]}")
        return matching_payload(table, matching)

    payload = _cached(args, f"matching-{side}", args.n, build)
    _emit(_json(payload), args.out)
    return 0


def _cmd_morse(args: argparse.Namespace) -> int:
    _require(args.unsafe_budget or args.n <= ENUM_CEILING, f"n={args.n} exceeds n<={ENUM_CEILING}")
    side = "dual" if args.dual else "primal"

    def build() -> dict:
        table = _table(args, args.n)
        matching = build_matching(table, dual=args.dual)
        thresholds = check_thresholds(morse_numbers(table, matching))
        if not thresholds.ok:
            raise Falsification(f"Morse numbers violate thresholds: {thresholds}")
        return morse_payload(table, matching)

    payload = _cached(args, f"morse-{side}", args.n, build)
    if not payload["acyclic"]:
        print("falsified: matching digraph has a directed cycle", file=sys.stderr)
        return 1
    _emit(render_morse_csv(payload) if args.format == "csv" else _json(payload), args.out)
    return 0


def _cmd_homology(args: argparse.Namespace) -> int:
    _require(
        args.unsafe_budget or args.n <= HOMOLOGY_CEILING,
        f"n={args.n} exceeds homology ceiling n<={HOMOLOGY_CEILING}",
    )
    payload = _cached(
        args,
        f"betti-{args.coefficients}",
        args.n,
        lambda: betti_payload(betti_table(_table(args, args.n), args.coefficients)),
    )
    _emit(render_betti_csv(payload) if args.format == "csv" else _json(payload), args.out)
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    report = verify_witness(args.n, args.k)
    if not report.ok:
        print(f"falsified: witness checks {report.checks}", file=sys.stderr)
        return 1
    payload = _cached(args, f"witness-k{args.k}", args.n, lambda: witness_payload(args.n, args.k))
    _emit(_json(payload), args.out)
    return 0


def _run_report(args: argparse.Namespace, fmt: str) -> int:
    _require(
        args.unsafe_budget or args.n_max <= HOMOLOGY_CEILING,
        f"n-max={args.n_max} exceeds homology ceiling n<={HOMOLOGY_CEILING}",
    )
    directory = None if args.no_cache else resolve_cache_dir(args.cache_dir)
    start = time.monotonic()
    rows = []
    for n in range(1, args.n_max + 1):
        if args.time_budget and time.monotonic() - start > args.time_budget:
            print(f"error: time budget exceeded before n={n}", file=sys.stderr)
            return 2
        rows.append(conjecture_row(n, directory))
        _note(args, f"n={n}: {rows[-1].verdict} ({time.monotonic()-start:.1f}s elapsed)")
    report = ConjectureReport(tuple(rows))
    _emit(render_report(report, fmt), args.out)
    if not report.all_pass:
        print("falsified: some row did not PASS", file=sys.stderr)
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
        sp.add_argument("--cache-dir", help="cache directory (else HCOMPLEX_CACHE_DIR)")
        sp.add_argument("--no-cache", action="store_true", help="disable the cache")
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
    except (BudgetExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
