"""One sample of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/child.py KIND SIZE --seed N [--trace FILE]

KIND is ``report`` (``hcomplex report --n-max SIZE``) or ``witness``
(``verify_witness`` then ``witness_payload`` on every admissible pair with
n <= SIZE, in an order shuffled by the seed, one JSON line per pair).  With
``--trace`` the same entry point runs with the outside-in wrappers of
tracer.py installed, and the spans and counters are written to FILE when it
returns.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path


def _witness_local(size: int, seed: int) -> int:
    # attribute lookups at call time, so installed wrappers are the ones called
    from hcomplex import witnesses

    pairs = witnesses.admissible_pairs(size)
    random.Random(seed).shuffle(pairs)
    out = sys.stdout
    for n, k in pairs:
        report = witnesses.verify_witness(n, k)
        payload = witnesses.witness_payload(n, k)
        out.write(json.dumps({"n": n, "k": k, "ok": report.ok,
                              "terms": report.term_count, "payload": payload}) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("kind", choices=("report", "witness"))
    parser.add_argument("size", type=int)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=Path)
    args = parser.parse_args()

    tracer = None
    if args.trace is not None:
        from tracer import Tracer

        tracer = Tracer(f"{args.kind}-{args.size}-seed{args.seed}")
        tracer.install()
    try:
        if args.kind == "witness":
            return _witness_local(args.size, args.seed)
        import hcomplex.cli

        return hcomplex.cli.main(
            ["report", "--n-max", str(args.size), "--no-cache", "--format", "json"]
        )
    finally:
        if tracer is not None:
            tracer.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main())
