"""Outside-in tracing of hcomplex: timing wrappers swapped into module namespaces.

Nothing under ``src/`` knows about this module.  ``install`` replaces each
traced public function, under every name any ``hcomplex`` module binds it to,
with a wrapper; callers then reach the wrapper through their own global
lookup.  Spanned functions get one span per call.  Hot functions (called once
per face or per cycle term) only bump a counter, because a span per call
would cost more than the call.  A few wrappers also read their result to
count work (faces, arcs, nnz, unit pivots, witness terms); that reading runs
after the span has closed.

Spans and counters stay in memory; ``Tracer.dump`` writes them as JSON lines
when the run ends.  ``layer_metrics`` turns such a file back into the
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# (module, function) pairs that get one span per call.
SPANNED = (
    ("cli", "main"),
    ("reports", "conjecture_row"),
    ("complexes", "enumerate_faces"),
    ("complexes", "is_free_face"),
    ("matching", "build_matching"),
    ("matching", "verify_well_defined"),
    ("matching", "critical_faces"),
    ("morse", "build_digraph"),
    ("morse", "check_acyclic"),
    ("morse", "morse_numbers"),
    ("morse", "verify_certificate"),
    ("homology", "boundary_matrix"),
    ("homology", "betti_table"),
    ("homology", "nonzero_dims_via_ranks"),
    ("homology", "boundary_of_chain"),
    ("snf", "smith_normal_form"),
    ("snf", "rank_q"),
    ("snf", "rank_mod_p"),
    ("witnesses", "verify_witness"),
    ("witnesses", "cycle_witness"),
    ("witnesses", "has_local_parent"),
    ("witnesses", "witness_payload"),
)

# Hot functions: a call counter each, no span.
COUNTED = (
    ("complexes", "covers_down"),
    ("matching", "partner"),
    ("perms", "face_from_chain"),
    ("perms", "face_from_perm"),
)

# Span names whose self time is reported.  The matching is split by side
# because primal and dual cost differently.
SELF_TIME_SPANS = tuple(
    f"{module}.{name}{side}"
    for module, name in SPANNED
    for side in ((".primal", ".dual") if name == "build_matching" else ("",))
)


# Per-layer metrics each child kind runs, so they read above 0 (the README's
# layer table).  run.py counts a 0 among them as a failed check.
COVERED = {
    "report": (
        "cli.main.self_s", "reports.conjecture_row.self_s", "reports.row_n8_s",
        "complexes.enumerate_faces.self_s", "complexes.is_free_face.self_s",
        "complexes.faces", "complexes.covers_down.calls", "complexes.covers_per_face",
        "matching.build_matching.primal.self_s", "matching.build_matching.dual.self_s",
        "matching.verify_well_defined.self_s", "matching.critical_faces.self_s",
        "matching.partner.calls", "matching.critical", "matching.critical_ratio",
        "morse.build_digraph.self_s", "morse.check_acyclic.self_s",
        "morse.morse_numbers.self_s", "morse.verify_certificate.self_s", "morse.arcs",
        "homology.boundary_matrix.self_s", "homology.betti_table.self_s",
        "homology.nonzero_dims_via_ranks.self_s", "homology.boundary_matrix.calls",
        "homology.distinct_boundaries", "homology.boundary_reuse", "homology.nnz",
        "snf.smith_normal_form.self_s", "snf.rank_q.self_s", "snf.rank_mod_p.self_s",
        "snf.eliminations", "snf.eliminations_per_boundary", "snf.unit_pivots",
    ),
    "witness": (
        "homology.boundary_of_chain.self_s", "perms.face_from_chain.calls",
        "perms.face_from_perm.calls", "witnesses.verify_witness.self_s",
        "witnesses.cycle_witness.self_s", "witnesses.has_local_parent.self_s",
        "witnesses.witness_payload.self_s", "witnesses.terms",
    ),
}
# Report rows from n = 8 on find their homology by ranks over Q and F_p
# instead of over Z, so these only run once the report reaches n = 8.
FROM_ROW_8 = (
    "reports.row_n8_s", "homology.nonzero_dims_via_ranks.self_s",
    "snf.rank_q.self_s", "snf.rank_mod_p.self_s",
)


def covered(kind: str, size: int) -> tuple[str, ...]:
    """The metrics of COVERED[kind] that a run of that size reaches."""
    if kind == "report" and size < 8:
        return tuple(name for name in COVERED[kind] if name not in FROM_ROW_8)
    return COVERED[kind]


def _span_name(module: str, name: str, args: tuple, kwargs: dict) -> str:
    if name == "build_matching":
        dual = kwargs.get("dual", args[1] if len(args) > 1 else False)
        return f"matching.build_matching.{'dual' if dual else 'primal'}"
    return f"{module}.{name}"


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # [name, start, end, parent index, n]; the list index is the span id,
        # n the first argument when that is an int (the size of the complex)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.boundaries: set[tuple[int, int]] = set()

    def _observe(self, module: str, name: str, args: tuple, result) -> None:
        counts = self.counts
        if name == "enumerate_faces":
            counts["complexes.faces"] += len(result)
        elif name == "build_matching":
            faces = len(args[0])
            counts["matching.faces"] += faces
            counts["matching.critical"] += faces - len(result.pairs)
        elif name == "build_digraph":
            counts["morse.arcs"] += result.arc_count
        elif name == "boundary_matrix":
            counts["homology.boundary_matrix.calls"] += 1
            counts["homology.nnz"] += result.nnz
            self.boundaries.add((result.n, result.dim))
        elif module == "snf":
            counts["snf.eliminations"] += 1
            if name == "smith_normal_form":
                counts["snf.unit_pivots"] += sum(1 for v in result if v == 1)
        elif name == "verify_witness":
            counts["witnesses.terms"] += result.term_count

    def spanned(self, module: str, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            n = args[0] if args and type(args[0]) is int else None
            spans.append(
                [_span_name(module, name, args, kwargs), perf_counter(), None,
                 stack[-1] if stack else None, n]
            )
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            self._observe(module, name, args, result)
            return result

        return wrapper

    def counted(self, module: str, name: str, fn):
        counts, key = self.counts, f"{module}.{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Swap every traced function for its wrapper in every hcomplex module.

        A name bound by ``from .x import f`` is a separate reference in the
        importing module, so each binding is replaced, the defining module's
        own included.
        """
        importlib.import_module("hcomplex.cli")  # imports every layer
        for targets, wrap in ((SPANNED, self.spanned), (COUNTED, self.counted)):
            for module, name in targets:
                original = getattr(importlib.import_module(f"hcomplex.{module}"), name)
                wrapper = wrap(module, name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "hcomplex" and not mod_name.startswith("hcomplex."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def dump(self, path: Path) -> None:
        """Write one JSON line per span, then one line with the counters."""
        with open(path, "w") as out:
            for i, (name, start, end, parent, n) in enumerate(self.spans):
                out.write(json.dumps({"run": self.run_id, "id": i, "name": name, "n": n,
                                      "start": start, "end": end, "parent": parent}) + "\n")
            counts = dict(self.counts, **{"homology.distinct_boundaries": len(self.boundaries)})
            out.write(json.dumps({"run": self.run_id, "counts": counts}) + "\n")


def read_trace(path: Path) -> tuple[list[dict], dict[str, int]]:
    spans, counts = [], {}
    with open(path) as lines:
        for line in lines:
            record = json.loads(line)
            if "counts" in record:
                counts = record["counts"]
            else:
                spans.append(record)
    return spans, counts


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus the time children cover.

    The traced program is single-threaded, so a span's children never
    overlap and their durations add up.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - covered[s["id"]]
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def _ratio(num: float, den: float) -> float:
    return round(num / den, 4) if den else 0.0


def layer_metrics(spans: list[dict], counts: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of one traced run, by BENCHMARK.json name.

    Layers a workload never calls report 0; ``covered`` names the ones that
    must not.
    """
    own = self_times(spans)
    out: dict[str, float] = {f"{name}.self_s": own.get(name, 0.0) for name in SELF_TIME_SPANS}
    c = Counter(counts)
    out["reports.row_n8_s"] = sum(
        s["end"] - s["start"] for s in spans
        if s["name"] == "reports.conjecture_row" and s["n"] == 8
    )
    out.update({
        "complexes.faces": c["complexes.faces"],
        "complexes.covers_down.calls": c["complexes.covers_down.calls"],
        "complexes.covers_per_face": _ratio(c["complexes.covers_down.calls"], c["complexes.faces"]),
        "matching.partner.calls": c["matching.partner.calls"],
        "matching.critical": c["matching.critical"],
        "matching.critical_ratio": _ratio(c["matching.critical"], c["matching.faces"]),
        "morse.arcs": c["morse.arcs"],
        "homology.boundary_matrix.calls": c["homology.boundary_matrix.calls"],
        "homology.distinct_boundaries": c["homology.distinct_boundaries"],
        "homology.boundary_reuse": _ratio(c["homology.distinct_boundaries"],
                                          c["homology.boundary_matrix.calls"]),
        "homology.nnz": c["homology.nnz"],
        "snf.eliminations": c["snf.eliminations"],
        "snf.eliminations_per_boundary": _ratio(c["snf.eliminations"],
                                                c["homology.distinct_boundaries"]),
        "snf.unit_pivots": c["snf.unit_pivots"],
        "perms.face_from_chain.calls": c["perms.face_from_chain.calls"],
        "perms.face_from_perm.calls": c["perms.face_from_perm.calls"],
        "witnesses.terms": c["witnesses.terms"],
    })
    return out
