"""Self-tests of the benchmark on tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer

TINY = [("report", 5), ("witness", 9)]
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _counts(metrics: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in metrics.items() if not k.endswith("_s") and "overhead" not in k}


@pytest.mark.parametrize("kind,size", TINY)
def test_every_metric_name_is_emitted_and_checks_pass(kind, size):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        checks, metrics, _ = run.run_workload(kind, size, seed=1, seconds=0, trace=trace)
        assert checks and all(checks)
        assert set(metrics) == {m["name"] for m in SPEC[section]}
        assert all(isinstance(v, (int, float)) for v in metrics.values())


def test_traced_counts_repeat_exactly():
    runs = [run.run_workload("report", 5, seed=s, seconds=0, trace=True)[1] for s in (1, 2)]
    assert _counts(runs[0]) == _counts(runs[1])
    m = runs[0]
    assert m["complexes.faces"] == 1 + 2 + 6 + 24 + 120
    assert m["snf.eliminations"] == m["homology.boundary_matrix.calls"] == 10
    assert m["snf.eliminations_per_boundary"] == 1.0
    assert m["homology.boundary_reuse"] == 1.0


def test_witness_order_follows_seed_but_digest_does_not():
    orders = []
    for seed in (1, 2):
        run.run_workload("witness", 9, seed=seed, seconds=0, trace=False)
        lines = (run.OUT / f"witness-9-seed{seed}.out").read_text().splitlines()
        orders.append([(r["n"], r["k"]) for r in map(json.loads, lines)])
        assert run.witness_digest([json.loads(line) for line in lines]) == run.WITNESS_SHA256[9]
    assert orders[0] != orders[1] and sorted(orders[0]) == sorted(orders[1])


@pytest.mark.parametrize("kind,size", TINY)
def test_tampered_expectation_counts_as_failure(kind, size):
    expect = run.expected(kind, size)
    if kind == "report":
        tampered = expect.replace(b'"PASS"', b'"FAIL"', 1)
    else:
        tampered = "0" * 64
    checks, _, _ = run.run_workload(kind, size, seed=1, seconds=0, trace=False, expect=tampered)
    assert 0 < checks.count(False) < len(checks)


@pytest.mark.parametrize("kind,size", TINY)
def test_failed_child_is_a_failed_check_not_an_error(kind, size):
    checks = run.check(kind, size, 1, b"", run.expected(kind, size))
    assert checks and not any(checks.values())


def test_a_layer_reading_zero_is_a_failed_check():
    names = {m["name"] for m in SPEC["per_layer"]}
    for kind, size in TINY:
        assert set(tracer.covered(kind, size)) <= names
    layer = dict.fromkeys(tracer.covered("witness", 24), 1.0)
    assert all(run.coverage_checks("witness", 24, layer).values())
    layer["perms.face_from_chain.calls"] = 0
    checks = run.coverage_checks("witness", 24, layer)
    assert [name for name, ok in checks.items() if not ok] == ["covered_perms.face_from_chain.calls"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "test_*.py", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-n8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
