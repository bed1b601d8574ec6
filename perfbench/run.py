"""The hcomplex benchmark: two workloads, output checks, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every sample is a fresh child interpreter, one at a time (a closed
loop with one client).  Samples repeat while the next one should end within
S seconds, at least once.  With ``--trace 0`` the last line of stdout holds the end-to-end
metrics; with ``--trace 1`` each sample is an untraced child followed by a
traced one, and the last line holds the per-layer metrics.  The lines before
it give provenance and a readable summary.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"

# name -> (child kind, size): n-max of the report, and the largest n of the
# witness pairs
WORKLOADS = {
    "report-n8": ("report", 8),
    "witness-local": ("witness", 24),
}

# Frozen payload digests of the seed code.  Sizes other than the workload's
# serve the self-tests.
WITNESS_SHA256 = {
    24: "7897758dc832b76523ecac3dc073c0328ac4775e123aad001e58429f40c2a1e3",
    9: "46e6b750276ecf8efe3b5d40cb4cbec3496dcecdeda73e4b5f8ce2ebcb4076f2",
}

# setup_s: timed imports taken before the first round and after every round,
# so that they fall in more than one stretch of the machine's speed
SETUP_BURST = 7
SETUP_CODE = (
    "import time; start = time.perf_counter(); import hcomplex.cli; "
    "print(time.perf_counter() - start)"
)
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "HCOMPLEX_CACHE_DIR"}
    env.update(SINGLE_THREAD, PYTHONPATH=str(ROOT / "src"))
    return env


def spawn(argv: list[str], stdout_path: Path) -> tuple[float, float, int]:
    """Run one child to exit: (wall seconds, its own peak RSS in MB, exit code).

    ``os.wait4`` returns the resource usage of that child alone, unlike
    ``RUSAGE_CHILDREN``, which keeps the maximum over every child so far.
    """
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024, proc.returncode


def measure_setup(count: int) -> list[float]:
    """Seconds a fresh interpreter spends in ``import hcomplex.cli``, ``count`` times.

    The child times the import itself, so starting the interpreter is not
    counted.  The bytecode cache is written by an untimed import before the
    first sample (see ``run_workload``).
    """
    argv = [sys.executable, "-c", SETUP_CODE]
    sink = OUT / "setup.out"
    times = []
    for _ in range(count):
        _, _, code = spawn(argv, sink)
        if code != 0:
            raise RuntimeError(f"import hcomplex.cli failed, see {sink.with_suffix('.err')}")
        times.append(float(sink.read_text()))
    return times


# -- output checks -------------------------------------------------------------


def expected(kind: str, size: int):
    """The frozen expectation a sample's output is checked against."""
    if kind == "report":
        rows = json.loads((BENCH / "expected" / "report-n8.json").read_text())["rows"]
        return (json.dumps({"rows": rows[:size]}, indent=2, sort_keys=True) + "\n").encode()
    return WITNESS_SHA256[size]


def check(kind: str, size: int, code: int, stdout: bytes, expect) -> dict[str, bool]:
    """Named pass/fail checks of one sample; a mismatch is a failed check, never an error."""
    checks = {"exit_code_0": code == 0}
    if kind == "report":
        checks["stdout_identical"] = stdout == expect
        try:
            rows = json.loads(stdout)["rows"]
        except (ValueError, KeyError, TypeError):
            rows = []
        verdicts = {row.get("n"): row.get("verdict") for row in rows}
        for n in range(1, size + 1):
            checks[f"row_{n}_pass"] = verdicts.get(n) == "PASS"
    else:
        try:
            records = [json.loads(line) for line in stdout.splitlines()]
            pairs = sorted((r["n"], r["k"]) for r in records)
            digest = witness_digest(records)
        except (ValueError, KeyError, TypeError):
            records, pairs, digest = [], [], None
        # the admissible pairs, from 2k+3 <= n <= 3k+4 rather than from the program
        want = sorted(
            (n, k) for n in range(1, size + 1) for k in range(-1, n)
            if 2 * (k + 1) + 1 <= n <= 3 * (k + 1) + 1
        )
        checks["pairs_complete"] = pairs == want
        for r in records:
            checks[f"witness_{r['n']}_{r['k']}_ok"] = r.get("ok") is True
            checks[f"witness_{r['n']}_{r['k']}_terms"] = r.get("terms") == 2 ** (r["k"] + 1)
        checks["payload_sha256"] = digest == expect
    return checks


def witness_digest(records: list[dict]) -> str:
    """sha256 of the canonical payloads: sorted by (n, k), compact sorted-key JSON."""
    h = hashlib.sha256()
    for r in sorted(records, key=lambda r: (r["n"], r["k"])):
        h.update(json.dumps(r["payload"], sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


# -- samples -------------------------------------------------------------------


def sample(kind: str, size: int, seed: int, expect, trace_path: Path | None = None):
    """One child run: (wall seconds, peak RSS MB, checks)."""
    argv = [sys.executable, str(BENCH / "child.py"), kind, str(size), "--seed", str(seed)]
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    stdout_path = OUT / f"{kind}-{size}-seed{seed}{'-traced' if trace_path else ''}.out"
    elapsed, rss_mb, code = spawn(argv, stdout_path)
    return elapsed, rss_mb, check(kind, size, code, stdout_path.read_bytes(), expect)


def run_workload(kind: str, size: int, seed: int, seconds: float, trace: bool, expect=None):
    """Sample while the next round should end within ``seconds``, at least once.

    A round is one sample and a burst of ``setup_s`` imports, or with
    ``trace`` an untraced and a traced sample.  Returns (checks, metrics,
    samples): each timing is the median over its samples, and ``samples``
    holds the untraced verdicts and the setup times.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    if expect is None:
        expect = expected(kind, size)
    checks: list[bool] = []
    metrics: dict[str, float] = {}
    verdicts, rss, setups, traced_verdicts, layers, rounds = [], [], [], [], [], []
    start = time.perf_counter()
    if not trace:
        measure_setup(1)  # writes the bytecode cache; not counted
        setups += measure_setup(SETUP_BURST)
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        round_start = time.perf_counter()
        elapsed, rss_mb, sample_checks = sample(kind, size, seed, expect)
        verdicts.append(elapsed)
        rss.append(rss_mb)
        checks += sample_checks.values()
        if trace:
            trace_path = OUT / f"trace-{kind}-{size}-seed{seed}-{len(verdicts)}.jsonl"
            trace_path.unlink(missing_ok=True)
            elapsed, _, sample_checks = sample(kind, size, seed, expect, trace_path)
            traced_verdicts.append(elapsed)
            checks += sample_checks.values()
            spans, counts = tracer.read_trace(trace_path) if trace_path.exists() else ([], {})
            layers.append(tracer.layer_metrics(spans, counts))
            checks += coverage_checks(kind, size, layers[-1]).values()
        else:
            setups += measure_setup(SETUP_BURST)
        rounds.append(time.perf_counter() - round_start)
    if trace:
        for name in layers[0]:
            metrics[name] = statistics.median(layer[name] for layer in layers)
        metrics["bench.traced_verdict_s"] = statistics.median(traced_verdicts)
        metrics["bench.trace_overhead_ratio"] = (
            statistics.median(traced_verdicts) / statistics.median(verdicts)
        )
    else:
        metrics["verdict_s"] = statistics.median(verdicts)
        metrics["peak_rss_mb"] = statistics.median(rss)
        metrics["setup_s"] = statistics.median(setups)
    return checks, metrics, {"verdict_s": verdicts, "setup_s": setups}


def coverage_checks(kind: str, size: int, layer: dict[str, float]) -> dict[str, bool]:
    """One check per layer metric the workload must move: it reads above 0.

    A 0 there means calls went past the tracer's wrappers (say, through a
    new import path), which would otherwise read as a layer that got free.
    """
    return {f"covered_{name}": layer[name] > 0 for name in tracer.covered(kind, size)}


# -- provenance and output ---------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unavailable"


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            ).stdout.strip() or None
        except OSError:
            pass
    # A checkout exported without .git has no commit to report; the hash of
    # src/ still tells which code ran.
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    meminfo = _read("/proc/meminfo").splitlines()
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total": next((l.split(":", 1)[1].strip() for l in meminfo if l.startswith("MemTotal")), None),
        "loadavg_before": _read("/proc/loadavg"),
        "seed": seed,
    }


def units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hcomplex" / "cli.py").is_file():
        print(f"error: no hcomplex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    info = provenance(args.seed)
    kind, size = WORKLOADS[args.workload]
    checks, metrics, samples = run_workload(kind, size, args.seed, args.seconds, bool(args.trace))
    info["loadavg_after"] = _read("/proc/loadavg")
    failed = checks.count(False)
    unit = units(bool(args.trace))
    print(json.dumps({"provenance": info, "workload": args.workload}))
    print(f"{args.workload}: {len(checks)} checks, {failed} failed, "
          f"fail_ratio {failed / len(checks):.4f}; {len(samples['verdict_s'])} samples ("
          + ", ".join(f"{v:.2f}" for v in samples["verdict_s"])
          + f" s) and {len(samples['setup_s'])} setup samples; "
          + ", ".join(f"{k} {v:.4f} {unit[k]}" for k, v in metrics.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
