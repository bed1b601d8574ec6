"""The forked worker: the same results with it and without it, failures that
reach the parent, and no child left behind.

The worker is forced on by lowering ``workers.MIN_FACES`` to one face and
reporting two CPUs, and forced off by reporting one CPU.
"""

import os
import subprocess
import sys
import time

import pytest

from hcomplex import workers
from hcomplex.complexes import FaceTable, enumerate_faces
from hcomplex.matching import build_matching
from hcomplex.reports import conjecture_row
from hcomplex.witnesses import admissible_pairs, verify_witness, witness_payload


@pytest.fixture
def worker_on(monkeypatch):
    monkeypatch.setattr(workers, "MIN_FACES", 1)
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)


def _refuse_fork():
    raise AssertionError("os.fork called")


@pytest.fixture
def no_fork(monkeypatch):
    monkeypatch.setattr(os, "fork", _refuse_fork)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _results(n):
    t = enumerate_faces(n)
    offsets, lowers = t.cover_incidence()
    build_matching(t)
    return bytes(offsets), bytes(lowers), bytes(t._partners), conjecture_row(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_worker_on_and_off_give_the_same_results(n, monkeypatch):
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    off = _results(n)
    monkeypatch.setattr(workers, "MIN_FACES", 1)
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    assert workers.worth_a_worker(1)
    assert _results(n) == off
    assert off[3].verdict == "PASS"
    _no_child_left()


def test_only_tables_from_n7_fork_by_default(monkeypatch):
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    assert not workers.worth_a_worker(720) and workers.worth_a_worker(5040)
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    assert not workers.worth_a_worker(5040)


def _swapped_table():
    # faces 12 and 23 trade words, both in the upper half of the ids, so
    # only the worker's half of the scan meets them
    t = enumerate_faces(4)
    words = list(t.words)
    words[12], words[23] = words[23], words[12]
    return FaceTable(4, words, {w: i for i, w in enumerate(words)}, t.bars)


def test_an_exception_in_the_worker_is_raised_again_in_the_parent(worker_on, monkeypatch):
    bad = _swapped_table()
    bad._cover_span(0, len(bad) // 2)  # this process's half is clean
    with pytest.raises(AssertionError, match="one block fewer") as forked:
        bad.cover_incidence()
    _no_child_left()
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    with pytest.raises(AssertionError) as serial:
        _swapped_table().cover_incidence()
    assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value)


def _one_bar_count_off(fid):
    t = enumerate_faces(5)
    bars = bytearray(t.bars)
    bars[fid] += 1
    return FaceTable(5, t.words, t.id_of_word, bytes(bars))


@pytest.mark.parametrize("fid", [0, 1, 59, 60, 100, 119])
def test_one_wrong_bar_count_names_its_face_with_and_without_the_worker(
    fid, worker_on, monkeypatch
):
    with pytest.raises(AssertionError, match=rf"\bface {fid}\b") as forked:
        _one_bar_count_off(fid).cover_incidence()
    _no_child_left()
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    with pytest.raises(AssertionError, match=rf"\bface {fid}\b") as serial:
        _one_bar_count_off(fid).cover_incidence()
    assert str(forked.value) == str(serial.value)


def test_a_worker_that_exits_without_a_result_raises_runtime_error(worker_on):
    with pytest.raises(RuntimeError, match=r"^a stage: the worker exited with code 3"):
        workers.both("a stage", 1, lambda: 1, lambda: os._exit(3))
    _no_child_left()


def test_a_failing_parent_half_kills_and_reaps_the_worker(worker_on):
    def fail():
        raise ValueError("parent half")

    start = time.monotonic()
    with pytest.raises(ValueError, match="parent half"):
        workers.both("a stage", 1, fail, lambda: time.sleep(60))
    assert time.monotonic() - start < 30  # killed, not waited for
    _no_child_left()


def test_an_exception_that_does_not_unpickle_arrives_as_runtime_error(worker_on):
    class Odd(Exception):
        def __init__(self, a, b):
            super().__init__(f"{a}-{b}")

    def there():
        raise Odd(1, 2)

    with pytest.raises(RuntimeError, match=r"^odd: Odd: 1-2$"):
        workers.both("odd", 1, lambda: 0, there)
    _no_child_left()


def test_a_worker_forks_no_worker_of_its_own(worker_on):
    inner = workers.both("outer", 1, lambda: None, lambda: workers.worth_a_worker(10**6))
    assert inner == (None, False)
    _no_child_left()


def test_a_failed_fork_runs_both_halves_in_process(worker_on, monkeypatch):
    def fork_fails():
        raise OSError("fork refused")

    want = [_results(n) for n in (4, 7)]
    monkeypatch.setattr(os, "fork", fork_fails)
    assert [_results(n) for n in (4, 7)] == want
    _no_child_left()


def test_one_cpu_tries_no_fork_and_gives_the_same_results(monkeypatch):
    want = [_results(n) for n in (4, 7)]
    monkeypatch.setattr(workers, "MIN_FACES", 1)
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    assert [_results(n) for n in (4, 7)] == want


def test_witnesses_without_a_table_never_fork(no_fork):
    for n, k in admissible_pairs(12):
        assert verify_witness(n, k).ok
        assert witness_payload(n, k)["n"] == n


def test_importing_the_cli_loads_no_pickle_or_multiprocessing(subprocess_env):
    code = (
        "import sys, hcomplex.cli\n"
        "print(sorted(m for m in ('pickle', 'multiprocessing') if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=subprocess_env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout == "[]\n", out.stderr
