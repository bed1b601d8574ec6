"""The forked worker: the same results with it and without it, failures that
reach the parent, and no child left behind.

The worker is forced on by lowering ``workers.MIN_FACES`` to one face and
reporting two CPUs, and forced off by reporting one CPU.  A row's Smith
forms run on its own table without its words, with the worker and without
it.
"""

import os
import subprocess
import sys
import time

import pytest

from hcomplex import reports, workers
from hcomplex.cli import main
from hcomplex.complexes import FaceTable, enumerate_faces
from hcomplex.homology import invariant_factors
from hcomplex.matching import _partner_span, build_matching
from hcomplex.reports import conjecture_row
from hcomplex.witnesses import admissible_pairs, verify_witness, witness_payload


@pytest.fixture
def worker_on(monkeypatch):
    monkeypatch.setattr(workers, "MIN_FACES", 1)
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)


@pytest.fixture
def worker_off(monkeypatch):
    monkeypatch.setattr(workers, "MIN_FACES", 1)
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)


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


def test_the_cover_scan_never_forks(worker_on, no_fork):
    offsets, lowers = enumerate_faces(6).cover_incidence()
    assert len(offsets) == 721 and len(lowers) == offsets[-1]


def _counting_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())  # a worker's own count stays in the worker
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def test_a_row_of_min_faces_forks_twice_and_leaves_no_child(monkeypatch):
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    forks = _counting_forks(monkeypatch)
    assert conjecture_row(6).verdict == "PASS" and forks == []
    assert conjecture_row(7).verdict == "PASS"
    assert forks == [os.getpid()] * 2
    _no_child_left()


def test_the_cover_and_partner_scans_of_a_row_share_one_fork_and_one_array(worker_on, monkeypatch):
    forks = _counting_forks(monkeypatch)
    t = enumerate_faces(6)
    matching = reports.scan_table(t)
    assert len(forks) == 1 and t._incidence is not None
    assert t._partners is matching.partners
    assert bytes(matching.partners) == bytes(build_matching(enumerate_faces(6)).partners)
    _no_child_left()


@pytest.mark.parametrize("worker", ["worker_on", "worker_off"])
def test_a_row_runs_its_smith_forms_on_its_own_table_without_words(
    worker, request, monkeypatch, tmp_path
):
    request.getfixturevalue(worker)
    seen = tmp_path / "seen"
    real = reports.invariant_factors

    def spy(table, dim):
        with open(seen, "a") as out:  # a file, so the worker's calls show here too
            out.write(f"words {table.words} in worker {workers._in_worker}\n")
        return real(table, dim)

    monkeypatch.setattr(reports, "invariant_factors", spy)
    assert conjecture_row(5).verdict == "PASS"
    assert seen.read_text() == f"words None in worker {worker == 'worker_on'}\n"
    _no_child_left()


@pytest.mark.parametrize("n, worker", [(6, "worker_off"), (7, "worker_on")])
def test_the_process_releases_its_words_before_the_dual_digraph(n, worker, request, monkeypatch):
    request.getfixturevalue(worker)
    released = []
    real = reports.certify_acyclic

    def spy(table, matching, digest=False):
        if matching.dual:  # the process's call; a worker's would not show here
            released.append(table.words is None)
        return real(table, matching, digest)

    monkeypatch.setattr(reports, "certify_acyclic", spy)
    assert conjecture_row(n).verdict == "PASS"
    assert released == [True]
    _no_child_left()


@pytest.mark.parametrize("worker", ["worker_on", "worker_off"])
def test_a_row_rebuilds_the_factor_memo_from_unit_counts(worker, request, monkeypatch, table):
    request.getfixturevalue(worker)
    whole = {d: invariant_factors(table(6), d) for d in range(4, -1, -1)}
    t = enumerate_faces(6)
    t.cover_incidence()
    acyclic, sent = reports._primal_digraph_and_factors(t, build_matching(t))
    assert acyclic and sent == {d: (len(fs), ()) for d, fs in whole.items()}
    assert reports._units_and_rest((1, 1, 2, 6)) == (2, (2, 6))
    assert reports._units_and_rest(()) == (0, ())
    memos = []
    real = reports.betti_table

    def spy(table, coefficients="Z"):
        memos.append(dict(table._invariants))
        return real(table, coefficients)

    monkeypatch.setattr(reports, "betti_table", spy)
    assert conjecture_row(6).verdict == "PASS"
    assert memos == [whole]
    _no_child_left()


def test_only_tables_from_n7_fork_by_default(monkeypatch):
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    assert not workers.worth_a_worker(720) and workers.worth_a_worker(5040)
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    assert not workers.worth_a_worker(5040)


def _swapped_table():
    # faces 16 and 20 trade words, both in the upper half of the ids, so
    # only the worker's half of the partner scan meets them
    t = enumerate_faces(4)
    words = list(t.words)
    words[16], words[20] = words[20], words[16]
    return FaceTable(4, words, t.bars)


def test_an_exception_in_the_worker_is_raised_again_in_the_parent(worker_on, monkeypatch):
    bad = _swapped_table()
    _partner_span(bad, 0, len(bad) // 2)  # this process's half is clean
    with pytest.raises(AssertionError, match="out of lex order") as forked:
        build_matching(bad)
    _no_child_left()
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    with pytest.raises(AssertionError) as serial:
        build_matching(_swapped_table())
    assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value)


def _one_bar_count_off(fid):
    t = enumerate_faces(5)
    bars = bytearray(t.bars)
    bars[fid] += 1
    return FaceTable(5, t.words, bytes(bars))


@pytest.mark.parametrize("fid", [0, 1, 59, 60, 100, 119])
def test_one_wrong_bar_count_names_its_face_with_and_without_the_worker(
    fid, worker_on, monkeypatch
):
    # the cover scan raises in this process while the partner scan runs in the worker
    with pytest.raises(AssertionError, match=rf"\bface {fid}\b") as forked:
        reports.scan_table(_one_bar_count_off(fid))
    _no_child_left()
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    with pytest.raises(AssertionError, match=rf"\bface {fid}\b") as serial:
        reports.scan_table(_one_bar_count_off(fid))
    assert str(forked.value) == str(serial.value)


def test_a_worker_that_exits_without_a_result_raises_runtime_error(worker_on):
    with pytest.raises(RuntimeError, match=r"^a stage: the worker exited with code 3"):
        workers.both("a stage", 1, lambda: 1, lambda: os._exit(3))
    _no_child_left()


def test_a_result_that_does_not_unpickle_raises_runtime_error(worker_on, monkeypatch):
    import pickle

    dumps = pickle.dumps
    monkeypatch.setattr(pickle, "dumps", lambda *args: dumps(*args)[:-3])  # the worker's only
    with pytest.raises(RuntimeError, match=r"^a stage: the worker's result does not unpickle"):
        workers.both("a stage", 1, lambda: 1, lambda: list(range(100)))
    _no_child_left()


def test_a_worker_whose_write_fails_part_way_exits_non_zero(worker_on, monkeypatch):
    class HalfWrite:
        def __init__(self, fd):
            self.pipe = open(fd, "wb")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.pipe.close()

        def write(self, data):
            self.pipe.write(data[:len(data) // 2])
            self.pipe.flush()
            raise OSError("the pipe broke")

    def opens(fd, mode):  # only the worker writes
        return HalfWrite(fd) if mode == "wb" else open(fd, mode)

    monkeypatch.setattr(workers, "open", opens, raising=False)
    with pytest.raises(RuntimeError, match=r"^a stage: the worker exited with code 1 without"):
        workers.both("a stage", 1, lambda: 1, lambda: list(range(10_000)))
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


@pytest.mark.parametrize("argv", [
    ["match", "--n", "7"], ["match", "--n", "7", "--dual"],
    ["morse", "--n", "7"], ["morse", "--n", "7", "--dual"],
    ["report", "--n-max", "7"],
])
def test_the_cli_prints_the_same_bytes_with_the_worker_on_and_off(argv, capsys, monkeypatch):
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    assert main(argv) == 0
    off = capsys.readouterr()
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    forks = _counting_forks(monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr() == off and off.out
    assert len(forks) == {"match": 1, "morse": 1, "report": 2}[argv[0]]
    _no_child_left()


def test_the_cli_exits_2_on_a_worker_result_that_does_not_unpickle(worker_on, capsys, monkeypatch):
    import pickle

    dumps = pickle.dumps
    monkeypatch.setattr(pickle, "dumps", lambda *args: dumps(*args)[:-3])
    assert main(["report", "--n-max", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: primal partner ids: the worker's result does not unpickle"), err
    _no_child_left()
