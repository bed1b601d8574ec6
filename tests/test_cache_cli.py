"""The command line surface, run in-process, and proof that it caches nothing."""

import json
import subprocess
import sys

import pytest

from hcomplex.cli import main


def test_cli_build_prints_face_table(capsys):
    assert main(["build", "--n", "3"]) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    assert payload["n"] == 3 and len(payload["faces"]) == 6
    # --no-cache still parses, and has no effect
    assert main(["build", "--n", "3", "--no-cache"]) == 0
    assert capsys.readouterr().out == first


def test_cli_morse_frozen_output(capsys):
    assert main(["morse", "--n", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == {"-1": 0, "0": 3, "1": 1}
    assert payload["acyclic"] is True
    assert main(["morse", "--n", "3", "--dual"]) == 0
    dual = json.loads(capsys.readouterr().out)
    assert dual["m"] == {"-1": 1, "0": 3, "1": 0}
    assert main(["morse", "--n", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["m"]["1"] == 6


# Outputs of the list-built digraph and the dict of pairs, before both went
# flat: the certificate digests of ``morse --n 7`` and the sha256 of the
# whole ``match --n 6`` output.
MORSE_N7_DIGEST = {
    False: "4e00e70af6b11bc7403f6b2b0aeddbb4e51fb8e8c136fa070d1c618e77754f50",
    True: "a255fbd78c0fd3b3f298de4957a08ee3266771254dddf6f7e32990c2e540d5dc",
}
MATCH_N6_SHA256 = "d11fa8d74e07da9665a3531ad00d147f0ef34396ce04ac39906923942b7c4c49"


@pytest.mark.parametrize("dual", [False, True])
def test_cli_morse_n7_digest_frozen(capsys, dual):
    assert main(["morse", "--n", "7", *(["--dual"] if dual else [])]) == 0
    assert json.loads(capsys.readouterr().out)["certificateDigest"] == MORSE_N7_DIGEST[dual]


def test_cli_match_n6_frozen(capsys):
    import hashlib

    assert main(["match", "--n", "6"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == MATCH_N6_SHA256


def test_cli_witness_frozen_output(capsys):
    assert main(["witness", "--n", "7", "--k", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["freeFace"] == "1,3|2,4,6|5,7"
    assert len(payload["terms"]) == 4


def test_cli_witness_prints_the_chain_it_verified(capsys, monkeypatch):
    from hcomplex import witnesses

    cycle_witness = witnesses.cycle_witness
    built = []

    def counted(n, k):
        built.append((n, k))
        return cycle_witness(n, k)

    expected = json.dumps(witnesses.witness_payload(8, 2), indent=2, sort_keys=True) + "\n"
    monkeypatch.setattr("hcomplex.witnesses.cycle_witness", counted)
    assert main(["witness", "--n", "8", "--k", "2"]) == 0
    assert built == [(8, 2)]
    assert capsys.readouterr().out == expected


def test_cli_morse_rechecks_the_certificate(capsys, monkeypatch):
    from hcomplex import reports
    from hcomplex.morse import AcyclicityCertificate

    check_acyclic = reports.check_acyclic

    def reversed_order(g):
        cert = check_acyclic(g)
        order = tuple(reversed(cert.order))
        return AcyclicityCertificate(True, order, None)

    monkeypatch.setattr("hcomplex.reports.check_acyclic", reversed_order)
    assert main(["morse", "--n", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "not certified acyclic" in captured.err


def test_cli_homology_csv(capsys):
    assert main(["homology", "--n", "5", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "16" in out and out.count("\n") >= 2


def test_cli_budget_exit_codes(capsys):
    assert main(["build", "--n", "10"]) == 2
    assert main(["homology", "--n", "9"]) == 2
    assert main(["report", "--n-max", "9"]) == 2
    assert main(["witness", "--n", "8", "--k", "1"]) == 2  # inadmissible pair
    err = capsys.readouterr().err
    assert "unsafe-budget" in err


def test_cli_witness_ceiling_exits_2_before_any_work(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the ceiling must stop the run before any witness work")

    # 2^41 terms must never be asked for
    monkeypatch.setattr("hcomplex.cli.verify_witness", never)
    monkeypatch.setattr("hcomplex.witnesses.cycle_witness", never)
    assert main(["witness", "--n", "100", "--k", "40", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "witness ceiling" in err and "unsafe-budget" in err


def test_cli_usage_error_exits_2():
    for argv in (["frobnicate"], ["build", "--n", "3", "--cache-dir", "unused"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_cli_falsification_exits_1(capsys, monkeypatch):
    from hcomplex.matching import MatchingReport

    monkeypatch.setattr(
        "hcomplex.cli.verify_well_defined",
        lambda table, matching: MatchingReport(3, False, False, 0, 0, ("forced",)),
    )
    assert main(["match", "--n", "3"]) == 1
    assert "falsified" in capsys.readouterr().err
    monkeypatch.setattr(
        "hcomplex.reports.verify_well_defined",
        lambda table, matching: MatchingReport(3, False, False, 0, 0, ("forced",)),
    )
    assert main(["morse", "--n", "3"]) == 1
    assert "forced" in capsys.readouterr().err


def test_cli_worker_that_dies_is_a_resource_error(capsys, monkeypatch):
    import os

    from hcomplex import reports, workers

    monkeypatch.setattr(workers, "MIN_FACES", 1)
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    check_matching_side = reports.check_matching_side

    def dies_on_the_dual_side(table, matching, digest=False):
        if matching.dual and workers._in_worker:
            os._exit(3)
        return check_matching_side(table, matching, digest)

    monkeypatch.setattr(reports, "check_matching_side", dies_on_the_dual_side)
    assert main(["report", "--n-max", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dual matching side: the worker exited with code 3"), err


def test_cli_witness_beyond_the_byte_limit_exits_2_before_any_term(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("no witness term may be built for n > 254")

    monkeypatch.setattr("hcomplex.witnesses.cycle_witness", never)
    monkeypatch.setattr("hcomplex.witnesses.face_from_perm", never)
    assert main(["witness", "--n", "255", "--k", "84", "--unsafe-budget"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "254" in err, err


def test_cli_broken_cover_relation_is_a_falsification(capsys, monkeypatch):
    from hcomplex import reports
    from hcomplex.complexes import FaceTable

    enumerate_faces = reports.enumerate_faces

    def swapped(n, max_n):
        t = enumerate_faces(n, max_n)
        if n < 4:
            return t
        # two words trade ids; the bar counts stay where they were
        words = list(t.words)
        words[1], words[-1] = words[-1], words[1]
        return FaceTable(n, words, {w: i for i, w in enumerate(words)}, t.bars)

    monkeypatch.setattr("hcomplex.reports.enumerate_faces", swapped)
    assert main(["report", "--n-max", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("falsified: ") and "one block fewer" in err


def test_cli_report_names_each_failing_row(capsys, monkeypatch):
    from dataclasses import replace

    from hcomplex import reports

    check_matching_side = reports.check_matching_side
    # the rows with both primal flags false, rendered as the table to expect
    rows = tuple(
        replace(r, primal_morse_ok=False) if r.n in (3, 5) else r
        for r in (reports.conjecture_row(n) for n in range(1, 7))
    )
    for argv in (["report", "--n-max", "6"], ["conjecture", "--n-max", "6"]):
        monkeypatch.undo()
        assert main(argv) == 0
        passing = capsys.readouterr().out

        def broken_primal(table, matching):
            side = check_matching_side(table, matching)
            if table.n in (3, 5) and not matching.dual:
                return replace(side, violations=("forced",))
            return side

        monkeypatch.setattr("hcomplex.reports.check_matching_side", broken_primal)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "falsified: n=3: primalMorseOk\nfalsified: n=5: primalMorseOk\n"
        fmt = "json" if argv[0] == "report" else "md"
        assert captured.out == reports.render_report(reports.ConjectureReport(rows), fmt)
        assert captured.out != passing


def test_cli_conjecture_table(capsys):
    assert main(["conjecture", "--n-max", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 5 and "|" in out


REPORT_N5 = {
    "csv": """\
n,expectedNonzeroDims,observedNonzeroDims,primalMorseOk,dualMorseOk,acyclicOk,symmetryOk,witnessOk,verdict
1,-1,-1,true,true,true,true,true,PASS
2,,,true,true,true,true,true,PASS
3,0,0,true,true,true,true,true,PASS
4,0;1,0;1,true,true,true,true,true,PASS
5,1,1,true,true,true,true,true,PASS
""",
    "md": """\
| n | expected nonzero dims | observed | primal | dual | acyclic | symmetry | witness | verdict |
|---|---|---|---|---|---|---|---|---|
| 1 | {-1} | {-1} | ok | ok | ok | ok | ok | PASS |
| 2 | {} | {} | ok | ok | ok | ok | ok | PASS |
| 3 | {0} | {0} | ok | ok | ok | ok | ok | PASS |
| 4 | {0,1} | {0,1} | ok | ok | ok | ok | ok | PASS |
| 5 | {1} | {1} | ok | ok | ok | ok | ok | PASS |
""",
}

FAILING_ROW = {
    "csv": "4,0;1,0,false,true,true,false,true,FAIL",
    "md": "| 4 | {0,1} | {0} | FAIL | ok | ok | FAIL | ok | FAIL |",
}


@pytest.mark.parametrize("fmt", sorted(REPORT_N5))
def test_cli_report_csv_and_md_frozen_output(fmt, capsys):
    from dataclasses import replace

    from hcomplex import reports

    assert main(["report", "--n-max", "5", "--format", fmt]) == 0
    assert capsys.readouterr().out == REPORT_N5[fmt]
    row = replace(reports.conjecture_row(4), observed=(0,), primal_morse_ok=False,
                  symmetry_ok=False)
    text = reports.render_report(reports.ConjectureReport((row,)), fmt)
    assert text.splitlines()[-1] == FAILING_ROW[fmt]


def test_cli_report_formats_and_out_file(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["report", "--n-max", "4", "--format", "json", "--out", str(out_a)]) == 0
    assert main(["report", "--n-max", "4", "--format", "json", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    rows = json.loads(out_a.read_text())["rows"]
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    assert main(["report", "--n-max", "3", "--format", "csv"]) == 0
    assert "n," in capsys.readouterr().out


def test_cli_time_budget_exhaustion(capsys):
    assert main(["report", "--n-max", "8", "--time-budget", "1e-9"]) == 2
    assert "time budget" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["report", "--n-max", "0"],
    ["report", "--n-max", "-3"],
    ["conjecture", "--n-max", "0"],
    ["report", "--n-max", "3", "--time-budget", "-1"],
    ["report", "--n-max", "3", "--time-budget", "nan"],
])
def test_cli_empty_report_or_negative_budget_exits_2_before_any_work(argv, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a usage error must stop the run before any row")

    monkeypatch.setattr("hcomplex.cli.conjecture_row", never)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --")


def test_cli_unwritable_out_exits_2_without_a_traceback(tmp_path, subprocess_env):
    # a directory, and a file in a directory that does not exist
    for argv in (["build", "--n", "3", "--out", str(tmp_path)],
                 ["witness", "--n", "5", "--k", "1", "--out", str(tmp_path / "no" / "x.json")]):
        run = subprocess.run([sys.executable, "-m", "hcomplex.cli", *argv], env=subprocess_env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr
    assert list(tmp_path.iterdir()) == []


# -- nothing is cached ---------------------------------------------------------


NO_FILE_COMMANDS = (
    ["build", "--n", "3"],
    ["match", "--n", "4"],
    ["match", "--n", "4", "--dual"],
    ["morse", "--n", "4"],
    ["homology", "--n", "4"],
    ["witness", "--n", "7", "--k", "1"],
    ["report", "--n-max", "4"],
)


def test_cli_leaves_no_files_behind(tmp_path, monkeypatch, capsys):
    # the old cache directory variable is ignored: nothing is stored there or
    # in the working directory, and stdout is what a run without it prints
    old_cache, cwd = tmp_path / "cache", tmp_path / "cwd"
    old_cache.mkdir()
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    for argv in NO_FILE_COMMANDS:
        monkeypatch.delenv("HCOMPLEX_CACHE_DIR", raising=False)
        assert main(argv) == 0, argv
        plain = capsys.readouterr().out
        monkeypatch.setenv("HCOMPLEX_CACHE_DIR", str(old_cache))
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == plain, argv
        assert list(old_cache.iterdir()) == [], argv
        assert list(cwd.iterdir()) == [], argv


def test_cli_verbose_notes_peak_rss_on_stderr_only(capsys):
    import re

    assert main(["morse", "--n", "4"]) == 0
    quiet = capsys.readouterr()
    assert quiet.err == ""
    assert main(["morse", "--n", "4", "-v"]) == 0
    loud = capsys.readouterr()
    assert loud.out == quiet.out
    note = re.fullmatch(r"enumerated 24 faces in \d+\.\d\ds, peak RSS (\d+\.\d) MB\n", loud.err)
    assert note, loud.err
    assert 1 < float(note.group(1)) < 100_000


def test_cli_verbose_report_rows_note_peak_rss_on_stderr_only(capsys, monkeypatch):
    import re
    import resource

    from hcomplex import workers

    # every row forks its worker, whose peak the notes must include
    monkeypatch.setattr(workers, "MIN_FACES", 1)
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)
    for fmt in ("json", "md"):
        assert main(["report", "--n-max", "4", "--format", fmt]) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        assert main(["report", "--n-max", "4", "--format", fmt, "-v"]) == 0
        loud = capsys.readouterr()
        assert loud.out == quiet.out
        notes = loud.err.splitlines()
        assert len(notes) == 4
        peaks = []
        for n, note in enumerate(notes, 1):
            m = re.fullmatch(rf"n={n}: PASS \(\d+\.\ds elapsed, peak RSS (\d+\.\d) MB\)", note)
            assert m, note
            peaks.append(float(m.group(1)))
        assert 1 < peaks[0] and peaks == sorted(peaks)  # a running peak never falls
        worker_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        assert peaks[-1] >= round(worker_kib / 1024, 1)


def test_cli_peak_rss_is_the_larger_of_this_process_and_its_workers(monkeypatch):
    import resource
    from types import SimpleNamespace

    from hcomplex import cli

    kib = {resource.RUSAGE_SELF: 2048, resource.RUSAGE_CHILDREN: 3072}
    monkeypatch.setattr(cli.resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=kib[who]))
    assert cli._peak_rss_mb() == 3.0
    kib[resource.RUSAGE_CHILDREN] = 1024
    assert cli._peak_rss_mb() == 2.0
