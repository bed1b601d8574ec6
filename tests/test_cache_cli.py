"""Artifact cache behavior and the command line surface, run in-process."""

import json

import pytest

from hcomplex.cache import (
    ENV_VAR,
    FORMAT_VERSION,
    cache_load,
    cache_store,
    canonical_bytes,
    resolve_cache_dir,
)
from hcomplex.cli import main
from hcomplex.homology import betti_table
from hcomplex.matching import build_matching
from hcomplex.reports import (
    betti_payload,
    face_table_payload,
    matching_payload,
    morse_payload,
)
from hcomplex.witnesses import witness_payload


@pytest.fixture(autouse=True)
def no_ambient_cache(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


def all_kind_payloads(table, matching):
    t = table(5)
    return {
        "faces": face_table_payload(t),
        "matching-primal": matching_payload(t, matching(5)),
        "matching-dual": matching_payload(t, matching(5, True)),
        "morse-primal": morse_payload(t, matching(5)),
        "morse-dual": morse_payload(t, matching(5, True)),
        "betti-Z": betti_payload(betti_table(t)),
        "witness-k1": witness_payload(5, 1),
    }


def test_cache_round_trip_every_kind(tmp_path, table, matching):
    for kind, payload in all_kind_payloads(table, matching).items():
        path = cache_store(tmp_path, kind, 5, payload)
        assert path.exists() and path.name.startswith(f"{kind}-n5-v{FORMAT_VERSION}-")
        assert cache_load(tmp_path, kind, 5) == payload
        assert path.read_bytes() == canonical_bytes(payload)


def test_cache_miss_on_empty_or_absent_directory(tmp_path):
    assert cache_load(tmp_path, "faces", 3) is None
    assert cache_load(tmp_path / "nope", "faces", 3) is None


def test_cache_detects_corruption(tmp_path, table):
    payload = face_table_payload(table(4))
    path = cache_store(tmp_path, "faces", 4, payload)
    path.write_bytes(path.read_bytes().replace(b'"dim"', b'"DIM"', 1))
    with pytest.warns(UserWarning, match="checksum mismatch"):
        assert cache_load(tmp_path, "faces", 4) is None


def test_cache_rejects_payload_violating_invariants(tmp_path, table):
    payload = face_table_payload(table(4))
    payload["faces"] = payload["faces"][:-1]  # count no longer 4!
    cache_store(tmp_path, "faces", 4, payload)
    with pytest.warns(UserWarning, match="spot-check"):
        assert cache_load(tmp_path, "faces", 4) is None


def test_cache_store_replaces_stale_versions(tmp_path, table, matching):
    payload = morse_payload(table(4), matching(4))
    cache_store(tmp_path, "morse-primal", 4, payload)
    changed = dict(payload, digest="0" * 64)
    cache_store(tmp_path, "morse-primal", 4, changed)
    files = list(tmp_path.glob("morse-primal-n4-*.json"))
    assert len(files) == 1
    assert cache_load(tmp_path, "morse-primal", 4) == changed


def test_resolve_cache_dir_precedence(tmp_path, monkeypatch):
    assert resolve_cache_dir() is None
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "env"))
    assert resolve_cache_dir() == tmp_path / "env"
    assert resolve_cache_dir(tmp_path / "flag") == tmp_path / "flag"
    monkeypatch.setenv(ENV_VAR, "")
    assert resolve_cache_dir() is None


# -- command line -------------------------------------------------------------


def test_cli_build_prints_face_table(capsys):
    assert main(["build", "--n", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 3 and len(payload["faces"]) == 6


def test_cli_morse_frozen_output(capsys):
    assert main(["morse", "--n", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == {"-1": 0, "0": 3, "1": 1}
    assert payload["acyclic"] is True
    assert main(["morse", "--n", "3", "--dual"]) == 0
    dual = json.loads(capsys.readouterr().out)
    assert dual["m"] == {"-1": 1, "0": 3, "1": 0}


def test_cli_witness_frozen_output(capsys):
    assert main(["witness", "--n", "7", "--k", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["freeFace"] == "1,3|2,4,6|5,7"
    assert len(payload["terms"]) == 4


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
    monkeypatch.setattr("hcomplex.cli.witness_payload", never)
    assert main(["witness", "--n", "100", "--k", "40", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "witness ceiling" in err and "unsafe-budget" in err


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_falsification_exits_1(capsys, monkeypatch):
    from hcomplex.matching import MatchingReport

    monkeypatch.setattr(
        "hcomplex.cli.verify_well_defined",
        lambda table, matching: MatchingReport(3, False, False, 0, 0, ("forced",)),
    )
    assert main(["match", "--n", "3"]) == 1
    assert "falsified" in capsys.readouterr().err


def test_cli_conjecture_table(capsys):
    assert main(["conjecture", "--n-max", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 5 and "|" in out


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


def test_cli_cache_flow(tmp_path, capsys):
    d = str(tmp_path)
    assert main(["build", "--n", "3", "--cache-dir", d, "-v"]) == 0
    first = capsys.readouterr()
    assert "cache store" in first.err
    assert main(["build", "--n", "3", "--cache-dir", d, "-v"]) == 0
    second = capsys.readouterr()
    assert "cache hit" in second.err
    assert first.out == second.out
    assert len(list(tmp_path.glob("faces-n3-*.json"))) == 1
    # --no-cache leaves the directory untouched and still succeeds
    assert main(["build", "--n", "3", "--cache-dir", d, "--no-cache"]) == 0


def test_cli_self_heals_corrupted_cache(tmp_path, capsys):
    d = str(tmp_path)
    assert main(["morse", "--n", "4", "--cache-dir", d]) == 0
    fresh = capsys.readouterr().out
    (path,) = tmp_path.glob("morse-primal-n4-*.json")
    path.write_bytes(b"{broken")
    with pytest.warns(UserWarning):
        assert main(["morse", "--n", "4", "--cache-dir", d]) == 0
    assert capsys.readouterr().out == fresh
    (healed,) = tmp_path.glob("morse-primal-n4-*.json")
    assert healed.name == path.name  # content-addressed: same payload, same name
    assert json.loads(healed.read_text())["m"]["1"] == 6


def test_cli_report_never_reads_betti_from_cache(tmp_path, capsys, table):
    # chi = 0 at n = 4, so this entry passes the spot-check with every Betti
    # number wrong; the verdict must come from a fresh computation
    tampered = {"n": 4, "coeff": "Z", "betti": [0, 0, 0, 0], "torsion": []}
    cache_store(tmp_path, "betti-Z", 4, tampered)
    assert cache_load(tmp_path, "betti-Z", 4) == tampered
    assert main(["report", "--n-max", "4", "--no-cache"]) == 0
    fresh = capsys.readouterr().out
    assert main(["report", "--n-max", "4", "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == fresh
    # the row still stores its table, so `hcomplex homology` finds it warm
    assert cache_load(tmp_path, "betti-Z", 4) == betti_payload(betti_table(table(4)))
