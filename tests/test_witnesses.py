"""Free-face cycle witnesses: construction, certification, freeness scan."""

import hashlib
import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcomplex.complexes import covers_down, is_free_face
from hcomplex.homology import boundary_of_chain
from hcomplex.perms import BarredFace, face_from_perm
from hcomplex.witnesses import (
    admissible_pairs,
    cycle_witness,
    free_face,
    has_local_parent,
    verify_witness,
    witness_payload,
    witness_spec,
)


def test_admissible_pairs_frozen():
    assert admissible_pairs(8) == [
        (1, -1),
        (3, 0),
        (4, 0),
        (5, 1),
        (6, 1),
        (7, 1),
        (7, 2),
        (8, 2),
    ]
    assert all(2 * k + 3 <= n <= 3 * k + 4 for n, k in admissible_pairs(13))


def test_inadmissible_pairs_rejected():
    for n, k in ((2, 0), (5, 0), (8, 1), (3, 1), (6, 2)):
        with pytest.raises(ValueError):
            witness_spec(n, k)


def test_witness_7_1_exact_terms():
    assert free_face(7, 1) == BarredFace(7, ((0, 1, 3), (2, 4, 6), (5, 7, 8)))
    z = cycle_witness(7, 1)
    expected = {
        BarredFace(7, ((0, 1, 3), (2, 4, 6), (5, 7, 8))): 1,
        BarredFace(7, ((0, 3), (1, 2, 4, 6), (5, 7, 8))): -1,
        BarredFace(7, ((0, 1, 3), (2, 6), (4, 5, 7, 8))): -1,
        BarredFace(7, ((0, 3), (1, 2, 6), (4, 5, 7, 8))): 1,
    }
    assert dict(z.coeffs) == expected


def test_witness_structure_all_admissible(table):
    for n, k in admissible_pairs(8):
        spec = witness_spec(n, k)
        z = cycle_witness(n, k)
        assert len(z) == 2 ** (k + 1)
        assert all(c in (1, -1) for c in z.coeffs.values())
        assert boundary_of_chain(z).is_zero()
        assert z.coeffs[spec.free_face] == 1
        # generators touch disjoint word positions
        touched = [p for pair in spec.generators for p in pair]
        assert len(touched) == len(set(touched))
        report = verify_witness(n, k, table=table(n))
        assert report.ok, report.checks
        assert report.checks["free_face_is_free_in_table"]


def has_local_parent_by_neighbour_bars(face):
    """The freeness rule that testing refined chains replaced: split a block
    into L and U, and require the new bar to be a descent and the bars either
    side of the block to survive."""
    blocks = face.blocks
    for i, block in enumerate(blocks):
        core = [v for v in block if 0 < v <= face.n]
        if len(core) < 2:
            continue
        before = blocks[i - 1][-1] if i > 0 else None
        after = blocks[i + 1][0] if i + 1 < len(blocks) else None
        for size in range(1, len(core)):
            for lower in combinations(core, size):
                upper = [v for v in core if v not in lower]
                if max(lower) < upper[0]:
                    continue  # new bar would be an ascent
                if after is not None and core[-1] in lower and upper[-1] < after:
                    continue  # bar after the block would dissolve
                if before is not None and core[0] not in lower and before < lower[0]:
                    continue  # bar before the block would dissolve
                return True
    return False


# sha256 of the 56 witness payloads with n <= 24, sorted by (n, k), each as
# compact sorted-key JSON and a newline: the digest perfbench/run.py freezes
WITNESS_N24_SHA256 = "7897758dc832b76523ecac3dc073c0328ac4775e123aad001e58429f40c2a1e3"


def test_witnesses_beyond_enumeration_reach():
    digest = hashlib.sha256()
    pairs = admissible_pairs(24)
    assert len(pairs) == 56
    for n, k in pairs:
        report = verify_witness(n, k)
        assert report.ok, (n, k, report.checks)
        assert report.term_count == 2 ** (k + 1)
        assert not has_local_parent_by_neighbour_bars(report.free_face)
        digest.update(json.dumps(report.payload(), sort_keys=True, separators=(",", ":")).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == WITNESS_N24_SHA256


def test_cycle_witness_refuses_a_repeated_term(monkeypatch):
    # every swap subset made into the same face: the second term is a repeat
    import hcomplex.witnesses

    monkeypatch.setattr(hcomplex.witnesses, "face_from_perm", lambda perm: free_face(7, 1))
    with pytest.raises(AssertionError, match="repeated"):
        cycle_witness(7, 1)


def test_local_freeness_scan_matches_table_oracle(table):
    for n in range(1, 6):
        t = table(n)
        for f in map(t.face, range(len(t))):
            assert has_local_parent(f) == (not is_free_face(t, f)), f
            assert has_local_parent_by_neighbour_bars(f) == has_local_parent(f), f


@settings(max_examples=200, deadline=None)
@given(st.integers(10, 24).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_local_parent_equals_neighbour_bar_rule(core):
    f = face_from_perm(core)
    assert has_local_parent(f) == has_local_parent_by_neighbour_bars(f)


def test_free_face_block_shape():
    # bottom pairs {i, n+1-i}, then the middle pattern, all blocks size <= 3
    spec = witness_spec(8, 2)
    core = [[v for v in b if 0 < v <= 8] for b in spec.free_face.blocks]
    assert core[0] == [1, 8] and core[1] == [2, 7]
    assert all(len(b) <= 3 for b in core)
    assert sorted(v for b in core for v in b) == list(range(1, 9))


def test_payload_shape_and_determinism():
    p1 = witness_payload(7, 1)
    p2 = witness_payload(7, 1)
    assert p1 == p2
    assert p1["n"] == 7 and p1["k"] == 1
    assert p1["freeFace"] == "1,3|2,4,6|5,7"
    assert [t["perm"] for t in p1["terms"]] == sorted(t["perm"] for t in p1["terms"])
    assert sum(t["sign"] for t in p1["terms"]) == 0
    assert {tuple(t["perm"]) for t in p1["terms"]} == {
        (1, 3, 2, 4, 6, 5, 7),
        (3, 1, 2, 4, 6, 5, 7),
        (1, 3, 2, 6, 4, 5, 7),
        (3, 1, 2, 6, 4, 5, 7),
    }


def test_unit_free_face_blocks_boundary_status(table):
    # a cycle with a unit coefficient on a free face can never be a boundary:
    # the free face lies in no higher face, so no boundary chain reaches it
    t = table(5)
    f = free_face(5, 1)
    fid = t.id_of_face(f)
    for gid in range(len(t)):
        if t.bars[gid] == f.dim + 2:
            assert fid not in covers_down(t, gid)
