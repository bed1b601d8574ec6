"""Acceptance gate: every headline claim, measured against its time budget.

Each test prints one PASS/FAIL line (bypassing capture, so it shows up in any
run) with the elapsed wall time; budgets are asserted where one applies.
"""

import time
from math import factorial

import pytest

from hcomplex.complexes import (
    euler_characteristic,
    eulerian_row,
    f_vector,
    lex_shelling_check,
    tanh_euler_characteristic,
)
from hcomplex.homology import (
    betti_table,
    expected_nonzero_dims,
    nonzero_dims_via_ranks,
)
from hcomplex.matching import verify_well_defined
from hcomplex.morse import (
    build_digraph,
    check_acyclic,
    check_thresholds,
    morse_inequalities,
    morse_numbers,
    verify_certificate,
)
from hcomplex.perms import BarredFace
from hcomplex.witnesses import admissible_pairs, cycle_witness, verify_witness

DISPLAYED_WITNESS_7_1 = {
    BarredFace(7, ((0, 1, 3), (2, 4, 6), (5, 7, 8))): 1,
    BarredFace(7, ((0, 3), (1, 2, 4, 6), (5, 7, 8))): -1,
    BarredFace(7, ((0, 1, 3), (2, 6), (4, 5, 7, 8))): -1,
    BarredFace(7, ((0, 3), (1, 2, 6), (4, 5, 7, 8))): 1,
}


@pytest.fixture(scope="module")
def rational_betti(table):
    memo = {}

    def get(n):
        if n not in memo:
            memo[n] = betti_table(table(n), "Q")
        return memo[n]

    return get


def report(capsys, label, ok, elapsed, budget=None):
    suffix = f", budget {budget:.0f}s" if budget is not None else ""
    line = f"{'PASS' if ok else 'FAIL'}: {label} ({elapsed:.2f}s{suffix})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, f"over budget: {line}"


def test_homology_window_exact_small_n(table, capsys):
    start = time.monotonic()
    ok = all(
        betti_table(table(n)).nonzero_dims() == expected_nonzero_dims(n)
        for n in range(2, 8)
    )
    report(
        capsys,
        "integral homology (full Smith form) nonzero exactly on the "
        "middle-third window, n=2..7",
        ok,
        time.monotonic() - start,
        budget=60,
    )


def test_homology_window_rank_detection_n8(table, capsys):
    start = time.monotonic()
    observed = nonzero_dims_via_ranks(table(8))
    ok = observed == expected_nonzero_dims(8) == {2, 3}
    report(
        capsys,
        "homology nonzero window over Q and F_2, F_3, F_5 at n=8",
        ok,
        time.monotonic() - start,
        budget=600,
    )


def test_matching_well_defined_through_n8(table, matching, capsys):
    start = time.monotonic()
    ok = True
    for n in range(1, 9):
        for dual in (False, True):
            r = verify_well_defined(table(n), matching(n, dual))
            ok = ok and r.ok and 2 * r.pair_count + r.critical_count == factorial(n)
    report(
        capsys,
        "matching and dual are cover-pair involutions with shared rank and "
        "inverse types, n=1..8",
        ok,
        time.monotonic() - start,
        budget=120,
    )


def test_acyclicity_certificates_through_n8(table, matching, capsys):
    start = time.monotonic()
    ok = True
    for n in range(1, 9):
        for dual in (False, True):
            g = build_digraph(table(n), matching(n, dual))
            cert = check_acyclic(g)
            ok = ok and cert.acyclic and verify_certificate(g, cert)
    report(
        capsys,
        "matching digraphs acyclic with re-verified certificates, "
        "primal and dual, n=1..8",
        ok,
        time.monotonic() - start,
        budget=120,
    )


def test_morse_number_vanishing_through_n8(table, matching, capsys):
    start = time.monotonic()
    ok = True
    for n in range(1, 9):
        for dual in (False, True):
            numbers = morse_numbers(table(n), matching(n, dual))
            ok = ok and check_thresholds(numbers).ok
    report(
        capsys,
        "critical faces vanish below n/3-ish (primal) and above 2n/3-ish "
        "(dual), n=1..8",
        ok,
        time.monotonic() - start,
    )


def test_morse_inequalities_through_n7(table, matching, rational_betti, capsys):
    start = time.monotonic()
    ok = True
    for n in range(1, 8):
        betti = rational_betti(n).betti
        for dual in (False, True):
            numbers = morse_numbers(table(n), matching(n, dual))
            ok = ok and morse_inequalities(numbers, betti).ok
    report(
        capsys,
        "Betti numbers bounded by Morse numbers of both matchings, n=1..7",
        ok,
        time.monotonic() - start,
    )


def test_betti_symmetry_through_n7(rational_betti, capsys):
    start = time.monotonic()
    ok = True
    for n in range(1, 8):
        bt = rational_betti(n)
        ok = ok and all(
            bt.betti.get(i, 0) == bt.betti.get(n - 3 - i, 0)
            for i in range(-1, n - 1)
        )
    report(
        capsys,
        "rational Betti numbers symmetric under i -> n-3-i, n=1..7",
        ok,
        time.monotonic() - start,
    )


def test_f_vector_is_eulerian_through_n9(table, capsys):
    start = time.monotonic()
    ok = True
    for n in range(1, 10):
        brute = [0] * n
        t = table(n)
        for f in map(t.face, range(len(t))):
            core = f.word[1:-1]
            brute[sum(1 for x, y in zip(core, core[1:]) if x > y)] += 1
        ok = ok and f_vector(t) == tuple(brute) == eulerian_row(n)
    ok = ok and eulerian_row(7) == (1, 120, 1191, 2416, 1191, 120, 1)
    report(
        capsys,
        "face counts equal Eulerian numbers by brute descent counting, n=1..9",
        ok,
        time.monotonic() - start,
    )


def test_euler_characteristic_is_tanh_through_n8(table, capsys):
    start = time.monotonic()
    ok = all(
        euler_characteristic(table(n)) == tanh_euler_characteristic(n)
        for n in range(1, 9)
    )
    spots = {1: -1, 3: 2, 5: -16}
    ok = ok and all(tanh_euler_characteristic(n) == v for n, v in spots.items())
    report(
        capsys,
        "reduced Euler characteristic equals n! [x^n](-tanh x), n=1..8",
        ok,
        time.monotonic() - start,
    )


def test_witness_suite_through_n8(table, capsys):
    start = time.monotonic()
    ok = True
    for n, k in admissible_pairs(8):
        r = verify_witness(n, k, table=table(n))
        ok = ok and r.ok and r.term_count == 2 ** (k + 1)
    ok = ok and dict(cycle_witness(7, 1).coeffs) == DISPLAYED_WITNESS_7_1
    report(
        capsys,
        "free-face cycle witnesses certified for every admissible (n, k), "
        "n<=8, with the displayed n=7 cycle reproduced",
        ok,
        time.monotonic() - start,
    )


def test_lex_shelling_minimal_faces_through_n7(capsys):
    start = time.monotonic()
    ok = True
    for n in range(1, 8):
        r = lex_shelling_check(n)
        ok = (
            ok
            and r.ok
            and r.closed_under_subchains
            and r.dim_histogram == eulerian_row(n)
            and r.facet_count == factorial(n)
        )
    report(
        capsys,
        "lex shelling of the subset order complex leaves descent-chain "
        "minimal faces, closed under subchains, n=1..7",
        ok,
        time.monotonic() - start,
    )
