"""Matching digraph, acyclicity certificates, and critical-face counts."""

import pytest

from hcomplex.morse import (
    AcyclicityCertificate,
    MorseDigraph,
    build_digraph,
    check_acyclic,
    check_thresholds,
    morse_inequalities,
    morse_numbers,
    verify_certificate,
)

MORSE_PRIMAL = {
    1: (1,),
    2: (0, 0),
    3: (0, 3, 1),
    4: (0, 5, 6, 1),
    5: (0, 0, 29, 14, 1),
    6: (0, 0, 113, 149, 37, 1),
    8: (0, 0, 0, 4330, 6403, 2277, 205, 1),
}


def test_digraph_orients_every_cover_edge(table, matching):
    for n in range(1, 7):
        t = table(n)
        for dual in (False, True):
            g = build_digraph(t, matching(n, dual))
            assert g.arc_count == sum(f.dim + 1 for f in t.faces)
            assert g.arc_count == sum(len(targets) for targets in g.out)
            pairs = matching(n, dual).pairs
            up = sum(
                1
                for v, targets in enumerate(g.out)
                for w in targets
                if t.faces[w].dim == t.faces[v].dim + 1
            )
            assert up * 2 == len(pairs)


def test_digraph_for_n3(table, matching):
    g = build_digraph(table(3), matching(3))
    assert g.out[0] == [1]  # the only upward arc: empty face into its partner
    assert g.out[5] == [3, 4]  # unmatched top face points down both covers


def test_acyclicity_certificates_verify(table, matching):
    for n in range(1, 8):
        for dual in (False, True):
            g = build_digraph(table(n), matching(n, dual))
            cert = check_acyclic(g)
            assert cert.acyclic and cert.cycle is None
            assert verify_certificate(g, cert)
            again = check_acyclic(g)
            assert again.digest == cert.digest  # deterministic


def test_cycle_extraction_and_certificate_rejection():
    loop = MorseDigraph(0, False, [[1], [2], [0], []], 3)
    cert = check_acyclic(loop)
    assert not cert.acyclic and cert.order is None
    assert cert.cycle == (0, 1, 2)
    assert verify_certificate(loop, cert)

    # node 3 is a sink fed from the cycle, so it survives the peeling too
    with_sink = MorseDigraph(0, False, [[1], [2], [3, 0], []], 4)
    cert = check_acyclic(with_sink)
    assert not cert.acyclic and cert.order is None
    assert cert.cycle == (0, 1, 2)
    assert verify_certificate(with_sink, cert)

    dag = MorseDigraph(0, False, [[1], [2], [], []], 2)
    good = check_acyclic(dag)
    assert good.acyclic and verify_certificate(dag, good)
    # tampered order: put 1 before 0 despite the 0 -> 1 arc
    order = list(good.order)
    i, j = order.index(0), order.index(1)
    order[i], order[j] = order[j], order[i]
    bad = AcyclicityCertificate(True, tuple(order), None, good.digest)
    assert not verify_certificate(dag, bad)
    # wrong-length order
    assert not verify_certificate(dag, AcyclicityCertificate(True, (0, 1), None, ""))
    # bogus cycle
    assert not verify_certificate(dag, AcyclicityCertificate(False, None, (0, 2), ""))
    assert not verify_certificate(dag, AcyclicityCertificate(False, None, None, ""))


def test_morse_numbers_frozen(table, matching):
    for n, expected in MORSE_PRIMAL.items():
        if n > 6:
            continue
        assert morse_numbers(table(n), matching(n)).m == expected
        dual = morse_numbers(table(n), matching(n, True)).m
        assert dual == tuple(reversed(expected))


def test_morse_numbers_sum_to_factorial(table, matching):
    from math import factorial

    for n in range(1, 7):
        for dual in (False, True):
            numbers = morse_numbers(table(n), matching(n, dual))
            assert sum(numbers.m) == factorial(n) - len(matching(n, dual).pairs)
            assert numbers.of_dim(-1) == numbers.m[0]


def test_thresholds(table, matching):
    for n in range(1, 7):
        for dual in (False, True):
            numbers = morse_numbers(table(n), matching(n, dual))
            report = check_thresholds(numbers)
            assert report.ok, report.violations
            if dual:
                assert report.required_zero_dims == tuple(
                    i for i in range(-1, n - 1) if 3 * i > 2 * n - 5
                )
            else:
                assert report.required_zero_dims == tuple(
                    i for i in range(-1, n - 1) if 3 * i + 4 < n
                )


def test_threshold_report_flags_fake_counts():
    from hcomplex.morse import MorseNumbers

    fake = MorseNumbers(6, False, (1, 0, 113, 149, 37, 1))  # m_{-1} must vanish
    report = check_thresholds(fake)
    assert not report.ok and report.violations


def test_morse_inequalities(table, matching):
    betti_5 = {1: 16}
    numbers = morse_numbers(table(5), matching(5))
    assert morse_inequalities(numbers, betti_5).ok
    assert not morse_inequalities(numbers, {0: 1}).ok  # m_0 = 0 for n = 5
