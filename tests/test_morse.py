"""Matching digraph, acyclicity certificates, and critical-face counts."""

import random
from array import array
from itertools import accumulate, chain

from hcomplex import reports
from hcomplex.matching import MatchingMap
from hcomplex.morse import (
    AcyclicityCertificate,
    MorseDigraph,
    MorseNumbers,
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
    7: (0, 0, 169, 952, 600, 90, 1),
    8: (0, 0, 0, 4330, 6403, 2277, 205, 1),
}


def digraph(out):
    """The compressed-row digraph of a list of out-lists."""
    offsets = array("i", [0, *accumulate(map(len, out))])
    return MorseDigraph(0, False, offsets, array("i", chain.from_iterable(out)))


def list_built_out(t, m):
    """The out-lists as a walk over the uppers in id order appends them,
    each over its covers in bar order: a cover points up when matched."""
    out = [[] for _ in range(len(t))]
    pairs = m.pairs
    for upper in range(len(t)):
        for lower in t.lowers(upper):
            if pairs.get(lower) == upper:
                out[lower].append(upper)
            else:
                out[upper].append(lower)
    return out


def test_digraph_arcs_equal_the_list_built_out_lists(table, matching):
    for n in range(1, 7):
        t = table(n)
        # any partner array of cover pairs orients the same way: here each
        # face picks a random cover or none, so some faces have several
        # covers matched up into them
        rng = random.Random(n)
        uppers = [[] for _ in range(len(t))]
        for u in range(len(t)):
            for lower in t.lowers(u):
                uppers[lower].append(u)
        picks = (rng.choice([-1, *t.lowers(v), *uppers[v]]) for v in range(len(t)))
        scrambled = MatchingMap(n, False, array("i", picks))
        for m in (matching(n), matching(n, True), scrambled):
            g = build_digraph(t, m)
            assert type(g.offsets) is array and type(g.targets) is array
            assert [list(g.out(v)) for v in range(len(g))] == list_built_out(t, m)


def test_digraph_orients_every_cover_edge(table, matching):
    for n in range(1, 7):
        t = table(n)
        for dual in (False, True):
            g = build_digraph(t, matching(n, dual))
            assert g.arc_count == sum(f.dim + 1 for f in map(t.face, range(len(t))))
            assert g.arc_count == len(g.targets) == g.offsets[-1]
            pairs = matching(n, dual).pairs
            up = sum(
                1
                for v in range(len(g))
                for w in g.out(v)
                if t.face(w).dim == t.face(v).dim + 1
            )
            assert up * 2 == len(pairs)


def test_digraph_for_n3(table, matching):
    g = build_digraph(table(3), matching(3))
    assert list(g.out(0)) == [1]  # the only upward arc: empty face into its partner
    assert list(g.out(5)) == [3, 4]  # unmatched top face points down both covers


def test_acyclicity_certificates_verify(table, matching):
    for n in range(1, 8):
        for dual in (False, True):
            g = build_digraph(table(n), matching(n, dual))
            cert = check_acyclic(g)
            assert cert.acyclic and cert.cycle is None
            assert type(cert.order) is array
            assert verify_certificate(g, cert)
            again = check_acyclic(g)
            assert again.digest() == cert.digest()  # deterministic


def test_digest_hashes_each_id_as_eight_little_endian_bytes():
    import hashlib

    for cert, kind, seq in (
        (AcyclicityCertificate(True, array("i", [2, 0, 1]), None), "order", (2, 0, 1)),
        (AcyclicityCertificate(False, None, (0, 1, 300)), "cycle", (0, 1, 300)),
    ):
        h = hashlib.sha256(kind.encode())
        for x in seq:
            h.update(x.to_bytes(8, "little"))
        assert cert.digest() == h.hexdigest()


def test_cycle_extraction_and_certificate_rejection():
    loop = digraph([[1], [2], [0], []])
    cert = check_acyclic(loop)
    assert not cert.acyclic and cert.order is None
    assert cert.cycle == (0, 1, 2)
    assert verify_certificate(loop, cert)

    # node 3 is a sink fed from the cycle, so it survives the peeling too
    with_sink = digraph([[1], [2], [3, 0], []])
    cert = check_acyclic(with_sink)
    assert not cert.acyclic and cert.order is None
    assert cert.cycle == (0, 1, 2)
    assert verify_certificate(with_sink, cert)

    dag = digraph([[1], [2], [], []])
    good = check_acyclic(dag)
    assert good.acyclic and verify_certificate(dag, good)
    # tampered order: put 1 before 0 despite the 0 -> 1 arc
    order = list(good.order)
    i, j = order.index(0), order.index(1)
    order[i], order[j] = order[j], order[i]
    bad = AcyclicityCertificate(True, tuple(order), None)
    assert not verify_certificate(dag, bad)
    # wrong-length order
    assert not verify_certificate(dag, AcyclicityCertificate(True, (0, 1), None))
    # a repeated node, and nodes out of range
    for order in ((0, 1, 2, 2), (0, 1, 2, 4), (-1, 0, 1, 2)):
        assert not verify_certificate(dag, AcyclicityCertificate(True, order, None))
    # bogus cycle
    assert not verify_certificate(dag, AcyclicityCertificate(False, None, (0, 2)))
    assert not verify_certificate(dag, AcyclicityCertificate(False, None, None))


def test_morse_numbers_frozen(table, matching):
    for n, expected in MORSE_PRIMAL.items():
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


def test_conjecture_row_checks_morse_inequalities(monkeypatch):
    # Morse numbers of zero cannot bound the non-zero Betti numbers
    def all_zero(table, matching, primal=None):
        return None, (), MorseNumbers(table.n, matching.dual, (0,) * table.n)

    assert reports.conjecture_row(5).verdict == "PASS"
    monkeypatch.setattr(reports, "check_matching", all_zero)
    row = reports.conjecture_row(5)
    assert not row.primal_morse_ok and not row.dual_morse_ok
    assert row.verdict == "FAIL"
