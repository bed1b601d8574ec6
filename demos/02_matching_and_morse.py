"""
The discrete matching, its dual, and acyclicity certificates
============================================================

Each non-critical face pairs with a neighbor through its lowest matchable
block; the dual matching is the same rule after reversing the value order.
Orienting the Hasse diagram against the matching must give an acyclic
digraph, and the topological order is a certificate anyone can re-check.
"""

from hcomplex import (
    BarredFace,
    build_digraph,
    build_matching,
    check_acyclic,
    check_thresholds,
    critical_faces,
    diagnose_word,
    dual_partner,
    enumerate_faces,
    morse_numbers,
    partner,
    verify_certificate,
    verify_well_defined,
)

# a face and its partner differ by one adjacent swap of the word
f = BarredFace(7, ((0, 3), (1, 2, 4, 6), (5, 7, 8)))
g = partner(f)
block, rank, kind, p = diagnose_word(f.word)
print(f"{f}  <->  {g}")
print(f"matched through block {block} ({kind.value}, rank {rank}): swap word positions {p}, {p + 1}")
assert partner(g) == f

# the dual pairs the same faces after v -> n+1-v conjugation
print(f"dual partner of {f}: {dual_partner(f)}")

# whole-table verification: involution, cover pairs, shared rank, inverse types
table = enumerate_faces(6)
for dual in (False, True):
    matching = build_matching(table, dual=dual)
    report = verify_well_defined(table, matching)
    side = "dual" if dual else "primal"
    print(f"\nn=6 {side}: ok={report.ok}, {report.pair_count} pairs, "
          f"{report.critical_count} critical faces")

    numbers = morse_numbers(table, matching)
    thresholds = check_thresholds(numbers)
    print(f"  Morse numbers by dim -1..{table.n - 2}: {numbers.m}")
    print(f"  forced zeros at dims {thresholds.required_zero_dims}: ok={thresholds.ok}")

    digraph = build_digraph(table, matching)
    cert = check_acyclic(digraph)
    print(f"  digraph: {digraph.arc_count} arcs, acyclic={cert.acyclic}, "
          f"certificate re-check: {verify_certificate(digraph, cert)}")

# critical faces of the primal matching keep every block at size <= 3
crit = critical_faces(table, build_matching(table))
sample = [table.face(i) for i in crit[2][:4]]
print(f"\nsome critical 2-faces: {sample}")
