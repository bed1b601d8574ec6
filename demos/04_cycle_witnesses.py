"""
Free-face cycle witnesses for non-vanishing homology
====================================================

For each admissible (n, k) the package builds an explicit k-cycle with
2^(k+1) signed faces, one of which is free (maximal) in the whole complex
and carries coefficient +1.  Such a cycle can never be a boundary, so it
certifies non-zero homology without computing any Smith form.
"""

from hcomplex import (
    admissible_pairs,
    boundary_of_chain,
    cycle_witness,
    enumerate_faces,
    free_face,
    verify_witness,
    witness_payload,
)

# the admissible range: 2k+3 <= n <= 3k+4
print(f"admissible (n, k) through n=8: {admissible_pairs(8)}")

# the n=7, k=1 witness in full: four signed edges of the complex
z = cycle_witness(7, 1)
print("\nn=7, k=1 cycle:")
for face, sign in sorted(z.coeffs.items(), key=lambda t: t[0].blocks):
    marker = " <- free face" if face == free_face(7, 1) else ""
    print(f"  {'+' if sign > 0 else '-'}1 {face}{marker}")
print(f"boundary vanishes: {boundary_of_chain(z).is_zero()}")

# certification: unit signs, term count, cycle condition, freeness; the
# face table upgrade checks freeness by exhaustive containment sweep
for n, k in admissible_pairs(8):
    table = enumerate_faces(n)
    report = verify_witness(n, k, table=table)
    print(f"(n={n}, k={k}): {len(report.checks)} checks, "
          f"{report.term_count} terms, ok={report.ok}")

# the construction is table-free, so it scales past enumeration limits
big = verify_witness(12, 3)
print(f"\n(n=12, k=3) without enumeration: ok={big.ok}, {big.term_count} terms")

# a JSON-ready payload, stable under re-runs (what `hcomplex witness` prints)
payload = witness_payload(5, 1)
print(f"payload: free face {payload['freeFace']}, terms {payload['terms']}")
