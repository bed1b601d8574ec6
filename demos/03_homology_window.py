"""
Exact homology and the middle-third non-vanishing window
========================================================

Reduced homology is computed from integer boundary matrices by Smith
normal form, so torsion cannot hide.  The conjecture under test: homology
is non-zero exactly for (n-4)/3 <= i <= (2n-5)/3.
"""

from hcomplex import (
    betti_table,
    boundary_matrix,
    check_betti_symmetry,
    enumerate_faces,
    expected_nonzero_dims,
    morse_numbers,
    build_matching,
)

# the boundary operator in one dimension, as a sparse integer matrix
table = enumerate_faces(5)
bm = boundary_matrix(table, 2)
print(f"n=5, d_2: {bm.n_rows} x {bm.n_cols}, {bm.nnz} non-zeros")

# Betti numbers with torsion, straight from Smith normal form
for n in range(3, 8):
    t = enumerate_faces(n)
    bt = betti_table(t)
    nonzero = {d: b for d, b in bt.betti.items() if b}
    print(f"n={n}: betti~ {nonzero or 'all zero'}, torsion {bt.torsion or 'none'}")

# the window prediction, checked dimension by dimension
print("\nn  expected dims   observed dims   verdict")
for n in range(2, 8):
    expected = tuple(sorted(expected_nonzero_dims(n)))
    observed = tuple(sorted(betti_table(enumerate_faces(n)).nonzero_dims()))
    print(f"{n}  {expected!s:>14}  {observed!s:>14}  "
          f"{'PASS' if observed == expected else 'FAIL'}")

# two structural cross-checks: Poincare-style symmetry of the Betti
# numbers, and the Morse numbers of the matching bounding them above
t7 = enumerate_faces(7)
bt7 = betti_table(t7, "Q")
print(f"\nn=7 symmetry betti~_i = betti~_{{4-i}}: {check_betti_symmetry(bt7)}")
m7 = morse_numbers(t7, build_matching(t7))
print(f"n=7 Morse numbers {m7.m} dominate betti {bt7.betti}")

# the window for larger n, where full enumeration is out of reach
for n in (10, 20, 30):
    print(f"n={n}: predicted non-zero dims {sorted(expected_nonzero_dims(n))}")
