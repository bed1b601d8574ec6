"""
Faces of the descent complex, and three ways to count them
==========================================================

Every permutation of 1..n carries one face: bar the word at its descents
and read off the chain of prefix sets.  Counting faces by dimension gives
the Eulerian numbers, and the alternating sum collapses to a tangent
coefficient.
"""

from math import factorial

from hcomplex import (
    alternating_eulerian,
    enumerate_faces,
    euler_characteristic,
    eulerian_row,
    f_vector,
    face_from_perm,
    lex_shelling_check,
    tanh_euler_characteristic,
)

# one permutation, one face: bars sit exactly at the descents
f = face_from_perm((2, 1, 4, 6, 5, 3))
print(f"word {list(f.word)} -> face {f} (dim {f.dim})")
print(f"chain of prefix-set bitmasks: {f.chain()}")

# the whole complex for n = 4: 24 faces, one per permutation
table = enumerate_faces(4)
print(f"\nn=4: {len(table)} faces")
for face in table.faces:
    print(f"  {face!r:>32}  dim {face.dim}")

# face counts by dimension are an Eulerian row (dim d-1 <-> d descents)
for n in range(1, 8):
    t = enumerate_faces(n)
    assert f_vector(t) == eulerian_row(n)
    print(f"n={n}: f-vector {f_vector(t)}")

# the reduced Euler characteristic has a closed form: n! [x^n](-tanh x)
print("\nn  chi~(complex)  alternating Eulerian sum  tanh formula")
for n in range(1, 8):
    chi = euler_characteristic(enumerate_faces(n))
    print(f"{n}  {chi:>13}  {alternating_eulerian(n):>24}  {tanh_euler_characteristic(n):>12}")
    assert chi == alternating_eulerian(n) == tanh_euler_characteristic(n)

# where the complex comes from: walking the facets of the order complex of
# proper non-empty subsets in lex order, each facet contributes exactly one
# minimal new face, the chain at its descents; the family is subchain-closed
report = lex_shelling_check(5)
print(
    f"\nshelling scan n=5: ok={report.ok}, {report.facet_count} facets "
    f"(= {factorial(5)}), minimal-face dims {report.dim_histogram}"
)
