"""The face table holds each per-face value once.

The index is keyed by the word tuples the faces store, the cover incidence
is one exact-size tuple per face, and the per-dimension id lists reuse the
index's int objects.  A tracemalloc bound per face guards the footprint.
"""

import math
import tracemalloc

from hcomplex.complexes import enumerate_faces

# enumerate_faces(7) + cover_incidence() + ids_by_dim() measured 310 B per
# face under tracemalloc (Python 3.11, 64-bit Linux); the bound allows 15%.
# Cover lists plus a fresh int per id in ids_by_dim read 364 B, and adding a
# second core-tuple key per face to those read 459 B: both fail the bound.
BYTES_PER_FACE_N7 = 356


def test_index_keys_are_the_face_words():
    t = enumerate_faces(6)
    assert len(t.id_of_word) == len(t.faces)
    for word, fid in t.id_of_word.items():
        assert word is t.faces[fid].word


def test_incidence_and_dims_share_the_index_ints():
    t = enumerate_faces(6)
    ids = list(t.id_of_word.values())
    covers = t.cover_incidence()
    assert all(type(lowers) is tuple for lowers in covers)
    for lowers in covers:
        assert all(lower is ids[lower] for lower in lowers)
    for dim_ids in t.ids_by_dim().values():
        assert all(fid is ids[fid] for fid in dim_ids)


def test_table_bytes_per_face_n7():
    tracemalloc.start()
    try:
        t = enumerate_faces(7)
        t.cover_incidence()
        t.ids_by_dim()
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_face = size / math.factorial(7)
    assert per_face <= BYTES_PER_FACE_N7, f"{per_face:.0f} B per face"
