"""The face table is flat, and the Smith forms eliminate in place.

The index is keyed by the bytes words the table lists, the cover incidence
is two ``array('i')``, and the per-dimension id lists reuse the index's int
objects.  Tracemalloc bounds guard the footprint of the table and the peak
of the eliminations, and a report row loads no hashing library.
"""

import math
import subprocess
import sys
import tracemalloc
from array import array

from hcomplex.complexes import enumerate_faces
from hcomplex.homology import invariant_factors

# enumerate_faces(7) + cover_incidence() + ids_by_dim() measured 136 B per
# face under tracemalloc (Python 3.11, 64-bit Linux); the bound allows 15%.
# A BarredFace and a word tuple per face with one tuple of lower ids each
# read 310 B.
BYTES_PER_FACE_N7 = 156

# invariant_factors(t, 0) on enumerate_faces(7), incidence and id lists
# already built, peaked at 0.70 MB under tracemalloc (Python 3.11, 64-bit
# Linux); the bound allows 15%.  A set of rows per column peaked at 1.01 MB,
# and eliminating a private copy of each boundary at 1.33 MB.
INVARIANTS_PEAK_N7 = 804_000


def test_index_keys_are_the_face_words():
    t = enumerate_faces(6)
    assert len(t.id_of_word) == len(t.words) == len(t.bars) == len(t)
    for (word, fid), listed in zip(t.id_of_word.items(), t.words):
        assert type(word) is bytes
        assert word is listed and t.words[fid] is word


def test_incidence_is_flat_and_dims_share_the_index_ints():
    t = enumerate_faces(6)
    ids = list(t.id_of_word.values())
    offsets, lowers = t.cover_incidence()
    assert type(offsets) is array and type(lowers) is array
    assert len(offsets) == len(t) + 1
    for dim_ids in t.ids_by_dim().values():
        assert all(fid is ids[fid] for fid in dim_ids)


def test_a_report_row_loads_no_hashing_library(subprocess_env):
    # OpenSSL's libcrypto, which _hashlib maps, is megabytes of RSS; only a
    # printed certificate digest needs it
    code = (
        "import sys, hcomplex.cli\n"
        "from hcomplex.reports import conjecture_row\n"
        "assert conjecture_row(6).verdict == 'PASS'\n"
        "print(sorted(m for m in ('_hashlib', 'hashlib') if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=subprocess_env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout == "[]\n", out.stderr


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


def test_smith_forms_peak_n7():
    t = enumerate_faces(7)
    t.cover_incidence()
    t.ids_by_dim()
    tracemalloc.start()
    try:
        invariant_factors(t, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= INVARIANTS_PEAK_N7, f"peak {peak} B"
