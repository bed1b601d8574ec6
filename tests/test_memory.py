"""The face table is flat, and the Smith forms eliminate in place.

The lex-sorted bytes words the table lists are its only index, the cover
incidence is two ``array('i')``, and so is each per-dimension id list.
Tracemalloc bounds guard the footprint of the table and the peak
of the eliminations, and a report row loads no hashing library.  A table
that has released its words keeps all the Smith forms read, and fails
loudly where a word is asked for.
"""

import math
import subprocess
import sys
import tracemalloc
from array import array
from itertools import chain

import pytest

from hcomplex.complexes import enumerate_faces
from hcomplex.homology import invariant_factors

# enumerate_faces(7) + cover_incidence() + ids_by_dim() measured 80 B per
# face under tracemalloc (Python 3.11, 64-bit Linux); the bound allows 15%.
# A dict from words to ids on top read 143 B, and a BarredFace and a word
# tuple per face with one tuple of lower ids each read 310 B.
BYTES_PER_FACE_N7 = 92

# invariant_factors(t, 0) on enumerate_faces(7), incidence and id lists
# already built, peaked at 0.70 MB under tracemalloc (Python 3.11, 64-bit
# Linux); the bound allows 15%.  A set of rows per column peaked at 1.01 MB,
# and eliminating a private copy of each boundary at 1.33 MB.
INVARIANTS_PEAK_N7 = 804_000


def test_index_keys_are_the_face_words():
    t = enumerate_faces(6)
    assert len(t.words) == len(t.bars) == len(t)
    assert all(type(word) is bytes for word in t.words)
    assert all(map(bytes.__lt__, t.words, t.words[1:]))
    assert [t.id_of_word(word) for word in t.words] == list(range(len(t)))
    for miss in (b"", b"\0\1\2\3\4\5\6", b"\0\6\5\4\3\2\1\7\0", b"\7"):
        with pytest.raises(KeyError):
            t.id_of_word(miss)


def test_incidence_is_flat_and_dims_partition_the_ids():
    t = enumerate_faces(6)
    offsets, lowers = t.cover_incidence()
    assert type(offsets) is array and type(lowers) is array
    assert len(offsets) == len(t) + 1
    by_dim = t.ids_by_dim()
    assert all(type(dim_ids) is array for dim_ids in by_dim.values())
    assert sorted(chain.from_iterable(by_dim.values())) == list(range(len(t)))
    assert all(t.bars[fid] == d + 1 for d, dim_ids in by_dim.items() for fid in dim_ids)


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


def test_a_released_table_keeps_its_size_and_refuses_its_words():
    t = enumerate_faces(5)
    incidence = t.cover_incidence()
    by_dim = t.ids_by_dim()
    factors = invariant_factors(t, 1)
    word = t.words[7]
    t.release_words()
    assert t.words is None and t._partners is None
    assert len(t) == 120
    assert t.cover_incidence() is incidence and t.ids_by_dim() is by_dim
    assert invariant_factors(t, 1) is factors
    with pytest.raises(ValueError, match=r"^the words of the face table for n=5 were released$"):
        t.face(7)
    with pytest.raises(ValueError, match="were released"):
        t.id_of_word(word)


@pytest.mark.parametrize("n", range(1, 8))
def test_a_released_table_has_the_invariant_factors_of_a_whole_one(n, table):
    released = enumerate_faces(n)
    released.cover_incidence()
    released.release_words()
    dims = range(-1, n)
    assert [invariant_factors(released, d) for d in dims] == [
        invariant_factors(table(n), d) for d in dims
    ]
