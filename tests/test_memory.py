"""The face table is flat, and the Smith forms eliminate in place.

The lex-sorted bytes words the table lists are its only index, the cover
incidence is two ``array('i')``, and so is each per-dimension id list.
Tracemalloc bounds guard the footprint of the table and the peak
of the eliminations, and a report row loads no hashing library.  A table
that has released its words keeps all the Smith forms read, and raises one
ValueError wherever a word is asked for.
"""

import math
import subprocess
import sys
import tracemalloc
from array import array
from functools import partial
from itertools import chain

import pytest

from hcomplex.complexes import (
    covers_down,
    enumerate_faces,
    euler_characteristic,
    f_vector,
    is_free_face,
)
from hcomplex.homology import invariant_factors
from hcomplex.matching import build_matching, critical_faces, verify_well_defined
from hcomplex.morse import build_digraph, morse_numbers
from hcomplex.perms import face_from_perm
from hcomplex.reports import face_table_payload

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


@pytest.mark.parametrize("built", [False, True], ids=["fresh", "built"])
def test_every_word_reader_of_a_released_table_raises_one_value_error(built):
    # the matchings are built on a whole table of the same size, or on this
    # one before its release
    t, whole = enumerate_faces(4), enumerate_faces(4)
    matchings = [build_matching(t if built else whole, dual=d) for d in (False, True)]
    if built:
        t.cover_incidence()
    t.release_words()
    readers = [
        lambda: covers_down(t, 5),
        lambda: build_matching(t),
        lambda: build_matching(t, dual=True),
        lambda: face_table_payload(t),
        lambda: is_free_face(t, face_from_perm((1, 2, 4, 3))),
        *(partial(verify_well_defined, t, m) for m in matchings),
    ]
    if not built:
        readers.append(t.cover_incidence)
    for read in readers:
        with pytest.raises(ValueError, match="^the words of the face table for n=4 were released$"):
            read()
    assert len(t) == 24 and f_vector(t) == (1, 11, 11, 1)
    assert euler_characteristic(t) == 0 and len(t.ids_by_dim()[1]) == 11
    if built:
        assert t.cover_incidence() == whole.cover_incidence()
        assert invariant_factors(t, 1) == invariant_factors(whole, 1)
        assert build_digraph(t, matchings[0]) == build_digraph(whole, build_matching(whole))


def test_critical_faces_and_morse_numbers_read_no_words():
    # both read only the bars and the partner ids, which a released table keeps
    t, whole = enumerate_faces(5), enumerate_faces(5)
    matchings = [build_matching(t, dual=d) for d in (False, True)]
    t.release_words()
    for m in matchings:
        assert critical_faces(t, m) == critical_faces(whole, m)
        assert morse_numbers(t, m) == morse_numbers(whole, m)


def test_f_vector_builds_no_id_lists():
    t = enumerate_faces(6)
    assert f_vector(t) == tuple(map(len, enumerate_faces(6).ids_by_dim().values()))
    assert t._ids_by_dim is None


@pytest.mark.parametrize("n", range(1, 8))
def test_a_released_table_has_the_invariant_factors_of_a_whole_one(n, table):
    released = enumerate_faces(n)
    released.cover_incidence()
    released.release_words()
    dims = range(-1, n)
    assert [invariant_factors(released, d) for d in dims] == [
        invariant_factors(table(n), d) for d in dims
    ]
