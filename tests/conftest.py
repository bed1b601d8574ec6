"""Shared fixtures: face tables and matchings are expensive, build them once."""

import os
from pathlib import Path

import pytest

from hcomplex.complexes import enumerate_faces
from hcomplex.matching import build_matching

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session")
def table():
    cache = {}

    def get(n: int):
        if n not in cache:
            cache[n] = enumerate_faces(n, max_n=9)
        return cache[n]

    return get


@pytest.fixture(scope="session")
def matching(table):
    cache = {}

    def get(n: int, dual: bool = False):
        if (n, dual) not in cache:
            cache[n, dual] = build_matching(table(n), dual=dual)
        return cache[n, dual]

    return get


@pytest.fixture(scope="session")
def subprocess_env():
    """Environment for a child interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _gauss_rank_mod_p(dense, p):
    m = [[v % p for v in row] for row in dense]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        for r in range(rank, len(m)):
            if m[r][col]:
                m[rank], m[r] = m[r], m[rank]
                inv = pow(m[rank][col], -1, p)
                m[rank] = [v * inv % p for v in m[rank]]
                for other in range(len(m)):
                    if other != rank and m[other][col]:
                        c = m[other][col]
                        m[other] = [(a - c * b) % p for a, b in zip(m[other], m[rank])]
                rank += 1
                break
    return rank


@pytest.fixture(scope="session")
def gauss_rank_mod_p():
    """Rank of a dense integer matrix over F_p by Gauss elimination mod p.

    An oracle that shares no code with the Smith form.
    """
    return _gauss_rank_mod_p
