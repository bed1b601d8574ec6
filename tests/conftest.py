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
    """Environment for a child interpreter that imports this checkout, uncached."""
    env = {k: v for k, v in os.environ.items() if k != "HCOMPLEX_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
