"""Every docstring example in the package must hold."""

import doctest

import pytest

import hcomplex
from hcomplex import (
    cli,
    complexes,
    homology,
    matching,
    morse,
    perms,
    reports,
    snf,
    witnesses,
)

MODULES = [
    hcomplex,
    cli,
    complexes,
    homology,
    matching,
    morse,
    perms,
    reports,
    snf,
    witnesses,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
    if module is not cli:  # pure plumbing keeps no examples
        assert result.attempted > 0
