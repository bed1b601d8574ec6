"""Every frozen dataclass of the package refuses every set and delete.

``dataclass(frozen=True, slots=True)`` alone raises TypeError, not
FrozenInstanceError, when a name that is not a field is set (Python 3.11);
``perms.frozen_slots`` mends that.  Pickle and copy still round-trip.
"""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import hcomplex
from hcomplex.complexes import enumerate_faces, lex_shelling_check
from hcomplex.homology import betti_table, boundary_matrix
from hcomplex.matching import build_matching, verify_well_defined
from hcomplex.morse import (
    build_digraph,
    check_acyclic,
    check_thresholds,
    morse_inequalities,
    morse_numbers,
)
from hcomplex.reports import ConjectureReport, conjecture_row
from hcomplex.witnesses import cycle_witness, verify_witness, witness_spec

T = enumerate_faces(4)
M = build_matching(T)
NUMBERS = morse_numbers(T, M)

INSTANCES = {
    "BarredFace": lambda: T.face(5),
    "ShellingReport": lambda: lex_shelling_check(3),
    "MatchingReport": lambda: verify_well_defined(T, M),
    "AcyclicityCertificate": lambda: check_acyclic(build_digraph(T, M)),
    "MorseNumbers": lambda: NUMBERS,
    "ThresholdReport": lambda: check_thresholds(NUMBERS),
    "InequalityReport": lambda: morse_inequalities(NUMBERS, betti_table(T).betti),
    "BoundaryMatrix": lambda: boundary_matrix(T, 1),
    "BettiTable": lambda: betti_table(T),
    "SignedChain": lambda: cycle_witness(7, 1),
    "WitnessSpec": lambda: witness_spec(7, 1),
    "WitnessReport": lambda: verify_witness(7, 1),
    "ConjectureRow": lambda: conjecture_row(3),
    "ConjectureReport": lambda: ConjectureReport((conjecture_row(3),)),
}


def _frozen_dataclasses():
    for info in pkgutil.iter_modules(hcomplex.__path__):
        module = importlib.import_module(f"hcomplex.{info.name}")
        for cls in vars(module).values():
            if (
                inspect.isclass(cls)
                and cls.__module__ == module.__name__
                and dataclasses.is_dataclass(cls)
                and cls.__dataclass_params__.frozen
            ):
                yield cls


def test_every_frozen_dataclass_is_listed():
    assert {cls.__name__ for cls in _frozen_dataclasses()} == set(INSTANCES)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_frozen_dataclass_refuses_every_set_and_delete(name):
    obj = INSTANCES[name]()
    assert type(obj).__name__ == name
    first = dataclasses.fields(obj)[0].name
    for attr in (first, "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, attr, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, attr)
    for copied in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert copied == obj
