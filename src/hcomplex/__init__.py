"""Descent complexes of permutations: matchings, homology, and witnesses.

The complex has one face per permutation of {1..n}: the chain of prefix sets
cut at the descents.  This package builds the face tables, constructs and
machine-verifies a discrete matching by cover pairs and its order-reversed
dual, certifies the matching digraphs acyclic, computes exact reduced
homology through Smith normal form, and checks the predicted middle-third
non-vanishing window, with explicit free-face cycle witnesses.

>>> from hcomplex import betti_table, enumerate_faces, expected_nonzero_dims
>>> betti_table(enumerate_faces(4)).nonzero_dims() == expected_nonzero_dims(4)
True
"""

from .complexes import (
    BudgetExceededError,
    FaceTable,
    ShellingReport,
    alternating_eulerian,
    enumerate_faces,
    euler_characteristic,
    eulerian_row,
    f_vector,
    is_free_face,
    lex_shelling_check,
    tanh_euler_characteristic,
)
from .homology import (
    BettiTable,
    SignedChain,
    betti_table,
    boundary_matrix,
    boundary_of_chain,
    check_betti_symmetry,
    expected_nonzero_dims,
    invariant_factors,
    nonzero_dims_via_ranks,
)
from .matching import (
    MatchingMap,
    MatchingReport,
    build_matching,
    critical_faces,
    dual_partner,
    partner,
    verify_well_defined,
)
from .morse import (
    AcyclicityCertificate,
    MorseNumbers,
    build_digraph,
    check_acyclic,
    check_thresholds,
    morse_inequalities,
    morse_numbers,
    verify_certificate,
)
from .perms import (
    BarredFace,
    MatchableType,
    diagnose_word,
    face_from_chain,
    face_from_perm,
)
from .reports import (
    ConjectureReport,
    ConjectureRow,
    conjecture_row,
    render_report,
)
from .snf import rank_mod_p, rank_q, smith_normal_form
from .witnesses import (
    WitnessReport,
    admissible_pairs,
    cycle_witness,
    free_face,
    verify_witness,
    witness_payload,
    witness_spec,
)

__version__ = "0.1.0"
