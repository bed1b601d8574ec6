"""Free-face cycle witnesses for the non-vanishing dimensions.

For admissible pairs (n, k), meaning 2(k+1) + 1 <= n <= 3(k+1) + 1, there is
a k-dimensional face built from j = 3(k+1) + 1 - n nested pairs {i, n+1-i}
followed by a fixed pattern on the middle letters:

    pair {1, 3}, then triples {2,4,6}, {5,7,9}, .., then pair {m-2, m},

shifted up by j.  When the middle degenerates (kappa = k - j = -1) it is a
single letter.  The face is free: no face of the complex properly contains
it.  Swapping the last two letters of any one of the first k+1 blocks keeps
the dimension, and the signed sum over all 2^(k+1) such swap subsets is a
cycle z.  A cycle supported on a free face with coefficient +-1 can never be
a boundary, so z certifies non-vanishing homology in dimension k.

>>> free_face(5, 1)
BarredFace(5, 015|24|36)
>>> len(cycle_witness(7, 1))
4
>>> verify_witness(7, 1).ok
True
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import FaceTable, is_free_face
from .homology import SignedChain, boundary_of_chain
from .perms import BarredFace, Permutation, face_from_perm


def admissible_pairs(n_max: int) -> list[tuple[int, int]]:
    """All (n, k) the family covers with n <= n_max, ordered by n then k.

    >>> admissible_pairs(8)
    [(1, -1), (3, 0), (4, 0), (5, 1), (6, 1), (7, 1), (7, 2), (8, 2)]
    """
    return [
        (n, k)
        for n in range(1, n_max + 1)
        for k in range(-1, n)
        if 2 * (k + 1) + 1 <= n <= 3 * (k + 1) + 1
    ]


@dataclass(frozen=True, slots=True)
class WitnessSpec:
    """The free face plus the swap positions generating the cycle terms.

    Generators are (p, p+1) pairs of 0-based core word positions, the last
    two letters of each of the first k+1 blocks; they touch disjoint
    positions, so swap subsets compose freely.
    """

    n: int
    k: int
    j: int
    kappa: int
    free_face: BarredFace
    generators: tuple[tuple[int, int], ...]


def witness_spec(n: int, k: int) -> WitnessSpec:
    """Construct the witness data for an admissible pair.

    >>> witness_spec(8, 2).free_face
    BarredFace(8, 018|27|35|469)
    >>> witness_spec(7, 1).generators
    ((0, 1), (3, 4))
    """
    if not (k >= -1 and 2 * (k + 1) + 1 <= n <= 3 * (k + 1) + 1):
        raise ValueError(f"(n, k) = ({n}, {k}) is not admissible")
    j = 3 * (k + 1) + 1 - n
    kappa = k - j
    blocks: list[tuple[int, ...]] = [(i, n + 1 - i) for i in range(1, j + 1)]
    if kappa == -1:
        blocks.append((j + 1,))
    else:
        m = n - 2 * j  # middle size, equals 3*kappa + 4
        blocks.append((j + 1, j + 3))
        for t in range(kappa):
            blocks.append((j + 3 * t + 2, j + 3 * t + 4, j + 3 * t + 6))
        blocks.append((j + m - 2, j + m))
    if len(blocks) == 1:
        face = BarredFace(n, ((0,) + blocks[0] + (n + 1,),))
    else:
        face = BarredFace(
            n, ((0,) + blocks[0],) + tuple(blocks[1:-1]) + (blocks[-1] + (n + 1,),)
        )
    if face.dim != k:
        raise AssertionError(f"free face {face!r} has dimension {face.dim}, not {k}")
    gens = []
    pos = 0
    for b in blocks[: k + 1]:
        gens.append((pos + len(b) - 2, pos + len(b) - 1))
        pos += len(b)
    return WitnessSpec(n, k, j, kappa, face, tuple(gens))


def free_face(n: int, k: int) -> BarredFace:
    """Just the free face of the witness.

    >>> free_face(7, 2)
    BarredFace(7, 017|26|35|48)
    """
    return witness_spec(n, k).free_face


def cycle_witness(n: int, k: int) -> SignedChain:
    """The witness cycle: signed swap sum over subsets of the generators.

    >>> for f, c in sorted(cycle_witness(7, 1).coeffs.items(), key=lambda t: t[0].blocks):
    ...     print(f"{c:+d} {f!r}")
    +1 BarredFace(7, 013|246|578)
    -1 BarredFace(7, 013|26|4578)
    -1 BarredFace(7, 03|1246|578)
    +1 BarredFace(7, 03|126|4578)
    """
    spec = witness_spec(n, k)
    core = list(spec.free_face.word[1:-1])
    coeffs: dict[BarredFace, int] = {}
    for size in range(len(spec.generators) + 1):
        for subset in combinations(spec.generators, size):
            word = core[:]
            for p, q in subset:
                word[p], word[q] = word[q], word[p]
            face = face_from_perm(Permutation.from_core(tuple(word)))
            if face.dim != k or face in coeffs:
                raise AssertionError(f"swap term {face!r} is repeated or not of dimension {k}")
            coeffs[face] = 1 if size % 2 == 0 else -1
    return SignedChain(n, k, coeffs)


def has_local_parent(face: BarredFace) -> bool:
    """Whether some face of the full complex properly contains this one.

    Refinements insert one subset into the chain, splitting a block into a
    lower part L and upper part U.  The split is legal exactly when the new
    bar is a descent (max L > min U) and the bars either side survive: the
    block's first letter moving up into U forces the previous block to still
    descend onto min L, and its last letter moving down into L forces max U
    to still descend onto the next block.  Sentinels stay put, so the first
    and last blocks skip the outer conditions.

    >>> has_local_parent(free_face(5, 1))
    False
    >>> has_local_parent(BarredFace(3, ((0, 1, 2, 3, 4),)))  # the empty face
    True
    """
    blocks = face.blocks
    for i, block in enumerate(blocks):
        core = [v for v in block if 0 < v <= face.n]
        if len(core) < 2:
            continue
        before = blocks[i - 1][-1] if i > 0 else None
        after = blocks[i + 1][0] if i + 1 < len(blocks) else None
        for size in range(1, len(core)):
            for lower in combinations(core, size):
                upper = [v for v in core if v not in lower]
                if max(lower) < upper[0]:
                    continue  # new bar would be an ascent
                if after is not None and core[-1] in lower and upper[-1] < after:
                    continue  # bar after the block would dissolve
                if before is not None and core[0] not in lower and before < lower[0]:
                    continue  # bar before the block would dissolve
                return True
    return False


@dataclass(frozen=True, slots=True)
class WitnessReport:
    n: int
    k: int
    term_count: int
    checks: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def verify_witness(n: int, k: int, table: FaceTable | None = None) -> WitnessReport:
    """Certify the witness: a cycle, +-1 on a face free in the whole complex.

    The free-face scan is local; passing the face table additionally checks
    freeness against an exhaustive sweep of the enumerated complex.

    >>> verify_witness(5, 1).checks
    {'signs_unit': True, 'term_count': True, 'is_cycle': True, 'free_face_in_cycle': True, 'free_face_is_free': True}
    """
    spec = witness_spec(n, k)
    z = cycle_witness(n, k)
    checks = {
        "signs_unit": all(c in (1, -1) for c in z.coeffs.values()),
        "term_count": len(z) == 2 ** (k + 1),
        "is_cycle": boundary_of_chain(z).is_zero(),
        "free_face_in_cycle": z.coeffs.get(spec.free_face) == 1,
        "free_face_is_free": not has_local_parent(spec.free_face),
    }
    if table is not None:
        checks["free_face_is_free_in_table"] = is_free_face(table, spec.free_face)
    return WitnessReport(n, k, len(z), checks)


def _core_blocks(face: BarredFace) -> str:
    inner = [[v for v in b if 0 < v <= face.n] for b in face.blocks]
    return "|".join(",".join(map(str, b)) for b in inner if b)


def witness_payload(n: int, k: int) -> dict:
    """JSON-ready description of the witness, deterministically ordered.

    Each term is carried by its permutation (the concatenated blocks), which
    determines the face.

    >>> witness_payload(3, 0)["terms"]
    [{'perm': [1, 3, 2], 'sign': 1}, {'perm': [3, 1, 2], 'sign': -1}]
    """
    spec = witness_spec(n, k)
    z = cycle_witness(n, k)
    terms = sorted(
        ({"perm": list(f.word[1:-1]), "sign": c} for f, c in z.coeffs.items()),
        key=lambda t: t["perm"],
    )
    return {
        "n": n,
        "k": k,
        "freeFace": _core_blocks(spec.free_face),
        "terms": terms,
    }
