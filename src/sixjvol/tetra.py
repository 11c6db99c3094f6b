"""Generalized hyperbolic tetrahedra from Gram matrices.

A Gram matrix of signature (3,1) factors as G = U^T I_{3,1} U in the
Minkowski inner product <x,y> = x1 y1 + x2 y2 + x3 y3 - x4 y4.  The
columns u_i of U are the outward unit normals of the four faces; the
(possibly truncated) vertices are obtained from the cofactor
combinations w_i = sum_j cof_ij u_j, which satisfy

    <w_i, w_j> = det(G) * cof_ij,      <u_j, w_i> = det(G) * delta_ij,

so the sign of the diagonal cofactor cof_ii decides the vertex type:
positive -> an honest vertex in H^3 (regular), zero -> ideal, negative
-> hyperideal (the vertex lies beyond infinity and is truncated along
its polar plane).

Throughout, `cof_ij` denotes the signed (i,j) cofactor of G; distances
between the vertex/polar-plane pair i,j come from the standard
point-point / point-plane / plane-plane distance formulas in terms of
cofactors, and the edge between faces i and j gets the *signed* length
+-d_kl of the complementary pair {k,l}, positive exactly when cof_kl > 0.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .gram import (DEFAULT_TOL, EDGE_COMPLEMENT, GramMatrix, cofactor_matrix,
                   signature, tol_sign)
from .qnum import _FrozenRecord

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class MinkowskiVector(_FrozenRecord):
    """A vector in R^{3,1}; the fourth coordinate is the timelike one.

    Immutable, and equal only to itself.
    """

    __slots__ = ("x",)

    def __init__(self, x) -> None:
        v = np.asarray(x, dtype=np.float64)
        if v.shape != (4,):
            raise ValueError("Minkowski vectors have four components")
        object.__setattr__(self, "x", v)


def _mdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minkowski products over the leading (coordinate) axis of two
    broadcastable arrays: x1 y1 + x2 y2 + x3 y3 - x4 y4, summed left to
    right."""
    p = x * y
    return p[0] + p[1] + p[2] - p[3]


def minkowski_dot(a: MinkowskiVector, b: MinkowskiVector) -> float:
    return float(_mdot(a.x, b.x))


class VertexType(enum.Enum):
    REGULAR = "Regular"
    IDEAL = "Ideal"
    HYPERIDEAL = "Hyperideal"


class DistanceKind(enum.Enum):
    VERTEX_VERTEX = "VertexVertex"
    VERTEX_PLANE = "VertexPlane"
    PLANE_PLANE = "PlanePlane"


class SegmentSide(enum.Enum):
    SEGMENT_MEETS = "SegmentMeets"
    COMPLEMENT_MEETS = "ComplementMeets"


class EdgeDistance(NamedTuple):
    """Distance between the (projected) endpoints i and j.

    `ideal` marks an ideal endpoint, in which case d is +inf; the kind
    still records whether each side is a point or a truncation plane.
    """

    d: float
    kind: DistanceKind
    ideal: bool = False


class CaseLabel(NamedTuple):
    """Sign-pattern case of the cofactor matrix, e.g. "3b".

    `operations` lists the vertex indices (1..4) whose change-of-angles
    move was applied before the pattern matched one of the listed
    configurations; empty when the raw pattern already matches.
    """

    label: str
    operations: tuple[int, ...]

    def __str__(self) -> str:
        return self.label


class GeneralizedTetrahedron(NamedTuple):
    gram: GramMatrix
    normals: tuple[MinkowskiVector, ...]
    vertices: tuple[MinkowskiVector, ...]
    vertex_types: tuple[VertexType, ...]
    edge_lengths: tuple[float, ...]
    case: CaseLabel

    def edge_distance(self, e: int) -> EdgeDistance:
        """`distance` of the endpoint pair opposite edge e (0-based)."""
        k, l = EDGE_COMPLEMENT[e]
        return distance(self.gram, k + 1, l + 1)


# Sign of the diagonal cofactor cof_ii -> type of vertex i.
_VERTEX_TYPE_OF_SIGN = {1: VertexType.REGULAR, 0: VertexType.IDEAL,
                        -1: VertexType.HYPERIDEAL}
# Type of vertex i -> its Minkowski norm <v_i, v_i> after reconstruction.
_NORM_OF_TYPE = {VertexType.REGULAR: -1.0, VertexType.IDEAL: 0.0,
                 VertexType.HYPERIDEAL: 1.0}


def vertex_type(G: GramMatrix, i: int) -> VertexType:
    """Vertex i (1..4) by the sign of the diagonal cofactor cof_ii.

    Gram entries are cosines, so cofactors are O(1) and "ideal" is an
    absolute threshold.
    """
    if i not in (1, 2, 3, 4):
        raise ValueError("vertex index must be 1..4")
    return _VERTEX_TYPE_OF_SIGN[tol_sign(cofactor_matrix(G.mat)[i - 1, i - 1])]


def _pair_kind(plane_i: bool, plane_j: bool) -> DistanceKind:
    """Kind of a distance whose endpoints are points or truncation planes
    (hyperideal vertices)."""
    if plane_i and plane_j:
        return DistanceKind.PLANE_PLANE
    if plane_i or plane_j:
        return DistanceKind.VERTEX_PLANE
    return DistanceKind.VERTEX_VERTEX


def _distance_from_cofactors(cii: float, cjj: float,
                             cij: float) -> EdgeDistance:
    si, sj = tol_sign(cii), tol_sign(cjj)
    kind = _pair_kind(si < 0, sj < 0)
    if si == 0 or sj == 0:
        # An ideal endpoint is infinitely far from everything else.
        return EdgeDistance(math.inf, kind, ideal=True)
    if kind is DistanceKind.VERTEX_PLANE:
        arg = abs(cij) / math.sqrt(-cii * cjj)
        return EdgeDistance(math.asinh(arg), kind)
    arg = abs(cij) / math.sqrt(cii * cjj)
    if arg < 1.0:
        if arg < 1.0 - DEFAULT_TOL:
            raise ValueError(
                f"inconsistent Gram data: arccosh argument {arg} < 1")
        arg = 1.0
    return EdgeDistance(math.acosh(arg), kind)


def _check_pair(i: int, j: int) -> None:
    if i == j or i not in (1, 2, 3, 4) or j not in (1, 2, 3, 4):
        raise ValueError("need two distinct indices in 1..4")


def distance(G: GramMatrix, i: int, j: int) -> EdgeDistance:
    """Hyperbolic distance between endpoints i and j (1..4, i != j).

    Point-point and plane-plane pairs use arccosh, mixed pairs arcsinh,
    always on |cof_ij| / sqrt(|cof_ii cof_jj|).
    """
    _check_pair(i, j)
    cof = cofactor_matrix(G.mat)
    return _distance_from_cofactors(cof[i - 1, i - 1], cof[j - 1, j - 1],
                                    cof[i - 1, j - 1])


def _signed_length(cof: list, k: int, l: int) -> float:
    """Distance of the pair {k,l} (0-based), negative unless cof_kl > 0;
    cof is the cofactor matrix as nested lists of floats."""
    d = _distance_from_cofactors(cof[k][k], cof[l][l], cof[k][l]).d
    return d if tol_sign(cof[k][l]) > 0 else -d


def edge_length(G: GramMatrix, i: int, j: int) -> float:
    """Signed length of the edge between faces i and j (1..4).

    The magnitude is the distance of the complementary pair {k,l}; the
    sign is that of cof_kl (non-positive cofactor -> negative length).
    """
    _check_pair(i, j)
    k, l = (x for x in range(4) if x not in (i - 1, j - 1))
    return _signed_length(cofactor_matrix(G.mat).tolist(), k, l)


def edge_length_tuple(G: GramMatrix) -> tuple[float, ...]:
    """The six signed edge lengths in edge order (l_1..l_6)."""
    cof = cofactor_matrix(G.mat).tolist()
    return tuple(_signed_length(cof, k, l) for k, l in EDGE_COMPLEMENT)


def segment_side(G: GramMatrix, i: int, j: int) -> SegmentSide:
    """For two hyperideal endpoints: which side of the edge line meets H^3.

    SegmentMeets when cof_ij >= sqrt(cof_ii cof_jj), ComplementMeets for
    the opposite sign; anything strictly in between means the line
    avoids the ball entirely (deep truncation, unsupported here).
    """
    _check_pair(i, j)
    cof = cofactor_matrix(G.mat)
    cii, cjj, cij = cof[i - 1, i - 1], cof[j - 1, j - 1], cof[i - 1, j - 1]
    if not (tol_sign(cii) < 0 and tol_sign(cjj) < 0):
        raise ValueError("segment side is defined for hyperideal endpoints")
    root = math.sqrt(cii * cjj)
    if cij >= root - DEFAULT_TOL:
        return SegmentSide.SEGMENT_MEETS
    if cij <= -root + DEFAULT_TOL:
        return SegmentSide.COMPLEMENT_MEETS
    raise ValueError("line misses the ball")


# ---------------------------------------------------------------------------
# Case labels: sign pattern of the cofactor matrix, normalized by
# change-of-angles moves.  A move at vertex set S multiplies cof_ij by
# sigma_i sigma_j (sigma = -1 on S) and fixes the diagonal, so the
# normalization search runs over subsets of {1,2,3,4}; complementary
# subsets act identically, so |S| <= 2 suffices.

_SUBSETS = ((), (0,), (1,), (2,), (3,),
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _match_case(diag_sign, off_sign) -> str | None:
    """Letter for a sign pattern, or None if no listed pattern fits.

    diag_sign: four ints in {-1,0,+1} (cof_ii); off_sign: dict over
    _PAIRS with ints in {-1,0,+1}.  "positive" below means strictly
    (+1); "non-positive" admits 0.
    """
    neg = [i for i in range(4) if diag_sign[i] < 0]
    pos = [i for i in range(4) if diag_sign[i] >= 0]
    n = len(neg)

    def s(i, j):
        return off_sign[(i, j) if i < j else (j, i)]

    def pairs_in(idx):
        return [(a, b) for x, a in enumerate(idx) for b in idx[x + 1:]]

    if n == 0:
        if all(s(i, j) == 1 for i, j in _PAIRS):
            return "a"
        for l in range(4):
            others = [x for x in range(4) if x != l]
            if (all(s(x, l) == -1 for x in others)
                    and all(s(a, b) == 1 for a, b in pairs_in(others))):
                return "b"
        for (i, j) in _PAIRS:
            k, l = (x for x in range(4) if x not in (i, j))
            cross = [(i, k), (i, l), (j, k), (j, l)]
            if (s(i, j) == 1 and s(k, l) == 1
                    and all(s(a, b) == -1 for a, b in cross)):
                return "c"
        return None

    if n == 1:
        l = neg[0]
        if any(s(a, b) != 1 for a, b in pairs_in(pos)):
            return None
        nonpos = sum(1 for x in pos if s(x, l) <= 0)
        return {0: "a", 1: "b", 2: "c", 3: "d"}[nonpos]

    if n == 2:
        k, l = neg
        i, j = pos
        if s(i, j) != 1 or s(k, l) != 1:
            return None
        cross = [(i, k), (i, l), (j, k), (j, l)]
        bad = [(a, b) for a, b in cross if s(a, b) <= 0]
        if len(bad) == 0:
            return "a"
        if len(bad) == 1:
            return "b"
        if len(bad) == 2:
            (a1, b1), (a2, b2) = bad
            if b1 == b2:      # same hyperideal endpoint
                return "c"
            if a1 != a2:      # fully disjoint cross pairs
                return "d"
        return None

    if n == 3:
        i = pos[0]
        cross = [(i, x) for x in neg]
        within = pairs_in(neg)
        bad_cross = [(a, b) for a, b in cross if s(a, b) <= 0]
        bad_within = [(a, b) for a, b in within if s(a, b) == -1]
        if any(s(a, b) == 0 for a, b in within):
            return None
        if not bad_cross and not bad_within:
            return "a"
        if len(bad_cross) == 1 and not bad_within:
            return "b"
        if not bad_cross and len(bad_within) == 1:
            return "c"
        if len(bad_cross) == 1 and len(bad_within) == 1:
            (_, hj), (wa, wb) = bad_cross[0], bad_within[0]
            if hj not in (wa, wb):   # disjoint edges
                return "d"
        return None

    # n == 4
    bad = [(a, b) for a, b in _PAIRS if s(a, b) == -1]
    if any(s(a, b) != 1 for a, b in _PAIRS if (a, b) not in bad):
        return None
    if not bad:
        return "a"
    if len(bad) == 1:
        return "b"
    if len(bad) == 2:
        (a1, b1), (a2, b2) = bad
        if len({a1, b1, a2, b2}) == 4:
            return "c"
    return None


def case_label(G: GramMatrix) -> CaseLabel:
    """The case label "1a".."5c" of the cofactor sign pattern.

    The case number is 1 + (number of hyperideal vertices); the letter
    is matched after normalizing with the smallest (by size, then
    lexicographically) set of change-of-angles operations that lands on
    a listed pattern.
    """
    cof = cofactor_matrix(G.mat).tolist()
    diag_sign = [tol_sign(cof[i][i]) for i in range(4)]
    case_no = 1 + sum(1 for d in diag_sign if d < 0)
    base = {(i, j): tol_sign(cof[i][j]) for i, j in _PAIRS}
    for sub in _SUBSETS:
        flipped = {
            (i, j): (-v if (i in sub) != (j in sub) else v)
            for (i, j), v in base.items()
        }
        letter = _match_case(diag_sign, flipped)
        if letter is not None:
            return CaseLabel(f"{case_no}{letter}",
                             tuple(i + 1 for i in sub))
    raise ValueError(
        f"unclassified pattern: diag={diag_sign} off={base}")


# ---------------------------------------------------------------------------
# Reconstruction.


def reconstruct(G: GramMatrix) -> GeneralizedTetrahedron:
    """Factor G through the (3,1) form and assemble the tetrahedron.

    The eigendecomposition G = Q diag(lambda) Q^T gives U with rows
    sqrt|lambda_k| q_k^T, the negative eigenvalue routed to the fourth
    (timelike) row; columns of U are the face normals.  Vertices come
    from the cofactor combinations, normalized to <v,v> = +-1 away from
    ideal vertices and left lightlike at them.  The edge lengths and the
    case come from `edge_length_tuple` and `case_label`, which find the
    cofactor matrix in the memo of `cofactor_matrix`.
    """
    sig = signature(G)
    if sig.as_pair() != (3, 1):
        raise ValueError(
            f"not a generalized hyperbolic tetrahedron: signature "
            f"{(sig.pos, sig.neg, sig.zero)}")
    lam, q = np.linalg.eigh(G.mat)  # ascending; lam[0] < 0 < lam[1..3]
    u_rows = np.empty((4, 4))
    u_rows[0:3] = np.sqrt(lam[1:4, None]) * q[:, 1:4].T
    u_rows[3] = math.sqrt(-lam[0]) * q[:, 0]
    normals = tuple(MinkowskiVector(u_rows[:, i].copy()) for i in range(4))

    cof = cofactor_matrix(G.mat)
    cofs = cof.tolist()
    det = float(np.linalg.det(G.mat))
    verts = []
    types = []
    for i in range(4):
        w = u_rows @ cof[i]
        s = tol_sign(cofs[i][i])
        if s != 0:
            w = w / math.sqrt(abs(cofs[i][i] * det))
        verts.append(MinkowskiVector(w))
        types.append(_VERTEX_TYPE_OF_SIGN[s])

    _check_reconstruction(G, normals, verts, types, det)
    return GeneralizedTetrahedron(
        gram=G,
        normals=normals,
        vertices=tuple(verts),
        vertex_types=tuple(types),
        edge_lengths=edge_length_tuple(G),
        case=case_label(G),
    )


def _check_reconstruction(G, normals, verts, types, det) -> None:
    """Verify the defining inner-product identities before returning.

    Four checks, each within 100 * DEFAULT_TOL: the normals reproduce G,
    <u_i, u_j> = G_ij; vertex i lies on the inner side of its own face,
    <u_i, v_i> < 0; it lies on the three other face planes, |<u_j, v_i>|
    within the bound times max(1, |det G|); and <v_i, v_i> is -1, 0 or
    +1 as its type is regular, ideal or hyperideal, within
    max(bound, 1e-6 |det G|).  The 36 products come from three array
    operations with the arithmetic of minkowski_dot; the first failure,
    in the order the checks are listed (vertex by vertex for the last
    three), raises ArithmeticError.
    """
    check = 100 * DEFAULT_TOL
    u = np.array([n.x for n in normals]).T  # coordinates x faces
    v = np.array([w.x for w in verts]).T    # coordinates x vertices
    uu = _mdot(u[:, :, None], u[:, None, :]).tolist()  # [i][j]: <u_i,u_j>
    uv = _mdot(u[:, None, :], v[:, :, None]).tolist()  # [i][j]: <u_j,v_i>
    vv = _mdot(v, v).tolist()
    g = G.mat.tolist()
    for i in range(4):
        for j in range(4):
            if abs(uu[i][j] - g[i][j]) > check:
                raise ArithmeticError(
                    f"normal Gram mismatch at ({i},{j}): {uu[i][j]} vs "
                    f"{g[i][j]}")
    plane = check * max(1.0, abs(det))
    norm = max(check, 1e-6 * abs(det))
    for i in range(4):
        for j, d in enumerate(uv[i]):
            if i == j:
                if not d < 0:
                    raise ArithmeticError(
                        f"vertex {i} not on the inner side of its face")
            elif abs(d) > plane:
                raise ArithmeticError(
                    f"vertex {i} off face plane {j}: <u,v>={d}")
        if abs(vv[i] - _NORM_OF_TYPE[types[i]]) > norm:
            raise ArithmeticError(
                f"vertex {i} norm {vv[i]} inconsistent with type {types[i]}")
