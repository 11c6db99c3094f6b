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
from dataclasses import dataclass

import numpy as np

from .gram import (DEFAULT_TOL, EDGE_COMPLEMENT, EDGE_TO_FACEPAIR, GramMatrix,
                   cofactor_matrix, signature, tol_sign)

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@dataclass(frozen=True, eq=False)
class MinkowskiVector:
    """A vector in R^{3,1}; the fourth coordinate is the timelike one."""

    x: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.x, dtype=np.float64)
        if v.shape != (4,):
            raise ValueError("Minkowski vectors have four components")
        object.__setattr__(self, "x", v)


def minkowski_dot(a: MinkowskiVector, b: MinkowskiVector) -> float:
    x, y = a.x, b.x
    return float(x[0] * y[0] + x[1] * y[1] + x[2] * y[2] - x[3] * y[3])


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


@dataclass(frozen=True)
class EdgeDistance:
    """Distance between the (projected) endpoints i and j.

    `ideal` marks an ideal endpoint, in which case d is +inf; the kind
    still records whether each side is a point or a truncation plane.
    """

    d: float
    kind: DistanceKind
    ideal: bool = False


@dataclass(frozen=True)
class CaseLabel:
    """Sign-pattern case of the cofactor matrix, e.g. "3b".

    `operations` lists the vertex indices (1..4) whose change-of-angles
    move was applied before the pattern matched one of the listed
    configurations; empty when the raw pattern already matches.
    """

    label: str
    operations: tuple[int, ...]

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True, eq=False)
class GeneralizedTetrahedron:
    gram: GramMatrix
    normals: tuple[MinkowskiVector, ...]
    vertices: tuple[MinkowskiVector, ...]
    vertex_types: tuple[VertexType, ...]
    edge_lengths: tuple[float, ...]
    case: CaseLabel


def vertex_type(G: GramMatrix, i: int, tol: float = DEFAULT_TOL) -> VertexType:
    """Vertex i (1..4) by the sign of the diagonal cofactor cof_ii.

    Gram entries are cosines, so cofactors are O(1); tol is an absolute
    threshold for "ideal".
    """
    if i not in (1, 2, 3, 4):
        raise ValueError("vertex index must be 1..4")
    s = tol_sign(cofactor_matrix(G.mat)[i - 1, i - 1], tol)
    if s > 0:
        return VertexType.REGULAR
    if s < 0:
        return VertexType.HYPERIDEAL
    return VertexType.IDEAL


def _distance_from_cofactors(cii: float, cjj: float, cij: float,
                             tol: float) -> EdgeDistance:
    si, sj = tol_sign(cii, tol), tol_sign(cjj, tol)
    if si == 0 or sj == 0:
        # An ideal endpoint is infinitely far from everything else.
        kind = (DistanceKind.VERTEX_PLANE if (si < 0 or sj < 0)
                else DistanceKind.VERTEX_VERTEX)
        return EdgeDistance(math.inf, kind, ideal=True)
    if si == sj:
        kind = (DistanceKind.VERTEX_VERTEX if si > 0
                else DistanceKind.PLANE_PLANE)
        arg = abs(cij) / math.sqrt(cii * cjj)
        if arg < 1.0:
            if arg < 1.0 - max(tol, 1e-12):
                raise ValueError(
                    f"inconsistent Gram data: arccosh argument {arg} < 1")
            arg = 1.0
        return EdgeDistance(math.acosh(arg), kind)
    arg = abs(cij) / math.sqrt(-cii * cjj)
    return EdgeDistance(math.asinh(arg), DistanceKind.VERTEX_PLANE)


def distance(G: GramMatrix, i: int, j: int,
             tol: float = DEFAULT_TOL) -> EdgeDistance:
    """Hyperbolic distance between endpoints i and j (1..4, i != j).

    Point-point and plane-plane pairs use arccosh, mixed pairs arcsinh,
    always on |cof_ij| / sqrt(|cof_ii cof_jj|).
    """
    if i == j or i not in (1, 2, 3, 4) or j not in (1, 2, 3, 4):
        raise ValueError("need two distinct indices in 1..4")
    cof = cofactor_matrix(G.mat)
    return _distance_from_cofactors(cof[i - 1, i - 1], cof[j - 1, j - 1],
                                    cof[i - 1, j - 1], tol)


def edge_length(G: GramMatrix, i: int, j: int,
                tol: float = DEFAULT_TOL) -> float:
    """Signed length of the edge between faces i and j (1..4).

    The magnitude is the distance of the complementary pair {k,l}; the
    sign is that of cof_kl (non-positive cofactor -> negative length).
    """
    if i == j or i not in (1, 2, 3, 4) or j not in (1, 2, 3, 4):
        raise ValueError("need two distinct indices in 1..4")
    k, l = (x for x in range(4) if x not in (i - 1, j - 1))
    cof = cofactor_matrix(G.mat)
    d = _distance_from_cofactors(cof[k, k], cof[l, l], cof[k, l], tol)
    return d.d if cof[k, l] > tol else -d.d


def edge_length_tuple(G: GramMatrix, tol: float = DEFAULT_TOL) -> tuple[float, ...]:
    """The six signed edge lengths in edge order (l_1..l_6)."""
    return _edge_lengths(cofactor_matrix(G.mat), tol)


def _edge_lengths(cof: np.ndarray, tol: float) -> tuple[float, ...]:
    out = []
    for e in range(6):
        k, l = EDGE_COMPLEMENT[e]
        d = _distance_from_cofactors(cof[k, k], cof[l, l], cof[k, l], tol)
        out.append(d.d if cof[k, l] > tol else -d.d)
    return tuple(out)


def segment_side(G: GramMatrix, i: int, j: int,
                 tol: float = DEFAULT_TOL) -> SegmentSide:
    """For two hyperideal endpoints: which side of the edge line meets H^3.

    SegmentMeets when cof_ij >= sqrt(cof_ii cof_jj), ComplementMeets for
    the opposite sign; anything strictly in between means the line
    avoids the ball entirely (deep truncation, unsupported here).
    """
    if i == j or i not in (1, 2, 3, 4) or j not in (1, 2, 3, 4):
        raise ValueError("need two distinct indices in 1..4")
    cof = cofactor_matrix(G.mat)
    cii, cjj, cij = cof[i - 1, i - 1], cof[j - 1, j - 1], cof[i - 1, j - 1]
    if not (cii < -tol and cjj < -tol):
        raise ValueError("segment side is defined for hyperideal endpoints")
    root = math.sqrt(cii * cjj)
    if cij >= root - tol:
        return SegmentSide.SEGMENT_MEETS
    if cij <= -root + tol:
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


def case_label(G: GramMatrix, tol: float = DEFAULT_TOL) -> CaseLabel:
    """The case label "1a".."5c" of the cofactor sign pattern.

    The case number is 1 + (number of hyperideal vertices); the letter
    is matched after normalizing with the smallest (by size, then
    lexicographically) set of change-of-angles operations that lands on
    a listed pattern.
    """
    return _case_from_cofactors(cofactor_matrix(G.mat), tol)


def _case_from_cofactors(cof: np.ndarray, tol: float) -> CaseLabel:
    diag_sign = [tol_sign(cof[i, i], tol) for i in range(4)]
    case_no = 1 + sum(1 for d in diag_sign if d < 0)
    base = {p: tol_sign(cof[p[0], p[1]], tol) for p in _PAIRS}
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


def reconstruct(G: GramMatrix,
                tol: float = DEFAULT_TOL) -> GeneralizedTetrahedron:
    """Factor G through the (3,1) form and assemble the tetrahedron.

    The eigendecomposition G = Q diag(lambda) Q^T gives U with rows
    sqrt|lambda_k| q_k^T, the negative eigenvalue routed to the fourth
    (timelike) row; columns of U are the face normals.  Vertices come
    from the cofactor combinations, normalized to <v,v> = +-1 away from
    ideal vertices and left lightlike at them.
    """
    sig = signature(G, tol)
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
    det = float(np.linalg.det(G.mat))
    verts = []
    types = []
    for i in range(4):
        w = u_rows @ cof[i]
        s = tol_sign(cof[i, i], tol)
        if s == 0:
            verts.append(MinkowskiVector(w))
            types.append(VertexType.IDEAL)
        else:
            verts.append(MinkowskiVector(w / math.sqrt(abs(cof[i, i] * det))))
            types.append(VertexType.REGULAR if s > 0
                         else VertexType.HYPERIDEAL)

    _check_reconstruction(G, normals, verts, types, det, tol)
    return GeneralizedTetrahedron(
        gram=G,
        normals=normals,
        vertices=tuple(verts),
        vertex_types=tuple(types),
        edge_lengths=_edge_lengths(cof, tol),
        case=_case_from_cofactors(cof, tol),
    )


def _check_reconstruction(G, normals, verts, types, det, tol) -> None:
    """Verify the defining inner-product identities before returning."""
    check = max(1e-9, 100 * tol)
    for i in range(4):
        for j in range(4):
            got = minkowski_dot(normals[i], normals[j])
            if abs(got - G.mat[i, j]) > check:
                raise ArithmeticError(
                    f"normal Gram mismatch at ({i},{j}): {got} vs "
                    f"{G.mat[i, j]}")
    for i in range(4):
        for j in range(4):
            d = minkowski_dot(normals[j], verts[i])
            if i == j:
                if not d < 0:
                    raise ArithmeticError(
                        f"vertex {i} not on the inner side of its face")
            elif abs(d) > check * max(1.0, abs(det)):
                raise ArithmeticError(
                    f"vertex {i} off face plane {j}: <u,v>={d}")
        vv = minkowski_dot(verts[i], verts[i])
        want = {VertexType.REGULAR: -1.0, VertexType.IDEAL: 0.0,
                VertexType.HYPERIDEAL: 1.0}[types[i]]
        if abs(vv - want) > max(check, 1e-6 * abs(det)):
            raise ArithmeticError(
                f"vertex {i} norm {vv} inconsistent with type {types[i]}")


def angles_from_normals(t: GeneralizedTetrahedron) -> tuple[float, ...]:
    """Recover theta_1..theta_6 from <u_i,u_j> = -cos theta_ij."""
    out = []
    for e in range(6):
        i, j = EDGE_TO_FACEPAIR[e]
        c = -minkowski_dot(t.normals[i], t.normals[j])
        out.append(math.acos(min(1.0, max(-1.0, c))))
    return tuple(out)
