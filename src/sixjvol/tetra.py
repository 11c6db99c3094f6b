"""Generalized hyperbolic tetrahedra from Gram matrices.

The domain is the Gram matrices of signature (3,1): every question
below (vertex types, distances, edge lengths, segment sides, the case
and the reconstruction) refuses any other signature with one
ValueError, stated once in `_cofactors`.  Such a matrix factors as
G = U^T I_{3,1} U in the Minkowski inner product <x,y> = x1 y1 + x2 y2
+ x3 y3 - x4 y4.  The columns u_i of U are the outward unit normals of
the four faces; the (possibly truncated) vertices are obtained from the
cofactor combinations w_i = sum_j cof_ij u_j, which satisfy

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

A vector of R^{3,1} is a plain value: four Python floats, the fourth
one timelike, and `minkowski_dot` takes any two sequences of four
numbers.  A `GeneralizedTetrahedron` holds its normals and vertices as
tuples of such rows, so two tetrahedra compare and hash by value; the
Gram matrix they hold is equal only to itself, and two reconstructions
of one `GramMatrix` are equal.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import NamedTuple

import numpy as np

from .gram import (DEFAULT_TOL, EDGE_COMPLEMENT, GramMatrix, _det_from_rows,
                   cofactor_matrix, signature, tol_sign)
from .qnum import _one_based

_PAIRS = tuple(itertools.combinations(range(4), 2))


def _mdot(x, y) -> float:
    """Minkowski product of two coordinate sequences: x1 y1 + x2 y2
    + x3 y3 - x4 y4, summed left to right."""
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2] - x[3] * y[3]


def minkowski_dot(x, y) -> float:
    """Minkowski product of two vectors of R^{3,1}, each a sequence of
    four coordinates, the fourth one timelike."""
    if len(x) != 4 or len(y) != 4:
        raise ValueError("Minkowski vectors have four components")
    return float(_mdot(x, y))


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
    configurations; empty when the raw pattern already matches.  It
    holds at most two indices, and a pair always contains vertex 1.
    """

    label: str
    operations: tuple[int, ...]

    def __str__(self) -> str:
        return self.label


class GeneralizedTetrahedron(NamedTuple):
    """The reconstruction of a Gram matrix: row i of `normals` and of
    `vertices` holds the four coordinates of u_i and v_i (module
    docstring)."""

    gram: GramMatrix
    normals: tuple[tuple[float, ...], ...]
    vertices: tuple[tuple[float, ...], ...]
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
# Eigenvector columns in the order of the rows of U: the three with
# positive eigenvalues, then the timelike one (eigh sorts ascending).
_TIMELIKE_LAST = np.array([1, 2, 3, 0])


def _cofactors(G: GramMatrix) -> tuple[np.ndarray, list, list, list]:
    """(cof, c, diag, off): the cofactor matrix of G from the memo of
    `cofactor_matrix`, as its read-only array and as nested lists of
    floats, and the signs (tol_sign) of cof_11..cof_44 and of cof_ij in
    _PAIRS order.  Every question below reads G's cofactors through
    this one call: vertex types, distances, signed lengths, segment
    sides, the case and the reconstruction.  It is the one (3,1) rule:
    a G of any other signature (memoized `signature`) raises
    ValueError, so every question refuses it with one message."""
    sig = signature(G)
    if sig.as_pair() != (3, 1):
        raise ValueError("not a generalized hyperbolic tetrahedron: "
                         f"signature {tuple(sig)}")
    cof = cofactor_matrix(G.mat)
    c = cof.tolist()
    return (cof, c, [tol_sign(c[i][i]) for i in range(4)],
            [tol_sign(c[i][j]) for i, j in _PAIRS])


def vertex_type(G: GramMatrix, i: int) -> VertexType:
    """Vertex i (1..4) by the sign of the diagonal cofactor cof_ii.

    Gram entries are cosines, so cofactors are O(1) and "ideal" is an
    absolute threshold.
    """
    i = _one_based(i, 4, "vertex index")
    _, _, diag, _ = _cofactors(G)
    return _VERTEX_TYPE_OF_SIGN[diag[i - 1]]


# Kind of a distance by the number of its endpoints that are
# truncation planes (hyperideal vertices).
_KIND_OF_PLANES = (DistanceKind.VERTEX_VERTEX, DistanceKind.VERTEX_PLANE,
                   DistanceKind.PLANE_PLANE)


def _distance_of(c: list, diag: list, i: int, j: int) -> EdgeDistance:
    """`distance` of the endpoint pair {i,j}, 0-based, from the
    cofactors c and their diagonal signs diag (`_cofactors`)."""
    si, sj = diag[i], diag[j]
    kind = _KIND_OF_PLANES[(si < 0) + (sj < 0)]
    if si == 0 or sj == 0:
        # An ideal endpoint is infinitely far from everything else.
        return EdgeDistance(math.inf, kind, ideal=True)
    arg = abs(c[i][j]) / math.sqrt(abs(c[i][i] * c[j][j]))
    if kind is DistanceKind.VERTEX_PLANE:
        return EdgeDistance(math.asinh(arg), kind)
    if arg < 1.0:
        if arg < 1.0 - DEFAULT_TOL:
            raise ValueError(
                f"inconsistent Gram data: arccosh argument {arg} < 1")
        arg = 1.0
    return EdgeDistance(math.acosh(arg), kind)


def _check_pair(i, j) -> tuple[int, int]:
    """The indices i and j as ints in 1..4 (`qnum._one_based`), or
    ValueError unless they are distinct."""
    i, j = _one_based(i, 4, "index"), _one_based(j, 4, "index")
    if i == j:
        raise ValueError(f"need two distinct indices, got {i} and {j}")
    return i, j


def distance(G: GramMatrix, i: int, j: int) -> EdgeDistance:
    """Hyperbolic distance between endpoints i and j (1..4, i != j).

    Point-point and plane-plane pairs use arccosh, mixed pairs arcsinh,
    always on |cof_ij| / sqrt(|cof_ii cof_jj|).
    """
    i, j = _check_pair(i, j)
    _, c, diag, _ = _cofactors(G)
    return _distance_of(c, diag, i - 1, j - 1)


def _signed_length(c: list, diag: list, off: list, k: int, l: int
                   ) -> float:
    """Distance of the pair {k,l} (0-based, k < l), negative unless
    cof_kl > 0; c, diag and off as `_cofactors` gives them."""
    d = _distance_of(c, diag, k, l).d
    return d if off[_PAIRS.index((k, l))] > 0 else -d


def _signed_lengths(c: list, diag: list, off: list) -> tuple[float, ...]:
    """The six signed lengths in edge order: `_signed_length` of the
    complementary pair of each edge."""
    return tuple([_signed_length(c, diag, off, k, l)
                  for k, l in EDGE_COMPLEMENT])


def edge_length(G: GramMatrix, i: int, j: int) -> float:
    """Signed length of the edge between faces i and j (1..4).

    The magnitude is the distance of the complementary pair {k,l}; the
    sign is that of cof_kl (non-positive cofactor -> negative length).
    """
    i, j = _check_pair(i, j)
    k, l = (x for x in range(4) if x not in (i - 1, j - 1))
    _, c, diag, off = _cofactors(G)
    return _signed_length(c, diag, off, k, l)


def edge_length_tuple(G: GramMatrix) -> tuple[float, ...]:
    """The six signed edge lengths in edge order (l_1..l_6)."""
    _, c, diag, off = _cofactors(G)
    return _signed_lengths(c, diag, off)


def segment_side(G: GramMatrix, i: int, j: int) -> SegmentSide:
    """For two hyperideal endpoints: which side of the edge line meets H^3.

    SegmentMeets when cof_ij > 0, ComplementMeets otherwise.  The line
    always meets the ball at signature (3,1): Jacobi's identity gives
    cof_ii cof_jj - cof_ij^2 = det G sin^2(theta_kl) <= 0 as det G < 0,
    so |cof_ij| >= sqrt(cof_ii cof_jj) > 0 and the side is the sign of
    cof_ij.
    """
    i, j = _check_pair(i, j)
    _, c, diag, _ = _cofactors(G)
    if not (diag[i - 1] < 0 and diag[j - 1] < 0):
        raise ValueError("segment side is defined for hyperideal endpoints")
    return (SegmentSide.SEGMENT_MEETS if c[i - 1][j - 1] > 0
            else SegmentSide.COMPLEMENT_MEETS)


# ---------------------------------------------------------------------------
# Case labels: sign pattern of the cofactor matrix, normalized by
# change-of-angles moves.  A move at vertex set S negates cof_ij when
# exactly one of i, j lies in S and fixes the diagonal, so S and its
# complement make the same move: the empty set, the four single
# vertices and the three pairs holding vertex 1 are every distinct one.
_MOVES = ((), (0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3))

# The letter of a moved pattern from its bad pairs.  A mixed pair joins
# a hyperideal vertex to another one and is bad when cof_ij <= 0; a like
# pair joins two of the same kind and is bad when cof_ij < 0.  Keys are
# (hyperideal vertices, bad mixed, bad like, most bad pairs at one
# hyperideal vertex, most at one other vertex).  The last two tell a
# vertex star (1b) and a 4-cycle (1c) from other shapes of as many
# pairs, and two pairs sharing a hyperideal end (3c) from disjoint ones
# (3d, 4d, 5c).  Any other key has no letter.
_CASE_LETTER = {
    (0, 0, 0, 0, 0): "a", (0, 0, 3, 0, 3): "b", (0, 0, 4, 0, 2): "c",
    (1, 0, 0, 0, 0): "a", (1, 1, 0, 1, 1): "b", (1, 2, 0, 2, 1): "c",
    (1, 3, 0, 3, 1): "d",
    (2, 0, 0, 0, 0): "a", (2, 1, 0, 1, 1): "b", (2, 2, 0, 2, 1): "c",
    (2, 2, 0, 1, 1): "d",
    (3, 0, 0, 0, 0): "a", (3, 1, 0, 1, 1): "b", (3, 0, 1, 1, 0): "c",
    (3, 1, 1, 1, 1): "d",
    (4, 0, 0, 0, 0): "a", (4, 0, 1, 1, 0): "b", (4, 0, 2, 1, 0): "c",
}


def _case_of_signs(diag, off) -> CaseLabel | None:
    """The case of a sign pattern: the signs (-1, 0, +1) of cof_11..cof_44
    and of cof_ij in _PAIRS order.  The first move in _MOVES whose bad
    pairs have a letter wins; None when no move gives one."""
    hyper = [d < 0 for d in diag]
    h = sum(hyper)
    for move in _MOVES:
        mixed = like = 0
        at = [0, 0, 0, 0]
        for (i, j), s in zip(_PAIRS, off):
            if (i in move) != (j in move):
                s = -s
            if s > 0:
                continue
            if hyper[i] != hyper[j]:
                mixed += 1
            elif s:
                like += 1
            else:
                return None  # a like pair at zero: no move changes it
            at[i] += 1
            at[j] += 1
        letter = _CASE_LETTER.get((
            h, mixed, like,
            max([n for n, x in zip(at, hyper) if x], default=0),
            max([n for n, x in zip(at, hyper) if not x], default=0)))
        if letter is not None:
            return CaseLabel(f"{h + 1}{letter}",
                             tuple(i + 1 for i in move))
    return None


def case_label(G: GramMatrix) -> CaseLabel:
    """The case label "1a".."5c" of the cofactor sign pattern.

    The case number is 1 + (number of hyperideal vertices); the letter
    and the operations come from the first change-of-angles move that
    gives a letter (`_case_of_signs`).  The operations hold at most two
    vertex indices, and a pair always contains vertex 1.
    """
    _, _, diag, off = _cofactors(G)
    return _case_of(diag, off)


def _case_of(diag: list, off: list) -> CaseLabel:
    """`_case_of_signs`, raising ValueError on a pattern with no case."""
    case = _case_of_signs(diag, off)
    if case is None:
        raise ValueError(f"unclassified pattern: diag={diag} "
                         f"off={dict(zip(_PAIRS, off))}")
    return case


# ---------------------------------------------------------------------------
# Reconstruction.


def reconstruct(G: GramMatrix) -> GeneralizedTetrahedron:
    """Factor G through the (3,1) form and assemble the tetrahedron.

    The eigendecomposition G = Q diag(lambda) Q^T gives U with rows
    sqrt|lambda_k| q_k^T, the negative eigenvalue routed to the fourth
    (timelike) row; columns of U are the face normals.  Vertices come
    from the cofactor combinations, all four in one product cof U^T,
    row i divided by sqrt|cof_ii det G| away from ideal vertices
    (normalizing <v,v> to +-1) and left lightlike at them.  det G is the
    expansion of G along the first row of its cofactor matrix
    (`gram._det_from_rows`).  The cofactor matrix and its ten signs are
    read once (`_cofactors`, which refuses a G not of signature (3,1)
    before the eigendecomposition): the vertex types, the edge lengths
    and the case all come from that one sign pass, through the helpers
    behind `edge_length_tuple` and `case_label`.  Each coordinate row is
    a tuple of four Python floats, read off its array in one `tolist`.

    The coordinates are fixed only up to an O(3,1) isometry.  `eigh`
    picks an arbitrary basis of a repeated eigenspace, so on symmetric
    tuples (pi/3 x6, pi/4 x6) a last-bit change in G can move normals
    and vertices by O(1).  Only the Minkowski inner products, the
    vertex types, the edge lengths and the case are invariant.
    """
    cof, c, diag, off = _cofactors(G)
    lam, q = np.linalg.eigh(G.mat)  # ascending; lam[0] < 0 < lam[1..3]
    # Row i is the normal u_i, column i of U.
    normals = (q * np.sqrt(np.abs(lam)))[:, _TIMELIKE_LAST]
    det = _det_from_rows(G.mat[0].tolist(), c[0])
    types = [_VERTEX_TYPE_OF_SIGN[s] for s in diag]
    scale = [math.sqrt(abs(c[i][i] * det)) if s else 1.0
             for i, s in enumerate(diag)]
    vertices = (cof @ normals) / np.array(scale)[:, None]  # row i: v_i
    us = tuple(map(tuple, normals.tolist()))
    vs = tuple(map(tuple, vertices.tolist()))

    _check_reconstruction(G, us, vs, types, det)
    return GeneralizedTetrahedron(
        gram=G,
        normals=us,
        vertices=vs,
        vertex_types=tuple(types),
        edge_lengths=_signed_lengths(c, diag, off),
        case=_case_of(diag, off),
    )


def _check_reconstruction(G, us, vs, types, det) -> None:
    """Verify the defining inner-product identities before returning.

    Row i of us and vs, four rows of four floats each, is the normal u_i
    and the vertex v_i.  Four checks, each within 100 * DEFAULT_TOL: the
    normals reproduce G, <u_i, u_j> = G_ij; vertex i lies on the inner
    side of its own face, <u_i, v_i> < 0; it lies on the three other
    face planes, |<u_j, v_i>| within the bound times max(1, |det G|);
    and <v_i, v_i> is -1, 0 or +1 as its type is regular, ideal or
    hyperideal, within max(bound, 1e-6 |det G|).  The products are
    minkowski_dot's arithmetic (`_mdot`): the ten distinct <u_i, u_j>
    (a product does not depend on the order of its factors), the
    sixteen <u_j, v_i> and the four <v_i, v_i>.  The first failure, in the order
    the checks are listed (vertex by vertex for the last three), raises
    ArithmeticError.
    """
    check = 100 * DEFAULT_TOL
    g = G.mat.tolist()
    # uu[i][j] = <u_i, u_j> for j <= i.
    uu = [[_mdot(a, b) for b in us[:i + 1]] for i, a in enumerate(us)]
    for i in range(4):
        for j in range(4):
            d = uu[i][j] if j <= i else uu[j][i]
            if abs(d - g[i][j]) > check:
                raise ArithmeticError(
                    f"normal Gram mismatch at ({i},{j}): {d} vs {g[i][j]}")
    plane = check * max(1.0, abs(det))
    norm = max(check, 1e-6 * abs(det))
    for i, w in enumerate(vs):
        for j, a in enumerate(us):
            d = _mdot(a, w)
            if i == j:
                if not d < 0:
                    raise ArithmeticError(
                        f"vertex {i} not on the inner side of its face")
            elif abs(d) > plane:
                raise ArithmeticError(
                    f"vertex {i} off face plane {j}: <u,v>={d}")
        ww = _mdot(w, w)
        if abs(ww - _NORM_OF_TYPE[types[i]]) > norm:
            raise ArithmeticError(
                f"vertex {i} norm {ww} inconsistent with type {types[i]}")
