"""Angle 6-tuples, Gram matrices, and the geometric classification.

Conventions.  A dihedral-angle tuple theta = (theta_1..theta_6) lists the
six edges of a tetrahedron with opposite pairs (1,4), (2,5), (3,6); the
edges meeting at a vertex are the triples (1,2,3), (1,5,6), (2,4,6),
(3,4,5).  The same angles reindexed by the pair of faces meeting along
the edge follow the fixed dictionary

    theta_1 = theta_12,  theta_2 = theta_13,  theta_3 = theta_23,
    theta_4 = theta_34,  theta_5 = theta_24,  theta_6 = theta_14,

and the Gram matrix is the symmetric 4x4 matrix with unit diagonal and
(i,j) entry -cos theta_ij.

An alpha-tuple alpha_k = pi + mu_k theta_k (mu_k = +-1) carries a branch
choice on each edge; the Gram matrix sees only cos alpha_k = -cos theta_k,
so everything classified here is branch-independent.

Classification is by eigenvalue signature of the Gram matrix:
(4,0) spherical, (3,0) generalized Euclidean, (3,1) generalized
hyperbolic; admissible tuples land in those three cells (plus the
lower-rank line configurations (2,0)/(1,0)); (2,1) can only appear for
non-admissible input and is kept for diagnostics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .qnum import TWO_PI

FOUR_PI = 4.0 * math.pi

# Default relative tolerance for eigenvalue / cofactor sign decisions.
DEFAULT_TOL = 1e-9

# Vertex triples in edge indices (0-based); same combinatorics as the
# color tuples in sixj.
ANGLE_VERTEX_TRIPLES = ((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4))

# Edge index -> unordered pair of Gram indices (faces meeting there).
EDGE_TO_FACEPAIR = ((0, 1), (0, 2), (1, 2), (2, 3), (1, 3), (0, 3))

# Edge index -> the complementary pair of Gram indices (the two faces
# NOT containing the edge); the opposite edge in the tuple runs between
# them.
EDGE_COMPLEMENT = ((2, 3), (1, 3), (0, 3), (0, 1), (0, 2), (1, 2))

# Gram index i -> the three edges whose face pair contains i.  Negating
# row and column i of the Gram matrix replaces exactly these angles by
# pi - theta and is a congruence (signature preserved).
FACEPAIR_TRIPLES = ((0, 1, 5), (0, 2, 4), (1, 2, 3), (3, 4, 5))

# Row/column indices of the sixteen 3x3 minors, stacked as (4, 4, 3, 3),
# and the checkerboard signs (-1)^(i+j) that turn them into cofactors.
_KEEP = np.array([[j for j in range(4) if j != i] for i in range(4)])
_MINOR_ROWS = _KEEP[:, None, :, None]
_MINOR_COLS = _KEEP[None, :, None, :]
_CHECKERBOARD = np.array([[(-1.0) ** (i + j) for j in range(4)]
                          for i in range(4)])


@dataclass(frozen=True, eq=False)
class AngleSixTuple:
    """Six dihedral angles in [0, pi], edge-ordered."""

    theta: tuple[float, float, float, float, float, float]

    def __post_init__(self) -> None:
        th = tuple(float(x) for x in self.theta)
        object.__setattr__(self, "theta", th)
        if len(th) != 6:
            raise ValueError("need exactly six angles")
        for x in th:
            if not -1e-12 <= x <= math.pi + 1e-12:
                raise ValueError(f"dihedral angle {x} outside [0, pi]")


@dataclass(frozen=True, eq=False)
class AlphaSixTuple:
    """Limit angles alpha_k = pi + mu_k * theta_k with branch signs mu."""

    alpha: tuple[float, float, float, float, float, float]
    mu: tuple[int, int, int, int, int, int]

    def __post_init__(self) -> None:
        al = tuple(float(x) for x in self.alpha)
        object.__setattr__(self, "alpha", al)
        if len(al) != 6:
            raise ValueError("need exactly six angles")
        for x in al:
            if not -1e-12 <= x <= TWO_PI + 1e-12:
                raise ValueError(f"limit angle {x} outside [0, 2*pi]")
        mu = tuple(int(m) for m in self.mu)
        object.__setattr__(self, "mu", mu)
        if len(mu) != 6 or any(m not in (-1, 1) for m in mu):
            raise ValueError("branch signs must be six values in {-1,+1}")

    @staticmethod
    def from_alpha(alpha) -> "AlphaSixTuple":
        """Branch signs read off the values: mu = +1 iff alpha > pi."""
        al = tuple(float(x) for x in alpha)
        mu = tuple(1 if x > math.pi else -1 for x in al)
        return AlphaSixTuple(al, mu)

    @staticmethod
    def from_theta(theta: AngleSixTuple, mu) -> "AlphaSixTuple":
        mu = tuple(int(m) for m in mu)
        al = tuple(math.pi + m * t for m, t in zip(mu, theta.theta))
        return AlphaSixTuple(al, mu)

    def to_theta(self) -> AngleSixTuple:
        return AngleSixTuple(tuple(abs(math.pi - a) for a in self.alpha))


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Symmetric 4x4, unit diagonal, off-diagonal -cos theta_ij."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.mat, dtype=np.float64)
        object.__setattr__(self, "mat", m)
        if m.shape != (4, 4):
            raise ValueError(f"Gram matrix must be 4x4, got {m.shape}")
        if not np.allclose(m, m.T, atol=1e-12):
            raise ValueError("Gram matrix must be symmetric")
        if not np.allclose(np.diag(m), 1.0, atol=1e-12):
            raise ValueError("Gram matrix must have unit diagonal")


@dataclass(frozen=True)
class Signature:
    """Eigenvalue sign counts (pos, neg, zero), summing to 4."""

    pos: int
    neg: int
    zero: int

    def __post_init__(self) -> None:
        if self.pos + self.neg + self.zero != 4:
            raise ValueError("signature counts must sum to 4")

    def as_pair(self) -> tuple[int, int]:
        return (self.pos, self.neg)


class GeometryTag(enum.Enum):
    SPHERICAL = "Spherical"
    GENERALIZED_EUCLIDEAN = "GeneralizedEuclidean"
    GENERALIZED_HYPERBOLIC = "GeneralizedHyperbolic"
    EUCLIDEAN_LINES = "EuclideanLines"
    HYPERBOLIC_LINES = "HyperbolicLines"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class GeometryClass:
    tag: GeometryTag
    signature: Signature


def tol_sign(x: float, tol: float) -> int:
    """+1 / -1 when x lies above tol / below -tol, else 0."""
    if x > tol:
        return 1
    if x < -tol:
        return -1
    return 0


def _triple_sums(values, triple):
    i, j, k = triple
    return values[i] + values[j] + values[k]


def admissible(alpha: AlphaSixTuple) -> bool:
    """Closed admissibility: triangle-type inequalities at all vertices."""
    return bool(_admissible_mask(np.array([alpha.alpha]))[0])


def strictly_admissible(alpha: AlphaSixTuple) -> bool:
    """Strict admissibility: open inequalities, alpha in (0,pi) u (pi,2pi)."""
    al = alpha.alpha
    for x in al:
        if x <= 0.0 or x >= TWO_PI or x == math.pi:
            return False
    for (i, j, k) in ANGLE_VERTEX_TRIPLES:
        s = al[i] + al[j] + al[k]
        if s >= FOUR_PI:
            return False
        if s - 2 * al[i] <= 0 or s - 2 * al[j] <= 0 or s - 2 * al[k] <= 0:
            return False
    return True


def gram_from_angles(theta: AngleSixTuple) -> GramMatrix:
    """The 4x4 Gram matrix with entries -cos theta_ij."""
    m = np.eye(4)
    for edge, (i, j) in enumerate(EDGE_TO_FACEPAIR):
        m[i, j] = m[j, i] = -math.cos(theta.theta[edge])
    return GramMatrix(m)


def gram_from_alpha(alpha: AlphaSixTuple) -> GramMatrix:
    """Same matrix through cos alpha = -cos theta; branch-independent."""
    return GramMatrix(_gram_batch(np.array([alpha.alpha]))[0])


def signature(G: GramMatrix, tol: float = DEFAULT_TOL) -> Signature:
    """Eigenvalue sign counts with threshold tol * (spectral norm)."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    pos, neg = (int(x) for x in signature_batch(G.mat[None], tol)[0])
    return Signature(pos, neg, 4 - pos - neg)


def cofactor_matrix(mat: np.ndarray) -> np.ndarray:
    """All sixteen signed cofactors, by direct 3x3 minors.

    One stacked determinant call over the (4,4,3,3) minors; never
    det(G) * inv(G), which loses accuracy as det G -> 0.
    """
    m = np.asarray(mat, dtype=np.float64)
    return _CHECKERBOARD * np.linalg.det(m[_MINOR_ROWS, _MINOR_COLS])


def cofactor(G: GramMatrix, i: int, j: int) -> float:
    """Signed (i,j) cofactor, indices 1..4."""
    if not (1 <= i <= 4 and 1 <= j <= 4):
        raise ValueError("cofactor indices must be in 1..4")
    return float(cofactor_matrix(G.mat)[i - 1, j - 1])


def classify(alpha: AlphaSixTuple, tol: float = DEFAULT_TOL) -> GeometryClass:
    """Geometric class of an admissible tuple, from the Gram signature."""
    if not admissible(alpha):
        raise ValueError("tuple not admissible")
    sig = signature(gram_from_alpha(alpha), tol)
    pair = sig.as_pair()
    if pair == (4, 0):
        tag = GeometryTag.SPHERICAL
    elif pair == (3, 0):
        tag = GeometryTag.GENERALIZED_EUCLIDEAN
    elif pair == (3, 1):
        tag = GeometryTag.GENERALIZED_HYPERBOLIC
    elif pair in ((2, 0), (1, 0)):
        tag = GeometryTag.EUCLIDEAN_LINES
    elif pair == (2, 1):
        # Unreachable for admissible input; kept for diagnostics.
        tag = GeometryTag.HYPERBOLIC_LINES
    else:
        tag = GeometryTag.INDETERMINATE
    return GeometryClass(tag, sig)


def change_angles_opposite_vertex(theta: AngleSixTuple, i: int) -> AngleSixTuple:
    """Replace theta by pi - theta on the three edges at Gram index i (1..4).

    On the Gram matrix this negates row and column i (a congruence with
    diag(+-1)), so the signature — and hence the classification — is
    unchanged.  Applying the move at i and then j flips exactly the four
    edges separating {i,j} from the complementary pair.
    """
    if i not in (1, 2, 3, 4):
        raise ValueError(f"vertex index must be 1..4, got {i}")
    th = list(theta.theta)
    for e in FACEPAIR_TRIPLES[i - 1]:
        th[e] = math.pi - th[e]
    return AngleSixTuple(tuple(th))


def hyperideal_by_bonahon_bao(theta: AngleSixTuple) -> bool:
    """True iff every vertex-triple angle sum is < pi.

    Such tuples are the dihedral angles of a hyperideal tetrahedron: the
    Gram matrix then has all diagonal cofactors negative and signature
    (3,1).
    """
    th = theta.theta
    for x in th:
        if not 0.0 <= x <= math.pi:
            raise ValueError("angles must lie in [0, pi]")
    return all(_triple_sums(th, t) < math.pi for t in ANGLE_VERTEX_TRIPLES)


# ---------------------------------------------------------------------------
# Batched cores over (n,6) alpha rows, which admissible, gram_from_alpha
# and signature call with one row, and the rejection samplers built on
# them: draw alpha uniformly from [0, 2 pi]^6 and keep the admissible rows.


def _admissible_mask(al: np.ndarray, margin: float = 0.0) -> np.ndarray:
    """Boolean mask of admissible rows of an (n,6) alpha array.

    With margin > 0 the inequalities are required to hold strictly with
    that margin and the components must avoid {0, pi, 2 pi} by the same
    amount (strict admissibility sampling).
    """
    ok = np.ones(al.shape[0], dtype=bool)
    if margin > 0.0:
        ok &= np.all((al > margin) & (al < TWO_PI - margin)
                     & (np.abs(al - math.pi) > margin), axis=1)
    for (i, j, k) in ANGLE_VERTEX_TRIPLES:
        s = al[:, i] + al[:, j] + al[:, k]
        ok &= s <= FOUR_PI - margin
        ok &= (s - 2 * al[:, i] >= margin)
        ok &= (s - 2 * al[:, j] >= margin)
        ok &= (s - 2 * al[:, k] >= margin)
    return ok


def _gram_batch(al: np.ndarray) -> np.ndarray:
    """(n,4,4) Gram matrices of an (n,6) alpha array (cos alpha entries)."""
    n = al.shape[0]
    g = np.broadcast_to(np.eye(4), (n, 4, 4)).copy()
    c = np.cos(al)
    for edge, (i, j) in enumerate(EDGE_TO_FACEPAIR):
        g[:, i, j] = g[:, j, i] = c[:, edge]
    return g


def signature_batch(gram: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """(n,2) array of (pos, neg) eigenvalue counts of stacked 4x4 matrices.

    The threshold is tol * (spectral norm), floored at tol * 1e-30; a
    Gram matrix (unit diagonal) has spectral norm >= 1, so the floor
    never binds there.
    """
    eig = np.linalg.eigvalsh(gram)
    thr = tol * np.max(np.abs(eig), axis=1, keepdims=True)
    thr = np.maximum(thr, tol * 1e-30)
    pos = np.sum(eig > thr, axis=1)
    neg = np.sum(eig < -thr, axis=1)
    return np.stack([pos, neg], axis=1)


def sample_admissible_alpha(n: int, rng=None, strict: bool = False,
                            margin: float = 1e-6) -> np.ndarray:
    """n admissible alpha rows, uniform on the admissible region.

    strict=True additionally rejects a `margin` neighborhood of every
    equality case, so the rows are strictly admissible with room to
    spare.
    """
    if rng is None:
        rng = np.random.default_rng()
    out = np.empty((0, 6))
    m = margin if strict else 0.0
    while out.shape[0] < n:
        batch = rng.uniform(0.0, TWO_PI, size=(max(4 * n, 20000), 6))
        keep = batch[_admissible_mask(batch, m)]
        out = np.concatenate([out, keep], axis=0)
    return out[:n]


def sample_hyperbolic_alpha(n: int, rng=None, strict: bool = True,
                            margin: float = 1e-6,
                            tol: float = DEFAULT_TOL) -> np.ndarray:
    """n admissible alpha rows whose Gram signature is (3,1)."""
    if rng is None:
        rng = np.random.default_rng()
    out = np.empty((0, 6))
    m = margin if strict else 0.0
    while out.shape[0] < n:
        batch = rng.uniform(0.0, TWO_PI, size=(max(4 * n, 20000), 6))
        keep = batch[_admissible_mask(batch, m)]
        if keep.shape[0] == 0:
            continue
        sig = signature_batch(_gram_batch(keep), tol)
        keep = keep[(sig[:, 0] == 3) & (sig[:, 1] == 1)]
        out = np.concatenate([out, keep], axis=0)
    return out[:n]
