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

The Gram index g of a face is fixed by `sixj.FACE_TRIPLES`: face g holds
the three edges FACE_TRIPLES[3 - g].  The incidence tables below
(`EDGE_TO_FACEPAIR`, `EDGE_COMPLEMENT`) are derived from it, not
restated.

Classification is by eigenvalue signature of the Gram matrix:
(4,0) spherical, (3,0) generalized Euclidean, (3,1) generalized
hyperbolic; admissible tuples land in those three cells or in the
lower-rank line configurations (2,0)/(1,0) and (2,1).  One table,
`_TAG_OF_PAIR`, maps each signature to its class.  Signature (2,1)
has been seen only on the boundary of the admissible region:
alpha = (pi, 0, pi, pi, t, pi) is admissible, but not strictly, and has
signature (2,1,1) for every t tried in (0, pi).

The four single-row cores -- `gram_from_alpha`, `admissible`,
`signature` and `cofactor_matrix` -- are memoized, because one tuple
passes through several of them more than once (a geometry row reaches
each through `classify`, `reconstruct` and `volume_by_max`).  Each
keeps a least-recently-used table of one entry, keyed by the exact
bytes of its input: the packed angles of an AlphaSixTuple, or the
4x4 float64 matrix.  A hit returns the object the miss built, so calls
of `gram_from_alpha` in a row with the same angles return one shared
GramMatrix.  A GramMatrix built by its constructor holds its own
read-only float64 copy of the matrix it was given; one built by the
memo of `gram_from_alpha` holds the array the memo laid out, made
read-only without a copy or the constructor's checks, which that
layout always passes.  The cofactor arrays are read-only too.
`gram_cache_info()` reports the counters.  The batched cores behind the
samplers are not memoized.  Admissibility, closed and strict, is one
batched rule, `_admissible_mask`, which `admissible` (memoized) and
`strictly_admissible` (not memoized) call with one row.  `volfun` keeps
two more one-entry memos with the same helper and key (its module
docstring): the critical point of a tuple, and the xi-free terms of V
(tau/eta and the vertex-delta sum).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import struct
from typing import NamedTuple

import numpy as np

from .qnum import TWO_PI, _FrozenRecord, _integral_level, _one_based
from .sixj import FACE_TRIPLES, VERTEX_TRIPLES

FOUR_PI = 4.0 * math.pi

# The one threshold of every sign decision in the package.  Relative, as
# DEFAULT_TOL * (spectral norm), for Gram eigenvalues (the signature).
# Absolute for cofactors (vertex types, case labels, edge-length signs,
# segment sides) and for det G and the flat-family |A|, |B| test of the
# critical-point quadratic: Gram entries are cosines, so these are O(1).
# The arccosh argument may fall below 1 by DEFAULT_TOL before the Gram
# data count as inconsistent, and the reconstruction self-check allows
# 100 * DEFAULT_TOL.
DEFAULT_TOL = 1e-9

# The edges at each vertex: the vertex triples of the colour tuples.
_VERTEX_INDEX = np.array(VERTEX_TRIPLES)

# Gram index g is the face FACE_TRIPLES[3 - g] (module docstring): an
# edge lies on the two faces whose triples hold it.
#
# Edge index -> unordered pair of Gram indices (faces meeting there).
EDGE_TO_FACEPAIR = tuple(tuple(g for g in range(4) if e in FACE_TRIPLES[3 - g])
                         for e in range(6))

# Flat Gram entry 4 i + j -> the edge whose cosine it holds, or 6 for
# the unit diagonal (the column of ones that _gram_batch appends).
_GRAM_ENTRY = np.array([EDGE_TO_FACEPAIR.index((min(i, j), max(i, j)))
                        if i != j else 6 for i in range(4) for j in range(4)])

# Edge index -> the complementary pair of Gram indices (the two faces
# NOT containing the edge); the opposite edge in the tuple runs between
# them.
EDGE_COMPLEMENT = tuple(tuple(g for g in range(4)
                              if e not in FACE_TRIPLES[3 - g])
                        for e in range(6))

# Flat indices 4 r + c into a 4x4 matrix of the sixteen 3x3 minors,
# stacked as (4, 4, 3, 3): minor (i, j) keeps the rows r != i and the
# columns c != j.  The checkerboard signs (-1)^(i+j) turn them into
# cofactors.
_KEEP = np.array([[j for j in range(4) if j != i] for i in range(4)])
_MINOR_FLAT = 4 * _KEEP[:, None, :, None] + _KEEP[None, :, None, :]
_CHECKERBOARD = np.array([[(-1.0) ** (i + j) for j in range(4)]
                          for i in range(4)])

# How far an angle may lie outside its range ([0, pi] for theta,
# [0, 2 pi] for alpha) and still be accepted, so that an angle rounded
# just past an end passes.
_ANGLE_SLACK = 1e-12

# The lowest accepted alpha: pi minus the largest accepted theta, so
# that from_theta accepts every theta that AngleSixTuple accepts.
# pi + _ANGLE_SLACK rounds up to pi + 1.00009e-12, and pi minus that is
# exact, so this lies just below -_ANGLE_SLACK.  At the upper end pi
# plus that theta rounds to TWO_PI + _ANGLE_SLACK, the bound itself.
_ALPHA_MIN = math.pi - (math.pi + _ANGLE_SLACK)

# Entries in each single-row memo, here and in `volfun`.  Every caller
# in the package reuses only the last input of each core: a geometry row
# and the classify, tetra and volume commands pass one tuple through the
# cores.
_memo = functools.lru_cache(maxsize=1)


class AngleSixTuple(_FrozenRecord):
    """Six dihedral angles in [0, pi], edge-ordered; equal only to itself."""

    __slots__ = ("theta",)

    def __init__(self, theta) -> None:
        th = tuple(float(x) for x in theta)
        object.__setattr__(self, "theta", th)
        if len(th) != 6:
            raise ValueError("need exactly six angles")
        for x in th:
            if not -_ANGLE_SLACK <= x <= math.pi + _ANGLE_SLACK:
                raise ValueError(f"dihedral angle {x} outside [0, pi]")


# The 64 valid branch-sign tuples, each stored once: every AlphaSixTuple
# holds one of these objects, so tuples with the same signs share it.
_MU_TUPLES = {mu: mu for mu in itertools.product((-1, 1), repeat=6)}
# Their ids: the stored tuples live as long as the module, so no other
# object has one of these ids.
_MU_IDS = frozenset(map(id, _MU_TUPLES))


def _branch_signs(mu) -> tuple[int, ...]:
    """mu as the one stored tuple of `_MU_TUPLES` it names: each sign read
    by the package's integer rule (`qnum._integral_level`), so 1.5 or
    "1" is refused, never truncated; ValueError unless six of -1, +1.
    A stored tuple itself (the `mu` of an AlphaSixTuple) is returned
    without the per-sign reads."""
    if id(mu) in _MU_IDS:
        return mu
    signs = _MU_TUPLES.get(tuple(map(_integral_level, mu)))
    if signs is None:
        raise ValueError("branch signs must be six values in {-1,+1}")
    return signs


_SIX_DOUBLES = struct.Struct("6d")


class AlphaSixTuple(_FrozenRecord):
    """Limit angles alpha_k = pi + mu_k * theta_k with branch signs mu.

    Immutable, and equal only to itself.  Populations of rows are held
    in memory, so the six angles are stored packed as doubles (one
    48-byte buffer instead of a tuple of six float objects) and `alpha`
    unpacks them into a new tuple on each access; every tuple with the
    same signs shares one `mu`.
    """

    __slots__ = ("_packed", "mu")

    def __init__(self, alpha, mu) -> None:
        al = tuple(float(x) for x in alpha)
        if len(al) != 6:
            raise ValueError("need exactly six angles")
        for x in al:
            if not _ALPHA_MIN <= x <= TWO_PI + _ANGLE_SLACK:
                raise ValueError(f"limit angle {x} outside [0, 2*pi]")
        object.__setattr__(self, "_packed", _SIX_DOUBLES.pack(*al))
        object.__setattr__(self, "mu", _branch_signs(mu))

    @property
    def alpha(self) -> tuple[float, float, float, float, float, float]:
        return _SIX_DOUBLES.unpack(self._packed)

    def __repr__(self) -> str:
        return f"AlphaSixTuple(alpha={self.alpha!r}, mu={self.mu!r})"

    def __reduce__(self):
        return AlphaSixTuple, (self.alpha, self.mu)

    @staticmethod
    def from_alpha(alpha) -> "AlphaSixTuple":
        """Branch signs read off the values: mu = +1 iff alpha > pi."""
        al = tuple(float(x) for x in alpha)
        mu = _MU_TUPLES[tuple(1 if x > math.pi else -1 for x in al)]
        return AlphaSixTuple(al, mu)

    @staticmethod
    def from_theta(theta: AngleSixTuple, mu) -> "AlphaSixTuple":
        mu = _branch_signs(mu)
        al = tuple(math.pi + m * t for m, t in zip(mu, theta.theta))
        return AlphaSixTuple(al, mu)

    def to_theta(self) -> AngleSixTuple:
        return AngleSixTuple(tuple(abs(math.pi - a) for a in self.alpha))


class GramMatrix(_FrozenRecord):
    """Symmetric 4x4, unit diagonal, off-diagonal -cos theta_ij.

    Immutable, and equal only to itself; `mat` is a read-only float64
    copy (records from the memo of `gram_from_alpha` hold the memo's own
    array, see the module docstring).  Validation accepts exactly the
    finite matrices with np.allclose(m, m.T, atol=1e-12) and
    np.allclose(diag(m), 1, atol=1e-12), checked in that order.  Both
    keep allclose's default rtol=1e-5, so the diagonal test is
    effectively |m_ii - 1| <= 1e-5 and the symmetry test is relative to
    |m_ji|.  The finiteness test comes first because allclose counts
    equal infinities as close.
    """

    __slots__ = ("mat",)

    def __init__(self, mat) -> None:
        m = np.array(mat, dtype=np.float64)
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)
        if m.shape != (4, 4):
            raise ValueError(f"Gram matrix must be 4x4, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("Gram matrix entries must be finite")
        if not np.allclose(m, m.T, rtol=1e-5, atol=1e-12):
            raise ValueError("Gram matrix must be symmetric")
        if not np.allclose(np.diag(m), 1.0, rtol=1e-5, atol=1e-12):
            raise ValueError("Gram matrix must have unit diagonal")


_set_mat = GramMatrix.mat.__set__


class Signature(NamedTuple):
    """Eigenvalue sign counts (pos, neg, zero), summing to 4."""

    pos: int
    neg: int
    zero: int

    def as_pair(self) -> tuple[int, int]:
        return (self.pos, self.neg)


class GeometryTag(enum.Enum):
    SPHERICAL = "Spherical"
    GENERALIZED_EUCLIDEAN = "GeneralizedEuclidean"
    GENERALIZED_HYPERBOLIC = "GeneralizedHyperbolic"
    EUCLIDEAN_LINES = "EuclideanLines"
    HYPERBOLIC_LINES = "HyperbolicLines"
    INDETERMINATE = "Indeterminate"


class GeometryClass(NamedTuple):
    tag: GeometryTag
    signature: Signature


# The class of each signature (pos, neg) an admissible tuple can have;
# any other pair is INDETERMINATE.  (2,1) has been seen only on the
# boundary of the admissible region (module docstring).
_TAG_OF_PAIR = {(4, 0): GeometryTag.SPHERICAL,
                (3, 0): GeometryTag.GENERALIZED_EUCLIDEAN,
                (3, 1): GeometryTag.GENERALIZED_HYPERBOLIC,
                (2, 0): GeometryTag.EUCLIDEAN_LINES,
                (1, 0): GeometryTag.EUCLIDEAN_LINES,
                (2, 1): GeometryTag.HYPERBOLIC_LINES}


def tol_sign(x: float) -> int:
    """+1 / -1 when x lies above DEFAULT_TOL / below -DEFAULT_TOL, else 0."""
    if x > DEFAULT_TOL:
        return 1
    if x < -DEFAULT_TOL:
        return -1
    return 0


def admissible(alpha: AlphaSixTuple) -> bool:
    """Closed admissibility: triangle-type inequalities at all vertices.

    Memoized on the packed angles, one entry (module docstring).
    """
    return _admissible_of(alpha._packed)


@_memo
def _admissible_of(packed: bytes) -> bool:
    return bool(_admissible_mask(np.frombuffer(packed)[None])[0])


def strictly_admissible(alpha: AlphaSixTuple) -> bool:
    """Strict admissibility: open inequalities, alpha in (0,pi) u (pi,2pi)."""
    return bool(_admissible_mask(np.frombuffer(alpha._packed)[None],
                                 strict=True)[0])


def gram_from_angles(theta: AngleSixTuple) -> GramMatrix:
    """The 4x4 Gram matrix with entries -cos theta_ij: `gram_from_alpha`
    at alpha = pi - theta, since cos(pi - theta) = -cos theta."""
    return gram_from_alpha(AlphaSixTuple.from_theta(theta, (-1,) * 6))


def gram_from_alpha(alpha: AlphaSixTuple) -> GramMatrix:
    """The Gram matrix through cos alpha = -cos theta; branch-independent.

    Memoized on the packed angles, one entry: calls in a row with the
    same angles share one GramMatrix.
    """
    return _gram_of(alpha._packed)


@_memo
def _gram_of(packed: bytes) -> GramMatrix:
    # _GRAM_ENTRY lays the matrix out symmetric bit for bit with a unit
    # diagonal, and AlphaSixTuple admits only finite angles, so the
    # constructor's checks cannot fail here and its copy is not needed.
    m = _gram_batch(np.frombuffer(packed)[None])[0]
    m.flags.writeable = False
    G = object.__new__(GramMatrix)
    _set_mat(G, m)
    return G


def signature(G: GramMatrix) -> Signature:
    """Eigenvalue sign counts, relative to the spectral norm.

    Memoized on the bytes of G.mat, one entry.
    """
    return _signature_of(G.mat.tobytes())


@_memo
def _signature_of(key: bytes) -> Signature:
    pos, neg = (int(x) for x in
                signature_batch(np.frombuffer(key).reshape(1, 4, 4))[0])
    return Signature(pos, neg, 4 - pos - neg)


def cofactor_matrix(mat: np.ndarray) -> np.ndarray:
    """All sixteen signed cofactors of a 4x4 matrix, by direct 3x3 minors.

    One stacked determinant call over the (4,4,3,3) minors; never
    det(G) * inv(G), which loses accuracy as det G -> 0.  Memoized on
    the bytes of the float64 matrix, one entry; the returned array is
    read-only and shared by calls in a row with the same matrix.
    """
    m = np.asarray(mat, dtype=np.float64)
    if m.shape != (4, 4):
        raise ValueError(f"cofactor_matrix needs a 4x4 matrix, got {m.shape}")
    return _cofactors_of(m.tobytes())


@_memo
def _cofactors_of(key: bytes) -> np.ndarray:
    cof = _CHECKERBOARD * np.linalg.det(np.frombuffer(key)[_MINOR_FLAT])
    cof.flags.writeable = False
    return cof


def _det_from_rows(g: list, c: list) -> float:
    """det G from the first row g of G and the first row c of its
    cofactor matrix, as lists of floats: the four products summed left
    to right."""
    return g[0] * c[0] + g[1] * c[1] + g[2] * c[2] + g[3] * c[3]


def gram_cache_info() -> dict:
    """Counters of the four single-row memos, by the name of the core
    they serve: each a `functools.lru_cache` info tuple (hits, misses,
    maxsize, currsize)."""
    return {"gram_from_alpha": _gram_of.cache_info(),
            "admissible": _admissible_of.cache_info(),
            "signature": _signature_of.cache_info(),
            "cofactor_matrix": _cofactors_of.cache_info()}


def cofactor(G: GramMatrix, i: int, j: int) -> float:
    """Signed (i,j) cofactor, indices 1..4."""
    i, j = (_one_based(x, 4, "cofactor index") for x in (i, j))
    return float(cofactor_matrix(G.mat)[i - 1, j - 1])


def classify(alpha: AlphaSixTuple) -> GeometryClass:
    """Geometric class of an admissible tuple, from the Gram signature."""
    if not admissible(alpha):
        raise ValueError("tuple not admissible")
    sig = signature(gram_from_alpha(alpha))
    return GeometryClass(
        _TAG_OF_PAIR.get(sig.as_pair(), GeometryTag.INDETERMINATE), sig)


def change_angles_opposite_vertex(theta: AngleSixTuple, i: int) -> AngleSixTuple:
    """Replace theta by pi - theta on the three edges at Gram index i (1..4).

    On the Gram matrix this negates row and column i (a congruence with
    diag(+-1)), so the signature — and hence the classification — is
    unchanged.  Applying the move at i and then j flips exactly the four
    edges separating {i,j} from the complementary pair.
    """
    i = _one_based(i, 4, "vertex index")
    th = list(theta.theta)
    # Gram index i is the face opposite colour vertex 5 - i: its three
    # edges, the ones whose face pair contains i, are FACE_TRIPLES[4 - i].
    for e in FACE_TRIPLES[4 - i]:
        th[e] = math.pi - th[e]
    return AngleSixTuple(tuple(th))


# ---------------------------------------------------------------------------
# Batched cores over (n,6) alpha rows, which the memos of admissible,
# gram_from_alpha and signature call with one row, and the rejection
# samplers built on them, which are not memoized: draw alpha uniformly
# from [0, 2 pi]^6 and keep the admissible rows.


def _admissible_mask(al: np.ndarray, margin: float = 0.0,
                     strict: bool = False) -> np.ndarray:
    """Boolean mask of admissible rows of an (n,6) alpha array.

    With margin > 0 the inequalities are required to hold with that
    margin and the components must avoid {0, pi, 2 pi} by the same
    amount (strict admissibility sampling).  With strict, every
    inequality is open and the components must avoid {0, pi, 2 pi}
    (`strictly_admissible`).
    """
    below, above = ((np.less, np.greater) if strict
                    else (np.less_equal, np.greater_equal))
    tri = al[:, _VERTEX_INDEX]  # (n, 4, 3): the three edges at each vertex
    s = tri[:, :, 0] + tri[:, :, 1] + tri[:, :, 2]
    ok = below(s, FOUR_PI - margin).all(axis=1)
    ok &= above(s[:, :, None] - 2 * tri, margin).all(axis=(1, 2))
    if strict or margin > 0.0:
        ok &= np.all((al > margin) & (al < TWO_PI - margin)
                     & (np.abs(al - math.pi) > margin), axis=1)
    return ok


def _gram_batch(al: np.ndarray) -> np.ndarray:
    """(n,4,4) Gram matrices of an (n,6) alpha array (cos alpha entries)."""
    n = al.shape[0]
    c = np.ones((n, 7))
    c[:, :6] = np.cos(al)
    return c[:, _GRAM_ENTRY].reshape(n, 4, 4)


def signature_batch(gram: np.ndarray) -> np.ndarray:
    """(n,2) array of (pos, neg) eigenvalue counts of stacked 4x4 matrices.

    An eigenvalue counts as zero within DEFAULT_TOL * (spectral norm).
    """
    eig = np.linalg.eigvalsh(gram)
    thr = DEFAULT_TOL * np.abs(eig).max(axis=1, keepdims=True)
    return np.array([(eig > thr).sum(axis=1), (eig < -thr).sum(axis=1)]).T


def _sample_alpha(n: int, rng, margin: float, row_filter=None) -> np.ndarray:
    """The first n admissible rows (with `margin`) of uniform draws that
    also pass row_filter, a mask function on an (m,6) array."""
    if rng is None:
        rng = np.random.default_rng()
    out = np.empty((0, 6))
    while out.shape[0] < n:
        batch = rng.uniform(0.0, TWO_PI, size=(max(4 * n, 20000), 6))
        keep = batch[_admissible_mask(batch, margin)]
        if row_filter is not None:
            keep = keep[row_filter(keep)]
        out = np.concatenate([out, keep], axis=0)
    return out[:n]


def _hyperbolic_rows(al: np.ndarray) -> np.ndarray:
    """Mask of the (n,6) alpha rows whose Gram signature is (3,1)."""
    sig = signature_batch(_gram_batch(al))
    return (sig[:, 0] == 3) & (sig[:, 1] == 1)


def sample_admissible_alpha(n: int, rng=None,
                            margin: float = 0.0) -> np.ndarray:
    """n admissible alpha rows, uniform on the admissible region.

    A positive `margin` additionally rejects that neighborhood of every
    equality case, so the rows are strictly admissible with room to
    spare.
    """
    return _sample_alpha(n, rng, margin)


def sample_hyperbolic_alpha(n: int, rng=None) -> np.ndarray:
    """`sample_admissible_alpha` rows with margin 1e-6 whose Gram
    signature is (3,1)."""
    return _sample_alpha(n, rng, 1e-6, _hyperbolic_rows)
