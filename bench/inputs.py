"""Seeded inputs for the workloads, drawn with the benchmark's own code.

The library's samplers are not used, so a change to them cannot change
what a workload measures.  Every stream is a pure function of the seed:
chunk k of a stream comes from `numpy.random.default_rng([seed, k])`,
so a run may consume as many chunks as its time allows and two runs with
one seed see the same inputs in the same order.
"""

from __future__ import annotations

import math

import numpy as np

PI = math.pi
TWO_PI = 2.0 * math.pi

VERTEX_TRIPLES = ((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4))
# Edge k of the angle tuple joins faces EDGE_FACES[k] of the Gram matrix.
EDGE_FACES = ((0, 1), (0, 2), (1, 2), (2, 3), (1, 3), (0, 3))

THETA_PI6 = (PI / 6,) * 6
# All four vertices regular: the growth rate is V(xi*) = -Vol here.
THETA_E = (1.2, PI - 1.2, PI - 1.2, 1.2, PI - 1.2, PI - 1.2)
MU_MINUS = (-1,) * 6

SIG_TOL = 1e-9          # relative eigenvalue threshold of the signature
HYPERIDEAL_TOL = 1e-6   # a diagonal cofactor below -this is hyperideal
# Vertex inequalities hold with this margin, so that the even rounding
# of r * alpha / (2 pi) stays admissible from r = 101 on (three edges
# each move by at most 2 pi / r).
SCAN_MARGIN = 0.2
STRICT_MARGIN = 1e-6


def admissible_mask(al: np.ndarray, margin: float = 0.0) -> np.ndarray:
    """Rows of an (n, 6) alpha array meeting the vertex inequalities.

    With margin > 0 every inequality holds with that margin and each
    component also keeps STRICT_MARGIN away from 0, pi and 2 pi.
    """
    ok = np.all((al >= 0.0) & (al <= TWO_PI), axis=1)
    if margin > 0.0:
        ok &= np.all((al > STRICT_MARGIN) & (al < TWO_PI - STRICT_MARGIN)
                     & (np.abs(al - PI) > STRICT_MARGIN), axis=1)
    for i, j, k in VERTEX_TRIPLES:
        s = al[:, i] + al[:, j] + al[:, k]
        ok &= s <= 2.0 * TWO_PI - margin
        for e in (i, j, k):
            ok &= s - 2.0 * al[:, e] >= margin
    return ok


def gram(al: np.ndarray) -> np.ndarray:
    """(n, 4, 4) Gram matrices, entry (i, j) = cos alpha of edge ij."""
    g = np.broadcast_to(np.eye(4), (al.shape[0], 4, 4)).copy()
    c = np.cos(al)
    for e, (i, j) in enumerate(EDGE_FACES):
        g[:, i, j] = g[:, j, i] = c[:, e]
    return g


def signature(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pos, neg) eigenvalue counts with a relative threshold."""
    eig = np.linalg.eigvalsh(g)
    thr = SIG_TOL * np.max(np.abs(eig), axis=1, keepdims=True)
    return (eig > thr).sum(axis=1), (eig < -thr).sum(axis=1)


def diag_cofactors(g: np.ndarray) -> np.ndarray:
    """(n, 4) principal 3x3 minors, the diagonal cofactors."""
    out = np.empty(g.shape[:2])
    for i in range(4):
        keep = [j for j in range(4) if j != i]
        out[:, i] = np.linalg.det(g[:, keep][:, :, keep])
    return out


def hyperbolic_rows(rng, n: int, margin: float,
                    need_hyperideal: bool) -> np.ndarray:
    """n admissible alpha rows with Gram signature (3, 1)."""
    rows, have = [], 0
    while have < n:
        cand = rng.uniform(0.0, TWO_PI, size=(4096, 6))
        cand = cand[admissible_mask(cand, margin)]
        g = gram(cand)
        pos, neg = signature(g)
        keep = (pos == 3) & (neg == 1)
        if need_hyperideal:
            keep &= (diag_cofactors(g) < -HYPERIDEAL_TOL).any(axis=1)
        rows.append(cand[keep])
        have += int(keep.sum())
    return np.concatenate(rows)[:n]


def chunk_rng(seed: int, k: int):
    return np.random.default_rng([seed, k])


def geometry_chunk(seed: int, k: int, n: int = 2048):
    """Chunk k of the geometry stream: alpha rows and their diagonal
    cofactors."""
    rows = hyperbolic_rows(chunk_rng(seed, k), n, 0.0, need_hyperideal=False)
    return rows, diag_cofactors(gram(rows))


def scan_block(seed: int, k: int, n: int = 6) -> np.ndarray:
    """Block k of the scan stream: n seeded strictly admissible alpha rows
    with signature (3, 1) and at least one hyperideal vertex."""
    return hyperbolic_rows(chunk_rng(seed, k), n, SCAN_MARGIN,
                           need_hyperideal=True)


def theta_mu(alpha_row) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Dihedral angles and branch signs with alpha = pi + mu * theta."""
    theta = tuple(abs(float(a) - PI) for a in alpha_row)
    mu = tuple(1 if float(a) > PI else -1 for a in alpha_row)
    return theta, mu
