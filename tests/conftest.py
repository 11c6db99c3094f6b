"""Shared fixtures and samplers for the sixjvol test suite.

Everything randomized is seeded here so runs are reproducible; the
samplers are vectorized with numpy because several suites need 1e4-1e5
draws under tight time budgets.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

import sixjvol as sv
from sixjvol import gram, volfun
from sixjvol.gram import EDGE_TO_FACEPAIR

# (i, j, k): Gram entry (i, j) carries -cos(theta_{k+1}) under the fixed
# edge dictionary theta_1..theta_6 = theta_12, 13, 23, 34, 24, 14.
GRAM_ENTRY_OF_THETA = ((0, 1, 0), (0, 2, 1), (1, 2, 2),
                       (2, 3, 3), (1, 3, 4), (0, 3, 5))

# Vertex triples of color/alpha indices (0-based), matching the four
# corners of the 6j-symbol.
VERTEX_TRIPLES_0 = ((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4))

# theta-index triple (1-based) meeting at matrix vertex i = 1..4.
THETA_TRIPLE_AT_VERTEX = {1: (3, 4, 5), 2: (2, 4, 6),
                          3: (1, 5, 6), 4: (1, 2, 3)}


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture
def empty_gram_memos():
    """Empty the four single-row memos of `gram` and zero their
    counters, so a test sees every computation of its own tuples."""
    for memo in (gram._gram_of, gram._admissible_of, gram._signature_of,
                 gram._cofactors_of):
        memo.cache_clear()


def clear_volume_memos():
    """Empty the two single-row memos of `volfun` and zero their
    counters."""
    for memo in (volfun._critical_of, volfun._xi_free_of):
        memo.cache_clear()


@pytest.fixture
def empty_volume_memos():
    """`clear_volume_memos` before the test, so that it sees every
    volume-side computation of its own tuples."""
    clear_volume_memos()


def lob_quad(x: float) -> float:
    """Independent Lobachevsky oracle: adaptive quadrature of the
    defining integral -int_0^x log|2 sin t| dt (odd in x)."""
    if x < 0.0:
        return -lob_quad(-x)
    with warnings.catch_warnings():
        # the log singularities at multiples of pi are integrable; the
        # convergence warning is noise at the accuracy we check (1e-10)
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(lambda t: math.log(abs(2.0 * math.sin(t))), 0.0, x,
                      points=[k * math.pi
                              for k in range(1, int(x / math.pi) + 1)
                              if k * math.pi < x] or None,
                      limit=200)
    return -val


def lob_mp(theta: float) -> float:
    """Independent Lobachevsky oracle for any finite float angle:
    mpmath's Clausen function, Lambda(t) = Cl_2(2t) / 2, to 30 digits,
    at theta reduced modulo pi with 1400 bits."""
    import mpmath
    with mpmath.workprec(1400):
        t = mpmath.fmod(mpmath.mpf(theta), mpmath.pi)
    with mpmath.workdps(30):
        return float(mpmath.clsin(2, 2 * t) / 2)


def lob_coeff_exact(count: int) -> list[float]:
    """Oracle for the Lobachevsky series coefficients c_n = zeta(2n) /
    (n (2n+1)), n = 1..count, each rounded once from an exact rational.

    zeta(2n) / pi^{2n} = |B_2n| 2^{2n-1} / (2n)! comes from Euler's
    convolution of the Bernoulli numbers,
    (n + 1/2) zeta(2n) = sum_{k=1}^{n-1} zeta(2k) zeta(2n-2k), from
    zeta(2) = pi^2 / 6.
    """
    zeta = [Fraction(1, 6)]
    for n in range(2, count + 1):
        conv = sum(zeta[k - 1] * zeta[n - k - 1] for k in range(1, n))
        zeta.append(conv / (n + Fraction(1, 2)))
    return [float(z / (n * (2 * n + 1))) * math.pi ** (2 * n)
            for n, z in enumerate(zeta, start=1)]


def batch_grams(thetas: np.ndarray) -> np.ndarray:
    """(n, 6) angle rows -> (n, 4, 4) Gram matrices."""
    n = thetas.shape[0]
    G = np.broadcast_to(np.eye(4), (n, 4, 4)).copy()
    for i, j, k in GRAM_ENTRY_OF_THETA:
        G[:, i, j] = G[:, j, i] = -np.cos(thetas[:, k])
    return G


def batch_cofactors(G: np.ndarray) -> np.ndarray:
    """(n, 4, 4) matrices -> (n, 4, 4) signed cofactor matrices."""
    n = G.shape[0]
    C = np.empty_like(G)
    idx = np.arange(4)
    for i in range(4):
        for j in range(4):
            rows = np.delete(idx, i)
            cols = np.delete(idx, j)
            minors = G[np.ix_(np.arange(n), rows, cols)]
            C[:, i, j] = (-1.0) ** (i + j) * np.linalg.det(minors)
    return C


def batch_signatures(G: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """(n, 4, 4) -> (n, 2) arrays of (pos, neg) eigenvalue counts with a
    relative threshold, mirroring the library's signature semantics."""
    eig = np.linalg.eigvalsh(G)
    scale = np.maximum(np.max(np.abs(eig), axis=1, keepdims=True), 1.0)
    thr = tol * scale
    pos = (eig > thr).sum(axis=1)
    neg = (eig < -thr).sum(axis=1)
    return np.stack([pos, neg], axis=1)


def batch_admissible_alpha(al: np.ndarray, strict: bool = False,
                           margin: float = 1e-6) -> np.ndarray:
    """Boolean mask of rows of (n, 6) alpha satisfying the four
    vertex-triple admissibility conditions (closed by default)."""
    four_pi = 4.0 * math.pi
    ok = np.ones(al.shape[0], dtype=bool)
    for (i, j, k) in VERTEX_TRIPLES_0:
        s = al[:, i] + al[:, j] + al[:, k]
        if strict:
            ok &= s < four_pi - margin
            ok &= al[:, i] + al[:, j] - al[:, k] > margin
            ok &= al[:, j] + al[:, k] - al[:, i] > margin
            ok &= al[:, k] + al[:, i] - al[:, j] > margin
        else:
            ok &= s <= four_pi
            ok &= al[:, i] + al[:, j] - al[:, k] >= 0.0
            ok &= al[:, j] + al[:, k] - al[:, i] >= 0.0
            ok &= al[:, k] + al[:, i] - al[:, j] >= 0.0
    if strict:
        for k in range(6):
            ok &= np.abs(al[:, k] - math.pi) > margin
            ok &= al[:, k] > margin
            ok &= al[:, k] < 2.0 * math.pi - margin
    return ok


def sample_admissible_alpha_np(rng, n: int, strict: bool = False) -> np.ndarray:
    """Rejection-sample n admissible alpha rows, uniform over [0, 2pi]^6."""
    out = []
    have = 0
    while have < n:
        cand = rng.uniform(0.0, 2.0 * math.pi, size=(max(4 * n, 20000), 6))
        keep = cand[batch_admissible_alpha(cand, strict=strict)]
        out.append(keep)
        have += keep.shape[0]
    return np.concatenate(out)[:n]


def sample_theta31(rng, n: int) -> np.ndarray:
    """n rows of theta in [0, pi]^6 whose Gram signature is (3, 1)."""
    out = []
    have = 0
    while have < n:
        cand = rng.uniform(0.0, math.pi, size=(2 * n + 64, 6))
        sig = batch_signatures(batch_grams(cand))
        keep = cand[(sig[:, 0] == 3) & (sig[:, 1] == 1)]
        out.append(keep)
        have += keep.shape[0]
    return np.concatenate(out)[:n]


# ---------------------------------------------------------------------------
# Test-only oracles: cross-checks of the library through routes that no
# library code takes.

def hyperideal_by_bonahon_bao(theta) -> bool:
    """True iff every vertex-triple angle sum of an AngleSixTuple is < pi.

    Such tuples are the dihedral angles of a hyperideal tetrahedron
    (Bao-Bonahon): the Gram matrix then has all diagonal cofactors
    negative and signature (3,1).
    """
    th = theta.theta
    for x in th:
        if not 0.0 <= x <= math.pi:
            raise ValueError("angles must lie in [0, pi]")
    return all(th[i] + th[j] + th[k] < math.pi for i, j, k in VERTEX_TRIPLES_0)


def angles_from_normals(t) -> tuple[float, ...]:
    """theta_1..theta_6 of a reconstructed tetrahedron, recovered from
    <u_i, u_j> = -cos theta_ij of its face normals."""
    out = []
    for i, j in EDGE_TO_FACEPAIR:
        c = -sv.minkowski_dot(t.normals[i], t.normals[j])
        out.append(math.acos(min(1.0, max(-1.0, c))))
    return tuple(out)


def dilog_unit_circle(theta: float) -> complex:
    """Li_2(e^{2 i theta}) for 0 <= theta <= pi.

    Real part pi^2/6 + theta(theta - pi); imaginary part 2 Lambda(theta).
    """
    if not -1e-12 <= theta <= math.pi + 1e-12:
        raise ValueError(f"dilog argument {theta} outside [0, pi]")
    return complex(math.pi ** 2 / 6.0 + theta * (theta - math.pi),
                   2.0 * sv.lobachevsky(theta))


def ell(x: float) -> complex:
    """L(x) = Li_2(e^{2ix}) + x^2, reduced mod pi inside the dilogarithm."""
    t = math.fmod(x, math.pi)
    if t < 0.0:
        t += math.pi
    return dilog_unit_circle(t) + x * x


def big_U(alpha, xi: float) -> complex:
    """The complex potential U(alpha, xi); Im U = 2 V pointwise."""
    te = sv.tau_eta(alpha)
    out = 0.0 + 0.0j
    for t in te.tau:
        for e in te.eta:
            out -= 0.5 * ell(e - t)
        out += 0.5 * ell(t - math.pi)
        out += ell(xi - t)
    out -= ell(xi - math.pi)
    for e in te.eta:
        out += ell(e - xi)
    return out
