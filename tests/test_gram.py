"""Angle tuples, admissibility, Gram matrices, signatures, and the
geometric classification."""

import math

import numpy as np
import pytest

import sixjvol as sv
from conftest import (THETA_TRIPLE_AT_VERTEX, batch_admissible_alpha,
                      sample_admissible_alpha_np)

PI = math.pi


def alpha_of(values, mu=None):
    mu = mu or tuple(1 if a > PI else -1 for a in values)
    return sv.AlphaSixTuple(tuple(values), tuple(mu))


def test_angle_tuple_validation():
    with pytest.raises(ValueError, match="six angles"):
        sv.AngleSixTuple((0.0,) * 5)
    with pytest.raises(ValueError, match="outside"):
        sv.AngleSixTuple((4.0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="outside"):
        alpha_of((7.0, PI, PI, PI, PI, PI))
    with pytest.raises(ValueError, match="branch signs"):
        sv.AlphaSixTuple((PI,) * 6, (0,) * 6)


def test_alpha_theta_round_trip(rng):
    al = rng.uniform(0, 2 * PI, size=6)
    a = alpha_of(al)
    th = a.to_theta()
    assert np.allclose(th.theta, np.abs(PI - al))
    back = sv.AlphaSixTuple.from_theta(th, a.mu)
    assert np.allclose(back.alpha, al)


def test_admissible_examples():
    assert sv.admissible(alpha_of((PI,) * 6))
    assert sv.admissible(alpha_of((0.0,) * 6))       # boundary case
    assert not sv.admissible(alpha_of((2 * PI, 0, 0, 0, 0, 0)))


def test_strictly_admissible_examples():
    assert not sv.strictly_admissible(alpha_of((PI,) * 6))
    assert sv.strictly_admissible(alpha_of((PI - 0.3,) * 6))
    assert not sv.strictly_admissible(alpha_of((4 * PI / 3,) * 6))


def test_gram_matrix_examples():
    G0 = sv.gram_from_angles(sv.AngleSixTuple((0.0,) * 6))
    assert np.allclose(G0.mat, 2 * np.eye(4) - 1)
    Gi = sv.gram_from_angles(sv.AngleSixTuple((PI / 2,) * 6))
    assert np.allclose(Gi.mat, np.eye(4))
    # the all-regular example tuple: alternating +-0.3624 off-diagonals
    th = (1.2, PI - 1.2, PI - 1.2, 1.2, PI - 1.2, PI - 1.2)
    G = sv.gram_from_angles(sv.AngleSixTuple(th))
    c = math.cos(1.2)
    expect = np.array([[1, -c, c, c], [-c, 1, c, c],
                       [c, c, 1, -c], [c, c, -c, 1]])
    assert np.allclose(G.mat, expect, atol=1e-12)
    assert abs(c) == pytest.approx(0.36, abs=0.01)


def test_gram_matrix_validation():
    with pytest.raises(ValueError, match="4x4"):
        sv.GramMatrix(np.eye(3))
    with pytest.raises(ValueError, match="symmetric"):
        m = np.eye(4)
        m[0, 1] = 0.5
        sv.GramMatrix(m)
    with pytest.raises(ValueError, match="unit diagonal"):
        sv.GramMatrix(2 * np.eye(4))


def test_signature_examples():
    def sig(theta):
        return sv.signature(sv.gram_from_angles(sv.AngleSixTuple(theta)))

    s = sig((0.0,) * 6)
    assert (s.pos, s.neg, s.zero) == (3, 1, 0)
    s = sig((PI, 0, 0, 0, 0, 0))
    assert (s.pos, s.neg, s.zero) == (2, 1, 1)
    s = sig((PI, 0, 0, 0, 0, PI))
    # eigenvalues -1.236, 0, 2, 3.236 (checked directly)
    assert (s.pos, s.neg, s.zero) == (2, 1, 1)
    s = sig((PI / 2,) * 6)
    assert s.as_pair() == (4, 0)
    with pytest.raises(ValueError, match="tolerance"):
        sv.signature(sv.gram_from_angles(sv.AngleSixTuple((0.0,) * 6)), tol=0.0)


def test_cofactor_examples():
    Gi = sv.gram_from_angles(sv.AngleSixTuple((PI / 2,) * 6))
    for i in range(1, 5):
        for j in range(1, 5):
            assert sv.cofactor(Gi, i, j) == pytest.approx(
                1.0 if i == j else 0.0, abs=1e-12)
    # theta = 0: fully truncated tetrahedron with tangent cut planes
    G0 = sv.gram_from_angles(sv.AngleSixTuple((0.0,) * 6))
    for i in range(1, 5):
        assert sv.cofactor(G0, i, i) == pytest.approx(-4.0, rel=1e-12)
        for j in range(i + 1, 5):
            assert sv.cofactor(G0, i, j) == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ValueError, match="1..4"):
        sv.cofactor(G0, 0, 1)


def test_cofactor_matrix_equals_sixteen_minor_determinants(rng):
    keep = [[j for j in range(4) if j != i] for i in range(4)]

    def by_minors(m):
        return np.array([[(-1) ** (i + j)
                          * np.linalg.det(m[np.ix_(keep[i], keep[j])])
                          for j in range(4)] for i in range(4)])

    mats = [sv.gram_from_alpha(sv.AlphaSixTuple.from_alpha(row)).mat
            for row in sv.sample_admissible_alpha(500, rng)]
    # near-singular: the regular Euclidean tetrahedron (det G = 0), perturbed
    flat = math.acos(1.0 / 3.0)
    for eps in np.logspace(-15, -6, 200):
        theta = flat + eps * rng.standard_normal(6)
        mats.append(sv.gram_from_angles(sv.AngleSixTuple(tuple(theta))).mat)
    assert min(abs(np.linalg.det(m)) for m in mats) < 1e-13
    for m in mats:
        assert np.array_equal(sv.cofactor_matrix(m), by_minors(m))


def test_cofactor_signs_of_the_regular_example():
    # One positive opposite pair {G_12, G_34}; the other four off-
    # diagonal cofactors negative; all diagonal cofactors positive.
    th = (1.2, PI - 1.2, PI - 1.2, 1.2, PI - 1.2, PI - 1.2)
    G = sv.gram_from_angles(sv.AngleSixTuple(th))
    off = {(i, j): sv.cofactor(G, i, j)
           for i in range(1, 5) for j in range(i + 1, 5)}
    assert off[(1, 2)] > 0 and off[(3, 4)] > 0
    for pair in ((1, 3), (1, 4), (2, 3), (2, 4)):
        assert off[pair] < 0
    for v in off.values():
        assert abs(v) == pytest.approx(0.672543, abs=1e-6)
    for i in range(1, 5):
        assert sv.cofactor(G, i, i) == pytest.approx(0.510933, abs=1e-6)


def test_classify_examples():
    assert sv.classify(alpha_of((PI,) * 6)).tag is sv.GeometryTag.GENERALIZED_HYPERBOLIC
    assert sv.classify(alpha_of((PI / 2,) * 6)).tag is sv.GeometryTag.SPHERICAL
    with pytest.raises(ValueError, match="tuple not admissible"):
        sv.classify(alpha_of((2 * PI, 0, 0, 0, 0, 0)))


def test_classify_is_branch_independent(rng):
    for al in sample_admissible_alpha_np(rng, 40):
        base = sv.classify(alpha_of(al)).tag
        for _ in range(4):
            mu = tuple(int(m) for m in rng.choice([-1, 1], size=6))
            # same |pi - alpha|, arbitrary recorded branch signs
            assert sv.classify(sv.AlphaSixTuple(tuple(al), mu)).tag is base


def test_classify_strictly_admissible_classes(rng):
    allowed = {sv.GeometryTag.SPHERICAL, sv.GeometryTag.GENERALIZED_EUCLIDEAN,
               sv.GeometryTag.GENERALIZED_HYPERBOLIC}
    for al in sample_admissible_alpha_np(rng, 300, strict=True):
        got = sv.classify(alpha_of(al))
        assert got.tag in allowed


def test_admissible_signature_law_sample(rng):
    # the five admissible signatures; 1e5-scale coverage runs in the
    # acceptance suite, this is a fast spot-check of the same law
    allowed = {(4, 0), (3, 0), (3, 1), (2, 0), (1, 0)}
    for al in sample_admissible_alpha_np(rng, 500):
        a = alpha_of(al)
        sig = sv.signature(sv.gram_from_alpha(a)).as_pair()
        assert sig in allowed


def test_negative_diagonal_cofactor_forces_lorentzian_signature(rng):
    found = 0
    for al in sample_admissible_alpha_np(rng, 400):
        a = alpha_of(al)
        G = sv.gram_from_alpha(a)
        if any(sv.cofactor(G, i, i) < -1e-9 for i in range(1, 5)):
            assert sv.signature(G).as_pair() == (3, 1)
            found += 1
    assert found > 10


def test_negative_principal_minor_means_small_vertex_angles(rng):
    # strict admissibility + hyperideal vertex i => the three dihedral
    # angles meeting at that vertex sum below pi
    found = 0
    for al in sample_admissible_alpha_np(rng, 400, strict=True):
        a = alpha_of(al)
        th = a.to_theta()
        G = sv.gram_from_alpha(a)
        for i in range(1, 5):
            if sv.cofactor(G, i, i) < -1e-9:
                s = sum(th.theta[k - 1] for k in THETA_TRIPLE_AT_VERTEX[i])
                assert s < PI
                found += 1
    assert found > 10


def test_change_angles_opposite_vertex():
    th = sv.AngleSixTuple((0.3, 0.5, 0.7, 0.9, 1.1, 1.3))
    for i in range(1, 5):
        moved = sv.change_angles_opposite_vertex(th, i)
        back = sv.change_angles_opposite_vertex(moved, i)
        assert np.allclose(back.theta, th.theta)
        changed = {k for k in range(6)
                   if abs(moved.theta[k] - th.theta[k]) > 1e-12}
        assert len(changed) == 3
        # signature invariance
        s0 = sv.signature(sv.gram_from_angles(th)).as_pair()
        s1 = sv.signature(sv.gram_from_angles(moved)).as_pair()
        assert s0 == s1
    with pytest.raises(ValueError, match="vertex index"):
        sv.change_angles_opposite_vertex(th, 5)


def test_change_angles_composition_flips_symmetric_difference():
    th = sv.AngleSixTuple((0.3, 0.5, 0.7, 0.9, 1.1, 1.3))
    one = sv.change_angles_opposite_vertex(th, 1)
    both = sv.change_angles_opposite_vertex(one, 2)
    tripled = [set(), set()]
    for step, (a, b) in enumerate(((th, one), (one, both))):
        tripled[step] = {k for k in range(6)
                         if abs(a.theta[k] - b.theta[k]) > 1e-12}
    # each move flips exactly one triple; their overlap is flipped twice
    overlap = tripled[0] & tripled[1]
    net = {k for k in range(6) if abs(both.theta[k] - th.theta[k]) > 1e-12}
    assert net == (tripled[0] | tripled[1]) - overlap
    assert len(net) == 6 - 2 * len(overlap)


def test_hyperideal_criterion():
    assert sv.hyperideal_by_bonahon_bao(sv.AngleSixTuple((PI / 6,) * 6))
    assert not sv.hyperideal_by_bonahon_bao(sv.AngleSixTuple((PI / 2,) * 6))
    # out-of-range angles never reach the criterion: the tuple type
    # rejects them at construction
    with pytest.raises(ValueError, match="outside"):
        sv.AngleSixTuple((-0.5, 0, 0, 0, 0, 0))


def test_hyperideal_criterion_implies_all_hyperideal(rng):
    found = 0
    while found < 25:
        th = tuple(rng.uniform(0, PI / 3, size=6))
        t = sv.AngleSixTuple(th)
        if not sv.hyperideal_by_bonahon_bao(t):
            continue
        G = sv.gram_from_angles(t)
        assert sv.signature(G).as_pair() == (3, 1)
        for i in range(1, 5):
            assert sv.cofactor(G, i, i) < 0
        found += 1


def test_package_sampler_outputs_are_admissible(rng):
    al6 = sv.sample_admissible_alpha(200, rng=rng)
    assert al6.shape == (200, 6)
    assert batch_admissible_alpha(al6).all()
    st = sv.sample_admissible_alpha(100, rng=rng, strict=True)
    for row in st:
        assert sv.strictly_admissible(alpha_of(row))
    hy = sv.sample_hyperbolic_alpha(50, rng=rng)
    for row in hy:
        a = alpha_of(row)
        assert sv.strictly_admissible(a)
        assert sv.signature(sv.gram_from_alpha(a)).as_pair() == (3, 1)
