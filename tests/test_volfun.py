"""Lobachevsky/dilogarithm building blocks, the critical-point quadratic,
the closed-form volume, the maximization route, and the Schlafli check."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sixjvol as sv
from conftest import lob_quad, sample_theta31

PI = math.pi
TWO_PI = 2.0 * math.pi

VERTEX_TRIPLES_0 = ((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4))
QUAD_TUPLES_0 = ((0, 1, 3, 4), (0, 2, 3, 5), (1, 2, 4, 5))


def hyper_alphas(rng, n):
    return [sv.AlphaSixTuple.from_alpha(row)
            for row in sv.sample_hyperbolic_alpha(n, rng)]


# ---------------------------------------------------------------- lobachevsky

def test_lobachevsky_special_values():
    assert sv.lobachevsky(0.0) == 0.0
    assert sv.lobachevsky(PI) == pytest.approx(0.0, abs=1e-14)
    assert sv.lobachevsky(PI / 2) == pytest.approx(0.0, abs=1e-14)
    assert sv.lobachevsky(PI / 6) == pytest.approx(0.5074708032048268,
                                                  abs=1e-12)


def test_lobachevsky_coefficients_match_zeta():
    from scipy.special import zeta
    from sixjvol.volfun import _LOB_COEFF
    assert len(_LOB_COEFF) == 39
    for n, c in enumerate(_LOB_COEFF, start=1):
        assert c == pytest.approx(float(zeta(2 * n)) / (n * (2 * n + 1)),
                                  rel=1e-14)


def test_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, sixjvol, sixjvol.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_lobachevsky_against_quadrature(rng):
    for t in rng.uniform(-2.0 * PI, 2.0 * PI, size=40):
        assert sv.lobachevsky(float(t)) == pytest.approx(lob_quad(float(t)),
                                                         abs=1e-10)


def test_lobachevsky_symmetries(rng):
    for t in rng.uniform(0.0, PI, size=30):
        t = float(t)
        assert sv.lobachevsky(-t) == pytest.approx(-sv.lobachevsky(t),
                                                   abs=1e-13)
        assert sv.lobachevsky(t + PI) == pytest.approx(sv.lobachevsky(t),
                                                       abs=1e-13)
        # duplication: Lambda(2t)/2 = Lambda(t) + Lambda(t + pi/2)
        lhs = 0.5 * sv.lobachevsky(2.0 * t)
        rhs = sv.lobachevsky(t) + sv.lobachevsky(t + PI / 2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_lobachevsky_maximum_at_pi_over_six(rng):
    peak = sv.lobachevsky(PI / 6)
    for t in rng.uniform(0.0, PI, size=200):
        assert sv.lobachevsky(float(t)) <= peak + 1e-12


def test_dilog_unit_circle(rng):
    # Li2(e^{2it}) on the principal range 0 <= t <= pi: real part
    # pi^2/6 - phi(2 pi - phi)/4 with phi = 2t mod 2 pi, imaginary part
    # the Clausen value 2 Lambda(t)
    for t in rng.uniform(0.0, PI, size=40):
        val = sv.dilog_unit_circle(float(t))
        phi = (2.0 * float(t)) % TWO_PI
        assert val.real == pytest.approx(PI * PI / 6 - phi * (TWO_PI - phi) / 4,
                                         abs=1e-10)
        assert val.imag == pytest.approx(2.0 * sv.lobachevsky(float(t)),
                                         abs=1e-10)
    with pytest.raises(ValueError, match="outside"):
        sv.dilog_unit_circle(-1.8)


# ------------------------------------------------------------ tau, eta, delta

def test_tau_eta_all_pi():
    te = sv.tau_eta(sv.AlphaSixTuple((PI,) * 6, (-1,) * 6))
    assert te.tau == pytest.approx((1.5 * PI,) * 4)
    assert te.eta == pytest.approx((TWO_PI,) * 3)


def test_tau_eta_uses_vertex_triples_and_quads(rng):
    al = sv.AlphaSixTuple.from_alpha(rng.uniform(0.5, 5.5, size=6))
    te = sv.tau_eta(al)
    a = al.alpha
    for got, (i, j, k) in zip(te.tau, VERTEX_TRIPLES_0):
        assert got == pytest.approx((a[i] + a[j] + a[k]) / 2)
    for got, q in zip(te.eta, QUAD_TUPLES_0):
        assert got == pytest.approx(sum(a[i] for i in q) / 2)


def test_delta_vertex_zero_at_origin():
    assert sv.delta_vertex(0.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-14)
    # symmetric in its arguments
    assert sv.delta_vertex(0.3, 0.8, 1.1) == pytest.approx(
        sv.delta_vertex(1.1, 0.3, 0.8), abs=1e-14)


# ------------------------------------------------------- critical point data

def test_critical_xi_all_right_angles():
    # theta = 0^6, branch mu = -1^6: alpha = pi^6
    cd = sv.critical_xi(sv.AlphaSixTuple((PI,) * 6, (-1,) * 6))
    assert not cd.degenerate
    assert cd.xi == pytest.approx(7 * PI / 4, abs=1e-12)
    assert cd.xi_star == pytest.approx(5 * PI / 4, abs=1e-12)
    assert cd.z == pytest.approx(1j, abs=1e-12)
    assert cd.z_star == pytest.approx(-1j, abs=1e-12)


def test_critical_xi_roots_lie_on_unit_circle(rng):
    for al in hyper_alphas(rng, 40):
        cd = sv.critical_xi(al)
        assert abs(cd.z) == pytest.approx(1.0, rel=1e-9)
        assert abs(cd.z_star) == pytest.approx(1.0, rel=1e-9)
        # the quadratic has C = conj(A) and real B, so the two roots
        # satisfy the Vieta relations with those coefficients
        assert cd.C == pytest.approx(cd.A.conjugate(), abs=1e-12)
        assert abs(cd.B.imag if isinstance(cd.B, complex) else 0.0) < 1e-12
        assert cd.z + cd.z_star == pytest.approx(-cd.B / cd.A, abs=1e-9)
        assert cd.z * cd.z_star == pytest.approx(cd.C / cd.A, abs=1e-9)
        assert PI <= cd.xi < TWO_PI
        assert PI <= cd.xi_star < TWO_PI
        assert cmath.exp(-2j * cd.xi) == pytest.approx(cd.z, abs=1e-9)
        assert cd.disc < 0


def test_critical_xi_discriminant_is_sixteen_det_gram(rng):
    for al in hyper_alphas(rng, 30):
        cd = sv.critical_xi(al)
        det = np.linalg.det(sv.gram_from_alpha(al).mat)
        assert cd.disc == pytest.approx(16.0 * det, rel=1e-9)


def test_critical_xi_rejects_spherical():
    al = sv.AlphaSixTuple.from_theta(sv.AngleSixTuple((PI / 2,) * 6),
                                     (-1,) * 6)
    with pytest.raises(ValueError, match="no hyperbolic critical point"):
        sv.critical_xi(al)


def test_critical_xi_flat_family_is_degenerate():
    # alpha with every entry 0 or pi: A = B = 0 and V is xi-independent
    for th in [(PI, 0, 0, 0, 0, PI), (PI, 0, 0, 0, 0, 0), (PI,) * 6]:
        al = sv.AlphaSixTuple.from_theta(sv.AngleSixTuple(th), (-1,) * 6)
        cd = sv.critical_xi(al)
        assert cd.degenerate
        assert cd.xi == pytest.approx(1.5 * PI)
        assert sv.volume(sv.AngleSixTuple(th)) == pytest.approx(0.0,
                                                                abs=1e-10)


def test_critical_root_factors_the_term_ratio(rng):
    # at z_star the product of the four (1 - z u_i u_j u_k) vertex
    # factors equals (1 - z) times the three quadrilateral factors
    for al in hyper_alphas(rng, 60):
        cd = sv.critical_xi(al)
        u = [cmath.exp(1j * x) for x in al.alpha]
        z = cd.z_star
        num = 1.0 - z
        for q in QUAD_TUPLES_0:
            num *= 1.0 - z * u[q[0]] * u[q[1]] * u[q[2]] * u[q[3]]
        den = 1.0
        for i, j, k in VERTEX_TRIPLES_0:
            den *= 1.0 - z * u[i] * u[j] * u[k]
        assert num / den == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------------- volumes

def test_volume_fully_truncated_right_angled():
    got = sv.volume(sv.AngleSixTuple((0.0,) * 6))
    assert got == pytest.approx(8.0 * sv.lobachevsky(PI / 4), abs=1e-12)
    assert got == pytest.approx(3.663862376708876, abs=1e-12)


def test_volume_ideal_regular():
    got = sv.volume(sv.AngleSixTuple((PI / 3,) * 6))
    assert got == pytest.approx(3.0 * sv.lobachevsky(PI / 3), abs=1e-10)
    assert got == pytest.approx(1.0149416064096854, abs=1e-12)


def test_volume_equilateral_hyperideal():
    got = sv.volume(sv.AngleSixTuple((PI / 6,) * 6))
    assert got == pytest.approx(3.2259951354175156, abs=1e-12)


def test_volume_regular_example():
    th = sv.AngleSixTuple((1.2, PI - 1.2, PI - 1.2, 1.2, PI - 1.2, PI - 1.2))
    assert sv.volume(th) == pytest.approx(0.046712861991968446, abs=1e-12)


def test_volume_branch_invariant(rng):
    # any of the 64 sign vectors mu must give the same value; spot-check
    # four of them on random hyperbolic 6-tuples
    mus = [(-1,) * 6, (1,) * 6, (1, -1, 1, -1, 1, -1), (-1, 1, 1, -1, -1, 1)]
    for th in sample_theta31(rng, 25):
        theta = sv.AngleSixTuple(tuple(th))
        base = sv.volume(theta)
        assert math.isfinite(base)
        for mu in mus[1:]:
            assert sv.volume(theta, mu) == pytest.approx(base, abs=1e-9)


def test_volume_by_max_matches_closed_form():
    al = sv.AlphaSixTuple.from_theta(sv.AngleSixTuple((PI / 6,) * 6),
                                     (-1,) * 6)
    mr = sv.volume_by_max(al)
    cd = sv.critical_xi(al)
    assert mr.vol == pytest.approx(3.2259951354175156, abs=1e-9)
    assert mr.xi0 == pytest.approx(cd.xi, abs=1e-9)
    assert cmath.exp(-2j * mr.xi0) == pytest.approx(cd.z, abs=1e-8)


def test_volume_by_max_random_hyperideal(rng):
    checked = 0
    for al in hyper_alphas(rng, 200):
        cof = sv.cofactor_matrix(sv.gram_from_alpha(al).mat)
        if not any(cof[i, i] < -1e-6 for i in range(4)):
            continue
        mr = sv.volume_by_max(al)
        assert mr.vol == pytest.approx(sv.big_V(al, sv.critical_xi(al).xi),
                                       abs=1e-9)
        checked += 1
        if checked >= 20:
            break
    assert checked >= 5


def test_volume_by_max_requires_hyperideal_vertex():
    th = sv.AngleSixTuple((1.2, PI - 1.2, PI - 1.2, 1.2, PI - 1.2, PI - 1.2))
    al = sv.AlphaSixTuple.from_theta(th, (-1,) * 6)
    with pytest.raises(ValueError, match="requires a hyperideal vertex"):
        sv.volume_by_max(al)


# ---------------------------------------------------------------- big U and V

def test_big_u_at_origin_closed_form():
    al = sv.AlphaSixTuple((0.0,) * 6, (-1,) * 6)
    assert sv.big_U(al, 0.0) == pytest.approx(4.0 * PI * PI / 3.0, abs=1e-12)


def test_big_u_imaginary_part_is_twice_v(rng):
    for al in hyper_alphas(rng, 25):
        te = sv.tau_eta(al)
        lo = max(te.tau)
        hi = min(min(te.eta), TWO_PI)
        for t in np.linspace(lo + 1e-6, hi - 1e-6, 5):
            U = sv.big_U(al, float(t))
            V = sv.big_V(al, float(t))
            assert U.imag == pytest.approx(2.0 * V, abs=1e-10)


def test_big_v_vanishes_at_interval_ends_for_ideal_regular():
    # all tau equal and all Lambda arguments multiples of pi at xi = tau
    al = sv.AlphaSixTuple.from_theta(sv.AngleSixTuple((PI / 3,) * 6),
                                     (-1,) * 6)
    cd = sv.critical_xi(al)
    assert sv.big_V(al, cd.xi) == pytest.approx(1.0149416064096854, abs=1e-9)


# ------------------------------------------------------------------ schlafli

def test_schlafli_residual_small_on_stable_samples(rng):
    kept = 0
    while kept < 8:
        th = rng.uniform(0.0, PI, size=6)
        theta = sv.AngleSixTuple(tuple(th))
        G = sv.gram_from_angles(theta)
        if sv.signature(G).as_pair() != (3, 1):
            continue
        cof = sv.cofactor_matrix(G.mat)
        if abs(np.linalg.det(G.mat)) < 0.02 or np.min(np.abs(cof)) < 0.02:
            continue
        try:
            res = sv.schlafli_residual(theta)
        except ValueError:
            continue  # segment-side obstruction or stratum crossing
        kept += 1
        assert max(abs(x) for x in res) < 1e-5


def test_schlafli_residual_error_paths():
    with pytest.raises(ValueError, match="not a generalized hyperbolic"):
        sv.schlafli_residual(sv.AngleSixTuple((PI / 2,) * 6))
    with pytest.raises(ValueError, match="non-ideal vertices"):
        sv.schlafli_residual(sv.AngleSixTuple((PI / 3,) * 6))
    tiny = sv.AngleSixTuple((5e-5, PI / 6, PI / 6, PI / 6, PI / 6, PI / 6))
    with pytest.raises(ValueError, match=r"angle leaves \[0, pi\]"):
        sv.schlafli_residual(tiny, h=1e-4)
