"""Lobachevsky/dilogarithm building blocks, the critical-point quadratic,
the closed-form volume, the maximization route, and the Schlafli check."""

import cmath
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sixjvol as sv
from conftest import (batch_admissible_alpha, big_U, clear_volume_memos,
                      dilog_unit_circle, lob_coeff_exact, lob_mp, lob_quad,
                      sample_theta31)
from sixjvol.gram import tol_sign
from sixjvol.sixj import QUAD_MOVES, ColorSixTuple, SumBounds

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


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_lobachevsky_refuses_non_finite_angles(theta):
    with pytest.raises(ValueError, match=f"non-finite angle: {theta!r}"):
        sv.lobachevsky(theta)


def _lob_poly_exact(x: Fraction) -> Fraction:
    """The polynomial of `_LOB_POLY` at x, summed without rounding."""
    from sixjvol.volfun import _LOB_POLY
    acc = Fraction(0)
    for c in reversed(_LOB_POLY):
        acc = (acc + Fraction(c)) * x
    return acc


# Dyadic points of [0, 1/4], where x = (t/pi)^2 runs for t in [0, pi/2].
LOB_GRID = [Fraction(k, 2 ** 12) for k in range(2 ** 10 + 1)]


def test_lobachevsky_coefficients_match_zeta():
    # The series sum_n zeta(2n) / (n (2n+1)) x^n with scipy's zeta, an
    # oracle apart from the Bernoulli one, within 2e-17 as well.
    from scipy.special import zeta
    from sixjvol.volfun import _LOB_POLY
    assert len(_LOB_POLY) == 13
    coeff = [Fraction(float(zeta(2 * n)) / (n * (2 * n + 1)))
             for n in range(1, 40)]
    for x in LOB_GRID[::8]:
        series = sum(c * x ** n for n, c in enumerate(coeff, start=1))
        assert abs(_lob_poly_exact(x) - series) <= 2e-17, float(x)


def test_lobachevsky_coefficients_are_the_exact_bernoulli_values():
    # Against the series summed exactly with all 39 Bernoulli
    # coefficients, whose terms beyond the 39th are below 1e-26 here:
    # the linear coefficient is the series' own, bit for bit, and the
    # polynomial stays within 2e-17 of the series on the whole grid,
    # below the 2.8e-17 spacing of doubles near its largest value.
    from sixjvol.volfun import _LOB_POLY
    exact = [Fraction(c) for c in lob_coeff_exact(39)]
    assert _LOB_POLY[0].hex() == float(exact[0]).hex()
    for x in LOB_GRID:
        series = Fraction(0)
        for c in reversed(exact):
            series = (series + c) * x
        assert abs(_lob_poly_exact(x) - series) <= 2e-17, float(x)


def test_lobachevsky_within_5e_16_on_a_quarter_period():
    # Against the series at 30 digits with mpmath's zeta values, on 1000
    # points of (0, pi/2]: the polynomial's error plus every rounding of
    # the float evaluation.
    import mpmath
    with mpmath.workdps(30):
        coeff = [mpmath.zeta(2 * n) / (n * (2 * n + 1))
                 for n in range(60, 0, -1)]
        for k in range(1, 1001):
            t = k * (PI / 2) / 1000
            x = (mpmath.mpf(t) / mpmath.pi) ** 2
            f = 0
            for c in coeff:
                f = (f + c) * x
            want = t - t * mpmath.log(2 * t) + t * f
            assert abs(sv.lobachevsky(t) - want) <= 5e-16, t


def test_the_exact_reduction_uses_floor_of_pi_times_2_to_the_1152():
    import mpmath
    from sixjvol.volfun import _PI_BITS, _PI_SCALED
    assert _PI_BITS == 1152
    with mpmath.workprec(1400):
        assert _PI_SCALED == int(mpmath.floor(mpmath.pi * 2 ** _PI_BITS))


@pytest.mark.parametrize("theta", [3.0, 12.0, 1e3, 1e6, 1e10, 1e16, -1e16,
                                   1e300, 1.7976931348623157e308])
def test_lobachevsky_is_accurate_at_large_angles(theta):
    # Beyond 4 pi the reduction is exact; modulo the float pi the error
    # would grow with |theta|, to 2e-14 at 1e3 and 0.09 at 1e16.
    assert abs(sv.lobachevsky(theta) - lob_mp(theta)) <= 1e-15


def test_import_does_not_load_scipy():
    # None of these is needed to import any module of the package or start
    # the CLI; fractions and decimal would come back with exact coefficient
    # arithmetic at import, logging with an eager logger, dataclasses
    # with a dataclass record.  Submodules load on first use, so the star
    # import binds every public name and thereby imports every submodule.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, sixjvol.cli\n"
            "from sixjvol import *\n"
            "assert {'sixjvol.cli', *(f'sixjvol.{m}' for m in "
            "sixjvol._EXPORTS)} <= set(sys.modules)\n"
            "print(sorted(m for m in "
            "('scipy', 'mpmath', 'fractions', 'decimal', 'logging', "
            "'dataclasses') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# The modules of a fresh process that imports sixjvol and then runs one
# CLI command in-process: the package, then numpy and the sixjvol
# submodules after each step.
_FOOTPRINT = """\
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules
                  if m == "numpy" or m.startswith("sixjvol."))
import sixjvol
steps = [loaded()]
from sixjvol import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0
steps.append(loaded())
print(json.dumps(steps))
"""


@pytest.mark.parametrize("argv", [
    ["sixj", "2", "2", "2", "2", "2", "2", "--r", "11"],
    ["volume"] + ["pi/6"] * 6,
    ["tetra"] + ["pi/6"] * 6,
], ids=lambda argv: argv[0])
def test_each_command_loads_only_the_modules_it_runs(argv):
    # Submodules load on first use: the package import loads none of them
    # and not numpy, and a command loads what it calls and nothing more.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    after_import, after_command = json.loads(proc.stdout)
    assert after_import == []
    if argv[0] == "sixj":
        assert after_command == ["numpy", "sixjvol.cli", "sixjvol.qnum",
                                 "sixjvol.sixj"]
    else:
        assert "sixjvol.graphs" not in after_command
        assert "sixjvol.growth" not in after_command


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
        val = dilog_unit_circle(float(t))
        phi = (2.0 * float(t)) % TWO_PI
        assert val.real == pytest.approx(PI * PI / 6 - phi * (TWO_PI - phi) / 4,
                                         abs=1e-10)
        assert val.imag == pytest.approx(2.0 * sv.lobachevsky(float(t)),
                                         abs=1e-10)
    with pytest.raises(ValueError, match="outside"):
        dilog_unit_circle(-1.8)


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


def test_tau_eta_follows_the_half_sums_of_the_symbol():
    # eta_j sums the edges of reversed(QUAD_MOVES)[j], the order of the
    # quadrilateral sums Q_j of sixj; tau_i those of VERTEX_TRIPLES, T_i.
    assert tuple(reversed(QUAD_MOVES)) == QUAD_TUPLES_0
    r = 101
    t = ColorSixTuple((20, 30, 40, 50, 60, 70), r)
    te = sv.tau_eta(sv.AlphaSixTuple.from_alpha(
        [TWO_PI * a / r for a in t.colors]))
    bounds = SumBounds.of(t)
    assert [x * r / TWO_PI for x in te.tau] == pytest.approx(bounds.T)
    assert [x * r / TWO_PI for x in te.eta] == pytest.approx(bounds.Q)


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


def test_critical_xi_reads_the_sign_of_det_gram_off_the_discriminant():
    # disc = 16 det G, so critical_xi tests tol_sign(disc / 16) rather
    # than building G.  Pinned on 1000 uniform admissible rows and 1000
    # on the pi/6 grid, where det G = 0 and the flat family are common.
    rng = np.random.default_rng(20)
    grid = rng.integers(0, 13, size=(40000, 6)) * (PI / 6)
    grid = grid[batch_admissible_alpha(grid)][:1000]
    assert len(grid) == 1000
    seen = set()
    for row in np.concatenate([sv.sample_admissible_alpha(1000, rng), grid]):
        al = sv.AlphaSixTuple.from_alpha(row)
        det = float(np.linalg.det(sv.gram_from_alpha(al).mat))
        try:
            cd = sv.critical_xi(al)
        except ValueError:
            assert tol_sign(det) >= 0
            seen.add("refused")
            continue
        seen.add("degenerate" if cd.degenerate else "hyperbolic")
        assert cd.degenerate or tol_sign(det) < 0
        assert abs(cd.disc / 16.0 - det) <= 1e-13
    assert seen == {"refused", "degenerate", "hyperbolic"}


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


def _big_v_quad(alpha, xi):
    """V(xi) with every Lambda by quadrature (`lob_quad`)."""
    a = alpha.alpha
    out = lob_quad(TWO_PI - xi)
    for i, j, k in VERTEX_TRIPLES_0:
        x, y, z = a[i], a[j], a[k]
        out += 0.5 * (lob_quad((x + y + z) / 2) - lob_quad((-x + y + z) / 2)
                      - lob_quad((x - y + z) / 2) - lob_quad((x + y - z) / 2))
        out += lob_quad(xi - (x + y + z) / 2)
    for q in QUAD_TUPLES_0:
        out += lob_quad(sum(a[i] for i in q) / 2 - xi)
    return out


def test_both_volume_routes_match_v_of_xi_by_quadrature():
    # End to end: 40 seeded (3,1) rows with a hyperideal vertex, both
    # routes against V(xi) summed from a Lambda that shares no code with
    # the library's kernel.
    rows = sv.sample_hyperbolic_alpha(80, np.random.default_rng(17))
    checked = 0
    for row in rows:
        al = sv.AlphaSixTuple.from_alpha(row)
        cof = sv.cofactor_matrix(sv.gram_from_alpha(al).mat)
        if not any(cof[i, i] < -1e-6 for i in range(4)):
            continue
        want = _big_v_quad(al, sv.critical_xi(al).xi)
        assert sv.volume(al.to_theta(), al.mu) == pytest.approx(want,
                                                                abs=1e-10)
        assert sv.volume_by_max(al).vol == pytest.approx(want, abs=1e-10)
        checked += 1
        if checked == 40:
            break
    assert checked == 40


def _bisection_argmax(al):
    """argmax of V on I by 60 bisections on the sign of s'."""
    te = sv.tau_eta(al)
    lo, hi = max(te.tau), min(min(te.eta), TWO_PI)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        num = abs(math.sin(TWO_PI - mid)) * math.prod(
            abs(math.sin(e - mid)) for e in te.eta)
        den = math.prod(abs(math.sin(mid - t)) for t in te.tau)
        if num >= den:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_volume_by_max_newton_evaluation_count(monkeypatch):
    import sixjvol.volfun as volfun_mod

    evals = []
    products = volfun_mod._sine_products

    def counted(*args):
        evals[-1] += 1
        return products(*args)
    monkeypatch.setattr(volfun_mod, "_sine_products", counted)
    rows = sv.sample_hyperbolic_alpha(400, np.random.default_rng(2027))
    checked = 0
    for row in rows:
        al = sv.AlphaSixTuple.from_alpha(row)
        cof = sv.cofactor_matrix(sv.gram_from_alpha(al).mat)
        if not any(cof[i, i] < -1e-6 for i in range(4)):
            continue
        evals.append(0)
        mr = sv.volume_by_max(al)
        assert mr.xi0 == pytest.approx(_bisection_argmax(al), abs=1e-13)
        assert mr.vol == sv.big_V(al, mr.xi0)
        checked += 1
        if checked == 200:
            break
    assert checked == 200
    assert float(np.median(evals)) <= 8
    assert max(evals) <= 60


def test_volume_by_max_requires_hyperideal_vertex():
    th = sv.AngleSixTuple((1.2, PI - 1.2, PI - 1.2, 1.2, PI - 1.2, PI - 1.2))
    al = sv.AlphaSixTuple.from_theta(th, (-1,) * 6)
    with pytest.raises(ValueError, match="requires a hyperideal vertex"):
        sv.volume_by_max(al)


def test_volume_by_max_refuses_non_admissible_alpha():
    # Gram signature (3,1) with a hyperideal vertex, but the vertex
    # inequalities fail: the maximum of V here is 0.28 while `volume`
    # gives -3.02, so the maximisation route must refuse the row.
    al = sv.AlphaSixTuple.from_alpha((2.7, 6.0, 5.6, 5.2, 2.5, 3.1))
    assert not sv.admissible(al)
    assert sv.signature(sv.gram_from_alpha(al)).as_pair() == (3, 1)
    cof = sv.cofactor_matrix(sv.gram_from_alpha(al).mat)
    assert any(cof[i, i] < -1e-6 for i in range(4))
    with pytest.raises(ValueError, match="requires admissible alpha"):
        sv.volume_by_max(al)


# ------------------------------------------------------- one-entry memos

_VOLUME_MEMOS = ("_critical_of", "_xi_free_of")


def test_a_geometry_row_computes_each_volume_fact_once(monkeypatch,
                                                       empty_volume_memos):
    # theta = pi/6 on every edge: four hyperideal vertices, and to_theta
    # gives back the same angles, so `volume` meets the row's memos.
    # Emptying the memos before each volume step recomputes every fact
    # as the step asks for it: 16 Lambda calls for the vertex deltas and
    # 8 for the xi terms, in both `volume` and `volume_by_max`.
    import sixjvol.volfun as volfun_mod

    a = sv.AlphaSixTuple((5 * PI / 6,) * 6, (-1,) * 6)
    assert sv.AlphaSixTuple.from_theta(a.to_theta(), a.mu).alpha == a.alpha
    calls = []
    lob = volfun_mod.lobachevsky

    def counted(t):
        calls.append(t)
        return lob(t)
    monkeypatch.setattr(volfun_mod, "lobachevsky", counted)

    def row(before_each):
        calls.clear()
        sv.classify(a)
        sv.reconstruct(sv.gram_from_alpha(a))
        out = []
        for step in (lambda: sv.critical_xi(a),
                     lambda: sv.volume(a.to_theta(), a.mu),
                     lambda: sv.volume_by_max(a)):
            before_each()
            out.append(step())
        return len(calls), repr(out)

    recomputed, want = row(clear_volume_memos)
    clear_volume_memos()
    once, got = row(lambda: None)
    assert (recomputed, once) == (48, 32)
    assert got == want
    for name in _VOLUME_MEMOS:
        info = getattr(volfun_mod, name).cache_info()
        assert (info.misses, info.maxsize, info.currsize) == (1, 1, 1), name
        assert info.hits >= 1, name


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except ValueError as exc:
        return f"ValueError({exc})"


def test_volume_memos_return_what_their_functions_compute():
    import sixjvol.volfun as volfun_mod

    rows = sv.sample_hyperbolic_alpha(2000, np.random.default_rng(4))
    for row in rows:
        a = sv.AlphaSixTuple.from_alpha(row)
        for name in _VOLUME_MEMOS:
            memo = getattr(volfun_mod, name)
            want = _outcome(memo.__wrapped__, a._packed)
            for _ in range(2):  # a miss, then a hit
                assert _outcome(memo, a._packed) == want
    # A refused tuple is not remembered: lru_cache keeps no exceptions,
    # so a spherical row raises, and misses, on every call.
    spherical = [sv.AlphaSixTuple.from_alpha(row) for row in
                 sv.sample_admissible_alpha(400, np.random.default_rng(3))]
    spherical = [a for a in spherical
                 if sv.classify(a).tag is sv.GeometryTag.SPHERICAL]
    assert spherical
    for a in spherical:
        before = volfun_mod._critical_of.cache_info().misses
        for _ in range(2):
            with pytest.raises(ValueError,
                               match="no hyperbolic critical point"):
                sv.critical_xi(a)
        assert volfun_mod._critical_of.cache_info().misses == before + 2


# ---------------------------------------------------------------- big U and V

def test_big_u_at_origin_closed_form():
    al = sv.AlphaSixTuple((0.0,) * 6, (-1,) * 6)
    assert big_U(al, 0.0) == pytest.approx(4.0 * PI * PI / 3.0, abs=1e-12)


def test_big_u_imaginary_part_is_twice_v(rng):
    for al in hyper_alphas(rng, 25):
        te = sv.tau_eta(al)
        lo = max(te.tau)
        hi = min(min(te.eta), TWO_PI)
        for t in np.linspace(lo + 1e-6, hi - 1e-6, 5):
            U = big_U(al, float(t))
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
    # 2e-5 from the ideal pi/3 tetrahedron, a step of h = 1e-4 flips the
    # sign of the diagonal cofactors at two vertices.
    for off in (2e-5, -2e-5):
        near_ideal = sv.AngleSixTuple((PI / 3 + off,) * 6)
        with pytest.raises(ValueError, match="step crosses stratum$"):
            sv.schlafli_residual(near_ideal, h=1e-4)
