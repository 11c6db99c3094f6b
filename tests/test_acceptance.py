"""Thirteen go/no-go checks for the whole library, one printed
[PASS]/[FAIL] line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Check 13 is experimental and reports without gating."""

import cmath
import math
import warnings

import numpy as np
import pytest

import sixjvol as sv
from conftest import (batch_admissible_alpha, batch_cofactors, batch_grams,
                      batch_signatures, lob_quad, sample_admissible_alpha_np,
                      sample_theta31)

PI = math.pi
THETA_E = (1.2, PI - 1.2, PI - 1.2, 1.2, PI - 1.2, PI - 1.2)


def report(num, ok, detail, gating=True):
    tag = "PASS" if ok else "FAIL"
    suffix = "" if gating else " (non-gating)"
    print(f"[{tag}] criterion {num}{suffix}: {detail}")
    if gating:
        assert ok, f"criterion {num}: {detail}"


def test_criterion_01_symmetric_critical_point():
    cd = sv.critical_xi(sv.AlphaSixTuple((PI,) * 6, (-1,) * 6))
    err = max(abs(cd.xi - 7 * PI / 4), abs(cd.xi_star - 5 * PI / 4))
    report(1, err <= 1e-12,
           f"critical_xi(pi^6): xi={cd.xi:.15f}, xi*={cd.xi_star:.15f}, "
           f"max err {err:.2e} (tol 1e-12)")


def test_criterion_02_flat_volumes():
    v1 = sv.volume(sv.AngleSixTuple((PI, 0, 0, PI, 0, 0)))
    v2 = sv.volume(sv.AngleSixTuple((PI, PI, PI, 0, 0, 0)))
    worst = max(abs(v1), abs(v2))
    report(2, worst <= 1e-10,
           f"flat volumes {v1:.2e}, {v2:.2e} (tol 1e-10)")


def test_criterion_03_discriminant_identity():
    rng = np.random.default_rng(3003)
    worst = 0.0
    for th in sample_theta31(rng, 10_000):
        al = sv.AlphaSixTuple.from_theta(sv.AngleSixTuple(tuple(th)),
                                         (-1,) * 6)
        cd = sv.critical_xi(al)
        det16 = 16.0 * float(np.linalg.det(sv.gram_from_alpha(al).mat))
        worst = max(worst, abs(cd.disc - det16) / abs(det16))
    report(3, worst <= 1e-9,
           f"|B^2-4AC - 16 det G| on 10^4 (3,1) tuples: worst rel "
           f"{worst:.2e} (tol 1e-9)")


def test_criterion_04_classification_law():
    rng = np.random.default_rng(3004)
    al = sample_admissible_alpha_np(rng, 100_000)
    grams = batch_grams(np.abs(PI - al))
    sig = batch_signatures(grams)
    pairs = {(int(p[0]), int(p[1])) for p in sig}
    allowed = {(4, 0), (3, 0), (3, 1), (2, 0), (1, 0)}
    ok_all = pairs <= allowed

    strict = batch_admissible_alpha(al, strict=True)
    strict_pairs = {(int(p[0]), int(p[1])) for p in sig[strict]}
    ok_strict = strict_pairs <= {(4, 0), (3, 0), (3, 1)}

    diag = np.diagonal(batch_cofactors(grams), axis1=1, axis2=2)
    has_neg = (diag < -1e-9).any(axis=1)
    neg_pairs = {(int(p[0]), int(p[1])) for p in sig[has_neg]}
    ok_neg = neg_pairs <= {(3, 1)}

    report(4, ok_all and ok_strict and ok_neg,
           f"10^5 admissible: signatures {sorted(pairs)}; strict "
           f"{sorted(strict_pairs)}; negative-diagonal-cofactor rows "
           f"({int(has_neg.sum())}) all (3,1): {ok_neg}")


def test_criterion_05_octahedral_volume():
    got = sv.volume(sv.AngleSixTuple((0.0,) * 6))
    want = 8.0 * lob_quad(PI / 4)
    report(5, abs(got - want) <= 1e-9,
           f"volume(0^6) = {got:.15f} vs 8*quadrature(pi/4) = {want:.15f} "
           f"(diff {abs(got - want):.2e}, tol 1e-9)")


def test_criterion_06_maximization_agreement():
    rng = np.random.default_rng(3006)
    checked = 0
    worst_vol = 0.0
    worst_root = 0.0
    while checked < 1000:
        rows = sample_admissible_alpha_np(rng, 4000)
        diag = np.diagonal(batch_cofactors(batch_grams(np.abs(PI - rows))),
                           axis1=1, axis2=2)
        for row in rows[(diag < -1e-6).any(axis=1)]:
            al = sv.AlphaSixTuple.from_alpha(row)
            vol = sv.volume(al.to_theta(), al.mu)
            mr = sv.volume_by_max(al)
            worst_vol = max(worst_vol, abs(vol - mr.vol))
            z = sv.critical_xi(al).z
            worst_root = max(worst_root,
                             abs(cmath.exp(-2j * mr.xi0) - z))
            checked += 1
            if checked >= 1000:
                break
    report(6, worst_vol <= 1e-9 and worst_root <= 1e-6,
           f"10^3 hyperideal tuples: max |volume - max V| {worst_vol:.2e} "
           f"(tol 1e-9); argmax vs +sqrt root {worst_root:.2e}")


def test_criterion_07_branch_invariance():
    rng = np.random.default_rng(3007)
    mus = [tuple(1 if (m >> k) & 1 else -1 for k in range(6))
           for m in range(64)]
    worst = 0.0
    for th in sample_theta31(rng, 100):
        theta = sv.AngleSixTuple(tuple(th))
        vols = [sv.volume(theta, mu) for mu in mus]
        worst = max(worst, max(vols) - min(vols))
    report(7, worst <= 1e-9,
           f"100 tuples x 64 branches: max volume spread {worst:.2e} "
           f"(tol 1e-9)")


def test_criterion_08_schlafli_residuals():
    rng = np.random.default_rng(3008)
    kept = 0
    worst = 0.0
    while kept < 100:
        th = rng.uniform(1e-3, PI - 1e-3, size=6)
        G = sv.gram_from_angles(sv.AngleSixTuple(tuple(th)))
        if sv.signature(G).as_pair() != (3, 1):
            continue
        cof = sv.cofactor_matrix(G.mat)
        if abs(np.linalg.det(G.mat)) <= 0.02 or np.min(np.abs(cof)) <= 0.02:
            continue
        hyper = [i for i in range(4) if cof[i, i] < 0]
        shallow = False
        for a in range(len(hyper)):
            for b in range(a + 1, len(hyper)):
                i, j = hyper[a], hyper[b]
                ratio = abs(cof[i, j]) / math.sqrt(cof[i, i] * cof[j, j])
                if ratio <= 1.02:
                    shallow = True
        if shallow:
            continue
        res = sv.schlafli_residual(sv.AngleSixTuple(tuple(th)), h=1e-4)
        worst = max(worst, max(abs(x) for x in res))
        kept += 1
    report(8, worst <= 1e-5,
           f"100 non-ideal (3,1) tuples: max |dV/dtheta + l/2| "
           f"{worst:.2e} (tol 1e-5)")


def _admissible_color_rows(c, r):
    """Mask of the r-admissible rows of an (n, 6) array of colors that
    already lie in [0, r-2]."""
    ok = np.ones(c.shape[0], dtype=bool)
    for i, j, k in sv.VERTEX_TRIPLES:
        s = c[:, i] + c[:, j] + c[:, k]
        ok &= (s % 2 == 0) & (s <= 2 * (r - 2))
        ok &= (s >= 2 * c[:, i]) & (s >= 2 * c[:, j]) & (s >= 2 * c[:, k])
    return ok


def _random_admissible_colors(rng, r, pool):
    """A uniform r-admissible 6-tuple by rejection: uniform candidates are
    drawn 4096 at a time and filtered, and the accepted rows are handed
    out in draw order; pool[r] keeps the rows not yet used."""
    rows = pool.setdefault(r, [])
    while not rows:
        cand = rng.integers(0, r - 1, size=(4096, 6))
        rows.extend(reversed(cand[_admissible_color_rows(cand, r)].tolist()))
    colors = tuple(rows.pop())
    assert sv.is_admissible_tuple(colors, r)
    return colors


def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng(3009)
    levels = [int(r) for r in range(7, 102, 2)]
    for r in (7, 101):  # the block filter is the library's admissibility
        cand = rng.integers(0, r - 1, size=(2000, 6))
        assert (_admissible_color_rows(cand, r).tolist()
                == [sv.is_admissible_tuple(c, r) for c in cand.tolist()])
    pool = {}
    worst = 0.0
    imaginary = 0
    move_worst = 0.0
    for n in range(10_000):
        r = levels[int(rng.integers(0, len(levels)))]
        t = sv.tuple_of(_random_admissible_colors(rng, r, pool),
                        sv.OddLevel(r))
        ref = sv.sixj_exact_small(t)
        val = sv.sixj_log(t)  # real or purely imaginary, never refused
        imaginary += val.phase % 2
        scale = max(abs(ref), 1e-300)
        worst = max(worst, abs(val.value() - ref) / scale)
        if n % 100 == 0:
            base = val.log_mag
            moved = [sv.change_colors_face(t, f) for f in (1, 2, 3, 4)]
            moved += [sv.change_colors_quad(t, q) for q in (1, 2, 3)]
            for t2 in moved:
                other = sv.sixj_log(t2).log_mag
                if math.isinf(base) or math.isinf(other):
                    assert base == other
                else:
                    move_worst = max(move_worst, abs(other - base))
    report(9, worst <= 1e-9 and move_worst <= 1e-9 and imaginary > 0,
           f"10^4 tuples at r<=101: worst rel diff {worst:.2e} (tol 1e-9), "
           f"{imaginary} of them imaginary, "
           f"move invariance worst {move_worst:.2e}")


def test_criterion_10_growth_rate_reproduction():
    levels = tuple(range(101, 2002, 2))
    al = sv.AlphaSixTuple.from_theta(sv.AngleSixTuple((PI / 6,) * 6),
                                     (-1,) * 6)
    fit_a = sv.fit_growth(sv.growth_series(sv.GrowthPlan(al, levels)))
    vol_a = sv.volume(sv.AngleSixTuple((PI / 6,) * 6))
    gap_a = abs(fit_a.c0 - vol_a)

    al_e = sv.AlphaSixTuple.from_theta(sv.AngleSixTuple(THETA_E), (-1,) * 6)
    fit_e = sv.fit_growth(sv.growth_series(sv.GrowthPlan(al_e, levels)))
    cd = sv.critical_xi(al_e)
    v_star = sv.big_V(al_e, cd.xi_star)
    vol_e = sv.volume(sv.AngleSixTuple(THETA_E))
    gap_e = abs(fit_e.c0 - v_star)
    sign_ok = abs(v_star + vol_e) <= 1e-9  # V(xi*) = -Vol here

    report(10, gap_a <= 1e-2 and gap_e <= 1e-2 and sign_ok,
           f"pi/6 tuple: c0={fit_a.c0:.6f} vs Vol={vol_a:.6f} "
           f"(gap {gap_a:.2e}); negative-cofactor branch: c0={fit_e.c0:.6f} "
           f"vs V(xi*)={v_star:.6f} (gap {gap_e:.2e}, tol 1e-2)")


def test_criterion_11_negative_growth_with_positive_volume():
    vol = sv.volume(sv.AngleSixTuple(THETA_E))
    al = sv.AlphaSixTuple.from_theta(sv.AngleSixTuple(THETA_E), (-1,) * 6)
    plan = sv.GrowthPlan(al, tuple(range(501, 2002, 2)))
    samples = sv.growth_series(plan)
    n_neg = sum(1 for s in samples if s.scaled < 0)
    ok = vol > 0 and n_neg == len(samples) and len(samples) > 0
    report(11, ok,
           f"Vol = {vol:.6f} > 0 while scaled logs at r in [501, 2001] are "
           f"negative for {n_neg}/{len(samples)} levels")


def test_criterion_12_prism_conjecture():
    spec = sv.PrismSpec((PI / 6,) * 3, (PI / 6,) * 3, (PI / 6,) * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sv.LevelSkipped)
        chk = sv.prism_conjecture_check(spec, tuple(range(101, 2002, 2)))
    report(12, chk.gap <= 1e-2,
           f"prism (pi/6 verticals): c0={chk.fit.c0:.6f} vs "
           f"Vol(T1)+Vol(T2)={chk.vol:.6f}, gap {chk.gap:.2e} (tol 1e-2)")


def test_criterion_13_asymp2_trend():
    th = sv.AngleSixTuple((PI / 6,) * 6)
    al = sv.AlphaSixTuple.from_theta(th, (-1,) * 6)
    ratios = {}
    for r in (501, 1001, 2001):
        actual = sv.sixj_log(sv.colors_for_r(al, r)).log_mag
        pred = sv.asymp2_log_prediction(th, (-1,) * 6, r)
        ratios[r] = math.exp(actual - pred)
    in_range = 0.5 <= ratios[2001] <= 2.0
    trend = abs(ratios[2001] - 1) < abs(ratios[1001] - 1) < abs(ratios[501] - 1)
    report(13, in_range and trend,
           f"|6j|/prediction ratios {ratios[501]:.4f} @501, "
           f"{ratios[1001]:.4f} @1001, {ratios[2001]:.4f} @2001 "
           f"(window [0.5, 2], trending to 1: {trend})",
           gating=False)
