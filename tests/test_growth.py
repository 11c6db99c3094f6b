"""Growth-rate experiments: color roundings, scaled log-magnitude series,
extrapolation fits, and the sharper magnitude prediction."""

import math
import warnings

import pytest

import sixjvol as sv

PI = math.pi

THETA_E = (1.2, PI - 1.2, PI - 1.2, 1.2, PI - 1.2, PI - 1.2)


def alpha_of(theta, mu=(-1,) * 6):
    return sv.AlphaSixTuple.from_theta(sv.AngleSixTuple(theta), mu)


# --------------------------------------------------------------- colors_for_r

def test_colors_for_r_equilateral():
    al = alpha_of((PI / 6,) * 6)
    assert sv.colors_for_r(al, 101).colors == (42,) * 6
    assert sv.colors_for_r(al, 7).colors == (2,) * 6


def test_colors_for_r_clamps_to_top_even_color():
    # alpha_1 near 2 pi would round past the color range; it is clamped
    # to r - 3, the largest even admissible value
    al = sv.AlphaSixTuple.from_alpha((6.2, PI, PI, PI, PI, PI))
    assert sv.colors_for_r(al, 101).colors == (98, 50, 50, 50, 50, 50)


def test_colors_for_r_reports_inadmissible_rounding():
    al = sv.AlphaSixTuple.from_alpha((6.2,) * 6)
    with pytest.raises(ValueError,
                       match=r"no admissible rounding at this level: r=101"):
        sv.colors_for_r(al, 101)


def test_colors_for_r_rejects_bad_level():
    al = alpha_of((PI / 6,) * 6)
    for r in (8, 4, -3):
        with pytest.raises(ValueError, match="odd integer"):
            sv.colors_for_r(al, r)


def test_colors_for_r_all_even_and_convergent(rng):
    # margin 0.05 keeps the rounded tuple admissible: rounding moves each
    # alpha by at most pi/r, so triple sums shift by well under the margin
    rows = sv.sample_admissible_alpha(20, rng, strict=True, margin=0.05)
    for row in rows:
        al = sv.AlphaSixTuple.from_alpha(row)
        t = sv.colors_for_r(al, 1001)
        assert all(c % 2 == 0 for c in t.colors)
        for c, a in zip(t.colors, al.alpha):
            assert abs(2 * PI * c / 1001 - a) <= 2.5 * PI / 1001


# ----------------------------------------------------------------- the series

def test_growth_plan_validation():
    al = alpha_of((PI / 6,) * 6)
    with pytest.raises(ValueError, match="odd integers"):
        sv.GrowthPlan(al, (6, 7))
    with pytest.raises(ValueError, match="strictly increasing"):
        sv.GrowthPlan(al, (9, 7))


def test_growth_series_skips_bad_levels_with_warning():
    # the clamped rounding is admissible only at some levels; the bad
    # ones are dropped with a LevelSkipped warning, not raised
    al = sv.AlphaSixTuple.from_alpha((6.2, PI, PI, PI, PI, PI))
    plan = sv.GrowthPlan(al, (7, 101, 103, 105, 107, 109))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = sv.growth_series(plan)
    skipped = [w for w in caught if issubclass(w.category, sv.LevelSkipped)]
    assert len(skipped) == 3
    assert [s.r for s in out] == [101, 105, 109]


def test_growth_series_example_scaled_values():
    plan = sv.GrowthPlan(alpha_of(THETA_E), tuple(range(101, 502, 100)))
    out = sv.growth_series(plan)
    assert [s.r for s in out] == [101, 201, 301, 401, 501]
    expect = [-0.24721, -0.20742, -0.15503, -0.15098, -0.10904]
    for s, e in zip(out, expect):
        assert s.scaled == pytest.approx(e, abs=5e-6)
        assert s.sign == 1
        assert s.scaled == pytest.approx(2 * PI * s.log_abs / s.r, rel=1e-12)


def test_growth_series_deterministic_across_calls():
    plan = sv.GrowthPlan(alpha_of((PI / 6,) * 6), tuple(range(101, 302, 50)))
    a = sv.growth_series(plan)
    b = sv.growth_series(plan)
    assert a == b


# -------------------------------------------------------------------- fitting

def test_fit_growth_needs_five_samples():
    plan = sv.GrowthPlan(alpha_of((PI / 6,) * 6), (101, 103, 105))
    with pytest.raises(ValueError, match="at least 5 finite samples"):
        sv.fit_growth(sv.growth_series(plan))


def test_fit_growth_converges_to_volume():
    al = alpha_of((PI / 6,) * 6)
    vol = sv.volume(sv.AngleSixTuple((PI / 6,) * 6))
    f1 = sv.fit_growth(sv.growth_series(
        sv.GrowthPlan(al, tuple(range(101, 502, 100)))))
    f2 = sv.fit_growth(sv.growth_series(
        sv.GrowthPlan(al, tuple(range(101, 1002, 100)))))
    assert f1.residual_rms == pytest.approx(0.0114746, abs=1e-6)
    assert f2.residual_rms == pytest.approx(0.0109173, abs=1e-6)
    assert f2.residual_rms < f1.residual_rms
    assert abs(f2.c0 - vol) < 0.05
    assert abs(f2.c0 - vol) < abs(f1.c0 - vol)


def test_fit_growth_recovers_exact_model(rng):
    # synthesize scaled values exactly on the model surface
    rs = (101, 201, 301, 401, 501, 601)
    c0, c1, c2 = 2.5, -1.25, 0.75
    samples = [sv.GrowthSample(r, 0.0, c0 + c1 * math.log(r) / r + c2 / r, 1)
               for r in rs]
    fit = sv.fit_growth(samples)
    assert fit.c0 == pytest.approx(c0, abs=1e-9)
    assert fit.c1 == pytest.approx(c1, abs=1e-7)
    assert fit.c2 == pytest.approx(c2, abs=1e-7)
    assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------- the sharper prediction

def test_asymp2_ratio_drifts_toward_one():
    th = sv.AngleSixTuple((PI / 6,) * 6)
    al = alpha_of((PI / 6,) * 6)
    ratios = {}
    for r in (501, 1001):
        actual = sv.sixj_log(sv.colors_for_r(al, r)).log_mag
        ratios[r] = math.exp(actual - sv.asymp2_log_prediction(th, (-1,) * 6, r))
    assert ratios[501] == pytest.approx(0.97077, abs=5e-5)
    assert ratios[1001] == pytest.approx(0.98564, abs=5e-5)
    assert abs(ratios[1001] - 1) < abs(ratios[501] - 1)


def test_asymp2_prediction_overflow_goes_to_inf():
    th = sv.AngleSixTuple((PI / 6,) * 6)
    lp = sv.asymp2_log_prediction(th, (-1,) * 6, 2001)
    assert lp == pytest.approx(1019.115, abs=1e-2)
    assert sv.asymp2_prediction(th, (-1,) * 6, 2001) == math.inf
    assert sv.asymp2_prediction(th, (-1,) * 6, 101) > 0


def test_asymp2_requires_hyperbolic_and_hyperideal():
    with pytest.raises(ValueError, match="no hyperbolic geometry at level"):
        sv.asymp2_log_prediction(sv.AngleSixTuple((PI / 2,) * 6), (-1,) * 6,
                                 101)
    with pytest.raises(ValueError, match="no hyperideal vertex at level"):
        sv.asymp2_log_prediction(sv.AngleSixTuple(THETA_E), (-1,) * 6, 101)
