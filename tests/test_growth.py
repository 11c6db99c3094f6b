"""Growth-rate experiments: color roundings, scaled log-magnitude series,
extrapolation fits, and the sharper magnitude prediction."""

import logging
import math
import warnings
from fractions import Fraction

import numpy as np
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
    rows = sv.sample_admissible_alpha(20, rng, margin=0.05)
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


def test_non_integral_levels_are_refused_not_truncated():
    al = alpha_of((PI / 6,) * 6)
    with pytest.raises(ValueError, match="levels must be integers"):
        sv.GrowthPlan(al, (101.9, 103.2, 105.7))
    sym = sv.PrismSpec((PI / 6,) * 3, (PI / 6,) * 3, (PI / 6,) * 3)
    with pytest.raises(ValueError, match="levels must be integers"):
        sv.prism_conjecture_check(sym, [101.9, 103.5, 105, 107, 109])
    # numpy integers and integral floats stay accepted, stored as ints
    for levels in (np.arange(101, 110, 2), (101.0, 103.0, 105, 107, 109)):
        plan = sv.GrowthPlan(al, levels)
        assert plan.r_list == (101, 103, 105, 107, 109)
        assert all(type(r) is int for r in plan.r_list)
    chk = sv.prism_conjecture_check(sym, np.arange(101, 502, 100))
    assert [s.r for s in chk.samples] == [101, 201, 301, 401, 501]


@pytest.mark.parametrize("levels, reason", [
    ((101, 101, 103, 105, 107, 109), "strictly increasing"),
    ((100, 101, 103, 105, 107, 109), "odd integers"),
    ((109, 107, 105, 103, 101), "strictly increasing"),
    ((3, 101, 103, 105, 107, 109), "odd integers"),
])
def test_growth_plans_and_prism_checks_refuse_the_same_level_lists(
        levels, reason):
    al = alpha_of((PI / 6,) * 6)
    sym = sv.PrismSpec((PI / 6,) * 3, (PI / 6,) * 3, (PI / 6,) * 3)
    with pytest.raises(ValueError, match=reason):
        sv.GrowthPlan(al, levels)
    with pytest.raises(ValueError, match=reason):
        sv.prism_conjecture_check(sym, levels)


@pytest.mark.parametrize("level", [101, 101.0, np.int64(101),
                                   np.float64(101.0), 101.9, "101",
                                   Fraction(101), float("nan"), None])
def test_growth_plans_and_color_tuples_accept_the_same_levels(level):
    # one integral-level test serves both: a growth plan refuses with
    # ValueError exactly the levels a color tuple refuses with TypeError
    al = alpha_of((PI / 6,) * 6)
    try:
        lv = sv.ColorSixTuple((42,) * 6, level).level.r
    except TypeError:
        with pytest.raises(ValueError, match="levels must be integers"):
            sv.GrowthPlan(al, (level, 103, 105))
    else:
        assert sv.GrowthPlan(al, (level, 103, 105)).r_list[0] == lv == 101


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


def test_growth_series_logs_skipped_levels(caplog):
    al = sv.AlphaSixTuple.from_alpha((6.2, PI, PI, PI, PI, PI))
    plan = sv.GrowthPlan(al, (7, 101, 103, 105, 107, 109))
    caplog.set_level(logging.DEBUG, logger="sixjvol")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sv.growth_series(plan)
    events = [rec for rec in caplog.records if rec.name == "sixjvol"]
    assert [rec.levelno for rec in events] == [logging.DEBUG] * 3
    assert [rec.args[0] for rec in events] == [7, 103, 107]
    # the warnings stay, one per logged level, with the same reason
    skipped = [str(w.message) for w in caught
               if issubclass(w.category, sv.LevelSkipped)]
    assert [rec.getMessage() for rec in events] == skipped
    assert all("no admissible rounding" in str(rec.args[1]) for rec in events)


def test_growth_series_propagates_defects_instead_of_skipping(monkeypatch):
    # Only domain errors (ValueError, ArithmeticError) skip a level; any
    # other exception is a defect in the library and must propagate.
    def broken_sixj_log(t):
        raise TypeError("not a domain error")

    monkeypatch.setattr("sixjvol.growth.sixj_log", broken_sixj_log)
    plan = sv.GrowthPlan(alpha_of((PI / 6,) * 6), (101, 103, 105))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TypeError, match="not a domain error"):
            sv.growth_series(plan)
    assert not [w for w in caught if issubclass(w.category, sv.LevelSkipped)]


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


def reference_scan(r_list, symbol):
    """The level scan written out one level at a time: symbol(r) is the
    level's value, and a level whose evaluation raises is skipped."""
    samples, skipped = [], []
    for r in r_list:
        try:
            val = symbol(r)
        except (ValueError, ArithmeticError) as exc:
            skipped.append(f"level r={r} skipped: {exc}")
            continue
        if val.is_zero:
            samples.append(sv.GrowthSample(r, -math.inf, -math.inf, 0))
        else:
            samples.append(sv.GrowthSample(r, val.log_mag,
                                           2 * PI * val.log_mag / r,
                                           val.real_sign()))
    return samples, skipped


def counted_scan(run):
    """run()'s result, its LevelSkipped messages, and how many table
    lookups (cache hits plus misses) it made."""
    before = sv.table_cache_info()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run()
    after = sv.table_cache_info()
    skipped = [str(w.message) for w in caught
               if issubclass(w.category, sv.LevelSkipped)]
    lookups = after.hits + after.misses - before.hits - before.misses
    return out, skipped, lookups


def test_scans_match_a_per_level_loop_and_read_one_table_per_symbol(
        monkeypatch):
    levels = tuple(range(7, 40, 2)) + tuple(range(101, 302, 6))
    rows = [sv.AlphaSixTuple.from_alpha(row) for row in
            sv.sample_admissible_alpha(6, np.random.default_rng(8),
                                       margin=0.05)]
    rows += [sv.AlphaSixTuple.from_alpha((6.2, PI, PI, PI, PI, PI)),
             alpha_of(THETA_E)]
    reasons, n_symbols = [], 0
    for alpha in rows:
        calls = []

        def symbol(r):
            t = sv.colors_for_r(alpha, r)
            calls.append(r)
            return sv.sixj_log(t)

        want = reference_scan(levels, symbol)
        got, skipped, lookups = counted_scan(
            lambda: sv.growth_series(sv.GrowthPlan(alpha, levels)))
        assert (got, skipped) == want
        assert lookups == len(calls)
        reasons += skipped
        n_symbols += len(calls)

    prisms = [sv.PrismSpec((PI / 6,) * 3, (PI / 6,) * 3, (PI / 6,) * 3),
              sv.PrismSpec((0.24, 0.94, 0.63), (1.87, 1.91, 0.77),
                           (1.21, 0.67, 0.5))]  # unequal bases, skips
    graph = sv.prism_graph()
    for p in prisms:
        calls = []

        def counting_sixj_log(t, _inner=sv.sixj_log):
            calls.append(t)
            return _inner(t)

        with monkeypatch.context() as m:
            m.setattr("sixjvol.graphs.sixj_log", counting_sixj_log)
            want = reference_scan(levels, lambda r: sv.bracket_blowup(
                graph, sv.prism_colors_for_r(p, r), r))
        check, skipped, lookups = counted_scan(
            lambda: sv.prism_conjecture_check(p, levels))
        assert (list(check.samples), skipped) == want
        assert lookups == len(calls)
        reasons += skipped
        n_symbols += len(calls)
    # the rows really skip levels, for each reason a level can fail
    for reason in ("no admissible rounding", "phase parity broken",
                   "inadmissible coloring"):
        assert sum(reason in msg for msg in reasons) >= 3, reason
    assert n_symbols > 300


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


def test_asymp2_log_prediction_finite_past_double_range():
    # e^709 is about the largest double: the magnitude itself would
    # overflow at r = 2001, its log stays finite.
    th = sv.AngleSixTuple((PI / 6,) * 6)
    lp = sv.asymp2_log_prediction(th, (-1,) * 6, 2001)
    assert math.isfinite(lp) and lp > 709.0
    assert lp == pytest.approx(1019.115, abs=1e-2)
    assert math.isfinite(sv.asymp2_log_prediction(th, (-1,) * 6, 101))


def test_asymp2_requires_hyperbolic_and_hyperideal():
    with pytest.raises(ValueError, match="no hyperbolic geometry at level"):
        sv.asymp2_log_prediction(sv.AngleSixTuple((PI / 2,) * 6), (-1,) * 6,
                                 101)
    with pytest.raises(ValueError, match="no hyperideal vertex at level"):
        sv.asymp2_log_prediction(sv.AngleSixTuple(THETA_E), (-1,) * 6, 101)
    # Colours (10, 42, 52, 32, 32, 32) at r = 101: a_1 + a_2 = a_3 makes
    # the rounded vertex (1,2,3) exactly Euclidean, i.e. ideal.
    th = sv.AngleSixTuple((2.5194950984234974, 0.5287829218913513,
                           0.09331463327494482) + (1.150880477057647,) * 3)
    mu = (-1, -1, 1, -1, -1, -1)
    assert sv.colors_for_r(sv.AlphaSixTuple.from_theta(th, mu), 101).colors \
        == (10, 42, 52, 32, 32, 32)
    with pytest.raises(ValueError, match="prediction undefined at ideal vertex"):
        sv.asymp2_log_prediction(th, mu, 101)
