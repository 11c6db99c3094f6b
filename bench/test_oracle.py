"""The benchmark's mpmath reference agrees with the library's small-level
oracle, is stable in its working precision, and rounds colours as the
library does.  Run with `PYTHONPATH=src python -m pytest bench`."""

import math

import numpy as np

import sixjvol as sv

import oracle
from inputs import THETA_E, THETA_PI6


def _random_admissible(rng, r):
    while True:
        colors = tuple(int(c) for c in rng.integers(0, r - 1, size=6))
        if sv.is_admissible_tuple(colors, r):
            return colors


def test_mp_oracle_agrees_with_exact_small():
    rng = np.random.default_rng(20260822)
    imaginary = 0
    for _ in range(60):
        r = int(rng.choice(np.arange(7, 202, 2)))
        colors = _random_admissible(rng, r)
        x = sv.sixj_exact_small(sv.tuple_of(colors, r))
        log_mag, phase = oracle.sixj_mp(colors, r)
        if x == 0:
            assert log_mag == -math.inf
            continue
        assert abs(log_mag - math.log(abs(x))) <= 1e-9
        assert phase == oracle.phase_of_complex(x)
        imaginary += phase % 2
    assert imaginary > 0  # both real and imaginary symbols were covered


def test_mp_oracle_is_stable_in_precision():
    alpha = sv.AlphaSixTuple.from_theta(sv.AngleSixTuple(THETA_E), (-1,) * 6)
    colors = oracle.colors_at(alpha.alpha, 2001)
    low = oracle.sixj_mp(colors, 2001, dps=60)
    high = oracle.sixj_mp(colors, 2001, dps=90)
    assert low[1] == high[1]
    assert abs(low[0] - high[0]) <= 1e-12


def test_mp_oracle_matches_library_where_float64_suffices():
    alpha = sv.AlphaSixTuple.from_theta(sv.AngleSixTuple(THETA_PI6),
                                        (-1,) * 6)
    t = sv.colors_for_r(alpha, 1001)
    got = sv.sixj_log(t)
    log_mag, phase = oracle.sixj_mp(t.colors, 1001)
    assert abs(got.log_mag - log_mag) <= 1e-9 and got.phase == phase


def test_colour_rounding_matches_library():
    for theta in (THETA_PI6, THETA_E):
        alpha = sv.AlphaSixTuple.from_theta(sv.AngleSixTuple(theta),
                                            (-1,) * 6)
        for r in (101, 599, 2001, 10001):
            assert oracle.colors_at(alpha.alpha, r) == \
                sv.colors_for_r(alpha, r).colors


def test_imaginary_and_admissible_agree_with_the_symbol():
    rng = np.random.default_rng(20261017)
    seen = set()
    for _ in range(200):
        r = int(rng.choice(np.arange(7, 202, 2)))
        colors = tuple(2 * int(c) for c in rng.integers(0, (r - 1) // 2,
                                                        size=6))
        ok = oracle.admissible(colors, r)
        assert ok == sv.is_admissible_tuple(colors, r)
        if not ok:
            continue
        log_mag, phase = oracle.sixj_mp(colors, r)
        if log_mag != -math.inf:
            assert oracle.is_imaginary(colors, r) == (phase % 2 == 1)
            seen.add(phase % 2)
    assert seen == {0, 1}
