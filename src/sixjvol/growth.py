"""Growth-rate experiments: 6j-symbols along color sequences vs volume.

For prescribed limit angles alpha, the color sequence a_k^(r) = even
integer nearest r*alpha_k/(2*pi) realizes alpha_k = lim 2*pi*a_k/r while
keeping every vertex sum even for free.  The scaled logs

    (2*pi/r) * ln|6j(a^(r))|

converge to the volume of the limiting generalized hyperbolic
tetrahedron (when one exists with a hyperideal vertex); convergence is
O(log r / r), so the extrapolation model fitted here is

    scaled(r) ~ c0 + c1 * log(r)/r + c2 / r,

whose c0 estimates the growth rate.  The finer prediction of the full
magnitude, sqrt(2)*pi/r^{3/2} * e^{-1/2 sum mu_k l_k} / (-det G)^{1/4}
* e^{(r/2pi) Vol}, is evaluated in log space (it overflows doubles from
r ~ 1500 at octahedral volumes).
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .gram import (AlphaSixTuple, AngleSixTuple, cofactor_matrix,
                   gram_from_angles, signature, tol_sign)
from .qnum import TWO_PI, _integral_level, _ValueRecord
from .sixj import ColorSixTuple, sixj_log
from .tetra import edge_length_tuple
from .volfun import volume


class LevelSkipped(UserWarning):
    """A growth level failed (inadmissible rounding, domain error) and
    was dropped from the series."""


def _int_levels(r_list) -> tuple[int, ...]:
    """The levels as ints, odd, >= 5 and strictly increasing, or
    ValueError; a level `qnum._integral_level` refuses is not truncated."""
    levels = []
    for x in r_list:
        r = _integral_level(x)
        if r is None:
            raise ValueError(f"levels must be integers, got {x!r}")
        levels.append(r)
    if any(r < 5 or r % 2 == 0 for r in levels):
        raise ValueError("levels must be odd integers >= 5")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    return tuple(levels)


class GrowthPlan(_ValueRecord):
    """Limit angles and the levels at which to evaluate them, as
    `_int_levels` requires them; an immutable record."""

    __slots__ = ("alpha", "r_list")

    def __init__(self, alpha: AlphaSixTuple, r_list) -> None:
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "r_list", _int_levels(r_list))


class GrowthSample(NamedTuple):
    r: int
    log_abs: float            # ln|6j|; -inf for an exactly zero symbol
    scaled: float             # (2*pi/r) * log_abs
    sign: int                 # {+1, -1, 0}


class GrowthFit(NamedTuple):
    c0: float
    c1: float
    c2: float
    residual_rms: float


def even_colors(angles, r: int) -> tuple[int, ...]:
    """Even rounding of r*a/(2*pi) for each limit angle a: the nearest
    even integer, ties broken downward, clamped to the even colors of
    level r."""
    if r < 5 or r % 2 == 0:
        raise ValueError("level must be an odd integer >= 5")
    top = r - 3  # largest even value in the color range [0, r-2]
    out = []
    for a in angles:
        x = r * a / TWO_PI
        lo = 2 * math.floor(x / 2.0)
        c = lo if x - lo <= lo + 2 - x else lo + 2
        out.append(0 if c < 0 else (top if c > top else c))
    return tuple(out)


def colors_for_r(alpha: AlphaSixTuple, r: int) -> ColorSixTuple:
    """The even rounding of r*alpha/(2*pi), verified r-admissible.

    All-even colors make every vertex sum even automatically; the
    triangle-type inequalities can still break near the admissibility
    boundary at small r, which is reported rather than repaired.
    """
    colors = even_colors(alpha.alpha, r)
    try:
        return ColorSixTuple(colors, r)
    except ValueError as exc:
        raise ValueError(f"no admissible rounding at this level: r={r}, "
                         f"colors={colors}") from exc


def scan_levels(r_list, evaluate) -> list[GrowthSample]:
    """Growth samples of evaluate(r) -> QuarterPhaseLog, ordered by r.

    A level whose evaluation or `real_sign` raises ValueError or
    ArithmeticError (an inadmissible rounding, an imaginary symbol) is
    skipped with a LevelSkipped warning attributed to the scan's caller,
    and a debug event on the "sixjvol" logger whose arguments are r and
    the reason.  Any other exception is a defect and propagates.
    """
    out: list[GrowthSample] = []
    for r in r_list:
        try:
            value = evaluate(r)
            log_mag = value.log_mag
            out.append(GrowthSample(r, log_mag, TWO_PI * log_mag / r,
                                    value.real_sign()))
        except (ValueError, ArithmeticError) as exc:
            # imported here: logging adds ~5 ms to every process start
            # and is needed only once a level is skipped
            import logging
            logging.getLogger("sixjvol").debug("level r=%d skipped: %s",
                                               r, exc)
            warnings.warn(f"level r={r} skipped: {exc}", LevelSkipped,
                          stacklevel=3)
    return sorted(out, key=lambda s: s.r)


def growth_series(plan: GrowthPlan) -> list[GrowthSample]:
    """Evaluate the 6j growth samples for every level in the plan.

    Failing levels are skipped with a LevelSkipped warning; the output
    is ordered by r.
    """
    return scan_levels(plan.r_list,
                       lambda r: sixj_log(colors_for_r(plan.alpha, r)))


def fit_growth(samples: list[GrowthSample]) -> GrowthFit:
    """Least-squares fit of scaled(r) = c0 + c1*log(r)/r + c2/r."""
    finite = [s for s in samples if math.isfinite(s.scaled)]
    if len(finite) < 5:
        raise ValueError("need at least 5 finite samples to fit")
    r = np.array([s.r for s in finite], dtype=np.float64)
    y = np.array([s.scaled for s in finite])
    design = np.stack([np.ones_like(r), np.log(r) / r, 1.0 / r], axis=1)
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 3:
        raise ValueError("rank-deficient design: need more distinct levels")
    resid = design @ coef - y
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return GrowthFit(float(coef[0]), float(coef[1]), float(coef[2]), rms)


def _per_level_geometry(theta: AngleSixTuple, mu, r: int):
    """Angles, signs, Gram data at the rounded colors of level r."""
    alpha = AlphaSixTuple.from_theta(theta, mu)
    t = colors_for_r(alpha, r)
    alpha_r = [TWO_PI * a / r for a in t.colors]
    mu_r = tuple(1 if a > math.pi else (-1 if a < math.pi else m)
                 for a, m in zip(alpha_r, mu))
    theta_r = AngleSixTuple(tuple(abs(a - math.pi) for a in alpha_r))
    return t, theta_r, mu_r


def asymp2_log_prediction(theta: AngleSixTuple, mu, r: int) -> float:
    """ln of the predicted |6j| magnitude at level r.

    Uses the per-level rounded angles: the sqrt(2)*pi/r^{3/2} prefactor,
    the half-sum of signed edge lengths, the quarter-power of -det G,
    and the exponential of (r/2pi) times the volume, all in log space.
    """
    _, theta_r, mu_r = _per_level_geometry(theta, mu, r)
    G = gram_from_angles(theta_r)
    if signature(G).as_pair() != (3, 1):
        raise ValueError(f"no hyperbolic geometry at level r={r}")
    cof = cofactor_matrix(G.mat)
    diag_signs = [tol_sign(cof[i, i]) for i in range(4)]
    if 0 in diag_signs:
        raise ValueError("prediction undefined at ideal vertex")
    if -1 not in diag_signs:
        raise ValueError(f"no hyperideal vertex at level r={r}")
    lengths = edge_length_tuple(G)
    det_g = float(np.linalg.det(G.mat))
    vol = volume(theta_r, mu_r)
    return (0.5 * math.log(2.0) + math.log(math.pi) - 1.5 * math.log(r)
            - 0.5 * sum(m * l for m, l in zip(mu_r, lengths))
            - 0.25 * math.log(-det_g)
            + (r / TWO_PI) * vol)
