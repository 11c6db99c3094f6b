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
from math import ceil
from typing import NamedTuple

import numpy as np

from .gram import (AlphaSixTuple, AngleSixTuple, _det_from_rows,
                   cofactor_matrix, gram_from_angles, signature, tol_sign)
from .qnum import TWO_PI, _index, _odd_level, _ValueRecord
from .sixj import ColorSixTuple, _valid_tuple, sixj_log
from .tetra import edge_length_tuple
from .volfun import volume


class LevelSkipped(UserWarning):
    """A growth level failed (inadmissible rounding, imaginary value)
    and was dropped from the series."""


def _scan_level(x) -> int:
    """A level of a scan as an int: the one scan rule.  x is read by
    `qnum._index` (TypeError for a non-integral level, never
    truncated), and must be odd and >= 5, or ValueError; a single
    symbol asks only r >= 3 (`qnum.OddLevel`)."""
    r = _index(x, "level")
    if r < 5 or r % 2 == 0:
        raise ValueError(f"levels must be odd integers >= 5, got {x!r}")
    return r


def _int_levels(r_list) -> tuple[int, ...]:
    """The levels as ints, each read by `_scan_level`, and strictly
    increasing, or ValueError."""
    levels = tuple(map(_scan_level, r_list))
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    return levels


class GrowthPlan(_ValueRecord):
    """Limit angles and the levels at which to evaluate them; an
    immutable record.  The levels are stored as ints, each odd and >= 5
    by `_scan_level` (TypeError for a non-integral level), and strictly
    increasing, or ValueError."""

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
    level r.  r is read by `_scan_level` (an integral r of any type, odd
    and >= 5), so every color is an int.

    The nearest even integer to x with ties down is 2*ceil((x - 1)/2).
    For x in [1/2, 2^53) the subtraction and the halving are exact, so
    this is the rounding of x itself.  Below 1/2 it gives 0 and from
    2^53 up it is clamped to r - 3, as the exact rounding is.
    """
    return _even_round(angles, _scan_level(r))


def _even_round(angles, r: int) -> tuple[int, ...]:
    """`even_colors` at a level `_scan_level` has read."""
    top = r - 3  # largest even value in the color range [0, r-2]
    out = []
    for a in angles:
        c = 2 * ceil((r * a / TWO_PI - 1.0) / 2.0)
        out.append(0 if c < 0 else (top if c > top else c))
    return tuple(out)


def colors_for_r(alpha: AlphaSixTuple, r: int) -> ColorSixTuple:
    """The even rounding of r*alpha/(2*pi), verified r-admissible.

    All-even colors make every vertex sum even automatically; the
    triangle-type inequalities can still break near the admissibility
    boundary at small r, which is reported rather than repaired.
    """
    r = _scan_level(r)
    colors = _even_round(alpha.alpha, r)
    try:
        return _valid_tuple(colors, _odd_level(r))
    except ValueError as exc:
        raise ValueError(f"no admissible rounding at this level: r={r}, "
                         f"colors={colors}") from exc


_new_sample = tuple.__new__  # GrowthSample(...) without its Python frame


def scan_levels(r_list, evaluate) -> list[GrowthSample]:
    """Growth samples of evaluate(r) -> QuarterPhaseLog, in r_list order.

    Both callers pass the ints of `_int_levels`, each odd and >= 5 and
    strictly increasing, so the samples are ordered by r with no sort.
    A level whose evaluation or `real_sign` raises ValueError (an
    inadmissible rounding, or an imaginary value, which a sample's sign
    cannot hold) is skipped with a LevelSkipped warning attributed to
    the scan's caller, and a debug event on the "sixjvol" logger whose
    arguments are r and the reason.  Any other exception is a defect
    and propagates.
    """
    out: list[GrowthSample] = []
    for r in r_list:
        try:
            value = evaluate(r)
            log_mag = value.log_mag
            out.append(_new_sample(GrowthSample, (
                r, log_mag, TWO_PI * log_mag / r, value.real_sign())))
        except ValueError as exc:
            # imported here: logging adds ~5 ms to every process start
            # and is needed only once a level is skipped
            import logging
            logging.getLogger("sixjvol").debug("level r=%d skipped: %s",
                                               r, exc)
            warnings.warn(f"level r={r} skipped: {exc}", LevelSkipped,
                          stacklevel=3)
    return out


def growth_series(plan: GrowthPlan) -> list[GrowthSample]:
    """Evaluate the 6j growth samples for every level in the plan.

    Failing levels are skipped with a LevelSkipped warning; the output
    is ordered by r.
    """
    alpha = plan.alpha
    # both names are read at each call, so a rebinding of either is seen
    return scan_levels(plan.r_list,
                       lambda r: sixj_log(colors_for_r(alpha, r)))


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


def asymp2_log_prediction(theta: AngleSixTuple, mu, r: int) -> float:
    """ln of the predicted |6j| magnitude at level r.

    Uses the per-level rounded angles: the sqrt(2)*pi/r^{3/2} prefactor,
    the half-sum of signed edge lengths, the quarter-power of -det G,
    and the exponential of (r/2pi) times the volume, all in log space.
    """
    t = colors_for_r(AlphaSixTuple.from_theta(theta, mu), r)
    alpha_r = AlphaSixTuple.from_alpha([TWO_PI * a / r for a in t.colors])
    theta_r, mu_r = alpha_r.to_theta(), alpha_r.mu
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
    det_g = _det_from_rows(G.mat[0].tolist(), cof[0].tolist())
    vol = volume(theta_r, mu_r)
    return (0.5 * math.log(2.0) + math.log(math.pi) - 1.5 * math.log(r)
            - 0.5 * sum(m * l for m, l in zip(mu_r, lengths))
            - 0.25 * math.log(-det_g)
            + (r / TWO_PI) * vol)
