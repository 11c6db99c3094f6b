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
from dataclasses import dataclass

import numpy as np

from .gram import (DEFAULT_TOL, AlphaSixTuple, AngleSixTuple, cofactor_matrix,
                   gram_from_angles, signature)
from .qnum import TWO_PI, OddLevel
from .sixj import ColorSixTuple, sixj_log
from .tetra import edge_length_tuple
from .volfun import volume


class LevelSkipped(UserWarning):
    """A growth level failed (inadmissible rounding, domain error) and
    was dropped from the series."""


@dataclass(frozen=True)
class GrowthPlan:
    alpha: AlphaSixTuple
    r_list: tuple[int, ...]

    def __post_init__(self) -> None:
        rl = tuple(int(r) for r in self.r_list)
        object.__setattr__(self, "r_list", rl)
        if any(r < 5 or r % 2 == 0 for r in rl):
            raise ValueError("levels must be odd integers >= 5")
        if any(b <= a for a, b in zip(rl, rl[1:])):
            raise ValueError("levels must be strictly increasing")


@dataclass(frozen=True)
class GrowthSample:
    r: int
    log_abs: float            # ln|6j|; -inf for an exactly zero symbol
    scaled: float             # (2*pi/r) * log_abs
    sign: int                 # {+1, -1, 0}


@dataclass(frozen=True)
class GrowthFit:
    c0: float
    c1: float
    c2: float
    residual_rms: float


def _nearest_even(x: float) -> int:
    """Even integer nearest to x, ties broken downward."""
    lo = 2 * math.floor(x / 2.0)
    return lo if (x - lo) <= (lo + 2 - x) else lo + 2


def even_colors(angles, r: int) -> tuple[int, ...]:
    """Even rounding of r*a/(2*pi) for each limit angle a, clamped to
    the even colors of level r."""
    if r < 5 or r % 2 == 0:
        raise ValueError("level must be an odd integer >= 5")
    top = r - 3  # largest even value in the color range [0, r-2]
    return tuple(min(max(_nearest_even(r * a / TWO_PI), 0), top)
                 for a in angles)


def colors_for_r(alpha: AlphaSixTuple, r: int) -> ColorSixTuple:
    """The even rounding of r*alpha/(2*pi), verified r-admissible.

    All-even colors make every vertex sum even automatically; the
    triangle-type inequalities can still break near the admissibility
    boundary at small r, which is reported rather than repaired.
    """
    colors = even_colors(alpha.alpha, r)
    try:
        return ColorSixTuple(colors, OddLevel(r))
    except ValueError as exc:
        raise ValueError(f"no admissible rounding at this level: r={r}, "
                         f"colors={colors}") from exc


def scan_levels(r_list, evaluate) -> list[GrowthSample]:
    """Growth samples of evaluate(r) -> QuarterPhaseLog, ordered by r.

    A level whose evaluation fails is skipped with a LevelSkipped
    warning attributed to the scan's caller.
    """
    out: list[GrowthSample] = []
    for r in r_list:
        try:
            val = evaluate(r)
            if val.is_zero:
                out.append(GrowthSample(r, -math.inf, -math.inf, 0))
            else:
                out.append(GrowthSample(r, val.log_mag,
                                        TWO_PI * val.log_mag / r,
                                        val.real_sign()))
        except Exception as exc:  # noqa: BLE001 - per-level isolation
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


def _per_level_geometry(theta: AngleSixTuple, mu, r: int,
                        tol: float = DEFAULT_TOL):
    """Angles, signs, Gram data at the rounded colors of level r."""
    alpha = AlphaSixTuple.from_theta(theta, mu)
    t = colors_for_r(alpha, r)
    alpha_r = [TWO_PI * a / r for a in t.colors]
    mu_r = tuple(1 if a > math.pi else (-1 if a < math.pi else m)
                 for a, m in zip(alpha_r, mu))
    theta_r = AngleSixTuple(tuple(abs(a - math.pi) for a in alpha_r))
    return t, theta_r, mu_r


def asymp2_log_prediction(theta: AngleSixTuple, mu, r: int,
                          tol: float = DEFAULT_TOL) -> float:
    """ln of the predicted |6j| magnitude at level r.

    Uses the per-level rounded angles: the sqrt(2)*pi/r^{3/2} prefactor,
    the half-sum of signed edge lengths, the quarter-power of -det G,
    and the exponential of (r/2pi) times the volume, all in log space.
    """
    _, theta_r, mu_r = _per_level_geometry(theta, mu, r, tol)
    G = gram_from_angles(theta_r)
    if signature(G, tol).as_pair() != (3, 1):
        raise ValueError(f"no hyperbolic geometry at level r={r}")
    cof = cofactor_matrix(G.mat)
    diag = [cof[i, i] for i in range(4)]
    if any(abs(c) <= tol for c in diag):
        raise ValueError("prediction undefined at ideal vertex")
    if not any(c < -tol for c in diag):
        raise ValueError(f"no hyperideal vertex at level r={r}")
    lengths = edge_length_tuple(G, tol)
    det_g = float(np.linalg.det(G.mat))
    vol = volume(theta_r, mu_r, tol)
    return (0.5 * math.log(2.0) + math.log(math.pi) - 1.5 * math.log(r)
            - 0.5 * sum(m * l for m, l in zip(mu_r, lengths))
            - 0.25 * math.log(-det_g)
            + (r / TWO_PI) * vol)


def asymp2_prediction(theta: AngleSixTuple, mu, r: int,
                      tol: float = DEFAULT_TOL) -> float:
    """The predicted |6j| magnitude itself; inf when it overflows doubles."""
    lp = asymp2_log_prediction(theta, mu, r, tol)
    return math.exp(lp) if lp < 709.0 else math.inf
