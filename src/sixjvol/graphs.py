"""Brackets of tetrahedral complexes and the triangular-prism volume check.

A `BlowUpGraph` records a complex by its tetrahedra alone: each is a
6-tuple of edge ids 0..n_edges-1, in the edge order of a
`ColorSixTuple`, and a colouring gives every id one colour.  An id may
repeat inside a tetrahedron, so the ids can also be the edge classes
of a triangulation: the two-tetrahedron ideal triangulation of the
figure-eight knot complement is two copies of (0, 1, 0, 0, 1, 1) over
two classes.  The bracket is the product of the 6j-symbols of the
tetrahedra (theta-normalized, so no loop or theta factors appear).

The triangular prism is the tetrahedral graph blown up at one vertex:
verticals 0, 1, 2 shared by both tetrahedra, one base 3, 4, 5, the
other 6, 7, 8, and

    <prism, col> = 6j(a1,a2,a3,b1,b2,b3) * 6j(a1,a2,a3,c1,c2,c3).

When the vertical dihedral angles sum below pi, the three vertical
planes meet in a hyperideal apex, and the plane dual to it splits the
prism into two generalized hyperbolic tetrahedra, one on each base.
So Vol(P) = Vol(T1) + Vol(T2), and the scaled bracket logs converge
to Vol(P).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .gram import AngleSixTuple
from .growth import (GrowthFit, GrowthSample, _even_round, _int_levels,
                     even_colors, fit_growth, scan_levels)
from .qnum import (QuarterPhaseLog, _index, _level, _odd_level,
                   _ValueRecord)
from .sixj import _valid_tuple, sixj_log
from .volfun import volume


class BlowUpGraph(_ValueRecord):
    """A tetrahedral complex: `n_edges` edge ids and its tetrahedra,
    each a 6-tuple of ids in 0..n_edges-1; an immutable record."""

    __slots__ = ("n_edges", "tet_decomposition")

    def __init__(self, n_edges, tet_decomposition) -> None:
        if type(n_edges) is not int or n_edges < 0:
            raise ValueError(
                f"need a non-negative integer edge count, got {n_edges!r}")
        tets = tuple(tuple(tet) for tet in tet_decomposition)
        object.__setattr__(self, "n_edges", n_edges)
        object.__setattr__(self, "tet_decomposition", tets)
        for idx, tet in enumerate(tets):
            if len(tet) != 6 or not all(
                    type(e) is int and 0 <= e < n_edges for e in tet):
                raise ValueError(
                    f"decomposition tetrahedron {idx + 1} {tet}: need six "
                    f"integer edge ids in 0..{n_edges - 1}")


def bracket_blowup(graph: BlowUpGraph, coloring, level) -> QuarterPhaseLog:
    """Product of the 6j-symbols of the decomposition tetrahedra.

    `coloring` is a sequence of colors indexed by edge id; it must be
    r-admissible on every decomposition tetrahedron.  A non-integral
    color raises TypeError, as in `ColorSixTuple`.  Phases add, so two
    imaginary factors give a real bracket; a prism level is skipped
    only when the product is imaginary.
    """
    lv = _level(level)
    # the colors of a level scan are ints and skip the call
    col = [c if type(c) is int else _index(c, "color") for c in coloring]
    if len(col) != graph.n_edges:
        raise ValueError(f"need {graph.n_edges} colors, got {len(col)}")
    out = None
    for idx, tet in enumerate(graph.tet_decomposition):
        try:  # the checks of ColorSixTuple
            t = _valid_tuple(tuple([col[e] for e in tet]), lv)
        except ValueError as exc:
            raise ValueError(
                f"inadmissible coloring on decomposition tetrahedron "
                f"{idx + 1} (edges {tuple(e + 1 for e in tet)}): {exc}"
            ) from exc
        value = sixj_log(t)
        # one() * value is value: a symbol's log_mag is never -0.0
        out = value if out is None else out * value
    return QuarterPhaseLog.one() if out is None else out


# ---------------------------------------------------------------------------
# Triangular prisms.


def prism_graph() -> BlowUpGraph:
    """The prism 1-skeleton: verticals 0, 1, 2 in both tetrahedra, one
    base 3, 4, 5, the other 6, 7, 8."""
    return BlowUpGraph(9, ((0, 1, 2, 3, 4, 5), (0, 1, 2, 6, 7, 8)))


class PrismSpec(_ValueRecord):
    """Dihedral angles of a triangular prism; an immutable record.

    vertical: the three vertical-face angles (at the vertical edges);
    base_b / base_c: the angles at the two triangular bases.  Each
    angle lies in [0, pi], as in `AngleSixTuple`.  The vertical angles
    must sum below pi so that the three vertical planes meet in a
    hyperideal point and the prism splits into two tetrahedra.
    """

    __slots__ = ("vertical", "base_b", "base_c")

    def __init__(self, vertical, base_b, base_c) -> None:
        for name, angles in zip(self.__slots__, (vertical, base_b, base_c)):
            v = tuple(float(x) for x in angles)
            object.__setattr__(self, name, v)
            if len(v) != 3:
                raise ValueError(f"{name} needs exactly three angles")
        self.tetrahedra()  # the range check of AngleSixTuple
        if sum(self.vertical) >= math.pi:
            raise ValueError("apex not hyperideal: vertical angles must "
                             "sum below pi")

    def tetrahedra(self) -> tuple[AngleSixTuple, AngleSixTuple]:
        """The two splitting tetrahedra: verticals at the apex, base below."""
        theta = _prism_theta(self)
        return tuple(AngleSixTuple([theta[e] for e in tet])
                     for tet in prism_graph().tet_decomposition)


def _prism_theta(p: PrismSpec) -> tuple[float, ...]:
    """The nine dihedral angles of a prism, in `prism_graph` edge-id order."""
    return p.vertical + p.base_b + p.base_c


def prism_volume(p: PrismSpec) -> float:
    """Vol(P) = Vol(T1) + Vol(T2) via the splitting along the dual plane.

    Each term is `volume`'s generalized volume, continued by the
    Schlafli formula where a tetrahedron is not admissible, so Vol(P)
    can be negative: PrismSpec((0.5,)*3, (3.0,)*3, (0.5,)*3) gives
    -0.186.  Only the growth of the bracket needs admissibility.
    """
    t1, t2 = p.tetrahedra()
    return volume(t1) + volume(t2)


def _prism_alpha(p: PrismSpec) -> list[float]:
    """The nine limit angles pi - theta of a prism, in edge-id order."""
    return [math.pi - t for t in _prism_theta(p)]


def prism_colors_for_r(p: PrismSpec, r: int) -> tuple[int, ...]:
    """Even rounding of the nine limit angles pi - theta at level r."""
    return even_colors(_prism_alpha(p), r)


class PrismCheck(NamedTuple):
    fit: GrowthFit
    vol: float
    gap: float
    samples: tuple[GrowthSample, ...]


def _prism_bracket(p: PrismSpec):
    """The evaluator r -> <prism, col_r> that the prism scans pass to
    `scan_levels`, for the levels of `_int_levels`, read once there."""
    graph = prism_graph()
    alpha = _prism_alpha(p)  # prism_colors_for_r, with the angles once
    return lambda r: bracket_blowup(graph, _even_round(alpha, r),
                                    _odd_level(r))


def _prism_samples(p: PrismSpec, r_list) -> list[GrowthSample]:
    """The bracket samples of `prism_conjecture_check`, without the fit."""
    return scan_levels(_int_levels(r_list), _prism_bracket(p))


def prism_conjecture_check(p: PrismSpec, r_list) -> PrismCheck:
    """Scaled bracket logs across levels vs the prism volume.

    Fits c0 + c1 log(r)/r + c2/r to (2 pi / r) ln|<prism, col_r>| and
    reports the gap |c0 - Vol(P)|.  Levels are checked as in a GrowthPlan;
    failing levels are skipped with a LevelSkipped warning attributed to
    the caller, so this calls `scan_levels` itself.
    """
    samples = scan_levels(_int_levels(r_list), _prism_bracket(p))
    fit = fit_growth(samples)
    vol = prism_volume(p)
    return PrismCheck(fit, vol, abs(fit.c0 - vol), tuple(samples))
