"""Brackets of blow-up graphs and the triangular-prism volume check.

A blow-up move replaces a trivalent vertex with incident edges (p, q, s)
by a triangle of three new edges (n1, n2, n3), n_i opposite leg i.  Every
graph obtained from the tetrahedral graph by such moves carries a
canonical decomposition into tetrahedra — the original 6-tuple plus one
(p, q, s, n1, n2, n3) per move — and its bracket is the product of the
6j-symbols of the decomposition (theta-normalized bracket, so no loop or
theta factors appear).

The triangular prism is the one-move case: verticals (e1, e2, e3) shared
by both tetrahedra, one base (e4, e5, e6), the other (e7, e8, e9), and

    <prism, col> = 6j(a1,a2,a3,b1,b2,b3) * 6j(a1,a2,a3,c1,c2,c3).

When the vertical dihedral angles sum below pi, the prism splits along
the plane dual to the hyperideal apex into two generalized hyperbolic
tetrahedra, so Vol(P) = Vol(T1) + Vol(T2) and the scaled bracket logs
converge to Vol(P).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .gram import AngleSixTuple
from .growth import (GrowthFit, GrowthSample, _int_levels, even_colors,
                     fit_growth, scan_levels)
from .qnum import (QuarterPhaseLog, _odd_level, _ValueRecord, _level,
                   quantum_integer)
from .sixj import VERTEX_TRIPLES, _color, _valid_tuple, sixj_log
from .volfun import volume


def loop_value(level, i: int) -> float:
    """The colored unknot: Delta_i = (-1)^{i+1} [i+1]."""
    lv = _level(level)
    if not 0 <= i <= lv.r - 2:
        raise ValueError(f"color out of range: {i} not in [0, {lv.r - 2}]")
    return (-1.0) ** (i + 1) * quantum_integer(lv, i + 1)


class BlowUpMove(NamedTuple):
    vertex: str
    new_edges: tuple[int, int, int]


class BlowUpGraph(NamedTuple):
    """A trivalent planar graph recorded by its blow-up history.

    `vertices` maps vertex names to ordered incident edge-id triples;
    `n_edges` edge ids run 0..n_edges-1 (ids 0..5 are the base
    tetrahedral graph's e1..e6).
    """

    n_edges: int
    vertices: dict[str, tuple[int, int, int]]
    tet_decomposition: tuple[tuple[int, int, int, int, int, int], ...]
    moves: tuple[BlowUpMove, ...]

    @staticmethod
    def tetrahedral() -> "BlowUpGraph":
        verts = {f"g{n}": t for n, t in enumerate(VERTEX_TRIPLES, 1)}
        return BlowUpGraph(6, verts, ((0, 1, 2, 3, 4, 5),), ())

    def blow_up(self, vertex: str) -> "BlowUpGraph":
        """Replace `vertex` by a triangle of three new edges."""
        if vertex not in self.vertices:
            raise ValueError(f"no vertex named {vertex!r}")
        p, q, s = self.vertices[vertex]
        n1, n2, n3 = self.n_edges, self.n_edges + 1, self.n_edges + 2
        verts = dict(self.vertices)
        del verts[vertex]
        verts[f"{vertex}.1"] = (p, n2, n3)
        verts[f"{vertex}.2"] = (q, n1, n3)
        verts[f"{vertex}.3"] = (s, n1, n2)
        tet = (p, q, s, n1, n2, n3)
        return BlowUpGraph(self.n_edges + 3, verts,
                           self.tet_decomposition + (tet,),
                           self.moves + (BlowUpMove(vertex, (n1, n2, n3)),))


def bracket_blowup(graph: BlowUpGraph, coloring, level) -> QuarterPhaseLog:
    """Product of the 6j-symbols of the decomposition tetrahedra.

    `coloring` is a sequence of colors indexed by edge id (or a dict);
    it must be r-admissible on every decomposition tetrahedron.  A
    non-integral color raises TypeError, as in `ColorSixTuple`.
    """
    lv = _level(level)
    if isinstance(coloring, dict):
        coloring = [coloring[e] for e in range(graph.n_edges)]
    # the colors of a level scan are ints and skip the call
    col = [c if type(c) is int else _color(c) for c in coloring]
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


class PrismSpec(_ValueRecord):
    """Dihedral angles of a triangular prism; an immutable record.

    vertical: the three vertical-face angles (at the vertical edges);
    base_b / base_c: the angles at the two triangular bases.  The
    vertical angles must sum below pi so that the three vertical planes
    meet in a hyperideal point and the prism splits into two
    tetrahedra.
    """

    __slots__ = ("vertical", "base_b", "base_c")

    def __init__(self, vertical, base_b, base_c) -> None:
        for name, angles in zip(self.__slots__, (vertical, base_b, base_c)):
            v = tuple(float(x) for x in angles)
            object.__setattr__(self, name, v)
            if len(v) != 3:
                raise ValueError(f"{name} needs exactly three angles")
        if sum(self.vertical) >= math.pi:
            raise ValueError("apex not hyperideal: vertical angles must "
                             "sum below pi")

    def tetrahedra(self) -> tuple[AngleSixTuple, AngleSixTuple]:
        """The two splitting tetrahedra: verticals at the apex, base below."""
        return (AngleSixTuple(self.vertical + self.base_b),
                AngleSixTuple(self.vertical + self.base_c))


def prism_graph() -> BlowUpGraph:
    """The prism 1-skeleton: one blow-up at g1.

    Edge ids 0,1,2 are the verticals, 3,4,5 one base, 6,7,8 the other.
    """
    return BlowUpGraph.tetrahedral().blow_up("g1")


def prism_volume(p: PrismSpec, mu=(-1, -1, -1, -1, -1, -1)) -> float:
    """Vol(P) = Vol(T1) + Vol(T2) via the splitting along the dual plane."""
    t1, t2 = p.tetrahedra()
    return volume(t1, mu) + volume(t2, mu)


def _prism_alpha(p: PrismSpec) -> list[float]:
    """The nine limit angles pi - theta of a prism, in edge-id order."""
    return [math.pi - t for t in p.vertical + p.base_b + p.base_c]


def prism_colors_for_r(p: PrismSpec, r: int) -> tuple[int, ...]:
    """Even rounding of the nine limit angles pi - theta at level r."""
    return even_colors(_prism_alpha(p), r)


class PrismCheck(NamedTuple):
    fit: GrowthFit
    vol: float
    gap: float
    samples: tuple[GrowthSample, ...]


def _prism_samples(p: PrismSpec, r_list) -> list[GrowthSample]:
    """The bracket samples of `prism_conjecture_check`, without the fit."""
    graph = prism_graph()
    alpha = _prism_alpha(p)  # prism_colors_for_r, with the angles once
    return scan_levels(
        _int_levels(r_list),
        lambda r: bracket_blowup(graph, even_colors(alpha, r),
                                 _odd_level(r)))


def prism_conjecture_check(p: PrismSpec, r_list) -> PrismCheck:
    """Scaled bracket logs across levels vs the prism volume.

    Fits c0 + c1 log(r)/r + c2/r to (2 pi / r) ln|<prism, col_r>| and
    reports the gap |c0 - Vol(P)|.  Levels are checked as in a GrowthPlan;
    failing levels are skipped with a LevelSkipped warning.
    """
    samples = _prism_samples(p, r_list)
    fit = fit_growth(samples)
    vol = prism_volume(p)
    return PrismCheck(fit, vol, abs(fit.c0 - vol), tuple(samples))
