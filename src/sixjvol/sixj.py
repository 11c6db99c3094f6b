"""Quantum 6j-symbols at level r and their color-change symmetries.

Colors live in {0, ..., r-2}.  A triple (a1,a2,a3) is r-admissible when

    ai + aj - ak >= 0  (all three ways),
    a1 + a2 + a3 <= 2(r-2),
    a1 + a2 + a3 even,

and a 6-tuple (a1..a6) is r-admissible when its four vertex triples
(a1,a2,a3), (a1,a5,a6), (a2,a4,a6), (a3,a4,a5) all are.  Opposite edge
pairs are (1,4), (2,5), (3,6).

The symbol is

    i^{-sum a} * Delta(123) Delta(156) Delta(246) Delta(345)
      * sum_z (-1)^z [z+1]! / (prod_i [z-T_i]! * prod_j [Q_j-z]!),

with T the four vertex half-sums, Q the three quadrilateral half-sums,
z from max T to min Q, and [m]! = 0 killing every term with z > r-2.
Delta(a,b,c) = sqrt([x]![y]![w]!/[T+1]!) under the convention
sqrt(x) = i*sqrt(|x|) for negative x, so a Delta factor is either real
or purely imaginary, and so is the symbol: for some admissible tuples
the i^{-sum a} prefactor and the imaginary Delta factors leave an odd
number of quarter turns.

The z-sum is evaluated in log space: terms are scaled by the maximum
log-magnitude and the signed exponentials summed pairwise, since terms
span hundreds of orders of magnitude at r ~ 2000.  Over the range
z = lo..hi-1 every factor of the terms is one contiguous slice of the
level's log-factorial and sign-count tables: [z+1]! and [z-T_i]! read
increasing slices, [Q_j-z]! a reversed one, so a symbol costs a fixed
number of numpy operations and builds no index arrays.  The four Delta
factors read their sixteen factorial entries with one index array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qnum import OddLevel, QuarterPhaseLog, _level, level_tables

# Index sets (0-based).  Vertex triples are the edges meeting at each
# vertex of the tetrahedral graph; face triples are their complements
# (the edges around the opposite face); each quadrilateral fixes one
# opposite pair.
VERTEX_TRIPLES = ((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4))
FACE_TRIPLES = ((3, 4, 5), (1, 2, 3), (0, 2, 4), (0, 1, 5))
QUAD_MOVES = ((1, 2, 4, 5), (0, 2, 3, 5), (0, 1, 3, 4))
OPPOSITE_PAIRS = ((0, 3), (1, 4), (2, 5))


def is_admissible_triple(a1: int, a2: int, a3: int, level) -> bool:
    """True iff (a1,a2,a3) is r-admissible (False on out-of-range colors)."""
    return _triple_ok(a1, a2, a3, _level(level).r)


def _triple_ok(a1: int, a2: int, a3: int, r: int) -> bool:
    top = r - 2
    s = a1 + a2 + a3
    return (0 <= a1 <= top and 0 <= a2 <= top and 0 <= a3 <= top
            and s % 2 == 0 and s <= 2 * top
            and a1 + a2 - a3 >= 0 and a2 + a3 - a1 >= 0
            and a3 + a1 - a2 >= 0)


def is_admissible_tuple(colors, level) -> bool:
    r = _level(level).r
    a = tuple(colors)
    for (i, j, k) in VERTEX_TRIPLES:
        if not _triple_ok(a[i], a[j], a[k], r):
            return False
    return True


@dataclass(frozen=True)
class ColorTriple:
    a1: int
    a2: int
    a3: int
    level: OddLevel

    def __post_init__(self) -> None:
        if not is_admissible_triple(self.a1, self.a2, self.a3, self.level):
            raise ValueError(
                f"inadmissible triple ({self.a1},{self.a2},{self.a3})"
                f" at r={self.level.r}")


@dataclass(frozen=True)
class ColorSixTuple:
    colors: tuple[int, int, int, int, int, int]
    level: OddLevel

    def __post_init__(self) -> None:
        colors = tuple(map(int, self.colors))
        object.__setattr__(self, "colors", colors)
        if len(colors) != 6:
            raise ValueError("need exactly six colors")
        r = _level(self.level).r
        for (i, j, k) in VERTEX_TRIPLES:
            if not _triple_ok(colors[i], colors[j], colors[k], r):
                raise ValueError(
                    f"inadmissible tuple: vertex triple "
                    f"({colors[i]},{colors[j]},{colors[k]}) at indices "
                    f"({i + 1},{j + 1},{k + 1}) fails at r={r}")

    def replaced(self, flips) -> "ColorSixTuple":
        """Copy with colors at the given indices flipped to r-2-a."""
        rm2 = self.level.r - 2
        a = list(self.colors)
        for i in flips:
            a[i] = rm2 - a[i]
        return ColorSixTuple(tuple(a), self.level)


def tuple_of(colors, level) -> ColorSixTuple:
    return ColorSixTuple(tuple(int(a) for a in colors), _level(level))


@dataclass(frozen=True)
class SumBounds:
    """Vertex half-sums T1..T4 and quadrilateral half-sums Q1..Q3."""

    T: tuple[int, int, int, int]
    Q: tuple[int, int, int]

    @staticmethod
    def of(t: ColorSixTuple) -> "SumBounds":
        a = t.colors
        T = tuple((a[i] + a[j] + a[k]) // 2 for (i, j, k) in VERTEX_TRIPLES)
        Q = ((a[0] + a[1] + a[3] + a[4]) // 2,
             (a[0] + a[2] + a[3] + a[5]) // 2,
             (a[1] + a[2] + a[4] + a[5]) // 2)
        return SumBounds(T, Q)


def _delta_logs(tab, triples) -> tuple[float, int]:
    """Summed log|Delta| over the triples and their quarter turns.

    Delta(a,b,c) = sqrt([x]![y]![w]!/[s+1]!), so each triple reads four
    factorial entries; all of them are read with one index array.  A
    negative radicand contributes a single quarter turn (sqrt(x) =
    i sqrt|x|).
    """
    idx = []
    for a, b, c in triples:
        idx += ((a + b - c) // 2, (b + c - a) // 2, (c + a - b) // 2,
                (a + b + c) // 2 + 1)
    idx = np.array(idx)
    lf = tab.logfact[idx].tolist()
    nc = tab.negcount[idx].tolist()
    log_mag, turns = 0.0, 0
    for n in range(0, len(idx), 4):
        log_mag += 0.5 * (lf[n] + lf[n + 1] + lf[n + 2] - lf[n + 3])
        turns += (nc[n] + nc[n + 1] + nc[n + 2] + nc[n + 3]) & 1
    return log_mag, turns


def delta_triple(triple: ColorTriple) -> QuarterPhaseLog:
    """Delta(a1,a2,a3) = sqrt([x]![y]![w]! / [T+1]!), imaginary-root convention."""
    tab = level_tables(triple.level)
    return QuarterPhaseLog(
        *_delta_logs(tab, ((triple.a1, triple.a2, triple.a3),)))


_SIGNS = np.array([1.0, -1.0])


def _zsum_signed_log(tab, T, Q, r: int) -> tuple[float, int]:
    """The alternating z-sum as (log-magnitude, phase 0 or 2).

    Every factor of a term is a contiguous slice of the level's tables
    over z in [lo, hi): [z+1]! reads [lo+1, hi+1), [z-T_i]! reads
    [lo-T_i, hi-T_i) and [Q_j-z]! the reversed slice from Q_j-lo down
    to Q_j-hi+1.  An exactly zero sum returns (-inf, 0).
    """
    lo = max(T)
    hi = min(min(Q), r - 2) + 1  # [z+1]! = 0 for z > r-2
    lf = tab.logfact
    nc = tab.negcount
    rev = [(Qj - lo, Qj - hi if Qj >= hi else None) for Qj in Q]
    log_mag = lf[lo + 1:hi + 1] - lf[lo - T[0]:hi - T[0]]
    for Ti in T[1:]:
        log_mag -= lf[lo - Ti:hi - Ti]
    for start, stop in rev:  # stop None: the slice ends at index 0
        log_mag -= lf[start:stop:-1]
    # Sign parity: z plus every factor's negcount.  negcount is
    # nondecreasing, so a slice whose largest entry is 0 adds nothing.
    parity = nc[lo + 1:hi + 1] + np.arange(lo, hi)
    for Ti in T:
        if nc[hi - Ti - 1]:
            parity += nc[lo - Ti:hi - Ti]
    for start, stop in rev:
        if nc[start]:
            parity += nc[start:stop:-1]
    m = float(log_mag.max())
    log_mag -= m
    terms = np.exp(log_mag, out=log_mag)
    terms *= _SIGNS[parity & 1]
    total = float(terms.sum())  # pairwise summation
    if total == 0.0:
        return -math.inf, 0
    return m + math.log(abs(total)), 0 if total > 0.0 else 2


def sixj_log(t: ColorSixTuple) -> QuarterPhaseLog:
    """The quantum 6j-symbol of an r-admissible 6-tuple, in log space.

    Returns real symbols only (phase 0 or 2).  The i^{-sum a} prefactor
    and the imaginary Delta factors can leave an odd phase, i.e. a
    purely imaginary symbol; such tuples raise ArithmeticError.
    """
    tab = level_tables(t.level)
    a = t.colors
    bounds = SumBounds.of(t)
    zlog, zphase = _zsum_signed_log(tab, bounds.T, bounds.Q, t.level.r)
    if zlog == -math.inf:
        return QuarterPhaseLog.zero()
    dlog, turns = _delta_logs(
        tab, [(a[i], a[j], a[k]) for (i, j, k) in VERTEX_TRIPLES])
    phase = (-sum(a) + turns + zphase) % 4
    if phase % 2 != 0:
        raise ArithmeticError(
            f"6j phase parity broken for {a} at r={t.level.r}: "
            f"phase={phase}")
    return QuarterPhaseLog(dlog + zlog, phase)


def sixj_exact_small(t: ColorSixTuple) -> complex:
    """Independent small-level oracle: plain complex arithmetic, fsum.

    Works entirely in linear (non-log) floating point, which stays in
    double range only for r <= 201; larger levels are refused.
    """
    r = t.level.r
    if r > 201:
        raise ValueError("oracle limited to small levels (r <= 201)")
    sin1 = math.sin(2.0 * math.pi / r)
    fact = [1.0] * r
    for k in range(1, r):
        fact[k] = fact[k - 1] * (math.sin(2.0 * math.pi * k / r) / sin1)

    def delta(a, b, c):
        rad = (fact[(a + b - c) // 2] * fact[(b + c - a) // 2]
               * fact[(c + a - b) // 2] / fact[(a + b + c) // 2 + 1])
        root = math.sqrt(abs(rad))
        return complex(0.0, root) if rad < 0 else complex(root, 0.0)

    a = t.colors
    bounds = SumBounds.of(t)
    T, Q = bounds.T, bounds.Q
    zmin, zmax = max(T), min(min(Q), r - 2)
    terms = []
    for z in range(zmin, zmax + 1):
        den = 1.0
        for Ti in T:
            den *= fact[z - Ti]
        for Qj in Q:
            den *= fact[Qj - z]
        terms.append((1 - 2 * (z & 1)) * fact[z + 1] / den)
    total = math.fsum(terms)
    pref = 1j ** ((-sum(a)) % 4)
    for (i, j, k) in VERTEX_TRIPLES:
        pref *= delta(a[i], a[j], a[k])
    return pref * total


def change_colors_face(t: ColorSixTuple, face: int) -> ColorSixTuple:
    """Flip a -> r-2-a on the three edges around one face (face in 1..4).

    Face i is the one opposite vertex triple i.  The move preserves
    admissibility and the magnitude |6j|; the overall sign/phase of the
    symbol can change (square-root branch choices in the triangle
    factors), so only `sixj_log(...).log_mag` is move-invariant.
    """
    if face not in (1, 2, 3, 4):
        raise ValueError(f"face must be 1..4, got {face}")
    return t.replaced(FACE_TRIPLES[face - 1])


def change_colors_quad(t: ColorSixTuple, quad: int) -> ColorSixTuple:
    """Flip a -> r-2-a on the four edges of a quadrilateral (quad in 1..3).

    Quadrilateral q keeps the opposite pair (q, q+3) fixed.  The move
    preserves admissibility and |6j| (the phase can change; see
    `change_colors_face`).
    """
    if quad not in (1, 2, 3):
        raise ValueError(f"quad must be 1..3, got {quad}")
    return t.replaced(QUAD_MOVES[quad - 1])


def big_colors(t: ColorSixTuple) -> tuple[int, ...]:
    """Indices (0-based) of colors a > (r-2)/2; r odd makes this strict."""
    half = (t.level.r - 2) / 2.0
    return tuple(i for i, a in enumerate(t.colors) if a > half)


def canonicalize(t: ColorSixTuple) -> ColorSixTuple:
    """Reduce by face/quad moves to one of the three terminal patterns:
    no big color, exactly one big color, or one big opposite pair.

    Deterministic: at each step the first move (faces 1..4, then quads
    1..3) that strictly reduces the number of big colors is applied.
    Every non-terminal pattern admits such a move, so this terminates.
    The result has the same |6j| as the input (moves preserve the
    magnitude, not necessarily the phase).
    """
    moves = ([("face", f) for f in (1, 2, 3, 4)]
             + [("quad", q) for q in (1, 2, 3)])
    cur = t
    while True:
        big = big_colors(cur)
        n = len(big)
        if n <= 1 or (n == 2 and tuple(sorted(big)) in OPPOSITE_PAIRS):
            return cur
        for kind, idx in moves:
            cand = (change_colors_face(cur, idx) if kind == "face"
                    else change_colors_quad(cur, idx))
            if len(big_colors(cand)) < n:
                cur = cand
                break
        else:  # pragma: no cover - would contradict the reduction lemma
            raise ArithmeticError(f"no reducing move from {cur.colors}")
