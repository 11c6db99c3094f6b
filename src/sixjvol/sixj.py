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
level's log-factorial table (`qnum.LevelTables.logfact`): [z+1]! and
[z-T_i]! read increasing slices, [Q_j-z]! a reversed one, so a symbol
costs a fixed number of numpy operations and builds no index arrays.
The signs need no table.  [n]! is negative exactly when n - (r-1)/2
is positive and odd, so each of a term's eight factorials changes the
sign rule at one breakpoint in z, and at most one breakpoint falls
inside the z-range (`_sign_flips` has the proof).  The parity is
constant or alternating on each side of it, so the kernel negates one
strided slice and perhaps the sum, both exact.  The four Delta factors
take their sixteen factorial indices from the vertex half-sums T that
the z-range already needs, read them as Python floats from the table,
and count their quarter turns by the same rule.

The tables come from `qnum.level_tables`, a cache bounded by
`qnum.TABLE_CACHE_BYTES` that evicts the least recently used level.
A repeated sweep whose tables together exceed the bound rebuilds every
level on every pass.  A build takes about 28 us at r = 2001, 91 us at
r = 10001 and 171 us at r = 20001, and one symbol of the pi/6 colours
(43, 417 and 4167 z-terms) about 17, 21 and 73 us at r = 101, 2001
and 20001, so a sweep that rebuilds its tables costs about 2.3 times
one that does not at r = 2001 and 3.3 times at r = 20001 (best of 21
runs on one core of a shared 2-core Xeon virtual machine, Python 3.11,
numpy 2.4).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .qnum import QuarterPhaseLog, _ValueRecord, _level, level_tables

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


def _colors_ok(a, r: int) -> bool:
    """`_triple_ok` on the four vertex triples, in one pass.  With s =
    x+y+z even, the triangle inequalities say x, y, z <= s/2, and they
    imply x, y, z >= 0; every color sits in some triple, so s/2 <= r-2
    bounds it too."""
    a1, a2, a3, a4, a5, a6 = a
    s1, s2 = a1 + a2 + a3, a1 + a5 + a6
    s3, s4 = a2 + a4 + a6, a3 + a4 + a5
    if s1 % 2 or s2 % 2 or s3 % 2 or s4 % 2:
        return False
    t1, t2, t3, t4 = s1 // 2, s2 // 2, s3 // 2, s4 // 2
    top = r - 2
    return (a1 <= t1 and a2 <= t1 and a3 <= t1 and t1 <= top
            and a1 <= t2 and a5 <= t2 and a6 <= t2 and t2 <= top
            and a2 <= t3 and a4 <= t3 and a6 <= t3 and t3 <= top
            and a3 <= t4 and a4 <= t4 and a5 <= t4 and t4 <= top)


def is_admissible_tuple(colors, level) -> bool:
    """True iff the six colors are r-admissible; any other number of
    colors raises ValueError, as `ColorSixTuple` does."""
    r = _level(level).r
    a = tuple(colors)
    if len(a) != 6:
        raise ValueError("need exactly six colors")
    return _colors_ok(a, r)


class ColorTriple(_ValueRecord):
    """An r-admissible color triple (a1, a2, a3) at `level`.

    An immutable record; an int level is stored as an OddLevel.
    """

    __slots__ = ("a1", "a2", "a3", "level")

    def __init__(self, a1: int, a2: int, a3: int, level) -> None:
        level = _level(level)
        if not _triple_ok(a1, a2, a3, level.r):
            raise ValueError(f"inadmissible triple ({a1},{a2},{a3})"
                             f" at r={level.r}")
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "a3", a3)
        object.__setattr__(self, "level", level)


class ColorSixTuple(_ValueRecord):
    """An r-admissible 6-tuple of colors at `level`.

    An immutable record: the colors are stored as a tuple of ints and an
    int level as an OddLevel.  Wrong-length tuples, bad levels and
    inadmissible tuples raise ValueError (or TypeError for a non-integer
    level), in that order.
    """

    __slots__ = ("colors", "level")

    def __init__(self, colors, level) -> None:
        colors = tuple(map(int, colors))
        if len(colors) != 6:
            raise ValueError("need exactly six colors")
        level = _level(level)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "level", level)
        r = level.r
        if _colors_ok(colors, r):
            return
        for (i, j, k) in VERTEX_TRIPLES:  # name the first failing triple
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
    return ColorSixTuple(colors, level)  # converts colors and level itself


class SumBounds(NamedTuple):
    """Vertex half-sums T1..T4 and quadrilateral half-sums Q1..Q3."""

    T: tuple[int, int, int, int]
    Q: tuple[int, int, int]

    @staticmethod
    def of(t: ColorSixTuple) -> "SumBounds":
        return SumBounds(*_half_sums(t.colors))


def _half_sums(a) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(T, Q) of six colors; `sixj_log` calls this rather than build a
    SumBounds per symbol."""
    a1, a2, a3, a4, a5, a6 = a
    return (((a1 + a2 + a3) // 2, (a1 + a5 + a6) // 2,
             (a2 + a4 + a6) // 2, (a3 + a4 + a5) // 2),
            ((a1 + a2 + a4 + a5) // 2, (a1 + a3 + a4 + a6) // 2,
             (a2 + a3 + a5 + a6) // 2))


def _delta_logs(tab, idx) -> tuple[float, int]:
    """Summed log|Delta| and quarter turns of Delta factors.

    Delta(a,b,c) = sqrt([s-c]![s-a]![s-b]!/[s+1]!) with s = (a+b+c)/2,
    so idx lists four factorial indices (s-c, s-a, s-b, s+1) per factor,
    read through a memoryview of `logfact` (sixteen such reads cost
    about half of one `take` and `tolist`).  A negative radicand
    contributes a single quarter turn (sqrt(x) = i sqrt|x|); [n]! is
    negative exactly when n > h = (r-1)/2 and n - h is odd, so the turns
    need no table read, and a factor with s+1 <= h has none.
    """
    h = (tab.level.r - 1) // 2
    lf = memoryview(tab.logfact)  # an item is a Python float
    n = iter(idx)
    log_mag = 0.0
    turns = 0
    for x, y, w, d in zip(n, n, n, n):
        log_mag += 0.5 * (lf[x] + lf[y] + lf[w] - lf[d])
        if d > h:  # [s+1]!, and maybe more, past h
            p = d - h
            if x > h:
                p += x - h
            if y > h:
                p += y - h
            if w > h:
                p += w - h
            turns += p & 1
    return log_mag, turns


def delta_triple(triple: ColorTriple) -> QuarterPhaseLog:
    """Delta(a1,a2,a3) = sqrt([x]![y]![w]! / [T+1]!), imaginary-root convention."""
    a, b, c = triple.a1, triple.a2, triple.a3
    s = (a + b + c) // 2
    return QuarterPhaseLog(*_delta_logs(level_tables(triple.level),
                                        (s - c, s - a, s - b, s + 1)))


def _sign_flips(lo: int, hi: int, T, Q, h: int) -> tuple[int, int, int]:
    """How to sign the terms z = lo..hi-1 of the z-sum: (flip, start,
    stop) says to negate terms[start:stop:2] and then, if flip is 1,
    the sum.

    A term's sign parity is z plus, for each of its eight factorials
    [n]!, the parity of its negative factors [k] < 0: (n - h) mod 2 for
    n > h = (r-1)/2, else 0 (see `LevelTables`).
    So a factor adds nothing while n <= h and z + k (mod 2) once n > h,
    with k = h + T_i for [z-T_i]! (T_i = -1 for [z+1]!) and k = h + Q_j
    for [Q_j-z]!.  [z-T_i]! comes on at z = h+1+T_i and [Q_j-z]! goes
    off at z = Q_j-h.  Below every such breakpoint only the three
    [Q_j-z]! are on and the parity is 4z + sum(h + Q_j) = K (mod 2);
    crossing one adds its k to K and toggles whether z counts, so
    between breakpoints the parity is K (constant) or z + K
    (alternating).

    At most one breakpoint lies inside (lo, hi).  Each Q_j - T_i equals
    T_k - a for a vertex k != i and the color a that vertices i and k
    share, and every k != i occurs for some j, so Q_j - T_i <= lo.  A
    breakpoint inside needs, for [z+1]!, lo < h; for [z-T_i]!, T_i <=
    h-2 (the breakpoint is at most r-2) and min Q - T_i >= h+1, so
    T_k > h for every k != i; for [Q_j-z]!, Q_j - lo > h, so every
    T_k >= Q_j - lo > h.  No two of these can hold, and two [Q_j-z]!
    would give sum Q >= 2(lo+h+1) + lo+1 > 4 lo >= sum T (the third Q
    is at least hi-1 > lo), while sum Q = sum T.  So the range is one
    segment, or one constant and one alternating segment.  Flipping
    the sum to the constant segment's sign leaves one strided slice to
    negate.
    """
    K = Q[0] + Q[1] + Q[2] + h
    alt, cut, k_cut = 0, None, 0
    for e, k in ((h, h + 1), (h + 1 + T[0], h + T[0]),
                 (h + 1 + T[1], h + T[1]), (h + 1 + T[2], h + T[2]),
                 (h + 1 + T[3], h + T[3]), (Q[0] - h, Q[0] + h),
                 (Q[1] - h, Q[1] + h), (Q[2] - h, Q[2] + h)):
        if e <= lo:
            alt ^= 1
            K += k
        elif e < hi:
            cut, k_cut = e, k
    if cut is None:
        if not alt:
            return K & 1, 0, 0
        start, stop, flip = lo, hi, 0
    elif alt:  # alternating below the cut, constant from it
        start, stop, flip = lo, cut, (K + k_cut) & 1
    else:
        start, stop, flip = cut, hi, K & 1
        K += k_cut
    # negate where z + K + flip is odd
    first = start + ((start + K + flip + 1) & 1)
    return flip, first - lo, stop - lo


def _zsum_signed_log(tab, T, Q, r: int) -> tuple[float, int]:
    """The alternating z-sum as (log-magnitude, phase 0 or 2).

    Every factor of a term is a contiguous slice of the level's tables
    over z in [lo, hi): [z+1]! reads [lo+1, hi+1), [z-T_i]! reads
    [lo-T_i, hi-T_i) and [Q_j-z]! the reversed slice from Q_j-lo down
    to Q_j-hi+1.  The signs come from `_sign_flips`: negation is exact
    and pairwise summation is odd in its input, so every bit is that of
    summing the signed terms.  An exactly zero sum returns (-inf, 0).
    """
    lo = max(T)
    hi = min(min(Q), r - 2) + 1  # [z+1]! = 0 for z > r-2
    lf = tab.logfact
    log_mag = lf[lo + 1:hi + 1] - lf[lo - T[0]:hi - T[0]]
    for Ti in T[1:]:
        log_mag -= lf[lo - Ti:hi - Ti]
    for Qj in Q:  # stop None: the slice ends at index 0
        log_mag -= lf[Qj - lo:Qj - hi if Qj >= hi else None:-1]
    m = float(np.maximum.reduce(log_mag))
    log_mag -= m
    terms = np.exp(log_mag, out=log_mag)
    flip, start, stop = _sign_flips(lo, hi, T, Q, (r - 1) // 2)
    if start < stop:
        run = terms[start:stop:2]
        run *= -1.0
    total = float(np.add.reduce(terms))  # pairwise summation
    if total == 0.0:
        return -math.inf, 0
    if flip:
        total = -total
    return m + math.log(abs(total)), 0 if total > 0.0 else 2


def sixj_log(t: ColorSixTuple) -> QuarterPhaseLog:
    """The quantum 6j-symbol of an r-admissible 6-tuple, in log space.

    Returns real symbols only (phase 0 or 2).  The i^{-sum a} prefactor
    and the imaginary Delta factors can leave an odd phase, i.e. a
    purely imaginary symbol; such tuples raise ArithmeticError.
    """
    level = t.level
    tab = level_tables(level)
    a = t.colors
    T, Q = _half_sums(a)
    r = level.r
    zlog, zphase = _zsum_signed_log(tab, T, Q, r)
    if zlog == -math.inf:
        return QuarterPhaseLog.zero()
    a1, a2, a3, a4, a5, a6 = a
    T1, T2, T3, T4 = T
    # the four Delta factors in VERTEX_TRIPLES order, from the half-sums
    dlog, turns = _delta_logs(tab, (T1 - a3, T1 - a1, T1 - a2, T1 + 1,
                                    T2 - a6, T2 - a1, T2 - a5, T2 + 1,
                                    T3 - a6, T3 - a2, T3 - a4, T3 + 1,
                                    T4 - a5, T4 - a3, T4 - a4, T4 + 1))
    phase = (-sum(a) + turns + zphase) % 4
    if phase % 2 != 0:
        raise ArithmeticError(
            f"6j phase parity broken for {a} at r={r}: "
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
