"""Reference values the benchmark checks the library against.

Nothing here imports `sixjvol`: the colour rounding and the 6j z-sum are
written out again from their definitions, so a defect in the library
cannot hide in its own reference.

`sixj_mp` evaluates the quantum 6j-symbol at q = e^{2 pi i / r} in
mpmath at `dps` significant digits (60 by default).  Quantum integers
are sine ratios [k] = sin(2 pi k / r) / sin(2 pi / r) and the factorials
are exact signed products, so the alternating z-sum can cancel by tens
of e-folds and still keep far more than the 1e-9 that the checks ask
of log|6j|.
"""

from __future__ import annotations

import math

from mpmath import mp

VERTEX_TRIPLES = ((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4))
QUADS = ((0, 1, 3, 4), (0, 2, 3, 5), (1, 2, 4, 5))
TWO_PI = 2.0 * math.pi

# Tolerances of the checks.
LOG_TOL = 1e-9       # |log|6j| - reference|
FIT_TOL = 1e-2       # |c0 - growth-rate target|
VOLUME_TOL = 1e-9    # |volume - volume_by_max|
GRAM_TOL = 1e-9      # <u_i, u_j> of reported normals against -cos theta_ij

_FACTORIALS: dict[tuple[int, int], list] = {}


def nearest_even(x: float) -> int:
    """Even integer nearest to x, ties broken downward."""
    lo = 2 * math.floor(x / 2.0)
    return lo if (x - lo) <= (lo + 2 - x) else lo + 2


def colors_at(alpha, r: int) -> tuple[int, ...]:
    """Even rounding of r * alpha / (2 pi), clamped to [0, r - 3]."""
    return tuple(min(max(nearest_even(r * a / TWO_PI), 0), r - 3)
                 for a in alpha)


def _factorials(r: int, dps: int) -> list:
    """Signed [n]! for n = 0 .. r-1 at `dps` digits, cached per level."""
    key = (r, dps)
    table = _FACTORIALS.get(key)
    if table is None:
        with mp.workdps(dps):
            step = 2 * mp.pi / r
            s1 = mp.sin(step)
            table = [mp.mpf(1)] * r
            acc = mp.mpf(1)
            for k in range(1, r):
                acc = acc * (mp.sin(step * k) / s1)
                table[k] = acc
        _FACTORIALS[key] = table
    return table


def sixj_mp(colors, r: int, dps: int = 60) -> tuple[float, int]:
    """(log|6j|, phase in quarter turns) of an r-admissible 6-tuple.

    The symbol is i^{-sum a} * prod of four Delta factors * the z-sum;
    Delta(a,b,c) = sqrt([x]![y]![w]!/[s+1]!) with sqrt(x) = i sqrt|x| for
    a negative radicand.  An exactly zero symbol gives (-inf, 0).
    """
    a = tuple(int(c) for c in colors)
    f = _factorials(r, dps)
    T = [(a[i] + a[j] + a[k]) // 2 for i, j, k in VERTEX_TRIPLES]
    Q = [sum(a[i] for i in quad) // 2 for quad in QUADS]
    with mp.workdps(dps):
        total = mp.mpf(0)
        for z in range(max(T), min(min(Q), r - 2) + 1):
            den = f[Q[0] - z] * f[Q[1] - z] * f[Q[2] - z]
            for t in T:
                den *= f[z - t]
            term = f[z + 1] / den
            total = total - term if z & 1 else total + term
        if total == 0:
            return -math.inf, 0
        log_mag = mp.log(abs(total))
        phase = (-sum(a)) % 4 + (0 if total > 0 else 2)
        for i, j, k in VERTEX_TRIPLES:
            s = (a[i] + a[j] + a[k]) // 2
            rad = f[s - a[k]] * f[s - a[i]] * f[s - a[j]] / f[s + 1]
            log_mag += mp.log(abs(rad)) / 2
            phase += 1 if rad < 0 else 0
        return float(log_mag), phase % 4


def admissible(colors, r: int) -> bool:
    """r-admissibility of a 6-tuple: at every vertex the colours have an
    even sum, satisfy the triangle inequalities and sum to at most
    2(r - 2)."""
    a = tuple(int(c) for c in colors)
    for i, j, k in VERTEX_TRIPLES:
        x, y, z = a[i], a[j], a[k]
        s = x + y + z
        if (min(a) < 0 or s % 2 or s > 2 * (r - 2)
                or x > y + z or y > x + z or z > x + y):
            return False
    return True


def is_imaginary(colors, r: int) -> bool:
    """Whether the symbol of an r-admissible 6-tuple is purely imaginary.

    Exact, without evaluating the symbol: [k] = sin(2 pi k / r) / sin(2 pi
    / r) is negative exactly for k > (r - 1) / 2, so [n]! has
    max(0, n - (r - 1) / 2) negative factors.  With even colours the
    prefactor i^{-sum a} is real and the z-sum is real, so the symbol is
    imaginary when an odd number of Delta radicands is negative.
    """
    a = tuple(int(c) for c in colors)
    half = (r - 1) // 2

    def negatives(n: int) -> int:
        return max(0, n - half)
    odd = 0
    for i, j, k in VERTEX_TRIPLES:
        s = (a[i] + a[j] + a[k]) // 2
        odd += (negatives(s - a[i]) + negatives(s - a[j])
                + negatives(s - a[k]) + negatives(s + 1))
    return sum(a) % 2 == 0 and odd % 2 == 1


def phase_of_complex(x: complex) -> int:
    """Quarter-turn phase of a value that is real or purely imaginary."""
    if abs(x.real) >= abs(x.imag):
        return 0 if x.real > 0 else 2
    return 1 if x.imag > 0 else 3


def value_misses(log_abs: float, phase: int,
                 ref_log: float, ref_phase: int) -> bool:
    """True when a reported (log|6j|, phase) disagrees with the reference."""
    if math.isinf(ref_log) or math.isinf(log_abs):
        return not (math.isinf(ref_log) and math.isinf(log_abs))
    return abs(log_abs - ref_log) > LOG_TOL or phase % 4 != ref_phase % 4
