"""Admissibility, triangle factors, 6j-symbol evaluation, and the
color-change moves."""

import functools
import itertools
import math
import random

import numpy as np
import pytest

import sixjvol as sv

# Edge id (0-based) <-> vertex pair of the tetrahedron, used to realize
# the classical relabeling symmetries as color permutations.
EDGE_PAIR = {0: (1, 2), 1: (1, 3), 2: (1, 4), 3: (3, 4), 4: (2, 4), 5: (2, 3)}
PAIR_EDGE = {frozenset(v): k for k, v in EDGE_PAIR.items()}


def permute_colors(colors, perm):
    out = [0] * 6
    for e, (i, j) in EDGE_PAIR.items():
        out[PAIR_EDGE[frozenset((perm[i], perm[j]))]] = colors[e]
    return tuple(out)


def random_admissible(rnd, level, n):
    found = []
    while len(found) < n:
        c = tuple(rnd.randrange(0, level.r - 1) for _ in range(6))
        if sv.is_admissible_tuple(c, level):
            found.append(c)
    return found


def signed(q):
    """Signed real value of a QuarterPhaseLog (0 for the zero element)."""
    if q.is_zero:
        return 0.0
    return math.exp(q.log_mag) * (1.0 if q.phase == 0 else -1.0)


def test_is_admissible_triple_basics():
    lv = sv.OddLevel(7)
    assert sv.is_admissible_triple(0, 0, 0, lv)
    assert not sv.is_admissible_triple(1, 1, 1, lv)      # odd sum
    assert not sv.is_admissible_triple(5, 5, 5, lv)      # sum > 2(r-2)
    assert not sv.is_admissible_triple(0, 1, 3, lv)      # triangle fails
    assert not sv.is_admissible_triple(-1, 1, 0, lv)     # out of range
    assert not sv.is_admissible_triple(6, 0, 6, lv)      # color > r-2
    assert sv.is_admissible_triple(2, 2, 2, lv)


def test_color_six_tuple_rejects_bad_vertex_triple():
    lv = sv.OddLevel(7)
    with pytest.raises(ValueError, match="vertex triple"):
        sv.tuple_of((0, 0, 1, 0, 0, 0), lv)
    with pytest.raises(ValueError, match="need exactly six colors"):
        sv.tuple_of((0, 0, 0), lv)


@pytest.mark.parametrize("n", [3, 7])
def test_is_admissible_tuple_rejects_a_wrong_number_of_colors(n):
    with pytest.raises(ValueError, match="need exactly six colors"):
        sv.is_admissible_tuple((0,) * n, 7)


def test_color_records_store_an_int_level_as_odd_level():
    assert sv.ColorTriple(2, 2, 2, 7).level == sv.OddLevel(7)
    with pytest.raises(ValueError, match="inadmissible triple"):
        sv.ColorTriple(1, 1, 1, 7)
    t = sv.ColorSixTuple((0, 0, 0, 2, 2, 2), 7)
    assert t.level == sv.OddLevel(7)
    assert t == sv.tuple_of((0, 0, 0, 2, 2, 2), 7)
    assert sv.sixj_log(t) == sv.sixj_log(sv.tuple_of(t.colors, 7))
    assert t.replaced((3, 4, 5)).colors == (0, 0, 0, 3, 3, 3)
    assert sv.change_colors_face(t, 1).colors == (0, 0, 0, 3, 3, 3)
    assert sv.change_colors_quad(t, 3).colors == (5, 5, 0, 3, 3, 2)


@pytest.mark.parametrize("level", [101.9, 101.5, "101", float("nan"),
                                   float("inf"), np.float64(7.5), None])
def test_non_integral_levels_raise_type_error_not_truncate(level):
    with pytest.raises(TypeError, match="level must be an integer"):
        sv.ColorSixTuple((42,) * 6, level)
    with pytest.raises(TypeError, match="level must be an integer"):
        sv.is_admissible_triple(0, 0, 0, level)


@pytest.mark.parametrize("level", [101, 101.0, np.int64(101),
                                   np.float64(101.0), sv.OddLevel(101)])
def test_integral_levels_are_stored_as_int(level):
    t = sv.ColorSixTuple((42,) * 6, level)
    assert t.level == sv.OddLevel(101) and type(t.level.r) is int


@pytest.mark.parametrize("make, bad", [
    (lambda: sv.ColorSixTuple([2.7, 2, 2, 2, 2, 2], 11), "2.7"),  # was (2,)*6
    (lambda: sv.ColorTriple(2.5, 2.5, 3, 11), "2.5"),
    (lambda: sv.tuple_of(("2", 2, 2, 2, 2, 2), 11), "'2'"),
], ids=["six_tuple", "triple", "string"])
def test_non_integral_colors_raise_type_error_not_truncate(make, bad):
    with pytest.raises(TypeError) as exc:
        make()
    assert str(exc.value) == f"color must be an integer, got {bad}"


@pytest.mark.parametrize("admissible", [
    lambda: sv.is_admissible_triple(2.5, 2.5, 3, 11),
    lambda: sv.is_admissible_tuple((2.5, 2.5, 3, 2.5, 2.5, 3), 11),
    lambda: sv.is_admissible_triple(float("nan"), 0, 0, 11),
], ids=["triple", "tuple", "nan"])
def test_non_integral_colors_are_not_admissible(admissible):
    assert admissible() is False


def test_integral_colors_are_stored_as_int():
    t = sv.ColorSixTuple([2.0, np.int64(2), np.float64(2.0), 2, 2, 2], 11)
    assert t.colors == (2,) * 6
    assert all(type(c) is int for c in t.colors)
    assert sv.is_admissible_triple(2.0, np.int8(2), 2, 11)
    assert sv.is_admissible_tuple((2.0,) * 6, 11)
    tri = sv.ColorTriple(2.0, 2.0, np.int64(2), 11)
    assert (type(tri.a1), type(tri.a3)) == (int, int)
    assert sv.delta_triple(tri) == sv.delta_triple(sv.ColorTriple(2, 2, 2, 11))


def test_color_six_tuple_accepts_exactly_the_admissible_tuples():
    # The constructor checks the four vertex triples in one pass; it must
    # agree with is_admissible_triple on every triple and name the first
    # one that fails.  Every tuple of colors 0..r-1 at r = 5, then
    # seeded draws near the bounds of larger levels.
    rnd = random.Random(3)
    cases = [(5, c) for c in itertools.product(range(5), repeat=6)]
    for r in (7, 31, 2001):
        pal = (-1, 0, 1, 2, 3, r // 2 - 1, r // 2, r - 4, r - 3, r - 2, r - 1)
        cases += [(r, tuple(rnd.choice(pal) for _ in range(6)))
                  for _ in range(3000)]
    n_ok = 0
    for r, c in cases:
        bad = [(i, j, k) for i, j, k in sv.VERTEX_TRIPLES
               if not sv.is_admissible_triple(c[i], c[j], c[k], r)]
        try:
            got = sv.tuple_of(c, r).colors
        except ValueError as exc:
            got = str(exc)
        if bad:
            i, j, k = bad[0]
            assert got == (
                f"inadmissible tuple: vertex triple ({c[i]},{c[j]},{c[k]})"
                f" at indices ({i + 1},{j + 1},{k + 1}) fails at r={r}")
        else:
            assert got == c
            n_ok += 1
    assert n_ok > 150


def test_sum_bounds_are_integers_below_quads():
    lv = sv.OddLevel(31)
    rnd = random.Random(1)
    for c in random_admissible(rnd, lv, 50):
        b = sv.SumBounds.of(sv.tuple_of(c, lv))
        assert all(isinstance(t, int) for t in b.T)
        assert all(isinstance(q, int) for q in b.Q)
        assert max(b.T) <= min(b.Q)


def test_delta_triple_values():
    lv = sv.OddLevel(7)
    one = sv.delta_triple(sv.ColorTriple(0, 0, 0, lv))
    assert one.log_mag == 0.0 and one.phase == 0
    # direct complex oracle for (2,2,2) at r=7
    q = sv.delta_triple(sv.ColorTriple(2, 2, 2, lv))
    fact = [1.0]
    for k in range(1, 6):
        fact.append(fact[-1] * sv.quantum_integer(lv, k))
    rad = fact[1] ** 3 / fact[4]
    expect = complex(0, math.sqrt(-rad)) if rad < 0 else complex(math.sqrt(rad))
    assert q.value() == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError, match="inadmissible triple"):
        sv.delta_triple(sv.ColorTriple(1, 1, 1, lv))


def test_delta_triple_phase_parity_tracks_radicand_sign():
    # Scan small levels: the phase is odd exactly when the radicand of
    # the square root is negative (imaginary triangle factor).
    for r in (11, 31):
        lv = sv.OddLevel(r)
        fact = [1.0]
        for k in range(1, r):
            fact.append(fact[-1] * sv.quantum_integer(lv, k))
        seen_imag = False
        for a in range(0, r - 1, 2):
            for b in range(a, r - 1):
                if not sv.is_admissible_triple(a, b, b, lv):
                    continue
                rad = (fact[(a + b - b) // 2] * fact[(b + b - a) // 2]
                       * fact[(b + a - b) // 2] / fact[(a + b + b) // 2 + 1])
                q = sv.delta_triple(sv.ColorTriple(a, b, b, lv))
                assert (q.phase % 2 == 1) == (rad < 0)
                seen_imag = seen_imag or rad < 0
        assert seen_imag  # the scan really exercised the imaginary branch


def test_sixj_all_zero_is_one():
    for r in (5, 7, 101):
        q = sv.sixj_log(sv.tuple_of((0,) * 6, sv.OddLevel(r)))
        assert q.log_mag == pytest.approx(0.0, abs=1e-12)
        assert q.phase == 0
    z = sv.sixj_exact_small(sv.tuple_of((0,) * 6, sv.OddLevel(5)))
    assert z == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_lowest_level_matches_oracle():
    # r = 3, the lowest level: colors 0 and 1, and eight admissible tuples
    lv = sv.OddLevel(3)
    tuples = [sv.tuple_of(c, lv) for c in itertools.product((0, 1), repeat=6)
              if sv.is_admissible_tuple(c, lv)]
    assert len(tuples) == 8
    for t in tuples:
        assert sv.sixj_log(t).value() == pytest.approx(
            sv.sixj_exact_small(t), abs=1e-14)


def test_sixj_symmetric_tuple_matches_oracle():
    lv = sv.OddLevel(7)
    t = sv.tuple_of((2,) * 6, lv)
    z = sv.sixj_exact_small(t)
    assert abs(z.imag) < 1e-12
    q = sv.sixj_log(t)
    assert signed(q) == pytest.approx(z.real, rel=1e-10)


def test_sixj_oracle_agreement_random(rng):
    # every admissible symbol is returned, real or purely imaginary, and
    # its value is the oracle's
    rnd = random.Random(99)
    levels = [sv.OddLevel(r) for r in (7, 11, 31, 51, 101)]
    n_real = n_imaginary = 0
    while n_real < 1000:
        lv = rnd.choice(levels)
        c = tuple(rnd.randrange(0, lv.r - 1) for _ in range(6))
        if not sv.is_admissible_tuple(c, lv):
            continue
        t = sv.tuple_of(c, lv)
        z = sv.sixj_exact_small(t)
        q = sv.sixj_log(t)
        assert q.value() == pytest.approx(z, rel=1e-9, abs=1e-12)
        if q.phase % 2:
            assert abs(z.real) <= 1e-9 * abs(z)
            n_imaginary += 1
        else:
            assert abs(z.imag) <= 1e-9 * max(1.0, abs(z))
            assert signed(q) == pytest.approx(z.real, rel=1e-9, abs=1e-12)
            n_real += 1
    assert n_imaginary > 100


def test_sixj_imaginary_symbols_match_oracle_witness():
    # Admissible tuples whose symbol is purely imaginary: the log-space
    # path returns an odd phase, which only real_sign refuses.
    t = sv.tuple_of((0, 0, 0, 1, 1, 1), sv.OddLevel(31))
    q = sv.sixj_log(t)
    assert (q.log_mag, q.phase) == (-0.33623235319477174, 3)
    z = sv.sixj_exact_small(t)
    assert z.real == pytest.approx(0.0, abs=1e-12)
    assert z.imag == pytest.approx(-0.7144570801434077, rel=1e-9)
    assert q.value() == pytest.approx(z, rel=1e-12)
    with pytest.raises(ValueError, match="imaginary phase 3"):
        q.real_sign()

    t2 = sv.tuple_of((0, 0, 0, 26, 26, 26), sv.OddLevel(51))
    q2 = sv.sixj_log(t2)  # even color total, mixed triangle signs
    assert (q2.log_mag, q2.phase) == (-0.20114888861822067, 3)
    z2 = sv.sixj_exact_small(t2)
    assert z2.real == pytest.approx(0.0, abs=1e-12)
    assert z2.imag == pytest.approx(-0.8177906627673199, rel=1e-9)
    assert q2.value() == pytest.approx(z2, rel=1e-12)


@functools.lru_cache(maxsize=None)
def negative_factor_parity(r):
    """nc[n] = #{1 <= k <= n : [k] < 0} mod 2 for n = 0..r-1, counted
    from the quantum integers themselves, not from a closed form."""
    lv = sv.OddLevel(r)
    negatives = [sv.quantum_integer(lv, k) < 0 for k in range(1, r)]
    return np.concatenate([[0], np.cumsum(negatives) & 1])


def index_array_sixj_log(t):
    """Reference 6j in log space with plain index arrays.

    Delta factors come from scalar reads of `logfact` and the z-sum
    gathers every factor through z-dependent index arrays, with sign
    parities from `negative_factor_parity`; the floating-point
    operations and their order are those of the sliced kernel, so the
    two must agree exactly.
    """
    r = t.level.r
    a = t.colors
    lf, nc = sv.level_tables(t.level).logfact, negative_factor_parity(r)
    out = sv.QuarterPhaseLog(0.0, (-sum(a)) % 4)
    for i, j, k in sv.VERTEX_TRIPLES:
        ns = ((a[i] + a[j] - a[k]) // 2, (a[j] + a[k] - a[i]) // 2,
              (a[k] + a[i] - a[j]) // 2, (a[i] + a[j] + a[k]) // 2 + 1)
        facts = [(float(lf[n]), int(nc[n])) for n in ns]
        log_rad = facts[0][0] + facts[1][0] + facts[2][0] - facts[3][0]
        out = out * sv.QuarterPhaseLog(0.5 * log_rad,
                                       sum(p for _, p in facts) & 1)
    b = sv.SumBounds.of(t)
    z = np.arange(max(b.T), min(min(b.Q), r - 2) + 1)
    log_mag = lf[z + 1].copy()
    parity = nc[z + 1] + z
    for ti in b.T:
        log_mag -= lf[z - ti]
        parity = parity + nc[z - ti]
    for qj in b.Q:
        log_mag -= lf[qj - z]
        parity = parity + nc[qj - z]
    signs = 1.0 - 2.0 * (parity & 1)
    m = float(np.max(log_mag))
    total = float(np.sum(signs * np.exp(log_mag - m)))
    if total == 0.0:
        return sv.QuarterPhaseLog.zero()
    return out * sv.QuarterPhaseLog(m + math.log(abs(total)),
                                    0 if total > 0.0 else 2)


def kernel_edge_tuples(r):
    """Admissible tuples at level r: every one for r <= 7, else a seeded
    draw from colors at the ends and the middle of [0, r-2], plus
    tuples built to hit the clamp, both extreme colors, and a [z-T_1]!
    slice that crosses the step of negcount at (r-1)/2."""
    if r <= 7:
        cands = itertools.product(range(r - 1), repeat=6)
    else:
        h = (r - 1) // 2
        palette = sorted({0, 1, 2, 3, h - 2, h - 1, h, h + 1, h + 2,
                          2 * r // 3, r - 5, r - 4, r - 3, r - 2})
        rnd = random.Random(r)
        c = 2 * ((r - 2) // 3)  # T = 3c/2 <= r-2 < 2c = Q: zmax clamped
        b = (r + 3) // 2  # small face (2,2,2) opposite big colors b
        cands = [(0,) * 6, (c,) * 6, (0, r - 2, r - 2, 0, r - 2, r - 2),
                 (2, 2, 2, b, b, b)]
        cands += [tuple(rnd.choice(palette) for _ in range(6))
                  for _ in range(4000)]
    return [c for c in cands if sv.is_admissible_tuple(c, r)]


@pytest.mark.parametrize("r", [5, 7, 101, 2001, 10001])
def test_sixj_kernel_matches_index_array_reference(r):
    # Edge cases of the sliced z-sum: a reversed [Q_j - z]! slice ending
    # at index 0 (Q_j = zmax), zmax clamped to r-2 (min Q > r-2), a
    # single term (zmin = zmax), colors 0 and r-2 in one tuple, a
    # negcount slice that starts at 0 and ends above it, and both real
    # and imaginary symbols.
    seen = set()
    for c in kernel_edge_tuples(r):
        t = sv.tuple_of(c, r)
        b = sv.SumBounds.of(t)
        zmin, zmax = max(b.T), min(min(b.Q), r - 2)
        seen.add("Q_j = zmax" if min(b.Q) <= r - 2 else "clamped")
        if zmin == zmax:
            seen.add("single term")
        if 0 in c and r - 2 in c:
            seen.add("colors 0 and r-2")
        if any(zmin - ti <= (r - 1) // 2 < zmax - ti for ti in b.T):
            seen.add("negcount step")
        want = index_array_sixj_log(t)
        seen.add("imaginary" if want.phase % 2 else "real")
        got = sv.sixj_log(t)
        assert (got.log_mag, got.phase) == (want.log_mag, want.phase), c
    want = {"Q_j = zmax", "clamped", "single term", "colors 0 and r-2",
            "imaginary", "real"}
    if r > 7:  # no admissible tuple at r <= 7 has a step inside a slice
        want.add("negcount step")
    assert seen == want


def sign_breakpoints(t):
    """(lo, hi, [(z, factor)]): the z-range [lo, hi) of the sum and the
    z in (lo, hi) at which one of the eight factorials [n]! of a term
    crosses n = (r-1)/2, above which [n] < 0: [z+1]! and [z-T_i]! come
    on at the first z with n > (r-1)/2, [Q_j-z]! goes off there."""
    r = t.level.r
    h = (r - 1) // 2
    b = sv.SumBounds.of(t)
    lo, hi = max(b.T), min(min(b.Q), r - 2) + 1
    cuts = [(h, "[z+1]!")] + [(h + 1 + ti, "[z-T_i]!") for ti in b.T]
    cuts += [(qj - h, "[Q_j-z]!") for qj in b.Q]
    return lo, hi, sorted(c for c in cuts if lo < c[0] < hi)


def term_parities(t):
    """Sign parity of every z-term, gathered from
    `negative_factor_parity`."""
    r = t.level.r
    b = sv.SumBounds.of(t)
    z = np.arange(max(b.T), min(min(b.Q), r - 2) + 1)
    nc = negative_factor_parity(r)
    parity = nc[z + 1] + z
    for ti in b.T:
        parity = parity + nc[z - ti]
    for qj in b.Q:
        parity = parity + nc[qj - z]
    return parity & 1


def sign_case_tuples(r):
    """Tuples whose z-range holds a sign breakpoint: (x,x,x,y,y,y) with
    max T = h-1 ([z+1]! switches at lo+1) or min Q = h (at hi-1), their
    images under the face and quadrilateral moves, and seeded draws."""
    h = (r - 1) // 2
    base = []
    for m in (1, 2, 3, h // 4, h // 3 - 1):
        base += [(2 * m,) * 3 + (h - 1 - m,) * 3,
                 (2 * m,) * 3 + (h - 2 * m,) * 3]
    out = []
    for c in base:
        t = sv.tuple_of(c, r)
        out += [t] + [sv.change_colors_face(t, f) for f in (1, 2, 3, 4)]
        out += [sv.change_colors_quad(t, q) for q in (1, 2, 3)]
    rnd = random.Random(r)
    while len(out) < len(base) * 8 + 40:
        c = tuple(rnd.randrange(0, r - 1) for _ in range(6))
        if sv.is_admissible_tuple(c, r):
            out.append(sv.tuple_of(c, r))
    return out


@pytest.mark.parametrize("r", [101, 2001, 10001])
def test_sixj_closed_form_signs_match_index_array_reference(r):
    # The kernel signs the terms from the breakpoints of the eight
    # factorials instead of counting negative factors.  Between
    # breakpoints the counted parity must be constant or alternate, and
    # the symbol, real or imaginary, must equal the index-array
    # reference bit for bit.
    seen = set()
    for t in sign_case_tuples(r):
        lo, hi, cuts = sign_breakpoints(t)
        assert len(cuts) <= 1, (t.colors, cuts)
        parity = term_parities(t)
        bounds = [lo] + [z for z, _ in cuts] + [hi]
        for a, b in zip(bounds, bounds[1:]):
            seg = parity[a - lo:b - lo]
            if len(seg) < 2:
                continue
            if np.all(seg == seg[0]):
                seen.add("constant segment")
            else:
                assert np.all(seg[1:] != seg[:-1]), (t.colors, a, b)
                seen.add("alternating segment")
        for z, factor in cuts:
            seen.add(factor)
            seen.add("at lo+1" if z == lo + 1 else
                     "at hi-1" if z == hi - 1 else "interior")
        want = index_array_sixj_log(t)
        seen.add("imaginary" if want.phase % 2 else "real")
        got = sv.sixj_log(t)
        assert (got.log_mag, got.phase) == (want.log_mag, want.phase), \
            t.colors
    assert seen == {"constant segment", "alternating segment", "at lo+1",
                    "at hi-1", "interior", "[z+1]!", "[z-T_i]!",
                    "[Q_j-z]!", "imaginary", "real"}


@pytest.mark.parametrize("r", [9, 11])
def test_at_most_one_sign_breakpoint_inside_any_z_range(r):
    # Exhaustive over every admissible tuple: the sign rule of the terms
    # changes at most once inside the z-range, which is what lets the
    # kernel sign a symbol with one strided slice.
    h = (r - 1) // 2
    a = np.indices((r - 1,) * 6, dtype=np.int16).reshape(6, -1)
    ok = np.ones(a.shape[1], dtype=bool)
    for i, j, k in sv.VERTEX_TRIPLES:
        x, y, w = a[i], a[j], a[k]
        s = x + y + w
        ok &= (s % 2 == 0) & (s <= 2 * (r - 2))
        ok &= (x + y >= w) & (y + w >= x) & (w + x >= y)
    a = a[:, ok]
    T = np.stack([a[i] + a[j] + a[k] for i, j, k in sv.VERTEX_TRIPLES]) // 2
    # each quadrilateral's four colors give one half-sum Q_j
    Q = np.stack([a[i] + a[j] + a[k] + a[m]
                  for i, j, k, m in sv.QUAD_MOVES]) // 2
    lo = T.max(axis=0)
    hi = np.minimum(Q.min(axis=0), r - 2) + 1
    cuts = np.concatenate([np.full((1, lo.size), h), h + 1 + T, Q - h])
    inside = ((cuts > lo) & (cuts < hi)).sum(axis=0)
    assert inside.max() == 1
    assert (inside == 1).sum() > 0


def test_sixj_oracle_level_cap():
    with pytest.raises(ValueError, match="oracle limited to small levels"):
        sv.sixj_exact_small(sv.tuple_of((0,) * 6, sv.OddLevel(203)))


def test_classical_symmetries_preserve_exact_value():
    # The 24 vertex relabelings permute the colors without touching the
    # value (triangle factors and the z-sum data are permuted along).
    lv = sv.OddLevel(31)
    rnd = random.Random(7)
    perms = [dict(zip((1, 2, 3, 4), p))
             for p in itertools.permutations((1, 2, 3, 4))]
    for c in random_admissible(rnd, lv, 20):
        z0 = sv.sixj_exact_small(sv.tuple_of(c, lv))
        for pm in perms:
            c2 = permute_colors(c, pm)
            assert sv.is_admissible_tuple(c2, lv)
            z1 = sv.sixj_exact_small(sv.tuple_of(c2, lv))
            assert z1 == pytest.approx(z0, rel=1e-9, abs=1e-12)


def test_change_colors_face_basics():
    lv = sv.OddLevel(7)
    t = sv.tuple_of((0,) * 6, lv)
    t1 = sv.change_colors_face(t, 1)
    assert sorted(t1.colors) == [0, 0, 0, 5, 5, 5]
    assert sv.change_colors_face(t1, 1).colors == t.colors  # involution
    with pytest.raises(ValueError, match=r"face must be in 1\.\.4, got 5"):
        sv.change_colors_face(t, 5)
    with pytest.raises(ValueError, match=r"quad must be in 1\.\.3, got 0"):
        sv.change_colors_quad(t, 0)


def test_face_and_quad_moves_preserve_magnitude():
    # The moves can rotate the overall phase (square-root branch
    # choices), but |6j| is invariant; compare against the exact oracle.
    for r in (7, 31):
        lv = sv.OddLevel(r)
        rnd = random.Random(r)
        for c in random_admissible(rnd, lv, 60):
            t = sv.tuple_of(c, lv)
            m0 = abs(sv.sixj_exact_small(t))
            for face in (1, 2, 3, 4):
                m1 = abs(sv.sixj_exact_small(sv.change_colors_face(t, face)))
                assert m1 == pytest.approx(m0, rel=1e-9, abs=1e-12)
            for quad in (1, 2, 3):
                m1 = abs(sv.sixj_exact_small(sv.change_colors_quad(t, quad)))
                assert m1 == pytest.approx(m0, rel=1e-9, abs=1e-12)


def test_two_face_moves_sharing_a_color_compose_to_a_quad_move():
    # Faces 1 and 2 share color a1; flipping both flips the quad
    # {a2, a3, a5, a6}, which is the quad move fixing the pair (1, 4).
    lv = sv.OddLevel(31)
    rnd = random.Random(3)
    for c in random_admissible(rnd, lv, 40):
        t = sv.tuple_of(c, lv)
        composed = sv.change_colors_face(sv.change_colors_face(t, 1), 2)
        direct = sv.change_colors_quad(t, 1)
        assert composed.colors == direct.colors


def test_same_sign_summands_for_negative_cofactor_plans():
    # For canonical colorings whose limit angles carry a negative
    # diagonal cofactor, every term of the z-sum has the same sign.
    # Recompute the term signs from the factorial tables directly.
    cases = [
        ((math.pi / 6,) * 6, 101),    # all-hyperideal limit
        ((0.0,) * 6, 101),            # alpha = pi: ideal octahedron limit
    ]
    for theta, r in cases:
        al = sv.AlphaSixTuple.from_theta(sv.AngleSixTuple(theta), (-1,) * 6)
        t = sv.colors_for_r(al, r)
        lv = t.level
        tab = sv.level_tables(lv)
        b = sv.SumBounds.of(t)
        signs = set()
        for z in range(max(b.T), min(min(b.Q), lv.r - 2) + 1):
            parity = z  # (-1)^z
            log_mag, p = tab.fact(z + 1)
            parity += p
            for ti in b.T:
                _, p = tab.fact(z - ti)
                parity += p
            for qj in b.Q:
                _, p = tab.fact(qj - z)
                parity += p
            signs.add(parity % 2)
        assert len(signs) == 1


def test_triple_rule_is_the_colour_rule_on_one_triple():
    # (a1, a2, a3, a1, a2, a3) has the triple (a1, a2, a3) at every vertex
    for r in range(3, 12):
        top = r - 2
        for a in itertools.product(range(-4, r + 3), repeat=3):
            a1, a2, a3 = a
            s = a1 + a2 + a3
            stated = (all(0 <= x <= top for x in a)  # the module docstring
                      and s % 2 == 0 and s <= 2 * top
                      and a1 + a2 >= a3 and a2 + a3 >= a1 and a3 + a1 >= a2)
            assert sv.sixj._triple_ok(a1, a2, a3, r) is stated, (a, r)
            assert sv.sixj._colors_ok(a + a, r) is stated, (a, r)


def test_big_colors_and_canonicalize_shapes():
    lv = sv.OddLevel(31)
    t = sv.tuple_of((2, 2, 2, 20, 20, 20), lv)
    assert sv.big_colors(t) == (3, 4, 5)
    ct = sv.canonicalize(t)
    assert ct.colors == (2, 2, 2, 9, 9, 9)
    assert sv.big_colors(ct) == ()
    # already-canonical tuples come back unchanged
    t0 = sv.tuple_of((2, 2, 2, 2, 2, 2), lv)
    assert sv.canonicalize(t0).colors == t0.colors


def test_canonicalize_property_random():
    for r in (31, 51):
        lv = sv.OddLevel(r)
        rnd = random.Random(r + 9)
        for c in random_admissible(rnd, lv, 120):
            t = sv.tuple_of(c, lv)
            ct = sv.canonicalize(t)
            big = sv.big_colors(ct)
            assert (len(big) <= 1
                    or (len(big) == 2 and tuple(sorted(big)) in sv.OPPOSITE_PAIRS))
            m0 = abs(sv.sixj_exact_small(t))
            m1 = abs(sv.sixj_exact_small(ct))
            assert m1 == pytest.approx(m0, rel=1e-9, abs=1e-12)
            # deterministic
            assert sv.canonicalize(t).colors == ct.colors
