"""Admissibility, triangle factors, 6j-symbol evaluation, and the
color-change moves."""

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


def test_sixj_symmetric_tuple_matches_oracle():
    lv = sv.OddLevel(7)
    t = sv.tuple_of((2,) * 6, lv)
    z = sv.sixj_exact_small(t)
    assert abs(z.imag) < 1e-12
    q = sv.sixj_log(t)
    assert signed(q) == pytest.approx(z.real, rel=1e-10)


def test_sixj_oracle_agreement_random(rng):
    rnd = random.Random(99)
    levels = [sv.OddLevel(r) for r in (7, 11, 31, 51, 101)]
    n_real = 0
    while n_real < 1000:
        lv = rnd.choice(levels)
        c = tuple(rnd.randrange(0, lv.r - 1) for _ in range(6))
        if not sv.is_admissible_tuple(c, lv):
            continue
        t = sv.tuple_of(c, lv)
        z = sv.sixj_exact_small(t)
        try:
            q = sv.sixj_log(t)
        except ArithmeticError:
            # symbol is genuinely non-real; the oracle must agree
            assert abs(z.imag) > 1e-12 * max(1.0, abs(z))
            continue
        assert q.phase in (0, 2) or q.is_zero
        assert abs(z.imag) <= 1e-9 * max(1.0, abs(z))
        assert signed(q) == pytest.approx(z.real, rel=1e-9, abs=1e-12)
        n_real += 1


def test_sixj_imaginary_symbols_raise_with_oracle_witness():
    # Admissible tuples whose symbol is purely imaginary: the log-space
    # path refuses (phase parity broken), the exact oracle shows why.
    t = sv.tuple_of((0, 0, 0, 1, 1, 1), sv.OddLevel(31))
    with pytest.raises(ArithmeticError, match="phase parity"):
        sv.sixj_log(t)
    z = sv.sixj_exact_small(t)
    assert z.real == pytest.approx(0.0, abs=1e-12)
    assert z.imag == pytest.approx(-0.7144570801434077, rel=1e-9)

    t2 = sv.tuple_of((0, 0, 0, 26, 26, 26), sv.OddLevel(51))
    with pytest.raises(ArithmeticError, match="phase parity"):
        sv.sixj_log(t2)       # even color total, mixed triangle signs
    z2 = sv.sixj_exact_small(t2)
    assert z2.real == pytest.approx(0.0, abs=1e-12)
    assert z2.imag == pytest.approx(-0.8177906627673199, rel=1e-9)


def index_array_sixj_log(t):
    """Reference 6j in log space with plain index arrays.

    Delta factors come from scalar `LevelTables.fact` reads and the
    z-sum gathers every factor through z-dependent index arrays; the
    floating-point operations and their order are those of the sliced
    kernel, so the two must agree exactly.
    """
    r = t.level.r
    a = t.colors
    tab = sv.level_tables(t.level)
    out = sv.QuarterPhaseLog(0.0, (-sum(a)) % 4)
    for i, j, k in sv.VERTEX_TRIPLES:
        ns = ((a[i] + a[j] - a[k]) // 2, (a[j] + a[k] - a[i]) // 2,
              (a[k] + a[i] - a[j]) // 2, (a[i] + a[j] + a[k]) // 2 + 1)
        facts = [tab.fact(n) for n in ns]
        log_rad = facts[0][0] + facts[1][0] + facts[2][0] - facts[3][0]
        out = out * sv.QuarterPhaseLog(0.5 * log_rad,
                                       sum(p for _, p in facts) & 1)
    b = sv.SumBounds.of(t)
    z = np.arange(max(b.T), min(min(b.Q), r - 2) + 1)
    lf, nc = tab.logfact, tab.negcount
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
    out = out * sv.QuarterPhaseLog(m + math.log(abs(total)),
                                   0 if total > 0.0 else 2)
    if out.phase % 2 != 0:
        raise ArithmeticError(f"6j phase parity broken for {a} at r={r}: "
                              f"phase={out.phase}")
    return out


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


@pytest.mark.parametrize("r", [5, 7, 101, 2001])
def test_sixj_kernel_matches_index_array_reference(r):
    # Edge cases of the sliced z-sum: a reversed [Q_j - z]! slice ending
    # at index 0 (Q_j = zmax), zmax clamped to r-2 (min Q > r-2), a
    # single term (zmin = zmax), colors 0 and r-2 in one tuple, and a
    # negcount slice that starts at 0 and ends above it.
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
        try:
            want = index_array_sixj_log(t)
        except ArithmeticError as exc:
            with pytest.raises(ArithmeticError) as got:
                sv.sixj_log(t)
            assert str(got.value) == str(exc)
            continue
        got = sv.sixj_log(t)
        assert (got.log_mag, got.phase) == (want.log_mag, want.phase), c
    want = {"Q_j = zmax", "clamped", "single term", "colors 0 and r-2"}
    if r > 7:  # no admissible tuple at r <= 7 has a step inside a slice
        want.add("negcount step")
    assert seen == want


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
    with pytest.raises(ValueError, match="face must be 1..4"):
        sv.change_colors_face(t, 5)
    with pytest.raises(ValueError, match="quad must be 1..3"):
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
