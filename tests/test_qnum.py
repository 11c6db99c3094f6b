"""Quantum integers, factorial tables, and brace-factorial asymptotics."""

import math
import re

import numpy as np
import pytest

import sixjvol as sv
from sixjvol import growth
from conftest import lob_quad


def test_level_validation():
    sv.OddLevel(3)
    sv.OddLevel(2001)
    with pytest.raises(ValueError, match="odd"):
        sv.OddLevel(4)
    with pytest.raises(ValueError, match="odd"):
        sv.OddLevel(1)
    # an integral float is read as its int, as at every level entry
    assert sv.OddLevel(7.0) == sv.OddLevel(7)
    assert type(sv.OddLevel(7.0).r) is int
    with pytest.raises(TypeError, match="integer"):
        sv.OddLevel(7.5)


_PI6 = sv.AlphaSixTuple.from_alpha((5 * math.pi / 6,) * 6)
_PRISM = sv.PrismSpec((math.pi / 6,) * 3, (math.pi / 6,) * 3,
                      (math.pi / 6,) * 3)

# Every entry that takes a level, as level -> what it keeps of it; the
# scan entries ask r >= 5, the others r >= 3.
LEVEL_ENTRIES = {
    "OddLevel": lambda r: sv.OddLevel(r).r,
    "ColorSixTuple": lambda r: sv.ColorSixTuple((42,) * 6, r).level.r,
    "level_tables": lambda r: sv.level_tables(r).level.r,
    "quantum_integer": lambda r: sv.quantum_integer(r, 2),
    "is_admissible_tuple": lambda r: sv.is_admissible_tuple((42,) * 6, r),
}
SCAN_ENTRIES = {
    "GrowthPlan": lambda r: sv.GrowthPlan(_PI6, (r, 103, 105)).r_list,
    "prism_conjecture_check": lambda r: [s.r for s in (
        sv.prism_conjecture_check(_PRISM, (r, 103, 105, 107, 109)).samples)],
    "even_colors": lambda r: growth.even_colors((6.2,) * 6, r),
    "colors_for_r": lambda r: sv.colors_for_r(_PI6, r),
    "prism_colors_for_r": lambda r: sv.prism_colors_for_r(_PRISM, r),
}


@pytest.mark.parametrize("name", [*LEVEL_ENTRIES, *SCAN_ENTRIES])
def test_one_level_rule_at_every_entry(name):
    entry = {**LEVEL_ENTRIES, **SCAN_ENTRIES}[name]
    for bad in (101.5, float("nan"), "101"):
        with pytest.raises(TypeError, match="^level must be an integer, got "
                                            + re.escape(repr(bad)) + "$"):
            entry(bad)
    # an integral level of any type is read as its int: the repr tells
    # an int from a numpy integer, inside a record or a tuple too
    want = repr(entry(101))
    assert "np." not in want
    for good in (101.0, np.int64(101)):
        assert repr(entry(good)) == want
    with pytest.raises(ValueError):
        entry(8)
    if name in SCAN_ENTRIES:
        with pytest.raises(ValueError, match="^levels must be odd integers "
                                             ">= 5, got 3$"):
            entry(3)


def test_quantum_integer_small_values():
    lv = sv.OddLevel(7)
    assert sv.quantum_integer(lv, 0) == 0.0
    assert sv.quantum_integer(lv, 1) == pytest.approx(1.0, abs=1e-15)
    expect = math.sin(4 * math.pi / 7) / math.sin(2 * math.pi / 7)
    assert sv.quantum_integer(lv, 2) == pytest.approx(expect, rel=1e-15)
    assert sv.quantum_integer(lv, 2) == pytest.approx(1.24698, abs=1e-5)


def test_quantum_integer_chebyshev_recurrence():
    # [n+1] + [n-1] = 2 cos(2 pi / r) [n], checked wherever |[n]| <= 10.
    for r in (7, 31, 101, 1001):
        lv = sv.OddLevel(r)
        c = 2.0 * math.cos(2.0 * math.pi / r)
        for n in range(-2 * r, 2 * r):
            qn = sv.quantum_integer(lv, n)
            if abs(qn) > 10.0:
                continue
            lhs = sv.quantum_integer(lv, n + 1) + sv.quantum_integer(lv, n - 1)
            assert abs(lhs - c * qn) <= 1e-12


def test_quantum_integer_negative_for_large_colors():
    # [k] < 0 exactly when the reduced angle passes pi, i.e. k > r/2.
    lv = sv.OddLevel(31)
    for k in range(1, 31):
        assert (sv.quantum_integer(lv, k) < 0) == (k > 15.5)


def test_log_quantum_factorial_edge_cases():
    lv = sv.OddLevel(7)
    for n in (0, 1):
        q = sv.log_quantum_factorial(lv, n)
        assert q.log_mag == 0.0 and q.phase == 0
    with pytest.raises(ValueError, match="color out of range"):
        sv.log_quantum_factorial(lv, 6)
    with pytest.raises(ValueError, match="color out of range"):
        sv.log_quantum_factorial(lv, -1)


def test_log_quantum_factorial_matches_linear_product_all_levels():
    # exp(log_mag) * i^phase == prod [k] in plain float arithmetic,
    # for every admissible n at every odd level up to 201.
    for r in range(3, 202, 2):
        lv = sv.OddLevel(r)
        ks = np.arange(1, r - 1)
        vals = np.sin(2 * np.pi * ks / r) / math.sin(2 * math.pi / r)
        prod = np.concatenate([[1.0], np.cumprod(vals)])
        for n in range(0, r - 1):
            q = sv.log_quantum_factorial(lv, n)
            assert q.phase in (0, 2)
            got = math.exp(q.log_mag) * (1.0 if q.phase == 0 else -1.0)
            assert got == pytest.approx(prod[n], rel=1e-10)


def test_quarter_phase_log_arithmetic():
    a = sv.QuarterPhaseLog.from_real(-2.5)
    assert a.phase == 2 and a.value() == pytest.approx(-2.5)
    assert a.real_sign() == -1
    b = sv.QuarterPhaseLog(0.5, 3)
    prod = a * b
    assert prod.value() == pytest.approx(a.value() * b.value(), rel=1e-12)
    one = sv.QuarterPhaseLog.one()
    assert (one * a).value() == pytest.approx(a.value())
    z = sv.QuarterPhaseLog.zero()
    assert z.is_zero and z.phase == 0 and z.real_sign() == 0
    assert (z * a).is_zero
    # a zero factor on either side gives exactly the pair (-inf, 0),
    # whose value is +0j
    for x in (b, sv.QuarterPhaseLog(-2.0, 1), z):
        assert tuple(z * x) == tuple(x * z) == (float("-inf"), 0)
    v = z.value()
    assert v == 0j and type(v) is complex
    assert math.copysign(1.0, v.real) == math.copysign(1.0, v.imag) == 1.0


@pytest.mark.parametrize("fn", [sv.quantum_integer, sv.log_quantum_factorial,
                                sv.log_brace_factorial])
def test_accessors_read_n_by_the_index_rule(fn):
    # n is read as every integer argument is (`qnum._index`): an integral
    # float or a numpy integer gives the int answer; anything else is a
    # TypeError naming n, never truncated
    want = fn(101, 2)
    for n in (2.0, np.int64(2), np.float64(2.0)):
        got = fn(101, n)
        assert got == want and type(got) is type(want)
    for bad in (2.5, "2", float("nan")):
        with pytest.raises(TypeError) as exc:
            fn(101, bad)
        assert str(exc.value) == f"n must be an integer, got {bad!r}"


def test_value_records_normalise_compare_and_refuse_assignment():
    inf = math.inf
    Q = sv.QuarterPhaseLog
    made = [
        (Q(0.5, 7), (0.5, 3)), (Q(0.5, -1), (0.5, 3)), (Q(0.5, 4), (0.5, 0)),
        (Q(-inf, 3), (-inf, 0)), (Q(-inf, -2), (-inf, 0)),
        (Q.from_real(-2.0), (math.log(2.0), 2)),
        (Q.from_real(0.0), (-inf, 0)), (Q.one(), (0.0, 0)),
        (Q.zero(), (-inf, 0)), (Q(1.0, 3) * Q(2.0, 3), (3.0, 2)),
        (Q(1.0, 1) * Q.zero(), (-inf, 0)), (Q.zero() * Q(1.0, 1), (-inf, 0)),
    ]
    for q, (log_mag, phase) in made:
        assert (q.log_mag, q.phase) == (log_mag, phase)
        assert 0 <= q.phase < 4

    lv = sv.OddLevel(7)
    t = sv.ColorSixTuple((0, 0, 0, 2, 2, 2), 7)
    records = [(Q(0.5, 1), ("log_mag", "phase")), (lv, ("r",)),
               (sv.ColorTriple(2, 2, 2, 7), ("a1", "a2", "a3", "level")),
               (t, ("colors", "level"))]
    for rec, fields in records:
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))

    assert lv == sv.OddLevel(7) and lv != sv.OddLevel(9)
    assert hash(lv) == hash(sv.OddLevel(7))
    twin = sv.ColorSixTuple([0, 0, 0, 2, 2, 2], sv.OddLevel(7))
    assert t == twin and hash(t) == hash(twin) and t is not twin
    assert t != sv.ColorSixTuple((0, 0, 0, 2, 2, 2), 9)
    keys = {lv: "level", t: "tuple"}
    assert keys[sv.OddLevel(7)] == "level" and keys[twin] == "tuple"
    assert len({t, twin, sv.tuple_of(t.colors, 7)}) == 1

    colors = growth.even_colors((1.0, 2.0, 3.0, 1.0, 2.0, 3.0), 101)
    assert type(colors) is tuple


def test_quarter_phase_log_is_its_pair():
    q = sv.QuarterPhaseLog(0.5, 6)
    log_mag, phase = q
    assert (log_mag, phase) == (0.5, 2) and q == (0.5, 2)
    assert hash(q) == hash((0.5, 2))
    assert repr(q) == "QuarterPhaseLog(log_mag=0.5, phase=2)"
    assert repr(sv.OddLevel(7)) == "OddLevel(r=7)"
    assert repr(sv.ColorSixTuple((0, 0, 0, 2, 2, 2), 7)) == (
        "ColorSixTuple(colors=(0, 0, 0, 2, 2, 2), level=OddLevel(r=7))")


def test_quarter_phase_log_multiplication_vs_complex(rng):
    for _ in range(200):
        xs = rng.uniform(-3.0, 3.0, size=2)
        ph = rng.integers(0, 4, size=2)
        qa = sv.QuarterPhaseLog(math.log(abs(xs[0])), int(ph[0]))
        qb = sv.QuarterPhaseLog(math.log(abs(xs[1])), int(ph[1]))
        za = abs(xs[0]) * 1j ** int(ph[0])
        zb = abs(xs[1]) * 1j ** int(ph[1])
        assert (qa * qb).value() == pytest.approx(za * zb, rel=1e-12)


def test_log_brace_factorial_small_values():
    assert sv.log_brace_factorial(sv.OddLevel(5), 1) == pytest.approx(
        math.log(2 * math.sin(2 * math.pi / 5)), rel=1e-14)
    lv = sv.OddLevel(7)
    expect = sum(math.log(abs(2 * math.sin(2 * math.pi * k / 7)))
                 for k in (1, 2, 3))
    assert sv.log_brace_factorial(lv, 3) == pytest.approx(expect, rel=1e-13)
    with pytest.raises(ValueError, match="out of range"):
        sv.log_brace_factorial(lv, 0)
    with pytest.raises(ValueError, match="out of range"):
        sv.log_brace_factorial(lv, 7)


def test_log_brace_factorial_lobachevsky_leading_term():
    # log|{n}!| = -(r / 2 pi) Lob(2 pi n / r) + O(log r).
    r, n = 1001, 400
    got = sv.log_brace_factorial(sv.OddLevel(r), n)
    lead = -(r / (2 * math.pi)) * sv.lobachevsky(2 * math.pi * n / r)
    assert abs(got - lead) <= 1.0 * math.log(r)


def test_brace_factorial_error_bound_grows_at_most_log():
    # Fit the O(log r) constant on two levels and check it covers a
    # level 4x larger (with slack for the fit).
    def worst(r):
        lv = sv.OddLevel(r)
        return max(abs(sv.log_brace_factorial(lv, n)
                       + (r / (2 * math.pi)) * sv.lobachevsky(2 * math.pi * n / r))
                   for n in range(1, r))

    e101, e401, e1601 = worst(101), worst(401), worst(1601)
    c = max(e101 / math.log(101), e401 / math.log(401))
    assert e1601 <= 1.5 * c * math.log(1601)


# ------------------------------------------------- lean per-level tables

@pytest.mark.parametrize("r", [5, 7, 101, 2001])
def test_fact_parity_counts_negative_quantum_integers(r):
    lv = sv.OddLevel(r)
    tab = sv.LevelTables(lv)
    assert tab.nbytes == 8 * r
    negatives = 0
    for n in range(r):
        if n > 0 and sv.quantum_integer(lv, n) < 0:
            negatives += 1
        assert tab.fact(n) == (float(tab.logfact[n]), negatives & 1)


@pytest.mark.parametrize("r", [3, 5, 7, 101])
def test_logfact_starts_with_exact_zeros(r):
    # [0]! = [1]! = 1 exactly: the trivial symbol and log_quantum_factorial
    # at n = 0, 1 read these entries and must get log_mag 0.0.
    lf = sv.LevelTables(sv.OddLevel(r)).logfact
    assert lf[0] == 0.0 and lf[1] == 0.0


def test_logfact_reflection_at_a_deep_level():
    # |[k]| = |[r-k]| gives log|[n]!| + log|[r-1-n]!| = log|[r-1]!| for
    # every n, and prod_{k=1..r-1} |2 sin(2 pi k/r)| = r gives
    # log|[r-1]!| = log r - (r-1) log(2 sin(2 pi/r)).
    r = 10001
    tab = sv.LevelTables(sv.OddLevel(r))
    lf = tab.logfact
    top = math.log(r) - (r - 1) * math.log(2 * math.sin(2 * math.pi / r))
    scale = float(np.max(np.abs(lf)))
    assert abs(lf[r - 1] - top) <= 1e-15 * scale
    assert float(np.max(np.abs(lf + lf[::-1] - lf[r - 1]))) <= 1e-15 * scale


def _fsum_prefixes(terms):
    """math.fsum(terms[:n]) for n = 1..len(terms), in one pass that keeps
    fsum's exact partials (Shewchuk) between prefixes."""
    partials, out = [], []
    for x in terms:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
        out.append(math.fsum(partials))
    return out


@pytest.mark.parametrize("r", [101, 2001, 10001, 20001])
def test_log_brace_factorial_matches_fsum_reference(r):
    # log|{n}!| = logfact[n] + n log(2 sin(2 pi/r)) re-adds a term of size
    # n |log(2 sin(2 pi/r))|; the result must stay within 1e-12 of the
    # table's scale, max_n |log|{n}!||, of an exactly summed reference.
    lv = sv.OddLevel(r)
    terms = [math.log(abs(2 * math.sin(2 * math.pi * k / r)))
             for k in range(1, r)]
    ref = _fsum_prefixes(terms)
    got = [sv.log_brace_factorial(lv, n) for n in range(1, r)]
    scale = max(abs(x) for x in ref)
    worst = max(abs(g - w) for g, w in zip(got, ref))
    assert worst <= 1e-12 * scale


# ------------------------------------------------- bounded table cache

def test_table_cache_holds_the_whole_scan_range():
    # A scan over r = 101..2001 must never rebuild a table: all 951 of
    # them fit under the bound together, so a second pass only hits.
    levels = range(101, 2002, 2)
    assert sum(sv.LevelTables(sv.OddLevel(r)).nbytes
               for r in levels) <= sv.TABLE_CACHE_BYTES
    for r in levels:
        sv.level_tables(r)
    before = sv.table_cache_info()
    for r in levels:
        sv.level_tables(r)
    after = sv.table_cache_info()
    assert after.misses == before.misses
    assert after.evictions == before.evictions
    assert after.hits == before.hits + len(levels)


def test_table_cache_bound_holds_over_a_deep_sweep():
    first = sv.level_tables(10001)
    logfact = first.logfact.copy()
    before = sv.table_cache_info()
    for r in range(10003, 11002, 2):
        sv.level_tables(r)
        assert sv.table_cache_info().bytes <= sv.TABLE_CACHE_BYTES
    info = sv.table_cache_info()
    assert info.evictions > before.evictions
    assert 10001 not in info.levels and info.levels[-1] == 11001
    assert info.bytes == sum(sv.level_tables(r).nbytes for r in info.levels)
    # The evicted level rebuilds to equal tables.
    again = sv.level_tables(10001)
    assert again is not first
    assert np.array_equal(again.logfact, logfact)
    assert again.log_sin1 == first.log_sin1


def test_table_cache_hit_moves_level_to_most_recent_end():
    sv.level_tables(101)
    sv.level_tables(103)
    assert sv.table_cache_info().levels[-2:] == (101, 103)
    before = sv.table_cache_info()
    tab = sv.level_tables(sv.OddLevel(101))
    after = sv.table_cache_info()
    assert after.levels[-2:] == (103, 101)
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert tab is sv.level_tables(101)
