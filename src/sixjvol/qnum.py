"""Quantum arithmetic at the root of unity q = e^{2*pi*i/r}, r odd.

Quantum integers are evaluated as sine ratios,

    [n] = sin(2*pi*n/r) / sin(2*pi/r),

never as differences of q-powers, which cancel catastrophically for
n near r/2.  Everything downstream (quantum factorials, the brace
factorials {n}! = prod (q^k - q^{-k}), 6j-symbol terms) lives in a
log-magnitude representation because the factorials span hundreds of
orders of magnitude already at r ~ 1000.

Values that carry a sign or a factor of i are represented as
`QuarterPhaseLog`: a log-magnitude plus a phase in Z/4, so that the
i^{-sum(a)} prefactor and square roots of negative reals compose
exactly, with floating point confined to magnitudes.  A 6j-symbol is
real or purely imaginary and is returned either way; the one rule that
a value must be real is `QuarterPhaseLog.real_sign`, read where a real
record is built, and the one rule for zero is `QuarterPhaseLog.__new__`.

Every integer argument (a level, a color, a 1-based index, the n of
the accessors below) is read by one rule, `_integral_level`: an int, a
numpy integer or a float with no fractional part, never truncated.
`_index` refuses anything else with TypeError, naming the argument,
and `_one_based` alone states the range of a 1-based index.
A level is then an odd r >= 3, a rule that `OddLevel` alone states;
every entry that takes a level reads it through `_level`, so a
non-integral level raises TypeError everywhere and a level stored in a
record is an int.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from operator import itemgetter
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

_NEG_INF = float("-inf")


class _FrozenRecord:
    """Base of the immutable records with `__slots__` fields.

    A subclass names its fields in `__slots__` and sets each once in
    `__init__` through `object.__setattr__`.  A record is equal only to
    itself (it may hold arrays, which have no boolean equality);
    assigning or deleting a field raises AttributeError.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _ValueRecord(_FrozenRecord):
    """A `_FrozenRecord` that compares equal, and hashes alike, to a
    record of the same class with equal fields."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())


class OddLevel(_ValueRecord):
    """The level r of the root of unity q = e^{2*pi*i/r}; r odd, r >= 3.

    An immutable record of r as an int, equal to another OddLevel of the
    same r.  The one rule for a level: r is read by `_index` (TypeError
    for a non-integral r), and anything but an odd r >= 3 raises
    ValueError.  A level scan asks more, r >= 5 (`growth._scan_level`).
    """

    __slots__ = ("r",)

    def __init__(self, r) -> None:
        r = _index(r, "level")
        if r < 3 or r % 2 == 0:
            raise ValueError(f"level must be odd and >= 3, got {r}")
        object.__setattr__(self, "r", r)


_set_r = OddLevel.r.__set__


def _odd_level(r: int) -> OddLevel:
    """OddLevel(r) for an r already known to be an int, odd and >= 3,
    without the checks (a level scan builds one per level)."""
    level = object.__new__(OddLevel)
    _set_r(level, r)
    return level


def _integral_level(x) -> int | None:
    """x as an int if it is an int, a numpy integer or a float with no
    fractional part; None for anything else (a float with a fractional
    part, NaN, infinity, a string, a Fraction), which is never
    truncated."""
    if isinstance(x, (int, np.integer)) or (
            isinstance(x, (float, np.floating)) and float(x).is_integer()):
        return int(x)
    return None


def _index(x, what: str = "index") -> int:
    """An integer argument as an int, by `_integral_level`; anything
    else raises TypeError("<what> must be an integer, got <x!r>").  The
    one integer refusal: levels, colors, 1-based indices and the n of
    the accessors all come through here."""
    i = _integral_level(x)
    if i is None:
        raise TypeError(f"{what} must be an integer, got {x!r}")
    return i


def _one_based(x, n: int, what: str) -> int:
    """A 1-based index in 1..n as an int: read by `_index` (TypeError
    "index must be an integer, got <x!r>"), then ValueError("<what>
    must be in 1..<n>, got <i>") outside the range.  The one range rule
    of the vertex, face, quad and cofactor indices."""
    i = _index(x)
    if not 1 <= i <= n:
        raise ValueError(f"{what} must be in 1..{n}, got {i}")
    return i


def _level(level) -> OddLevel:
    """Coerce a level to OddLevel: an OddLevel is returned as it is,
    anything else goes through the OddLevel constructor."""
    return level if isinstance(level, OddLevel) else OddLevel(level)


class QuarterPhaseLog(tuple):
    """A number e^{log_mag} * i^{phase}, with phase in {0,1,2,3}.

    The tuple (log_mag, phase): it unpacks, compares and hashes as that
    pair, and the constructor reduces the phase mod 4.  log_mag = -inf
    encodes exactly zero, and `__new__` holds the zero rule: it gives
    zero the phase 0.  Multiplication adds log-magnitudes and phases,
    so a zero factor gives zero through that rule; the other tuple
    operations are those of a plain tuple.
    """

    __slots__ = ()

    def __new__(cls, log_mag: float, phase: int) -> "QuarterPhaseLog":
        return tuple.__new__(
            cls, (log_mag, 0 if log_mag == _NEG_INF else phase % 4))

    log_mag = property(itemgetter(0), doc="ln|value|; -inf for zero")
    phase = property(itemgetter(1), doc="quarter turns, in {0,1,2,3}")

    def __getnewargs__(self) -> tuple[float, int]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"QuarterPhaseLog(log_mag={self[0]!r}, phase={self[1]!r})"

    @staticmethod
    def one() -> "QuarterPhaseLog":
        return QuarterPhaseLog(0.0, 0)

    @staticmethod
    def zero() -> "QuarterPhaseLog":
        return QuarterPhaseLog(_NEG_INF, 0)

    @staticmethod
    def from_real(x: float) -> "QuarterPhaseLog":
        if x == 0.0:
            return QuarterPhaseLog.zero()
        return QuarterPhaseLog(math.log(abs(x)), 0 if x > 0 else 2)

    def __mul__(self, other: "QuarterPhaseLog") -> "QuarterPhaseLog":
        return QuarterPhaseLog(self[0] + other[0], self[1] + other[1])

    @property
    def is_zero(self) -> bool:
        return self[0] == _NEG_INF

    def value(self) -> complex:
        """The represented complex number (overflows for large log_mag);
        0j for zero, as exp(-inf) is 0.0."""
        return math.exp(self[0]) * (1j ** self[1])

    def real_sign(self) -> int:
        """+1/-1/0 for a real-phased value; ValueError if the phase is
        odd.  The one place that refuses an imaginary value."""
        log_mag, phase = self
        if log_mag == _NEG_INF:
            return 0
        if phase == 0:
            return 1
        if phase == 2:
            return -1
        raise ValueError(f"value has imaginary phase {phase}")


class LevelTables:
    """Per-level tables, built once and then read-only.

    One float64 array, indexed by n = 0 .. r-1, eight bytes per entry:

      logfact[n] = sum_{k=1..n} log|[k]|  (log|[n]!|)

    The sign of [n]! needs no table: [k] < 0 exactly for k > (r-1)/2
    (r odd, so never k = r/2), so the parity of the negative factors is
    0 up to h = (r-1)/2 and (n - h) mod 2 above it.  `fact` and the 6j
    kernel both use that closed form.  The brace factorials are
    log|{n}!| = logfact[n] + n * log_sin1, with the scalar log_sin1 =
    log(2 sin(2 pi / r)).  The n = r-1 slot exists because Delta
    denominators reach [T+1]! with T+1 = r-1 and the 6j z-sum queries
    [z+1]! at z = r-2.

    The build evaluates s_m = log(2 sin(pi m / r)) only for m = 1..h,
    h = (r-1)/2, every angle below pi/2.  For k <= h, |2 sin(2 pi k / r)|
    is s_{2k} when 2k <= h and s_{r-2k} above, so the cumulative sum
    over n <= h reads the even s_m and then the odd ones in reverse.
    log_sin1 is its first term, which makes logfact[0] = logfact[1] =
    0.0 exactly.  The entries n > h come from the reflection
    logfact[n] = logfact[r-1] - logfact[r-1-n], since |[k]| = |[r-k]|,
    with logfact[r-1] = log r - (r-1) log_sin1, since
    prod_{k=1..r-1} |2 sin(2 pi k / r)| = r.  Every temporary has h+1
    entries.

    Tables are shared through `level_tables`, which keeps the most
    recently used levels within TABLE_CACHE_BYTES of `nbytes`.
    """

    def __init__(self, level: OddLevel):
        r = level.r
        h = (r - 1) // 2
        self.level = level
        m = np.arange(h + 1, dtype=np.float64)
        s = m * math.pi
        s /= r
        np.sin(s, out=s)
        s *= 2.0
        s[0] = 1.0  # unused slot; log gives 0.0
        np.log(s, out=s)
        lf = np.empty(r, dtype=np.float64)
        low = lf[:h + 1]
        g = h // 2
        low[0] = 0.0
        low[1:g + 1] = s[2::2]
        low[g + 1:] = s[r - 2 * g - 2:0:-2]
        self.log_sin1 = float(low[1])
        np.add.accumulate(low, out=low)
        m *= self.log_sin1
        low -= m
        top = math.log(r) - (r - 1) * self.log_sin1
        np.subtract(top, lf[h - 1::-1], out=lf[h + 1:])
        self.logfact = lf

    @property
    def nbytes(self) -> int:
        return self.logfact.nbytes

    def fact(self, n: int) -> tuple[float, int]:
        """(log|[n]!|, sign parity) for 0 <= n <= r-1."""
        h = (self.level.r - 1) // 2
        return float(self.logfact[n]), max(n - h, 0) & 1


# Bound on the summed `nbytes` of the cached tables.  It holds every
# level of a scan over r = 101..2001 (951 tables, about 7.63 MiB), so such
# a scan never rebuilds, and caps a deep scan near r = 10^4 (about 78 KiB
# a level) at some 210 levels.
TABLE_CACHE_BYTES = 16 * 2**20

_tables: OrderedDict[int, LevelTables] = OrderedDict()
_hits = _misses = _evictions = _bytes = 0


class TableCacheInfo(NamedTuple):
    """Counters of the level-table cache; `levels` runs from the least to
    the most recently used level."""

    hits: int
    misses: int
    evictions: int
    bytes: int
    levels: tuple[int, ...]


def table_cache_info() -> TableCacheInfo:
    """A snapshot of the level-table cache counters."""
    return TableCacheInfo(_hits, _misses, _evictions, _bytes, tuple(_tables))


def level_tables(level) -> LevelTables:
    """The tables of one level, from a least-recently-used cache.

    A miss builds the tables and then evicts the least recently used
    levels until the cached bytes are within TABLE_CACHE_BYTES; the
    level just built always stays.  Callers are serial: the cache takes
    no lock.
    """
    global _hits, _misses, _evictions, _bytes
    lv = _level(level)
    r = lv.r
    tab = _tables.get(r)
    if tab is not None:
        _tables.move_to_end(r)
        _hits += 1
        return tab
    tab = LevelTables(lv)
    _tables[r] = tab
    _misses += 1
    _bytes += tab.nbytes
    while _bytes > TABLE_CACHE_BYTES and len(_tables) > 1:
        _, old = _tables.popitem(last=False)
        _bytes -= old.nbytes
        _evictions += 1
    return tab


def quantum_integer(level, n: int) -> float:
    """[n] = sin(2 pi n / r) / sin(2 pi / r), any integer n."""
    r = _level(level).r
    n = _index(n, "n")
    m = n % r  # range-reduce before sin; [n] is r-periodic in n
    return math.sin(TWO_PI * m / r) / math.sin(TWO_PI / r)


def log_quantum_factorial(level, n: int) -> QuarterPhaseLog:
    """[n]! = prod_{k=1..n} [k] as a QuarterPhaseLog (phase 0 or 2).

    The factors [k] with k > r/2 are negative; the phase doubles the
    parity of their count into quarter turns.
    """
    lv = _level(level)
    n = _index(n, "n")
    if not 0 <= n <= lv.r - 2:
        raise ValueError(f"color out of range: n={n} not in [0, {lv.r - 2}]")
    tab = level_tables(lv)
    log_mag, parity = tab.fact(n)
    return QuarterPhaseLog(log_mag, 2 * parity)


def log_brace_factorial(level, n: int) -> float:
    """log|{n}!| where {k} = q^k - q^{-k}; equals sum log|2 sin(2 pi k/r)|."""
    lv = _level(level)
    n = _index(n, "n")
    if not 0 < n < lv.r:
        raise ValueError(f"brace factorial argument out of range: n={n}"
                         f" not in (0, {lv.r})")
    tab = level_tables(lv)
    return float(tab.logfact[n]) + n * tab.log_sin1
