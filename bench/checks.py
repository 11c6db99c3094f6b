"""Accounting of attempted and failed operations, and the reference values
outputs are checked against after the timed region."""

from __future__ import annotations

import math
from collections import Counter

from sixjvol import gram, qnum, sixj, volfun

import oracle

EXACT_MAX_R = 201  # sixj_exact_small stays in double range up to here


class Ledger:
    """Operations attempted, failures by reason, known defects by reason,
    and the values requested from the library against those it returned.

    A failure is `wrong` when a returned value missed its reference; a
    raised error, an unexplained skipped level or a fit outside its
    tolerance fails the operation without making a returned value wrong.

    A known defect is an outcome the library gets wrong at this revision
    for a reason the benchmark recognises exactly (see `KNOWN`); it is
    counted and printed with every run but does not fail the operation,
    so that the workloads stay free of failures while the defect shows.
    Any other miss is a failure.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: Counter = Counter()
        self.wrong: Counter = Counter()
        self.known: Counter = Counter()
        self.requested = 0
        self.returned = 0

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1, wrong: bool = False) -> None:
        if n <= 0:
            return
        self.failed[reason] += n
        if wrong:
            self.wrong[reason] += n

    def note_known(self, reason: str, n: int = 1) -> None:
        if reason not in KNOWN:
            raise KeyError(f"not a known defect: {reason}")
        if n > 0:
            self.known[reason] += n

    def values(self, requested: int, returned: int) -> None:
        self.requested += requested
        self.returned += returned

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def failed_frac(self) -> float:
        return self.n_failed / max(1, self.attempted)

    @property
    def returned_frac(self) -> float:
        return self.returned / max(1, self.requested)


# Known defects of the library at this revision, by the reason the
# ledger records.
KNOWN = {
    "imaginary_skipped": "a level whose symbol is purely imaginary is "
                         "skipped: sixj_log raises on phase parity",
    "fit_gap_after_skips": "a fit misses its target by more than "
                           "FIT_TOL on a series that lost levels to "
                           "imaginary_skipped",
    "float64_floor": "log|6j| misses the reference in the deep window "
                     "above r = 10^4, where the float64 z-sum cancels",
}


class Reference:
    """Cached references: `sixj_exact_small` for r <= 201, the mpmath
    z-sum above; `volume_by_max` for volumes."""

    def __init__(self) -> None:
        self._sixj: dict = {}
        self._vmax: dict = {}

    def sixj(self, colors, r: int) -> tuple[float, int]:
        key = (tuple(int(c) for c in colors), r)
        val = self._sixj.get(key)
        if val is None:
            if r <= EXACT_MAX_R:
                t = sixj.ColorSixTuple(key[0], qnum.OddLevel(r))
                x = sixj.sixj_exact_small(t)
                val = ((math.log(abs(x)), oracle.phase_of_complex(x))
                       if x != 0 else (-math.inf, 0))
            else:
                val = oracle.sixj_mp(key[0], r)
            self._sixj[key] = val
        return val

    def product(self, tuples, r: int) -> tuple[float, int]:
        """(log|prod 6j|, phase) over several 6-tuples at one level."""
        log_mag, phase = 0.0, 0
        for colors in tuples:
            lm, ph = self.sixj(colors, r)
            log_mag += lm
            phase += ph
        return log_mag, phase % 4

    def volume_by_max(self, alpha) -> float:
        key = tuple(float(a) for a in alpha)
        val = self._vmax.get(key)
        if val is None:
            al = gram.AlphaSixTuple.from_alpha(key)
            val = self._vmax[key] = volfun.volume_by_max(al).vol
        return val


def sample_values(s) -> tuple[int, float, int]:
    """(r, log|value|, phase) of a growth sample or its JSON record.

    Samples carry only a sign today; a `phase` field, once samples carry
    imaginary values, takes precedence so that those are checked too.
    """
    if isinstance(s, dict):
        r, log_abs, sign, phase = s["r"], s["log_abs"], s["sign"], \
            s.get("phase")
        log_abs = -math.inf if log_abs is None else log_abs
    else:
        r, log_abs, sign = s.r, s.log_abs, s.sign
        phase = getattr(s, "phase", None)
    if phase is None:
        phase = 2 if sign < 0 else 0
    return int(r), float(log_abs), int(phase)


def skip_reasons(skipped, tuples_at) -> Counter:
    """Why each skipped level was skipped, by the reference alone.

    `inadmissible`: the rounded colours are not r-admissible, and the
    library rightly refuses the level.  `imaginary_skipped`: a symbol is
    purely imaginary (a known defect).  `level_skipped`: neither, so the
    skip is unexplained and the level fails.
    """
    out: Counter = Counter()
    for r in skipped:
        tuples = tuples_at(r)
        if not all(oracle.admissible(c, r) for c in tuples):
            out["inadmissible"] += 1
        elif any(oracle.is_imaginary(c, r) for c in tuples):
            out["imaginary_skipped"] += 1
        else:
            out["level_skipped"] += 1
    return out


def missed_levels(samples, tuples_at, checked, ref: Reference) -> list[int]:
    """Levels whose value misses its reference.

    Every level r <= EXACT_MAX_R is checked, and those in `checked`
    above it; `tuples_at(r)` gives the 6-tuples whose product the
    sample reports.
    """
    out = []
    for s in samples:
        r, log_abs, phase = sample_values(s)
        if r > EXACT_MAX_R and r not in checked:
            continue
        try:
            ref_log, ref_phase = ref.product(tuples_at(r), r)
        except ValueError:  # our rounding is not admissible at r
            out.append(r)
            continue
        if oracle.value_misses(log_abs, phase, ref_log, ref_phase):
            out.append(r)
    return out
