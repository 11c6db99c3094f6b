"""TQFT identities of the quantum 6j-symbols, checked on the values the
library returns.

Orthogonality.  Fix the outer colours a1, a2, a4, a5 and take a3 and a6
as the opposite pair.  With plain products (no conjugates),

    sum_{a6} (-1)^{a3+a6} [a3+1][a6+1] {a1 a2 a3; a4 a5 a6}
                                       {a1 a2 b3; a4 a5 a6} = delta_{a3,b3},

summed over the a6 that make both tuples admissible, with
[n] = sin(2 pi n / r) / sin(2 pi / r).  The identity does not restate
the z-sum, so a convention error in the prefactor, the Delta roots or
the turn counting would break it.

The sums run in float64, so a sum is as exact as its largest terms
allow: on the seeded colourings at r = 31, imaginary symbols included,
the terms reach 1e10 in size, and the error of a sum is then up to
1.2e-5 while it stays within 7.9e-15 of sum |terms|.  So the checks
at r = 31 measure the error in units of max(1, sum |terms|); at r = 11
the terms stay below 3e3 and the error below 1e-12, and the checks
there are absolute as well.
"""

import itertools
import math

import numpy as np
import pytest

import sixjvol as sv

TOL = 1e-10  # on |sum - delta|, where the terms allow it
REL = 1e-12  # on |sum - delta| / max(1, sum |terms|)


def qint(n: int, r: int) -> float:
    return math.sin(2.0 * math.pi * n / r) / math.sin(2.0 * math.pi / r)


def ok(a, b, c, r) -> bool:
    return sv.is_admissible_triple(a, b, c, r)


def orthogonality_errors(outer, r, symbol):
    """{(a3, b3): (sum - delta, the same without the sign factor,
    sum |terms|)} over the admissible a3, b3 of the outer colours
    (a1, a2, a4, a5); symbol(colors, r) gives the 6j value."""
    q = [qint(n, r) for n in range(r)]
    a1, a2, a4, a5 = outer
    a3s = [c for c in range(r - 1) if ok(a1, a2, c, r) and ok(c, a4, a5, r)]
    a6s = [c for c in range(r - 1) if ok(a1, a5, c, r) and ok(a2, a4, c, r)]
    val = {(a3, a6): symbol((a1, a2, a3, a4, a5, a6), r)
           for a3 in a3s for a6 in a6s}
    out = {}
    for a3, b3 in itertools.product(a3s, a3s):
        total, unsigned, scale = 0j, 0j, 0.0
        for a6 in a6s:
            term = q[a3 + 1] * q[a6 + 1] * val[a3, a6] * val[b3, a6]
            total += term if (a3 + a6) % 2 == 0 else -term
            unsigned += term
            scale += abs(term)
        delta = a3 == b3
        out[a3, b3] = (total - delta, unsigned - delta, scale)
    return out


def exact(colors, r):
    return sv.sixj_exact_small(sv.tuple_of(colors, r))


def test_orthogonality_on_exact_small_values_at_r11():
    # every outer colouring, imaginary symbols included; without the
    # sign (-1)^(a3+a6) the diagonal is off by 2 on half the pairs
    r = 11
    pairs, worst, unsigned = 0, 0.0, []
    for outer in itertools.product(range(r - 1), repeat=4):
        errs = orthogonality_errors(outer, r, exact)
        pairs += len(errs)
        worst = max([worst] + [abs(e) for e, _, _ in errs.values()])
        unsigned += [abs(u) for (a3, b3), (_, u, _) in errs.items()
                     if a3 == b3]
    assert pairs == 10648
    assert worst < TOL
    assert max(unsigned) == pytest.approx(2.0, abs=TOL)
    assert sum(e > 1.0 for e in unsigned) == len(unsigned) // 2


def outer_colourings(r, n, seed):
    """The orthogonality errors of n seeded outer colourings with at
    least two admissible a3, on `sixj_log(...).value()`, and how many of
    those colourings hold an imaginary symbol."""
    rng = np.random.default_rng(seed)
    found, imaginary = [], 0
    while len(found) < n:
        outer = tuple(int(c) for c in rng.integers(0, r - 1, size=4))
        phases = []

        def by_log(colors, r):
            q = sv.sixj_log(sv.tuple_of(colors, r))
            phases.append(q.phase)
            return q.value()

        errs = orthogonality_errors(outer, r, by_log)
        if len(errs) >= 4:
            found.append(errs)
            imaginary += any(p % 2 for p in phases)
    return found, imaginary


@pytest.mark.parametrize("r, n", [(11, 40), (31, 40)])
def test_orthogonality_on_sixj_log_values(r, n):
    found, imaginary = outer_colourings(r, n, seed=r)
    assert imaginary >= n // 2  # imaginary symbols really take part
    for errs in found:
        for e, _, scale in errs.values():
            assert abs(e) < REL * max(1.0, scale)
            if r == 11:
                assert abs(e) < TOL
