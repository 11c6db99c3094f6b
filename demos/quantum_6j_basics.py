"""
Quantum 6j-symbols at an odd root of unity
==========================================

A walk through the arithmetic layer: quantum integers at
q = e^{2 pi i / r}, admissible colorings, the log-magnitude
representation of the symbol, and the moves that permute colors
without changing the magnitude.
"""

import math

import sixjvol as sv

# ---------------------------------------------------------------------
# 1. Quantum integers.  [n] = sin(2 pi n / r) / sin(2 pi / r); at an odd
#    level r they vanish exactly at n = 0 and n = r, and [r - n] = -[n].

r = 31
lvl = sv.OddLevel(r)
print(f"level r = {r}")
for n in (1, 2, 5, 15, 16, 30):
    print(f"  [{n:2d}] = {sv.quantum_integer(lvl, n):+.12f}")
print(f"  check [r-2] = -[2]: {sv.quantum_integer(lvl, r - 2):+.6f}"
      f" vs {-sv.quantum_integer(lvl, 2):+.6f}")

# ---------------------------------------------------------------------
# 2. Admissibility.  A triple of even colors is admissible when it
#    satisfies the triangle inequalities and the level cutoff
#    i + j + k <= 2r - 4; a 6-tuple must be admissible at all four
#    vertex triples of the tetrahedral spin network.

print("\nadmissible (2, 2, 2) at r=31:",
      sv.is_admissible_triple(2, 2, 2, lvl))
print("admissible (2, 2, 6) at r=31:",
      sv.is_admissible_triple(2, 2, 6, lvl))
print("tuple (2,4,6,4,6,4) admissible:",
      sv.is_admissible_tuple((2, 4, 6, 4, 6, 4), lvl))

# ---------------------------------------------------------------------
# 3. Evaluating the symbol.  sixj_log returns the value as
#    (log magnitude, quarter-turn phase); an admissible symbol is either
#    real or purely imaginary, and small cases can be cross-checked
#    against the direct product/sum formula.

t = sv.ColorSixTuple((2, 4, 6, 4, 6, 4), lvl)
q = sv.sixj_log(t)
print(f"\n6j(2,4,6,4,6,4) at r=31: log|.| = {q.log_mag:.12f}, "
      f"sign = {q.real_sign()}")
print(f"  as a float: {q.value():+.12e}")
print(f"  direct evaluation: {sv.sixj_exact_small(t).real:+.12e}")

# For some admissible tuples the Delta factors and the i^{-sum a}
# prefactor leave a purely imaginary symbol: sixj_log returns it with
# an odd phase (1 or 3).  Such a value has no real sign, so real_sign()
# refuses it; value() and the direct formula agree.
imag = sv.ColorSixTuple((0, 0, 0, 1, 1, 1), lvl)
qi = sv.sixj_log(imag)
zi = sv.sixj_exact_small(imag)
print(f"\n6j(0,0,0,1,1,1) at r=31: log|.| = {qi.log_mag:.12f}, "
      f"phase = {qi.phase}")
print(f"  as a complex number: {qi.value():.12f}")
print(f"  direct evaluation:   {zi:.12f}")
assert abs(qi.value() - zi) <= 1e-12 * abs(zi)

# ---------------------------------------------------------------------
# 4. Symmetries.  Face moves and quad moves act on the colors; the
#    magnitude of the symbol is invariant under each of them.

base = sv.ColorSixTuple((2, 4, 6, 4, 6, 4), lvl)
m0 = sv.sixj_log(base).log_mag
print("\nmagnitude under the three quad moves:")
for k in (1, 2, 3):
    moved = sv.change_colors_quad(base, k)
    print(f"  quad {k}: colors {moved.colors} -> "
          f"log|.| = {sv.sixj_log(moved).log_mag:.12f} (base {m0:.12f})")
print("magnitude under the four face moves:")
for k in (1, 2, 3, 4):
    moved = sv.change_colors_face(base, k)
    print(f"  face {k}: colors {moved.colors} -> "
          f"log|.| = {sv.sixj_log(moved).log_mag:.12f}")

# ---------------------------------------------------------------------
# 5. Big colors.  big_colors lists the (0-based) indices of the colors
#    above (r-2)/2; canonicalize applies face and quad moves until at
#    most one big color, or one big opposite pair, is left, keeping |6j|.

moved = sv.change_colors_face(base, 1)
print(f"\nbig_colors of {moved.colors}: {sv.big_colors(moved)}")
canon = sv.canonicalize(moved)
print(f"canonicalized to {canon.colors}: big_colors {sv.big_colors(canon)}, "
      f"log|.| = {sv.sixj_log(canon).log_mag:.12f} (base {m0:.12f})")
