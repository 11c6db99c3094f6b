"""The Lobachevsky function and the volume formulas.

Two independent routes to the volume of a generalized hyperbolic
tetrahedron are implemented:

* `volume`: the closed form V(xi(alpha)) where xi comes from solving the
  quadratic A z^2 + B z + C = 0 built from u_k = e^{i alpha_k}; the
  discriminant satisfies B^2 - 4AC = 16 det G, negative exactly in the
  hyperbolic case, and the root z = (-B + sqrt(disc))/(2A) lies on the
  unit circle and pins xi in [pi, 2 pi) through e^{-2 i xi} = z.

* `volume_by_max`: for admissible alpha with at least one hyperideal
  vertex, the same number is the maximum of the strictly concave

      V(xi) = sum_of_deltas + Lambda(2 pi - xi)
              + sum_i Lambda(xi - tau_i) + sum_j Lambda(eta_j - xi)

  over I = [max tau_i, min(eta_j, 2 pi)], located by Newton's method on
  s'(xi) = V'(xi) = log( sin(2pi-xi) prod_j sin(eta_j-xi)
                         / prod_i sin(xi-tau_i) )
  with s'' = V'' and a bisection fallback: a step that leaves the
  bracket kept by the sign of s' is replaced by the bracket midpoint.
  It stops when a step is at most 2 ulp of xi or the bracket is down to
  |I| * 2^-60, and evaluates at most 60 points (typically about 5).

Here tau are the four vertex half-sums of alpha and eta the three
quadrilateral half-sums.  All Lambda evaluations use oddness and
pi-periodicity for range reduction, so no dilogarithm branch cuts are
ever crossed.  The kernel is loop-free: Lambda(t) = t - t log(2t) +
t p((t/pi)^2) on [0, pi/2], with p a fixed degree-13 polynomial that
replaces the zeta series there (`_LOB_POLY`).  Its absolute error is
3e-16 on [0, pi/2] and below 1e-15 for every finite angle: angles
beyond 4 pi are reduced modulo pi exactly, not modulo the float pi.

Two facts of a tuple are memoized, as `gram` memoizes its four
single-row cores (`gram._memo`): the critical-point data of
`critical_xi` (`_critical_of`), and the xi-free terms of V
(`_xi_free_of`): the half-sums of `tau_eta` and the sum of the four
vertex deltas, fixed by the angles.  `big_V`, the one evaluator of V,
reads both, and `volume_by_max` reads tau/eta before it evaluates V,
so a miss computes both.  Each memo keeps a table of one entry, keyed
by the packed angles `alpha._packed`, so the branch signs mu do not
enter.  A geometry row asks for each fact twice, for one tuple:
`critical_xi` is called on its own and again inside `volume`, and
`volume` and `volume_by_max` both evaluate V.  One entry serves that
row, and no caller comes back to an older tuple.  `volume` rebuilds
alpha from theta and mu, which gives back the same bytes unless
pi - alpha rounds; such a tuple misses and is computed as if there
were no memo.  A refused tuple is not remembered (`lru_cache` keeps
no exceptions): it raises again on every call.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .gram import (_SIX_DOUBLES, DEFAULT_TOL, AlphaSixTuple, AngleSixTuple,
                   _memo, admissible, cofactor_matrix, gram_from_alpha,
                   gram_from_angles, signature, tol_sign)
from .qnum import TWO_PI
from .sixj import QUAD_MOVES, VERTEX_TRIPLES
from .tetra import edge_length_tuple


# Lambda(t) = t - t log(2t) + t f(x) on [0, pi/2], with x = (t/pi)^2 and
#   f(x) = sum_{n>=1} c_n x^n,   c_n = zeta(2n) / (n (2n+1)).
# On x in [0, 1/4] f is replaced by the degree-13 polynomial with these
# coefficients (x^1 first).  The linear one is the series' own c_1 =
# pi^2/18, rounded as `lob_coeff_exact` in tests/conftest.py rounds it;
# the others come from x^2 times the Chebyshev series of
# (f(x) - c_1 x) / x^2 on [0, 1/4], cut after degree 11 and expanded in
# powers of x.  In exact arithmetic the polynomial stays within 6e-18
# of the series summed with the 39 coefficients of `lob_coeff_exact`,
# which the tests check.
_LOB_POLY = (
    0.5483113556160755, 0.10823232337111371, 0.04844490771363535,
    0.027891037655179238, 0.01819990261634292, 0.012823620368676998,
    0.009525448994512678, 0.007338223166041333, 0.005983908194054647,
    0.003941677857233877, 0.007148038360543748, -0.004211409419027463,
    0.01194419571414807,
)

# Angles with |theta| below this reduce by the float pi, whose error
# pi - float(pi) = 1.2e-16 is then taken at most four times; the bound
# covers every argument of V(xi), which stays within 3 pi.  Others reduce
# exactly against _PI_SCALED = floor(pi * 2^_PI_BITS).
_FAST_BOUND = 4.0 * math.pi
_PI_BITS = 1152
_PI_SCALED = int(
    "3243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c8"
    "9452821e638d01377be5466cf34e90c6cc0ac29b7c97c50dd3f84d5b5b547091"
    "79216d5d98979fb1bd1310ba698dfb5ac2ffd72dbd01adfb7b8e1afed6a267e9"
    "6ba7c9045f12c7f9924a19947b3916cf70801f2e2858efc16636920d871574e6"
    "9a458fea3f4933d7e0d95748f728eb658", 16)


def _remainder_pi(theta: float) -> float:
    """theta minus the nearest multiple of pi, in [-pi/2, pi/2], for any
    finite float, reduced exactly.

    theta = n / d is exact, so the only error before the final rounding
    is the multiple k < 2^1023 times the error of _PI_SCALED / 2^_PI_BITS,
    below 2^-129.  A NaN or infinite theta raises ValueError.
    """
    try:
        n, d = float(theta).as_integer_ratio()
    except (ValueError, OverflowError):
        raise ValueError(f"Lobachevsky function of a non-finite angle: "
                         f"{theta!r}") from None
    period = d * _PI_SCALED
    r = (n << _PI_BITS) % period
    if 2 * r > period:
        r -= period
    return r / (d << _PI_BITS)


def lobachevsky(theta: float) -> float:
    """The Lobachevsky function Lambda(theta) = -int_0^theta log|2 sin t| dt.

    Odd and pi-periodic: theta is reduced to t in [-pi/2, pi/2] and
    Lambda(t) = -Lambda(-t), Lambda(t) = t - t log(2t) + t p((t/pi)^2)
    for t > 0, with p the polynomial of `_LOB_POLY` summed by Horner.
    For |theta| < 4 pi the reduction is the IEEE remainder by the float
    pi; on [0, pi/2] the absolute error is 3e-16 against mpmath on 10^4
    points, and at most a few 1e-16 more up to 4 pi.  Beyond 4 pi the
    reduction is exact (`_remainder_pi`), and the error stays below
    1e-15 up to the largest float.  A NaN or infinite theta raises
    ValueError.
    """
    if -_FAST_BOUND < theta < _FAST_BOUND:
        t = math.remainder(theta, math.pi)
    else:
        t = _remainder_pi(theta)
    sign = 1.0
    if t < 0.0:
        t = -t
        sign = -1.0
    elif t == 0.0:
        return 0.0
    x = t / math.pi
    x *= x
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13 = _LOB_POLY
    f = x * (c1 + x * (c2 + x * (c3 + x * (c4 + x * (c5 + x * (c6 + x * (
        c7 + x * (c8 + x * (c9 + x * (c10 + x * (c11 + x * (
            c12 + x * c13))))))))))))
    return sign * (t - t * math.log(2.0 * t) + t * f)


class TauEta(NamedTuple):
    """Vertex half-sums tau_1..tau_4 and quadrilateral half-sums eta_1..eta_3."""

    tau: tuple[float, float, float, float]
    eta: tuple[float, float, float]


def tau_eta(alpha: AlphaSixTuple) -> TauEta:
    """tau_i over VERTEX_TRIPLES; eta_j over QUAD_MOVES in reverse order,
    the order of the quadrilateral sums Q_j of the 6j-symbol.

    Memoized on the packed angles with the other xi-free terms of V, one
    entry (module docstring).
    """
    return _xi_free_of(alpha._packed)[0]


def delta_vertex(a: float, b: float, c: float) -> float:
    """The vertex term delta(a,b,c), a four-Lambda combination."""
    return (-0.5 * lobachevsky((-a + b + c) / 2.0)
            - 0.5 * lobachevsky((a - b + c) / 2.0)
            - 0.5 * lobachevsky((a + b - c) / 2.0)
            + 0.5 * lobachevsky((a + b + c) / 2.0))


@_memo
def _xi_free_of(packed: bytes) -> tuple[TauEta, float]:
    """The xi-free terms of V at the packed angles: tau/eta and the sum
    of the four vertex deltas."""
    al = _SIX_DOUBLES.unpack(packed)
    tau = tuple((al[i] + al[j] + al[k]) / 2.0
                for (i, j, k) in VERTEX_TRIPLES)
    eta = tuple((al[i] + al[j] + al[k] + al[l]) / 2.0
                for (i, j, k, l) in reversed(QUAD_MOVES))
    deltas = sum(delta_vertex(al[i], al[j], al[k])
                 for (i, j, k) in VERTEX_TRIPLES)
    return TauEta(tau, eta), deltas


def big_V(alpha: AlphaSixTuple, xi: float) -> float:
    """V(xi): four vertex deltas plus the xi-dependent Lambda terms."""
    te, out = _xi_free_of(alpha._packed)
    out += lobachevsky(TWO_PI - xi)
    for t in te.tau:
        out += lobachevsky(xi - t)
    for e in te.eta:
        out += lobachevsky(e - xi)
    return out


class CriticalData(NamedTuple):
    """Quadratic data and both roots; xi, xi_star in [pi, 2 pi).

    `degenerate` marks the flat family where A = B = C = 0 identically
    and V does not depend on xi at all; the representative xi = 3 pi / 2
    (z = -1) is reported there.
    """

    A: complex
    B: float
    C: complex
    disc: float
    z: complex
    z_star: complex
    xi: float
    xi_star: float
    degenerate: bool = False


def _xi_from_root(z: complex) -> float:
    """The unique xi in [pi, 2 pi) with e^{-2 i xi} = z (|z| = 1)."""
    x = math.fmod(-cmath.phase(z) / 2.0, math.pi)
    if x < 0.0:
        x += math.pi
    return x + math.pi


def _end_coefficient(w) -> complex:
    """A of the critical-point quadratic at w = u = e^{i alpha}, and C
    at w = 1/u."""
    w1, w2, w3, w4, w5, w6 = w
    return (w1 * w4 + w2 * w5 + w3 * w6
            - w1 * w2 * w6 - w1 * w3 * w5 - w2 * w3 * w4 - w4 * w5 * w6
            + w1 * w2 * w3 * w4 * w5 * w6)


def critical_xi(alpha: AlphaSixTuple) -> CriticalData:
    """Solve the critical-point quadratic for xi and xi_star.

    Requires det G < 0 (hyperbolic case), read off the discriminant as
    det G = disc / 16; the flat family with A = B = C = 0 is the one
    exception and reports xi = 3 pi / 2 with the degenerate flag set.
    Memoized on the packed angles, one entry (module docstring).
    """
    return _critical_of(alpha._packed)


@_memo
def _critical_of(packed: bytes) -> CriticalData:
    u = [cmath.exp(1j * a) for a in _SIX_DOUBLES.unpack(packed)]
    v = [1.0 / x for x in u]
    A, C = _end_coefficient(u), _end_coefficient(v)
    d1, d2, d3, d4, d5, d6 = [x - y for x, y in zip(u, v)]
    Bc = -(d1 * d4 + d2 * d5 + d3 * d6)
    B = Bc.real  # imaginary part is pure roundoff
    disc = B * B - 4.0 * (A * C).real  # A C = |A|^2 is real

    if abs(A) <= DEFAULT_TOL and abs(B) <= DEFAULT_TOL:
        # Flat family: the quadratic vanishes identically and so does
        # the xi-dependence of V; report the midpoint root z = -1.
        xi = 1.5 * math.pi
        return CriticalData(A=A, B=B, C=C, disc=disc, z=-1.0 + 0.0j,
                            z_star=-1.0 + 0.0j, xi=xi, xi_star=xi,
                            degenerate=True)
    if tol_sign(disc / 16.0) >= 0:
        raise ValueError("no hyperbolic critical point")
    root = 1j * math.sqrt(abs(disc))  # disc < 0 here; sqrt(x) = i sqrt|x|
    z = (-B + root) / (2.0 * A)
    z_star = (-B - root) / (2.0 * A)
    return CriticalData(A=A, B=B, C=C, disc=disc, z=z, z_star=z_star,
                        xi=_xi_from_root(z), xi_star=_xi_from_root(z_star))


def volume(theta: AngleSixTuple, mu=(-1, -1, -1, -1, -1, -1)) -> float:
    """Vol = V(xi(alpha)) with alpha_k = pi + mu_k theta_k.

    Branch-invariant: any of the 64 sign vectors gives the same value.
    Flat configurations (degenerate quadratic) get volume 0.

    The result is the generalized volume of any theta whose Gram
    matrix has signature (3,1), admissible or not: outside the
    admissible region it is the volume continued by the Schlafli
    formula, and it can be negative (theta = (0.5,)*3 + (3.0,)*3 gives
    -3.4532, which no mu makes admissible).  Only growth rates need
    admissibility (`gram.admissible`).
    """
    alpha = AlphaSixTuple.from_theta(theta, mu)
    data = critical_xi(alpha)
    return big_V(alpha, data.xi)


def _sine_products(xi: float, te: TauEta) -> tuple[float, float]:
    """(num, den) with s'(xi) = log(num / den): the sine products
    |sin(2 pi - xi)| prod_j |sin(eta_j - xi)| and prod_i |sin(xi - tau_i)|."""
    num = abs(math.sin(TWO_PI - xi))
    for e in te.eta:
        num *= abs(math.sin(e - xi))
    den = 1.0
    for t in te.tau:
        den *= abs(math.sin(xi - t))
    return num, den


def _s_second(xi: float, te: TauEta) -> float:
    out = -1.0 / math.tan(TWO_PI - xi)
    for t in te.tau:
        out -= 1.0 / math.tan(xi - t)
    for e in te.eta:
        out -= 1.0 / math.tan(e - xi)
    return out


class MaxResult(NamedTuple):
    xi0: float
    vol: float


# Evaluation cap: 60 midpoint steps alone shrink the bracket to |I| * 2^-60.
_MAX_EVALS = 60


def volume_by_max(alpha: AlphaSixTuple) -> MaxResult:
    """(xi0, vol): maximize V over I = [max tau, min(eta, 2 pi)].

    Valid for admissible alpha with at least one hyperideal vertex (some
    diagonal cofactor negative); V is then strictly concave on I with
    s' = V' running from +inf to -inf.  Safeguarded Newton on s' = 0:
    each evaluated point xi checks s''(xi) = V''(xi) <= 1e-6 (else
    ValueError) and moves one end of the bracket [lo, hi] to xi by the
    sign of s'(xi), from the sine products without logs.  The next point
    is the Newton step xi - s'/s'' when it stays in the bracket, else the
    bracket midpoint.  The search stops when that step is at most 2 ulp
    of xi, when the bracket is down to |I| * 2^-60, or after 60
    evaluations, and xi0 is the point the last step reached.  Other
    alpha raise ValueError: off the admissible region the maximum need
    not be the volume.
    """
    if not admissible(alpha):
        raise ValueError("maximization formula requires admissible alpha")
    cof = cofactor_matrix(gram_from_alpha(alpha).mat)
    if not any(tol_sign(cof[i, i]) < 0 for i in range(4)):
        raise ValueError(
            "maximization formula requires a hyperideal vertex "
            "(no negative diagonal cofactor)")
    te = tau_eta(alpha)
    lo = max(te.tau)
    hi = min(min(te.eta), TWO_PI)
    if hi <= lo + 1e-14:
        return MaxResult(lo, big_V(alpha, lo))
    width = (hi - lo) * 2.0 ** -60
    xi = 0.5 * (lo + hi)
    for _ in range(_MAX_EVALS):
        s2 = _s_second(xi, te)
        if s2 > 1e-6:
            raise ValueError(f"concavity check failed: s''({xi}) = {s2}")
        num, den = _sine_products(xi, te)
        if num >= den:
            lo = xi
        else:
            hi = xi
        nxt = 0.5 * (lo + hi)
        if num > 0.0 and den > 0.0 and s2 < 0.0:
            newton = xi - math.log(num / den) / s2
            if lo <= newton <= hi:
                nxt = newton
        done = abs(nxt - xi) <= 2.0 * math.ulp(xi) or hi - lo <= width
        xi = nxt
        if done:
            break
    return MaxResult(xi, big_V(alpha, xi))


def schlafli_residual(theta: AngleSixTuple, mu=(-1, -1, -1, -1, -1, -1),
                      h: float = 1e-4) -> tuple[float, ...]:
    """Central-difference check of dVol/dtheta_k = -l_k/2.

    Returns the six residuals (dVol/dtheta_k + l_k/2); requires a
    step h that is positive and finite (ValueError otherwise, 0, NaN
    and infinity included), a tetrahedron with no ideal vertex, and
    each step theta_k +- h must stay inside the same classification
    stratum (same signature, same vertex-type signs).
    """
    return _schlafli(theta, mu, h)[0]


def _schlafli(theta: AngleSixTuple, mu, h: float
              ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(residuals, edge lengths l_k) of `schlafli_residual`: the base
    lengths come with the residuals, since its twelve stepped tuples
    evict the base Gram matrix from the one-entry memos."""
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")

    def stratum(th: AngleSixTuple):
        """(signature pair, signs of the diagonal cofactors) of th."""
        G = gram_from_angles(th)
        cof = cofactor_matrix(G.mat)
        return (signature(G).as_pair(),
                tuple(tol_sign(cof[i, i]) for i in range(4)))

    # edge_length_tuple refuses a signature other than (3,1)
    lengths = edge_length_tuple(gram_from_angles(theta))
    base = stratum(theta)
    if 0 in base[1]:
        raise ValueError("Schlafli residual requires non-ideal vertices")
    out = []
    for k in range(6):
        vols = []
        for step in (h, -h):
            th = list(theta.theta)
            th[k] += step
            if not 0.0 <= th[k] <= math.pi:
                raise ValueError("step crosses stratum: angle leaves [0, pi]")
            t2 = AngleSixTuple(tuple(th))
            if stratum(t2) != base:
                raise ValueError("step crosses stratum")
            vols.append(volume(t2, mu))
        deriv = (vols[0] - vols[1]) / (2.0 * h)
        out.append(deriv + lengths[k] / 2.0)
    return tuple(out), lengths
