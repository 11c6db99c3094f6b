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
ever crossed.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .gram import (DEFAULT_TOL, AlphaSixTuple, AngleSixTuple, admissible,
                   cofactor_matrix, gram_from_alpha, gram_from_angles,
                   signature, tol_sign)
from .qnum import TWO_PI
from .sixj import QUAD_MOVES, VERTEX_TRIPLES
from .tetra import edge_length_tuple


# Coefficients of the Lobachevsky power series
#   Lambda(t) = t - t log(2t) + t * sum_{n>=1} c_n (t/pi)^{2n},
# with c_n = zeta(2n) / (n (2n+1)); c_n -> 1/(n(2n+1)) so ~4^-n decay
# of the terms on [0, pi/2] gives full double precision by n ~ 25.
# Each is float(z_n / (n (2n+1))) * pi^{2n}, with z_n = zeta(2n) / pi^{2n}
# the exact Bernoulli rational, written out so that importing does no
# rational arithmetic; `lob_coeff_exact` in tests/conftest.py recomputes
# them and the tests compare them bit for bit.
_LOB_COEFF = (
    0.5483113556160755, 0.1082323233711138, 0.04844490771354519,
    0.027891037672165112, 0.018199901365960322, 0.012823667776324455,
    0.009524392839381507, 0.0073530535460250585, 0.005847975539726691,
    0.00476190930458111, 0.003952570112452577, 0.0033333335320272933,
    0.002849002891457418, 0.002463054196367815, 0.0021505376364114545,
    0.00189393939438036, 0.001680672269005389, 0.0015015015015233492,
    0.0013495276653220465, 0.0012195121951230584, 0.0011074197120711248,
    0.0010101010101010658, 0.0009250693802035268, 0.0008503401360544231,
    0.0007843137254901953, 0.0007256894049346866, 0.000673400673400672,
    0.0006265664160400989, 0.0005844535359438911, 0.0005464480874316928,
    0.0005120327700972849, 0.00048076923076922955, 0.0004522840343735854,
    0.00042625745950554015, 0.0004024144869215281, 0.00038051750380517393,
    0.00036036036036035934, 0.0003417634996582355, 0.00032456994482310834,
)


def _lob_series(t: float) -> float:
    """Lambda on [0, pi/2] by the log-plus-power-series form."""
    if t == 0.0:
        return 0.0
    acc = 0.0
    x = (t / math.pi) ** 2
    p = 1.0
    for c in _LOB_COEFF:
        p *= x
        term = c * p
        acc += term
        if term < 1e-17:
            break
    return t - t * math.log(2.0 * t) + t * acc


def lobachevsky(theta: float) -> float:
    """The Lobachevsky function Lambda(theta) = -int_0^theta log|2 sin t| dt.

    Odd, pi-periodic; reduced to [0, pi/2] via Lambda(pi - t) = -Lambda(t).
    Absolute accuracy ~1e-15.  A NaN or infinite theta raises
    ValueError.
    """
    try:
        t = math.fmod(theta, math.pi)
    except ValueError:  # fmod of an infinity
        t = math.nan
    if t < 0.0:
        t += math.pi
    if t > math.pi / 2.0:
        return -_lob_series(math.pi - t)
    if t >= 0.0:  # False only for NaN
        return _lob_series(t)
    raise ValueError(f"Lobachevsky function of a non-finite angle: "
                     f"{theta!r}")


class TauEta(NamedTuple):
    """Vertex half-sums tau_1..tau_4 and quadrilateral half-sums eta_1..eta_3."""

    tau: tuple[float, float, float, float]
    eta: tuple[float, float, float]


def tau_eta(alpha: AlphaSixTuple) -> TauEta:
    """tau_i over VERTEX_TRIPLES; eta_j over QUAD_MOVES in reverse order,
    the order of the quadrilateral sums Q_j of the 6j-symbol."""
    al = alpha.alpha
    tau = tuple((al[i] + al[j] + al[k]) / 2.0
                for (i, j, k) in VERTEX_TRIPLES)
    eta = tuple((al[i] + al[j] + al[k] + al[l]) / 2.0
                for (i, j, k, l) in reversed(QUAD_MOVES))
    return TauEta(tau, eta)


def delta_vertex(a: float, b: float, c: float) -> float:
    """The vertex term delta(a,b,c), a four-Lambda combination."""
    return (-0.5 * lobachevsky((-a + b + c) / 2.0)
            - 0.5 * lobachevsky((a - b + c) / 2.0)
            - 0.5 * lobachevsky((a + b - c) / 2.0)
            + 0.5 * lobachevsky((a + b + c) / 2.0))


def _delta_sum(alpha: AlphaSixTuple) -> float:
    al = alpha.alpha
    return sum(delta_vertex(al[i], al[j], al[k])
               for (i, j, k) in VERTEX_TRIPLES)


def big_V(alpha: AlphaSixTuple, xi: float) -> float:
    """V(xi): four vertex deltas plus the xi-dependent Lambda terms."""
    te = tau_eta(alpha)
    out = _delta_sum(alpha) + lobachevsky(TWO_PI - xi)
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


def critical_xi(alpha: AlphaSixTuple) -> CriticalData:
    """Solve the critical-point quadratic for xi and xi_star.

    Requires det G < 0 (hyperbolic case), read off the discriminant as
    det G = disc / 16; the flat family with A = B = C = 0 is the one
    exception and reports xi = 3 pi / 2 with the degenerate flag set.
    """
    u = [cmath.exp(1j * a) for a in alpha.alpha]
    u1, u2, u3, u4, u5, u6 = u
    A = (u1 * u4 + u2 * u5 + u3 * u6
         - u1 * u2 * u6 - u1 * u3 * u5 - u2 * u3 * u4 - u4 * u5 * u6
         + u1 * u2 * u3 * u4 * u5 * u6)
    v1, v2, v3, v4, v5, v6 = [1.0 / x for x in u]
    C = (v1 * v4 + v2 * v5 + v3 * v6
         - v1 * v2 * v6 - v1 * v3 * v5 - v2 * v3 * v4 - v4 * v5 * v6
         + v1 * v2 * v3 * v4 * v5 * v6)
    Bc = -((u1 - v1) * (u4 - v4) + (u2 - v2) * (u5 - v5)
           + (u3 - v3) * (u6 - v6))
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
    tetrahedron with no ideal vertex, and each step theta_k +- h must
    stay inside the same classification stratum (same signature, same
    vertex-type signs).
    """
    return _schlafli(theta, mu, h)[0]


def _schlafli(theta: AngleSixTuple, mu, h: float
              ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(residuals, edge lengths l_k) of `schlafli_residual`: the base
    lengths come with the residuals, since its twelve stepped tuples
    evict the base Gram matrix from the one-entry memos."""
    G = gram_from_angles(theta)
    if signature(G).as_pair() != (3, 1):
        raise ValueError("not a generalized hyperbolic tetrahedron")
    cof = cofactor_matrix(G.mat)
    base_types = tuple(tol_sign(cof[i, i]) for i in range(4))
    if any(t == 0 for t in base_types):
        raise ValueError("Schlafli residual requires non-ideal vertices")
    lengths = edge_length_tuple(G)
    out = []
    for k in range(6):
        vols = []
        for step in (h, -h):
            th = list(theta.theta)
            th[k] += step
            if not 0.0 <= th[k] <= math.pi:
                raise ValueError("step crosses stratum: angle leaves [0, pi]")
            t2 = AngleSixTuple(tuple(th))
            g2 = gram_from_angles(t2)
            if signature(g2).as_pair() != (3, 1):
                raise ValueError("step crosses stratum")
            c2 = cofactor_matrix(g2.mat)
            if tuple(tol_sign(c2[i, i]) for i in range(4)) != base_types:
                raise ValueError("step crosses stratum")
            vols.append(volume(t2, mu))
        deriv = (vols[0] - vols[1]) / (2.0 * h)
        out.append(deriv + lengths[k] / 2.0)
    return tuple(out), lengths
