"""Lobachevsky/dilogarithm special functions and the volume formulas.

Two independent routes to the volume of a generalized hyperbolic
tetrahedron are implemented:

* `volume`: the closed form V(xi(alpha)) where xi comes from solving the
  quadratic A z^2 + B z + C = 0 built from u_k = e^{i alpha_k}; the
  discriminant satisfies B^2 - 4AC = 16 det G, negative exactly in the
  hyperbolic case, and the root z = (-B + sqrt(disc))/(2A) lies on the
  unit circle and pins xi in [pi, 2 pi) through e^{-2 i xi} = z.

* `volume_by_max`: when at least one vertex is hyperideal, the same
  number is the maximum of the strictly concave

      V(xi) = sum_of_deltas + Lambda(2 pi - xi)
              + sum_i Lambda(xi - tau_i) + sum_j Lambda(eta_j - xi)

  over I = [max tau_i, min(eta_j, 2 pi)], located by bisection on the
  sign of s'(xi) = log( sin(2pi-xi) prod_j sin(eta_j-xi)
                        / prod_i sin(xi-tau_i) ).

Here tau are the four vertex half-sums of alpha and eta the three
quadrilateral half-sums.  All Lambda evaluations use oddness and
pi-periodicity for range reduction, so no dilogarithm branch cuts are
ever crossed; the complex U-function is kept only as a cross-check
through V = Im(U)/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .gram import (ANGLE_VERTEX_TRIPLES, DEFAULT_TOL, AlphaSixTuple,
                   AngleSixTuple, cofactor_matrix, gram_from_alpha,
                   gram_from_angles, signature, tol_sign)
from .qnum import TWO_PI
from .tetra import edge_length_tuple

ALPHA_QUADS = ((0, 1, 3, 4), (0, 2, 3, 5), (1, 2, 4, 5))


def _zeta_even_over_pi_powers(count: int) -> list[Fraction]:
    """Exact zeta(2n) / pi^{2n} = |B_2n| 2^{2n-1} / (2n)! for n = 1..count.

    Euler's convolution of the Bernoulli numbers,
    (n + 1/2) zeta(2n) = sum_{k=1}^{n-1} zeta(2k) zeta(2n-2k), from
    zeta(2) = pi^2 / 6.
    """
    out = [Fraction(1, 6)]
    for n in range(2, count + 1):
        conv = sum(out[k - 1] * out[n - k - 1] for k in range(1, n))
        out.append(conv / (n + Fraction(1, 2)))
    return out


# Coefficients of the Lobachevsky power series
#   Lambda(t) = t - t log(2t) + t * sum_{n>=1} c_n (t/pi)^{2n},
# with c_n = zeta(2n) / (n (2n+1)); c_n -> 1/(n(2n+1)) so ~4^-n decay
# of the terms on [0, pi/2] gives full double precision by n ~ 25.
_LOB_COEFF = [float(z / (n * (2 * n + 1))) * math.pi ** (2 * n)
              for n, z in enumerate(_zeta_even_over_pi_powers(39), start=1)]


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
    Absolute accuracy ~1e-15.
    """
    t = math.fmod(theta, math.pi)
    if t < 0.0:
        t += math.pi
    if t > math.pi / 2.0:
        return -_lob_series(math.pi - t)
    return _lob_series(t)


def dilog_unit_circle(theta: float) -> complex:
    """Li_2(e^{2 i theta}) for 0 <= theta <= pi.

    Real part pi^2/6 + theta(theta - pi); imaginary part 2 Lambda(theta).
    """
    if not -1e-12 <= theta <= math.pi + 1e-12:
        raise ValueError(f"dilog argument {theta} outside [0, pi]")
    return complex(math.pi ** 2 / 6.0 + theta * (theta - math.pi),
                   2.0 * lobachevsky(theta))


def _ell(x: float) -> complex:
    """L(x) = Li_2(e^{2ix}) + x^2, reduced mod pi inside the dilogarithm."""
    t = math.fmod(x, math.pi)
    if t < 0.0:
        t += math.pi
    return dilog_unit_circle(t) + x * x


@dataclass(frozen=True)
class TauEta:
    """Vertex half-sums tau_1..tau_4 and quadrilateral half-sums eta_1..eta_3."""

    tau: tuple[float, float, float, float]
    eta: tuple[float, float, float]


def tau_eta(alpha: AlphaSixTuple) -> TauEta:
    al = alpha.alpha
    tau = tuple((al[i] + al[j] + al[k]) / 2.0
                for (i, j, k) in ANGLE_VERTEX_TRIPLES)
    eta = tuple((al[i] + al[j] + al[k] + al[l]) / 2.0
                for (i, j, k, l) in ALPHA_QUADS)
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
               for (i, j, k) in ANGLE_VERTEX_TRIPLES)


def big_V(alpha: AlphaSixTuple, xi: float) -> float:
    """V(xi): four vertex deltas plus the xi-dependent Lambda terms."""
    te = tau_eta(alpha)
    out = _delta_sum(alpha) + lobachevsky(TWO_PI - xi)
    for t in te.tau:
        out += lobachevsky(xi - t)
    for e in te.eta:
        out += lobachevsky(e - xi)
    return out


def big_U(alpha: AlphaSixTuple, xi: float) -> complex:
    """The complex potential U(alpha, xi); Im U = 2 V pointwise."""
    te = tau_eta(alpha)
    out = 0.0 + 0.0j
    for t in te.tau:
        for e in te.eta:
            out -= 0.5 * _ell(e - t)
        out += 0.5 * _ell(t - math.pi)
        out += _ell(xi - t)
    out -= _ell(xi - math.pi)
    for e in te.eta:
        out += _ell(e - xi)
    return out


@dataclass(frozen=True)
class CriticalData:
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


def critical_xi(alpha: AlphaSixTuple, tol: float = DEFAULT_TOL) -> CriticalData:
    """Solve the critical-point quadratic for xi and xi_star.

    Requires det G < 0 (hyperbolic case); the flat family with
    A = B = C = 0 is the one exception and reports xi = 3 pi / 2 with
    the degenerate flag set.
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

    det_g = float(np.linalg.det(gram_from_alpha(alpha).mat))
    if abs(A) <= tol and abs(B) <= tol:
        # Flat family: the quadratic vanishes identically and so does
        # the xi-dependence of V; report the midpoint root z = -1.
        xi = 1.5 * math.pi
        return CriticalData(A=A, B=B, C=C, disc=disc, z=-1.0 + 0.0j,
                            z_star=-1.0 + 0.0j, xi=xi, xi_star=xi,
                            degenerate=True)
    if det_g >= -tol:
        raise ValueError("no hyperbolic critical point")
    root = 1j * math.sqrt(abs(disc))  # disc < 0 here; sqrt(x) = i sqrt|x|
    z = (-B + root) / (2.0 * A)
    z_star = (-B - root) / (2.0 * A)
    return CriticalData(A=A, B=B, C=C, disc=disc, z=z, z_star=z_star,
                        xi=_xi_from_root(z), xi_star=_xi_from_root(z_star))


def volume(theta: AngleSixTuple, mu=(-1, -1, -1, -1, -1, -1),
           tol: float = DEFAULT_TOL) -> float:
    """Vol = V(xi(alpha)) with alpha_k = pi + mu_k theta_k.

    Branch-invariant: any of the 64 sign vectors gives the same value.
    Flat configurations (degenerate quadratic) get volume 0.
    """
    alpha = AlphaSixTuple.from_theta(theta, mu)
    data = critical_xi(alpha, tol)
    return big_V(alpha, data.xi)


def _s_prime_sign(xi: float, te: TauEta) -> int:
    """Sign of s'(xi) by comparing the sine products (no logs)."""
    num = abs(math.sin(TWO_PI - xi))
    for e in te.eta:
        num *= abs(math.sin(e - xi))
    den = 1.0
    for t in te.tau:
        den *= abs(math.sin(xi - t))
    if num > den:
        return 1
    if num < den:
        return -1
    return 0


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


def volume_by_max(alpha: AlphaSixTuple,
                  tol: float = DEFAULT_TOL) -> MaxResult:
    """(xi0, vol): maximize V over I = [max tau, min(eta, 2 pi)].

    Valid when at least one vertex is hyperideal (some diagonal cofactor
    negative); V is then strictly concave on I with s' running from
    +inf to -inf, and 60 derivative-sign bisections pin the argmax to
    |I| * 2^-60.
    """
    cof = cofactor_matrix(gram_from_alpha(alpha).mat)
    if not any(cof[i, i] < -tol for i in range(4)):
        raise ValueError(
            "maximization formula requires a hyperideal vertex "
            "(no negative diagonal cofactor)")
    te = tau_eta(alpha)
    lo = max(te.tau)
    hi = min(min(te.eta), TWO_PI)
    if hi <= lo + 1e-14:
        return MaxResult(lo, big_V(alpha, lo))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        s2 = _s_second(mid, te)
        if s2 > 1e-6:
            raise ValueError(f"concavity check failed: s''({mid}) = {s2}")
        if _s_prime_sign(mid, te) >= 0:
            lo = mid
        else:
            hi = mid
    xi0 = 0.5 * (lo + hi)
    return MaxResult(xi0, big_V(alpha, xi0))


def schlafli_residual(theta: AngleSixTuple, mu=(-1, -1, -1, -1, -1, -1),
                      h: float = 1e-4,
                      tol: float = DEFAULT_TOL) -> tuple[float, ...]:
    """Central-difference check of dVol/dtheta_k = -l_k/2.

    Returns the six residuals (dVol/dtheta_k + l_k/2); requires a
    tetrahedron with no ideal vertex, and each step theta_k +- h must
    stay inside the same classification stratum (same signature, same
    vertex-type signs).
    """
    G = gram_from_angles(theta)
    if signature(G, tol).as_pair() != (3, 1):
        raise ValueError("not a generalized hyperbolic tetrahedron")
    cof = cofactor_matrix(G.mat)
    base_types = tuple(tol_sign(cof[i, i], tol) for i in range(4))
    if any(t == 0 for t in base_types):
        raise ValueError("Schlafli residual requires non-ideal vertices")
    lengths = edge_length_tuple(G, tol)
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
            if signature(g2, tol).as_pair() != (3, 1):
                raise ValueError("step crosses stratum")
            c2 = cofactor_matrix(g2.mat)
            if tuple(tol_sign(c2[i, i], tol) for i in range(4)) != base_types:
                raise ValueError("step crosses stratum")
            vols.append(volume(t2, mu, tol))
        deriv = (vols[0] - vols[1]) / (2.0 * h)
        out.append(deriv + lengths[k] / 2.0)
    return tuple(out)
