"""Closed forms of the shell-convolution integrals with independent
low-dimensional quadrature oracles extracted from their delta-function
reductions.

All momenta are real four-vectors (q0, q1, q2, q3) with metric
(+,-,-,-); m is the mass of the shell factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FitUnstable,
    LightconeError,
    OutsideUpperCone,
    QuadratureNotConverged,
    SpacelikeQ,
)
from .quadrature import gauss_legendre

PI3_16 = 16.0 * np.pi**3
PI3_32 = 32.0 * np.pi**3


def _const_one(q):
    return 1.0


@dataclass(frozen=True)
class ShellIntegralQuery:
    q: tuple
    m: float
    h: object = field(default=_const_one)

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("mass must be positive")

    @property
    def q0(self):
        return float(self.q[0])

    @property
    def qvec_norm(self):
        return float(np.linalg.norm(np.asarray(self.q, dtype=float)[1:]))

    @property
    def q_sq(self):
        return self.q0**2 - self.qvec_norm**2


def conv_K0_shell(query):
    """Leading closed form of the light-cone x mass-shell convolution:
    (1/32 pi^3) ((q^2 - m^2)/q^2) sign(q0) h(-q)."""
    q2 = query.q_sq
    if q2 <= 0:
        raise SpacelikeQ(f"q^2 = {q2:.6g} <= 0")
    hval = query.h(tuple(-c for c in query.q))
    return (1.0 / PI3_32) * ((q2 - query.m**2) / q2) * np.sign(query.q0) * hval


def _bisect(g, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200):
    """Root of g in [lo, hi] by bisection, for finite g(lo) and g(hi) of
    opposite signs; stops once the bracket is narrower than
    xtol + rtol |midpoint|."""
    lo_positive = g(lo) > 0
    for _ in range(maxiter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol + rtol * abs(mid):
            return mid
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid > 0) == lo_positive:
            lo = mid
        else:
            hi = mid
    raise LightconeError(f"bisection did not converge in {maxiter} steps on [{lo}, {hi}]")


def conv_K0_shell_oracle(big_omega, m):
    """Delta-function reduction of the same convolution for a rest-frame
    momentum q = (Omega, 0): the light-cone factor sign(p0) delta(p^2)
    restricts p0 = s k (s = +-1, weight s/(2k)), and the remaining mass
    shell delta in k is resolved by numerical root finding with a
    numerical Jacobian."""
    if big_omega == 0:
        raise SpacelikeQ("Omega = 0")
    total = 0.0
    for s in (1.0, -1.0):

        def g(k):
            # (q - p)^2 - m^2 with p = (s k, k khat), any direction.
            return (big_omega - s * k) ** 2 - k**2 - m**2

        k_hi = 10.0 * (abs(big_omega) + m) + 1.0
        eps = 1e-12
        g_lo, g_hi = g(eps), g(k_hi)
        if not (np.isfinite(g_lo) and np.isfinite(g_hi)):
            raise LightconeError(f"non-finite root bracket at Omega = {big_omega}, m = {m}")
        if g_lo * g_hi > 0:
            continue
        k_star = _bisect(g, eps, k_hi)
        h = 1e-3
        slope = (g(k_star + h) - g(k_star - h)) / (2.0 * h)
        # far out, k* +- h round to k* and the difference quotient vanishes
        if slope == 0.0 or not np.isfinite(slope):
            raise LightconeError(f"central-difference Jacobian {slope} at Omega = {big_omega}")
        jac = abs(slope)
        # one Newton polish with the central-difference derivative
        k_star -= g(k_star) / slope
        # 4 pi k^2 dk / (2 pi)^4 against the odd light-cone weight s/(2k).
        total += (
            (4.0 * np.pi / (2.0 * np.pi) ** 4)
            * k_star**2
            * (s / (2.0 * k_star))
            / jac
        )
    return total


def _ell_max(query):
    return query.q0 - np.sqrt(query.qvec_norm**2 + query.m**2)


def conv_masscone_shell(query):
    """Closed form of the mass-cone x mass-shell convolution inside the
    open upper mass cone:

        l_max/16 pi^3 + (m^2/32 pi^3) (1/|q|)
            [log((q0 - |q| - l)/(q0 + |q| - l))]_0^{l_max}

    with l_max = q0 - sqrt(|q|^2 + m^2); the |q| -> 0 limit of the
    bracket is -2/(q0 - l)."""
    if query.q_sq <= 0 or query.q0 <= 0:
        raise OutsideUpperCone(f"q = {query.q} not in the open upper cone")
    m = query.m
    qn = query.qvec_norm
    lmax = _ell_max(query)

    def bracket(ell):
        if qn < 1e-6 * m:
            return -2.0 / (query.q0 - ell)
        return (1.0 / qn) * np.log((query.q0 - qn - ell) / (query.q0 + qn - ell))

    return lmax / PI3_16 + (m**2 / PI3_32) * (bracket(lmax) - bracket(0.0))


def conv_masscone_shell_oracle(query, tol=1e-12):
    """Proof-level 1D reduction: (1/16 pi^3) int_0^{l_max}
    ((q - l)^2 - m^2)/(q - l)^2 dl with l = (ell, 0, 0, 0); for momenta
    below the shell (l_max < 0) the integration runs from -l_max to 0.
    Adaptive Gauss quadrature with refinement check."""
    if query.q_sq <= 0 or query.q0 <= 0:
        raise OutsideUpperCone(f"q = {query.q} not in the open upper cone")
    m = query.m
    qn = query.qvec_norm
    lmax = _ell_max(query)

    def integrand(ell):
        r2 = (query.q0 - ell) ** 2 - qn**2
        return (r2 - m**2) / r2

    lo, hi = (0.0, lmax) if lmax >= 0.0 else (-lmax, 0.0)

    def quad(n):
        nodes, weights = gauss_legendre(n)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        return half * np.sum(weights * integrand(mid + half * nodes))

    v1, v2 = quad(60), quad(90)
    if abs(v2 - v1) > tol * max(1.0, abs(v2)):
        raise QuadratureNotConverged(f"refinement moved by {abs(v2 - v1):.3e}")
    return v2 / PI3_16


def _omega_weighted_value(query):
    """Proof-level reduction of the frequency-weighted convolution: the
    light-cone momentum has p0 = k = |p_vec| with the angular delta
    admitting k in [A/(2(r0+|q|)), A/(2(r0-|q|))], A = r^2 - m^2,
    r = q - (ell, 0); the inserted frequency factor is (k + ell)."""
    qn = query.qvec_norm
    if qn == 0:
        raise OutsideUpperCone("needs |q_vec| > 0 for the angular reduction")
    lmax = _ell_max(query)
    if lmax <= 0:
        return 0.0

    def w(ell):
        r0 = query.q0 - ell
        a = r0**2 - qn**2 - query.m**2
        if a <= 0:
            return 0.0
        k_lo = a / (2.0 * (r0 + qn))
        k_hi = min(a / (2.0 * (r0 - qn)), r0)
        if k_hi <= k_lo:
            return 0.0
        anti = lambda k: k**2 / 2.0 + ell * k
        return (np.pi / qn) * (anti(k_hi) - anti(k_lo))

    nodes, weights = gauss_legendre(80)
    mid, half = 0.5 * lmax, 0.5 * lmax
    return 2.0 * half * sum(wt * w(mid + half * t) for t, wt in zip(nodes, weights))


def conv_omega_scaling(q_sequence, m, weighted=True):
    """Least-squares slope of log|value| against log(q^2 - m^2) along a
    momentum sequence approaching the shell.  weighted=True uses the
    frequency-weighted reduction (expected slope about 3); weighted=False
    uses the curly bracket of the mass-cone closed form (expected slope
    about 2)."""
    xs, ys = [], []
    for q in q_sequence:
        query = ShellIntegralQuery(tuple(q), m)
        eps = query.q_sq - m**2
        if eps <= 0:
            raise OutsideUpperCone(f"q = {q} not above the shell")
        if weighted:
            v = _omega_weighted_value(query)
        else:
            v = PI3_16 * conv_masscone_shell(query)
        if not np.isfinite(v) or v == 0.0:
            raise FitUnstable(f"value {v} at q = {q}")
        xs.append(np.log(eps))
        ys.append(np.log(abs(v)))
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = np.max(np.abs(np.polyval([slope, intercept], xs) - ys))
    if resid > 0.2:
        raise FitUnstable(f"fit residual {resid:.3f}")
    return float(slope)
