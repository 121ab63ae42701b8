"""Closed forms of the shell-convolution integrals with independent
low-dimensional quadrature oracles extracted from their delta-function
reductions.

All momenta are real four-vectors (q0, q1, q2, q3) with metric
(+,-,-,-); m is the mass of the shell factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FitUnstable, LightconeError, OutsideUpperCone, SpacelikeQ
from .quadrature import converged, gauss_rule

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


def _bisect(g, lo, hi):
    """Root of g in [lo, hi] by bisection, for finite g(lo) and g(hi) of
    opposite signs; stops once the bracket is narrower than
    1e-15 + 8.9e-16 |midpoint|, or raises after 200 steps."""
    lo_positive = g(lo) > 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-15 + 8.9e-16 * abs(mid):
            return mid
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid > 0) == lo_positive:
            lo = mid
        else:
            hi = mid
    raise LightconeError(f"bisection did not converge in 200 steps on [{lo}, {hi}]")


def conv_K0_shell_oracle(big_omega, m):
    """Delta-function reduction of the same convolution for a rest-frame
    momentum q = (Omega, 0): the light-cone factor sign(p0) delta(p^2)
    restricts p0 = s k (s = +-1, weight s/(2k)), and the remaining mass
    shell delta in k is resolved by numerical root finding with a
    numerical Jacobian.  Raises LightconeError where that Jacobian, a
    central difference at step 1e-3 of terms of size Omega^2, carries a
    roundoff above 1e-11 of itself (from |Omega| of about 180 on)."""
    big_omega, m = float(big_omega), float(m)  # a float's ** raises where numpy's warns
    if big_omega == 0:
        raise SpacelikeQ("Omega = 0")
    total = 0.0
    for s in (1.0, -1.0):

        def g(k):
            # (q - p)^2 - m^2 with p = (s k, k khat), any direction.
            return (big_omega - s * k) ** 2 - k**2 - m**2

        k_hi = 10.0 * (abs(big_omega) + m) + 1.0
        eps = 1e-12
        try:
            g_lo, g_hi = g(eps), g(k_hi)
        except OverflowError:
            g_lo = g_hi = np.inf
        if not (np.isfinite(g_lo) and np.isfinite(g_hi)):
            raise LightconeError(f"non-finite root bracket at Omega = {big_omega}, m = {m}")
        if g_lo * g_hi > 0:
            continue
        k_star = _bisect(g, eps, k_hi)
        h = 1e-3
        slope = (g(k_star + h) - g(k_star - h)) / (2.0 * h)
        # each g(k* +- h) rounds at about eps times its terms, so the
        # quotient's roundoff grows like |Omega| while the slope stays 2|Omega|
        roundoff = np.finfo(float).eps * ((big_omega - s * k_star) ** 2 + k_star**2 + m**2) / h
        if not (np.isfinite(slope) and roundoff <= 1e-11 * abs(slope)):
            raise LightconeError(
                f"central-difference Jacobian {slope} at Omega = {big_omega}"
                f" has a roundoff of {roundoff:.3e}"
            )
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
    """l_max = q0 - sqrt(|q|^2 + m^2), the length of the mass-cone
    integration, or OutsideUpperCone unless l_max > 0: the one place the
    domain of the mass-cone convolution is decided.  For p in the closed
    future light cone and q - p on the future mass shell,
    q^2 = p^2 + 2 p.(q - p) + m^2 >= m^2, so the convolution has support
    only above the shell, in the open upper mass cone."""
    lmax = query.q0 - np.sqrt(query.qvec_norm**2 + query.m**2)
    if not lmax > 0:
        raise OutsideUpperCone(f"q = {query.q} not in the open upper mass cone")
    return lmax


def conv_masscone_shell(query):
    """Closed form of the mass-cone x mass-shell convolution inside the
    open upper mass cone:

        l_max/16 pi^3 + (m^2/32 pi^3) (1/|q|)
            [log((q0 - |q| - l)/(q0 + |q| - l))]_0^{l_max}

    with l_max = q0 - sqrt(|q|^2 + m^2); the |q| -> 0 limit of the
    bracket is -2/(q0 - l).  The bracket difference is log1p(x) with
    x = -2|q| l_max / ((r + |q|)(q0 - |q|)), r = sqrt(|q|^2 + m^2), which
    cancels neither near the shell (l_max -> 0) nor far out (l_max -> q0).
    Below x = -1/2, as at small m, 1 + x cancels (to 0 at m = 1e-8,
    q = (2, 0.5, 0, 0)), so its exact form m^2 (q0 + |q|) / ((r + |q|)^2
    (q0 - |q|)) is taken, as a sum of logs so that nothing underflows."""
    lmax = _ell_max(query)
    m = query.m
    qn = query.qvec_norm
    q0 = query.q0
    r_min = np.sqrt(qn**2 + m**2)
    x = -2.0 * qn * lmax / ((r_min + qn) * (q0 - qn))
    if qn < 1e-6 * m:
        diff = -2.0 * lmax / (r_min * q0)
    elif x >= -0.5:
        diff = np.log1p(x) / qn
    else:
        diff = (2.0 * (np.log(m) - np.log(r_min + qn)) + np.log((q0 + qn) / (q0 - qn))) / qn
    return lmax / PI3_16 + (m**2 / PI3_32) * diff


def conv_masscone_shell_oracle(query):
    """Proof-level 1D reduction: (1/16 pi^3) int_0^{l_max}
    ((q - l)^2 - m^2)/(q - l)^2 dl with l = (ell, 0, 0, 0).

    With r^2 = (q0 - ell)^2 - |q|^2 the integrand is 1 - m^2/r^2, which
    varies on a scale of order m near l_max however large q0 is, so the
    nodes are graded toward l_max: the rule runs in t = log r^2, where the
    integrand is smooth on unit scales.  Gauss panels of width at most 1
    in t (12 nodes) must agree with panels of width at most 2/3 (8 nodes)
    to relative 1e-12."""
    _ell_max(query)
    m = query.m
    qn = query.qvec_norm
    # t at both ends: r^2 is q^2 at ell = 0 and exactly m^2 at ell = l_max
    t_a, t_b = np.log(query.q_sq), 2.0 * np.log(m)

    def integrand(t):
        # (1 - m^2/r^2) d ell/dt, with d ell/dt = -r^2 / (2 (q0 - ell))
        r2 = np.exp(t)
        return -(r2 - m**2) / (2.0 * np.sqrt(r2 + qn**2))

    def quad(width, n):
        edges = np.linspace(t_a, t_b, max(1, int(np.ceil(abs(t_b - t_a) / width))) + 1)
        t, w = gauss_rule(edges[:-1], edges[1:], n)
        return float(np.sum(w * integrand(t)))

    return converged(quad(1.0, 12), quad(2.0 / 3.0, 8), 1e-12, "masscone oracle") / PI3_16


def _omega_weighted_value(query):
    """Proof-level reduction of the frequency-weighted convolution: the
    light-cone momentum has p0 = k = |p_vec| with the angular delta
    admitting k in [A/(2(r0+|q|)), A/(2(r0-|q|))], A = r^2 - m^2,
    r = q - (ell, 0); the inserted frequency factor is (k + ell)."""
    qn = query.qvec_norm
    if qn == 0:
        raise OutsideUpperCone("needs |q_vec| > 0 for the angular reduction")
    lmax = _ell_max(query)

    def w(ell):
        # on (0, l_max): r0 > sqrt(|q|^2 + m^2), so a > 0 and k_lo < k_hi
        r0 = query.q0 - ell
        a = r0**2 - qn**2 - query.m**2
        k_lo = a / (2.0 * (r0 + qn))
        k_hi = min(a / (2.0 * (r0 - qn)), r0)
        anti = lambda k: k**2 / 2.0 + ell * k
        return (np.pi / qn) * (anti(k_hi) - anti(k_lo))

    return 2.0 * sum(wt * w(ell) for ell, wt in zip(*gauss_rule(0.0, lmax, 80)))


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
