"""Piecewise (alpha, beta) line-integral weight functions, their
subtraction/compactification identities, nested and unbounded line
integrals, and the damped oracle for the antisymmetric bi-distribution.

The piecewise functions are bilinear polynomials c0 + c1*a + c2*b + c3*a*b
on finitely many regions (interval x interval, optionally cut by the
diagonal).  All region coefficients are integers, so evaluation is exact
through PiecewisePoly2.scaled on integer numerators and denominators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureNotConverged, TailNotNegligible, TooCloseToSingularSet
from .quadrature import converged, extrapolate_to_zero, gauss_rule, kronrod_rule

# Half-plane tags for regions cut by the diagonal.
ABOVE = "b>a"
BELOW = "a>b"


@dataclass(frozen=True)
class Region:
    """One region: alpha-interval x beta-interval, optional diagonal cut,
    and the bilinear polynomial (c0, c1, c2, c3).  Intervals are
    closed-below / open-above; None means unbounded."""

    a_lo: object
    a_hi: object
    b_lo: object
    b_hi: object
    halfplane: object  # None, ABOVE, or BELOW
    coeffs: tuple

    def contains(self, pa, qa, pb, qb):
        """Whether a = pa/qa, b = pb/qb (qa, qb > 0) is in the region."""
        inside = True
        for p, q, lo, hi in ((pa, qa, self.a_lo, self.a_hi), (pb, qb, self.b_lo, self.b_hi)):
            if lo is not None:
                inside = inside & (p >= lo * q)
            if hi is not None:
                inside = inside & (p < hi * q)
        if self.halfplane == ABOVE:
            inside = inside & (pb * qa > pa * qb)
        if self.halfplane == BELOW:
            inside = inside & (pa * qb > pb * qa)
        return inside

    def value(self, pa, qa, pb, qb):
        """qa*qb times the polynomial at a = pa/qa, b = pb/qb."""
        c0, c1, c2, c3 = self.coeffs
        return c0 * qa * qb + c1 * qb * pa + c2 * qa * pb + c3 * pa * pb


@dataclass(frozen=True)
class PiecewisePoly2:
    regions: tuple

    def scaled(self, pa, qa, pb, qb):
        """qa*qb times the function at a = pa/qa, b = pb/qb (qa, qb > 0), as
        an array, elementwise: exact on integer numerators and denominators.
        f(a, b) is the case qa = qb = 1, which float tables take; a cell in
        no region keeps the sign of 0 * pa."""
        total = 0 * pa
        for r in self.regions:
            total = np.where(r.contains(pa, qa, pb, qb), total + r.value(pa, qa, pb, qb), total)
        return total

    def __call__(self, a, b):
        return self.scaled(a, 1, b, 1)


# Sawtooth-type weight with four regions around the unit square.
J = PiecewisePoly2((
    Region(1, None, 0, 1, None, (0, 1, 3, -4)),
    Region(None, 0, 0, 1, None, (0, -3, -1, 4)),
    Region(1, None, 1, None, BELOW, (0, 4, 4, -8)),
    Region(None, 0, None, 0, ABOVE, (0, -4, -4, 8)),
))

# Odd companion weight supported left/right of the unit square.
I = PiecewisePoly2((
    Region(1, None, 0, 1, None, (-1, 1, 1, 0)),
    Region(None, 0, 0, 1, None, (1, -1, -1, 0)),
))

# 2*(a + b - 2ab) * Theta(ab) * sign(a - b): same-sign quadrants cut by
# the diagonal.
U = PiecewisePoly2((
    Region(0, None, 0, None, BELOW, (0, 2, 2, -4)),
    Region(0, None, 0, None, ABOVE, (0, -2, -2, 4)),
    Region(None, 0, None, 0, BELOW, (0, 2, 2, -4)),
    Region(None, 0, None, 0, ABOVE, (0, -2, -2, 4)),
))

# Compactified weight: (a - b) on the unit square plus
# (4ab - 2a - 2b) * sign(b - a) on the rest of the same-sign quadrants.
JTILDE = PiecewisePoly2((
    Region(0, 1, 0, 1, None, (0, 1, -1, 0)),
    Region(1, None, 0, 1, None, (0, 2, 2, -4)),
    Region(1, None, 1, None, BELOW, (0, 2, 2, -4)),
    Region(1, None, 1, None, ABOVE, (0, -2, -2, 4)),
    Region(0, 1, 1, None, None, (0, -2, -2, 4)),
    Region(None, 0, None, 0, BELOW, (0, 2, 2, -4)),
    Region(None, 0, None, 0, ABOVE, (0, -2, -2, 4)),
))

# Odd difference weight: JTILDE - U restricted to the unit square.
V = PiecewisePoly2((
    Region(None, None, None, None, BELOW, (0, -1, -3, 4)),
    Region(None, None, None, None, ABOVE, (0, 3, 1, -4)),
))

_FUNCTIONS = {"J": J, "I": I, "U": U, "Jtilde": JTILDE, "V": V}

# Subtraction steps reducing J to JTILDE (each is a single-region
# piecewise polynomial; their sum differs from J - JTILDE on a null set
# only).
SUBTRACTIONS = (
    PiecewisePoly2((Region(None, None, 0, 1, None, (0, -3, -1, 4)),)),
    PiecewisePoly2((Region(None, 0, None, None, None, (0, -2, -2, 4)),)),
    PiecewisePoly2((Region(None, None, 0, None, None, (0, 2, 2, -4)),)),
)


def eval_piecewise(fn, a, b):
    """Evaluate one of the named piecewise functions J, I, U, Jtilde, V,
    elementwise on float arrays (exact values come from
    PiecewisePoly2.scaled on integers); region boundaries follow the
    closed-below / open-above convention."""
    return _FUNCTIONS[fn](a, b)


def compact_identity_residual(pa, qa, pb, qb):
    """Max over a = pa/qa, b = pb/qb (integer arrays, qa, qb > 0, all below
    a few thousand) of |JTILDE(a,b) - U(a,b) - V(a,b)*chi(a,b)| with chi the
    indicator of the half-open unit square [0,1)^2 (matching the
    closed-below / open-above region convention), in one exact int64 pass:
    the correctly rounded float of the exact worst residual, 0.0 iff none."""
    chi = (pa >= 0) & (pa < qa) & (pb >= 0) & (pb < qb)
    res = JTILDE.scaled(pa, qa, pb, qb) - U.scaled(pa, qa, pb, qb) - V.scaled(pa, qa, pb, qb) * chi
    return float(np.max(np.abs(res) / (qa * qb)))


def _weight(tau, p, q, r):
    return tau**p * (1.0 - tau) ** q * (tau - tau * tau) ** r


def nested_line_integral(F, G, x, y, w1, w2):
    """Nested segment integral

        int_0^1 dtau w1(tau) int_0^1 dtau~ w2(tau~) F(z) G(z~)

    with z = tau*y + (1-tau)*x and z~ = tau~*y + (1-tau~)*z, weights
    w(tau) = tau^p (1-tau)^q (tau - tau^2)^r given as triples (p, q, r).
    48-point Gauss-Legendre tensor quadrature; 72 points must agree to
    relative 1e-9.

    F and G take the points as the columns of a (4, m) array and return
    the m values (or one scalar, broadcast); each is called once per rule."""
    x = np.asarray(x, dtype=float)[:, None]
    y = np.asarray(y, dtype=float)[:, None]

    def compute(n):
        tau, wq = gauss_rule(0.0, 1.0, n)
        wa = wq * _weight(tau, *w1)
        wb = wq * _weight(tau, *w2)
        z = tau * y + (1.0 - tau) * x
        # inner point (i, j) at column i*n + j
        zt = (tau * y[:, :, None] + (1.0 - tau) * z[:, :, None]).reshape(4, n * n)
        fz = np.broadcast_to(F(z), (n,))
        gz = np.broadcast_to(G(zt), (n * n,)).reshape(n, n)
        return complex(wa @ (fz * (gz @ wb)))

    v1 = compute(48)
    return converged(compute(72), v1, 1e-9, "nested line integral")


# Relative tolerance of unbounded_line_integral's Kronrod guard.
LINE_INTEGRAL_RTOL = 1e-9


def unbounded_line_integral(j, x, direction, cutoff):
    """Weighted line integral of a current j along the null ray through x:

        int_-cutoff^cutoff a^2 sign(a) (j^0 - dir . j_vec)(x0 + a, x_vec + a dir) da

    j maps a spacetime point (4 floats) to a real 4-vector j^k; it is
    called once per node, on 8 panels of the 21-point Kronrod rule.  The
    tail beyond the cutoff is estimated on [cutoff, 2 cutoff] and
    [-2 cutoff, -cutoff]; above relative 1e-6 the integral is rejected.
    The Kronrod value is returned once the embedded 10-point Gauss rule
    agrees with it to relative LINE_INTEGRAL_RTOL = 1e-9
    (QuadratureNotConverged otherwise)."""
    x = np.asarray(x, dtype=float)
    direction = np.asarray(direction, dtype=float)
    xi = np.concatenate(([1.0], direction))
    edges = -cutoff + 2.0 * cutoff * np.arange(9) / 8
    # rows 0-7: the panels on [-cutoff, cutoff]; rows 8 and 9: the tails
    lo = np.concatenate((edges[:-1], [cutoff, -2.0 * cutoff]))
    hi = np.concatenate((edges[1:], [2.0 * cutoff, -cutoff]))
    a, wk, wg = kronrod_rule(lo, hi)
    jk = np.array([j(point) for point in x + a.reshape(-1, 1) * xi], dtype=float)
    f = a * a * np.sign(a) * (jk @ np.concatenate(([1.0], -direction))).reshape(a.shape)
    panels = np.sum(wk * f, axis=1)
    total = float(np.sum(panels[:8]))
    tail = abs(panels[8]) + abs(panels[9])
    if tail > 1e-6 * max(1.0, abs(total)):
        raise TailNotNegligible(f"tail estimate {tail:.3e} beyond cutoff {cutoff}")
    gauss = float(np.sum(wg[:8] * f[:8, 1::2]))
    return converged(total, gauss, LINE_INTEGRAL_RTOL, "unbounded line integral")


# Relative tolerance of the damped blocks' Kronrod guard, and the most
# panels their rule may take: one period per panel on [0, 40/damping] is
# about 6.4 |w|/damping panels, each costing one complex exponential per
# rung, and past the cap the blocks raise rather than sum millions of terms.
DAMPED_BLOCK_RTOL = 1e-9
DAMPED_BLOCK_PANELS = 100_000


def _damped_blocks(w, ladder):
    """The damped blocks at frequency w for every damping of `ladder`:

        E(w) = int sign(a) exp(-i a w - eps |a|) da = -2i int_0^inf exp(-eps a) sin(a w) da
        D(w) = int exp(-i a w - eps |a|) da = 2 int_0^inf exp(-eps a) cos(a w) da

    as two arrays over the rungs.  One rule serves the whole ladder:
    21-point Kronrod panels, each at most one period of max(|w|, 0.25)
    wide, on [0, 40/min(ladder)].  The P panels are uniform, so node t_j of
    the panel starting at s_p carries the same weight c_j on every panel,
    and at each rung the rule's sum of exp((i w - eps) a) factors exactly
    into sum_p exp((i w - eps) s_p) times sum_j c_j exp((i w - eps) t_j):
    P + 21 complex exponentials per rung.  The sum over panel starts is
    taken term by term, not as a geometric series, which loses digits when
    its ratio is near 1.  E = -2i Im and D = 2 Re of the rule's sum; each
    rung's E and D are returned once the embedded 10-point Gauss rule,
    factored the same way, agrees with them to relative DAMPED_BLOCK_RTOL;
    QuadratureNotConverged otherwise, or when the rule would need more than
    DAMPED_BLOCK_PANELS panels."""
    upper = 40.0 / min(ladder)
    npanels = int(np.ceil(upper * max(abs(w), 0.25) / (2.0 * np.pi)))
    if npanels > DAMPED_BLOCK_PANELS:
        raise QuadratureNotConverged(
            f"damped blocks at w = {w}: {npanels} panels exceed the cap {DAMPED_BLOCK_PANELS}"
        )
    width = upper / npanels
    t, wk, wg = kronrod_rule(0.0, width)
    rate = 1j * w - np.asarray(ladder)
    over_panels = np.sum(np.exp(np.multiply.outer(rate, width * np.arange(npanels))), axis=1)
    one_panel = np.exp(np.multiply.outer(rate, t))
    kronrod, gauss = over_panels * (one_panel @ wk), over_panels * (one_panel[:, 1::2] @ wg)
    e, d = -2j * kronrod.imag, 2.0 * kronrod.real
    for r, eps in enumerate(ladder):
        converged(e[r], -2j * gauss[r].imag, DAMPED_BLOCK_RTOL,
                  f"damped sign block at w = {w}, damping {eps}")
        converged(d[r], 2.0 * gauss[r].real, DAMPED_BLOCK_RTOL,
                  f"damped delta block at w = {w}, damping {eps}")
    return e, d


def damped_sign_block(w, damping):
    """Quadrature oracle for int sign(a) exp(-i a w - damping |a|) da
    = -2i int_0^inf exp(-damping a) sin(a w) da."""
    return _damped_blocks(w, (damping,))[0][0]


def damped_delta_block(w, damping):
    """Quadrature oracle for int exp(-i a w - damping |a|) da
    = 2 int_0^inf exp(-damping a) cos(a w) da = 2 damping/(w^2+damping^2)."""
    return _damped_blocks(w, (damping,))[1][0]


# Rungs extrapolated to zero damping, and their least distance from the singular set.
DAMPING_LADDER = (5e-2, 2.5e-2)
SINGULAR_DISTANCE = 1e-1


def bidist_A_oracle(u, v, damping=None):
    """Damped evaluation of the antisymmetric bi-distribution built from
    4 Theta(ab) sign(a - b) = sign(a) - sign(b) - 2 sign(a - b):

        A_eps(u, v) = E(u) D(v) - D(u) E(v) - 2 E(u) D(u + v)

    with E the damped odd block and D the damped delta block, both
    computed by quadrature, on one rule per frequency u, v and u + v that
    serves every rung (see _damped_blocks).  With damping=None the two
    rungs 5e-2 and 2.5e-2 are evaluated and linearly extrapolated to zero
    damping; the arguments u, v, u + v and u - v must then stay 1e-1 away
    from zero.
    With a damping given, A_eps is returned at that damping, and the
    arguments must stay that far from zero."""
    distance = SINGULAR_DISTANCE if damping is None else damping
    for w in (u, v, u + v, u - v):
        if abs(w) <= distance:
            raise TooCloseToSingularSet(f"argument {w} within damping of singular set")

    ladder = DAMPING_LADDER if damping is None else (damping,)
    (eu, du), (ev, dv), (_, duv) = (_damped_blocks(w, ladder) for w in (u, v, u + v))
    values = eu * dv - du * ev - 2.0 * eu * duv
    if damping is not None:
        return values[0]
    return extrapolate_to_zero(DAMPING_LADDER, values)
