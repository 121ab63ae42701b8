"""The quadrature layer shared by every numerical integral in the library:
Gauss-Legendre rules on an interval, the 21-point Gauss-Kronrod rule with
its embedded 10-point Gauss rule, the refinement guard, and the
extrapolation of a regularised value to zero regulator."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureNotConverged


# Newton's method on the Legendre recurrence stops once a step moves no node
# by more than NEWTON_TOL, and raises after NEWTON_STEPS steps.  The error
# left after a step is at most about n^2 times the step squared, so this
# tolerance leaves the nodes at roundoff; three steps reach it for n >= 5.
NEWTON_TOL = 1e-12
NEWTON_STEPS = 10


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, elementwise on x."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@lru_cache(maxsize=64)
def gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    nodes ascending.

    The nonnegative nodes are found by Newton's method on the three-term
    recurrence, started from Tricomi's asymptotic guesses (Hale & Townsend,
    SIAM J. Sci. Comput. 35, 2013), and mirrored, so nodes and weights are
    exactly symmetric; QuadratureNotConverged if NEWTON_STEPS steps do not
    converge.  Computed once per n and shared by every caller, so both
    arrays are read-only: map them to a panel by building new arrays."""
    theta = np.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4.0 * n + 2.0)
    x = np.cos(theta) * (
        1.0 - (n - 1) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)
    )
    if n % 2:
        x[-1] = 0.0  # the middle node, a root of every odd P_n
    for _ in range(NEWTON_STEPS):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= NEWTON_TOL:
            break
    else:
        raise QuadratureNotConverged(f"Gauss-Legendre nodes, n = {n}: Newton did not converge")
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return read_only(np.concatenate((-x, x[::-1][n % 2 :])), np.concatenate((w, w[::-1][n % 2 :])))


def read_only(*arrays):
    """The arrays, made read-only, as a tuple: for a cached result that
    every caller shares."""
    for x in arrays:
        x.flags.writeable = False
    return arrays


def _map(lo, hi, nodes, *weights):
    """A rule on [-1, 1] moved to the panels [lo, hi]: the nodes, then
    each set of weights, each of shape broadcast(lo, hi) + its own length."""
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi) + half * nodes, *(half * w for w in weights))


def gauss_rule(lo, hi, n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [lo, hi].

    lo and hi may be scalars or arrays (one panel per element); both
    results have shape broadcast(lo, hi) + (n,)."""
    return _map(lo, hi, *gauss_legendre(n))


# QUADPACK's qk21 on [-1, 1], from x = 1 down to x = 0: the abscissae,
# their Kronrod weights, and the weights of the 10-point Gauss rule on the
# abscissae at odd positions (0.9739..., 0.8650..., ...).  The other
# abscissae are the zeros of the Stieltjes polynomial E_11, orthogonal
# under the weight P_10 to every odd polynomial of degree below 11; the
# weights then follow from the moment equations int x^m = (1 + (-1)^m)/(m + 1).
# Regenerated with mpmath at 50 digits; kept as literals so that no root
# finding runs at import or on first use.
_QK21_ABSCISSAE = (
    0.9956571630258080807355272806890028,
    0.9739065285171717200779640120844521,
    0.9301574913557082260012071800595083,
    0.8650633666889845107320966884234930,
    0.7808177265864168970637175783450424,
    0.6794095682990244062343273651148736,
    0.5627571346686046833390000992726941,
    0.4333953941292471907992659431657842,
    0.2943928627014601981311266031038656,
    0.1488743389816312108848260011297200,
    0.0,
)
_QK21_KRONROD_WEIGHTS = (
    0.01169463886737187427806439606219205,
    0.03255816230796472747881897245938976,
    0.05475589657435199603138130024458018,
    0.07503967481091995276704314091619001,
    0.09312545458369760553506546508336634,
    0.1093871588022976418992105903258050,
    0.1234919762620658510779581098310742,
    0.1347092173114733259280540017717068,
    0.1427759385770600807970942731387171,
    0.1477391049013384913748415159720680,
    0.1494455540029169056649364683898212,
)
_QK21_GAUSS_WEIGHTS = (
    0.06667134430868813759356880989333179,
    0.1494513491505805931457763396576973,
    0.2190863625159820439955349342281632,
    0.2692667193099963550912269215694694,
    0.2955242247147528701738929946513383,
)

# The same rule in ascending order on [-1, 1]: 21 nodes, 21 Kronrod
# weights, and 10 Gauss weights for the nodes [1::2].
_KRONROD_NODES = np.concatenate((-np.array(_QK21_ABSCISSAE[:-1]), _QK21_ABSCISSAE[::-1]))
_KRONROD_WEIGHTS = np.concatenate((_QK21_KRONROD_WEIGHTS[:-1], _QK21_KRONROD_WEIGHTS[::-1]))
_EMBEDDED_GAUSS_WEIGHTS = np.concatenate((_QK21_GAUSS_WEIGHTS, _QK21_GAUSS_WEIGHTS[::-1]))


def kronrod_rule(lo, hi):
    """The 21-point Gauss-Kronrod rule on [lo, hi], scalars or arrays as
    for gauss_rule: nodes and Kronrod weights of shape
    broadcast(lo, hi) + (21,), and the weights of the embedded 10-point
    Gauss rule, shape broadcast(lo, hi) + (10,), whose nodes are
    nodes[..., 1::2].  One set of integrand values f then gives an
    integral, sum(kronrod * f), exact to degree 31, and the Gauss value
    sum(gauss * f[..., 1::2]), exact to degree 19, that `converged`
    checks it against."""
    return _map(lo, hi, _KRONROD_NODES, _KRONROD_WEIGHTS, _EMBEDDED_GAUSS_WEIGHTS)


def converged(value, other, rtol, what):
    """value, once a refinement or embedded lower-order estimate `other` of
    the same integral agrees with it to |value - other| <= rtol *
    max(1, |value|); otherwise raises QuadratureNotConverged naming `what`.
    A value or estimate that is not finite never agrees.  For arrays of
    integrals the largest |value - other| is held to the largest |value|,
    and one entry that is not finite fails them all.  Scalars are compared
    as Python complex numbers, without numpy's per-call overhead."""
    if isinstance(value, np.ndarray) or isinstance(other, np.ndarray):
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails below
            moved, size = np.abs(value - other).max(), np.abs(value).max()
    else:
        moved, size = abs(complex(value) - complex(other)), abs(complex(value))
    # NaN fails both comparisons
    if not (size < math.inf and moved <= rtol * max(1.0, size)):
        raise QuadratureNotConverged(f"{what}: refinement moved by {moved:.3e} from {size:.3e}")
    return value


def extrapolate_to_zero(xs, vs):
    """Value at 0 of the interpolating polynomial through (xs, vs), in the
    Lagrange form; for two points it is the linear Richardson step."""
    total = 0.0 + 0.0j
    for i, (xi, vi) in enumerate(zip(xs, vs)):
        w = 1.0
        for j, xj in enumerate(xs):
            if j != i:
                w *= xj / (xj - xi)
        total += w * vi
    return total
