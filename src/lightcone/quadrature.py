"""The quadrature layer shared by every numerical integral in the library:
Gauss-Legendre rules on an interval, the refinement guard, and the
extrapolation of a regularised value to zero regulator."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureNotConverged


@lru_cache(maxsize=64)
def gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Computed once per n and shared by every caller, so both arrays are
    read-only: map them to a panel by building new arrays."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_rule(lo, hi, n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [lo, hi].

    lo and hi may be scalars or arrays (one panel per element); both
    results have shape broadcast(lo, hi) + (n,)."""
    nodes, weights = gauss_legendre(n)
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi) + half * nodes, half * weights


def converged(value, other, rtol, what):
    """value, once a refinement `other` of the same integral agrees with it
    to |value - other| <= rtol * max(1, |value|); otherwise raises
    QuadratureNotConverged naming `what`."""
    if abs(value - other) > rtol * max(1.0, abs(value)):
        raise QuadratureNotConverged(f"{what}: refinement moved by {abs(value - other):.3e}")
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
