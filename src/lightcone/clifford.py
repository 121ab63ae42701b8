"""Dirac matrices, the indefinite spin scalar product, spectral projectors of
the closed chain, and checkers for the jet trace conditions.

Conventions: metric signature (+,-,-,-); Dirac representation with
gamma0 = diag(1,1,-1,-1); gamma5 = i gamma0 gamma1 gamma2 gamma3;
chiral projectors chi_L = (1 - gamma5)/2, chi_R = (1 + gamma5)/2;
spin scalar product <psi|phi> = psi^dagger gamma0 phi, signature (2,2);
spin adjoint of a matrix M is gamma0 M^dagger gamma0.
"""

from __future__ import annotations

import numpy as np

from .errors import ChiralityViolated, DegenerateChain

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

_I2 = np.eye(2)
_SIGMA = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]

GAMMA0 = np.block([[_I2, np.zeros((2, 2))], [np.zeros((2, 2)), -_I2]]).astype(complex)
GAMMA = [GAMMA0] + [
    np.block([[np.zeros((2, 2)), s], [-s, np.zeros((2, 2))]]).astype(complex)
    for s in _SIGMA
]
GAMMA5 = 1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]
CHI_L = 0.5 * (np.eye(4) - GAMMA5)
CHI_R = 0.5 * (np.eye(4) + GAMMA5)
ID4 = np.eye(4, dtype=complex)

DEGENERACY_TOL = 1e-9


def minkowski(u, v):
    """Bilinear Minkowski product <u,v> = u0 v0 - u.v (no conjugation)."""
    u = np.asarray(u)
    v = np.asarray(v)
    return u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3]


def slash(v):
    """Contraction v_j gamma^j for contravariant components v = (v0, v1, v2, v3)."""
    v = np.asarray(v)
    return (
        v[0] * GAMMA[0] - v[1] * GAMMA[1] - v[2] * GAMMA[2] - v[3] * GAMMA[3]
    )


def sigma_jk(j, k):
    """Antisymmetric generator sigma^{jk} = (i/2)[gamma^j, gamma^k]."""
    return 0.5j * (GAMMA[j] @ GAMMA[k] - GAMMA[k] @ GAMMA[j])


def spin_inner(psi, phi):
    """Indefinite spin scalar product psi^dagger gamma0 phi, signature (2,2)."""
    return complex(np.conj(np.asarray(psi)) @ GAMMA0 @ np.asarray(phi))


def spin_adjoint(m):
    """Adjoint of a 4x4 matrix with respect to the spin scalar product."""
    return GAMMA0 @ np.conj(np.asarray(m)).T @ GAMMA0


def closed_chain_projectors(xi):
    """Spectral projectors (F_plus, F_minus, d) of the closed chain built
    from a complex four-vector xi.

    F_pm = 1/2 (1 +- [xi_slash, xibar_slash] / (2 d)) with
    d = 2 sqrt((<xi,xibar>)^2 - xi^2 xibar^2), principal square root.
    Satisfies F_plus + F_minus = 1, F_pm idempotent, F_plus F_minus = 0,
    and F_minus xi_slash = c F_minus xibar_slash with
    c = 2 xi^2 / (d + 2 <xi,xibar>).
    """
    xi = np.asarray(xi, dtype=complex)
    xibar = np.conj(xi)
    w = minkowski(xi, xibar)
    z = minkowski(xi, xi)
    zbar = minkowski(xibar, xibar)
    d = 2.0 * np.sqrt(complex(w * w - z * zbar))
    scale = float(np.sum(np.abs(xi) ** 2))
    if abs(d) <= DEGENERACY_TOL * scale:
        raise DegenerateChain(f"closed chain degenerate: |d| = {abs(d):.3e}")
    xs = slash(xi)
    xbs = slash(xibar)
    comm = xs @ xbs - xbs @ xs
    f_plus = 0.5 * ID4 + comm / (2.0 * d)
    f_minus = 0.5 * ID4 - comm / (2.0 * d)
    # near-degenerate chains can pass the |d| threshold through roundoff
    # (d is computed with catastrophic cancellation when xi is close to a
    # complex multiple of a real vector); the projector property itself is
    # the reliable guard
    if np.max(np.abs(f_plus @ f_plus - f_plus)) > 1e-9:
        raise DegenerateChain("closed chain too close to degenerate")
    return f_plus, f_minus, complex(d)


def projector_ratio_constant(xi):
    """The constant c with F_minus xi_slash = c F_minus xibar_slash,
    in its two equivalent forms (c1, c2); DegenerateChain at a null xi,
    where |c| ~ 1/|xi^2| has no finite value."""
    xi = np.asarray(xi, dtype=complex)
    xibar = np.conj(xi)
    w = minkowski(xi, xibar)
    z = minkowski(xi, xi)
    zbar = minkowski(xibar, xibar)
    if abs(z) <= DEGENERACY_TOL * float(np.sum(np.abs(xi) ** 2)):
        raise DegenerateChain(f"null xi: |xi^2| = {abs(z):.3e}, no finite ratio")
    d = 2.0 * np.sqrt(complex(w * w - z * zbar))
    c1 = 2.0 * z / (d + 2.0 * w)
    c2 = -(d - 2.0 * w) / (2.0 * zbar)
    return complex(c1), complex(c2)


def conscond_check(nabla_p, s1, s2, tol=1e-10):
    """True iff Tr((1 + s1*i*gamma0) gamma^a nabla_p) = 0 and
    Tr(gamma5 (1 + s2*gamma0) gamma^a nabla_p) = 0 for a = 1, 2, 3."""
    nabla_p = np.asarray(nabla_p, dtype=complex)
    pre1 = ID4 + s1 * 1j * GAMMA0
    pre2 = GAMMA5 @ (ID4 + s2 * GAMMA0)
    for a in (1, 2, 3):
        t1 = np.trace(pre1 @ GAMMA[a] @ nabla_p)
        t2 = np.trace(pre2 @ GAMMA[a] @ nabla_p)
        if abs(t1) > tol or abs(t2) > tol:
            return False
    return True


def chiral_jet(g, h, a_vec, alpha, beta, sign):
    """Chirally symmetric jet matrix
    gamma0 g + (1 - sign*i*gamma0)(a . gamma) + alpha 1 + gamma5 gamma0 h
    + beta i gamma5."""
    a_vec = np.asarray(a_vec, dtype=complex)
    a_slash = a_vec[0] * GAMMA[1] + a_vec[1] * GAMMA[2] + a_vec[2] * GAMMA[3]
    return (
        g * GAMMA0
        + (ID4 - sign * 1j * GAMMA0) @ a_slash
        + alpha * ID4
        + h * GAMMA5 @ GAMMA0
        + beta * 1j * GAMMA5
    )


def anticomm_trace_equiv(nabla_p, nabla_p_star, sign, tol=1e-10):
    """For a chirally symmetric nabla_p with matching sign and its spin
    adjoint, the traces of the anticommutator against sigma^{0a} and
    against -sign*gamma^a agree component-wise.

    Returns (lhs, rhs) with lhs_a = Tr(sigma^{0a} {nabla_p, nabla_p_star})
    and rhs_a = -sign * Tr(gamma^a {nabla_p, nabla_p_star})."""
    if not conscond_check(nabla_p, sign, 1, tol=tol) or not conscond_check(
        nabla_p, sign, -1, tol=tol
    ):
        raise ChiralityViolated("jet does not satisfy the chiral trace conditions")
    anti = nabla_p @ nabla_p_star + nabla_p_star @ nabla_p
    lhs = np.array([np.trace(sigma_jk(0, a) @ anti) for a in (1, 2, 3)])
    rhs = np.array([-sign * np.trace(GAMMA[a] @ anti) for a in (1, 2, 3)])
    return lhs, rhs
