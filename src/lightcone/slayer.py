"""Bosonic and fermionic surface-layer functionals on box mode sets:
symplectic forms, surface-layer inner products, the J-tensor with its
conservation residual, momentum-support checks, the time-averaging
identity, and the light-cone positivity probe.

All mode sums exploit the exact orthogonality of box plane waves, so the
spatial integrals are evaluated without quadrature error; the only
numerical integrals are the box quadrupole weight and the probes that are
defined as integrals from the outset.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .clifford import _SIGMA, CHI_L, CHI_R, ETA, GAMMA, GAMMA0, ID4, sigma_jk
from .fields import _lattice_codes, _matched_sums, common_box, field_tensor_hat, lattice_momentum, pairing_predicates
from .quadrature import converged, gauss_rule, read_only

_CHI = {"L": CHI_L, "R": CHI_R}
_CHI_BAR = {"L": CHI_R, "R": CHI_L}

# The J-tensor vertex, defined once: every fermionic surface-layer
# functional contracts a chiral part (chi_c | chibar_c) minus a vector part
# (gamma^alpha chi_c | gamma^alpha chi_c), the first matrix of each pair
# taken between jet u's spinors and the second between jet v's.
#
# The scalar vertex: stacks M_u, M_v and weights over c = L, R, the chiral
# term and then the vector terms alpha = 0..3 with weight -eta_{alpha alpha}.
_SCALAR_VERTEX = tuple(map(np.array, zip(*[
    vertex
    for c in ("L", "R")
    for vertex in [(_CHI[c], _CHI_BAR[c], 1.0)]
    + [(GAMMA[a] @ _CHI[c], GAMMA[a] @ _CHI[c], -ETA[a, a]) for a in range(4)]
])))

# sigma^{0a}, a = 1, 2, 3
_SIGMA0 = np.array([sigma_jk(0, a) for a in (1, 2, 3)])

# The spatial vertex: (sigma^{0a} chi_c | sigma^{0b} chibar_c) and
# (gamma^a chi_c | gamma^b chi_c), jet u's and jet v's (12, 4, 4) matrix
# stacks ordered (contraction, a, c); the vector contraction enters with a
# minus sign.
_SPATIAL_VERTEX_U = np.array(
    [s @ _CHI[c] for s in _SIGMA0 for c in ("L", "R")]
    + [g @ _CHI[c] for g in GAMMA[1:] for c in ("L", "R")]
)
_SPATIAL_VERTEX_V = np.array(
    [s @ _CHI_BAR[c] for s in _SIGMA0 for c in ("L", "R")]
    + [g @ _CHI[c] for g in GAMMA[1:] for c in ("L", "R")]
)


def _braket(bra, mats, ket):
    """Spin scalar products <bra | M ket> = bra^dagger gamma0 M ket for a
    matrix M or a stack of them; for stacks of bras and kets (rows), shape
    (matrix, bra, ket)."""
    return np.conj(bra) @ GAMMA0 @ mats @ np.transpose(ket)


# ---------------------------------------------------------------------------
# bosonic functionals
# ---------------------------------------------------------------------------


def _term_rows(field_obj):
    """The exponential terms of a real field's potential
    A(x) = sum eps exp(-i p.x), the modes and then their conjugates: lattice
    indices n (2M, 3), momenta p (2M, 4) and polarizations eps (2M, 4)."""
    n, p, eps = field_obj.n, field_obj.p, field_obj.eps
    return np.concatenate((n, -n)), np.concatenate((p, -p)), np.concatenate((eps, np.conj(eps)))


def sigma_bose(u, v):
    """Symplectic form of two real Maxwell fields at time 0 (for another
    time, evolve both fields with fields.time_translate first):
    (c1/delta^4) * Integral_box sum_i (A_u^i F_v_{i0} - A_v^i F_u_{i0}),
    c1 = delta = 1, by exact mode sums: terms of u at n meet terms of v at
    -n, so A^i and F_{i0} are summed per lattice index before they are
    contracted.  Antisymmetric in (u, v)."""
    box = common_box(u, v)

    def rows(field_obj):
        n, p, eps = _term_rows(field_obj)
        return n, np.stack((eps[:, 1:], field_tensor_hat(eps, p)[:, 1:, 0]), axis=1)  # (2M, (A, F), i)

    (n_u, a_u), (n_v, a_v) = rows(u), rows(v)
    codes_u, codes_v = _lattice_codes(n_u, -n_v)
    _, su, sv = _matched_sums(codes_u, a_u, codes_v, a_v)
    s = np.sum(su[:, 0] * sv[:, 1] - sv[:, 0] * su[:, 1], axis=1)
    return float((box**3 * np.sum(s)).real)


def sigma_bose_grid_oracle(u, v, n=64):
    """Position-space Riemann-sum evaluation of sigma_bose at time 0 on an
    n^3 grid."""
    box = common_box(u, v)
    axis = np.arange(n) * (box / n)
    xg, yg, zg = np.meshgrid(axis, axis, axis, indexing="ij", sparse=True)

    def assemble(field_obj):
        a = np.zeros((4, n, n, n), dtype=complex)
        f_i0 = np.zeros((4, n, n, n), dtype=complex)
        _, p, eps = _term_rows(field_obj)
        for q, e, f in zip(p, eps, field_tensor_hat(eps, p)):
            phase = np.exp(1j * (q[1] * xg + q[2] * yg + q[3] * zg))
            a += e[:, None, None, None] * phase
            f_i0 += f[:, 0, None, None, None] * phase
        return a, f_i0

    (a_u, f_u), (a_v, f_v) = assemble(u), assemble(v)
    s = np.sum(a_u[1:] * f_v[1:] - a_v[1:] * f_u[1:], axis=0)
    return float(np.sum(s.real)) * (box / n) ** 3


def ip_bose(u, v):
    """Surface-layer inner product of two real Maxwell fields:
    (c2/delta^4) * (1/L^3) sum over equal-momentum term pairs of
    (1/|kvec|) (conj(F_u)_{0i} (F_v)_0^i - 1/4 conj(F_u)_{ij} (F_v)^{ij}),
    each field's F summed per null momentum (lattice index and frequency
    sign) before the contraction, |kvec| that of the lattice index.

    With c2 = -1 and delta = 1 the diagonal u = v is nonnegative and
    vanishes exactly on pure-gauge modes."""
    box = common_box(u, v)

    def rows(field_obj):
        n, p, eps = _term_rows(field_obj)
        return np.column_stack((n, np.sign(p[:, 0]).astype(np.int64))), field_tensor_hat(eps, p)

    (key_u, f_u), (key_v, f_v) = rows(u), rows(v)
    codes_u, codes_v = _lattice_codes(key_u, key_v)
    row, fu, fv = _matched_sums(codes_u, f_u, codes_v, f_v)
    fu = np.conj(fu)
    # (F_u)_{0i} (F_v)_0^i with the spatial index raised (one sign),
    # (F_u)_{ij} (F_v)^{ij} with two raised spatial indices (no sign).
    t1 = -np.sum(fu[:, 0, 1:] * fv[:, 0, 1:], axis=1)
    t2 = np.sum(fu[:, 1:, 1:] * fv[:, 1:, 1:], axis=(1, 2))
    kvec = lattice_momentum(key_u[row, :3], box)
    return -float(np.sum((t1 - 0.25 * t2) / np.linalg.norm(kvec, axis=1)).real) / box**3


# ---------------------------------------------------------------------------
# fermionic functionals
# ---------------------------------------------------------------------------


def sigma_fermi(jet_u, jet_v):
    """Fermionic symplectic form (delta = 1): double momentum sum with weight
    (omega(q)^2 + omega(k)^2)/(m^2 L^6) of the scalar J-tensor vertex
    between the jets' amplitudes summed per lattice momentum: delta_psi_u at
    k with psi_v at -k, delta_psi_v at q with psi_u at -q.  Antisymmetric."""
    m = jet_u.m
    box = common_box(jet_u, jet_v)
    du_c, pv_c, dv_c, pu_c = _lattice_codes(jet_u.delta_psi_n, -jet_v.psi_n, jet_v.delta_psi_n, -jet_u.psi_n)
    k_row, du, pv = _matched_sums(du_c, jet_u.delta_psi_a, pv_c, jet_v.psi_a)
    q_row, dv, pu = _matched_sums(dv_c, jet_v.delta_psi_a, pu_c, jet_u.psi_a)
    weight = (jet_v.delta_psi_k0[q_row] ** 2 + jet_u.delta_psi_k0[k_row, None] ** 2) / m**2
    mats_u, mats_v, w = _SCALAR_VERTEX
    s = np.einsum("v,vkq,vkq->kq", w, _braket(du, mats_u, pu), _braket(pv, mats_v, dv))
    return float(np.sum(weight * s.imag)) / box**6


def ip_fermi(jet_u, jet_v):
    """Fermionic surface-layer inner product (delta = 1): the pairing
    Re(<delta_psi_u_hat(k)|delta_psi_v_hat(k)> <psi_v_hat(q)|psi_u_hat(q)>)
    against the definiteness bracket / (m^3 L^6), with overall sign -1
    (minus the chirality sign +1).  Symmetric in (u, v)."""
    m = jet_u.m
    box = common_box(jet_u, jet_v)
    du_c, dv_c, pu_c, pv_c = _lattice_codes(jet_u.delta_psi_n, jet_v.delta_psi_n, jet_u.psi_n, jet_v.psi_n)
    k_row, du, dv = _matched_sums(du_c, jet_u.delta_psi_a, dv_c, jet_v.delta_psi_a)
    q_row, pu, pv = _matched_sums(pu_c, jet_u.psi_a, pv_c, jet_v.psi_a)
    kvec, qvec = lattice_momentum(jet_u.delta_psi_n[k_row], box), lattice_momentum(jet_u.psi_n[q_row], box)
    bracket = definiteness_bracket(kvec[:, None], qvec[None, :], m) / m**3
    d, p = np.diagonal(_braket(du, ID4, dv)), np.diagonal(_braket(pv, ID4, pu))
    pairs = np.outer(d.real, p.real) - np.outer(d.imag, p.imag)  # Re(d p)
    return -float(np.sum(pairs * bracket)) / box**6


def definiteness_bracket(kvec, qvec, m):
    """The weight k.q (omega(q) + omega(k)) + |q|^2 omega(q) + |k|^2 omega(k).

    Nonnegative, and zero exactly when qvec = -kvec."""
    kvec = np.asarray(kvec, dtype=float)
    qvec = np.asarray(qvec, dtype=float)
    kq = np.sum(kvec * qvec, axis=-1)
    k2 = np.sum(kvec * kvec, axis=-1)
    q2 = np.sum(qvec * qvec, axis=-1)
    wk, wq = np.sqrt(k2 + m * m), np.sqrt(q2 + m * m)
    return kq * (wq + wk) + q2 * wq + k2 * wk


# ---------------------------------------------------------------------------
# J-tensor and its conservation residual
# ---------------------------------------------------------------------------


def jtensor_components(jet_u, jet_v, x, y):
    """The 4x4 real tensor J^{kl}(x, y) assembled from the jets' spinor
    bilinears, with the first-slot/second-slot derivative combinations
    expanded into delta_psi insertions.

    Only the part symmetric in (k, l) ever enters (all uses contract J with
    symmetric weights), so the returned tensor is index-symmetrized; it then
    satisfies J^{kl}(x,y) = J^{lk}(y,x) exactly."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    du_x, pu_x = jet_u.at("delta_psi", x), jet_u.at("psi", x)
    du_y, pu_y = jet_u.at("delta_psi", y), jet_u.at("psi", y)
    dv_x, pv_x = jet_v.at("delta_psi", x), jet_v.at("psi", x)
    dv_y, pv_y = jet_v.at("delta_psi", y), jet_v.at("psi", y)

    def d_minus_u(mats):
        return _braket(du_x, mats, pu_y) - _braket(pu_x, mats, du_y)

    def d_plus_v(mats):
        return _braket(dv_x, mats, pv_y) + _braket(pv_x, mats, dv_y)

    # J^00 on the scalar vertex, J^ab on the spatial vertex
    j = np.zeros((4, 4))
    mats_u, mats_v, weights = _SCALAR_VERTEX
    j[0, 0] = np.sum(weights * d_minus_u(mats_u) * d_plus_v(mats_v)).imag
    spatial_u = d_minus_u(_SPATIAL_VERTEX_U).reshape(2, 3, 2)
    spatial_v = d_plus_v(_SPATIAL_VERTEX_V).reshape(2, 3, 2)
    j[1:, 1:] = np.einsum("k,kac,kbc->ab", (1.0, -1.0), spatial_u, spatial_v).imag

    # mixed components: traces of products of rank-two dyads,
    # Tr(|a1><b1| |a2><b2|) = <b1|a2> <b2|a1>, with sigma^{0a} inserted on
    # jet v's dyad (first term) or on jet u's (second term)
    bra_x, ket_x = np.array([du_x, pu_x]), np.array([dv_x, pv_x])
    bra_y, ket_y = np.array([pv_y, dv_y]), np.array([pu_y, du_y])
    sign_u = np.array([1.0, -1.0])
    mixed = np.einsum("i,aij,ji->a", sign_u, _braket(bra_x, _SIGMA0, ket_x), _braket(bra_y, ID4, ket_y))
    mixed -= np.einsum("i,ij,aji->a", sign_u, _braket(bra_x, ID4, ket_x), _braket(bra_y, _SIGMA0, ket_y))
    j[0, 1:] = j[1:, 0] = mixed.real
    return 0.5 * (j + j.T)


# Nodes per axis of the box quadrupole's tensor-product rule.
BOX_QUADRUPOLE_NODES = 40

# Exponents (p_x, p_y, p_z) of xi_a xi_b for the upper-triangle pairs (a, b).
_QUADRUPOLE_PAIRS = {
    (a, b): tuple(int(a == c) + int(b == c) for c in range(3)) for a in range(3) for b in range(a, 3)
}


@lru_cache(maxsize=8)
def _box_quadrupole_table(box):
    """Nodes and weights of the box quadrupole's Gauss-Legendre rule on
    [-L/2, L/2], and 1/|xi|^2 on its tensor-product grid; cached per box,
    so all three arrays are read-only."""
    xs, ws = gauss_rule(-0.5 * box, 0.5 * box, BOX_QUADRUPOLE_NODES)
    s = xs * xs
    r2 = s[:, None, None] + s[None, :, None] + s[None, None, :]
    return read_only(xs, ws, 1.0 / np.where(r2 == 0.0, 1.0, r2))


def _box_quadrupole_hat(keys, box):
    """The 3x3 matrices W(q) = Integral_box e^{i q.xi} (xi_a xi_b/|xi|^2
    - delta_ab/3) d^3xi over [-L/2, L/2)^3 at q = 2 pi n / L, for the
    integer lattice indices n in the rows of keys (shape (K, 3)), by
    tensor-product Gauss-Legendre quadrature.  Shape (K, 3, 3); each
    matrix is symmetric and trace-free.

    The phase factorises per axis, so the 1/|xi|^2 table is contracted one
    axis at a time with the moments w x^p e^{iqx} (p = 0, 1, 2) of the
    distinct component values: the work and memory grow with the number
    of distinct values, not with K."""
    keys = np.asarray(keys, dtype=int)
    xs, ws, inv_r2 = _box_quadrupole_table(box)
    values, idx = np.unique(keys, return_inverse=True)
    idx = idx.reshape(keys.shape)
    phase = np.exp(1j * np.outer(lattice_momentum(values, box), xs))
    moments = np.array([phase * (ws * xs**p) for p in range(3)])  # (p, value, node)
    # contract z, then y, over every pair of distinct values; x per key
    n = len(xs)
    by_z = (inv_r2 @ moments.transpose(2, 0, 1).reshape(n, -1)).reshape(n, n, 3, -1)
    out = np.zeros((len(keys), 3, 3), dtype=complex)
    for (a, b), (px, py, pz) in _QUADRUPOLE_PAIRS.items():
        by_yz = moments[py] @ by_z[:, :, pz]  # (x node, y value, z value)
        out[:, a, b] = out[:, b, a] = np.einsum(
            "ki,ik->k", moments[px][idx[:, 0]], by_yz[:, idx[:, 1], idx[:, 2]]
        )
    # subtract the delta/3 part as trace/3 so the result is trace-free to roundoff
    out -= (np.trace(out, axis1=1, axis2=2) / 3.0)[:, None, None] * np.eye(3)
    # cube symmetry makes W(0) exactly zero, where the rule leaves ~1e-10 of
    # roundoff that the residual's box^3 would scale up
    out[~keys.any(axis=1)] = 0.0
    return out


# The spatial vertex as one (16, 144) matrix H[(i, l), (j, m, a, b)], the
# sum over (contraction, c) of +-(gamma0 U[a, c])_ij (gamma0 V[b, c])_lm, the
# vector contraction signed: a term pair's coefficient is its bras'
# conjugated amplitudes (i, l) through H against its kets' amplitudes (j, m).
_SPATIAL_H = np.einsum(
    "k,kacij,kbclm->iljmab", (1.0, -1.0),
    *((GAMMA0 @ vertex).reshape(2, 3, 2, 4, 4) for vertex in (_SPATIAL_VERTEX_U, _SPATIAL_VERTEX_V)),
).reshape(16, 144)


def fermi_conservation_residual(jet_u, jet_v):
    """The time derivative (analytic in the mode phases) at time 0 of
    -1/2 Integral d^3x d^3y J^{alpha beta}((t,x),(t,y))
    (xi_a xi_b/|xi|^2 - delta_ab/3) over the box; for another time, evolve
    both jets with fields.time_translate first.

    Exactly 0.0 when pairing_predicates finds every momentum-conserving
    mode quadruple conserving the frequency transfer too, and vanishes for
    mode families whose summed J^{alpha beta} is proportional to
    delta^{alpha beta}.

    A term pair of the jets' bilinears survives the box integral exactly
    when its bra momenta and its ket momenta sum to the same K, its
    y-momentum, and its frequency is (bra frequencies) - (ket frequencies):
    so per block pairing, bras and kets are summed per K, plain and
    frequency-weighted, and met through H and the box quadrupole at K."""
    box = common_box(jet_u, jet_v)
    if pairing_predicates(jet_u, jet_v)["implication_holds"]:
        return 0.0

    def products(name_u, name_v):
        """Per (u row, v row) of jet u's side name_u and jet v's name_v: the
        momentum sum, and the amplitudes' outer product beside its copy
        weighted by the summed frequency, shape (pairs, 2, 16)."""
        (nu, wu, au), (nv, wv, av) = (
            [getattr(jet, f"{name}_{s}") for s in ("n", "k0", "a")] for jet, name in ((jet_u, name_u), (jet_v, name_v))
        )
        outer = (au[:, None, :, None] * av[None, :, None, :]).reshape(-1, 16)
        w = (wu[:, None] + wv).reshape(-1, 1)
        return (nu[:, None] + nv).reshape(-1, 3), np.stack((outer, w * outer), axis=1)

    ks, sums = [], []
    blocks = (("delta_psi", "psi"), ("psi", "delta_psi"))
    for (bra_u, ket_u), (bra_v, ket_v) in itertools.product(blocks, blocks):
        (n_bra, x), (n_ket, y) = products(bra_u, bra_v), products(ket_u, ket_v)
        codes_bra, codes_ket = _lattice_codes(n_bra, n_ket)
        row, x, y = _matched_sums(codes_bra, x, codes_ket, y)
        # the pairs at K sum w coeff to X^w H Y - X H Y^w
        xh = (np.conj(x) @ _SPATIAL_H).reshape(-1, 2, 16, 9)
        at_k = np.einsum("kpjq,kpj->kq", xh, np.stack((-y[:, 1], y[:, 0]), axis=1))
        # jet u's psi-bra terms enter with sign -1
        sums.append(-at_k if bra_u == "psi" else at_k)
        ks.append(n_bra[row])
    s, k = np.concatenate(sums), np.concatenate(ks)

    # Im(z) = (z - conj z)/(2i): each K contributes at K and, conjugated,
    # at -K; one box quadrupole weight per distinct lattice momentum
    codes = np.stack(_lattice_codes(k, -k))
    keys = np.empty((codes.max() + 1, 3), dtype=np.int64)
    keys[codes] = k, -k
    w_hat = _box_quadrupole_hat(keys, box)[codes].reshape(2, -1, 9)
    return float((-0.25 * box**3 * np.sum(s * w_hat[0] + np.conj(s) * w_hat[1])).real)


def cube_spin_rotations():
    """The proper cube rotation group as 48 pairs (R, S), acting on modes as
    n -> R n, a -> S a: one per unit quaternion q of the binary octahedral
    group (+-1 on one axis, +-1/2 on all four, +-sqrt(1/2) on two), with
    U = q0 - i q.sigma, S = U on both spinor blocks and the int64 rotation
    R_ij = (1/2) tr(sigma_i U sigma_j U^dagger).  q and -q give the same R;
    the sign of S drops out of every bilinear product used here.

    Applying the S to all mode amplitudes of rest-frame jets and summing
    makes the spatial block of the J-tensor proportional to the identity,
    so its contraction with any trace-free weight vanishes."""
    axis, root = np.eye(4), np.sqrt(0.5)
    quaternions = [s * axis[i] for i in range(4) for s in (1.0, -1.0)]
    quaternions += [np.array(q) for q in itertools.product((0.5, -0.5), repeat=4)]
    quaternions += [
        a * axis[i] + b * axis[j]
        for i, j in itertools.combinations(range(4), 2)
        for a, b in itertools.product((root, -root), repeat=2)
    ]
    pairs = []
    for q in quaternions:
        u = q[0] * np.eye(2) - 1j * np.einsum("i,ijk->jk", q[1:], _SIGMA)
        r = 0.5 * np.einsum("iab,bc,jcd,da->ij", _SIGMA, u, _SIGMA, u.conj().T).real
        pairs.append((np.rint(r).astype(np.int64), np.kron(np.eye(2), u)))
    return pairs


def quadrupole_contraction(j_tensor, xi_vec):
    """Contract the spatial block of a J-tensor with the trace-free weight
    xi_a xi_b / |xi|^2 - delta_ab / 3."""
    xi_vec = np.asarray(xi_vec, dtype=float)
    n = xi_vec / np.linalg.norm(xi_vec)
    weight = np.outer(n, n) - np.eye(3) / 3.0
    return float(np.sum(j_tensor[1:, 1:] * weight))


# ---------------------------------------------------------------------------
# support check, time averaging, positivity
# ---------------------------------------------------------------------------


def current_sli_support_check(k0, kvec, a):
    """Sum over a wave function's plane waves, the rows of k0 (M,), kvec
    (M, 3) and a (M, 4), of |K'(p)| |a|^2, where K' is the momentum
    gradient of the distribution that equals i*omega/k outside the cones
    and +-i inside: zero inside the closed cones, |grad(i omega/k)|
    outside.  Zero for strictly on-shell modes (their momenta lie inside
    the open cones); positive if a spacelike momentum is injected."""
    k = np.linalg.norm(kvec, axis=-1)
    outside = np.abs(k0) < k
    k, omega = k[outside], k0[outside]
    return float(np.hypot(1.0 / k, omega / k**2) @ np.sum(np.abs(a[outside]) ** 2, axis=-1))


@lru_cache(maxsize=1)
def _time_average_corner():
    """The corner t in [-1, 0], t' in [0, 1] on the 200-node rule of [0, 1],
    with t = -tau_i and t' = tau_j: t' - t = tau_i + tau_j is symmetric in
    i and j, so the grid folds onto its 20,100 distinct sums sigma, with
    weights w_i w_j doubled off the diagonal.  Cached, so both arrays are
    read-only."""
    tau, w = gauss_rule(0.0, 1.0, 200)
    i, j = np.triu_indices(len(tau))
    return read_only(tau[i] + tau[j], np.where(i == j, 1.0, 2.0) * w[i] * w[j])


def time_average_identity_check(f, t_list=(10.0, 50.0, 100.0), s_max=40.0):
    """For an antisymmetric translation-invariant kernel A(t, t') = f(t'-t)
    with f odd and s*f(s) integrable, compares

        lhs = Integral_{-inf}^0 dt Integral_0^inf dt' A(t,t')
        rhs_T = (1/2T) Integral_0^T dt Integral dt' (t'-t) A(t,t')

    The inner integral over t' is the same at every t, so rhs_T equals
    i2/2 for every T, i2 the integral of s f(s) over [-s_max, s_max].

    f takes a float array and returns f elementwise (a numpy expression
    such as `lambda s: s * np.exp(-s * s)`); it is called three times,
    each on a whole array of nodes: once on the folded corner of the lhs
    (20,100 distinct t' - t) and twice for the refinement check.  Returns
    (lhs, [rhs_T for T in t_list])."""
    # lhs as a genuine double integral over the decaying corner
    sigma, weight = _time_average_corner()
    # numpy's pairwise sum, not a BLAS dot product, whose value would depend
    # on how many threads OpenBLAS splits its 20,100 terms over
    lhs = s_max * s_max * float(np.sum(weight * f(s_max * sigma)))

    # refinement check on the inner weighted integral: the 200-node rule
    # on [0, 1] against the same rule on each half of it
    def inner(lo, hi):
        # s f(s) is even for odd f; integrating over [0, s_max] avoids the
        # potential |s| kink at the origin; the rule runs in tau = s/s_max
        tau, wt = gauss_rule(lo, hi, 200)
        s = s_max * tau
        return 2.0 * float(np.sum(s_max * wt * s * f(s)))

    i1 = inner(0.0, 1.0)
    i2 = converged(inner([0.0, 0.5], [0.5, 1.0]), i1, 1e-9, "time-average inner integral")
    return lhs, [0.5 * i2 for _ in t_list]


def positivity_probe(j, x, y, cutoff=8.0):
    """Product of the unbounded line integrals of the current j contracted
    with the null direction xi = (1, dir) through x and through y, with
    dir read off from the null separation y - x (default (1,0,0) at
    coincidence).  Nonnegative up to O(|y-x|) since both factors coincide
    at coincidence."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xi = y - x
    if abs(xi[0]) > 1e-14:
        direction = xi[1:] / xi[0]
    else:
        direction = np.array([1.0, 0.0, 0.0])
    nrm = np.linalg.norm(direction)
    direction = direction / nrm if nrm > 0 else np.array([1.0, 0.0, 0.0])
    # the module global once set, so a wrapper installed there sees each call
    line_integral = globals().get("unbounded_line_integral") or __getattr__("unbounded_line_integral")
    fx = line_integral(j, x, direction, cutoff)
    fy = line_integral(j, y, direction, cutoff)
    return fx * fy


def __getattr__(name):
    """The module attribute unbounded_line_integral, imported from lineint
    on first use: positivity_probe is its only caller, so loading slayer
    does not load lineint."""
    if name != "unbounded_line_integral":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .lineint import unbounded_line_integral

    globals()[name] = unbounded_line_integral
    return unbounded_line_integral
