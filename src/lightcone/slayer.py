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

from functools import lru_cache

import numpy as np

from .clifford import CHI_L, CHI_R, ETA, GAMMA, GAMMA0, ID4, sigma_jk
from .errors import (
    OffShellField,
    QuadratureNotConverged,
    ZeroMomentumMode,
)
from .fields import common_box, field_tensor_hat
from .lineint import unbounded_line_integral
from .quadrature import gauss_legendre

_CHI = {"L": CHI_L, "R": CHI_R}
_CHI_BAR = {"L": CHI_R, "R": CHI_L}


def _bil(bra, mat, ket):
    """Spin scalar product <bra | mat ket> = bra^dagger gamma0 mat ket."""
    return complex(np.conj(bra) @ GAMMA0 @ mat @ ket)


# ---------------------------------------------------------------------------
# bosonic functionals
# ---------------------------------------------------------------------------


def _check_on_shell(field_obj):
    for mode in field_obj.modes:
        p = mode.p_arr
        if abs(p[0] ** 2 - np.dot(p[1:], p[1:])) > 1e-6 * np.dot(p, p):
            raise OffShellField(f"mode momentum {mode.p} off the light cone")


def sigma_bose(u, v, t0=0.0):
    """Symplectic form of two real Maxwell fields at time t0:
    (c1/delta^4) * Integral_box sum_i (A_u^i F_v_{i0} - A_v^i F_u_{i0}),
    c1 = delta = 1, by exact mode sums.  Antisymmetric in (u, v)."""
    _check_on_shell(u)
    _check_on_shell(v)
    box = common_box(u, v)
    terms_u = [(n, e, p, field_tensor_hat(e, p)) for n, e, p in u.terms()]
    terms_v = [(n, e, p, field_tensor_hat(e, p)) for n, e, p in v.terms()]
    total = 0.0 + 0.0j
    for nu, eu, pu, fu in terms_u:
        for nv, ev, pv, fv in terms_v:
            if np.any(nu + nv):
                continue
            phase = np.exp(-1j * (pu[0] + pv[0]) * t0)
            s = sum(eu[i] * fv[i, 0] - ev[i] * fu[i, 0] for i in (1, 2, 3))
            total += box**3 * phase * s
    return total.real


def sigma_bose_grid_oracle(u, v, t0=0.0, n=64):
    """Position-space Riemann-sum evaluation of sigma_bose on an n^3 grid."""
    box = common_box(u, v)
    axis = np.arange(n) * (box / n)
    xg, yg, zg = np.meshgrid(axis, axis, axis, indexing="ij", sparse=True)

    def assemble(field_obj):
        a = [np.zeros((n, n, n), dtype=complex) for _ in range(4)]
        f_i0 = [np.zeros((n, n, n), dtype=complex) for _ in range(4)]
        for _, eps, p in field_obj.terms():
            f = field_tensor_hat(eps, p)
            phase = np.exp(
                -1j * (p[0] * t0 - (p[1] * xg + p[2] * yg + p[3] * zg))
            )
            for i in range(4):
                a[i] += eps[i] * phase
                f_i0[i] += f[i, 0] * phase
        return a, f_i0

    a_u, f_u = assemble(u)
    a_v, f_v = assemble(v)
    s = sum(a_u[i] * f_v[i] - a_v[i] * f_u[i] for i in (1, 2, 3))
    return float(np.sum(s.real)) * (box / n) ** 3


def ip_bose(u, v):
    """Surface-layer inner product of two real Maxwell fields:
    (c2/delta^4) * (1/L^3) sum over equal-momentum term pairs of
    (1/|kvec|) (conj(F_u)_{0i} (F_v)_0^i - 1/4 conj(F_u)_{ij} (F_v)^{ij}).

    With c2 = -1 and delta = 1 the diagonal u = v is nonnegative and
    vanishes exactly on pure-gauge modes."""
    _check_on_shell(u)
    _check_on_shell(v)
    box = common_box(u, v)
    terms_u = [(n, p, field_tensor_hat(e, p)) for n, e, p in u.terms()]
    terms_v = [(n, p, field_tensor_hat(e, p)) for n, e, p in v.terms()]
    total = 0.0 + 0.0j
    for nu, pu, fu in terms_u:
        knorm = np.linalg.norm(pu[1:])
        if not np.any(nu):
            raise ZeroMomentumMode("mode with vanishing spatial momentum")
        for nv, pv, fv in terms_v:
            # equal null momenta: equal lattice index, same frequency sign
            if np.any(nu != nv) or pu[0] * pv[0] < 0:
                continue
            fuc = np.conj(fu)
            # (F_u)_{0i} (F_v)_0^i with the spatial index raised (one sign),
            # (F_u)_{ij} (F_v)^{ij} with two raised spatial indices (no sign).
            t1 = -sum(fuc[0, i] * fv[0, i] for i in (1, 2, 3))
            t2 = sum(fuc[i, j] * fv[i, j] for i in (1, 2, 3) for j in (1, 2, 3))
            total += (t1 - 0.25 * t2) / knorm
    return -total.real / box**3


# ---------------------------------------------------------------------------
# fermionic functionals
# ---------------------------------------------------------------------------


def _hat(modes, indices, sign=1):
    """Spinor dictionary: lattice index (times sign) -> summed amplitude at t=0."""
    out = {}
    for mode, n in zip(modes, indices):
        key = tuple(sign * c for c in n)
        out[key] = out.get(key, np.zeros(4, dtype=complex)) + mode.a_arr
    return out


def _kvec(n, box):
    """The spatial momentum 2 pi n / L of lattice index n."""
    return (2.0 * np.pi / box) * np.asarray(n, dtype=float)


def _omega(kvec, m):
    return np.sqrt(np.sum(kvec * kvec, axis=-1) + m * m)


def sigma_fermi(jet_u, jet_v):
    """Fermionic symplectic form (delta = 1): double momentum sum with weight
    (omega(q)^2 + omega(k)^2)/(m^2 L^6) over the chiral and vectorial spinor
    contractions of the jets' mode amplitudes.  Antisymmetric in (u, v)."""
    m = jet_u.m
    box = common_box(jet_u, jet_v)
    du, pu_neg = _hat(jet_u.delta_psi, jet_u.delta_psi_n), _hat(jet_u.psi, jet_u.psi_n, -1)
    dv, pv_neg = _hat(jet_v.delta_psi, jet_v.delta_psi_n), _hat(jet_v.psi, jet_v.psi_n, -1)
    total = 0.0 + 0.0j
    for k_key, duk in du.items():
        pv_mk = pv_neg.get(k_key)
        if pv_mk is None:
            continue
        for q_key, dvq in dv.items():
            pu_mq = pu_neg.get(q_key)
            if pu_mq is None:
                continue
            weight = (_omega(_kvec(q_key, box), m) ** 2 + _omega(_kvec(k_key, box), m) ** 2) / m**2
            s = 0.0 + 0.0j
            for c in ("L", "R"):
                s += _bil(duk, _CHI[c], pu_mq) * _bil(pv_mk, _CHI_BAR[c], dvq)
                for alpha in range(4):
                    s -= (
                        ETA[alpha, alpha]
                        * _bil(duk, GAMMA[alpha] @ _CHI[c], pu_mq)
                        * _bil(pv_mk, GAMMA[alpha] @ _CHI[c], dvq)
                    )
            total += weight * s.imag
    return total.real / box**6


def ip_fermi(jet_u, jet_v):
    """Fermionic surface-layer inner product (delta = 1): the pairing
    Re(<delta_psi_u_hat(k)|delta_psi_v_hat(k)> <psi_v_hat(q)|psi_u_hat(q)>)
    against the definiteness bracket / (m^3 L^6), with overall sign -1
    (minus the chirality sign +1).  Symmetric in (u, v)."""
    m = jet_u.m
    box = common_box(jet_u, jet_v)
    du, pu = _hat(jet_u.delta_psi, jet_u.delta_psi_n), _hat(jet_u.psi, jet_u.psi_n)
    dv, pv = _hat(jet_v.delta_psi, jet_v.delta_psi_n), _hat(jet_v.psi, jet_v.psi_n)
    total = 0.0
    for k_key, duk in du.items():
        dvk = dv.get(k_key)
        if dvk is None:
            continue
        for q_key, puq in pu.items():
            pvq = pv.get(q_key)
            if pvq is None:
                continue
            bracket = definiteness_bracket(_kvec(k_key, box), _kvec(q_key, box), m) / m**3
            total += (
                (_bil(duk, ID4, dvk) * _bil(pvq, ID4, puq)).real * bracket
            )
    return -total / box**6


def definiteness_bracket(kvec, qvec, m):
    """The weight k.q (omega(q) + omega(k)) + |q|^2 omega(q) + |k|^2 omega(k).

    Nonnegative, and zero exactly when qvec = -kvec."""
    kvec = np.asarray(kvec, dtype=float)
    qvec = np.asarray(qvec, dtype=float)
    wk = _omega(kvec, m)
    wq = _omega(qvec, m)
    kq = np.sum(kvec * qvec, axis=-1)
    k2 = np.sum(kvec * kvec, axis=-1)
    q2 = np.sum(qvec * qvec, axis=-1)
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
    du_x, pu_x = jet_u.delta_psi_at(x), jet_u.psi_at(x)
    du_y, pu_y = jet_u.delta_psi_at(y), jet_u.psi_at(y)
    dv_x, pv_x = jet_v.delta_psi_at(x), jet_v.psi_at(x)
    dv_y, pv_y = jet_v.delta_psi_at(y), jet_v.psi_at(y)

    def d_minus_u(mat):
        return _bil(du_x, mat, pu_y) - _bil(pu_x, mat, du_y)

    def d_plus_v(mat):
        return _bil(dv_x, mat, pv_y) + _bil(pv_x, mat, dv_y)

    sigma0 = [None] + [sigma_jk(0, a) for a in (1, 2, 3)]
    j = np.zeros((4, 4))

    # scalar component: chiral part minus the vector-contracted part
    s = 0.0 + 0.0j
    for c in ("L", "R"):
        s += d_minus_u(_CHI[c]) * d_plus_v(_CHI_BAR[c])
        for alpha in range(4):
            s -= (
                ETA[alpha, alpha]
                * d_minus_u(GAMMA[alpha] @ _CHI[c])
                * d_plus_v(GAMMA[alpha] @ _CHI[c])
            )
    j[0, 0] = s.imag

    # mixed components: traces of products of rank-two dyads
    def dyad_trace(a1, b1, a2, b2):
        # Tr(|a1><b1| |a2><b2|) with spin scalar products
        return _bil(b1, ID4, a2) * _bil(b2, ID4, a1)

    for alpha in (1, 2, 3):
        s = 0.0 + 0.0j
        for sgn_u, (au, bu) in (((1.0), (pu_y, du_x)), ((-1.0), (du_y, pu_x))):
            for av, bv in ((sigma0[alpha] @ dv_x, pv_y), (sigma0[alpha] @ pv_x, dv_y)):
                s += sgn_u * dyad_trace(au, bu, av, bv)
        for sgn_u, (au, bu) in (
            ((1.0), (sigma0[alpha] @ pu_y, du_x)),
            ((-1.0), (sigma0[alpha] @ du_y, pu_x)),
        ):
            for av, bv in ((dv_x, pv_y), (pv_x, dv_y)):
                s -= sgn_u * dyad_trace(au, bu, av, bv)
        j[0, alpha] = j[alpha, 0] = s.real

    # spatial components
    for alpha in (1, 2, 3):
        for beta in (1, 2, 3):
            s = 0.0 + 0.0j
            for c in ("L", "R"):
                s += d_minus_u(sigma0[alpha] @ _CHI[c]) * d_plus_v(
                    sigma0[beta] @ _CHI_BAR[c]
                )
                s -= d_minus_u(GAMMA[alpha] @ _CHI[c]) * d_plus_v(
                    GAMMA[beta] @ _CHI[c]
                )
            j[alpha, beta] = s.imag
    return 0.5 * (j + j.T)


@lru_cache(maxsize=256)
def _box_quadrupole_hat(n_key, box, n=40):
    """The 3x3 matrix W(q) = Integral_box e^{i q.xi} (xi_a xi_b/|xi|^2
    - delta_ab/3) d^3xi over [-L/2, L/2)^3 at q = 2 pi n_key / L, by
    tensor-product Gauss-Legendre quadrature.  Exactly trace-free."""
    q = _kvec(n_key, box)
    nodes, weights = gauss_legendre(n)
    half = 0.5 * box
    xs = half * nodes
    ws = half * weights
    gx, gy, gz = np.meshgrid(xs, xs, xs, indexing="ij", sparse=True)
    wx, wy, wz = np.meshgrid(ws, ws, ws, indexing="ij", sparse=True)
    r2 = gx * gx + gy * gy + gz * gz
    r2 = np.where(r2 == 0.0, 1.0, r2)
    phase = np.exp(1j * (q[0] * gx + q[1] * gy + q[2] * gz)) * (wx * wy * wz)
    comps = [gx, gy, gz]
    out = np.zeros((3, 3), dtype=complex)
    for a in range(3):
        for b in range(a, 3):
            out[a, b] = out[b, a] = np.sum(phase * comps[a] * comps[b] / r2)
    # subtract the delta/3 part as trace/3 so the result is exactly trace-free
    out -= (np.trace(out) / 3.0) * np.eye(3)
    return out


def _jet_bilinears(jet, mats, sign_swapped):
    """<delta_psi(x) | M psi(y)> + sign_swapped <psi(x) | M delta_psi(y)> at
    x0 = y0 = t for a stack of matrices M, as exponential terms
    coeff[m, j] e^{i w[j] t} e^{i (k_total[j] - ky[j]).xvec} e^{i ky[j].yvec},
    the momenta k = 2 pi n / L given by their integer lattice indices n.

    Returns (coeff, w, n_total, n_y)."""
    delta, psi = list(zip(jet.delta_psi, jet.delta_psi_n)), list(zip(jet.psi, jet.psi_n))
    terms = [(d, p, 1.0) for d in delta for p in psi]
    terms += [(p, d, sign_swapped) for p in psi for d in delta]
    bra = np.array([b.a for (b, _), _, _ in terms], dtype=complex).reshape(-1, 4)
    ket = np.array([k.a for _, (k, _), _ in terms], dtype=complex).reshape(-1, 4)
    sign = np.array([s for _, _, s in terms])
    coeff = sign * np.einsum("ji,mik,jk->mj", np.conj(bra) @ GAMMA0, mats, ket)
    w = np.array([b.k0 - k.k0 for (b, _), (k, _), _ in terms])
    n_y = np.array([n for _, (_, n), _ in terms], dtype=int).reshape(-1, 3)
    n_x = -np.array([n for (_, n), _, _ in terms], dtype=int).reshape(-1, 3)
    return coeff, w, n_x + n_y, n_y


def fermi_conservation_residual(jet_u, jet_v, t=0.0):
    """The time derivative (analytic in the mode phases) of
    -1/2 Integral d^3x d^3y J^{alpha beta}((t,x),(t,y))
    (xi_a xi_b/|xi|^2 - delta_ab/3) over the box.

    Vanishes when every momentum-conserving mode quadruple also conserves
    the frequency transfer, and for mode families whose summed J^{alpha
    beta} is proportional to delta^{alpha beta}.

    The bilinears of both jets are tabulated once as exponential terms;
    term pairs of zero total lattice momentum survive the box integral and
    are weighted by the box quadrupole at their y-momentum."""
    box = common_box(jet_u, jet_v)
    sigma0 = [sigma_jk(0, a) for a in (1, 2, 3)]
    chi = (_CHI["L"], _CHI["R"])
    chi_bar = (_CHI_BAR["L"], _CHI_BAR["R"])
    # matrix stacks ordered (contraction, alpha, chirality)
    vector = [g @ c for g in GAMMA[1:] for c in chi]
    mats_u = np.array([s @ c for s in sigma0 for c in chi] + vector)
    mats_v = np.array([s @ c for s in sigma0 for c in chi_bar] + vector)
    cu, wu, su, kyu = _jet_bilinears(jet_u, mats_u, -1.0)
    cv, wv, sv, kyv = _jet_bilinears(jet_v, mats_v, 1.0)
    cu = cu.reshape(2, 3, 2, -1)
    cu[1] *= -1.0  # the vector-contracted part enters with a minus sign
    cv = cv.reshape(2, 3, 2, -1)

    w = wu[:, None] + wv[None, :]
    keep = np.all(su[:, None, :] + sv[None, :, :] == 0, axis=-1)
    # pairs with vanishing frequency transfer carry no time dependence
    iu, iv = np.nonzero(keep & (np.abs(w) >= 1e-12))
    if iu.size == 0:
        return 0.0
    w = w[iu, iv]
    coeff = np.einsum("kacp,kbcp->pab", cu[..., iu], cv[..., iv])

    # Im(z) = (z - conj z)/(2i): each pair contributes at ky and, conjugated,
    # at -ky; one box quadrupole weight per distinct lattice momentum
    ky = kyu[iu] + kyv[iv]
    keys, inv = np.unique(np.concatenate((ky, -ky)), axis=0, return_inverse=True)
    w_hat = np.array([_box_quadrupole_hat(tuple(key), box) for key in keys.tolist()])[inv.reshape(2, -1)]
    z = np.exp(1j * w * t) * np.einsum("pab,pab->p", coeff, w_hat[0])
    z += np.exp(-1j * w * t) * np.einsum("pab,pab->p", np.conj(coeff), w_hat[1])
    return float((-0.25 * box**3 * np.sum(w * z)).real)


def cube_spin_rotations():
    """The spinor representations of the proper cube rotation group (as the
    48-element double cover, each spatial rotation appearing with both
    signs; the sign drops out of every bilinear product used here).

    Applying these to all mode amplitudes of rest-frame jets and summing
    makes the spatial block of the J-tensor proportional to the identity,
    so its contraction with any trace-free weight vanishes."""
    sig_x = np.array([[0, 1], [1, 0]], dtype=complex)
    sig_z = np.array([[1, 0], [0, -1]], dtype=complex)

    def spin_half(sig):
        # rotation by pi/2: exp(-i (pi/2) sigma / 2) = cos(pi/4) 1 - i sin(pi/4) sigma
        # on both spinor blocks, exact because sigma^2 = 1
        blk = np.cos(0.25 * np.pi) * np.eye(2) - 1j * np.sin(0.25 * np.pi) * sig
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = blk
        out[2:, 2:] = blk
        return out

    gens = [spin_half(sig_z), spin_half(sig_x)]
    mats = {tuple(np.round(np.eye(4, dtype=complex).ravel(), 8)): np.eye(
        4, dtype=complex
    )}
    frontier = list(mats.values())
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                cand = g @ m
                key = tuple(np.round(cand.ravel(), 8))
                if key not in mats:
                    mats[key] = cand
                    new.append(cand)
        frontier = new
    return list(mats.values())


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


def _cone_kernel_derivative_magnitude(omega, k):
    """Magnitude of the momentum gradient of the distribution that equals
    i*omega/k outside the cones and +-i inside: zero inside the closed
    cones, |grad(i omega/k)| outside."""
    if abs(omega) >= k:
        return 0.0
    d_omega = 1.0 / k
    d_k = omega / k**2
    return float(np.hypot(d_omega, d_k))


def current_sli_support_check(modes):
    """Sum over a wave function's modes of |K'(p)| |a|^2, where K' is the
    differentiated cone kernel above.  Zero for strictly on-shell modes
    (their momenta lie inside the open cones); positive if a spacelike
    momentum is injected."""
    total = 0.0
    for mode in modes:
        k = float(np.linalg.norm(mode.kvec_arr))
        total += _cone_kernel_derivative_magnitude(mode.k0, k) * float(
            np.sum(np.abs(mode.a_arr) ** 2)
        )
    return total


def time_average_identity_check(f, t0=0.0, t_list=(10.0, 50.0, 100.0), s_max=40.0):
    """For an antisymmetric translation-invariant kernel A(t, t') = f(t'-t)
    with f odd and s*f(s) integrable, compares

        lhs = Integral_{-inf}^{t0} dt Integral_{t0}^{inf} dt' A(t,t')
        rhs_T = (1/2T) Integral_0^T dt Integral dt' (t'-t) A(t,t')

    Returns (lhs, [rhs_T for T in t_list])."""
    nodes, weights = gauss_legendre(200)

    def gl(lo, hi):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        return mid + half * nodes, half * weights

    # lhs as a genuine double integral over the decaying corner
    t_n, t_w = gl(t0 - s_max, t0)
    tp_n, tp_w = gl(t0, t0 + s_max)
    grid = np.array([[f(tp - t) for tp in tp_n] for t in t_n])
    lhs = float(t_w @ grid @ tp_w)

    # refinement check on the inner weighted integral
    def inner(n):
        # s f(s) is even for odd f; integrating over [0, s_max] avoids the
        # potential |s| kink at the origin
        nd, wt = gauss_legendre(n)
        s = 0.5 * s_max * (nd + 1.0)
        return 2.0 * float(
            np.sum(0.5 * s_max * wt * s * np.array([f(si) for si in s]))
        )

    i1, i2 = inner(200), inner(300)
    if abs(i2 - i1) > 1e-9 * max(1.0, abs(i2)):
        raise QuadratureNotConverged(f"inner integral moved by {abs(i2 - i1):.3e}")

    rhs = []
    for t_total in t_list:
        t_n2, t_w2 = gl(0.0, t_total)
        # (t'-t) A(t,t') integrated over t' is translation invariant
        rhs.append(float(np.sum(t_w2)) * i2 / (2.0 * t_total))
    return lhs, rhs


def positivity_probe(j, x, y, cutoff=8.0, tail_tol=1e-6):
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
    fx = unbounded_line_integral(j, x, direction, cutoff, tail_tol=tail_tol)
    fy = unbounded_line_integral(j, y, direction, cutoff, tail_tol=tail_tol)
    return fx * fy
