import ast
import pathlib
import time
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    dense_jet_pair,
    distinct_momentum_pair,
    fermi_functional_pair,
    jet_at,
    matched_jet_pair,
    maxwell_functional_pair,
    one_mode_jet,
    opposite_transfer_pair,
    random_jet,
    random_maxwell_field,
    violating_jet_pair,
)
from lightcone import lineint, quadrature, slayer
from lightcone.clifford import CHI_L, CHI_R, GAMMA, GAMMA0, sigma_jk
from lightcone.errors import InvalidMode
from lightcone.fields import (
    DEFAULT_BOX,
    MaxwellField,
    field_tensor_hat,
    lattice_momentum,
    pairing_predicates,
    time_translate,
)
from lightcone.quadrature import gauss_rule
from lightcone.slayer import (
    _box_quadrupole_hat,
    cube_spin_rotations,
    current_sli_support_check,
    definiteness_bracket,
    fermi_conservation_residual,
    ip_bose,
    ip_fermi,
    jtensor_components,
    positivity_probe,
    quadrupole_contraction,
    sigma_bose,
    sigma_bose_grid_oracle,
    sigma_fermi,
    time_average_identity_check,
)


# ---------------------------------------------------------------------------
# bosonic functionals
# ---------------------------------------------------------------------------


def evolved(t, *objs):
    """The fields or jets objs, each evolved to time t by time_translate."""
    return [time_translate(obj, t) for obj in objs]


def test_sigma_bose_matches_grid_oracle(rng):
    for _ in range(5):
        u, v = evolved(0.3, *maxwell_functional_pair(rng))
        exact = sigma_bose(u, v)
        grid = sigma_bose_grid_oracle(u, v, n=24)
        assert exact != 0.0
        assert exact == pytest.approx(grid, abs=1e-8 * max(1.0, abs(exact)))


def test_sigma_bose_antisymmetric(rng):
    u, v = evolved(0.2, *maxwell_functional_pair(rng))
    s = sigma_bose(u, v)
    assert s != 0.0
    assert sigma_bose(v, u) == pytest.approx(-s, abs=1e-10 * max(1.0, abs(s)))
    assert sigma_bose(u, u) == pytest.approx(0.0, abs=1e-10)


def test_sigma_bose_time_independent(rng):
    u, v = maxwell_functional_pair(rng)
    base = sigma_bose(u, v)
    assert base != 0.0
    scale = max(1.0, abs(base))
    for t in (0.1, 1.0, 10.0):
        assert sigma_bose(*evolved(t, u, v)) == pytest.approx(base, abs=1e-10 * scale)


def test_ip_bose_nonnegative_diagonal(rng):
    for _ in range(30):
        u = random_maxwell_field(rng)
        assert ip_bose(u, u) >= -1e-12


def test_ip_bose_vanishes_on_gauge_modes(rng):
    for _ in range(10):
        g = random_maxwell_field(rng, gauge=True)
        assert ip_bose(g, g) == pytest.approx(0.0, abs=1e-12)


def test_ip_bose_conserved_under_time_translation(rng):
    u, v = maxwell_functional_pair(rng)
    base = ip_bose(u, v)
    assert base != 0.0
    scale = max(1.0, abs(ip_bose(u, u)), abs(ip_bose(v, v)))
    for dt in (0.1, 1.0, 10.0):
        moved = ip_bose(time_translate(u, dt), time_translate(v, dt))
        assert moved == pytest.approx(base, abs=1e-10 * scale)


def reference_bose_pair_loop(u, v, t0=0.0):
    """sigma_bose of u and v evolved to time t0, and ip_bose(u, v), as one
    loop over every pair of exponential terms (each mode and its
    conjugate) of u and v, with the time phase of each term written here."""
    box = u.box

    def terms(field):
        return [(n, e, p) for n, e, p in zip(field.n, field.eps, field.p)] + [
            (-n, np.conj(e), -p) for n, e, p in zip(field.n, field.eps, field.p)
        ]

    sigma = ip = 0.0
    for nu, eu, pu in terms(u):
        fu = field_tensor_hat(eu, pu)
        for nv, ev, pv in terms(v):
            fv = field_tensor_hat(ev, pv)
            if np.array_equal(nu, -nv):
                s = sum(eu[i] * fv[i, 0] - ev[i] * fu[i, 0] for i in (1, 2, 3))
                sigma += box**3 * np.exp(-1j * (pu[0] + pv[0]) * t0) * s
            if np.array_equal(nu, nv) and pu[0] * pv[0] > 0:
                t1 = -sum(np.conj(fu[0, i]) * fv[0, i] for i in (1, 2, 3))
                t2 = sum(np.conj(fu[i, j]) * fv[i, j] for i in (1, 2, 3) for j in (1, 2, 3))
                ip += (t1 - 0.25 * t2) / np.linalg.norm(pu[1:])
    return sigma.real, -ip.real / box**3


def test_bose_functionals_match_the_pair_loop(rng):
    # the keyed sums reorder the loop's additions, so they agree to roundoff
    for _ in range(10):
        u, v = maxwell_functional_pair(rng)
        sigma, ip = reference_bose_pair_loop(u, v, t0=0.4)
        assert sigma != 0.0 and ip != 0.0
        assert abs(sigma_bose(*evolved(0.4, u, v)) - sigma) <= 1e-12 * max(1.0, abs(sigma))
        assert abs(ip_bose(u, v) - ip) <= 1e-12 * max(ip_bose(u, u), ip_bose(v, v))


def test_ip_bose_weights_by_the_lattice_momentum_of_the_key():
    # two modes of one field at one lattice index, their float momenta
    # 3e-10 apart (inside the lattice tolerance): every term is weighted by
    # 1 / |2 pi n / L|, not by one row's |p|, so the row order is immaterial
    k = 2.0 * np.pi / DEFAULT_BOX
    p = np.array([[k, k, 0.0, 0.0], [k, k, 0.0, 0.0]]) * np.array([[1.0], [1.0 + 3e-10]])
    eps = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.5, 1j]])
    u, w = MaxwellField(p, eps), MaxwellField(p[::-1], eps[::-1])
    assert np.array_equal(u.n, [[1, 0, 0], [1, 0, 0]])
    # the keys (n, +) and (-n, -) each carry the summed F or its conjugate
    f = field_tensor_hat(eps, p).sum(axis=0)
    expected = 2.0 * (np.sum(np.abs(f[0, 1:]) ** 2) + 0.25 * np.sum(np.abs(f[1:, 1:]) ** 2)) / (k * DEFAULT_BOX**3)
    for field in (u, w):
        assert abs(ip_bose(field, field) - expected) <= 1e-14 * expected


def reference_ip_bose_grid(u, v, n=8):
    """ip_bose from position space.  Each frequency sign s of each field
    (the terms with sign(p0) = s, whose sum is the field's positive or
    negative frequency part) is sampled as A^mu(x) at t = 0 on an n^3 grid
    over the box.  Spectral derivatives give E = -grad A^0 - dA/dt and
    B = curl A, with d/dx_j -> i k_j and, for a free wave of frequency sign
    s, d/dt -> -i s |k|.  The result is (1/L^3) sum over s and k of
    (conj(E_u) . E_v + conj(B_u) . B_v / 2) / |k|, real part, with the
    Fourier amplitudes from np.fft.  Exact while every lattice index lies
    in [-n/2, n/2).  It does not call field_tensor_hat."""
    box = u.box
    axis = np.arange(n) * (box / n)
    x = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"))
    k = 2.0 * np.pi * np.stack(np.meshgrid(*[np.fft.fftfreq(n, box / n)] * 3, indexing="ij"))
    k_norm = np.sqrt(np.sum(k**2, axis=0))

    def e_and_b(field, s):
        a = np.zeros((4, n, n, n), dtype=complex)
        for mode_p, mode_eps in zip(field.p, field.eps):
            for eps, p in ((mode_eps, mode_p), (np.conj(mode_eps), -mode_p)):
                if np.sign(p[0]) == s:
                    a += eps[:, None, None, None] * np.exp(1j * np.tensordot(p[1:], x, axes=1))
        a_hat = np.fft.fftn(a, axes=(1, 2, 3)) / n**3
        return -1j * k * a_hat[0] + 1j * s * k_norm * a_hat[1:], 1j * np.cross(k, a_hat[1:], axis=0)

    total = 0.0
    for s in (1.0, -1.0):
        (e_u, b_u), (e_v, b_v) = e_and_b(u, s), e_and_b(v, s)
        density = np.sum(np.conj(e_u) * e_v + 0.5 * np.conj(b_u) * b_v, axis=0)
        total += np.sum(density[k_norm > 0] / k_norm[k_norm > 0])
    return total.real / box**3


def test_ip_bose_matches_grid_reference(rng):
    # v shares u's momenta (u moved in time, so the pairs carry phases)
    # and adds modes of its own; both frequency signs occur in every field
    for _ in range(6):
        u = random_maxwell_field(rng, n_modes=3)
        w, moved = random_maxwell_field(rng), time_translate(u, 0.37)
        v = MaxwellField(np.concatenate((moved.p, w.p)), np.concatenate((moved.eps, w.eps)), u.box)
        scale = max(ip_bose(u, u), ip_bose(v, v))
        for a, b in ((u, u), (u, v), (v, u), (v, v)):
            assert abs(ip_bose(a, b) - reference_ip_bose_grid(a, b)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# fermionic functionals
# ---------------------------------------------------------------------------


def test_sigma_fermi_antisymmetric(rng):
    u = random_jet(rng, n_psi=2, n_delta=2)
    v = random_jet(rng, n_psi=2, n_delta=2)
    s = sigma_fermi(u, v)
    assert sigma_fermi(v, u) == pytest.approx(-s, abs=1e-12 * max(1.0, abs(s)))


def test_ip_fermi_symmetric(rng):
    u = random_jet(rng, n_psi=2, n_delta=2)
    v = random_jet(rng, n_psi=2, n_delta=2)
    s = ip_fermi(u, v)
    assert ip_fermi(v, u) == pytest.approx(s, abs=1e-12 * max(1.0, abs(s)))


def test_fermi_functionals_conserved(rng):
    for _ in range(5):
        u, v = fermi_functional_pair(rng)
        s0 = sigma_fermi(u, v)
        i0 = ip_fermi(u, v)
        assert s0 != 0.0 and i0 != 0.0
        for dt in (0.1, 1.0, 10.0):
            ut = time_translate(u, dt)
            vt = time_translate(v, dt)
            assert abs(sigma_fermi(ut, vt) - s0) <= 1e-10 * abs(s0)
            assert abs(ip_fermi(ut, vt) - i0) <= 1e-10 * abs(i0)


def test_sigma_fermi_contraction_antisymmetric_and_conserved(rng):
    # delta_psi_u at k with psi_v at -k, delta_psi_v at q with psi_u at -q:
    # the one momentum pairing sigma_fermi contracts
    k, q = np.array([1, 0, 0]), np.array([0, 2, -1])
    u = one_mode_jet(rng, n_psi=-q, n_delta=k)
    v = one_mode_jet(rng, n_psi=-k, n_delta=q)
    s = sigma_fermi(u, v)
    assert s != 0.0
    assert abs(sigma_fermi(v, u) + s) <= 1e-12 * abs(s)
    for dt in (0.1, 1.0, 10.0):
        assert abs(sigma_fermi(time_translate(u, dt), time_translate(v, dt)) - s) <= 1e-10 * abs(s)


def _modes(jet, side):
    """The modes of one side of a jet as rows (k0, kvec, a), with the float
    momenta kvec = 2 pi n / L."""
    rows = zip(getattr(jet, side + "_k0"), getattr(jet, side + "_n"), getattr(jet, side + "_a"))
    return [(k0, 2.0 * np.pi * n / jet.box, a) for k0, n, a in rows]


def reference_sigma_fermi(jet_u, jet_v):
    """Mode-by-mode evaluation of sigma_fermi: a loop over every
    (delta_psi_u, psi_v, delta_psi_v, psi_u) mode quadruple with
    k(delta_psi_u) = -k(psi_v) and k(delta_psi_v) = -k(psi_u), float
    momenta matched to 1e-9, and chiral projectors built here from
    gamma5 = i gamma0 gamma1 gamma2 gamma3.

    Returns (value, scale), scale being the sum of the magnitudes of the
    contributions, as for reference_conservation_residual."""
    m, box = jet_u.m, jet_u.box
    gamma5 = 1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]
    chi_l, chi_r = 0.5 * (np.eye(4) - gamma5), 0.5 * (np.eye(4) + gamma5)
    metric = (1.0, -1.0, -1.0, -1.0)

    def bil(a, mat, b):
        return complex(np.conj(a) @ GAMMA0 @ mat @ b)

    def same(p, q):
        return np.max(np.abs(p - q)) <= 1e-9

    total = scale = 0.0
    for _, k, du in _modes(jet_u, "delta_psi"):
        for _, kv, pv in _modes(jet_v, "psi"):
            if not same(k, -kv):
                continue
            for _, q, dv in _modes(jet_v, "delta_psi"):
                for _, qu, pu in _modes(jet_u, "psi"):
                    if not same(q, -qu):
                        continue
                    weight = (q @ q + k @ k + 2.0 * m * m) / (m * m)
                    terms = []
                    for chi, chi_bar in ((chi_l, chi_r), (chi_r, chi_l)):
                        terms.append(bil(du, chi, pu) * bil(pv, chi_bar, dv))
                        for alpha in range(4):
                            vertex = GAMMA[alpha] @ chi
                            terms.append(-metric[alpha] * bil(du, vertex, pu) * bil(pv, vertex, dv))
                    total += weight * sum(terms).imag / box**6
                    scale += weight * sum(abs(z) for z in terms) / box**6
    return total, scale


def test_sigma_fermi_matches_reference(rng):
    k, q = np.array([1, 0, 0]), np.array([0, 2, -1])
    cases = [("functional pair", *fermi_functional_pair(rng)) for _ in range(5)]
    cases += [("dense", *dense_jet_pair(rng, n)) for n in (1, 2, 3)]
    cases.append(("one mode", one_mode_jet(rng, n_psi=-q, n_delta=k), one_mode_jet(rng, n_psi=-k, n_delta=q)))
    # several modes at one momentum, which sigma_fermi sums before contracting
    cases.append(("repeated", jet_at(rng, [-q, -q, k], [k, k, -q]), jet_at(rng, [-k, -k, q], [q, q, -k])))
    cases.append(("box 10", *fermi_functional_pair(rng, box=10.0)))
    # lattice indices too far apart to pack into one int64 by their offsets
    k, q = np.array([2**21, 0, -(2**21)]), np.array([0, 2**21, 2**21])
    cases.append(("far apart", one_mode_jet(rng, n_psi=-q, n_delta=k), one_mode_jet(rng, n_psi=-k, n_delta=q)))
    nonzero = set()
    for name, u, v in cases:
        want, scale = reference_sigma_fermi(u, v)
        assert abs(sigma_fermi(u, v) - want) <= 1e-12 * scale, name
        if want != 0.0:
            nonzero.add(name)
    assert nonzero >= {"functional pair", "one mode", "repeated", "box 10", "far apart"}


def reference_ip_fermi(jet_u, jet_v):
    """Mode-by-mode evaluation of ip_fermi: a loop over every
    (delta_psi_u, delta_psi_v, psi_u, psi_v) mode quadruple with
    k(delta_psi_u) = k(delta_psi_v) and q(psi_u) = q(psi_v), float momenta
    matched to 1e-9, and the definiteness bracket written out here.

    Returns (value, scale), scale being the sum of the magnitudes of the
    contributions."""
    m, box = jet_u.m, jet_u.box

    def same(p, q):
        return np.max(np.abs(p - q)) <= 1e-9

    total = scale = 0.0
    for _, k, du in _modes(jet_u, "delta_psi"):
        for _, kv, dv in _modes(jet_v, "delta_psi"):
            if not same(k, kv):
                continue
            for _, q, pu in _modes(jet_u, "psi"):
                for _, qv, pv in _modes(jet_v, "psi"):
                    if not same(q, qv):
                        continue
                    wk, wq = np.sqrt(k @ k + m * m), np.sqrt(q @ q + m * m)
                    bracket = (k @ q) * (wq + wk) + (q @ q) * wq + (k @ k) * wk
                    pairing = (np.conj(du) @ GAMMA0 @ dv) * (np.conj(pv) @ GAMMA0 @ pu)
                    term = -pairing.real * bracket / (m**3 * box**6)
                    total += term
                    scale += abs(term)
    return total, scale


def test_ip_fermi_matches_reference(rng):
    k, q = np.array([1, 0, 0]), np.array([0, 2, -1])
    cases = [("functional pair", *fermi_functional_pair(rng)) for _ in range(5)]
    cases += [("dense", *dense_jet_pair(rng, n)) for n in (1, 2, 3)]
    cases.append(("one mode", *matched_jet_pair(rng, n_psi=q, n_delta=k)))
    # several modes at one momentum, which ip_fermi sums before contracting
    cases.append(("repeated", jet_at(rng, [q, q, k], [k, k, q]), jet_at(rng, [q, k, k], [k, q, q])))
    cases.append(("box 10", *fermi_functional_pair(rng, box=10.0)))
    k, q = np.array([2**21, 0, -(2**21)]), np.array([0, 2**21, 2**21])
    cases.append(("far apart", *matched_jet_pair(rng, n_psi=q, n_delta=k)))
    nonzero = set()
    for name, u, v in cases:
        want, scale = reference_ip_fermi(u, v)
        assert abs(ip_fermi(u, v) - want) <= 1e-12 * scale, name
        if want != 0.0:
            nonzero.add(name)
    assert nonzero >= {"functional pair", "one mode", "repeated", "box 10", "far apart"}


def test_ip_fermi_contraction_symmetric_and_conserved(rng):
    # delta_psi of both jets at k and psi of both at q: the pairing
    # ip_fermi contracts, with a nonzero definiteness bracket (q != -k)
    k, q = np.array([1, 0, 0]), np.array([0, 2, -1])
    u, v = matched_jet_pair(rng, n_psi=q, n_delta=k)
    ip = ip_fermi(u, v)
    assert ip != 0.0
    assert abs(ip_fermi(v, u) - ip) <= 1e-12 * abs(ip)
    for dt in (0.1, 1.0, 10.0):
        assert abs(ip_fermi(time_translate(u, dt), time_translate(v, dt)) - ip) <= 1e-10 * abs(ip)


def test_ip_fermi_diagonal_sign_constant(rng):
    signs = set()
    for _ in range(50):
        u = random_jet(rng, n_psi=1, n_delta=1)
        val = ip_fermi(u, u)
        if abs(val) > 1e-12:
            signs.add(np.sign(val))
    assert signs == {1.0}


def test_definiteness_bracket_anchors():
    k = np.array([0.0, 0.0, 1.0])
    q = np.array([0.0, 0.0, 2.0])
    assert definiteness_bracket(k, q, 1.0) == pytest.approx(
        6.0 * np.sqrt(5.0) + 3.0 * np.sqrt(2.0), abs=1e-12
    )
    assert definiteness_bracket(k, -q, 1.0) == pytest.approx(
        2.0 * np.sqrt(5.0) - np.sqrt(2.0), abs=1e-12
    )
    assert definiteness_bracket(k, -k, 1.0) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# J-tensor and conservation residual
# ---------------------------------------------------------------------------


def test_jtensor_exchange_symmetry(rng):
    u = random_jet(rng, n_psi=2, n_delta=2)
    v = random_jet(rng, n_psi=2, n_delta=2)
    x = np.array([0.2, 1.0, -0.5, 0.3])
    y = np.array([0.2, -0.7, 0.4, 1.1])
    jxy = jtensor_components(u, v, x, y)
    jyx = jtensor_components(u, v, y, x)
    assert np.allclose(jxy, jyx.T, atol=1e-12 * max(1.0, np.max(np.abs(jxy))))
    assert np.allclose(jxy, jxy.T)


def test_conservation_residual_vanishes_for_matched_jets(rng):
    for _ in range(3):
        u, v = matched_jet_pair(rng)
        assert pairing_predicates(u, v)["implication_holds"]
        assert fermi_conservation_residual(*evolved(0.3, u, v)) == 0.0


def test_conservation_residual_nonzero_for_violating_jets(rng):
    u, v = violating_jet_pair(rng)
    assert not pairing_predicates(u, v)["implication_holds"]
    assert abs(fermi_conservation_residual(*evolved(0.3, u, v))) > 1e3


def test_conservation_residual_nonzero_for_opposite_transfers(rng):
    u, v = opposite_transfer_pair(rng)
    assert not pairing_predicates(u, v)["implication_holds"]
    assert abs(fermi_conservation_residual(*evolved(0.3, u, v))) > 1e3


def space_translate(obj, x0):
    """A field or jet moved by the spatial vector x0: each mode amplitude
    picks up the phase exp(-i kvec . x0)."""
    phase = lambda n: np.exp(-1j * (lattice_momentum(n, obj.box) @ x0))[:, None]
    if isinstance(obj, MaxwellField):
        return replace(obj, eps=obj.eps * phase(obj.n))
    return replace(obj, psi_a=obj.psi_a * phase(obj.psi_n), delta_psi_a=obj.delta_psi_a * phase(obj.delta_psi_n))


def test_functionals_invariant_under_space_translation(rng):
    # the functionals integrate over the whole box, so moving both of
    # their arguments by the same x0 changes none of them
    (u, v), (ju, jv), (wu, wv) = maxwell_functional_pair(rng), fermi_functional_pair(rng), violating_jet_pair(rng)
    residual = lambda a, b: fermi_conservation_residual(*evolved(0.3, a, b))
    for f, a, b in ((sigma_bose, u, v), (ip_bose, u, v), (sigma_fermi, ju, jv), (ip_fermi, ju, jv), (residual, wu, wv)):
        before = f(a, b)
        assert before != 0.0
        for x0 in rng.uniform(-DEFAULT_BOX, DEFAULT_BOX, size=(20, 3)):
            assert abs(f(space_translate(a, x0), space_translate(b, x0)) - before) <= 1e-10 * abs(before)


def reference_box_quadrupole_hat(n_key, box):
    """W(q) at q = 2 pi n_key / L on the 40^3 tensor-product Gauss-Legendre
    grid, summed point by point with the full three-axis phase: the
    reference for the axis-by-axis contraction of _box_quadrupole_hat."""
    q = (2.0 * np.pi / box) * np.asarray(n_key, dtype=float)
    xs, ws = gauss_rule(-0.5 * box, 0.5 * box, slayer.BOX_QUADRUPOLE_NODES)
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
    out -= (np.trace(out) / 3.0) * np.eye(3)
    return out


@pytest.mark.parametrize("box", [DEFAULT_BOX, 10.0])
def test_box_quadrupole_matches_pointwise_reference(rng, box):
    keys = rng.integers(-14, 15, size=(40, 3))
    keys[0] = 0  # the zero transfer, and a repeated key
    keys[1] = keys[2]
    got = _box_quadrupole_hat(keys, box)
    want = np.array([reference_box_quadrupole_hat(key, box) for key in keys])
    assert got.shape == (40, 3, 3)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.all(got == np.swapaxes(got, 1, 2))


def test_conservation_residual_computes_weights_in_one_call(rng, monkeypatch):
    calls = []
    weights = slayer._box_quadrupole_hat

    def counted(keys, box):
        calls.append(len(keys))
        return weights(keys, box)

    monkeypatch.setattr(slayer, "_box_quadrupole_hat", counted)
    pairs = [dense_jet_pair(rng, 3), violating_jet_pair(rng), opposite_transfer_pair(rng), matched_jet_pair(rng)]
    counts = []
    for u, v in pairs:
        before = len(calls)
        fermi_conservation_residual(*evolved(0.3, u, v))
        counts.append(len(calls) - before)
    # every key of one residual in one call; none where no pair survives
    assert counts == [1, 1, 1, 0]
    assert calls[0] > 1


@lru_cache(maxsize=None)
def _weight_at(n_key, box):
    return _box_quadrupole_hat(np.array([n_key]), box)[0]


def _reference_bilinear_terms(modes_bra, mat, modes_ket):
    """<w_a(x) | mat w_b(y)> at x0 = y0 = t as a list of (coeff, w, kx, ky),
    meaning coeff e^{i w t} e^{i kx.xvec} e^{i ky.yvec}."""
    out = []
    for k0_a, kvec_a, a in modes_bra:
        row = np.conj(a) @ GAMMA0 @ mat
        for k0_b, kvec_b, b in modes_ket:
            out.append((complex(row @ b), k0_a - k0_b, -kvec_a, kvec_b))
    return out


def _reference_d_terms(jet, mat, sign):
    plus = _reference_bilinear_terms(_modes(jet, "delta_psi"), mat, _modes(jet, "psi"))
    other = _reference_bilinear_terms(_modes(jet, "psi"), mat, _modes(jet, "delta_psi"))
    return plus + [(sign * c, w, kx, ky) for c, w, kx, ky in other]


def reference_conservation_residual(jet_u, jet_v, t=0.0):
    """Term-by-term evaluation of fermi_conservation_residual on the jets
    evolved to time t: a loop over every pair of exponential terms of the
    two jets' bilinears, for each (alpha, beta), chirality and contraction,
    with float momenta and the time phase of each term written here.

    Returns (value, scale), scale being the sum of the magnitudes of the
    contributions: the roundoff of any summation order is a multiple of
    eps * scale, which can exceed eps * |value| when terms cancel."""
    box = jet_u.box
    chi = {"L": CHI_L, "R": CHI_R}
    chi_bar = {"L": CHI_R, "R": CHI_L}
    sigma0 = [None] + [sigma_jk(0, a) for a in (1, 2, 3)]
    total = 0.0 + 0.0j
    scale = 0.0
    for alpha in (1, 2, 3):
        for beta in (1, 2, 3):
            prods = []
            for c in ("L", "R"):
                prods.append((
                    1.0,
                    _reference_d_terms(jet_u, sigma0[alpha] @ chi[c], -1.0),
                    _reference_d_terms(jet_v, sigma0[beta] @ chi_bar[c], 1.0),
                ))
                prods.append((
                    -1.0,
                    _reference_d_terms(jet_u, GAMMA[alpha] @ chi[c], -1.0),
                    _reference_d_terms(jet_v, GAMMA[beta] @ chi[c], 1.0),
                ))
            for sign, terms1, terms2 in prods:
                for c1, w1, kx1, ky1 in terms1:
                    for c2, w2, kx2, ky2 in terms2:
                        coeff = sign * c1 * c2
                        w = w1 + w2
                        ky = ky1 + ky2
                        if np.max(np.abs(kx1 + kx2 + ky)) > 1e-9:
                            continue
                        # Im(z) = (z - conj z)/(2i): the term and its
                        # reflected conjugate
                        for cc, ww, kk in ((coeff / 2j, w, ky), (-np.conj(coeff) / 2j, -w, -ky)):
                            if abs(ww) < 1e-12:
                                continue
                            n_key = tuple(int(c) for c in np.rint(kk * box / (2.0 * np.pi)))
                            w_hat = _weight_at(n_key, box)
                            term = (
                                -0.5 * (1j * ww) * cc * np.exp(1j * ww * t)
                                * box**3 * w_hat[alpha - 1, beta - 1]
                            )
                            total += term
                            scale += abs(term)
    return float(total.real), scale


def test_conservation_residual_matches_reference(rng):
    cases = []
    for n in (1, 2, 3):
        pair = [random_jet(rng, n_psi=n, n_delta=n) for _ in range(2)]
        cases.append(("random", *pair))
        cases += [("dense", *dense_jet_pair(rng, n)) for _ in range(2)]
    cases.append(("matched", *matched_jet_pair(rng)))
    cases.append(("violating", *violating_jet_pair(rng)))
    cases.append(("opposite", *opposite_transfer_pair(rng)))
    # the residual reads the box from the jets
    cases.append(("violating, box 10", *violating_jet_pair(rng, box=10.0)))
    # many terms whose frequencies cancel, all inside the per-momentum sums
    cases.append(("dense, 4 modes", *dense_jet_pair(rng, 4)))
    nonzero = set()
    for name, u, v in cases:
        for t in (0.0, 0.3):
            want, scale = reference_conservation_residual(u, v, t)
            got = fermi_conservation_residual(*evolved(t, u, v))
            assert abs(got - want) <= 1e-12 * scale, name
            if want != 0.0:
                nonzero.add(name)
    # the comparison is not between zeros only
    assert nonzero >= {"dense", "violating", "opposite", "violating, box 10", "dense, 4 modes"}


def test_jtensor_vertex_is_defined_once():
    # chibar_c enters only the module-level vertex constants, which
    # sigma_fermi, jtensor_components and the residual read; a second
    # transcription of the vertex would name it again
    tree = ast.parse(pathlib.Path(slayer.__file__).read_text())
    readers = set()
    for node in tree.body:
        if any(isinstance(n, ast.Name) and n.id == "_CHI_BAR" and isinstance(n.ctx, ast.Load)
               for n in ast.walk(node)):
            readers.add(node.name if hasattr(node, "name") else node.targets[0].id)
    assert readers == {"_SCALAR_VERTEX", "_SPATIAL_VERTEX_V"}
    # jtensor_components contracts stacked bilinears, component by component
    # nowhere
    fn = next(n for n in tree.body if getattr(n, "name", None) == "jtensor_components")
    assert not any(isinstance(n, (ast.For, ast.While, ast.comprehension)) for n in ast.walk(fn))


def test_functionals_reject_pairs_from_different_boxes(rng):
    u, v = random_jet(rng), random_jet(rng, box=10.0)
    for functional in (sigma_fermi, ip_fermi, fermi_conservation_residual, pairing_predicates):
        with pytest.raises(InvalidMode):
            functional(u, v)
    fu = random_maxwell_field(rng)
    fv = random_maxwell_field(rng, box=10.0)
    for functional in (sigma_bose, ip_bose, sigma_bose_grid_oracle):
        with pytest.raises(InvalidMode):
            functional(fu, fv)


def _distinct_transfer_family(rng, n, max_index):
    """Lattice indices of n psi and n delta_psi modes whose n^2 transfers
    are nonzero, distinct and free of opposite pairs."""
    def draw():
        return [tuple(rng.integers(-max_index, max_index + 1, size=3)) for _ in range(n)]

    while True:
        psi, delta = draw(), draw()
        transfers = {tuple(np.subtract(d, p)) for d in delta for p in psi}
        if len(transfers) < n * n or (0, 0, 0) in transfers:
            continue
        if any(tuple(-c for c in t) in transfers for t in transfers):
            continue
        return psi, delta


def test_conservation_residual_matched_at_16_modes(rng):
    psi_ns, delta_ns = _distinct_transfer_family(rng, 16, 16)
    u, v = jet_at(rng, psi_ns, delta_ns), jet_at(rng, psi_ns, delta_ns)
    assert pairing_predicates(u, v)["implication_holds"]
    start = time.perf_counter()
    assert fermi_conservation_residual(*evolved(0.3, u, v)) == 0.0
    assert time.perf_counter() - start < 2.0


def test_momentum_matches_grow_with_the_matches(rng):
    # 32 distinct momenta per side: a match by an n^4 broadcast mask peaks
    # at about 141 MB (residual) and 19 MB (pairing_predicates) here
    u, v = distinct_momentum_pair(rng, 32)
    for call in (lambda: fermi_conservation_residual(*evolved(0.3, u, v)), lambda: pairing_predicates(u, v)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


def test_conservation_residual_memory_at_128_modes():
    # 128 distinct momenta per side, indices up to 6: enumerating every
    # matched term pair peaked at about 175 MB; the sums per lattice
    # momentum need about 70 MB
    u, v = evolved(0.3, *distinct_momentum_pair(np.random.default_rng(5), 128, 6))
    tracemalloc.start()
    try:
        value = fermi_conservation_residual(u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value != 0.0
    assert peak < 120e6


def test_cube_spin_rotation_group():
    pairs = cube_spin_rotations()
    assert len(pairs) == 48
    # 24 integer rotations, each with S and -S
    assert len({r.tobytes() for r, _ in pairs}) == 24
    for r, s in pairs:
        assert r.dtype == np.int64 and np.array_equal(r @ r.T, np.eye(3)) and round(np.linalg.det(r)) == 1
        # S is unitary, the same 2x2 block twice, and rotates the spatial
        # gammas by R: S gamma^j S^dagger = sum_i R_ij gamma^i
        assert np.allclose(s @ s.conj().T, np.eye(4), atol=1e-12)
        assert np.array_equal(s[:2, 2:], np.zeros((2, 2))) and np.array_equal(s[:2, :2], s[2:, 2:])
        for j in range(3):
            assert np.allclose(s @ GAMMA[j + 1] @ s.conj().T, np.einsum("i,iab->ab", r[:, j], GAMMA[1:]), atol=1e-12)
    # closed under multiplication, and R follows S: the product of two pairs'
    # S is a third pair's S, whose R is the product of theirs
    spins = np.array([s for _, s in pairs])
    products = np.einsum("aij,bjk->abik", spins, spins)
    distance = np.max(np.abs(products[:, :, None] - spins[None, None]), axis=(3, 4))
    assert np.all(np.sum(distance < 1e-12, axis=2) == 1)
    for a, b in np.ndindex(48, 48):
        c = np.argmin(distance[a, b])
        assert np.array_equal(pairs[a][0] @ pairs[b][0], pairs[c][0])


def rotated(obj, r, s):
    """A field or jet moved by the cube-group pair (R, S): lattice indices
    n -> R n, with jet amplitudes a -> S a and Maxwell momenta and
    polarizations (p0, pvec) -> (p0, R pvec), (eps0, epsvec) -> (eps0, R epsvec)."""
    if isinstance(obj, MaxwellField):
        spatial = np.eye(4, dtype=np.int64)
        spatial[1:, 1:] = r
        return replace(obj, p=obj.p @ spatial.T, eps=obj.eps @ spatial.T)
    return replace(
        obj,
        psi_n=obj.psi_n @ r.T,
        psi_a=obj.psi_a @ s.T,
        delta_psi_n=obj.delta_psi_n @ r.T,
        delta_psi_a=obj.delta_psi_a @ s.T,
    )


_JET_PAIRS = {
    "fermi_functional": fermi_functional_pair,
    "matched": matched_jet_pair,
    "violating": violating_jet_pair,
    "opposite": opposite_transfer_pair,
    "dense": lambda rng: dense_jet_pair(rng, 2),
}


def _assert_cube_invariant(functional, u, v, scale=0.0):
    """functional(u, v) is unchanged, to 1e-12 of the larger of its size
    and scale, when both arguments are moved by any pair (R, S)."""
    before = functional(u, v)
    for r, s in cube_spin_rotations():
        moved = functional(rotated(u, r, s), rotated(v, r, s))
        assert abs(moved - before) <= 1e-12 * max(abs(before), scale)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(_JET_PAIRS)))
# a live pair at zero y-momentum, where W(0) must be exactly zero
@example(seed=463802, builder="dense")
def test_jet_functionals_invariant_under_the_cube_group(seed, builder):
    # the box and its quadrupole weight are cube-symmetric, and S rotates
    # the vertex as R rotates the momenta, so every functional of a pair
    # moved by the same (R, S) is unchanged.  ip_fermi and the residual can
    # cancel far below their terms, so their roundoff is bounded by the
    # Cauchy-Schwarz bound and by the reference loop's sum of magnitudes
    u, v = _JET_PAIRS[builder](np.random.default_rng(seed))
    _assert_cube_invariant(sigma_fermi, u, v)
    _assert_cube_invariant(ip_fermi, u, v, np.sqrt(abs(ip_fermi(u, u) * ip_fermi(v, v))))
    _assert_cube_invariant(fermi_conservation_residual, u, v, reference_conservation_residual(u, v)[1])
    before = pairing_predicates(u, v)
    for r, s in cube_spin_rotations():
        after = pairing_predicates(rotated(u, r, s), rotated(v, r, s))
        assert np.array_equal(after["quadruples"], before["quadruples"])
        assert np.array_equal(after["flagged"], before["flagged"])


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_maxwell_functionals_invariant_under_the_cube_group(seed):
    u, v = maxwell_functional_pair(np.random.default_rng(seed))
    for functional in (sigma_bose, ip_bose):
        _assert_cube_invariant(functional, u, v)


def test_spherical_symmetrization_kills_quadrupole(rng):
    # rest-frame jets summed over the spinor cube group have a spatial
    # J-block proportional to the identity, so any trace-free contraction
    # vanishes
    def rest_jet():
        return one_mode_jet(rng, np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64))

    u0, v0 = rest_jet(), rest_jet()
    x = np.array([0.1, 0.4, -0.2, 0.9])
    y = np.array([0.1, -0.3, 0.8, 0.2])
    xi = y[1:] - x[1:]

    total = np.zeros((4, 4))
    singles = []
    for r, s in cube_spin_rotations():
        j = jtensor_components(rotated(u0, r, s), rotated(v0, r, s), x, y)
        singles.append(abs(quadrupole_contraction(j, xi)))
        total += j
    scale = max(singles)
    assert scale > 1e-3  # individual contributions are not trivially zero
    assert abs(quadrupole_contraction(total, xi)) < 1e-10 * scale
    # the summed spatial block is isotropic
    spatial = total[1:, 1:]
    assert np.allclose(spatial, np.trace(spatial) / 3.0 * np.eye(3), atol=1e-10 * scale)


# ---------------------------------------------------------------------------
# support check, time averaging, positivity
# ---------------------------------------------------------------------------


def test_support_check_flags_spacelike_mode(rng):
    k0, kvec, a = random_jet(rng).plane_waves()
    # an injected row with a spacelike momentum
    k0, kvec, a = np.append(k0, 0.5), np.vstack((kvec, [2.0, 0.0, 0.0])), np.vstack((a, np.ones(4)))
    assert current_sli_support_check(k0, kvec, a) > 0.1


def test_time_average_identity_gaussian():
    lhs, rhs = time_average_identity_check(
        lambda s: s * np.exp(-s * s), t_list=(10.0, 50.0, 100.0), s_max=12.0
    )
    assert lhs == pytest.approx(np.sqrt(np.pi) / 4.0, abs=1e-12)
    # rhs_T is i2/2 for every T
    assert len(rhs) == 3 and len(set(rhs)) == 1
    assert rhs[0] == pytest.approx(lhs, abs=1e-12)


def test_time_average_identity_calls_f_on_arrays():
    calls = []

    def f(s):
        calls.append(np.shape(s))
        return s * np.exp(-s * s)

    time_average_identity_check(f, t_list=(10.0,), s_max=12.0)
    # the 20,100 distinct arguments of the folded corner and the two
    # refinement rules (the 200-node rule on [0, 1] and on its two halves),
    # each in one call
    assert calls == [(20100,), (200,), (2, 200)]


def reference_time_average_lhs(f, s_max):
    """The lhs corner as the full 200 x 200 tensor sum: the 200-node rule on
    [-s_max, 0] for t and on [0, s_max] for t', f on every grid point."""
    t, wt = gauss_rule(-s_max, 0.0, 200)
    tp, wtp = gauss_rule(0.0, s_max, 200)
    return float(wt @ f(tp[None, :] - t[:, None]) @ wtp)


@pytest.mark.parametrize(
    "f, s_max",
    [(lambda s: s * np.exp(-s * s), 12.0), (lambda s: np.sin(s) * np.exp(-abs(s)), 40.0)],
)
def test_time_average_folded_corner_matches_the_tensor_sum(f, s_max):
    lhs, _ = time_average_identity_check(f, t_list=(10.0,), s_max=s_max)
    assert lhs == pytest.approx(reference_time_average_lhs(f, s_max), rel=1e-14, abs=0.0)


def test_time_average_identity_uses_one_node_count(monkeypatch):
    # every rule of the check is the cached 200-node one, so a fresh
    # process computes a single Gauss-Legendre rule for it
    asked = []
    cached = quadrature.gauss_legendre

    def recording(n):
        asked.append(n)
        return cached(n)

    monkeypatch.setattr(quadrature, "gauss_legendre", recording)
    time_average_identity_check(lambda s: s * np.exp(-s * s), t_list=(10.0, 50.0), s_max=12.0)
    assert asked and set(asked) == {200}


def test_time_average_identity_damped_sine():
    lhs, rhs = time_average_identity_check(
        lambda s: np.sin(s) * np.exp(-abs(s)), t_list=(100.0,), s_max=40.0
    )
    # int_0^inf s sin(s) e^{-s} ds = 1/2
    assert lhs == pytest.approx(0.5, abs=1e-10)
    assert rhs[0] == pytest.approx(lhs, abs=1e-10)


def _gaussian_current(coeffs):
    def j(point):
        t = point[0]
        r2 = float(point[1:] @ point[1:])
        damp = np.exp(-(t * t + r2) / 18.0)
        return np.asarray(coeffs) * damp * (1.0 + 0.3 * t)

    return j


def test_positivity_probe_coincidence(rng):
    j = _gaussian_current([1.0, 0.2, -0.1, 0.4])
    x = np.array([0.2, 0.3, -0.1, 0.5])
    assert positivity_probe(j, x, x, cutoff=15.0) >= 0.0


def test_positivity_probe_null_separation(rng):
    values = []
    for _ in range(10):
        j = _gaussian_current(rng.normal(size=4))
        x = np.concatenate((rng.normal(size=1) * 0.3, rng.normal(size=3) * 0.5))
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        eps = 0.007
        y = x + eps * np.concatenate(([1.0], d))
        values.append(positivity_probe(j, x, y, cutoff=15.0))
    scale = max(abs(v) for v in values)
    assert all(v >= -1e-6 * scale for v in values)


def test_positivity_probe_calls_the_line_integral_on_slayer(monkeypatch):
    # slayer loads lineint on first use, and keeps unbounded_line_integral a
    # module attribute: a wrapper installed there sees both calls
    assert slayer.unbounded_line_integral is lineint.unbounded_line_integral
    calls = []

    def recording(*args):
        calls.append(args[1])
        return lineint.unbounded_line_integral(*args)

    monkeypatch.setattr(slayer, "unbounded_line_integral", recording)
    j = _gaussian_current([1.0, 0.2, -0.1, 0.4])
    x = np.array([0.2, 0.3, -0.1, 0.5])
    assert positivity_probe(j, x, x, cutoff=15.0) >= 0.0
    assert len(calls) == 2
