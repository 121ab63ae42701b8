import time
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    matched_jet_pair,
    opposite_transfer_pair,
    random_dirac_mode,
    random_jet,
    random_lattice_vector,
    random_maxwell_field,
    violating_jet_pair,
)
from lightcone.clifford import CHI_L, CHI_R, GAMMA, GAMMA0, sigma_jk
from lightcone.errors import InvalidMode, OffShellField
from lightcone.fields import DEFAULT_BOX, DiracMode, FermionicJet, pairing_predicates, time_translate
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


def test_sigma_bose_matches_grid_oracle(rng):
    for _ in range(5):
        u = random_maxwell_field(rng)
        v = random_maxwell_field(rng)
        exact = sigma_bose(u, v, t0=0.3)
        grid = sigma_bose_grid_oracle(u, v, t0=0.3, n=24)
        assert exact == pytest.approx(grid, abs=1e-8 * max(1.0, abs(exact)))


def test_sigma_bose_antisymmetric(rng):
    u = random_maxwell_field(rng)
    v = random_maxwell_field(rng)
    s = sigma_bose(u, v, t0=0.2)
    assert sigma_bose(v, u, t0=0.2) == pytest.approx(-s, abs=1e-10 * max(1.0, abs(s)))
    assert sigma_bose(u, u) == pytest.approx(0.0, abs=1e-10)


def test_sigma_bose_time_independent(rng):
    u = random_maxwell_field(rng)
    v = random_maxwell_field(rng)
    base = sigma_bose(u, v, t0=0.0)
    scale = max(1.0, abs(base))
    for t0 in (0.1, 1.0, 10.0):
        assert sigma_bose(u, v, t0=t0) == pytest.approx(base, abs=1e-10 * scale)


def test_ip_bose_nonnegative_diagonal(rng):
    for _ in range(30):
        u = random_maxwell_field(rng)
        assert ip_bose(u, u) >= -1e-12


def test_ip_bose_vanishes_on_gauge_modes(rng):
    for _ in range(10):
        g = random_maxwell_field(rng, gauge=True)
        assert ip_bose(g, g) == pytest.approx(0.0, abs=1e-12)


def test_ip_bose_conserved_under_time_translation(rng):
    u = random_maxwell_field(rng)
    v = random_maxwell_field(rng)
    base = ip_bose(u, v)
    scale = max(1.0, abs(ip_bose(u, u)), abs(ip_bose(v, v)))
    for dt in (0.1, 1.0, 10.0):
        moved = ip_bose(time_translate(u, dt), time_translate(v, dt))
        assert moved == pytest.approx(base, abs=1e-10 * scale)


def test_bose_functionals_reject_bad_input(rng):
    u = random_maxwell_field(rng)
    # an off-shell field cannot be constructed through the public types;
    # the functional still re-checks defensively
    fake_mode = SimpleNamespace(p=(1.0, 0.5, 0.0, 0.0), p_arr=np.array([1.0, 0.5, 0.0, 0.0]))
    fake = SimpleNamespace(modes=(fake_mode,), box=DEFAULT_BOX)
    with pytest.raises(OffShellField):
        sigma_bose(fake, u)


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
        u = random_jet(rng, n_psi=2, n_delta=2)
        v = random_jet(rng, n_psi=2, n_delta=2)
        s0 = sigma_fermi(u, v)
        i0 = ip_fermi(u, v)
        scale = max(1.0, abs(s0), abs(i0))
        for dt in (0.1, 1.0, 10.0):
            ut = time_translate(u, dt)
            vt = time_translate(v, dt)
            assert sigma_fermi(ut, vt) == pytest.approx(s0, abs=1e-10 * scale)
            assert ip_fermi(ut, vt) == pytest.approx(i0, abs=1e-10 * scale)


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


def test_definiteness_bracket_nonnegative(rng):
    samples = rng.normal(size=(20000, 6)) * 3.0
    vals = definiteness_bracket(samples[:, :3], samples[:, 3:], 1.0)
    assert np.all(vals >= -1e-12)
    # equality only at q = -k
    small = samples[vals < 1e-6]
    assert np.all(np.linalg.norm(small[:, :3] + small[:, 3:], axis=-1) < 1e-2)


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
        assert fermi_conservation_residual(u, v, t=0.3) == 0.0


def test_conservation_residual_nonzero_for_violating_jets(rng):
    u, v = violating_jet_pair(rng)
    assert not pairing_predicates(u, v)["implication_holds"]
    assert abs(fermi_conservation_residual(u, v, t=0.3)) > 1e3


def test_conservation_residual_nonzero_for_opposite_transfers(rng):
    u, v = opposite_transfer_pair(rng)
    assert not pairing_predicates(u, v)["implication_holds"]
    assert abs(fermi_conservation_residual(u, v, t=0.3)) > 1e3


def _reference_bilinear_terms(modes_bra, mat, modes_ket):
    """<w_a(x) | mat w_b(y)> at x0 = y0 = t as a list of (coeff, w, kx, ky),
    meaning coeff e^{i w t} e^{i kx.xvec} e^{i ky.yvec}."""
    out = []
    for a in modes_bra:
        row = np.conj(a.a_arr) @ GAMMA0 @ mat
        for b in modes_ket:
            out.append((complex(row @ b.a_arr), a.k0 - b.k0, -a.kvec_arr, b.kvec_arr))
    return out


def _reference_d_terms(jet, mat, sign):
    plus = _reference_bilinear_terms(jet.delta_psi, mat, jet.psi)
    other = _reference_bilinear_terms(jet.psi, mat, jet.delta_psi)
    return plus + [(sign * c, w, kx, ky) for c, w, kx, ky in other]


def reference_conservation_residual(jet_u, jet_v, t=0.0):
    """Term-by-term evaluation of fermi_conservation_residual: a loop over
    every pair of exponential terms of the two jets' bilinears, for each
    (alpha, beta), chirality and contraction, with float momenta.

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
                            w_hat = _box_quadrupole_hat(n_key, box)
                            term = (
                                -0.5 * (1j * ww) * cc * np.exp(1j * ww * t)
                                * box**3 * w_hat[alpha - 1, beta - 1]
                            )
                            total += term
                            scale += abs(term)
    return float(total.real), scale


def _jet_at(rng, psi_ks, delta_ks):
    psi = tuple(random_dirac_mode(rng, -1, kvec=k) for k in psi_ks)
    delta = tuple(random_dirac_mode(rng, 1, kvec=k) for k in delta_ks)
    return FermionicJet(psi, delta, 1.0)


def _dense_pair(rng, n):
    """Two jets with n modes per side drawn from a pool of n + 1 lattice
    momenta, so that equal and opposite momentum transfers between them
    are frequent."""
    pool = [random_lattice_vector(rng, DEFAULT_BOX, max_index=1) for _ in range(n + 1)]

    def jet():
        idx = rng.integers(0, n + 1, size=2 * n)
        return _jet_at(rng, [pool[i] for i in idx[:n]], [pool[i] for i in idx[n:]])

    return jet(), jet()


def test_conservation_residual_matches_reference(rng):
    cases = []
    for n in (1, 2, 3):
        pair = [random_jet(rng, n_psi=n, n_delta=n) for _ in range(2)]
        cases.append(("random", *pair))
        cases += [("dense", *_dense_pair(rng, n)) for _ in range(2)]
    cases.append(("matched", *matched_jet_pair(rng)))
    cases.append(("violating", *violating_jet_pair(rng)))
    cases.append(("opposite", *opposite_transfer_pair(rng)))
    # the residual reads the box from the jets
    cases.append(("violating, box 10", *violating_jet_pair(rng, box=10.0)))
    nonzero = set()
    for name, u, v in cases:
        for t in (0.0, 0.3):
            want, scale = reference_conservation_residual(u, v, t)
            got = fermi_conservation_residual(u, v, t)
            assert abs(got - want) <= 1e-12 * scale, name
            if want != 0.0:
                nonzero.add(name)
    # the comparison is not between zeros only
    assert nonzero >= {"dense", "violating", "opposite", "violating, box 10"}


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
    """Lattice momenta of n psi and n delta_psi modes whose n^2 transfers
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
        scale = 2.0 * np.pi / DEFAULT_BOX
        return [scale * np.array(p, dtype=float) for p in psi], [
            scale * np.array(d, dtype=float) for d in delta
        ]


def test_conservation_residual_matched_at_16_modes(rng):
    psi_ks, delta_ks = _distinct_transfer_family(rng, 16, 16)
    u, v = _jet_at(rng, psi_ks, delta_ks), _jet_at(rng, psi_ks, delta_ks)
    assert pairing_predicates(u, v)["implication_holds"]
    start = time.perf_counter()
    assert fermi_conservation_residual(u, v, t=0.3) == 0.0
    assert time.perf_counter() - start < 2.0


def test_cube_spin_rotation_group():
    mats = cube_spin_rotations()
    assert len(mats) == 48
    # closed under multiplication
    keys = {tuple(np.round(m.ravel(), 8)) for m in mats}
    a, b = mats[3], mats[7]
    assert tuple(np.round((a @ b).ravel(), 8)) in keys
    # each is unitary and block-diagonal
    for m in mats[:8]:
        assert np.allclose(m @ m.conj().T, np.eye(4), atol=1e-12)
        assert np.allclose(m[:2, 2:], 0.0)


def test_spherical_symmetrization_kills_quadrupole(rng):
    # rest-frame jets summed over the spinor cube group have a spatial
    # J-block proportional to the identity, so any trace-free contraction
    # vanishes
    def rest_jet():
        psi = (random_dirac_mode(rng, -1, kvec=np.zeros(3)),)
        delta = (random_dirac_mode(rng, 1, kvec=np.zeros(3)),)
        return FermionicJet(psi, delta, 1.0)

    u0, v0 = rest_jet(), rest_jet()
    x = np.array([0.1, 0.4, -0.2, 0.9])
    y = np.array([0.1, -0.3, 0.8, 0.2])
    xi = y[1:] - x[1:]

    def rotate(jet, r):
        def rot_mode(mode):
            return DiracMode(mode.shell, mode.kvec, tuple(r @ mode.a_arr), mode.m)

        return FermionicJet(
            tuple(rot_mode(m) for m in jet.psi),
            tuple(rot_mode(m) for m in jet.delta_psi),
            jet.m,
        )

    total = np.zeros((4, 4))
    singles = []
    for r in cube_spin_rotations():
        j = jtensor_components(rotate(u0, r), rotate(v0, r), x, y)
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


def test_support_check_zero_on_shell(rng):
    for _ in range(20):
        jet = random_jet(rng, n_psi=2, n_delta=2)
        assert current_sli_support_check(list(jet.psi) + list(jet.delta_psi)) == 0.0


def test_support_check_flags_spacelike_mode(rng):
    jet = random_jet(rng)
    fake = SimpleNamespace(
        k0=0.5, kvec_arr=np.array([2.0, 0.0, 0.0]), a_arr=np.ones(4, dtype=complex)
    )
    modes = list(jet.psi) + list(jet.delta_psi) + [fake]
    assert current_sli_support_check(modes) > 0.1


def test_time_average_identity_gaussian():
    lhs, rhs = time_average_identity_check(
        lambda s: s * np.exp(-s * s), t_list=(10.0, 50.0, 100.0), s_max=12.0
    )
    assert lhs == pytest.approx(np.sqrt(np.pi) / 4.0, abs=1e-12)
    for r in rhs:
        assert r == pytest.approx(lhs, abs=1e-12)


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
