import json

import numpy as np
import pytest

from conftest import (
    opposite_transfer_pair,
    random_dirac_mode,
    random_maxwell_mode,
    violating_jet_pair,
)
from lightcone.clifford import minkowski, slash
from lightcone.errors import ConfigInvalid, ConfigMalformed, InvalidMode, ShellViolation
from lightcone.fields import (
    DEFAULT_BOX,
    DiracMode,
    FermionicJet,
    MaxwellField,
    MaxwellMode,
    dirac_basis,
    field_tensor_hat,
    load_config,
    pairing_predicates,
    time_translate,
)


def test_maxwell_mode_validation():
    MaxwellMode((1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0))
    with pytest.raises(InvalidMode):
        MaxwellMode((1.0, 0.5, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0))  # off shell
    with pytest.raises(InvalidMode):
        MaxwellMode((1.0, 1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))  # gauge violated
    with pytest.raises(InvalidMode):
        MaxwellMode((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0))  # zero momentum


def test_field_tensor_properties(rng):
    for _ in range(20):
        mode = random_maxwell_mode(rng)
        f = field_tensor_hat(mode.eps_arr, mode.p_arr)
        assert np.allclose(f, -f.T)
        # F_{jk} p^k = 0 by the null and Lorenz conditions
        assert np.allclose(f @ mode.p_arr, 0.0, atol=1e-9)


def test_box_quantization_enforced():
    mode = MaxwellMode((1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0))
    with pytest.raises(InvalidMode):
        MaxwellField((mode,), box=10.0)  # 1 * 10 / 2pi is not an integer
    MaxwellField((mode,), box=2.0 * np.pi)


def test_jet_keeps_box_and_lattice_indices(rng):
    box = 10.0
    unit = 2.0 * np.pi / box
    lower = random_dirac_mode(rng, -1, box, kvec=unit * np.array([2.0, 0.0, -1.0]))
    upper = random_dirac_mode(rng, 1, box, kvec=unit * np.array([0.0, 3.0, 0.0]))
    jet = FermionicJet((lower,), (upper,), 1.0, box)
    assert jet.box == box
    assert jet.psi_n == ((2, 0, -1),)
    assert jet.delta_psi_n == ((0, 3, 0),)
    # n * box / (2 pi) misses this index by 1.9e-9 after the round trip
    far = random_dirac_mode(rng, 1, box, kvec=2.0 * np.pi * np.array([9000014, 0, 0]) / box)
    assert FermionicJet((lower,), (far,), 1.0, box).delta_psi_n == ((9000014, 0, 0),)
    # the same modes are off the lattice of the default box
    with pytest.raises(InvalidMode):
        FermionicJet((lower,), (upper,), 1.0)
    with pytest.raises(InvalidMode):
        FermionicJet((lower,), (upper,), 1.0, 0.0)
    with pytest.raises(InvalidMode):
        FermionicJet((), (), 1.0, -1.0)


def test_terms_include_conjugates(rng):
    mode = random_maxwell_mode(rng)
    field = MaxwellField((mode,), DEFAULT_BOX)
    terms = field.terms()
    assert len(terms) == 2
    (n1, e1, p1), (n2, e2, p2) = terms
    assert np.array_equal(n2, -n1)
    assert np.allclose(p2, -p1)
    assert np.allclose(e2, np.conj(e1))


def test_dirac_mode_on_shell(rng):
    for shell in (1, -1):
        mode = random_dirac_mode(rng, shell)
        k = np.concatenate(([mode.k0], mode.kvec_arr))
        assert np.allclose((slash(k) - mode.m * np.eye(4)) @ mode.a_arr, 0.0, atol=1e-9)
        assert minkowski(k, k) == pytest.approx(mode.m**2, abs=1e-9)


def test_dirac_mode_rejects_off_shell():
    # at rest the upper shell is spanned by the first two spinor components
    with pytest.raises(InvalidMode):
        DiracMode(1, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), 1.0)
    DiracMode(1, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), 1.0)


def test_dirac_mode_accepts_exact_spinor_far_out():
    # residual 1.9e-9 from roundoff alone at |k| = 2 pi 3e7 / 10
    kvec = 2.0 * np.pi * np.array([30000000.0, 0.0, 0.0]) / 10.0
    for a in dirac_basis(1, kvec, 1.0):
        DiracMode(1, tuple(kvec), tuple(a), 1.0)


def test_dirac_basis_orthonormal(rng):
    for shell in (1, -1):
        kvec = rng.normal(size=3)
        b = dirac_basis(shell, kvec, 1.0)
        gram = np.array([[np.vdot(x, y) for y in b] for x in b])
        assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_dirac_mode_plane_wave_phase(rng):
    mode = random_dirac_mode(rng, 1)
    x = np.array([0.7, 1.0, -2.0, 0.5])
    expected = mode.a_arr * np.exp(
        -1j * (mode.k0 * x[0] - mode.kvec_arr @ x[1:])
    )
    assert np.allclose(mode.at(x), expected)


def test_jet_shell_constraints(rng):
    upper = random_dirac_mode(rng, 1)
    lower = random_dirac_mode(rng, -1)
    FermionicJet((lower,), (upper,), 1.0)
    with pytest.raises(ShellViolation):
        FermionicJet((upper,), (upper,), 1.0)
    with pytest.raises(ShellViolation):
        FermionicJet((lower,), (lower,), 1.0)


def test_pairing_predicates(rng):
    ju, jv = violating_jet_pair(rng)
    report = pairing_predicates(ju, jv)
    assert len(report["quadruples"]) == 1
    assert len(report["flagged"]) == 1
    assert not report["implication_holds"]
    # a jet paired with itself conserves trivially
    self_report = pairing_predicates(ju, ju)
    assert self_report["implication_holds"]


def test_pairing_predicates_flags_opposite_transfers(rng):
    ju, jv = opposite_transfer_pair(rng)
    report = pairing_predicates(ju, jv)
    # four equal transfers (each mode pair with itself) and four opposite
    assert len(report["quadruples"]) == 8
    assert len(report["flagged"]) == 4
    for du, pu, dv, pv in report["flagged"]:
        assert np.allclose(du.kvec_arr - pu.kvec_arr, -(dv.kvec_arr - pv.kvec_arr))
    assert not report["implication_holds"]


def test_time_translation_phases(rng):
    mode = random_dirac_mode(rng, 1)
    dt = 0.7
    moved = time_translate(mode, dt)
    assert np.allclose(moved.a_arr, mode.a_arr * np.exp(-1j * mode.k0 * dt))
    mmode = random_maxwell_mode(rng)
    mmoved = time_translate(mmode, dt)
    assert np.allclose(mmoved.eps_arr, mmode.eps_arr * np.exp(-1j * mmode.p[0] * dt))
    with pytest.raises(TypeError):
        time_translate("not a field", 1.0)


def _sample_config():
    box = DEFAULT_BOX
    k = 2.0 * np.pi / box
    return {
        "box": box,
        "mass": 1.0,
        "maxwell": [
            {
                "p": [k, k, 0.0, 0.0],
                "eps_re": [0.0, 0.0, 1.0, 0.0],
                "eps_im": [0.0, 0.0, 0.0, 1.0],
            }
        ],
        "jets": [
            {
                "psi": [
                    {
                        "shell": -1,
                        "n": [0, 0, 0],
                        "a_re": [0.0, 0.0, 1.0, 0.0],
                        "a_im": [0.0] * 4,
                    }
                ],
                "delta_psi": [
                    {
                        "shell": 1,
                        "n": [0, 0, 0],
                        "a_re": [1.0, 0.0, 0.0, 0.0],
                        "a_im": [0.0] * 4,
                    }
                ],
            }
        ],
    }


def test_load_config_roundtrip(tmp_path):
    cfg = _sample_config()
    box, mass, maxwell_fields, jets = load_config(cfg)
    assert box == pytest.approx(DEFAULT_BOX)
    assert mass == 1.0
    assert len(maxwell_fields) == 1 and len(jets) == 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    box2, _, fields2, jets2 = load_config(str(path))
    assert box2 == box
    assert fields2[0].modes[0].p == maxwell_fields[0].modes[0].p


def test_load_config_rejects_bad_content(tmp_path):
    with pytest.raises(ConfigInvalid):
        load_config({"mass": 1.0})  # missing box
    with pytest.raises(ConfigInvalid):
        load_config({"box": -1.0, "mass": 1.0})
    for key in ("box", "mass"):
        for value in (float("nan"), float("inf")):
            bad_number = _sample_config()
            bad_number[key] = value
            with pytest.raises(ConfigMalformed):
                load_config(bad_number)
    bad = _sample_config()
    bad["maxwell"][0]["p"] = [1.0, 0.5, 0.0, 0.0]
    with pytest.raises(ConfigInvalid):
        load_config(bad)
    for path, value in (
        (("jets", 0, "psi", 0, "n"), [0.5, 0, 0]),
        (("jets", 0, "psi", 0, "n"), [float("nan"), 0, 0]),
        (("jets", 0, "delta_psi", 0, "a_re"), [float("nan"), 0.0, 0.0, 0.0]),
        (("jets", 0, "delta_psi", 0, "a_im"), [float("inf"), 0.0, 0.0, 0.0]),
        (("maxwell", 0, "p"), [float("nan"), 1.0, 0.0, 0.0]),
        (("maxwell", 0, "eps_im"), [0.0, 0.0, float("inf"), 0.0]),
    ):
        bad_mode = _sample_config()
        entry = bad_mode
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        with pytest.raises(ConfigMalformed):
            load_config(bad_mode)
    bad2 = _sample_config()
    bad2["jets"][0]["psi"][0]["shell"] = 1
    with pytest.raises(ConfigInvalid):
        load_config(bad2)
    with pytest.raises(ConfigInvalid):
        load_config(str(tmp_path / "missing.json"))
