import time

import numpy as np
import pytest

from lightcone.convolution import (
    ShellIntegralQuery,
    conv_K0_shell,
    conv_K0_shell_oracle,
    conv_masscone_shell,
    conv_masscone_shell_oracle,
    conv_omega_scaling,
)
from lightcone.errors import LightconeError, OutsideUpperCone, SpacelikeQ


def test_anchor_value():
    q = ShellIntegralQuery((2.0, 0.0, 0.0, 0.0), 1.0)
    assert conv_K0_shell(q) == pytest.approx(3.0 / (128.0 * np.pi**3), abs=1e-14)


def test_sign_odd_in_q0():
    q_up = ShellIntegralQuery((2.0, 0.5, 0.0, 0.0), 1.0)
    q_dn = ShellIntegralQuery((-2.0, 0.5, 0.0, 0.0), 1.0)
    assert conv_K0_shell(q_up) == pytest.approx(-conv_K0_shell(q_dn), abs=1e-15)


def test_weight_function_argument():
    h = lambda p: 1.0 + p[0] ** 2
    q = ShellIntegralQuery((2.0, 0.0, 0.0, 0.0), 1.0, h)
    # h is evaluated at -q
    assert conv_K0_shell(q) == pytest.approx(5.0 * 3.0 / (128.0 * np.pi**3), abs=1e-13)


def test_spacelike_rejected():
    with pytest.raises(SpacelikeQ):
        conv_K0_shell(ShellIntegralQuery((0.5, 1.0, 0.0, 0.0), 1.0))


def test_k0_shell_oracle_agreement(rng):
    for _ in range(40):
        big_omega = float(rng.uniform(1.2, 6.0) * rng.choice([-1.0, 1.0]))
        closed = conv_K0_shell(ShellIntegralQuery((big_omega, 0.0, 0.0, 0.0), 1.0))
        oracle = conv_K0_shell_oracle(big_omega, 1.0)
        assert abs(closed - oracle) <= 1e-10 * abs(closed)


@pytest.mark.parametrize("big_omega, m", [(np.nan, 1.0), (2.0, np.nan), (np.inf, 1.0), (2.0, np.inf)])
def test_k0_shell_oracle_rejects_non_finite_input(big_omega, m):
    start = time.perf_counter()
    with pytest.raises(LightconeError):
        conv_K0_shell_oracle(big_omega, m)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("big_omega", [1e16, 1e150])
def test_k0_shell_oracle_raises_on_vanishing_jacobian(big_omega):
    # the central difference at step 1e-3 rounds to zero this far out
    with pytest.raises(LightconeError):
        conv_K0_shell_oracle(big_omega, 1.0)


def test_masscone_oracle_agreement(rng):
    for _ in range(40):
        qvec = rng.uniform(-1.0, 1.0, size=3)
        qn = float(np.linalg.norm(qvec))
        shell = float(np.sqrt(qn * qn + 1.0))
        q0 = float(rng.uniform(shell + 0.1, shell + 4.0))
        query = ShellIntegralQuery((q0, *qvec), 1.0)
        closed = conv_masscone_shell(query)
        oracle = conv_masscone_shell_oracle(query)
        assert abs(closed - oracle) <= 1e-10 * max(1e-6, abs(closed))


def test_masscone_zero_spatial_limit():
    lim = conv_masscone_shell(ShellIntegralQuery((2.0, 1e-8, 0.0, 0.0), 1.0))
    exact = conv_masscone_shell(ShellIntegralQuery((2.0, 0.0, 0.0, 0.0), 1.0))
    assert lim == pytest.approx(exact, rel=1e-8)


def test_masscone_outside_cone_rejected():
    with pytest.raises(OutsideUpperCone):
        conv_masscone_shell(ShellIntegralQuery((-2.0, 0.0, 0.0, 0.0), 1.0))
    with pytest.raises(OutsideUpperCone):
        conv_masscone_shell(ShellIntegralQuery((0.5, 1.0, 0.0, 0.0), 1.0))


def _shell_sequence(m=1.0, qn=0.5):
    eps = np.geomspace(1e-3, 1e-1, 8)
    return [(float(np.sqrt(m * m + qn * qn + e)), qn, 0.0, 0.0) for e in eps]


def test_omega_weighted_scaling_exponent():
    slope = conv_omega_scaling(_shell_sequence(), 1.0, weighted=True)
    assert slope >= 2.9


def test_bracket_scaling_exponent():
    slope = conv_omega_scaling(_shell_sequence(), 1.0, weighted=False)
    assert 1.9 <= slope <= 2.1
