import time

import numpy as np
import pytest

from lightcone import checks
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
    assert checks.k0_shell_anchor_error() <= 1e-14


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


@pytest.mark.parametrize("big_omega, m", [(np.nan, 1.0), (2.0, np.nan), (np.inf, 1.0), (2.0, np.inf)])
def test_k0_shell_oracle_rejects_non_finite_input(big_omega, m):
    start = time.perf_counter()
    with pytest.raises(LightconeError):
        conv_K0_shell_oracle(big_omega, m)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("big_omega", [1e4, -1e8, 1e10, 1e12])
def test_k0_shell_oracle_raises_on_a_roundoff_dominated_jacobian(big_omega):
    # the central difference at step 1e-3 of terms of size Omega^2 carries a
    # roundoff of about eps Omega / h relative: 1.9e-10 at 1e4, 0.019 at 1e12
    with pytest.raises(LightconeError):
        conv_K0_shell_oracle(big_omega, 1.0)


def test_k0_shell_oracle_agreement_up_to_its_guard():
    for big_omega in (10.0, -30.0, 100.0):
        assert checks.k0_shell_oracle_error(big_omega) <= 1e-10


@pytest.mark.parametrize("big_omega", [1e16, 1e150, 1e154, 1e200])
def test_k0_shell_oracle_raises_on_vanishing_jacobian(big_omega):
    # the central difference at step 1e-3 rounds to zero this far out, and
    # from about 1.34e153 on the square of the root bracket overflows; a
    # numpy Omega of either sign raises the same error, not an overflow warning
    for omega in (big_omega, np.float64(big_omega), np.float64(-big_omega)):
        with pytest.raises(LightconeError):
            conv_K0_shell_oracle(omega, 1.0)


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


@pytest.mark.parametrize("m", [1e-8, 1e-12, 1e-100, 5e-324])
@pytest.mark.parametrize("q", [(2.0, 0.5, 0.0, 0.0), (3.0, 1.0, -1.0, 0.5), (1e6, 3.0, 0.0, 0.0)])
def test_masscone_small_mass(q, m):
    # the log1p argument -2|q| l_max / ((r + |q|)(q0 - |q|)) tends to -1 as
    # m -> 0, and rounds to it at m = 1e-8, q = (2, 0.5, 0, 0)
    query = ShellIntegralQuery(q, m)
    closed = conv_masscone_shell(query)
    assert abs(closed - conv_masscone_shell_oracle(query)) <= 1e-10 * abs(closed)


@pytest.mark.parametrize("q", [(1e8, 0.0, 0.0, 0.0), (1e10, 3.0, 0.0, 0.0), (1e12, 1e6, -2.0, 0.5)])
def test_masscone_oracle_far_out(q):
    # the integrand's structure near l_max has width O(m): a rule not graded
    # toward it was 1e-8 off at q0 = 1e8 while agreeing with its refinement
    query = ShellIntegralQuery(q, 1.0)
    closed = conv_masscone_shell(query)
    assert abs(conv_masscone_shell_oracle(query) - closed) <= 1e-10 * abs(closed)


def test_masscone_zero_spatial_limit():
    lim = conv_masscone_shell(ShellIntegralQuery((2.0, 1e-8, 0.0, 0.0), 1.0))
    exact = conv_masscone_shell(ShellIntegralQuery((2.0, 0.0, 0.0, 0.0), 1.0))
    assert lim == pytest.approx(exact, rel=1e-8)


def test_masscone_outside_cone_rejected():
    for q in (
        (-2.0, 0.0, 0.0, 0.0),
        (0.5, 1.0, 0.0, 0.0),
        # below the mass shell, 0 < q^2 < m^2: q^2 >= m^2 wherever the
        # convolution has support
        (0.9, 0.5, 0.0, 0.0),
        # on the shell, l_max = 0
        (1.0, 0.0, 0.0, 0.0),
        (float(np.sqrt(1.25)), 0.5, 0.0, 0.0),
    ):
        for fn in (conv_masscone_shell, conv_masscone_shell_oracle):
            with pytest.raises(OutsideUpperCone):
                fn(ShellIntegralQuery(q, 1.0))


def _shell_sequence(m=1.0, qn=0.5):
    eps = np.geomspace(1e-3, 1e-1, 8)
    return [(float(np.sqrt(m * m + qn * qn + e)), qn, 0.0, 0.0) for e in eps]


def test_omega_weighted_scaling_exponent():
    slope = conv_omega_scaling(_shell_sequence(), 1.0, weighted=True)
    assert slope >= 2.9


def test_bracket_scaling_exponent():
    slope = conv_omega_scaling(_shell_sequence(), 1.0, weighted=False)
    assert 1.9 <= slope <= 2.1
