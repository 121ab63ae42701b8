import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightcone import clifford
from lightcone.clifford import (
    CHI_L,
    CHI_R,
    ETA,
    GAMMA,
    GAMMA0,
    GAMMA5,
    anticomm_trace_equiv,
    chiral_jet,
    closed_chain_projectors,
    conscond_check,
    minkowski,
    projector_ratio_constant,
    sigma_jk,
    slash,
    spin_adjoint,
    spin_inner,
)
from lightcone.errors import ChiralityViolated, DegenerateChain

finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
complex_xi = st.tuples(*([st.tuples(finite, finite)] * 4)).map(
    lambda t: np.array([re + 1j * im for re, im in t])
)


def test_clifford_relations_exact():
    for j in range(4):
        for k in range(4):
            anti = GAMMA[j] @ GAMMA[k] + GAMMA[k] @ GAMMA[j]
            assert np.array_equal(anti, 2.0 * ETA[j, k] * np.eye(4))


def test_gamma5_properties():
    assert np.allclose(GAMMA5 @ GAMMA5, np.eye(4))
    for g in GAMMA:
        assert np.allclose(GAMMA5 @ g + g @ GAMMA5, 0.0)
    assert np.allclose(CHI_L + CHI_R, np.eye(4))
    assert np.allclose(CHI_L @ CHI_R, 0.0)
    assert np.allclose(CHI_L @ CHI_L, CHI_L)


def test_spin_inner_signature():
    # the spin scalar product has signature (2, 2)
    eigs = np.sort(np.linalg.eigvalsh(GAMMA0))
    assert np.allclose(eigs, [-1.0, -1.0, 1.0, 1.0])
    e0 = np.eye(4)[0]
    e2 = np.eye(4)[2]
    assert spin_inner(e0, e0) == pytest.approx(1.0)
    assert spin_inner(e2, e2) == pytest.approx(-1.0)


def test_gammas_self_adjoint_in_spin_product():
    for g in GAMMA + [1j * GAMMA5]:
        assert np.allclose(spin_adjoint(g), g)
    for a in (1, 2, 3):
        assert np.allclose(spin_adjoint(sigma_jk(0, a)), sigma_jk(0, a))


def test_slash_squares_to_minkowski_norm():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=4)
        assert np.allclose(slash(v) @ slash(v), minkowski(v, v) * np.eye(4))


@settings(max_examples=60, deadline=None)
@given(complex_xi)
def test_projector_properties(xi):
    try:
        f_plus, f_minus, d = closed_chain_projectors(xi)
    except DegenerateChain:
        return
    assert np.allclose(f_plus + f_minus, np.eye(4), atol=1e-9)
    assert np.allclose(f_plus @ f_plus, f_plus, atol=1e-8)
    assert np.allclose(f_minus @ f_minus, f_minus, atol=1e-8)
    assert np.allclose(f_plus @ f_minus, 0.0, atol=1e-8)


# a null xi: xi^2 = 0 with a nondegenerate chain, where no finite ratio exists
NULL_XI = np.array([1.0, 1.0, 1.0j, 1.0])


@settings(max_examples=60, deadline=None)
@given(complex_xi)
@example(NULL_XI)
def test_projector_ratio_relation(xi):
    try:
        _, f_minus, _ = closed_chain_projectors(xi)
        c1, c2 = projector_ratio_constant(xi)
    except DegenerateChain:
        return
    assert c1 == pytest.approx(c2, abs=1e-8, rel=1e-8)
    lhs = f_minus @ slash(xi)
    rhs = c1 * (f_minus @ slash(np.conj(xi)))
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_projector_ratio_raises_at_null_xi():
    assert minkowski(NULL_XI, NULL_XI) == 0.0
    closed_chain_projectors(NULL_XI)  # the chain itself is nondegenerate
    with pytest.raises(DegenerateChain):
        projector_ratio_constant(NULL_XI)


def test_real_xi_degenerates():
    with pytest.raises(DegenerateChain):
        closed_chain_projectors(np.array([1.0, 0.3, -0.2, 0.9]))


def test_chiral_jet_satisfies_trace_conditions(rng):
    for _ in range(20):
        sign = int(rng.choice([-1, 1]))
        jet = chiral_jet(
            rng.normal() + 1j * rng.normal(),
            rng.normal() + 1j * rng.normal(),
            rng.normal(size=3) + 1j * rng.normal(size=3),
            rng.normal() + 1j * rng.normal(),
            rng.normal() + 1j * rng.normal(),
            sign,
        )
        assert conscond_check(jet, sign, 1)
        assert conscond_check(jet, sign, -1)
        lhs, rhs = anticomm_trace_equiv(jet, spin_adjoint(jet), sign)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_non_chiral_jet_detected(rng):
    bad = GAMMA[1] @ GAMMA[2] + 0.3 * GAMMA[1]
    with pytest.raises(ChiralityViolated):
        anticomm_trace_equiv(bad, spin_adjoint(bad), 1)


def test_wrong_sign_detected(rng):
    jet = chiral_jet(0.3 + 0.1j, 0.2, np.array([1.0, 0.5, -0.2]), 0.1, 0.7, 1)
    assert not conscond_check(jet, -1, 1)
