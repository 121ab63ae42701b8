import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ratio_by_least_squares
from lightcone import checks, clifford
from lightcone.clifford import (
    CHI_L,
    CHI_R,
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
    assert checks.clifford_relations_residual() == 0.0


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
        residuals = checks.projector_residuals(xi)
    except DegenerateChain:
        return
    assert residuals["complete"] <= 1e-9
    assert max(residuals.values()) <= 1e-8


# a null xi: xi^2 = 0 with a nondegenerate chain, where no finite ratio exists
NULL_XI = np.array([1.0, 1.0, 1.0j, 1.0])
# near-null xi with <xi, xibar> < 0, where the form 2 xi^2 / (d + 2<xi, xibar>)
# cancels: the two forms of c differed there by 9e-5 relative
NEAR_NULL_XI = np.array([1.0, 1.0, 1.0j, 1.0 + 1e-6])
# nearer to null, |c| = 1.3e8: roundoff in F_minus xibar_slash, times c,
# put c F_minus xibar_slash 3e-8 away from F_minus xi_slash
UNRESOLVED_XI = np.array([1.0j, 2.0j, 2.0, 5.96046448e-08 + 1.0j])


@settings(max_examples=60, deadline=None)
@given(complex_xi)
@example(NULL_XI)
@example(NEAR_NULL_XI)
@example(UNRESOLVED_XI)
def test_projector_ratio_relation(xi):
    try:
        residual = checks.projector_ratio_residual(xi)
    except DegenerateChain:
        return
    assert projector_ratio_constant(xi) == pytest.approx(ratio_by_least_squares(xi), abs=1e-8, rel=1e-8)
    # RATIO_RTOL bounds |c| by 4.5e6, and with it the roundoff c carries
    # into the relation: 2.7e-10 at NEAR_NULL_XI, where |c| = 2e6
    assert residual <= 1e-8


def test_projector_ratio_raises_at_null_xi():
    assert minkowski(NULL_XI, NULL_XI) == 0.0
    closed_chain_projectors(NULL_XI)  # the chain itself is nondegenerate
    with pytest.raises(DegenerateChain):
        projector_ratio_constant(NULL_XI)


def test_projector_ratio_raises_where_c_is_not_attainable():
    # eps |c| above RATIO_RTOL: c carries a relative error of about 1e-8
    closed_chain_projectors(UNRESOLVED_XI)
    with pytest.raises(DegenerateChain):
        projector_ratio_constant(UNRESOLVED_XI)
    # NEAR_NULL_XI, with |c| = 2e6, is still inside the guard
    assert np.finfo(float).eps * abs(projector_ratio_constant(NEAR_NULL_XI)) <= clifford.RATIO_RTOL


def test_real_xi_degenerates():
    with pytest.raises(DegenerateChain):
        closed_chain_projectors(np.array([1.0, 0.3, -0.2, 0.9]))


def test_non_chiral_jet_detected(rng):
    bad = GAMMA[1] @ GAMMA[2] + 0.3 * GAMMA[1]
    with pytest.raises(ChiralityViolated):
        anticomm_trace_equiv(bad, spin_adjoint(bad), 1)


def test_wrong_sign_detected(rng):
    jet = chiral_jet(0.3 + 0.1j, 0.2, np.array([1.0, 0.5, -0.2]), 0.1, 0.7, 1)
    assert not conscond_check(jet, -1, 1)
