import numpy as np
import pytest

from lightcone import kernels
from lightcone.errors import (
    OnLightCone,
    QuadratureNotConverged,
    TooCloseToSingularSet,
    UnsupportedKernel,
    ZeroMomentum,
)
from lightcone.kernels import (
    KERNEL_IDS,
    PARITY,
    ConeRegion,
    KernelHat,
    classify,
    et_zm_split,
    eval_hat,
    eval_hat_tensor,
    harmonicity_residual,
    homogeneity_check,
    k0hat_shell_ratio,
    kernel_table,
    oracle_ratio,
    radial_fourier,
)

# number of spatial indices carried by the tensor ids; eval_hat returns
# their scalar base, whose omega-parity differs from the full value by
# one khat sign flip per index under p -> -p
TENSOR_INDEX_COUNT = {"XiK0_over_t3": 1, "XiXiK0_over_t4": 2, "XiXiDelta_over_t3": 2}

# ids whose scalar closed form is annihilated by the wave operator in the
# region sampled (XiXiK0_over_t4 only outside the cones)
HARMONIC_SAMPLES = {
    "IK0_over_t": ((0.4, 1.3), (0.2, 2.1)),
    "IK0_over_t2": ((0.4, 1.3), (2.6, 1.2)),
    "Delta_over_t": ((0.4, 1.7), (2.6, 1.2)),
    "Delta_over_t2": ((0.4, 1.7), (2.6, 1.2)),
    "XiK0_over_t3": ((0.4, 1.3), (0.7, 2.0)),
    "XiXiK0_over_t4": ((0.4, 1.3), (0.7, 2.0)),
}


def test_classify_regions():
    assert classify(2.0, 1.0) is ConeRegion.InsideUpper
    assert classify(-2.0, 1.0) is ConeRegion.InsideLower
    assert classify(0.5, 1.0) is ConeRegion.Outside
    assert classify(1.0, 1.0) is ConeRegion.Boundary


def test_unknown_kernel_rejected():
    with pytest.raises(UnsupportedKernel):
        KernelHat("nope")


def test_zero_momentum_rejected():
    with pytest.raises(ZeroMomentum):
        eval_hat(KernelHat("IK0_over_t"), 1.0, 0.0)


def test_log_singular_on_cone():
    with pytest.raises(OnLightCone):
        eval_hat(KernelHat("Delta_over_t"), 1.0, 1.0)


def test_parity_annotations(rng):
    for kid in KERNEL_IDS:
        kern = KernelHat(kid)
        sign = PARITY[kid] * (-1) ** TENSOR_INDEX_COUNT.get(kid, 0)
        for _ in range(100):
            omega = float(rng.uniform(-3.0, 3.0))
            k = float(rng.uniform(0.1, 3.0))
            if abs(abs(omega) - k) < 1e-3:
                continue
            v1 = eval_hat(kern, omega, k)
            v2 = eval_hat(kern, -omega, k)
            assert v1 == pytest.approx(sign * v2, abs=1e-12)


def test_tensor_parity(rng):
    for kid, n_idx in TENSOR_INDEX_COUNT.items():
        kern = KernelHat(kid)
        for _ in range(30):
            omega = float(rng.uniform(-3.0, 3.0))
            kvec = rng.uniform(-2.0, 2.0, size=3)
            k = float(np.linalg.norm(kvec))
            if k < 0.2 or abs(abs(omega) - k) < 1e-2:
                continue
            for a in (1, 2, 3):
                idx = (a,) if n_idx == 1 else (a, 2)
                v1 = eval_hat_tensor(kern, omega, kvec, *idx)
                v2 = eval_hat_tensor(kern, -omega, -kvec, *idx)
                assert v1 == pytest.approx(PARITY[kid] * v2, abs=1e-12)


def test_harmonicity_off_singular_set():
    for kid, points in HARMONIC_SAMPLES.items():
        kern = KernelHat(kid)
        for omega, k in points:
            assert abs(harmonicity_residual(kern, omega, k)) < 1e-4


def test_harmonicity_residual_is_second_order():
    kern = KernelHat("Delta_over_t")
    r1 = abs(harmonicity_residual(kern, 0.4, 1.7, h=2e-3))
    r2 = abs(harmonicity_residual(kern, 0.4, 1.7, h=1e-3))
    # O(h^2): quartering h^2 reduces the residual accordingly (roundoff floor)
    assert r2 < 0.5 * r1 + 1e-8


def test_xixi_base_not_harmonic_inside():
    # inside the cones the scalar base of XiXiK0_over_t4 has residual -sign
    kern = KernelHat("XiXiK0_over_t4")
    assert harmonicity_residual(kern, 2.5, 1.0) == pytest.approx(-1.0, abs=1e-5)
    assert harmonicity_residual(kern, -2.5, 1.0) == pytest.approx(1.0, abs=1e-5)


def test_harmonicity_guards_singular_set():
    with pytest.raises(TooCloseToSingularSet):
        harmonicity_residual(KernelHat("Delta_over_t"), 1.0005, 1.0)


def test_homogeneity_of_tensor_forms():
    for kid in ("XiXiDelta_over_t3", "XiXiK0_over_t4"):
        kern = KernelHat(kid)
        for omega, k in ((0.4, 1.3), (2.4, 1.1)):
            assert homogeneity_check(kern, omega, k, 1.7) < 1e-10


def test_et_zm_split_pointwise(rng):
    for source, parts in (("IK0_over_t2", ("K0_et", "K0_zm")), ("IK0_over_t", ("K0c_et", "K0c_zm"))):
        kern = KernelHat(source)
        k_et, k_zm = et_zm_split(kern)
        assert (k_et.id, k_zm.id) == parts
        for _ in range(50):
            omega = float(rng.uniform(-3.0, 3.0))
            k = float(rng.uniform(0.1, 3.0))
            if abs(abs(omega) - k) < 1e-3:
                continue
            total = eval_hat(k_et, omega, k) + eval_hat(k_zm, omega, k)
            assert total == pytest.approx(eval_hat(kern, omega, k), abs=1e-12)


def test_zm_supported_in_closed_cones():
    for kid in ("K0_zm", "K0c_zm"):
        kern = KernelHat(kid)
        for omega, k in ((0.3, 1.0), (-0.9, 1.2)):
            assert eval_hat(kern, omega, k) == 0.0


def test_oracle_ratio_constants():
    # the mollified position-space oracle reproduces each closed form up to
    # one global constant: -2 pi^2 for the 1/t kernels, -2 pi for the
    # log-derivative kernel
    for kid, point, const in (
        ("IK0_over_t", (0.4, 1.3), -2.0 * np.pi**2),
        ("IK0_over_t2", (2.2, 0.9), -2.0 * np.pi**2),
        ("Delta_over_t", (0.4, 1.3), -2.0 * np.pi),
    ):
        ratio = oracle_ratio(kid, *point)
        assert abs(ratio - const) < 0.01 * abs(const)


def test_k0hat_shell_ratio_constant():
    for omega, k in ((1.3, 1.3), (0.9, 0.9)):
        ratio = k0hat_shell_ratio(omega, k)
        assert abs(ratio - (-2.0 * np.pi**2)) < 0.01 * 2.0 * np.pi**2


def _gaussian_4d(t, r):
    return np.exp(-(t**2 + r**2) / 2.0)


def test_radial_fourier_guard_passes_on_a_resolved_grid():
    # the transform of exp(-(t^2 + r^2)/2) is (2 pi)^2 exp(-(omega^2 + k^2)/2)
    for omega, k in ((0.3, 0.7), (1.2, 0.4), (2.0, 1.5)):
        value = radial_fourier(_gaussian_4d, omega, k, grid={"t_max": 12.0}, check=True)
        exact = (2.0 * np.pi) ** 2 * np.exp(-(omega**2 + k**2) / 2.0)
        assert abs(value - exact) <= 1e-12 * exact


def test_radial_fourier_guard_rejects_an_unresolved_grid():
    # at the default t_max = 120 the 40 r-nodes on [0, t_max] miss the
    # Gaussian, and the twofold refinement moves the value by about 4e-2
    with pytest.raises(QuadratureNotConverged):
        radial_fourier(_gaussian_4d, 0.3, 0.7, check=True)


def test_kernel_table_rows():
    rows = kernel_table("IK0_over_t2", [0.5, 2.0], [1.0])
    assert rows[0][:3] == (0.5, 1.0, "outside")
    assert rows[1][:3] == (2.0, 1.0, "inside_upper")
    assert kernel_table("IK0_over_t2", [], [1.0]) == []
