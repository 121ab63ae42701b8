from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest

from lightcone import kernels
from lightcone.errors import (
    InvalidWidth,
    NonFiniteMomentum,
    OnLightCone,
    QuadratureNotConverged,
    TooCloseToSingularSet,
    UnsupportedKernel,
    ZeroMomentum,
)
from lightcone.kernels import (
    KERNEL_IDS,
    MOLLIFIED_PARITY,
    ORACLE_ETAS,
    ORACLE_T_DAMP,
    PARITY,
    SHELL_WINDOW,
    TENSOR_INDEX_COUNT,
    ConeRegion,
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
from lightcone.quadrature import gauss_rule

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


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_the_cone_test_is_relative(scale):
    # 1e-10 relatively off the cone, each log id evaluates at every scale,
    # and 1e-13 relatively off it is the Boundary; the absolute test
    # ||omega| - k| <= 1e-12 called the first the Boundary at k <= 1e-3
    # and missed the second from k of about 10 on
    for sign, inside in ((1.0, ConeRegion.InsideUpper), (-1.0, ConeRegion.InsideLower)):
        for q, region in ((1.0 + 1e-10, inside), (1.0 - 1e-10, ConeRegion.Outside)):
            omega = sign * scale * q
            assert classify(omega, scale) is region
            for kid in sorted(kernels.LOG_SINGULAR):
                assert np.isfinite(eval_hat(kid, omega, scale)), (kid, omega, scale)
        assert classify(sign * scale * (1.0 + 1e-13), scale) is ConeRegion.Boundary
        with pytest.raises(OnLightCone):
            eval_hat("Delta_over_t", sign * scale * (1.0 + 1e-13), scale)


NON_FINITE_MOMENTA = pytest.mark.parametrize(
    "w, k",
    [(float("nan"), 1.3), (float("inf"), 1.3), (float("-inf"), 1.3), (0.4, float("nan")), (0.4, float("inf"))],
    ids=["nan-omega", "inf-omega", "-inf-omega", "nan-k", "inf-k"],
)


@NON_FINITE_MOMENTA
def test_classify_rejects_a_non_finite_momentum(w, k):
    with pytest.raises(NonFiniteMomentum):
        classify(w, k)


@NON_FINITE_MOMENTA
def test_eval_hat_rejects_a_non_finite_momentum(w, k):
    # a NaN omega gave IK0_over_t 1/k, K0Hat 0 and Delta_over_t NaN
    for kid in KERNEL_IDS:
        with pytest.raises(NonFiniteMomentum):
            eval_hat(kid, w, k)


@NON_FINITE_MOMENTA
def test_eval_hat_tensor_rejects_a_non_finite_momentum(w, k):
    for kid, n_index in TENSOR_INDEX_COUNT.items():
        with pytest.raises(NonFiniteMomentum):
            eval_hat_tensor(kid, w, [k, 0.0, 0.0], *(1,) * n_index)


def test_unknown_kernel_rejected():
    with pytest.raises(UnsupportedKernel):
        eval_hat("nope", 0.5, 1.0)
    with pytest.raises(UnsupportedKernel):
        eval_hat_tensor("nope", 0.5, [1.0, 0.0, 0.0], 1)
    # even on a grid with no points
    with pytest.raises(UnsupportedKernel):
        kernel_table("nope", [], [])


@pytest.mark.parametrize(
    "kid, index",
    [
        ("XiK0_over_t3", ()),
        ("XiK0_over_t3", (1, 2)),
        ("XiXiK0_over_t4", (1,)),
        ("XiXiDelta_over_t3", (1, 2, 3)),
        ("Delta_over_t", (1,)),
        ("K0Hat", ()),
    ],
)
def test_eval_hat_tensor_takes_one_index_per_tensor_index(kid, index):
    with pytest.raises(UnsupportedKernel):
        eval_hat_tensor(kid, 0.5, [1.0, 0.0, 0.0], *index)


def test_zero_momentum_rejected():
    with pytest.raises(ZeroMomentum):
        eval_hat("IK0_over_t", 1.0, 0.0)


def test_log_singular_on_cone():
    with pytest.raises(OnLightCone):
        eval_hat("Delta_over_t", 1.0, 1.0)


def test_tensor_parity(rng):
    for kid, n_idx in TENSOR_INDEX_COUNT.items():
        for _ in range(30):
            omega = float(rng.uniform(-3.0, 3.0))
            kvec = rng.uniform(-2.0, 2.0, size=3)
            k = float(np.linalg.norm(kvec))
            if k < 0.2 or abs(abs(omega) - k) < 1e-2:
                continue
            for a in (1, 2, 3):
                idx = (a,) if n_idx == 1 else (a, 2)
                v1 = eval_hat_tensor(kid, omega, kvec, *idx)
                v2 = eval_hat_tensor(kid, -omega, -kvec, *idx)
                assert v1 == pytest.approx(PARITY[kid] * v2, abs=1e-12)


def test_harmonicity_off_singular_set():
    for kid, points in HARMONIC_SAMPLES.items():
        for omega, k in points:
            assert abs(harmonicity_residual(kid, omega, k)) < 1e-4


def test_harmonicity_residual_is_second_order():
    r1 = abs(harmonicity_residual("Delta_over_t", 0.4, 1.7, h=2e-3))
    r2 = abs(harmonicity_residual("Delta_over_t", 0.4, 1.7, h=1e-3))
    # O(h^2): quartering h^2 reduces the residual accordingly (roundoff floor)
    assert r2 < 0.5 * r1 + 1e-8


def test_xixi_base_not_harmonic_inside():
    # inside the cones the scalar base of XiXiK0_over_t4 has residual -sign
    assert harmonicity_residual("XiXiK0_over_t4", 2.5, 1.0) == pytest.approx(-1.0, abs=1e-5)
    assert harmonicity_residual("XiXiK0_over_t4", -2.5, 1.0) == pytest.approx(1.0, abs=1e-5)


def test_harmonicity_guards_singular_set():
    with pytest.raises(TooCloseToSingularSet):
        harmonicity_residual("Delta_over_t", 1.0005, 1.0)


def test_homogeneity_of_tensor_forms():
    for kid in ("XiXiDelta_over_t3", "XiXiK0_over_t4"):
        for omega, k in ((0.4, 1.3), (2.4, 1.1)):
            assert homogeneity_check(kid, omega, k, 1.7) < 1e-10


def _base_dk(kid, omega, k, h=5e-3):
    """First and second k-derivatives of eval_hat's base at (omega, k):
    central differences at steps h and h/2, one Richardson step each."""
    f = [eval_hat(kid, omega, k + j * h / 2.0) for j in (-2, -1, 0, 1, 2)]
    d1 = ((f[3] - f[1]) / h * 4.0 - (f[4] - f[0]) / (2.0 * h)) / 3.0
    d2 = ((f[3] - 2.0 * f[2] + f[1]) / (h / 2.0) ** 2 * 4.0 - (f[4] - 2.0 * f[2] + f[0]) / h**2) / 3.0
    return d1, d2


def test_tensor_assembly_matches_k_derivatives_of_the_base():
    # outside the cones: d_a f = khat_a f' for one index (times i), and
    # d_a d_b f = khat_a khat_b f'' + (delta_ab - khat_a khat_b) f'/k for two
    khat = np.array([2.0, -1.0, 2.0]) / 3.0
    for kid, n_idx in TENSOR_INDEX_COUNT.items():
        for omega, k in ((0.4, 1.3), (-1.1, 1.6), (1.5, 1.7)):
            d1, d2 = _base_dk(kid, omega, k)
            for a in (1, 2, 3):
                if n_idx == 1:
                    pairs = [((a,), 1j * khat[a - 1] * d1)]
                else:
                    pairs = [
                        ((a, b), khat[a - 1] * khat[b - 1] * d2 + ((a == b) - khat[a - 1] * khat[b - 1]) * d1 / k)
                        for b in (1, 2, 3)
                    ]
                for idx, expected in pairs:
                    value = eval_hat_tensor(kid, omega, k * khat, *idx)
                    # the difference quotients are good to about 2e-9 here
                    assert abs(value - expected) <= 1e-7 * max(1.0, abs(expected)), (kid, omega, k, idx)


def test_et_zm_split_pointwise(rng):
    for source, parts in (("IK0_over_t2", ("K0_et", "K0_zm")), ("IK0_over_t", ("K0c_et", "K0c_zm"))):
        k_et, k_zm = et_zm_split(source)
        assert (k_et, k_zm) == parts
        for _ in range(50):
            omega = float(rng.uniform(-3.0, 3.0))
            k = float(rng.uniform(0.1, 3.0))
            if abs(abs(omega) - k) < 1e-3:
                continue
            total = eval_hat(k_et, omega, k) + eval_hat(k_zm, omega, k)
            assert total == pytest.approx(eval_hat(source, omega, k), abs=1e-12)


def test_zm_supported_in_closed_cones():
    for kid in ("K0_zm", "K0c_zm"):
        for omega, k in ((0.3, 1.0), (-0.9, 1.2)):
            assert eval_hat(kid, omega, k) == 0.0


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
    # both shells: at the lower one the reference's second Gaussian carries
    # the shell, so a sign slip there flips the ratio to +2 pi^2
    for omega, k in ((1.3, 1.3), (0.9, 0.9), (-1.3, 1.3), (-0.9, 0.9)):
        ratio = k0hat_shell_ratio(omega, k)
        assert abs(ratio - (-2.0 * np.pi**2)) < 0.01 * 2.0 * np.pi**2


def reference_radial_fourier(f, omega, k, t_max, refine, fine=None, r_window=None):
    """The radial transform (4 pi / k) int dt e^{i omega t} int r sin(kr) f dr
    of any f(t, r) on a (t, r) product grid: a ten-node Gauss t-rule on
    panels at most half a period of max(|omega|, k, 1) wide over refine on
    [-t_max, t_max], with, if fine = (hw, dx), a mesh of spacing dx / refine
    on [-hw, hw], times a rule of 40 * refine r-nodes per t-node,
    on [0, t_max] or, given r_window, on |r - |t|| <= r_window cut at
    r = 0.  It makes no use of the shell structure, so it is the
    reference for it."""
    freq = max(abs(omega), k, 1.0)
    npan = int(np.ceil(refine * 4.0 * t_max * freq / (2.0 * np.pi))) + 8
    edges = np.linspace(-t_max, t_max, npan + 1)
    if fine is not None:
        hw, dx = fine
        edges = np.unique(np.concatenate([edges, np.linspace(-hw, hw, int(np.ceil(2.0 * hw / (dx / refine))) + 1)]))
    t, wt = (a.ravel() for a in gauss_rule(edges[:-1], edges[1:], 10))
    if r_window is None:
        r_lo, r_hi = np.zeros_like(t), t_max
    else:
        r_lo, r_hi = np.maximum(np.abs(t) - r_window, 0.0), np.abs(t) + r_window
    r, wr = gauss_rule(r_lo, r_hi, 40 * refine)
    inner = np.sum(wr * r * np.sin(k * r) * f(t[:, None], r), axis=1)
    return (4.0 * np.pi / k) * np.sum(wt * np.exp(1j * omega * t) * inner)


def _gaussian_4d(t, r):
    return np.exp(-(t**2 + r**2) / 2.0)


def test_reference_radial_fourier_exact_on_a_4d_gaussian():
    # the transform of exp(-(t^2 + r^2)/2) is (2 pi)^2 exp(-(omega^2 + k^2)/2)
    for omega, k in ((0.3, 0.7), (1.2, 0.4), (2.0, 1.5)):
        exact = (2.0 * np.pi) ** 2 * np.exp(-(omega**2 + k**2) / 2.0)
        for refine in (1, 2):
            value = reference_radial_fourier(_gaussian_4d, omega, k, 12.0, refine)
            assert abs(value - exact) <= 1e-12 * exact


def _shell_kernel(kid, eta):
    """f(t, r) = g(t, eta) G(r - |t|) / (2 r) of the mollified id kid at
    damping ORACLE_T_DAMP, G the normal density of width eta."""
    return lambda t, r: (
        kernels._time_factor(kid, t, eta, ORACLE_T_DAMP)
        * np.exp(-0.5 * ((r - np.abs(t)) / eta) ** 2)
        / (eta * np.sqrt(2.0 * np.pi))
        / (2.0 * r)
    )


# (omega, k) inside and outside the cones; K0Hat on and off its shell
SHELL_POINTS = {
    "IK0_over_t": ((0.4, 1.3), (2.2, 0.9)),
    "IK0_over_t2": ((0.4, 1.3), (2.2, 0.9)),
    "Delta_over_t": ((0.4, 1.3), (2.2, 0.9)),
    "Delta_over_t2": ((0.4, 1.3), (2.2, 0.9)),
    "K0Hat": ((1.3, 1.3), (0.4, 1.3)),
}


def test_shell_transform_matches_the_2d_reference():
    # the reference runs at refine = 2: ten t-nodes per quarter period and
    # 80 r-nodes per t-node, with its fine mesh out to max(20 eta, 1), since
    # its Gauss panels need it where the 1/t^p factors vary; off its shell
    # K0Hat is exponentially small, so its error is measured against the
    # on-shell magnitude at the same k
    for kid, points in SHELL_POINTS.items():
        for eta in ORACLE_ETAS:
            f = _shell_kernel(kid, eta)
            fine, r_window = (max(20.0 * eta, 1.0), eta / 2.0), SHELL_WINDOW * eta
            refs = [reference_radial_fourier(f, w, k, 6.0 * ORACLE_T_DAMP, 2, fine, r_window) for w, k in points]
            scale = abs(refs[0]) if kid == "K0Hat" else None
            for (w, k), ref in zip(points, refs):
                value = radial_fourier(kid, w, k, eta, ORACLE_T_DAMP)
                assert abs(value - ref) <= 1e-12 * (scale or abs(ref)), (kid, eta, w, k)


def reference_cut_window_sums(a, r_window, k, eta, n):
    """For each a < r_window, the n-point Gauss sum of sin(k r) G(r - a)
    over the window cut at r = 0, [0, a + r_window]: one rule per a, the
    rule on [0, 1] scaled by s = a + r_window."""
    s = a + r_window
    rho, w = gauss_rule(0.0, 1.0, n)
    r = np.multiply.outer(s, rho)
    shell = np.exp(-0.5 * ((r - a[:, None]) / eta) ** 2) * np.sin(k * r)
    return s * (shell @ w) / (eta * np.sqrt(2.0 * np.pi))


def test_window_tails_match_the_per_t_rule():
    # the core |t| < 10 eta, summed as the shared window minus its tail,
    # against an 80-node rule per point on the cut window (refine = 2); all
    # rungs in one call, each rung's points ascending, as radial_fourier
    # hands them over
    rng = np.random.default_rng(5)
    ladder = np.array(ORACLE_ETAS)
    points = [
        np.sort(np.concatenate(([0.0, 1e-12, r_window * (1.0 - 1e-12)], r_window * rng.random(200))))
        for r_window in SHELL_WINDOW * ladder
    ]
    rung = np.repeat(np.arange(len(ladder)), [len(a) for a in points])
    for k in (0.3, 1.3, 3.0):
        values = np.split(kernels._shell_sums(np.concatenate(points), rung, k, ladder)[1], len(ladder))
        for eta, a, value in zip(ladder, points, values):
            ref = reference_cut_window_sums(a, SHELL_WINDOW * eta, k, eta, 80)
            assert np.max(np.abs(value - ref)) <= 1e-13 * np.max(np.abs(ref)), (eta, k)


def test_shell_window_is_the_gaussians_characteristic_function():
    # the window constant A, the integral of e^{iku} G(u) over |u| <= 10
    # eta, is exp(-k^2 eta^2 / 2) less the Gaussian's mass beyond ten
    # widths, 2e-23; core points 0.05 eta apart keep the tails' guard
    for ladder in (np.array(ORACLE_ETAS), np.array(LONG_LADDER)):
        a = np.concatenate([np.linspace(0.0, SHELL_WINDOW * eta, 200, endpoint=False) for eta in ladder])
        rung = np.repeat(np.arange(len(ladder)), 200)
        for k in np.linspace(0.1, 12.0, 35):
            window, _ = kernels._shell_sums(a, rung, k, ladder)
            exact = np.exp(-0.5 * (k * ladder) ** 2)
            assert window.dtype == float
            assert np.max(np.abs(window - exact) / exact) <= 1e-13, (ladder, k)


def test_radial_fourier_guard_passes_on_a_resolved_grid():
    # on its own t-rule the embedded Gauss rule differs from the Kronrod
    # value by at most 4.2e-13 relative, and the window tails from the
    # window's own panels by 2e-16, far inside the guards
    for kid, points in SHELL_POINTS.items():
        for eta in ORACLE_ETAS:
            for w, k in points:
                assert np.isfinite(radial_fourier(kid, w, k, eta, ORACLE_T_DAMP))


def test_radial_fourier_guard_rejects_an_unresolved_grid(monkeypatch):
    # the t-rule without its core meshes; with few t-nodes in the core
    # the window-tails guard fires first in all but the eta = 0.08 case
    # (it reads 1.3e-9 to 4.4e-9), and the t-sum guard reads as below
    cases = (
        # the Kronrod t-panels miss the 1/t^2 kernels' cutoff near t = 0:
        # the embedded Gauss rule differs by 4.6e-3 and 3.8e-2 relative
        ("IK0_over_t2", 1.3, 1.3, 0.02),
        ("Delta_over_t2", 1.3, 1.3, 0.02),
        # and for the 1/|t| kernel by 1.7e-4 to 2.8e-3, while the values
        # are 9.6e-5 to 2.6e-4 off: a guard at 1e-3 would pass two of them
        ("Delta_over_t", 0.4, 1.3, 0.04),
        ("Delta_over_t", 1.3, 1.3, 0.08),
        ("Delta_over_t", 1.3, 1.3, 0.04),
    )
    monkeypatch.setattr(kernels, "_core_mesh", lambda hw, dx, period, t_max: [])
    for kid, omega, k, eta in cases:
        with pytest.raises(QuadratureNotConverged):
            radial_fourier(kid, omega, k, eta, ORACLE_T_DAMP)


def test_radial_fourier_runs_the_refinement_guard(monkeypatch):
    # with a zero tolerance any gap between the Kronrod and Gauss values raises
    monkeypatch.setattr(kernels, "RADIAL_FOURIER_RTOL", 0.0)
    with pytest.raises(QuadratureNotConverged):
        radial_fourier("IK0_over_t", 0.4, 1.3, ORACLE_ETAS[0], ORACLE_T_DAMP)


def _record_time_factor(monkeypatch):
    """Replace kernels._time_factor by a spy; returns the list of its
    (kid, t, eta, t_damp) calls, t and eta broadcast to one shape."""
    calls, real = [], kernels._time_factor

    def record(kid, t, eta, t_damp):
        calls.append((kid, np.array(t), np.broadcast_to(eta, np.shape(t)).copy(), t_damp))
        return real(kid, t, eta, t_damp)

    monkeypatch.setattr(kernels, "_time_factor", record)
    return calls


def test_radial_fourier_calls_g_once_per_sign(monkeypatch):
    # g(t) and g(-t) on the one mirrored node array, nothing more
    calls = _record_time_factor(monkeypatch)
    radial_fourier("IK0_over_t", 0.4, 1.3, ORACLE_ETAS[1], ORACLE_T_DAMP)
    assert len(calls) == 1
    assert np.all(calls[0][1] >= 0.0)


def test_radial_fourier_runs_each_embedded_guard(monkeypatch):
    # the t-sum, the shell window and its tails each check their Kronrod
    # value against the embedded Gauss rule, at RADIAL_FOURIER_RTOL
    checked = []
    real = kernels.converged

    def spy(value, other, rtol, what):
        checked.append((what, rtol))
        return real(value, other, rtol, what)

    monkeypatch.setattr(kernels, "converged", spy)
    radial_fourier("Delta_over_t2", 0.3, 0.9, ORACLE_ETAS[1], ORACLE_T_DAMP)
    assert sorted(checked) == [
        ("radial_fourier", 1e-9),
        ("radial_fourier window", 1e-9),
        ("radial_fourier window tails", 1e-9),
    ]


def test_ladder_matches_one_rung_calls():
    # the ladder shares one t-rule construction, one stacked window rule
    # and the far t-panels, and returns each rung's value as its own
    # one-rung call does, also on a longer ladder with rungs down to 0.005
    for etas in (ORACLE_ETAS, LONG_LADDER):
        for kid, (w, k) in (
            ("IK0_over_t", (0.4, 1.3)),
            ("IK0_over_t2", (2.2, 0.9)),
            ("Delta_over_t", (0.4, 1.3)),
            ("K0Hat", (1.3, 1.3)),
        ):
            ladder = radial_fourier(kid, w, k, etas, ORACLE_T_DAMP)
            assert ladder.shape == (len(etas),)
            for eta, value in zip(etas, ladder):
                single = radial_fourier(kid, w, k, eta, ORACLE_T_DAMP)
                assert abs(value - single) <= 1e-13 * abs(single), (kid, eta)


# a mollifier ladder down to the finest rung the oracles are meant to reach
LONG_LADDER = (0.08, 0.04, 0.02, 0.01, 0.005)


def test_mollified_time_factors_depend_on_eta_only_in_the_core():
    # radial_fourier takes one width, the widest, for the whole ladder on
    # the far t-panels, t >= 10 eta, so g may depend on eta only below that
    t = np.concatenate(([SHELL_WINDOW * max(LONG_LADDER)], np.linspace(0.8, 6.0 * ORACLE_T_DAMP, 2001)))
    for kid in SHELL_POINTS:
        for sign in (1.0, -1.0):
            first = kernels._time_factor(kid, sign * t, LONG_LADDER[0], ORACLE_T_DAMP)
            for eta in LONG_LADDER[1:]:
                value = kernels._time_factor(kid, sign * t, eta, ORACLE_T_DAMP)
                assert value.tobytes() == first.tobytes(), (kid, sign, eta)


def test_ladder_hands_g_each_rungs_near_nodes_and_the_far_nodes_once(monkeypatch):
    # per rung, the nodes below the split are the one-rung call's own, and
    # the nodes above it, the same for every rung, reach g once
    calls = _record_time_factor(monkeypatch)

    def nodes(eta):
        calls.clear()
        radial_fourier("IK0_over_t", 0.4, 1.3, eta, ORACLE_T_DAMP)
        ((_, t, width, _),) = calls
        assert np.all(t >= 0.0)
        return t, width[:, 0]

    ladder, widths = nodes(ORACLE_ETAS)
    singles = [nodes(eta)[0] for eta in ORACLE_ETAS]
    n_far, rest = divmod(sum(len(single) for single in singles) - len(ladder), len(ORACLE_ETAS) - 1)
    assert rest == 0 and n_far > 0
    far = ladder[len(ladder) - n_far :]
    assert np.all(far >= SHELL_WINDOW * max(ORACLE_ETAS))
    start = 0
    for eta, single in zip(ORACLE_ETAS, singles):
        near = ladder[start : start + len(single) - n_far]
        assert np.array_equal(np.concatenate((near, far)), single), eta
        assert np.all(widths[start : start + len(near)] == eta)
        start += len(near)
    assert start == len(ladder) - n_far


@pytest.mark.parametrize(
    "call",
    [
        lambda w, k: radial_fourier("IK0_over_t", w, k, ORACLE_ETAS, ORACLE_T_DAMP),
        lambda w, k: oracle_ratio("IK0_over_t", w, k),
        k0hat_shell_ratio,
    ],
    ids=["radial_fourier", "oracle_ratio", "k0hat_shell_ratio"],
)
@pytest.mark.parametrize("w, k", [(float("nan"), 1.3), (0.4, float("nan"))], ids=["nan-omega", "nan-k"])
def test_oracles_reject_a_nan_momentum(call, w, k):
    with pytest.raises(NonFiniteMomentum):
        call(w, k)


@pytest.mark.parametrize("w, k", [(1.0, float("inf")), (float("inf"), 1.0), (float("-inf"), 1.0)])
def test_k0hat_shell_ratio_rejects_an_infinite_momentum(w, k):
    with pytest.raises(NonFiniteMomentum):
        k0hat_shell_ratio(w, k)


def test_oracle_ratio_rejects_an_infinite_omega():
    # it ended in TooCloseToSingularSet, the closed form read as vanishing
    with pytest.raises(NonFiniteMomentum):
        oracle_ratio("IK0_over_t", float("inf"), 1.3)


@pytest.mark.parametrize(
    "eta",
    [0.0, float("inf"), (), -0.02, float("nan"), (0.08, -0.04), ((0.08, 0.04),)],
    ids=["zero", "inf", "empty", "negative", "nan", "negative-rung", "2d"],
)
def test_radial_fourier_rejects_an_invalid_width(eta):
    with pytest.raises(InvalidWidth):
        radial_fourier("IK0_over_t", 0.4, 1.3, eta, ORACLE_T_DAMP)


@pytest.mark.parametrize("t_damp", [0.0, float("nan"), float("inf"), -1.0], ids=["zero", "nan", "inf", "negative"])
def test_oracle_value_rejects_an_invalid_damping_scale(t_damp):
    # the oracle's damping scale t_damp sets t_max = 6 t_damp: these ended in
    # ZeroDivisionError, ValueError, OverflowError and a misleading
    # QuadratureNotConverged
    with pytest.raises(InvalidWidth):
        radial_fourier("IK0_over_t", 0.4, 1.3, ORACLE_ETAS, t_damp)


@pytest.mark.parametrize(
    "eta, t_damp",
    [
        (ORACLE_ETAS, 0.0),
        (ORACLE_ETAS, float("nan")),
        (ORACLE_ETAS, -5.0 / 6.0),
        (ORACLE_ETAS, 1e308),
        (float("inf"), ORACLE_T_DAMP),
        (5e-324, ORACLE_T_DAMP),
        (-0.04, ORACLE_T_DAMP),
        ((0.08, float("nan"), 0.02), ORACLE_T_DAMP),
        ((0.08, 1e308), ORACLE_T_DAMP),
    ],
    ids=[
        "t_max-zero",
        "t_max-nan",
        "t_max-negative",
        "t_max-overflow",
        "dx-inf",
        "dx-zero",
        "hw-negative",
        "hw-nan-rung",
        "hw-overflow",
    ],
)
def test_radial_fourier_rejects_an_invalid_t_rule(eta, t_damp):
    # the t-rule's lengths t_max = 6 t_damp, and each rung's core hw = 10 eta
    # and half width dx = eta / 2; a t_max of 0, NaN and -5 ended in
    # ZeroDivisionError, ValueError and a misleading QuadratureNotConverged,
    # one of 6e308 overflows.  dx of the least subnormal eta rounds to 0
    with pytest.raises(InvalidWidth):
        radial_fourier("IK0_over_t", 0.4, 1.3, eta, t_damp)


@pytest.mark.parametrize("kid", ["XiK0_over_t3", "K0_et", "nope"])
def test_radial_fourier_rejects_an_id_it_does_not_mollify(kid):
    with pytest.raises(UnsupportedKernel):
        radial_fourier(kid, 0.4, 1.3, ORACLE_ETAS, ORACLE_T_DAMP)


def test_radial_fourier_values_have_their_kernels_parity():
    # radial_fourier(kid, -omega, k) = PARITY[kid] radial_fourier(kid, omega, k);
    # PARITY read +1 for K0Hat, whose transform is odd
    for kid in MOLLIFIED_PARITY:
        for w, k in ((1.3, 1.3), (0.4, 1.3), (2.2, 0.9)):
            value = radial_fourier(kid, w, k, ORACLE_ETAS, ORACLE_T_DAMP)
            mirrored = radial_fourier(kid, -w, k, ORACLE_ETAS, ORACLE_T_DAMP)
            assert np.all(np.abs(mirrored - PARITY[kid] * value) <= 1e-14 * np.abs(value)), (kid, w, k)


def test_mollified_time_factors_have_their_parity_bit_for_bit(monkeypatch):
    # radial_fourier calls g on t >= 0 only and takes g(-t) as parity g(t),
    # so on every node of a ladder down to 0.005, each rung's core nodes
    # at its own width, g(-t) must be parity g(t) to the last bit
    real = kernels._time_factor
    calls = _record_time_factor(monkeypatch)
    for kid, parity in MOLLIFIED_PARITY.items():
        calls.clear()
        radial_fourier(kid, 0.4, 1.3, LONG_LADDER, ORACLE_T_DAMP)
        ((_, t, width, t_damp),) = calls
        assert np.all(t >= 0.0)
        assert real(kid, -t, width, t_damp).tobytes() == (parity * real(kid, t, width, t_damp)).tobytes(), kid


def _clear_rule_caches():
    kernels._window_rule.cache_clear()
    kernels._tail_rule.cache_clear()


# calls served by the cached window and tail rules: the oracle ladder, the
# long ladder, one rung, one wide rung, and a point where
# |omega| + k >= 8 puts coarse t-edges inside the window, so that its core
# nodes, and with them its tail rule, differ from the first call's
CACHED_CALLS = (
    lambda: radial_fourier("IK0_over_t2", 2.2, 0.9, ORACLE_ETAS, ORACLE_T_DAMP),
    lambda: radial_fourier("Delta_over_t", 0.4, 1.3, LONG_LADDER, ORACLE_T_DAMP),
    lambda: radial_fourier("IK0_over_t", 0.4, 1.3, ORACLE_ETAS[1], ORACLE_T_DAMP),
    lambda: radial_fourier("K0Hat", 1.3, 1.3, 0.5, ORACLE_T_DAMP),
    lambda: radial_fourier("IK0_over_t2", 6.5, 2.1, ORACLE_ETAS, ORACLE_T_DAMP),
)


def test_cached_rules_give_the_values_of_fresh_ones():
    fresh = []
    for call in CACHED_CALLS:
        _clear_rule_caches()
        fresh.append(np.asarray(call()).tobytes())
    # the two oracle-ladder calls share a window rule, but not core nodes
    _clear_rule_caches()
    for i in (0, 4):
        assert np.asarray(CACHED_CALLS[i]()).tobytes() == fresh[i], i
    assert (kernels._window_rule.cache_info().misses, kernels._tail_rule.cache_info().misses) == (1, 2)
    for i in (4, 0, 1, 3, 2, 0, 4, 2, 1, 3, 0, 1, 1):
        assert np.asarray(CACHED_CALLS[i]()).tobytes() == fresh[i], i
    assert kernels._window_rule.cache_info().hits > 0 and kernels._tail_rule.cache_info().hits > 0


def test_cached_rules_are_read_only_and_bounded(monkeypatch):
    # every cache in kernels is bounded; its arrays are shared between
    # calls, so none can be written; and both caches filled with the long
    # ladder's rules at |omega| + k = 9.9, where coarse t-edges add core
    # nodes, hold 0.45 MB, well under 1 MB
    caches = [f for f in vars(kernels).values() if hasattr(f, "cache_info")]
    assert {kernels._window_rule, kernels._tail_rule} <= set(caches)
    assert all(f.cache_info().maxsize is not None for f in caches)
    _clear_rule_caches()
    rules, real_rules = {}, {name: getattr(kernels, name) for name in ("_window_rule", "_tail_rule")}
    for name, real in real_rules.items():

        def spy(*key, real=real, name=name):
            rules[name] = real(*key)
            return rules[name]

        monkeypatch.setattr(kernels, name, spy)
    radial_fourier("IK0_over_t2", 7.5, 2.4, LONG_LADDER, ORACLE_T_DAMP)
    full = 0
    for name, arrays in rules.items():
        for array in arrays:
            with pytest.raises(ValueError):
                array.flat[0] = 0.0
        full += real_rules[name].cache_info().maxsize * sum(array.nbytes for array in arrays)
    assert full < 0.75e6


def test_oracle_ratio_makes_one_radial_fourier_call(monkeypatch):
    # the whole mollifier ladder in one call, with g called once, on t >= 0
    calls = []
    real = kernels.radial_fourier

    def spy(kid, omega, k, eta, t_damp):
        calls.append((kid, np.array(eta), t_damp))
        return real(kid, omega, k, eta, t_damp)

    monkeypatch.setattr(kernels, "radial_fourier", spy)
    g_calls = _record_time_factor(monkeypatch)
    oracle_ratio("IK0_over_t", 0.4, 1.3)
    assert len(calls) == 1
    kid, eta, t_damp = calls[0]
    assert kid == "IK0_over_t" and np.array_equal(eta, ORACLE_ETAS) and t_damp == ORACLE_T_DAMP
    assert len(g_calls) == 1
    assert np.all(g_calls[0][1] >= 0.0)


def test_each_rung_runs_its_own_guards(monkeypatch):
    # every guard holds one rung's sums, so a poorly resolved rung cannot
    # hide behind the largest value of the ladder
    checked = []
    real = kernels.converged

    def spy(value, other, rtol, what):
        checked.append((what, np.shape(value), value))
        return real(value, other, rtol, what)

    monkeypatch.setattr(kernels, "converged", spy)
    ladder = radial_fourier("Delta_over_t2", 0.3, 0.9, ORACLE_ETAS, ORACLE_T_DAMP)
    names = [what for what, _, _ in checked]
    for what in ("radial_fourier", "radial_fourier window", "radial_fourier window tails"):
        assert names.count(what) == len(ORACLE_ETAS)
    t_sums = [value for what, shape, value in checked if what == "radial_fourier"]
    assert all(shape == () for what, shape, _ in checked if what != "radial_fourier window tails")
    assert np.array_equal(t_sums, ladder)


def test_window_tails_guard_fires_on_a_one_node_rule(monkeypatch):
    # one Gauss node per gap misses the window's own panel sums by 7e-6
    monkeypatch.setattr(kernels, "TAIL_NODES", 1)
    with pytest.raises(QuadratureNotConverged, match="window tails"):
        radial_fourier("IK0_over_t", 0.4, 1.3, ORACLE_ETAS, ORACLE_T_DAMP)


def _decimal_log_kernels(omega, k):
    """Delta_over_t, Delta_over_t2 and the XiXiDelta_over_t3 base at the
    binary values omega and k, from 60-digit decimal logarithms."""
    with localcontext() as ctx:
        ctx.prec = 60
        w, kk = Decimal(omega), Decimal(k)
        lm, lp = abs(w - kk).ln(), abs(w + kk).ln()
        return {
            "Delta_over_t": complex(0.0, float((lm - lp) / kk)),
            "Delta_over_t2": complex(float(((w - kk) * lm - (w + kk) * lp) / kk), 0.0),
            "XiXiDelta_over_t3": complex(0.0, float(((w - kk) ** 2 * lm - (w + kk) ** 2 * lp) / kk)),
        }


def test_log_kernels_keep_their_digits_far_from_the_cone():
    # log|omega - k| - log|omega + k| cancels when k << |omega| (or
    # |omega| << k): taken as a difference of two logs it is 8.9e-5 off
    # at (1e6, 1e-6), and Delta_over_t2 comes out 0.0 at (1e16, 1e-7)
    for omega, k in ((1e3, 1e-3), (1e6, 1e-6), (1e16, 1e-7), (-1e6, 1e-6), (1e-6, 1e6), (0.4, 1.3)):
        for kid, ref in _decimal_log_kernels(omega, k).items():
            value = eval_hat(kid, omega, k)
            assert abs(value - ref) <= 1e-15 * abs(ref), (kid, omega, k)


def test_log_kernels_keep_their_digits_near_the_cone():
    # |omega|/k - 1 from 1e-14 to 1e2, inside and outside the cones, against
    # 60-digit mpmath logs of the binary omega and k.  d = log|omega - k| -
    # log|omega + k| taken as -2 atanh(k/omega) lost up to 1.6e-4 relative
    # here, since rounding k/omega costs digits as it nears 1.  Each value
    # is held to the size of the terms its formula adds
    rng = np.random.default_rng(13)
    for _ in range(2000):
        k = 10.0 ** rng.uniform(-3.0, 3.0)
        q = 1.0 + 10.0 ** rng.uniform(-14.0, 2.0)
        omega = rng.choice((-1.0, 1.0)) * (k * q if rng.random() < 0.5 else k / q)
        with mpmath.workdps(60):
            w, kk = mpmath.mpf(omega), mpmath.mpf(k)
            lm, lp = mpmath.log(abs(w - kk)), mpmath.log(abs(w + kk))
            d, s = float(lm - lp), float(lm + lp)
            logs = float(abs(lm) + abs(lp))
            refs = {
                "Delta_over_t": (d / k, abs(d / k)),
                "Delta_over_t2": (float(w / kk * (lm - lp) - lm - lp), abs(omega / k * d) + logs),
                "XiXiDelta_over_t3": (
                    float((w * w + kk * kk) / kk * (lm - lp) - 2 * w * (lm + lp)),
                    abs((omega**2 + k**2) / k * d) + 2.0 * abs(omega) * logs,
                ),
            }
        value_d, value_s = kernels._log_difference_and_sum(omega, k)
        assert abs(value_d - d) <= 1e-14 * abs(d), (omega, k)
        assert abs(value_s - s) <= 1e-14 * logs, (omega, k)
        if abs(abs(omega) - k) > 1e-12 * max(abs(omega), k):  # nearer, classify calls it the Boundary
            for kid, (ref, scale) in refs.items():
                value = eval_hat(kid, omega, k)  # purely real or purely imaginary
                assert abs(value.real + value.imag - ref) <= 1e-14 * scale, (kid, omega, k)


def _decimal_xixi_delta_dk(omega, k):
    """The first and second k-derivatives of the XiXiDelta_over_t3 base
    i s/k, s = (omega - k)^2 log|omega - k| - (omega + k)^2 log|omega + k|,
    at the binary values omega and k, differentiated term by term in
    60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        w, kk = Decimal(omega), Decimal(k)
        lm, lp = abs(w - kk).ln(), abs(w + kk).ln()
        s = (w - kk) ** 2 * lm - (w + kk) ** 2 * lp
        s_k = -2 * (w - kk) * lm - 2 * (w + kk) * lp - 2 * w
        s_kk = 2 * (lm - lp)
        b1 = -s / kk**2 + s_k / kk
        b2 = 2 * s / kk**3 - 2 * s_k / kk**2 + s_kk / kk
        return complex(0.0, float(b1)), complex(0.0, float(b2))


def test_tensor_derivatives_keep_their_digits_far_from_the_cone():
    # along k_vec = (k, 0, 0) the (1, 1) component is the base's second
    # k-derivative b2 and the (2, 2) component is b1/k; both cancel as
    # k/omega -> 0, and taken from the two logs they were 7e2 relative off
    # at (1e3, 1e-3) and 2e20 off at (1e6, 1e-6)
    for omega, k in ((1e3, 1e-3), (1e6, 1e-6), (-1e6, 1e-6), (2.2, 0.9), (0.4, 1.3)):
        b1, b2 = _decimal_xixi_delta_dk(omega, k)
        k_vec = np.array([k, 0.0, 0.0])
        assert abs(eval_hat_tensor("XiXiDelta_over_t3", omega, k_vec, 1, 1) - b2) <= 1e-13 * abs(b2), (omega, k)
        value = eval_hat_tensor("XiXiDelta_over_t3", omega, k_vec, 2, 2)
        assert abs(value - b1 / k) <= 1e-13 * abs(b1 / k), (omega, k)


def test_kernel_table_rows():
    rows = kernel_table("IK0_over_t2", [0.5, 2.0], [1.0])
    assert rows[0][:3] == (0.5, 1.0, "outside")
    assert rows[1][:3] == (2.0, 1.0, "inside_upper")
    assert kernel_table("IK0_over_t2", [], [1.0]) == []
