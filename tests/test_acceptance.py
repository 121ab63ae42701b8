"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line.  Tolerances and sample counts are part of the contract and
must not be weakened."""

import time

import numpy as np

from conftest import (
    fermi_functional_pair,
    maxwell_functional_pair,
    random_jet,
    random_maxwell_field,
    ratio_by_least_squares,
    violating_jet_pair,
)
from lightcone import checks, convolution, kernels, lineint, quadrature, slayer
from lightcone.clifford import GAMMA, closed_chain_projectors, minkowski, projector_ratio_constant
from lightcone.errors import ChiralityViolated, DegenerateChain
from lightcone.fields import pairing_predicates, time_translate


def _report(n, ok, capsys, detail=""):
    with capsys.disabled():
        suffix = f"  ({detail})" if detail else ""
        print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {n} failed {detail}"


def test_acceptance_1_convolution_closed_forms(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    # rest-frame queries against the delta-reduction oracle
    for _ in range(100):
        big_omega = float(rng.uniform(1.2, 8.0) * rng.choice([-1.0, 1.0]))
        ok &= checks.k0_shell_oracle_error(big_omega) <= 1e-10
    # general upper-cone queries against the 1D quadrature oracle
    for _ in range(100):
        qvec = rng.uniform(-1.5, 1.5, size=3)
        qn = float(np.linalg.norm(qvec))
        shell = float(np.sqrt(qn * qn + 1.0))
        q0 = float(rng.uniform(shell + 0.1, shell + 5.0))
        query = convolution.ShellIntegralQuery((q0, *qvec), 1.0)
        closed = convolution.conv_masscone_shell(query)
        oracle = convolution.conv_masscone_shell_oracle(query)
        ok &= abs(closed - oracle) <= 1e-10 * max(1e-8, abs(closed))
    ok &= checks.k0_shell_anchor_error() < 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(1, ok, capsys, f"runtime {elapsed:.2f}s")


def test_acceptance_2_scaling_exponents(capsys):
    t0 = time.perf_counter()
    eps = np.geomspace(1e-3, 1e-1, 8)
    qs = [(float(np.sqrt(1.25 + e)), 0.5, 0.0, 0.0) for e in eps]
    slope_weighted = convolution.conv_omega_scaling(qs, 1.0, weighted=True)
    slope_bracket = convolution.conv_omega_scaling(qs, 1.0, weighted=False)
    elapsed = time.perf_counter() - t0
    ok = slope_weighted >= 2.9 and 1.9 <= slope_bracket <= 2.1 and elapsed < 10.0
    _report(
        2,
        ok,
        capsys,
        f"weighted {slope_weighted:.3f}, bracket {slope_bracket:.3f}, runtime {elapsed:.2f}s",
    )


def test_acceptance_3_piecewise_identities(capsys):
    rng = np.random.default_rng(303)
    # 10,000 samples a = pa/qa, b = pb/qb; one draw with per-element bounds
    # takes the same values, in the same order, as 40,000 scalar draws
    lo, hi = np.tile([-400, 1, -400, 1], 10_000), np.tile([400, 64, 400, 64], 10_000)
    pa, qa, pb, qb = rng.integers(lo, hi).reshape(10_000, 4).T
    # away from the (null) region boundaries a, b in {0, 1} and a = b, the
    # subtraction chain agrees with the compactified weight, J is odd under
    # the point reflection through (1/2, 1/2), and U and V under the swap
    off = (pa != 0) & (pa != qa) & (pb != 0) & (pb != qb) & (pa * qb != pb * qa)
    # each weight exactly, times qa*qb, at (a, b), (1 - a, 1 - b) and (b, a)
    at, reflected, swapped = (pa, qa, pb, qb), (qa - pa, qa, qb - pb, qb), (pb, qb, pa, qa)
    value = lambda f, point: f.scaled(*point)[off]
    chain = value(lineint.J, at) - sum(value(p, at) for p in lineint.SUBTRACTIONS)
    ok = np.array_equal(chain, value(lineint.JTILDE, at))
    ok &= lineint.compact_identity_residual(*at) == 0
    ok &= np.array_equal(value(lineint.J, reflected), -value(lineint.J, at))
    for f in (lineint.U, lineint.V):
        ok &= np.array_equal(value(f, swapped), -value(f, at))
    _report(3, ok, capsys)


def test_acceptance_4_kernel_catalogue(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    ok = True
    # parity at 100 random points per id
    for kid in kernels.KERNEL_IDS:
        for _ in range(100):
            omega = float(rng.uniform(-3.0, 3.0))
            k = float(rng.uniform(0.1, 3.0))
            if abs(abs(omega) - k) >= 1e-3:
                ok &= checks.parity_residual(kid, omega, k) < 1e-12
    # harmonicity residual is O(h^2) off the singular set
    for kid, (omega, k) in (
        ("Delta_over_t", (0.4, 1.7)),
        ("Delta_over_t2", (2.6, 1.2)),
        ("IK0_over_t2", (0.4, 1.3)),
    ):
        r1 = abs(kernels.harmonicity_residual(kid, omega, k, h=2e-3))
        r2 = abs(kernels.harmonicity_residual(kid, omega, k, h=1e-3))
        ok &= r1 < 1e-4 and r2 < 0.5 * r1 + 1e-8
    # mollified oracle vs closed forms, one global constant per kernel
    constants = {}
    for kid, points in (
        ("IK0_over_t", ((0.4, 1.3), (0.2, 0.9))),
        ("IK0_over_t2", ((0.4, 1.3), (2.2, 0.9))),
        ("Delta_over_t", ((0.4, 1.3), (2.2, 0.9))),
    ):
        ratios = [kernels.oracle_ratio(kid, w, k) for w, k in points]
        constants[kid] = ratios[0]
        ok &= abs(ratios[0] - ratios[1]) < 0.01 * abs(ratios[0])
    # Delta_over_t2 closed form carries an integration constant; the global
    # ratio is read off from value differences
    etas = (0.08, 0.04, 0.02)

    def extrapolated(w, k):
        return quadrature.extrapolate_to_zero(
            etas, [kernels.oracle_value("Delta_over_t2", w, k, e, 20.0) for e in etas]
        )

    diffs = []
    for (w1, k), (w2, _) in (((0.4, 1.3), (2.2, 1.3)), ((0.3, 0.9), (2.6, 0.9))):
        num = extrapolated(w1, k) - extrapolated(w2, k)
        den = kernels.eval_hat("Delta_over_t2", w1, k) - kernels.eval_hat("Delta_over_t2", w2, k)
        diffs.append(num / den)
    constants["Delta_over_t2"] = diffs[0]
    ok &= abs(diffs[0] - diffs[1]) < 0.01 * abs(diffs[0])
    # shell kernel against the damping-smeared reference
    shell_ratios = [kernels.k0hat_shell_ratio(w, k) for w, k in ((1.3, 1.3), (0.9, 0.9))]
    constants["K0Hat"] = shell_ratios[0]
    ok &= abs(shell_ratios[0] - shell_ratios[1]) < 0.01 * abs(shell_ratios[0])
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    reported = ", ".join(f"{k}={v.real:+.3f}" for k, v in constants.items())
    _report(4, ok, capsys, f"constants {reported}; runtime {elapsed:.1f}s")


def test_acceptance_5_conservation(capsys):
    rng = np.random.default_rng(505)
    # field and jet pairs that meet the pairings the functionals contract
    # (random_maxwell_field and random_jet pairs almost never do, and give
    # exact zeros), drawn from their own generators so that rng's stream
    # stays as it was
    paired_rng = np.random.default_rng(5050)
    bose_rng = np.random.default_rng(5051)
    ok = True
    for _ in range(20):
        u = random_maxwell_field(rng)
        v = random_maxwell_field(rng)
        ju = random_jet(rng, n_psi=2, n_delta=2)
        jv = random_jet(rng, n_psi=2, n_delta=2)
        pu, pv = fermi_functional_pair(paired_rng)
        bose = [(u, v), maxwell_functional_pair(bose_rng)]
        values_b = [(slayer.sigma_bose(a, b), slayer.ip_bose(a, b)) for a, b in bose]
        ok &= values_b[1][0] != 0.0 and values_b[1][1] != 0.0
        fermi = [(ju, jv), (pu, pv)]
        values = [(slayer.sigma_fermi(a, b), slayer.ip_fermi(a, b)) for a, b in fermi]
        ok &= values[1][0] != 0.0 and values[1][1] != 0.0
        for dt in (0.1, 1.0, 10.0):
            for (a, b), (s_b, i_b) in zip(bose, values_b):
                at, bt = time_translate(a, dt), time_translate(b, dt)
                scale_b = max(1.0, abs(s_b), abs(i_b))
                ok &= abs(slayer.sigma_bose(at, bt) - s_b) < 1e-10 * scale_b
                ok &= abs(slayer.ip_bose(at, bt) - i_b) < 1e-10 * scale_b
            for (a, b), (s_f, i_f) in zip(fermi, values):
                at, bt = time_translate(a, dt), time_translate(b, dt)
                ok &= abs(slayer.sigma_fermi(at, bt) - s_f) <= 1e-10 * abs(s_f)
                ok &= abs(slayer.ip_fermi(at, bt) - i_f) <= 1e-10 * abs(i_f)
    # counterexample: equal momentum transfer, unequal frequency gaps
    cu, cv = violating_jet_pair(rng)
    ok &= not pairing_predicates(cu, cv)["implication_holds"]
    residual = slayer.fermi_conservation_residual(time_translate(cu, 0.3), time_translate(cv, 0.3))
    ok &= abs(residual) > 1e-8
    _report(5, ok, capsys, f"counterexample residual {residual:.3e}")


def test_acceptance_6_definiteness(capsys):
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(1000):
        u = random_maxwell_field(rng, n_modes=1)
        ok &= slayer.ip_bose(u, u) >= -1e-12
    for _ in range(50):
        g = random_maxwell_field(rng, n_modes=1, gauge=True)
        ok &= abs(slayer.ip_bose(g, g)) < 1e-12
    samples = rng.normal(size=(100_000, 6)) * 3.0
    vals = slayer.definiteness_bracket(samples[:, :3], samples[:, 3:], 1.0)
    ok &= bool(np.all(vals >= -1e-12))
    near_zero = samples[vals < 1e-6]
    ok &= bool(
        np.all(np.linalg.norm(near_zero[:, :3] + near_zero[:, 3:], axis=-1) < 1e-2)
    )
    signs = set()
    for _ in range(1000):
        jet = random_jet(rng, n_psi=1, n_delta=1)
        val = slayer.ip_fermi(jet, jet)
        if abs(val) > 1e-12:
            signs.add(float(np.sign(val)))
    ok &= signs == {1.0}
    _report(6, ok, capsys)


def test_acceptance_7_trace_equivalence(capsys):
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(100):
        ok &= checks.trace_insertion_residual(*checks.random_chiral_jet(rng)) < 1e-10
    # a non-chiral control jet must be rejected
    control = GAMMA[1] @ GAMMA[2] + 0.3 * GAMMA[1]
    try:
        checks.trace_insertion_residual(control, 1)
        ok = False
    except ChiralityViolated:
        pass
    _report(7, ok, capsys)


def test_acceptance_8_support_argument(capsys):
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(50):
        jet = random_jet(rng, n_psi=2, n_delta=2)
        k0, kvec, a = jet.plane_waves()
        ok &= slayer.current_sli_support_check(k0, kvec, a) == 0.0
    # an injected row with a spacelike momentum
    k0, kvec, a = np.append(k0, 0.5), np.vstack((kvec, [2.0, 0.0, 0.0])), np.vstack((a, np.ones(4)))
    ok &= slayer.current_sli_support_check(k0, kvec, a) > 0.0
    _report(8, ok, capsys)


def test_acceptance_9_time_averaging(capsys):
    ok = True
    cases = (
        (lambda s: s * np.exp(-s * s), 12.0),
        (lambda s: np.sin(s) * np.exp(-abs(s)), 40.0),
        (lambda s: s**3 * np.exp(-s * s), 12.0),
    )
    for f, s_max in cases:
        lhs, rhs = slayer.time_average_identity_check(f, t_list=(100.0,), s_max=s_max)
        ok &= abs(rhs[0] - lhs) < 1e-5
    _report(9, ok, capsys)


def test_acceptance_10_positivity_probe(capsys):
    rng = np.random.default_rng(1010)
    ok = True

    def make_current():
        coeffs = rng.normal(size=4)
        shift = rng.normal(size=4) * 0.3

        def j(point):
            z = point - shift
            damp = np.exp(-float(z @ z) / 18.0)
            return coeffs * damp * (1.0 + 0.2 * z[0])

        return j

    values = []
    for _ in range(100):
        j = make_current()
        x = np.concatenate((rng.normal(size=1) * 0.2, rng.normal(size=3) * 0.4))
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        eps = 0.007  # null separation |y - x| <= 0.01
        y = x + eps * np.concatenate(([1.0], d))
        values.append(slayer.positivity_probe(j, x, y, cutoff=15.0))
    scale = max(abs(v) for v in values)
    ok &= all(v >= -1e-6 * scale for v in values)
    # exact nonnegativity at coincidence
    j = make_current()
    x = np.array([0.1, 0.2, -0.3, 0.4])
    ok &= slayer.positivity_probe(j, x, x, cutoff=15.0) >= 0.0
    _report(10, ok, capsys)


def _projectors_in_rep(gammas, xi):
    xibar = np.conj(xi)

    def slash_g(v):
        return v[0] * gammas[0] - v[1] * gammas[1] - v[2] * gammas[2] - v[3] * gammas[3]

    w = minkowski(xi, xibar)
    d = 2.0 * np.sqrt(complex(w * w - minkowski(xi, xi) * minkowski(xibar, xibar)))
    xs, xbs = slash_g(xi), slash_g(xibar)
    comm = xs @ xbs - xbs @ xs
    return 0.5 * np.eye(4) + comm / (2.0 * d), 0.5 * np.eye(4) - comm / (2.0 * d)


def test_acceptance_11_clifford_layer(capsys):
    rng = np.random.default_rng(1111)
    ok = checks.clifford_relations_residual() < 1e-10
    for _ in range(100):
        xi = checks.random_xi(rng)
        ok &= max(checks.projector_residuals(xi).values()) < 1e-10
        ok &= abs(projector_ratio_constant(xi) - ratio_by_least_squares(xi)) < 1e-10
        ok &= checks.projector_ratio_residual(xi) < 1e-10
    # representation independence under a change of spinor basis
    for _ in range(5):
        while True:
            s = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            if np.linalg.cond(s) < 20.0:
                break
        s_inv = np.linalg.inv(s)
        gammas = [s @ g @ s_inv for g in GAMMA]
        xi = rng.normal(size=4) + 1j * rng.normal(size=4)
        try:
            f_plus, f_minus, _ = closed_chain_projectors(xi)
        except DegenerateChain:
            continue
        fp2, fm2 = _projectors_in_rep(gammas, xi)
        ok &= bool(np.max(np.abs(fp2 - s @ f_plus @ s_inv)) < 1e-8)
        ok &= bool(np.max(np.abs(fm2 - s @ f_minus @ s_inv)) < 1e-8)
    _report(11, ok, capsys)
