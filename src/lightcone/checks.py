"""The verification suites that `lightcone verify` runs: one function per
suite, each returning its report entries.  Each suite imports the modules
it checks, so a run loads only what its suites need."""

import numpy as np

from .errors import LightconeError


def _entry(check, value, tolerance, paper_ref, ok=None):
    if ok is None:
        ok = abs(value) <= tolerance
    return {
        "check": check,
        "status": "pass" if ok else "fail",
        "value": float(value),
        "tolerance": float(tolerance),
        "paper_ref": paper_ref,
    }


def _random_xi(rng):
    from . import clifford

    while True:
        xi = rng.normal(size=4) + 1j * rng.normal(size=4)
        try:
            clifford.closed_chain_projectors(xi)
            clifford.projector_ratio_constant(xi)
            return xi
        except LightconeError:
            continue


def suite_clifford(seed, tol):
    from . import clifford

    rng = np.random.default_rng(seed)
    out = []
    worst = 0.0
    eta = clifford.ETA
    for j in range(4):
        for k in range(4):
            anti = clifford.GAMMA[j] @ clifford.GAMMA[k] + clifford.GAMMA[k] @ clifford.GAMMA[j]
            worst = max(worst, float(np.max(np.abs(anti - 2.0 * eta[j, k] * np.eye(4)))))
    out.append(_entry("clifford-relations", worst, tol, "dirac-algebra"))
    worst_proj = worst_fpp = 0.0
    for _ in range(20):
        xi = _random_xi(rng)
        f_plus, f_minus, d = clifford.closed_chain_projectors(xi)
        worst_proj = max(
            worst_proj,
            float(np.max(np.abs(f_plus @ f_plus - f_plus))),
            float(np.max(np.abs(f_plus + f_minus - np.eye(4)))),
            float(np.max(np.abs(f_plus @ f_minus))),
        )
        c = clifford.projector_ratio_constant(xi)
        lhs = f_minus @ clifford.slash(xi)
        rhs = c * (f_minus @ clifford.slash(np.conj(xi)))
        worst_fpp = max(worst_fpp, float(np.max(np.abs(lhs - rhs))))
    out.append(_entry("projector-idempotency", worst_proj, tol, "closed-chain-spectral"))
    out.append(_entry("projector-ratio", worst_fpp, tol, "closed-chain-ratio"))
    worst_h = 0.0
    for _ in range(10):
        sign = int(rng.choice([-1, 1]))
        jet = clifford.chiral_jet(
            *(rng.normal() + 1j * rng.normal() for _ in range(2)),
            rng.normal(size=3) + 1j * rng.normal(size=3),
            *(rng.normal() + 1j * rng.normal() for _ in range(2)),
            sign,
        )
        lhs, rhs = clifford.anticomm_trace_equiv(jet, clifford.spin_adjoint(jet), sign)
        worst_h = max(worst_h, float(np.max(np.abs(lhs - rhs))))
    out.append(_entry("trace-insertion-equivalence", worst_h, tol, "chiral-jet-traces"))
    return out


def suite_lineint(seed, tol):
    from . import lineint

    rng = np.random.default_rng(seed)
    out = []
    # 500 samples a = pa/qa, b = pb/qb; one draw with per-element bounds
    # takes the same values, in the same order, as 2000 scalar draws
    lo, hi = np.tile([-400, 1, -400, 1], 500), np.tile([400, 40, 400, 40], 500)
    pa, qa, pb, qb = rng.integers(lo, hi).reshape(500, 4).T
    # and 500 inside the unit square [0,1)^2, the one place V enters
    qa1, qb1 = rng.integers(1, 40, size=(2, 500))
    pa1, pb1 = rng.integers(0, qa1), rng.integers(0, qb1)
    worst = max(
        lineint.compact_identity_residual_homogeneous(pa, qa, pb, qb),
        lineint.compact_identity_residual_homogeneous(pa1, qa1, pb1, qb1),
    )
    out.append(_entry("piecewise-identities", float(worst), 0.0, "nested-integral-regions", ok=worst == 0))
    val = lineint.nested_line_integral(
        lambda z: 1.0, lambda z: 1.0, np.zeros(4), np.ones(4), (0, 0, 0), (0, 0, 0)
    )
    out.append(_entry("nested-line-anchor", abs(val - 1.0), tol, "nested-integral-value"))
    w = 1.7
    blk = lineint.damped_sign_block(w, 1e-2)
    out.append(
        _entry(
            "damped-sign-block",
            abs(blk - (-2j * w / (w * w + 1e-4))),
            1e-6,
            "distributional-blocks",
        )
    )
    return out


def suite_kernels(seed, tol):
    from . import kernels

    rng = np.random.default_rng(seed)
    out = []
    worst = 0.0
    for kid in kernels.KERNEL_IDS:
        kern = kernels.KernelHat(kid)
        for _ in range(30):
            omega = float(rng.uniform(-3.0, 3.0))
            k = float(rng.uniform(0.1, 3.0))
            if abs(abs(omega) - k) < 1e-2:
                continue
            try:
                v1 = kernels.eval_hat(kern, omega, k)
                v2 = kernels.eval_hat(kern, -omega, k)
            except LightconeError:
                continue
            sign = float(kernels.PARITY[kid]) * (-1.0) ** kernels.TENSOR_INDEX_COUNT.get(kid, 0)
            worst = max(worst, abs(v1 - sign * v2))
    out.append(_entry("kernel-parity", worst, tol, "momentum-space-parity"))
    worst_h = 0.0
    for kid in ("Delta_over_t", "Delta_over_t2"):
        kern = kernels.KernelHat(kid)
        for omega, k in ((0.4, 1.7), (2.6, 1.2)):
            worst_h = max(worst_h, abs(kernels.harmonicity_residual(kern, omega, k)))
    out.append(_entry("kernel-harmonicity", worst_h, 1e-4, "wave-operator-kernel"))
    return out


def suite_convolution(seed, tol):
    from . import convolution

    rng = np.random.default_rng(seed)
    out = []
    q = convolution.ShellIntegralQuery((2.0, 0.0, 0.0, 0.0), 1.0)
    anchor = convolution.conv_K0_shell(q)
    out.append(
        _entry(
            "shell-convolution-anchor",
            abs(anchor - 3.0 / (128.0 * np.pi**3)),
            1e-14,
            "shell-convolution-value",
        )
    )
    worst = 0.0
    for _ in range(20):
        big_omega = float(rng.uniform(1.2, 6.0) * rng.choice([-1.0, 1.0]))
        closed = convolution.conv_K0_shell(
            convolution.ShellIntegralQuery((big_omega, 0.0, 0.0, 0.0), 1.0)
        )
        oracle = convolution.conv_K0_shell_oracle(big_omega, 1.0)
        worst = max(worst, abs(closed - oracle) / abs(closed))
    out.append(_entry("shell-convolution-oracle", worst, tol, "shell-convolution-reduction"))
    return out


def suite_fields(seed, tol):
    from . import clifford, fields

    out = []
    u = fields.MaxwellField([(1.0, 1.0, 0.0, 0.0)], [(0.0, 0.0, 1.0, 0.0)])
    f = fields.field_tensor_hat(u.eps[0], u.p[0])
    resid = float(np.max(np.abs(f + f.T))) + float(np.max(np.abs(f @ u.p[0])))
    out.append(_entry("field-tensor", resid, tol, "plane-wave-field-tensor"))
    rejected = True
    try:
        fields.MaxwellField([(1.0, 0.5, 0.0, 0.0)], [(0.0, 0.0, 1.0, 0.0)])
        rejected = False
    except LightconeError:
        pass
    out.append(_entry("off-shell-rejection", 0.0 if rejected else 1.0, 0.5, "on-shell-constraints"))
    worst = 0.0
    for shell in (1, -1):
        for b in fields.dirac_basis(shell, np.array([1.0, 0.2, -0.4]), 1.0):
            k = np.concatenate(([shell * np.sqrt(1.2 + 1.0)], [1.0, 0.2, -0.4]))
            worst = max(worst, float(np.linalg.norm((clifford.slash(k) - np.eye(4)) @ b)))
    out.append(_entry("dirac-basis-residual", worst, tol, "mass-shell-spinors"))
    return out


def suite_slayer(seed, tol, config=None):
    """config is a loaded (box, mass, maxwell_fields, jets), or None for
    the default configuration."""
    from . import fields, slayer

    _, mass, maxwell_fields, jets = config or fields.load_config(fields.default_config())
    rng = np.random.default_rng(seed)
    out = []
    if len(maxwell_fields) >= 2:
        u, v = maxwell_fields[0], maxwell_fields[1]
        anti = abs(slayer.sigma_bose(u, v, 0.2) + slayer.sigma_bose(v, u, 0.2))
        scale = max(1.0, abs(slayer.sigma_bose(u, v, 0.2)))
        out.append(_entry("symplectic-antisymmetry", anti / scale, tol, "bose-symplectic"))
        diag = slayer.ip_bose(u, u)
        out.append(
            _entry("inner-product-sign", diag, abs(diag) + 1.0, "bose-inner-product", ok=diag >= -tol)
        )
        dt = 0.7
        drift = abs(
            slayer.ip_bose(fields.time_translate(u, dt), fields.time_translate(v, dt))
            - slayer.ip_bose(u, v)
        )
        out.append(_entry("bose-conservation", drift / max(1e-30, abs(diag)), tol, "bose-conservation"))
    if len(jets) >= 2:
        ju, jv = jets[0], jets[1]
        s = slayer.sigma_fermi(ju, jv)
        anti = abs(slayer.sigma_fermi(jv, ju) + s)
        out.append(_entry("fermi-antisymmetry", anti / max(1e-30, abs(s)), tol, "fermi-symplectic"))
        resid = abs(slayer.fermi_conservation_residual(ju, jv, 0.3))
        entry = _entry("fermi-conservation", resid, tol, "fermi-conservation-residual")
        if not fields.pairing_predicates(ju, jv)["implication_holds"]:
            # outside the hypothesis of the conservation statement the
            # residual is reported but not checked
            entry["status"] = "skipped"
        out.append(entry)
        support = slayer.current_sli_support_check(*ju.plane_waves())
        out.append(_entry("current-support", support, 0.0, "cone-support-argument", ok=support == 0.0))
    samples = rng.normal(size=(1000, 6)) * 2.0
    brackets = slayer.definiteness_bracket(samples[:, :3], samples[:, 3:], mass)
    out.append(
        _entry(
            "definiteness-bracket",
            float(np.min(brackets)),
            float(np.max(brackets)) + 1.0,
            "inner-product-definiteness",
            ok=bool(np.all(brackets >= -1e-12)),
        )
    )
    lhs, rhs = slayer.time_average_identity_check(
        lambda s: s * np.exp(-s * s), t_list=(20.0,), s_max=10.0
    )
    out.append(_entry("time-average-identity", abs(rhs[0] - lhs), 1e-6, "surface-layer-averaging"))
    return out


_SUITES = {
    "clifford": suite_clifford,
    "convolution": suite_convolution,
    "fields": suite_fields,
    "kernels": suite_kernels,
    "lineint": suite_lineint,
    "slayer": suite_slayer,
}


def run_suites(names, seed, tolerances=None, config=None):
    tolerances = tolerances or {}
    results = {}
    for name in names:
        tol = float(tolerances.get(name, 1e-10))
        if name == "slayer":
            results[name] = _SUITES[name](seed, tol, config=config)
        else:
            results[name] = _SUITES[name](seed, tol)
    report = []
    for name in sorted(results):
        for entry in sorted(results[name], key=lambda e: e["check"]):
            entry = dict(entry)
            entry["suite"] = name
            report.append(entry)
    return report
