"""The verification suites that `lightcone verify` runs: one function per
suite, each returning its report entries.  Each suite imports the modules
it checks, so a run loads only what its suites need.  A check that the
acceptance tests also make is one function here of one sample (or none),
returning its residual; each caller keeps its count, range and tolerance."""

import numpy as np

from .errors import DegenerateChain, LightconeError


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


def _size(m):
    return float(np.max(np.abs(m)))


def clifford_relations_residual():
    """max over j, k of |{gamma^j, gamma^k} - 2 eta^{jk}|, zero in exact
    arithmetic."""
    from . import clifford

    g, eta = clifford.GAMMA, clifford.ETA
    return max(_size(g[j] @ g[k] + g[k] @ g[j] - 2.0 * eta[j, k] * np.eye(4)) for j in range(4) for k in range(4))


# Draws before random_xi gives up: none of 2000 seeds x 20 draws was rejected,
# so only a degenerate algebra, as under a wrong gamma matrix, reaches it.
RANDOM_XI_DRAWS = 100


def random_xi(rng):
    """The first complex four-vector with standard normal parts whose closed
    chain has projectors and an attainable ratio constant; DegenerateChain
    if none of RANDOM_XI_DRAWS draws has."""
    from . import clifford

    for _ in range(RANDOM_XI_DRAWS):
        xi = rng.normal(size=4) + 1j * rng.normal(size=4)
        try:
            clifford.closed_chain_projectors(xi)
            clifford.projector_ratio_constant(xi)
            return xi
        except LightconeError:
            continue
    raise DegenerateChain(f"no nondegenerate closed chain in {RANDOM_XI_DRAWS} draws")


def projector_residuals(xi):
    """The residuals of the closed-chain projector identities at xi, by
    name: F_+ and F_- idempotent, F_+ + F_- = 1 and F_+ F_- = 0."""
    from . import clifford

    f_plus, f_minus, _ = clifford.closed_chain_projectors(xi)
    return {
        "plus_idempotent": _size(f_plus @ f_plus - f_plus),
        "minus_idempotent": _size(f_minus @ f_minus - f_minus),
        "complete": _size(f_plus + f_minus - np.eye(4)),
        "orthogonal": _size(f_plus @ f_minus),
    }


def projector_ratio_residual(xi):
    """|F_- xi_slash - c F_- xibar_slash| with c = projector_ratio_constant(xi)."""
    from . import clifford

    _, f_minus, _ = clifford.closed_chain_projectors(xi)
    c = clifford.projector_ratio_constant(xi)
    return _size(f_minus @ clifford.slash(xi) - c * (f_minus @ clifford.slash(np.conj(xi))))


def random_chiral_jet(rng):
    """(jet, sign): a chirally symmetric jet of that random sign, with
    standard normal complex coefficients."""
    from . import clifford

    sign = int(rng.choice([-1, 1]))
    g, h, a_vec, alpha, beta = (rng.normal(size=n) + 1j * rng.normal(size=n) for n in (None, None, 3, None, None))
    return clifford.chiral_jet(g, h, a_vec, alpha, beta, sign), sign


def trace_insertion_residual(jet, sign):
    """max_a |Tr(sigma^{0a} {P, P*}) + sign Tr(gamma^a {P, P*})| for the jet P
    and its spin adjoint P*; ChiralityViolated unless P is chirally
    symmetric with that sign."""
    from . import clifford

    lhs, rhs = clifford.anticomm_trace_equiv(jet, clifford.spin_adjoint(jet), sign)
    return _size(lhs - rhs)


def suite_clifford(seed, tol):
    rng = np.random.default_rng(seed)
    out = [_entry("clifford-relations", clifford_relations_residual(), tol, "dirac-algebra")]
    worst_proj, worst_fpp, ok = 0.0, 0.0, None
    try:
        for _ in range(20):
            xi = random_xi(rng)
            res = projector_residuals(xi)
            worst_proj = max(worst_proj, res["plus_idempotent"], res["complete"], res["orthogonal"])
            worst_fpp = max(worst_fpp, projector_ratio_residual(xi))
    except DegenerateChain:  # no closed chain to check the projectors on
        worst_proj, worst_fpp, ok = 1.0, 1.0, False
    out.append(_entry("projector-idempotency", worst_proj, tol, "closed-chain-spectral", ok=ok))
    out.append(_entry("projector-ratio", worst_fpp, tol, "closed-chain-ratio", ok=ok))
    worst_h = max(trace_insertion_residual(*random_chiral_jet(rng)) for _ in range(10))
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
    worst = max(lineint.compact_identity_residual(*s) for s in ((pa, qa, pb, qb), (pa1, qa1, pb1, qb1)))
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


def parity_residual(kid, omega, k):
    """|K(omega, k) - s K(-omega, k)| for the kernel id, with s its PARITY
    sign, flipped once per spatial index of a tensor id."""
    from . import kernels

    sign = float(kernels.PARITY[kid]) * (-1.0) ** kernels.TENSOR_INDEX_COUNT.get(kid, 0)
    return abs(kernels.eval_hat(kid, omega, k) - sign * kernels.eval_hat(kid, -omega, k))


def suite_kernels(seed, tol):
    from . import kernels

    rng = np.random.default_rng(seed)
    out = []
    worst = 0.0
    for kid in kernels.KERNEL_IDS:
        for _ in range(30):
            omega = float(rng.uniform(-3.0, 3.0))
            k = float(rng.uniform(0.1, 3.0))
            if abs(abs(omega) - k) >= 1e-2:
                worst = max(worst, parity_residual(kid, omega, k))
    out.append(_entry("kernel-parity", worst, tol, "momentum-space-parity"))
    worst_h = 0.0
    for kid in ("Delta_over_t", "Delta_over_t2"):
        for omega, k in ((0.4, 1.7), (2.6, 1.2)):
            worst_h = max(worst_h, abs(kernels.harmonicity_residual(kid, omega, k)))
    out.append(_entry("kernel-harmonicity", worst_h, 1e-4, "wave-operator-kernel"))
    return out


def k0_shell_anchor_error():
    """|conv_K0_shell - 3/(128 pi^3)| at the rest-frame anchor q = (2, 0), m = 1."""
    from . import convolution

    q = convolution.ShellIntegralQuery((2.0, 0.0, 0.0, 0.0), 1.0)
    return abs(convolution.conv_K0_shell(q) - 3.0 / (128.0 * np.pi**3))


def k0_shell_oracle_error(big_omega):
    """Relative error of the delta-reduction oracle against conv_K0_shell
    at the rest-frame momentum q = (Omega, 0), m = 1."""
    from . import convolution

    closed = convolution.conv_K0_shell(convolution.ShellIntegralQuery((big_omega, 0.0, 0.0, 0.0), 1.0))
    return abs(closed - convolution.conv_K0_shell_oracle(big_omega, 1.0)) / abs(closed)


def suite_convolution(seed, tol):
    rng = np.random.default_rng(seed)
    out = [_entry("shell-convolution-anchor", k0_shell_anchor_error(), 1e-14, "shell-convolution-value")]
    worst = 0.0
    for _ in range(20):
        worst = max(worst, k0_shell_oracle_error(float(rng.uniform(1.2, 6.0) * rng.choice([-1.0, 1.0]))))
    out.append(_entry("shell-convolution-oracle", worst, tol, "shell-convolution-reduction"))
    return out


def suite_fields(seed, tol):
    from . import clifford, fields

    out = []
    u = fields.MaxwellField([(1.0, 1.0, 0.0, 0.0)], [(0.0, 0.0, 1.0, 0.0)])
    f = fields.field_tensor_hat(u.eps[0], u.p[0])
    resid = _size(f + f.T) + _size(f @ u.p[0])
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
        ut, vt = (fields.time_translate(f, 0.2) for f in (u, v))
        anti = abs(slayer.sigma_bose(ut, vt) + slayer.sigma_bose(vt, ut))
        scale = max(1.0, abs(slayer.sigma_bose(ut, vt)))
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
        resid = abs(slayer.fermi_conservation_residual(*(fields.time_translate(j, 0.3) for j in (ju, jv))))
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
    report = []
    for name in sorted(set(names)):
        args = (seed, float(tolerances.get(name, 1e-10))) + ((config,) if name == "slayer" else ())
        report += [dict(e, suite=name) for e in sorted(_SUITES[name](*args), key=lambda e: e["check"])]
    return report
