"""Command-line front end: verification suites, kernel and piecewise-function
tables, convolution evaluation, surface-layer evaluation from a JSON field
configuration, and report rendering.

Exit codes: 0 no check failed, 1 at least one check failed, 2 configuration
error.  A check whose hypothesis does not hold is reported as skipped and
does not fail the run.  Reports are strict JSON and deterministic for a
fixed (config, seed).
"""

from __future__ import annotations

import csv
import json
import sys
from fractions import Fraction

import click
import numpy as np

from . import clifford, convolution, fields, kernels, lineint, slayer
from .errors import ConfigInvalid, ConfigMalformed, LightconeError


def default_config():
    """The shipped default field configuration: one opposite-momentum
    Maxwell mode pair and one momentum-matched jet pair in the default box."""
    box = fields.DEFAULT_BOX
    k = 2.0 * np.pi / box
    return {
        "box": box,
        "mass": 1.0,
        "maxwell": [
            {
                "p": [k, k, 0.0, 0.0],
                "eps_re": [0.0, 0.0, 1.0, 0.0],
                "eps_im": [0.0, 0.0, 0.0, 1.0],
            },
            {
                "p": [-k, -k, 0.0, 0.0],
                "eps_re": [0.0, 0.0, 0.5, 0.0],
                "eps_im": [0.0, 0.0, 0.0, -0.25],
            },
        ],
        "jets": [
            _jet_entry([1, 0, 0], [0, 1, 0], 101),
            _jet_entry([1, 0, 0], [0, 1, 0], 202),
        ],
    }


def _jet_entry(n_psi, n_delta, seed):
    rng = np.random.default_rng(seed)
    box = fields.DEFAULT_BOX

    def mode(shell, n):
        kvec = 2.0 * np.pi * np.asarray(n, dtype=float) / box
        basis = fields.dirac_basis(shell, kvec, 1.0)
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        a = c[0] * basis[0] + c[1] * basis[1]
        return {
            "shell": shell,
            "n": list(int(i) for i in n),
            "a_re": [float(x) for x in a.real],
            "a_im": [float(x) for x in a.imag],
        }

    return {"psi": [mode(-1, n_psi)], "delta_psi": [mode(1, n_delta)]}


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
    while True:
        xi = rng.normal(size=4) + 1j * rng.normal(size=4)
        try:
            clifford.closed_chain_projectors(xi)
            clifford.projector_ratio_constant(xi)
            return xi
        except LightconeError:
            continue


def suite_clifford(seed, tol):
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
        c1, c2 = clifford.projector_ratio_constant(xi)
        lhs = f_minus @ clifford.slash(xi)
        rhs = c1 * (f_minus @ clifford.slash(np.conj(xi)))
        worst_fpp = max(worst_fpp, float(np.max(np.abs(lhs - rhs))), abs(c1 - c2))
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
    rng = np.random.default_rng(seed)
    out = []
    worst = Fraction(0)
    for _ in range(500):
        a = Fraction(int(rng.integers(-400, 400)), int(rng.integers(1, 40)))
        b = Fraction(int(rng.integers(-400, 400)), int(rng.integers(1, 40)))
        worst = max(worst, abs(lineint.compact_identity_residual([(a, b)])))
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
            # eval_hat returns the scalar base of tensor ids; each spatial
            # index contributes a khat sign flip under p -> -p.
            indices = {"XiK0_over_t3": 1, "XiXiK0_over_t4": 2, "XiXiDelta_over_t3": 2}
            sign = float(kernels.PARITY[kid]) * (-1.0) ** indices.get(kid, 0)
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
    out.append(_entry("shell-convolution-oracle", worst, 1e-10, "shell-convolution-reduction"))
    return out


def suite_fields(seed, tol):
    out = []
    mode = fields.MaxwellMode((1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0))
    f = fields.field_tensor_hat(mode.eps_arr, mode.p_arr)
    resid = float(np.max(np.abs(f + f.T))) + float(
        np.max(np.abs(f @ mode.p_arr))
    )
    out.append(_entry("field-tensor", resid, tol, "plane-wave-field-tensor"))
    rejected = True
    try:
        fields.MaxwellMode((1.0, 0.5, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0))
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
    _, mass, maxwell_fields, jets = config or fields.load_config(default_config())
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
        support = slayer.current_sli_support_check(list(ju.psi) + list(ju.delta_psi))
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


def _write_json(report, out):
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@click.group()
def main():
    """Verification tools for light-cone kernels, line integrals,
    convolutions, and surface-layer functionals."""


@main.command()
@click.option("--suites", default="all", help="comma-separated suite names or 'all'")
@click.option("--config", "config_path", default=None, type=click.Path())
@click.option("--seed", default=7, type=int)
@click.option("--tol", "tols", multiple=True, help="suite=tolerance overrides")
@click.option("--out", default=None, type=click.Path())
def verify(suites, config_path, seed, tols, out):
    """Run verification suites and write a JSON report."""
    names = tuple(_SUITES) if suites == "all" else tuple(s.strip() for s in suites.split(","))
    for name in names:
        if name not in _SUITES:
            click.echo(f"unknown suite: {name}", err=True)
            sys.exit(2)
    tolerances = {}
    for item in tols:
        if "=" not in item:
            click.echo(f"bad --tol override: {item}", err=True)
            sys.exit(2)
        key, _, val = item.partition("=")
        try:
            tolerances[key] = float(val)
        except ValueError:
            tolerances[key] = float("nan")
        # a non-finite tolerance could not be written to the strict-JSON
        # report; a negative one fails every check; an unknown suite name
        # would be ignored
        if key not in _SUITES or not (np.isfinite(tolerances[key]) and tolerances[key] >= 0):
            click.echo(f"bad --tol override: {item}", err=True)
            sys.exit(2)
    config = None
    if config_path is not None:
        try:
            config = fields.load_config(config_path)
        except ConfigMalformed as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except ConfigInvalid as exc:
            # Inadmissible field content is a failing check, not a usage error.
            entry = _entry("config-admissibility", 1.0, 0.0, "on-shell-constraints", ok=False)
            _write_json([dict(entry, suite="fields", detail=str(exc))], out)
            sys.exit(1)
    report = run_suites(names, seed, tolerances, config)
    _write_json(report, out)
    sys.exit(1 if any(e["status"] == "fail" for e in report) else 0)


@main.command("kernels")
@click.option("--id", "kid", required=True)
@click.option("--omega-min", default=-3.0, type=float)
@click.option("--omega-max", default=3.0, type=float)
@click.option("--omega-step", default=0.1, type=float)
@click.option("--k-min", default=0.1, type=float)
@click.option("--k-max", default=3.0, type=float)
@click.option("--k-step", default=0.1, type=float)
@click.option("--out", default=None, type=click.Path())
def kernels_cmd(kid, omega_min, omega_max, omega_step, k_min, k_max, k_step, out):
    """Tabulate a momentum-space kernel on an (omega, k) grid as CSV."""
    if kid not in kernels.KERNEL_IDS:
        click.echo(f"unknown kernel id: {kid}", err=True)
        sys.exit(2)
    omegas = _grid("omega", omega_min, omega_max, omega_step)
    ks = _grid("k", k_min, k_max, k_step)
    rows = kernels.kernel_table(kid, omegas, ks)
    _write_csv(out, ("omega", "k", "region", "re", "im"), rows)
    sys.exit(0)


@main.command("lineint")
@click.option("--fn", required=True)
@click.option("--a-min", default=-2.0, type=float)
@click.option("--a-max", default=3.0, type=float)
@click.option("--a-step", default=0.05, type=float)
@click.option("--b-min", default=-2.0, type=float)
@click.option("--b-max", default=3.0, type=float)
@click.option("--b-step", default=0.05, type=float)
@click.option("--out", default=None, type=click.Path())
def lineint_cmd(fn, a_min, a_max, a_step, b_min, b_max, b_step, out):
    """Tabulate a piecewise line-integral function on an (alpha, beta) grid."""
    if fn not in ("J", "I", "U", "Jtilde", "V"):
        click.echo(f"unknown function: {fn}", err=True)
        sys.exit(2)
    alphas = _grid("a", a_min, a_max, a_step)
    betas = _grid("b", b_min, b_max, b_step)
    rows = []
    for a in alphas:
        for b in betas:
            rows.append((a, b, fn, float(lineint.eval_piecewise(fn, a, b))))
    _write_csv(out, ("alpha", "beta", "fn", "value"), rows)
    sys.exit(0)


def _grid(axis, lo, hi, step):
    """The table axis lo, lo + step, ... up to hi.  Exits 2 unless the
    bounds are finite and the step is finite and positive."""
    if not (np.isfinite(lo) and np.isfinite(hi) and np.isfinite(step) and step > 0):
        click.echo(
            f"bad {axis} grid: --{axis}-min {lo} and --{axis}-max {hi} must be finite,"
            f" --{axis}-step {step} finite and positive",
            err=True,
        )
        sys.exit(2)
    return np.arange(lo, hi + 0.5 * step, step)


def _write_csv(out, header, rows):
    def emit(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    if out:
        with open(out, "w", newline="") as fh:
            emit(fh)
    else:
        emit(sys.stdout)


@main.command("convolution")
@click.option("--q", required=True, help="comma-separated four-vector")
@click.option("--m", default=1.0, type=float)
@click.option("--out", default=None, type=click.Path())
def convolution_cmd(q, m, out):
    """Evaluate the shell convolutions and their oracles at a momentum,
    as CSV rows (query, closed form, oracle, relative error)."""
    try:
        qv = tuple(float(c) for c in q.split(","))
        if len(qv) != 4:
            raise ValueError("need four components")
        if not all(np.isfinite(qv)):
            raise ValueError("components must be finite")
    except ValueError as exc:
        click.echo(f"bad momentum: {exc}", err=True)
        sys.exit(2)
    if not (np.isfinite(m) and m > 0):
        click.echo(f"bad mass: {m} must be finite and positive", err=True)
        sys.exit(2)
    query = convolution.ShellIntegralQuery(qv, m)
    rows = []

    def row(name, closed_fn, oracle_fn):
        """One CSV row; the oracle cells stay empty without an oracle
        (oracle_fn None) or when it raises."""
        try:
            closed = closed_fn()
        except LightconeError:
            return
        oracle = rel = ""
        try:
            if oracle_fn is not None:
                oracle = oracle_fn()
                rel = abs(closed - oracle) / max(1e-300, abs(closed))
        except LightconeError:
            pass
        rows.append((q, m, name, closed, oracle, rel))

    # the K0 oracle reduces a rest-frame momentum only
    rest_frame = all(abs(c) < 1e-12 for c in qv[1:])
    row(
        "conv_K0_shell",
        lambda: convolution.conv_K0_shell(query),
        (lambda: convolution.conv_K0_shell_oracle(qv[0], m)) if rest_frame else None,
    )
    row(
        "conv_masscone_shell",
        lambda: convolution.conv_masscone_shell(query),
        lambda: convolution.conv_masscone_shell_oracle(query),
    )
    _write_csv(out, ("q", "m", "name", "closed", "oracle", "rel_err"), rows)
    sys.exit(0)


@main.group("slayer")
def slayer_group():
    """Surface-layer functional evaluation."""


@slayer_group.command("eval")
@click.option("--config", "config_path", default=None, type=click.Path())
@click.option("--out", default=None, type=click.Path())
def slayer_eval(config_path, out):
    """Evaluate the surface-layer functionals on a field configuration."""
    try:
        _, _, maxwell_fields, jets = fields.load_config(config_path or default_config())
    except ConfigInvalid as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    bose = (
        ("sigma_bose", slayer.sigma_bose, "bose-symplectic"),
        ("ip_bose", slayer.ip_bose, "bose-inner-product"),
    )
    fermi = (
        ("sigma_fermi", slayer.sigma_fermi, "fermi-symplectic"),
        ("ip_fermi", slayer.ip_fermi, "fermi-inner-product"),
    )
    report = []
    for items, functionals in ((maxwell_fields, bose), (jets, fermi)):
        for i, u in enumerate(items):
            for j in range(i, len(items)):
                for name, fn, paper_ref in functionals:
                    report.append(_entry(f"{name}[{i},{j}]", fn(u, items[j]), 0.0, paper_ref, ok=True))
    _write_json(report, out)
    sys.exit(0)


@main.command("report")
@click.option("--in", "in_path", required=True, type=click.Path())
def report_cmd(in_path):
    """Render a JSON report as one line per check."""
    try:
        with open(in_path) as fh:
            entries = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        click.echo(f"cannot read report: {exc}", err=True)
        sys.exit(2)
    failed = False
    for entry in entries:
        line = (
            f"{entry.get('suite', '-')}/{entry['check']}: {entry['status'].upper()}"
            f" (value {entry['value']:.3e}, tol {entry['tolerance']:.3e})"
        )
        click.echo(line)
        failed = failed or entry["status"] == "fail"
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
