"""Command-line front end: verification suites, kernel and piecewise-function
tables, convolution evaluation, surface-layer evaluation from a JSON field
configuration, and report rendering.

Exit codes: 0 no check failed, 1 at least one check failed, 2 configuration
or usage error, or an --out that cannot be written.  A check whose
hypothesis does not hold is reported as skipped and does not fail the run.
Reports are strict JSON and deterministic for a fixed (config, seed); a
value that is not finite on the given configuration exits 2 instead.
"""

from __future__ import annotations

import csv
import json
import math
import sys

import click

from .errors import ConfigInvalid, ConfigMalformed, LightconeError


def _write(out, emit, newline=None):
    """Call emit on the file --out names, or on stdout without --out.  An
    --out that cannot be opened or written exits 2."""
    if not out:
        emit(sys.stdout)
        return
    try:
        with open(out, "w", newline=newline) as fh:
            emit(fh)
    except OSError as exc:
        click.echo(f"cannot write output: {exc}", err=True)
        sys.exit(2)


def _write_json(report, out):
    """Write the report as strict JSON.  A value or tolerance that is not
    finite is a config error (exit 2, no report): a finite box or mass can
    still underflow or overflow inside a functional, where numpy's
    floating-point warnings are therefore off."""
    for entry in report:
        if not (math.isfinite(entry["value"]) and math.isfinite(entry["tolerance"])):
            click.echo(f"config error: {entry['check']} is not finite on this configuration", err=True)
            sys.exit(2)
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write(out, lambda fh: fh.write(text))


@click.group()
def main():
    """Verification tools for light-cone kernels, line integrals,
    convolutions, and surface-layer functionals."""


@main.command()
@click.option("--suites", default="all", help="comma-separated suite names or 'all'")
@click.option("--config", "config_path", default=None, type=click.Path())
@click.option("--seed", default=7, type=click.IntRange(min=0))
@click.option("--tol", "tols", multiple=True, help="suite=tolerance overrides")
@click.option("--out", default=None, type=click.Path())
def verify(suites, config_path, seed, tols, out):
    """Run verification suites and write a JSON report."""
    import numpy as np

    from . import checks, fields

    names = tuple(checks._SUITES) if suites == "all" else tuple(s.strip() for s in suites.split(","))
    for name in names:
        if name not in checks._SUITES:
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
        if key not in checks._SUITES or not (math.isfinite(tolerances[key]) and tolerances[key] >= 0):
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
            entry = checks._entry("config-admissibility", 1.0, 0.0, "on-shell-constraints", ok=False)
            _write_json([dict(entry, suite="fields", detail=str(exc))], out)
            sys.exit(1)
    with np.errstate(all="ignore"):
        report = checks.run_suites(names, seed, tolerances, config)
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
    from . import kernels

    if kid not in kernels.KERNEL_IDS:
        click.echo(f"unknown kernel id: {kid}", err=True)
        sys.exit(2)
    omegas = _grid("omega", omega_min, omega_max, omega_step)
    ks = _grid("k", k_min, k_max, k_step)
    rows = kernels.kernel_table(kid, omegas.tolist(), ks.tolist())
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
    import numpy as np

    from . import lineint

    alphas = _grid("a", a_min, a_max, a_step)
    betas = _grid("b", b_min, b_max, b_step)
    a, b = np.meshgrid(alphas, betas, indexing="ij")
    values = lineint.eval_piecewise(fn, a, b)
    # Python floats: csv formats them faster than numpy scalars, to the same text
    columns = (a.ravel().tolist(), b.ravel().tolist(), values.ravel().tolist())
    rows = [(x, y, fn, v) for x, y, v in zip(*columns)]
    _write_csv(out, ("alpha", "beta", "fn", "value"), rows)
    sys.exit(0)


def _grid(axis, lo, hi, step):
    """The table axis lo, lo + step, ... up to hi.  Exits 2 unless the
    bounds are finite, the step is finite and positive, and numpy can
    build the axis."""
    import numpy as np

    try:
        if math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step) and step > 0:
            return np.arange(lo, hi + 0.5 * step, step)
    except (ValueError, MemoryError):  # too many points
        pass
    click.echo(
        f"bad {axis} grid: --{axis}-min {lo} and --{axis}-max {hi} must be finite,"
        f" --{axis}-step {step} finite, positive and not too small",
        err=True,
    )
    sys.exit(2)


def _write_csv(out, header, rows):
    def emit(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    _write(out, emit, newline="")


# Largest relative error between a convolution closed form and its oracle.
CONVOLUTION_ORACLE_RTOL = 1e-10


@main.command("convolution")
@click.option("--q", required=True, help="comma-separated four-vector")
@click.option("--m", default=1.0, type=float)
@click.option("--out", default=None, type=click.Path())
def convolution_cmd(q, m, out):
    """Evaluate the shell convolutions and their oracles at a momentum,
    as CSV rows (query, closed form, oracle, relative error).  Exits 1,
    after writing every row, when an oracle's relative error exceeds
    CONVOLUTION_ORACLE_RTOL."""
    try:
        qv = tuple(float(c) for c in q.split(","))
        if len(qv) != 4:
            raise ValueError("need four components")
        # a finite component can still overflow when squared
        if not all(math.isfinite(c * c) for c in qv):
            raise ValueError("components must have finite squares")
    except ValueError as exc:
        click.echo(f"bad momentum: {exc}", err=True)
        sys.exit(2)
    if not (math.isfinite(m * m) and m > 0):
        click.echo(f"bad mass: {m} must be positive with a finite square", err=True)
        sys.exit(2)
    from . import convolution

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
    sys.exit(1 if any(rel != "" and not rel <= CONVOLUTION_ORACLE_RTOL for *_, rel in rows) else 0)


@main.group("slayer")
def slayer_group():
    """Surface-layer functional evaluation."""


@slayer_group.command("eval")
@click.option("--config", "config_path", default=None, type=click.Path())
@click.option("--out", default=None, type=click.Path())
def slayer_eval(config_path, out):
    """Evaluate the surface-layer functionals on a field configuration."""
    import numpy as np

    from . import checks, fields, slayer

    try:
        _, _, maxwell_fields, jets = fields.load_config(config_path or fields.default_config())
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
    with np.errstate(all="ignore"):
        report = [
            checks._entry(f"{name}[{i},{j}]", fn(items[i], items[j]), 0.0, paper_ref, ok=True)
            for items, functionals in ((maxwell_fields, bose), (jets, fermi))
            for i in range(len(items))
            for j in range(i, len(items))
            for name, fn, paper_ref in functionals
        ]
    _write_json(report, out)
    sys.exit(0)


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _report_problem(entries):
    """Why `entries` is not a report, or None: a report is a list of objects,
    each with a string check, a status pass, fail or skipped and a finite
    value and tolerance (the reader makes every number a float)."""
    if not isinstance(entries, list):
        return "not a JSON list"
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            return f"entry {i} is not an object"
        if not isinstance(entry.get("check"), str):
            return f"entry {i} has no string check"
        if entry.get("status") not in ("pass", "fail", "skipped"):
            return f"entry {i} has no status pass, fail or skipped"
        for key in ("value", "tolerance"):
            if not (isinstance(entry.get(key), float) and math.isfinite(entry[key])):
                return f"entry {i} has no finite number {key}"
    return None


@main.command("report")
@click.option("--in", "in_path", required=True, type=click.Path())
def report_cmd(in_path):
    """Render a JSON report as one line per check.  Exits 2 unless the file
    is a strict-JSON report (see _report_problem)."""
    try:
        with open(in_path) as fh:
            entries = json.load(fh, parse_int=float, parse_constant=_reject_constant)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep
        click.echo(f"cannot read report: {exc}", err=True)
        sys.exit(2)
    problem = _report_problem(entries)
    if problem:
        click.echo(f"malformed report: {problem}", err=True)
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
