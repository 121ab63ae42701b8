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

import argparse
import csv
import gc
import itertools
import json
import math
import os
import sys

from .errors import ConfigInvalid, ConfigMalformed, LightconeError


def _abort(message):
    """Write message to stderr and exit 2: a usage, config or output error."""
    print(message, file=sys.stderr)
    sys.exit(2)


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
        _abort(f"cannot write output: {exc}")


def _write_json(report, out):
    """Write the report as strict JSON.  A value or tolerance that is not
    finite is a config error (exit 2, no report): a finite box or mass can
    still underflow or overflow inside a functional, where numpy's
    floating-point warnings are therefore off."""
    for entry in report:
        if not (math.isfinite(entry["value"]) and math.isfinite(entry["tolerance"])):
            _abort(f"config error: {entry['check']} is not finite on this configuration")
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write(out, lambda fh: fh.write(text))


def verify(suites, config_path, seed, tols, out):
    """Run verification suites and write a JSON report."""
    import numpy as np

    from . import checks, fields

    names = tuple(checks._SUITES) if suites == "all" else tuple(s.strip() for s in suites.split(","))
    for name in names:
        if name not in checks._SUITES:
            _abort(f"unknown suite: {name}")
    tolerances = {}
    for item in tols:
        if "=" not in item:
            _abort(f"bad --tol override: {item}")
        key, _, val = item.partition("=")
        try:
            tolerances[key] = float(val)
        except ValueError:
            tolerances[key] = float("nan")
        # a non-finite tolerance could not be written to the strict-JSON
        # report; a negative one fails every check; an unknown suite name
        # would be ignored
        if key not in checks._SUITES or not (math.isfinite(tolerances[key]) and tolerances[key] >= 0):
            _abort(f"bad --tol override: {item}")
    config = None
    if config_path is not None:
        try:
            config = fields.load_config(config_path)
        except ConfigMalformed as exc:
            _abort(f"config error: {exc}")
        except ConfigInvalid as exc:
            # Inadmissible field content is a failing check, not a usage error.
            entry = checks._entry("config-admissibility", 1.0, 0.0, "on-shell-constraints", ok=False)
            _write_json([dict(entry, suite="fields", detail=str(exc))], out)
            sys.exit(1)
    with np.errstate(all="ignore"):
        report = checks.run_suites(names, seed, tolerances, config)
    _write_json(report, out)
    sys.exit(1 if any(e["status"] == "fail" for e in report) else 0)


def kernels_cmd(kid, omega_min, omega_max, omega_step, k_min, k_max, k_step, out):
    """Tabulate a momentum-space kernel on an (omega, k) grid as CSV."""
    from . import kernels

    if kid not in kernels.KERNEL_IDS:
        _abort(f"unknown kernel id: {kid}")
    omegas = _grid("omega", omega_min, omega_max, omega_step)
    ks = _grid("k", k_min, k_max, k_step)
    rows = kernels.kernel_table(kid, omegas.tolist(), ks.tolist())
    _write_csv(out, ("omega", "k", "region", "re", "im"), rows)
    sys.exit(0)


def lineint_cmd(fn, a_min, a_max, a_step, b_min, b_max, b_step, out):
    """Tabulate a piecewise line-integral function on an (alpha, beta) grid."""
    if fn not in ("J", "I", "U", "Jtilde", "V"):
        _abort(f"unknown function: {fn}")
    import numpy as np

    from . import lineint

    alphas = _grid("a", a_min, a_max, a_step)
    betas = _grid("b", b_min, b_max, b_step)
    a, b = np.meshgrid(alphas, betas, indexing="ij")
    values = lineint.eval_piecewise(fn, a, b)
    # each axis value formatted once, paired in the meshgrid's 'ij' order;
    # Python floats: csv formats them faster than numpy scalars, to the same text
    points = itertools.product(map(repr, alphas.tolist()), map(repr, betas.tolist()))
    rows = [(x, y, fn, v) for (x, y), v in zip(points, values.ravel().tolist())]
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
    _abort(
        f"bad {axis} grid: --{axis}-min {lo} and --{axis}-max {hi} must be finite,"
        f" --{axis}-step {step} finite, positive and not too small"
    )


def _write_csv(out, header, rows):
    def emit(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    _write(out, emit, newline="")


# Largest relative error between a convolution closed form and its oracle.
CONVOLUTION_ORACLE_RTOL = 1e-10


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
        _abort(f"bad momentum: {exc}")
    if not (math.isfinite(m * m) and m > 0):
        _abort(f"bad mass: {m} must be positive with a finite square")
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


def slayer_eval(config_path, out):
    """Evaluate the surface-layer functionals on a field configuration."""
    import numpy as np

    from . import checks, fields, slayer

    try:
        _, _, maxwell_fields, jets = fields.load_config(config_path or fields.default_config())
    except ConfigInvalid as exc:
        _abort(f"config error: {exc}")
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


def report_cmd(in_path):
    """Render a JSON report as one line per check.  Exits 2 unless the file
    is a strict-JSON report (see _report_problem)."""
    try:
        with open(in_path) as fh:
            entries = json.load(fh, parse_int=float, parse_constant=_reject_constant)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep
        _abort(f"cannot read report: {exc}")
    problem = _report_problem(entries)
    if problem:
        _abort(f"malformed report: {problem}")
    failed = False
    for entry in entries:
        line = (
            f"{entry.get('suite', '-')}/{entry['check']}: {entry['status'].upper()}"
            f" (value {entry['value']:.3e}, tol {entry['tolerance']:.3e})"
        )
        print(line)
        failed = failed or entry["status"] == "fail"
    sys.exit(1 if failed else 0)


def _seed(text):
    """--seed: an integer >= 0."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 0")
    return seed


def _parser():
    """The argument parser: one subcommand per command function, which
    each parsed namespace names as `run`.  A usage error exits 2, and no
    option may be abbreviated."""

    def command(subparsers, name, run):
        doc = run.__doc__.split(".")[0] + "."
        parser = subparsers.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        parser.set_defaults(run=run)
        return parser

    def grid(parser, axis, lo, hi, step):
        for key, value in (("min", lo), ("max", hi), ("step", step)):
            parser.add_argument(f"--{axis}-{key}", type=float, default=value)

    parser = argparse.ArgumentParser(
        prog="lightcone",
        description="Verification tools for light-cone kernels, line integrals,"
        " convolutions, and surface-layer functionals.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(metavar="command", required=True)

    sub = command(commands, "verify", verify)
    sub.add_argument("--suites", default="all", help="comma-separated suite names or 'all'")
    sub.add_argument("--config", dest="config_path", metavar="PATH")
    sub.add_argument("--seed", type=_seed, default=7)
    sub.add_argument("--tol", dest="tols", action="append", default=[], metavar="SUITE=TOL",
                     help="per-suite tolerance override; may repeat")
    sub.add_argument("--out")

    sub = command(commands, "kernels", kernels_cmd)
    sub.add_argument("--id", dest="kid", metavar="ID", required=True)
    grid(sub, "omega", -3.0, 3.0, 0.1)
    grid(sub, "k", 0.1, 3.0, 0.1)
    sub.add_argument("--out")

    sub = command(commands, "lineint", lineint_cmd)
    sub.add_argument("--fn", required=True)
    grid(sub, "a", -2.0, 3.0, 0.05)
    grid(sub, "b", -2.0, 3.0, 0.05)
    sub.add_argument("--out")

    sub = command(commands, "convolution", convolution_cmd)
    sub.add_argument("--q", required=True, help="comma-separated four-vector")
    sub.add_argument("--m", type=float, default=1.0)
    sub.add_argument("--out")

    slayer = commands.add_parser("slayer", help="Surface-layer functional evaluation.", allow_abbrev=False)
    sub = command(slayer.add_subparsers(metavar="command", required=True), "eval", slayer_eval)
    sub.add_argument("--config", dest="config_path", metavar="PATH")
    sub.add_argument("--out")

    sub = command(commands, "report", report_cmd)
    sub.add_argument("--in", dest="in_path", metavar="PATH", required=True)
    return parser


def _attach_values(argv):
    """argv with each `--option value` pair written as `--option=value`.
    Every option but --help takes one value, and the argument after it is
    that value whatever it looks like; argparse alone would read a value
    such as -1e-3 or -2,0,0,0 as an option.  A `--` ends the options."""
    out, rest = [], list(argv)
    while rest:
        arg = rest.pop(0)
        if arg == "--":
            return [*out, arg, *rest]
        if arg.startswith("--") and "=" not in arg and arg != "--help" and rest:
            arg = f"{arg}={rest.pop(0)}"
        out.append(arg)
    return out


def _run(argv):
    options = vars(_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv)))
    options.pop("run")(**options)


def main(argv=None, standalone_mode=True):
    """Run the command that argv (default sys.argv[1:]) names.  Every
    command and every usage error ends in SystemExit with the exit code.

    standalone_mode=True, the console script's and `python -m
    lightcone.cli`'s call, means main owns its process.  numpy, which the
    commands import later, then runs one OpenBLAS thread unless
    OPENBLAS_NUM_THREADS is set, since no BLAS call here is large enough to
    pay for a worker.  Cyclic garbage collection is off, and every object
    is frozen before exit, so the interpreter's final collections skip
    them while stdout still flushes and atexit still runs.  A reader that
    closes stdout early exits 1 quietly.  standalone_mode=False is for a
    caller's process, such as a test's: main then touches neither the
    environment nor gc."""
    if not standalone_mode:
        _run(argv)
        return
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    try:
        try:
            _run(argv)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # as under `| head`: point stdout at devnull so the final flush
        # cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    finally:
        gc.freeze()


if __name__ == "__main__":
    main()
