"""Operations of the benchmark workloads and the checks on their outputs.

An op is one CLI command (run as a fresh `python -m lightcone.cli` process,
or in-process through `lightcone.cli.main` in the traced replay) or one
in-process oracle evaluation.  Every op is checked after it runs; the check
returns an outcome:

- "ok": every check passed;
- "known_defect": a documented defect of the program showed (a check
  returns its KNOWN_DEFECTS key); the op does not count as passed in
  `pass_ratio` but is not a failure;
- "failed": any other broken check, or a value that no longer matches the
  reference digest recorded for the op's inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SIG_DIGITS = 6  # values enter the reference digests rounded to this many digits

KNOWN_DEFECTS = {
    "verify-tolerance-infinity": (
        "verify writes \"tolerance\": Infinity for fermi-conservation when "
        "pairing_predicates flags a quadruple; strict JSON parsers reject it"
    ),
}

TWO_PI2 = 2.0 * math.pi**2
ORACLE_RATIO_CONSTANT = {
    "IK0_over_t": -TWO_PI2,
    "IK0_over_t2": -TWO_PI2,
    "Delta_over_t": -2.0 * math.pi,
}


@dataclass
class Op:
    id: str
    key: str  # identity of the op's inputs; reference digests are keyed by it
    check: object  # check(op, result) -> ("ok" or a KNOWN_DEFECTS key, digest payload)
    argv: list = None  # CLI arguments, for CLI ops
    call: object = None  # zero-argument callable, for in-process ops
    props: dict = field(default_factory=dict)

    @property
    def command(self):
        """Span name of a CLI op: cli.<command>."""
        return "cli." + ("slayer_eval" if self.argv[0] == "slayer" else self.argv[0])


class CheckFailed(Exception):
    pass


def expect(cond, reason):
    if not cond:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


def child_env():
    """Environment of the CLI processes: the package comes from src/, and no
    bytecode cache is written, so every op compiles it as the first run of
    an uncached install would and results do not depend on earlier runs."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_subprocess(op, env):
    proc = subprocess.run(
        [sys.executable, "-m", "lightcone.cli", *op.argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_inprocess(op, cli):
    """Run a CLI op through lightcone.cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(op.argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def evaluate(op, result, reference):
    """Check one op's result; returns (outcome, reason, digest)."""
    try:
        outcome, payload = op.check(op, result)
    except CheckFailed as exc:
        return "failed", str(exc), None
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return "failed", f"{type(exc).__name__}: {exc}", None
    dig = digest(payload)
    want = reference.get(op.key)
    if want is not None and want != dig:
        return "failed", f"digest {dig} differs from reference {want}", dig
    if outcome in KNOWN_DEFECTS:
        return "known_defect", KNOWN_DEFECTS[outcome], dig
    return "ok", "", dig


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def canon(v, floor=0.0):
    """A value as it enters a digest: SIG_DIGITS significant digits, with
    magnitudes at or below `floor` (roundoff) read as zero."""
    v = float(v)
    if math.isnan(v):
        return "nan"
    if abs(v) <= floor:
        return "0"
    return f"{v:.{SIG_DIGITS - 1}e}"


def canon_rel(values, rel=1e-9):
    """Canonical values with the floor relative to the largest finite one."""
    finite = [abs(float(v)) for v in values if math.isfinite(float(v))]
    floor = rel * max(finite, default=0.0)
    return [canon(v, floor) for v in values]


def digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


def strict_json(text):
    """Parse JSON as a strict parser would: NaN and Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# checks on CLI outputs
# ---------------------------------------------------------------------------


def _expect_exit(code, report):
    failed = any(e["status"] == "fail" for e in report)
    expect(code in (0, 1, 2), f"exit code {code} outside the 0/1/2 contract")
    expect(code == (1 if failed else 0), f"exit code {code} disagrees with statuses")


def check_verify(op, result):
    code, _, _ = result
    text = Path(op.props["out"]).read_text()
    outcome = "ok"
    try:
        report = strict_json(text)
    except ValueError:
        report = json.loads(text)
        bad = [
            (e["check"], k)
            for e in report
            for k in ("value", "tolerance")
            if not math.isfinite(e[k])
        ]
        known = op.props.get("family") == "independent" and bad == [
            ("fermi-conservation", "tolerance")
        ]
        expect(known, f"non-finite numbers in report: {bad}")
        outcome = "verify-tolerance-infinity"
    expect(report, "empty report")
    for e in report:
        expect(e["status"] in ("pass", "fail", "skipped"), f"bad status {e['status']}")
    _expect_exit(code, report)
    payload = sorted((e.get("suite", ""), e["check"], canon(e["value"], 1e-9)) for e in report)
    return outcome, payload


def check_report(op, result):
    code, out, _ = result
    report = json.loads(Path(op.props["report"]).read_text())
    lines = out.splitlines()
    expect(len(lines) == len(report), f"{len(lines)} lines for {len(report)} entries")
    prefixes = []
    for line, e in zip(lines, report):
        prefix = f"{e.get('suite', '-')}/{e['check']}: {e['status'].upper()}"
        expect(line.startswith(prefix), f"line {line!r} does not render {prefix!r}")
        prefixes.append(prefix)
    _expect_exit(code, report)
    return "ok", prefixes


def check_slayer_eval(op, result):
    code, _, _ = result
    expect(code == 0, f"slayer eval exited {code}")
    report = strict_json(Path(op.props["out"]).read_text())
    n_jets, n_maxwell = op.props["jets"], op.props["maxwell"]
    want = n_maxwell * (n_maxwell + 1) + n_jets * (n_jets + 1)
    expect(len(report) == want, f"{len(report)} entries, expected {want}")
    kinds = {}
    for e in report:
        name, _, idx = e["check"].partition("[")
        i, j = (int(s) for s in idx.rstrip("]").split(","))
        kinds.setdefault(name, {})[(i, j)] = e["value"]
    sigma = kinds.get("sigma_fermi", {})
    # sigma_fermi and ip_fermi share their normalization, so the ip values
    # set the scale of roundoff even where every off-diagonal sigma is zero
    scale = max((abs(v) for k in ("sigma_fermi", "ip_fermi") for v in kinds.get(k, {}).values()),
                default=0.0)
    for i in range(n_jets):
        expect(abs(sigma[(i, i)]) <= 1e-10 * scale, f"sigma_fermi[{i},{i}] = {sigma[(i, i)]}")
        ip = kinds["ip_fermi"][(i, i)]
        if op.props["ip_positive"][i]:
            expect(ip > 0.0, f"ip_fermi[{i},{i}] = {ip} not positive")
        else:
            expect(ip == 0.0, f"ip_fermi[{i},{i}] = {ip}, expected 0 (all pairs opposite)")
    for i in range(n_maxwell):
        expect(kinds["ip_bose"][(i, i)] >= 0.0, f"ip_bose[{i},{i}] negative")
    payload = {
        name: [[i, j, c] for (i, j), c in zip(vals, canon_rel(list(vals.values())))]
        for name, vals in kinds.items()
    }
    return "ok", payload


def _read_csv(path, header):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    expect(rows and rows[0] == list(header), f"bad CSV header {rows[:1]}")
    return rows[1:]


def _grid_size(lo, hi, step):
    return len(np.arange(lo, hi + 0.5 * step, step))


def check_kernels(op, result):
    code, _, _ = result
    expect(code == 0, f"kernels exited {code}")
    rows = _read_csv(op.props["out"], ("omega", "k", "region", "re", "im"))
    want = _grid_size(-3.0, 3.0, 0.1) * _grid_size(0.1, 3.0, 0.1)
    expect(len(rows) == want, f"{len(rows)} rows, grid has {want}")
    re = canon_rel([r[3] for r in rows])
    im = canon_rel([r[4] for r in rows])
    return "ok", [[r[2], a, b] for r, a, b in zip(rows, re, im)]


def check_lineint(op, result):
    code, _, _ = result
    expect(code == 0, f"lineint exited {code}")
    rows = _read_csv(op.props["out"], ("alpha", "beta", "fn", "value"))
    want = _grid_size(-2.0, 3.0, 0.05) ** 2
    expect(len(rows) == want, f"{len(rows)} rows, grid has {want}")
    return "ok", canon_rel([r[3] for r in rows])


def check_convolution(op, result):
    code, _, _ = result
    expect(code == 0, f"convolution exited {code}")
    rows = _read_csv(op.props["out"], ("q", "m", "name", "closed", "oracle", "rel_err"))
    by_name = {r[2]: r for r in rows}
    expect(set(by_name) == {"conv_K0_shell", "conv_masscone_shell"}, f"rows {sorted(by_name)}")
    with_oracle = ["conv_masscone_shell"] + (["conv_K0_shell"] if op.props["rest_frame"] else [])
    for name in with_oracle:
        expect(by_name[name][5] != "", f"{name} has no oracle value")
    for r in rows:
        if r[5] != "":
            expect(float(r[5]) <= 1e-10, f"{r[2]} rel_err {r[5]} > 1e-10")
    return "ok", [[r[2], canon(r[3]), canon(r[4]) if r[4] else ""] for r in rows]


# ---------------------------------------------------------------------------
# workload op lists
# ---------------------------------------------------------------------------


def _q_arg(q):
    return ",".join(repr(c) for c in q)


def cli_defaults_pass(seed, p, tmp):
    """The six ops of pass p of cli_defaults, at shipped grid defaults."""
    x = gen.cli_pass(seed, p)
    report = str(tmp / f"verify-{p}.json")
    ops = [
        Op(f"p{p}.verify", f"verify --suites all --seed {x['verify_seed']}", check_verify,
           ["verify", "--suites", "all", "--seed", str(x["verify_seed"]), "--out", report],
           props={"out": report}),
        Op(f"p{p}.report", f"report of verify --suites all --seed {x['verify_seed']}", check_report,
           ["report", "--in", report], props={"report": report}),
        Op(f"p{p}.slayer_eval", "slayer eval", check_slayer_eval,
           ["slayer", "eval", "--out", str(tmp / "eval.json")],
           props={"out": str(tmp / "eval.json"), "jets": 2, "maxwell": 2, "ip_positive": [True, True]}),
        Op(f"p{p}.kernels", f"kernels --id {x['kernel_id']}", check_kernels,
           ["kernels", "--id", x["kernel_id"], "--out", str(tmp / "kernels.csv")],
           props={"out": str(tmp / "kernels.csv")}),
        Op(f"p{p}.lineint", f"lineint --fn {x['lineint_fn']}", check_lineint,
           ["lineint", "--fn", x["lineint_fn"], "--out", str(tmp / "lineint.csv")],
           props={"out": str(tmp / "lineint.csv")}),
        Op(f"p{p}.convolution", f"convolution --q {_q_arg(x['q'])}", check_convolution,
           ["convolution", "--q", _q_arg(x["q"]), "--out", str(tmp / "convolution.csv")],
           props={"out": str(tmp / "convolution.csv"), "rest_frame": p % 2 == 0}),
    ]
    return ops, {"verify_seed": x["verify_seed"], "kernel_id": x["kernel_id"],
                 "lineint_fn": x["lineint_fn"], "q": list(x["q"])}


def _write_config(path, cfg):
    text = json.dumps(cfg, sort_keys=True)
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def slayer_deep_ops(seed, tmp):
    ops, props = [], []
    for i in range(len(gen.DEEP_TABLE)):
        cfg, pr = gen.deep_config(seed, i)
        path = tmp / f"deep-{i}.json"
        sha = _write_config(path, cfg)
        out = str(tmp / f"deep-{i}.out.json")
        vseed = int(gen.rng_for(seed, 5, i).integers(0, 2**31))
        ops.append(Op(
            f"deep{i}", f"verify --suites slayer --seed {vseed} --config {sha}", check_verify,
            ["verify", "--suites", "slayer", "--seed", str(vseed), "--config", str(path), "--out", out],
            props={**pr, "out": out},
        ))
        props.append({**pr, "config_sha256": sha})
    return ops, props


def _ip_positive(jet):
    """ip_fermi(jet, jet) vanishes exactly when every (delta_psi, psi) momentum
    pair is opposite, where the definiteness bracket is zero."""
    return any(
        tuple(d["n"]) != tuple(-c for c in p["n"]) for d in jet["delta_psi"] for p in jet["psi"]
    )


def slayer_wide_ops(seed, tmp):
    ops, props = [], []
    for i in range(len(gen.WIDE_TABLE)):
        cfg, pr = gen.wide_config(seed, i)
        path = tmp / f"wide-{i}.json"
        sha = _write_config(path, cfg)
        out = str(tmp / f"wide-{i}.out.json")
        ops.append(Op(
            f"wide{i}", f"slayer eval --config {sha}", check_slayer_eval,
            ["slayer", "eval", "--config", str(path), "--out", out],
            props={**pr, "out": out, "ip_positive": [_ip_positive(j) for j in cfg["jets"]]},
        ))
        props.append({**pr, "config_sha256": sha})
    return ops, props


# ---------------------------------------------------------------------------
# oracle_sweep: in-process oracle evaluations against closed forms
# ---------------------------------------------------------------------------


def _close(value, want, rel, what):
    expect(abs(value - want) <= rel * max(abs(want), 1e-300), f"{what}: {value} vs closed form {want}")


def _beta_moment(w, m):
    """Integral over [0, 1] of tau^m * tau^p (1-tau)^q (tau - tau^2)^r."""
    p, q, r = w
    a, b = p + r + m, q + r
    return float(Fraction(math.factorial(a) * math.factorial(b), math.factorial(a + b + 1)))


def nested_closed_form(a, b, x, y, w1, w2):
    """Closed form of nested_line_integral for F(z) = a.z and G(z) = b.z."""
    a, b, x, y = (np.asarray(v) for v in (a, b, x, y))
    m0, m1 = _beta_moment(w2, 0), _beta_moment(w2, 1)
    n0, n1, n2 = (_beta_moment(w1, m) for m in range(3))
    ax, ad = a @ x, a @ (y - x)
    c0 = (b @ x) * (m0 - m1) + (b @ y) * m1
    c1 = (b @ (y - x)) * (m0 - m1)
    return ax * c0 * n0 + (ax * c1 + ad * c0) * n1 + ad * c1 * n2


def gaussian_line_integral(coeffs, shift, x, direction):
    """Closed form of unbounded_line_integral for the current
    j(z) = coeffs * exp(-|z - shift|^2 / 18) along xi = (1, direction):
    kappa e^{-c/18} (K(B) - K(-B)) with K(B) = int_0^inf a^2 e^{-A a^2 - B a} da."""
    xi = np.concatenate(([1.0], direction))
    d = np.asarray(x) - np.asarray(shift)
    big_a, big_b = 2.0 / 18.0, 2.0 * float(d @ xi) / 18.0

    def k(bb):
        f = 0.5 * math.sqrt(math.pi / big_a) * math.exp(bb * bb / (4 * big_a)) * math.erfc(
            bb / (2 * math.sqrt(big_a))
        )
        return f * (1 / (2 * big_a) + bb * bb / (4 * big_a**2)) - bb / (4 * big_a**2)

    kappa = coeffs[0] - float(np.asarray(direction) @ np.asarray(coeffs[1:]))
    return kappa * math.exp(-float(d @ d) / 18.0) * (k(big_b) - k(-big_b))


def bidist_closed_form(u, v, ladder=(5e-2, 2.5e-2)):
    """The damped bi-distribution with closed-form blocks, extrapolated to
    zero damping from the two finest rungs as the oracle does."""

    def assemble(eps):
        e = lambda w: -2j * w / (w * w + eps * eps)
        d = lambda w: 2.0 * eps / (w * w + eps * eps)
        return e(u) * d(v) - d(u) * e(v) - 2.0 * e(u) * d(u + v)

    (e1, e2), (v1, v2) = ladder, [assemble(eps) for eps in ladder]
    return v2 + (v2 - v1) * e2 / (e1 - e2)


def oracle_sweep_pass(seed, p, lc):
    """The ten oracle ops of pass p (seven families, all variants of each);
    `lc` maps module names to the imported lightcone modules, looked up at
    call time so that the traced run's wrappers apply."""
    x = gen.oracle_pass(seed, p)
    ops = []

    def add(name, args, call, check, variant=None):
        def checked(op, value):
            check(value)
            vals = np.atleast_1d(np.asarray(value, dtype=complex)).ravel()
            return "ok", canon_rel([c for v in vals for c in (v.real, v.imag)])

        op_id = f"p{p}.{name}" + (f".{variant}" if variant else "")
        ops.append(Op(op_id, f"{name} {args!r}", checked, call=call, props={"family": name}))

    def add_ratio(kid, w, k):
        add("oracle_ratio", (kid, w, k), lambda: lc["kernels"].oracle_ratio(kid, w, k),
            lambda r: _close(r, ORACLE_RATIO_CONSTANT[kid], 0.01, "oracle_ratio"), kid)

    for args in x["oracle_ratio"]:
        add_ratio(*args)

    sw, sk = x["k0hat_shell_ratio"]
    add("k0hat_shell_ratio", x["k0hat_shell_ratio"], lambda: lc["kernels"].k0hat_shell_ratio(sw, sk),
        lambda r: _close(r, -TWO_PI2, 0.01, "k0hat_shell_ratio"))

    u, v = x["bidist_A_oracle"]

    def bidist_check(r):
        # absolute, as the damped blocks are tested: the extrapolated value
        # is a small difference of O(1) terms
        closed = bidist_closed_form(u, v)
        expect(abs(r - closed) <= 1e-9, f"bidist_A_oracle: {r} vs closed form {closed}")

    add("bidist_A_oracle", x["bidist_A_oracle"], lambda: lc["lineint"].bidist_A_oracle(u, v), bidist_check)

    nl = x["nested_line_integral"]
    a, b = np.asarray(nl["a"]), np.asarray(nl["b"])
    add("nested_line_integral", nl,
        lambda: lc["lineint"].nested_line_integral(
            lambda z: a @ z, lambda z: b @ z, nl["x"], nl["y"], tuple(nl["w1"]), tuple(nl["w2"])),
        lambda r: _close(r, nested_closed_form(a, b, nl["x"], nl["y"], nl["w1"], nl["w2"]),
                         1e-10, "nested_line_integral"))

    pp = x["positivity_probe"]
    coeffs, shift = np.asarray(pp["coeffs"]), np.asarray(pp["shift"])
    px = np.asarray(pp["x"])
    py = px + 0.007 * np.concatenate(([1.0], pp["dir"]))

    def current(point):
        z = point - shift
        return coeffs * np.exp(-float(z @ z) / 18.0)

    def probe_check(r):
        fx = gaussian_line_integral(coeffs, shift, px, pp["dir"])
        fy = gaussian_line_integral(coeffs, shift, py, pp["dir"])
        # the closed form integrates to infinity; the probe stops at the cutoff,
        # which drops a tail of relative size about 1e-9
        _close(r, fx * fy, 1e-7, "positivity_probe")

    add("positivity_probe", pp,
        lambda: lc["slayer"].positivity_probe(current, px, py, cutoff=15.0), probe_check)

    def add_time_average(ta):
        if ta[0] == "gauss":
            lam = ta[1]
            f, s_max = (lambda s: s * np.exp(-lam * s * s)), 12.0
            lhs_closed = math.sqrt(math.pi) / (4 * lam**1.5)
        else:
            om, mu = ta[1], ta[2]
            f, s_max = (lambda s: np.sin(om * s) * np.exp(-mu * abs(s))), 40.0
            lhs_closed = 2 * mu * om / (mu * mu + om * om) ** 2

        def ta_check(r):
            lhs, rhs = r
            _close(lhs, lhs_closed, 1e-9, "time-average lhs")
            expect(abs(rhs - lhs) < 1e-5, f"time-average rhs {rhs} vs lhs {lhs}")

        def ta_call():
            lhs, rhs = lc["slayer"].time_average_identity_check(f, t_list=(100.0,), s_max=s_max)
            return [lhs, rhs[0]]

        add("time_average_identity_check", ta, ta_call, ta_check, ta[0])

    for ta in x["time_average_identity_check"]:
        add_time_average(ta)

    q = x["conv_masscone_shell_oracle"]

    def conv_call():
        conv = lc["convolution"]
        return conv.conv_masscone_shell_oracle(conv.ShellIntegralQuery(q, gen.MASS))

    def conv_check(r):
        conv = lc["convolution"]
        closed = conv.conv_masscone_shell(conv.ShellIntegralQuery(q, gen.MASS))
        expect(abs(closed - r) <= 1e-10 * max(1e-8, abs(closed)), f"masscone oracle {r} vs {closed}")

    add("conv_masscone_shell_oracle", q, conv_call, conv_check)
    return ops, x
