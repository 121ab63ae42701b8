import collections
import contextlib
import csv
import gc
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import gap_family_pair, opposite_transfer_pair, violating_jet_pair
import lightcone
from lightcone import checks, cli, clifford, convolution, fields, kernels, lineint, slayer
from lightcone.errors import OnLightCone
from lightcone.fields import DEFAULT_BOX, load_config


Result = collections.namedtuple("Result", "exit_code stdout stderr")


def invoke(argv):
    """Run the CLI on argv in this process, as main(argv,
    standalone_mode=False): its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    return Result(code, out.getvalue(), err.getvalue())


def test_verify_fast_suites_pass():
    result = invoke(["verify", "--suites", "clifford,lineint,fields", "--seed", "7"])
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert all(e["status"] == "pass" for e in report)
    assert all(
        set(e) >= {"check", "status", "value", "tolerance", "paper_ref", "suite"}
        for e in report
    )


def test_verify_all_suites_pass():
    result = invoke(["verify", "--suites", "all", "--seed", "7"])
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert len(report) == 22
    assert {e["suite"] for e in report} == set(checks._SUITES)
    assert all(e["status"] == "pass" for e in report)


def test_verify_convolution_tol_is_applied():
    result = invoke(["verify", "--suites", "convolution", "--tol", "convolution=1e-20"])
    assert result.exit_code == 1
    report = {e["check"]: e for e in json.loads(result.stdout)}
    assert report["shell-convolution-oracle"]["tolerance"] == 1e-20
    assert report["shell-convolution-oracle"]["status"] == "fail"


@pytest.mark.parametrize("seed", [7, 11, 123])
def test_lineint_suite_catches_a_wrong_V(monkeypatch, seed):
    # V enters the compactification identity only on the unit square
    wrong = lineint.Region(None, None, None, None, lineint.BELOW, (0, -1, -3, 5))
    monkeypatch.setattr(lineint, "V", lineint.PiecewisePoly2((wrong, lineint.V.regions[1])))
    report = {e["check"]: e for e in checks.suite_lineint(seed, 1e-10)}
    assert report["piecewise-identities"]["status"] == "fail"


def _wrap(module, name, change):
    real = getattr(module, name)
    return module, name, lambda *args: change(real(*args))


# one planted defect per report entry that a shared check function gives, as
# (suite, module, attribute, planted value).  A wrong metric sign plants the
# clifford-relations defect; a wrong gamma matrix, which fails the projector
# checks too, has its own test below
_PLANTED = {
    "clifford-relations": ("clifford", clifford, "ETA", np.diag([1.0, -1.0, -1.0, 1.0])),
    "projector-idempotency": ("clifford", *_wrap(clifford, "closed_chain_projectors", lambda r: (r[0], 2 * r[1], r[2]))),
    "projector-ratio": ("clifford", *_wrap(clifford, "projector_ratio_constant", lambda c: 2 * c)),
    "trace-insertion-equivalence": ("clifford", *_wrap(clifford, "sigma_jk", lambda s: 2 * s)),
    "kernel-parity": ("kernels", kernels, "PARITY", {**kernels.PARITY, "IK0_over_t2": 1}),
    "shell-convolution-anchor": ("convolution", *_wrap(convolution, "conv_K0_shell", lambda v: (1 + 1e-10) * v)),
    "shell-convolution-oracle": ("convolution", *_wrap(convolution, "conv_K0_shell_oracle", lambda v: (1 + 1e-8) * v)),
}


@pytest.mark.parametrize("check", sorted(_PLANTED))
def test_suite_catches_a_planted_defect(monkeypatch, check):
    # so no shared check function can pass both verify and the acceptance
    # gate by returning 0
    suite, module, name, planted = _PLANTED[check]
    monkeypatch.setattr(module, name, planted)
    report = {e["check"]: e for e in checks.run_suites((suite,), 7)}
    assert report[check]["status"] == "fail"


def test_verify_reports_a_wrong_gamma_matrix(monkeypatch):
    # gamma^2 in place of gamma^1 makes every closed chain degenerate:
    # random_xi gives up after its capped draws, and both projector checks fail
    monkeypatch.setattr(clifford, "GAMMA", [clifford.GAMMA[i] for i in (0, 2, 2, 3)])
    report = {e["check"]: e["status"] for e in checks.run_suites(("clifford",), 7)}
    assert report["clifford-relations"] == report["projector-idempotency"] == report["projector-ratio"] == "fail"
    result = invoke(["verify", "--suites", "clifford"])
    assert result.exit_code == 1
    assert {e["check"]: e["status"] for e in json.loads(result.stdout, parse_constant=_reject_constant)} == report


def test_verify_unknown_suite_exits_2():
    result = invoke(["verify", "--suites", "bogus"])
    assert result.exit_code == 2


def test_verify_bad_tol_exits_2():
    result = invoke(["verify", "--tol", "nonsense"])
    assert result.exit_code == 2


@pytest.mark.parametrize("override", ["clifford=nan", "slayer=inf", "kernls=1e-8", "clifford=-1", "clifford=abc"])
def test_verify_non_finite_tol_exits_2(override):
    result = invoke(["verify", "--suites", "clifford", "--tol", override])
    assert result.exit_code == 2


@pytest.mark.parametrize("suites", ["fields", "lineint"])
def test_verify_negative_seed_exits_2(suites):
    # the fields suite draws no samples: only the option itself can reject the seed there
    result = invoke(["verify", "--suites", suites, "--seed", "-1"])
    assert result.exit_code == 2


def test_verify_deterministic_reports(tmp_path):
    args = ["verify", "--suites", "clifford,slayer", "--seed", "11"]
    r1 = invoke(args + ["--out", str(tmp_path / "a.json")])
    r2 = invoke(args + ["--out", str(tmp_path / "b.json")])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_verify_failing_config(tmp_path):
    cfg = {
        "box": 100.53096491487338,
        "mass": 1.0,
        "maxwell": [
            {
                "p": [1.0, 0.5, 0.0, 0.0],
                "eps_re": [0.0, 0.0, 1.0, 0.0],
                "eps_im": [0.0] * 4,
            }
        ],
        "jets": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    result = invoke(["verify", "--config", str(path)])
    assert result.exit_code == 1
    report = json.loads(result.stdout)
    assert report[0]["status"] == "fail"
    assert report[0]["paper_ref"]


_PSI = fields.default_config()["jets"][0]["psi"][0]

_MALFORMED_CONFIGS = [
    ("box", float("nan")),
    ("mass", float("nan")),
    ("box", 0.0),
    pytest.param("jets.0.psi.0.n", [0.5, 0, 0], id="non-integer-n"),
    # n is read as JSON integers, so an integral float or a string is malformed too
    pytest.param("jets.0.psi.0.n", [1.0, 0, 0], id="float-n"),
    pytest.param("jets.0.psi.0.n", ["1", 0, 0], id="string-n"),
    pytest.param("jets.0.psi.0.n", [True, 0, 0], id="bool-n"),
    # a boolean row stays malformed when its side also holds an integer row
    pytest.param("jets.0.psi", [{**_PSI, "n": [True, True, True]}, _PSI], id="bool-n-beside-int-n"),
    pytest.param("maxwell.0.p.1", float("nan"), id="maxwell-p-nan"),
    pytest.param("jets.0.delta_psi.0.a_re.0", float("nan"), id="jet-a_re-nan"),
    pytest.param("jets", 5, id="jets-not-a-list"),
    pytest.param("maxwell", 5, id="maxwell-not-a-list"),
    pytest.param("jets", [[1]], id="jet-not-an-object"),
    pytest.param("maxwell", [[1]], id="maxwell-entry-not-an-object"),
    pytest.param("jets.0.psi", 3, id="psi-not-a-list"),
    pytest.param("jets.0.delta_psi", [3], id="delta_psi-mode-not-an-object"),
    # finite numbers whose squares overflow
    pytest.param("jets.0.psi.0.n", [1e300, 0, 0], id="n-outside-int64"),
    pytest.param("box", 1e-300, id="n-frequency-overflows"),
    pytest.param("maxwell.0.p", [1e200, 1e200, 0.0, 0.0], id="maxwell-p-square-overflows"),
    pytest.param("maxwell.0.eps_re", [0.0, 0.0, 1e200, 0.0], id="maxwell-eps-square-overflows"),
    # every config number is a JSON number, and shell and n JSON integers
    pytest.param("box", str(DEFAULT_BOX), id="string-box"),
    pytest.param("mass", True, id="bool-mass"),
    pytest.param("maxwell.0.p.1", str(2.0 * np.pi / DEFAULT_BOX), id="string-p"),
    pytest.param("jets.0.psi.0.a_re.0", str(_PSI["a_re"][0]), id="string-a_re"),
    pytest.param("jets.0.psi.0.shell", "-1", id="string-shell"),
    pytest.param("jets.0.psi.0.shell", -1.5, id="fractional-shell"),
    pytest.param("jets.0.psi.0.shell", -1.0, id="float-shell"),
    # lists of the wrong length, and integers no float64 holds
    pytest.param("maxwell.0.eps_re", [0.0, 0.0, 1.0, 0.0, 0.0], id="eps_re-of-length-5"),
    pytest.param("box", 10**400, id="box-10^400"),
    pytest.param("maxwell.0.p.1", 10**400, id="p-10^400"),
    pytest.param("jets.0.psi.0.a_re.0", 10**400, id="a_re-10^400"),
    # m^2 overflows: a Python float power would raise instead of giving inf
    pytest.param("mass", 1e200, id="mass-square-overflows"),
]


def _malformed_config(tmp_path, key, value, *more):
    """The default config with value at the dotted key (and each further
    key, value pair of more), written to a file."""
    cfg = fields.default_config()
    for key, value in ((key, value), *zip(more[::2], more[1::2])):
        *parents, last = (int(k) if k.isdigit() else k for k in key.split("."))
        entry = cfg
        for k in parents:
            entry = entry[k]
        entry[last] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("key, value", _MALFORMED_CONFIGS)
def test_verify_malformed_config_exits_2(tmp_path, key, value):
    path = _malformed_config(tmp_path, key, value)
    result = invoke(["verify", "--suites", "slayer", "--config", path])
    assert result.exit_code == 2 and result.stderr.startswith("config error:")


@pytest.mark.parametrize("key, value", _MALFORMED_CONFIGS)
def test_slayer_eval_malformed_config_exits_2(tmp_path, key, value):
    path = _malformed_config(tmp_path, key, value)
    result = invoke(["slayer", "eval", "--config", path])
    assert result.exit_code == 2 and result.stderr.startswith("config error:")


# config files as written: a shell of 1e400 (a float too large, read as
# inf), and files json.load cannot read: bad UTF-8, an integer past Python's
# 4300-digit conversion limit, and nesting deeper than the recursion limit
_DEFAULT_TEXT = json.dumps(fields.default_config())
_UNREADABLE_CONFIGS = {
    "shell-1e400": _DEFAULT_TEXT.replace('"shell": -1', '"shell": 1e400', 1).encode(),
    "non-utf-8": b"\xff\xfe{}",
    "mass-of-5000-digits": _DEFAULT_TEXT.replace('"mass": 1.0', '"mass": ' + "1" * 5000, 1).encode(),
    "nested-100000": b"[" * 100_000,
}


@pytest.mark.parametrize("command", [["verify", "--suites", "slayer"], ["slayer", "eval"]])
@pytest.mark.parametrize("name", _UNREADABLE_CONFIGS)
def test_unreadable_or_raw_config_exits_2(tmp_path, command, name):
    path = tmp_path / "cfg.json"
    path.write_bytes(_UNREADABLE_CONFIGS[name])
    result = invoke([*command, "--config", str(path)])
    assert result.exit_code == 2 and result.stderr.startswith("config error:")


@pytest.mark.parametrize("command", [["verify", "--suites", "slayer"], ["slayer", "eval"]])
def test_overflowing_jet_amplitude_exits_2(tmp_path, command):
    # an on-shell amplitude, scaled until ||a||^2 overflows
    cfg = fields.default_config()
    mode = cfg["jets"][0]["psi"][0]
    for key in ("a_re", "a_im"):
        mode[key] = [1e200 * c for c in mode[key]]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    result = invoke([*command, "--config", str(path)])
    assert result.exit_code == 2


def _default_jets_at(box, mass):
    """The default config's two jets, rebuilt on shell with dirac_basis in
    a box of that side at that mass, and no Maxwell fields."""
    cfg = dict(fields.default_config(), box=box, mass=mass, maxwell=[])
    for jet, coefficients in zip(cfg["jets"], fields._JET_COEFFICIENTS):
        for (side, shell), c in zip((("psi", -1), ("delta_psi", 1)), coefficients):
            mode = jet[side][0]
            basis = fields.dirac_basis(shell, fields.lattice_momentum(np.array(mode["n"]), box), mass)
            a = c[0] * basis[0] + c[1] * basis[1]
            mode.update(a_re=a.real.tolist(), a_im=a.imag.tolist())
    return cfg


@pytest.mark.parametrize(
    "box, mass, command, check",
    [
        # box^6 underflows: sigma_fermi is NaN
        (1e-56, 1.0, ["slayer", "eval"], "sigma_fermi[0,0]"),
        (1e-56, 1.0, ["verify", "--suites", "slayer"], "fermi-antisymmetry"),
        # m^3 underflows: ip_fermi is not finite
        (DEFAULT_BOX, 1e-120, ["slayer", "eval"], "ip_fermi[0,0]"),
    ],
)
def test_non_finite_functional_exits_2(tmp_path, box, mass, command, check):
    # a finite, positive box or mass can still make a functional non-finite:
    # a config error, named by its entry, and no report
    path, out = tmp_path / "cfg.json", tmp_path / "report.json"
    path.write_text(json.dumps(_default_jets_at(box, mass)))
    result = invoke([*command, "--config", str(path), "--out", str(out)])
    assert result.exit_code == 2 and not out.exists()
    assert result.stderr == f"config error: {check} is not finite on this configuration\n"


def test_verify_at_a_mass_of_1e_120_writes_its_finite_report(tmp_path):
    # verify calls no ip_fermi, and every value it reports stays finite
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_default_jets_at(DEFAULT_BOX, 1e-120)))
    result = invoke(["verify", "--suites", "slayer", "--config", str(path)])
    assert result.exit_code == 0
    report = json.loads(result.stdout, parse_constant=_reject_constant)
    assert {e["status"] for e in report} == {"pass"}


_DELTA_PSI = fields.default_config()["jets"][0]["delta_psi"][0]


@pytest.mark.parametrize("command", [["verify", "--suites", "slayer"], ["slayer", "eval"]])
@pytest.mark.parametrize(
    "edits",
    [
        pytest.param(
            ("maxwell.0.p", [1.0, 0.5, 0.0, 0.0], "jets.0.delta_psi.0.a_re.0", float("nan")),
            id="off-cone-maxwell-then-nan-amplitude",
        ),
        pytest.param(
            (
                "jets.0.psi.0.n", [2**62, 0, 0],
                "jets.0.delta_psi.0.a_re", [1e200 * c for c in _DELTA_PSI["a_re"]],
                "jets.0.delta_psi.0.a_im", [1e200 * c for c in _DELTA_PSI["a_im"]],
            ),
            id="index-2^62-then-overflowing-amplitude",
        ),
    ],
)
def test_malformed_mode_wins_over_an_inadmissible_one(tmp_path, command, edits):
    # the loader builds every entry, and a malformed mode anywhere makes the
    # config malformed, whichever entry or side is rejected first
    path = _malformed_config(tmp_path, *edits)
    result = invoke([*command, "--config", path])
    assert result.exit_code == 2


@pytest.mark.parametrize("index", [2**53 + 1, 2**62 - 1, -(2**62) + 1])
def test_lattice_index_beyond_2_53_is_read_exactly(tmp_path, index):
    # a float64 holds integers exactly only up to 2^53; +-(2^62 - 1) would round to the inadmissible +-2^62
    cfg = fields.default_config()
    cfg["jets"][0]["psi"][0] = fields._mode_entry(-1, [index, 0, 0], fields._JET_COEFFICIENTS[0][0])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    _, _, _, jets = load_config(str(path))
    assert jets[0].psi_n.tolist() == [[index, 0, 0]]
    result = invoke(["slayer", "eval", "--config", str(path)])
    assert result.exit_code == 0


def test_maxwell_momentum_at_lattice_index_0_is_inadmissible(tmp_path):
    # p is null and nonzero, but p * box / 2 pi rounds to the index (0, 0, 0)
    path = _malformed_config(tmp_path, "maxwell.0.p", [1e-12, 1e-12, 0.0, 0.0])
    result = invoke(["slayer", "eval", "--config", path])
    assert result.exit_code == 2
    result = invoke(["verify", "--suites", "slayer", "--config", path])
    assert result.exit_code == 1
    (entry,) = json.loads(result.stdout)
    assert entry["check"] == "config-admissibility" and entry["status"] == "fail"
    assert "lattice index 0" in entry["detail"]


@pytest.mark.parametrize("index", [2**62, -(2**62), 2**63 - 1, -(2**63)])
def test_lattice_index_outside_2_62_is_inadmissible(tmp_path, index):
    # beyond +-2^62 the difference of two indices can wrap in int64
    path = _malformed_config(tmp_path, "jets.0.psi.0.n", [index, 0, 0])
    result = invoke(["slayer", "eval", "--config", path])
    assert result.exit_code == 2
    result = invoke(["verify", "--suites", "slayer", "--config", path])
    assert result.exit_code == 1
    (entry,) = json.loads(result.stdout)
    assert entry["check"] == "config-admissibility" and entry["status"] == "fail"
    assert "2^62" in entry["detail"]


def test_verify_unreadable_config_exits_2(tmp_path):
    result = invoke(["verify", "--config", str(tmp_path / "none.json")])
    assert result.exit_code == 2


def test_kernels_csv():
    result = invoke(
        [
            "kernels", "--id", "IK0_over_t2",
            "--omega-min", "-1", "--omega-max", "1", "--omega-step", "1",
            "--k-min", "0.5", "--k-max", "0.5", "--k-step", "1",
        ]
    )
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "omega,k,region,re,im"
    assert len(lines) == 4
    assert "inside_lower" in lines[1]


def test_kernels_unknown_id_exits_2():
    result = invoke(["kernels", "--id", "nope"])
    assert result.exit_code == 2


def test_kernels_empty_grid_header_only():
    result = invoke(["kernels", "--id", "IK0_over_t", "--omega-min", "1", "--omega-max", "0"])
    assert result.exit_code == 0
    assert result.stdout.strip() == "omega,k,region,re,im"


def test_kernels_skips_rows_at_k_not_positive():
    result = invoke(["kernels", "--id", "K0Hat", "--k-min", "-0.5", "--k-max", "0.5", "--k-step", "0.25"])
    assert result.exit_code == 0
    assert {row["k"] for row in csv.DictReader(io.StringIO(result.stdout))} == {"0.25", "0.5"}


@pytest.mark.parametrize(
    "args",
    [
        ["kernels", "--id", "IK0_over_t", "--omega-step", "0"],
        ["kernels", "--id", "IK0_over_t", "--k-step", "-0.1"],
        ["kernels", "--id", "IK0_over_t", "--omega-step", "nan"],
        ["kernels", "--id", "IK0_over_t", "--k-max", "inf"],
        ["lineint", "--fn", "J", "--a-step", "0"],
        ["lineint", "--fn", "J", "--b-step", "-0.05"],
        ["lineint", "--fn", "J", "--a-step", "inf"],
        ["lineint", "--fn", "J", "--b-min", "nan"],
        # finite, but too fine a step for numpy to build the axis
        ["kernels", "--id", "IK0_over_t", "--omega-step", "1e-300"],
        ["lineint", "--fn", "J", "--a-step", "1e-300"],
    ],
    ids=" ".join,
)
def test_table_bad_grid_exits_2(args):
    result = invoke(args)
    assert result.exit_code == 2


def test_lineint_csv():
    result = invoke(
        [
            "lineint", "--fn", "J",
            "--a-min", "2", "--a-max", "2", "--a-step", "1",
            "--b-min", "0.5", "--b-max", "0.5", "--b-step", "1",
        ]
    )
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "alpha,beta,fn,value"
    assert lines[1] == "2.0,0.5,J,-0.5"


def _csv_text(header, rows):
    fh = io.StringIO()
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)
    return fh.getvalue()


def _axis_args(name, lo, hi, step):
    return [f"--{name}-min", repr(lo), f"--{name}-max", repr(hi), f"--{name}-step", repr(step)]


# (first axis, second axis) as (lo, hi, step): the default grids, and
# grids whose axes and values sit near 1e-7 and 1e16
NEAR_1E_7 = (1e-7, 5e-7, 1e-7)
NEAR_1E16 = (1e16, 3e16, 1e16)
LINEINT_GRIDS = (((-2.0, 3.0, 0.05), (-2.0, 3.0, 0.05)), (NEAR_1E_7, NEAR_1E16))
KERNELS_GRIDS = (((-3.0, 3.0, 0.1), (0.1, 3.0, 0.1)), (NEAR_1E_7, NEAR_1E_7), (NEAR_1E_7, NEAR_1E16))


@pytest.mark.parametrize("a_axis, b_axis", LINEINT_GRIDS)
def test_lineint_csv_matches_rows_of_numpy_scalars(a_axis, b_axis):
    args = ["lineint", "--fn", "V", *_axis_args("a", *a_axis), *_axis_args("b", *b_axis)]
    result = invoke(args)
    assert result.exit_code == 0
    a, b = np.meshgrid(cli._grid("a", *a_axis), cli._grid("b", *b_axis), indexing="ij")
    values = lineint.eval_piecewise("V", a, b)
    rows = [(x, y, "V", float(v)) for x, y, v in zip(a.flat, b.flat, values.flat)]
    assert result.stdout == _csv_text(("alpha", "beta", "fn", "value"), rows)


@pytest.mark.parametrize("kid", ["Delta_over_t", "Delta_over_t2"])
@pytest.mark.parametrize("omega_axis, k_axis", KERNELS_GRIDS)
def test_kernels_csv_matches_rows_of_numpy_scalars(kid, omega_axis, k_axis):
    from lightcone.kernels import classify, eval_hat

    args = ["kernels", "--id", kid, *_axis_args("omega", *omega_axis), *_axis_args("k", *k_axis)]
    result = invoke(args)
    assert result.exit_code == 0
    rows = []
    for omega in cli._grid("omega", *omega_axis):
        for k in cli._grid("k", *k_axis):
            region = classify(omega, k).value
            try:
                v = eval_hat(kid, omega, k)
                rows.append((omega, k, region, v.real, v.imag))
            except OnLightCone:
                rows.append((omega, k, region, float("nan"), float("nan")))
    assert result.stdout == _csv_text(("omega", "k", "region", "re", "im"), rows)


def test_lineint_unknown_fn_exits_2():
    result = invoke(["lineint", "--fn", "nope"])
    assert result.exit_code == 2


def test_convolution_csv():
    result = invoke(["convolution", "--q", "2,0,0,0", "--m", "1"])
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "q,m,name,closed,oracle,rel_err"
    assert len(lines) == 3
    rel = float(lines[1].split(",")[-1])
    assert rel < 1e-10


def test_convolution_far_out_leaves_oracle_cells_empty():
    # the K0 oracle raises from 1e16 on, and at 1e154 its root bracket
    # overflows; the mass-cone closed form stays finite where q0 - l_max
    # would cancel
    for q in ("1e16,0,0,0", "1e150,0,0,0", "1e154,0,0,0"):
        result = invoke(["convolution", "--q", q])
        assert result.exit_code == 0 and result.stderr == ""
        rows = {r[2]: r[3:] for r in csv.reader(io.StringIO(result.stdout))}
        assert rows["conv_K0_shell"] == ["0.0010078604510374842", "", ""]
        closed, oracle, rel = (float(c) for c in rows["conv_masscone_shell"])
        assert np.isfinite(closed) and np.isfinite(oracle) and rel <= 1e-10


def test_convolution_small_mass_stays_finite():
    # at m = 1e-8 the mass-cone closed form's log1p argument rounds to -1
    result = invoke(["convolution", "--q", "2,0.5,0,0", "--m", "1e-8"])
    assert result.exit_code == 0 and result.stderr == ""
    row = next(r for r in csv.reader(io.StringIO(result.stdout)) if r[2] == "conv_masscone_shell")
    closed, oracle, rel = (float(c) for c in row[3:])
    assert np.isfinite(closed) and np.isfinite(oracle) and rel <= 1e-10


@pytest.mark.parametrize("q0", ["1e8", "1e10", "1e12"])
def test_convolution_oracle_cells_far_out_are_empty_or_right(q0):
    result = invoke(["convolution", "--q", f"{q0},0,0,0"])
    assert result.exit_code == 0 and result.stderr == ""
    rows = list(csv.DictReader(io.StringIO(result.stdout)))
    assert [r["name"] for r in rows] == ["conv_K0_shell", "conv_masscone_shell"]
    for r in rows:
        if r["oracle"]:
            closed, oracle = float(r["closed"]), float(r["oracle"])
            assert abs(oracle - closed) <= 1e-10 * abs(closed), r


def test_convolution_oracle_mismatch_exits_1_with_rows(tmp_path, monkeypatch):
    # a mass-cone oracle that disagrees with the closed form: the rows are
    # still written
    closed = convolution.conv_masscone_shell
    monkeypatch.setattr(convolution, "conv_masscone_shell_oracle", lambda query: 2.0 * closed(query))
    out = tmp_path / "conv.csv"
    result = invoke(["convolution", "--q", "2,0.5,0,0", "--out", str(out)])
    assert result.exit_code == 1
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [r["name"] for r in rows] == ["conv_K0_shell", "conv_masscone_shell"]
    assert float(rows[1]["rel_err"]) > cli.CONVOLUTION_ORACLE_RTOL


def test_convolution_omits_the_masscone_row_below_the_shell():
    # the mass-cone convolution has no support below the shell (q^2 < m^2)
    result = invoke(["convolution", "--q", "0.9,0.5,0,0"])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.stdout)))
    assert [r["name"] for r in rows] == ["conv_K0_shell"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suites", "fields"],
        ["slayer", "eval"],
        ["kernels", "--id", "K0Hat"],
        ["lineint", "--fn", "J"],
        ["convolution", "--q", "2,0,0,0"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_exits_2(tmp_path, argv):
    result = invoke([*argv, "--out", str(tmp_path / "missing" / "out")])
    assert result.exit_code == 2
    assert result.stderr.startswith("cannot write output: ")
    assert result.stdout == ""


def test_convolution_bad_momentum_exits_2():
    result = invoke(["convolution", "--q", "1,2"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["--q", "nan,0,0,0"],
        ["--q", "2,inf,0,0"],
        ["--q", "2,0,0,0", "--m", "nan"],
        ["--q", "2,0,0,0", "--m", "inf"],
        ["--q", "2,0,0,0", "--m", "0"],
        ["--q", "2,0,0,0", "--m", "-1"],
        # finite, but the square overflows
        ["--q", "2,0,0,0", "--m", "1e300"],
        ["--q", "1e308,1e308,0,0"],
    ],
    ids=" ".join,
)
def test_convolution_non_finite_or_non_positive_exits_2(args):
    result = invoke(["convolution", *args])
    assert result.exit_code == 2


def _python(args, check=True, **env):
    """Run a fresh interpreter on args with the package on its path and
    env added to the environment (a None value unsets the variable)."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(lightcone.__file__)), **env}
    env = {key: value for key, value in env.items() if value is not None}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60, check=check
    )


# Run in a fresh interpreter: imports lightcone.cli, then runs `report` and
# `kernels` in-process, and prints the click, numpy, scipy and lightcone
# modules loaded after each step as the last line.
_FOOTPRINT = """
import json, sys
import lightcone.cli as cli
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("click", "numpy", "scipy", "lightcone"))
stages = {"import": [loaded(), None]}
for name, argv in (("report", ["report", "--in", sys.argv[1]]),
                   ("kernels", ["kernels", "--id", "K0Hat", "--out", sys.argv[2]])):
    try:
        cli.main(argv)
    except SystemExit as exc:
        stages[name] = [loaded(), exc.code]
print(json.dumps(stages))
"""


def test_cli_loads_only_what_each_command_needs(tmp_path):
    report = tmp_path / "report.json"
    assert invoke(["verify", "--suites", "fields", "--out", str(report)]).exit_code == 0
    proc = _python(["-c", _FOOTPRINT, str(report), str(tmp_path / "k.csv")])
    stages = json.loads(proc.stdout.splitlines()[-1])
    # the CLI module needs only the standard library and errors: neither
    # click nor numpy
    assert stages["import"][0] == ["lightcone", "lightcone.cli", "lightcone.errors"]
    # rendering a report never imports numpy (nor scipy)
    assert stages["report"] == [["lightcone", "lightcone.cli", "lightcone.errors"], 0]
    # a kernel table loads its own module, not slayer or lineint
    modules, code = stages["kernels"]
    assert code == 0 and "lightcone.kernels" in modules
    assert "lightcone.slayer" not in modules and "lightcone.lineint" not in modules


def test_slayer_suite_loads_no_kernels_convolution_or_lineint():
    # each suite imports its own modules, so the slayer suite, which every
    # slayer config check runs, pays for no oracle module; slayer itself
    # loads lineint only when positivity_probe first runs.  Nor does it pay
    # for numpy.ma, which a plain np.unique imports
    script = (
        "import sys\n"
        "from lightcone import checks\n"
        "checks.run_suites(('slayer',), 7)\n"
        "mods = ('lightcone.kernels', 'lightcone.convolution', 'lightcone.lineint', 'numpy.ma')\n"
        "print(sorted(m for m in mods if m in sys.modules))\n"
    )
    assert _python(["-c", script]).stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "argv", [["verify", "--suites", "all", "--seed", "7"], ["slayer", "eval"]], ids=lambda argv: argv[0]
)
def test_a_cli_process_writes_what_main_writes_in_process(tmp_path, argv):
    # the process runs one OpenBLAS thread and no cyclic GC, this one keeps
    # numpy's threads and gc: no report byte may depend on either
    process, in_process = tmp_path / "process.json", tmp_path / "in-process.json"
    _python(["-m", "lightcone.cli", *argv, "--out", str(process)], OPENBLAS_NUM_THREADS=None)
    assert invoke([*argv, "--out", str(in_process)]).exit_code == 0
    assert process.read_bytes() == in_process.read_bytes()


def test_main_in_process_leaves_gc_and_the_environment_alone(tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    environ = dict(os.environ)
    for argv, code in (
        (["verify", "--suites", "fields"], 0),
        (["verify", "--sui", "fields"], 2),
        (["report", "--in", str(tmp_path / "none.json")], 2),
    ):
        assert invoke(argv).exit_code == code
        assert gc.isenabled() and gc.get_freeze_count() == 0
        assert dict(os.environ) == environ


# Run in a fresh interpreter: a standalone main call that loads numpy, then
# prints its exit code, OPENBLAS_NUM_THREADS, and whether gc is on and
# anything is frozen.
_STANDALONE = """
import gc, json, os, sys
import lightcone.cli as cli
try:
    cli.main(["kernels", "--id", "K0Hat", "--out", sys.argv[1]])
except SystemExit as exc:
    print(json.dumps([exc.code, os.environ.get("OPENBLAS_NUM_THREADS"), gc.isenabled(), gc.get_freeze_count() > 0]))
"""


@pytest.mark.parametrize("preset, threads", [(None, "1"), ("3", "3")])
def test_main_standalone_runs_one_blas_thread_unless_set(tmp_path, preset, threads):
    proc = _python(["-c", _STANDALONE, str(tmp_path / "k.csv")], OPENBLAS_NUM_THREADS=preset)
    assert json.loads(proc.stdout) == [0, threads, False, True]


@pytest.mark.parametrize("argv", [["verify", "--suites", "fields"], ["lineint", "--fn", "J"]], ids=lambda argv: argv[0])
def test_a_reader_closing_stdout_early_exits_1_quietly(argv):
    # as under `| head`; lineint's table fills the pipe before it ends,
    # verify's report is written at the final flush
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(lightcone.__file__))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "lightcone.cli", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1 and err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["convolution", "--q", "-2,0,0,0"],
        ["kernels", "--id", "K0Hat", "--omega-min", "-1e-3", "--omega-max", "1e-3", "--omega-step", "1e-3"],
        ["lineint", "--fn", "J", "--a-min", "-1.5e0", "--a-step", "0.5", "--b-min=-.5", "--b-step", "0.5"],
        ["verify", "--suites", "fields", "--seed", " +3"],
    ],
    ids=" ".join,
)
def test_an_option_value_may_look_like_an_option_or_a_number(argv):
    # the argument after an option is its value, whatever it looks like
    assert invoke(argv).exit_code == 0


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["slayer"],
        ["slayer", "eval", "extra"],
        ["verify", "--sui", "fields"],
        ["verify", "--suites"],
        ["verify", "--seed", "1.5"],
        ["verify", "--bogus", "1"],
        ["verify", "--", "x"],
        ["kernels"],
        ["kernels", "--id", "K0Hat", "--omega-min", "--out"],
        ["report", "--i", "r.json"],
    ],
    ids=lambda argv: " ".join(argv) or "no-command",
)
def test_usage_errors_exit_2(argv):
    result = invoke(argv)
    assert result.exit_code == 2 and result.stdout == "" and result.stderr


def test_tol_may_repeat():
    result = invoke(["verify", "--suites", "clifford,lineint", "--tol", "clifford=1e-3", "--tol", "lineint=1e-4"])
    assert result.exit_code == 0
    tolerances = {e["check"]: e["tolerance"] for e in json.loads(result.stdout)}
    assert tolerances["clifford-relations"] == 1e-3 and tolerances["nested-line-anchor"] == 1e-4


def test_slayer_eval_default_config():
    result = invoke(["slayer", "eval"])
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    names = {e["check"] for e in report}
    assert "sigma_bose[0,1]" in names
    assert "ip_fermi[0,1]" in names


def test_report_rendering(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(
        json.dumps(
            [
                {
                    "check": "a",
                    "status": "pass",
                    "value": 0.0,
                    "tolerance": 1e-10,
                    "paper_ref": "x",
                },
                {
                    "check": "b",
                    "status": "fail",
                    "value": 2.0,
                    "tolerance": 1e-10,
                    "paper_ref": "y",
                },
            ]
        )
    )
    result = invoke(["report", "--in", str(path)])
    assert result.exit_code == 1
    assert "a: PASS" in result.stdout
    assert "b: FAIL" in result.stdout


_ENTRY = '"check": "a", "status": "pass", "tolerance": 1e-10'


@pytest.mark.parametrize(
    "text",
    [
        "[1]",
        "null",
        "{}",
        '[{"check": "x"}]',
        '[{%s, "value": "0.1"}]' % _ENTRY,
        '[{%s, "value": 1e999}]' % _ENTRY,
        '[{%s, "value": NaN}]' % _ENTRY,
        '[{%s, "value": -Infinity}]' % _ENTRY,
        '[{%s, "value": true}]' % _ENTRY,
        '[{"check": 3, "status": "pass", "value": 0, "tolerance": 0}]',
        '[{"check": "a", "status": "PASS", "value": 0, "tolerance": 0}]',
        pytest.param("[" * 100_000, id="nested-deeper-than-the-recursion-limit"),
    ],
)
def test_report_rejects_a_malformed_report(tmp_path, text):
    path = tmp_path / "r.json"
    path.write_text(text)
    result = invoke(["report", "--in", str(path)])
    assert result.exit_code == 2
    assert result.stdout == "" and len(result.stderr.splitlines()) == 1


def _jet_config(jets, box=DEFAULT_BOX):
    def modes(shell, n, a):
        return [
            {"shell": shell, "n": n_row.tolist(), "a_re": a_row.real.tolist(), "a_im": a_row.imag.tolist()}
            for n_row, a_row in zip(n, a)
        ]

    return {
        "box": box,
        "mass": 1.0,
        "maxwell": [],
        "jets": [
            {"psi": modes(-1, j.psi_n, j.psi_a), "delta_psi": modes(1, j.delta_psi_n, j.delta_psi_a)}
            for j in jets
        ],
    }


def test_slayer_eval_reads_the_jets_box(tmp_path, rng):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_jet_config(violating_jet_pair(rng, box=10.0), box=10.0)))
    result = invoke(["slayer", "eval", "--config", str(path)])
    assert result.exit_code == 0
    report = {e["check"]: e["value"] for e in json.loads(result.stdout)}
    _, _, _, jets = load_config(str(path))
    assert report["ip_fermi[0,0]"] == slayer.ip_fermi(jets[0], jets[0])
    assert report["ip_fermi[0,0]"] != 0.0


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report")


@pytest.mark.parametrize("pair", [violating_jet_pair, opposite_transfer_pair])
def test_verify_skips_conservation_outside_its_hypothesis(tmp_path, rng, pair):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_jet_config(pair(rng))))
    out = tmp_path / "report.json"
    result = invoke(["verify", "--suites", "slayer", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 0
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    entry = next(e for e in report if e["check"] == "fermi-conservation")
    assert entry["status"] == "skipped"
    assert entry["value"] > 1e3
    assert entry["tolerance"] == 1e-10
    assert all(e["status"] == "pass" for e in report if e is not entry)
    rendered = invoke(["report", "--in", str(out)])
    assert rendered.exit_code == 0
    assert "slayer/fermi-conservation: SKIPPED" in rendered.stdout


@pytest.mark.parametrize("big_n", [3000, 10**4, 3 * 10**4, 10**5, 3 * 10**5])
def test_verify_skips_conservation_at_a_small_frequency_transfer_gap(tmp_path, rng, big_n):
    # the frequency transfers differ by 5.9e-10, 1.6e-11, 5.9e-13, 1.6e-14
    # and 5.9e-16, which float64 rounds to 0 at N = 3 * 10^4 and 3 * 10^5.
    # The residual counts the quadruple as time dependent exactly when
    # pairing_predicates flags it, so the check is skipped, not failed
    jets = gap_family_pair(rng, big_n)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_jet_config(jets)))
    result = invoke(["verify", "--suites", "slayer", "--config", str(path)])
    entry = next(e for e in json.loads(result.stdout) if e["check"] == "fermi-conservation")
    assert (result.exit_code, entry["status"]) == (0, "skipped"), entry["value"]
    assert not fields.pairing_predicates(*jets)["implication_holds"]
