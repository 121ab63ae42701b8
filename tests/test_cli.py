import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import opposite_transfer_pair, violating_jet_pair
import lightcone
from lightcone import cli, slayer
from lightcone.fields import DEFAULT_BOX, load_config


@pytest.fixture
def runner():
    return CliRunner()


def test_verify_fast_suites_pass(runner):
    result = runner.invoke(
        cli.main, ["verify", "--suites", "clifford,lineint,fields", "--seed", "7"]
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert all(e["status"] == "pass" for e in report)
    assert all(
        set(e) >= {"check", "status", "value", "tolerance", "paper_ref", "suite"}
        for e in report
    )


def test_verify_unknown_suite_exits_2(runner):
    result = runner.invoke(cli.main, ["verify", "--suites", "bogus"])
    assert result.exit_code == 2


def test_verify_bad_tol_exits_2(runner):
    result = runner.invoke(cli.main, ["verify", "--tol", "nonsense"])
    assert result.exit_code == 2


@pytest.mark.parametrize("override", ["clifford=nan", "slayer=inf"])
def test_verify_non_finite_tol_exits_2(runner, override):
    result = runner.invoke(cli.main, ["verify", "--suites", "clifford", "--tol", override])
    assert result.exit_code == 2


def test_verify_deterministic_reports(runner, tmp_path):
    args = ["verify", "--suites", "clifford,slayer", "--seed", "11"]
    r1 = runner.invoke(cli.main, args + ["--out", str(tmp_path / "a.json")])
    r2 = runner.invoke(cli.main, args + ["--out", str(tmp_path / "b.json")])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_verify_failing_config(runner, tmp_path):
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
    result = runner.invoke(cli.main, ["verify", "--config", str(path)])
    assert result.exit_code == 1
    report = json.loads(result.output)
    assert report[0]["status"] == "fail"
    assert report[0]["paper_ref"]


@pytest.mark.parametrize(
    "key, value",
    [
        ("box", float("nan")),
        ("mass", float("nan")),
        ("box", 0.0),
        pytest.param("jets.0.psi.0.n", [0.5, 0, 0], id="non-integer-n"),
        pytest.param("maxwell.0.p.1", float("nan"), id="maxwell-p-nan"),
        pytest.param("jets.0.delta_psi.0.a_re.0", float("nan"), id="jet-a_re-nan"),
    ],
)
def test_verify_malformed_config_exits_2(runner, tmp_path, key, value):
    cfg = cli.default_config()
    *parents, last = (int(k) if k.isdigit() else k for k in key.split("."))
    entry = cfg
    for k in parents:
        entry = entry[k]
    entry[last] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    result = runner.invoke(cli.main, ["verify", "--suites", "slayer", "--config", str(path)])
    assert result.exit_code == 2


def test_verify_unreadable_config_exits_2(runner, tmp_path):
    result = runner.invoke(cli.main, ["verify", "--config", str(tmp_path / "none.json")])
    assert result.exit_code == 2


def test_kernels_csv(runner):
    result = runner.invoke(
        cli.main,
        [
            "kernels", "--id", "IK0_over_t2",
            "--omega-min", "-1", "--omega-max", "1", "--omega-step", "1",
            "--k-min", "0.5", "--k-max", "0.5", "--k-step", "1",
        ],
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "omega,k,region,re,im"
    assert len(lines) == 4
    assert "inside_lower" in lines[1]


def test_kernels_unknown_id_exits_2(runner):
    result = runner.invoke(cli.main, ["kernels", "--id", "nope"])
    assert result.exit_code == 2


def test_kernels_empty_grid_header_only(runner):
    result = runner.invoke(
        cli.main,
        ["kernels", "--id", "IK0_over_t", "--omega-min", "1", "--omega-max", "0"],
    )
    assert result.exit_code == 0
    assert result.output.strip() == "omega,k,region,re,im"


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
    ],
    ids=" ".join,
)
def test_table_bad_grid_exits_2(runner, args):
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2


def test_lineint_csv(runner):
    result = runner.invoke(
        cli.main,
        [
            "lineint", "--fn", "J",
            "--a-min", "2", "--a-max", "2", "--a-step", "1",
            "--b-min", "0.5", "--b-max", "0.5", "--b-step", "1",
        ],
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "alpha,beta,fn,value"
    assert lines[1] == "2.0,0.5,J,-0.5"


def test_lineint_unknown_fn_exits_2(runner):
    result = runner.invoke(cli.main, ["lineint", "--fn", "nope"])
    assert result.exit_code == 2


def test_convolution_csv(runner):
    result = runner.invoke(cli.main, ["convolution", "--q", "2,0,0,0", "--m", "1"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "q,m,name,closed,oracle,rel_err"
    assert len(lines) == 3
    rel = float(lines[1].split(",")[-1])
    assert rel < 1e-10


def test_convolution_far_out_leaves_oracle_cells_empty(runner):
    result = runner.invoke(cli.main, ["convolution", "--q", "1e150,0,0,0"])
    assert result.exit_code == 0
    row = next(r for r in result.output.splitlines() if ",conv_K0_shell," in r)
    assert row.endswith(",conv_K0_shell,0.0010078604510374842,,")


def test_convolution_bad_momentum_exits_2(runner):
    result = runner.invoke(cli.main, ["convolution", "--q", "1,2"])
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
    ],
    ids=" ".join,
)
def test_convolution_non_finite_or_non_positive_exits_2(runner, args):
    result = runner.invoke(cli.main, ["convolution", *args])
    assert result.exit_code == 2


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(lightcone.__file__))
    code = "import sys, lightcone.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_slayer_eval_default_config(runner):
    result = runner.invoke(cli.main, ["slayer", "eval"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    names = {e["check"] for e in report}
    assert "sigma_bose[0,1]" in names
    assert "ip_fermi[0,1]" in names


def test_report_rendering(runner, tmp_path):
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
    result = runner.invoke(cli.main, ["report", "--in", str(path)])
    assert result.exit_code == 1
    assert "a: PASS" in result.output
    assert "b: FAIL" in result.output


def _jet_config(jets, box=DEFAULT_BOX):
    def mode(m):
        return {
            "shell": m.shell,
            "n": [int(c) for c in np.rint(m.kvec_arr * box / (2.0 * np.pi))],
            "a_re": [float(c) for c in m.a_arr.real],
            "a_im": [float(c) for c in m.a_arr.imag],
        }

    return {
        "box": box,
        "mass": 1.0,
        "maxwell": [],
        "jets": [
            {"psi": [mode(m) for m in j.psi], "delta_psi": [mode(m) for m in j.delta_psi]}
            for j in jets
        ],
    }


def test_slayer_eval_reads_the_jets_box(runner, tmp_path, rng):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_jet_config(violating_jet_pair(rng, box=10.0), box=10.0)))
    result = runner.invoke(cli.main, ["slayer", "eval", "--config", str(path)])
    assert result.exit_code == 0
    report = {e["check"]: e["value"] for e in json.loads(result.output)}
    _, _, _, jets = load_config(str(path))
    assert report["ip_fermi[0,0]"] == slayer.ip_fermi(jets[0], jets[0])
    assert report["ip_fermi[0,0]"] != 0.0


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report")


@pytest.mark.parametrize("pair", [violating_jet_pair, opposite_transfer_pair])
def test_verify_skips_conservation_outside_its_hypothesis(runner, tmp_path, rng, pair):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_jet_config(pair(rng))))
    out = tmp_path / "report.json"
    result = runner.invoke(
        cli.main, ["verify", "--suites", "slayer", "--config", str(path), "--out", str(out)]
    )
    assert result.exit_code == 0
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    entry = next(e for e in report if e["check"] == "fermi-conservation")
    assert entry["status"] == "skipped"
    assert entry["value"] > 1e3
    assert entry["tolerance"] == 1e-10
    assert all(e["status"] == "pass" for e in report if e is not entry)
    rendered = runner.invoke(cli.main, ["report", "--in", str(out)])
    assert rendered.exit_code == 0
    assert "slayer/fermi-conservation: SKIPPED" in rendered.output
