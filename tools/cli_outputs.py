"""Write the reports and CSVs of a lightcone checkout's CLI, with their exit
codes, so that two checkouts can be compared byte for byte:

    python3 tools/cli_outputs.py SRC OUTDIR
    diff -r OUTDIR_A OUTDIR_B

SRC is the root of a checkout: its src/ is the program that runs, and its
perfbench/gen.py (imported, never changed) draws the configs and momenta,
as it does for the benchmark.  Each command runs as a fresh
`python -m lightcone.cli` process and writes OUTDIR/<name>.json or .csv;
OUTDIR/exit_codes.txt lists every name with its exit code, and a command
that writes to stderr leaves OUTDIR/<name>.stderr.  The set:

- verify --suites all at seeds 7, 1, 2 and 3;
- verify --suites slayer on the six gen.deep_config rows at config seeds
  7 and 101-103, each at the verify seed the benchmark gives that row;
- verify --suites slayer on the frequency-gap family: two one-mode jets,
  psi (-N, 0, 0) with delta_psi (N, 0, 0) and psi (1 - N, 0, 0) with
  delta_psi (N + 1, 0, 0), whose equal transfers miss the frequency
  relation by 2 omega(N) - omega(N - 1) - omega(N + 1), at N = 3*10^3,
  10^4, 3*10^4, 10^5, 3*10^5 and 10^6;
- slayer eval on the default config and on the six gen.wide_config(7, i)
  rows;
- kernels for every kernel id and lineint for every function, on the
  default grids, and convolution at the momenta of gen.cli_pass(7, p) for
  p = 0..3 (rest frame on even p).

OUTDIR/oracles.json holds the values of the in-process oracles that no
command reaches, as [real, imag] at repr precision: oracle_ratio (three
ids), k0hat_shell_ratio, bidist_A_oracle, nested_line_integral and
conv_masscone_shell_oracle at the points of gen.oracle_pass(7, p) for
p = 0..7, and then oracle_value of the five mollified ids on ORACLE_ETAS
and on a five-rung ladder down to 0.005, at (2.2, 0.9) and at (6.5, 2.1),
where |omega| + k >= 8 puts coarse t-edges inside the shell window.  The
rows before them have met ORACLE_ETAS and the five-rung rows meet a new
ladder, so the rows run the radial transform's cached rules both fresh
and reused.  A fresh interpreter on SRC's src/ computes them all;
exit_codes.txt lists it as "oracles" with that interpreter's exit code.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path


def load_gen(src):
    spec = importlib.util.spec_from_file_location("gen", src / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def commands(gen, out):
    """(name, argv) of every command; the configs they read are written to
    out/configs first."""
    configs = out / "configs"
    configs.mkdir(parents=True, exist_ok=True)

    def config(name, cfg):
        path = configs / f"{name}.json"
        path.write_text(json.dumps(cfg, sort_keys=True))
        return str(path)

    for seed in (7, 1, 2, 3):
        yield f"verify-all-seed{seed}", ["verify", "--suites", "all", "--seed", str(seed)], "json"
    for seed in (7, 101, 102, 103):
        for i in range(len(gen.DEEP_TABLE)):
            path = config(f"deep-{seed}-{i}", gen.deep_config(seed, i)[0])
            vseed = int(gen.rng_for(seed, 5, i).integers(0, 2**31))
            argv = ["verify", "--suites", "slayer", "--seed", str(vseed), "--config", path]
            yield f"verify-deep-{seed}-{i}", argv, "json"
    for big_n in (3 * 10**3, 10**4, 3 * 10**4, 10**5, 3 * 10**5, 10**6):
        rng = gen.rng_for(7, 9, big_n)
        jets = [
            {"psi": [gen.dirac_mode(rng, -1, (psi, 0, 0))], "delta_psi": [gen.dirac_mode(rng, 1, (delta, 0, 0))]}
            for psi, delta in ((-big_n, big_n), (1 - big_n, big_n + 1))
        ]
        path = config(f"gap-{big_n}", {"box": gen.BOX, "mass": gen.MASS, "maxwell": [], "jets": jets})
        yield f"verify-gap-{big_n}", ["verify", "--suites", "slayer", "--config", path], "json"
    yield "slayer-eval-default", ["slayer", "eval"], "json"
    for i in range(len(gen.WIDE_TABLE)):
        path = config(f"wide-7-{i}", gen.wide_config(7, i)[0])
        yield f"slayer-eval-wide-7-{i}", ["slayer", "eval", "--config", path], "json"
    for kid in gen.KERNEL_IDS:
        yield f"kernels-{kid}", ["kernels", "--id", kid], "csv"
    for fn in gen.LINEINT_FNS:
        yield f"lineint-{fn}", ["lineint", "--fn", fn], "csv"
    for p in range(4):
        q = ",".join(repr(c) for c in gen.cli_pass(7, p)["q"])
        yield f"convolution-{p}", ["convolution", "--q", q], "csv"


def write_oracles(src, path):
    """Write oracles.json (see the module docstring) for the checkout at
    src, with the lightcone package this interpreter imports."""
    import numpy as np
    from lightcone import convolution, kernels, lineint

    gen = load_gen(Path(src))
    values = {}
    for p in range(8):
        x = gen.oracle_pass(7, p)
        row = {f"oracle_ratio {kid}": kernels.oracle_ratio(kid, w, k) for kid, w, k in x["oracle_ratio"]}
        row["k0hat_shell_ratio"] = kernels.k0hat_shell_ratio(*x["k0hat_shell_ratio"])
        row["bidist_A_oracle"] = lineint.bidist_A_oracle(*x["bidist_A_oracle"])
        nl = x["nested_line_integral"]
        a, b = np.asarray(nl["a"]), np.asarray(nl["b"])
        row["nested_line_integral"] = lineint.nested_line_integral(
            lambda z: a @ z, lambda z: b @ z, nl["x"], nl["y"], tuple(nl["w1"]), tuple(nl["w2"])
        )
        query = convolution.ShellIntegralQuery(x["conv_masscone_shell_oracle"], gen.MASS)
        row["conv_masscone_shell_oracle"] = convolution.conv_masscone_shell_oracle(query)
        values[f"pass {p}"] = {name: [complex(v).real, complex(v).imag] for name, v in row.items()}
    ladders = {"ORACLE_ETAS": kernels.ORACLE_ETAS, "5 rungs": (0.08, 0.04, 0.02, 0.01, 0.005)}
    values["oracle_value"] = {
        f"{kid} {name} ({w}, {k})": [
            [complex(v).real, complex(v).imag] for v in kernels.oracle_value(kid, w, k, etas, kernels.ORACLE_T_DAMP)
        ]
        for kid in kernels.MOLLIFIED_PARITY
        for name, etas in ladders.items()
        for w, k in ((2.2, 0.9), (6.5, 2.1))
    }
    Path(path).write_text(json.dumps(values, indent=1) + "\n")


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: cli_outputs.py SRC OUTDIR")
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    runs = [
        (name, ["-m", "lightcone.cli", *args, "--out", str(out / f"{name}.{ext}")])
        for name, args, ext in commands(load_gen(src), out)
    ]
    tools = str(Path(__file__).resolve().parent)
    script = f"import sys; sys.path.append({tools!r}); import cli_outputs; cli_outputs.write_oracles(*sys.argv[1:])"
    runs.append(("oracles", ["-c", script, str(src), str(out / "oracles.json")]))
    codes = []
    for name, args in runs:
        run = subprocess.run([sys.executable, *args], env=env, cwd=out, capture_output=True, text=True)
        if run.stderr:
            (out / f"{name}.stderr").write_text(run.stderr)
        codes.append(f"{name} {run.returncode}\n")
    (out / "exit_codes.txt").write_text("".join(codes))


if __name__ == "__main__":
    main(sys.argv[1:])
