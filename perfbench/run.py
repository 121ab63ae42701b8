"""lightcone benchmark: closed-loop workloads with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --write-reference [--workload NAME]

Workloads (the reasons are also in BENCHMARK.json, which lists all but
slayer_wide: that one is kept for runs by hand, out of the gated set so
that the other three get longer runs on a two-core host; its layers are
also reached by slayer eval in cli_defaults and by slayer_deep):

- cli_defaults: fresh CLI processes at shipped grid defaults: verify --suites
  all, report --in on that report, slayer eval on the default config, a
  kernels table (cycling the 12 ids), a lineint table (cycling J/I/U/Jtilde/V)
  and convolution at a seeded upper-cone momentum.
- slayer_deep: fresh `verify --suites slayer --config` on 2-jet configs with
  2, 4 and 6 modes per side, independent and momentum-matched families.
- slayer_wide: fresh `slayer eval --config` on configs of 16 to 96 jets with
  1-2 modes per side plus Maxwell fields.
- oracle_sweep: in-process oracle evaluations at seeded points, each checked
  against its closed form.

A run sets up (imports, input generation and temp files; five times, the
median is setup_s), then runs whole passes over the workload's op list until
--seconds since the start would be exceeded, checking every op's output.
The last stdout line is the result {"correct", "attempted", "failed",
"metrics"}; the line before it holds the environment.  With --trace 0 the
metrics are the end-to-end ones:

- wall_s: one pass, the sum of its op latencies (trimmed mean over
  passes, see `trimmed_mean`);
- op_s.p50, op_s.p90: op latency percentiles over the pass's op slots,
  each slot's latency being its trimmed mean over the passes (the samples
  are the `attempted` ops);
- pass_ratio: ops that passed every check over ops attempted.  An op that
  shows a known defect of the program (ops.KNOWN_DEFECTS) does not pass,
  but is not counted in `failed`; `failed` counts ops with any other broken
  check or a value that differs from the reference digest (reference.json);
- setup_s: set-up time (median of five);
- peak_rss_mb: peak resident memory of the CLI processes, or of this
  process for oracle_sweep.

With --trace 1 the op list is replayed in this process, CLI ops through
lightcone.cli.main, in pairs of an untraced and a traced pass (alternating
which runs first).  The per-layer metrics (busy or self seconds and call
counts per pass, medians over traced passes) come from spans around calls
into each module; trace.overhead_s is traced minus untraced pass time.
Import times come from fresh interpreters.  Results, per-op records and the
spans of the first traced pass are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import ops
from tracing import NAME, OP, TARGETS, Tracer, busy, children_of, self_time

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("cli_defaults", "slayer_deep", "slayer_wide", "oracle_sweep")
SETUP_REPS = 5
IMPORT_REPS = 3
# passes whose inputs are generated up front; later passes reuse them cyclically
PASS_INPUTS = {"cli_defaults": 64, "oracle_sweep": 512}
# passes recorded by --write-reference at the default seed
REFERENCE_PASSES = {"cli_defaults": 12, "slayer_deep": 1, "slayer_wide": 1, "oracle_sweep": 60}

END_TO_END = {
    "wall_s": "s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "pass_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
COMMANDS = ("verify", "report", "slayer_eval", "kernels", "lineint", "convolution")
SUITES = ("clifford", "convolution", "fields", "kernels", "lineint", "slayer")
CALL_COUNTED = (
    "fields.load_config",
    "slayer.fermi_conservation_residual",
    "slayer._box_quadrupole_hat",
    "slayer.sigma_fermi",
    "slayer.ip_fermi",
    "kernels.radial_fourier",
    "lineint.eval_piecewise",
)
DEEP_SIZES = (2, 4, 6)
IMPORTS = ("import.lightcone_s", "import.scipy_optimize_s", "import.floor_s")


def per_layer_units():
    units = dict.fromkeys(IMPORTS, "s")
    for _, _, name in TARGETS:
        units[f"{name}_s"] = "s"
        if name in CALL_COUNTED:
            units[f"{name}.calls"] = "count"
    units["cli.run_suites.overhead_s"] = "s"
    units.update({f"cli.suite_{s}_s": "s" for s in SUITES})
    units.update({f"cli.{c}.self_s": "s" for c in COMMANDS})
    units.update({f"slayer.fermi_conservation_residual.n{n}_s": "s" for n in DEEP_SIZES})
    units.update({"trace.overhead_s": "s", "trace.untraced_pass_s": "s", "trace.spans": "count"})
    return units


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_lightcone():
    sys.path.insert(0, str(SRC))
    import lightcone.cli as cli
    from lightcone import clifford, convolution, fields, kernels, lineint, slayer

    return {
        "cli": cli, "clifford": clifford, "convolution": convolution, "fields": fields,
        "kernels": kernels, "lineint": lineint, "slayer": slayer,
    }


def build(workload, seed, tmp, lc):
    """Generate the workload's inputs from the seed and write its temp
    files.  Returns (passes, props): pass p runs passes[p % len(passes)]."""
    tmp.mkdir(parents=True, exist_ok=True)
    if workload == "slayer_deep":
        op_list, props = ops.slayer_deep_ops(seed, tmp)
        return [op_list], props
    if workload == "slayer_wide":
        op_list, props = ops.slayer_wide_ops(seed, tmp)
        return [op_list], props
    make = ops.cli_defaults_pass if workload == "cli_defaults" else ops.oracle_sweep_pass
    arg = tmp if workload == "cli_defaults" else lc
    built = [make(seed, p, arg) for p in range(PASS_INPUTS[workload])]
    return [b[0] for b in built], [b[1] for b in built]


def setup(workload, seed, tmp, in_process):
    """Set up SETUP_REPS times and take the median.  One set-up is the
    imports the run needs plus generating the inputs and writing the temp
    files.  An import cannot be repeated in one process, so each set-up
    times its imports in a fresh interpreter; this process imports once,
    untimed."""
    modules = "gen, ops" + (", lightcone.cli" if in_process else "")
    code = (f"import sys, time; sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]; "
            f"t = time.perf_counter(); import {modules}; print(time.perf_counter() - t)")
    lc = import_lightcone() if in_process else None
    reps = []
    for _ in range(SETUP_REPS):
        child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ops.child_env(),
                               capture_output=True, text=True, check=True)
        t = time.perf_counter()
        passes, props = build(workload, seed, tmp, lc)
        reps.append(float(child.stdout) + time.perf_counter() - t)
    return passes, props, lc, statistics.median(reps)


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def run_passes(passes, run_op, reference, deadline=None, n_passes=None):
    """Run whole passes until the next would end after `deadline` (at least
    one) or `n_passes` are done.  Returns (per-op records, per-pass sums of
    op latencies)."""
    records, walls, p = [], [], 0
    while True:
        t_pass = time.perf_counter()
        ops_time = 0.0
        for slot, op in enumerate(passes[p % len(passes)]):
            t = time.perf_counter()
            result = run_op(op)
            dt = time.perf_counter() - t
            ops_time += dt
            outcome, reason, dig = ops.evaluate(op, result, reference)
            records.append({"pass": p, "slot": slot, "op": op.id, "key": op.key, "seconds": dt,
                            "outcome": outcome, "reason": reason, "digest": dig})
        walls.append(ops_time)
        p += 1
        if n_passes is not None:
            if p >= n_passes:
                break
        elif time.perf_counter() + (time.perf_counter() - t_pass) > deadline:
            break
    return records, walls


def summary(records):
    attempted = len(records)
    failed = sum(r["outcome"] == "failed" for r in records)
    passed = sum(r["outcome"] == "ok" for r in records)
    return attempted, failed, passed


def trimmed_mean(values, cut=0.1):
    """Mean of the values left after dropping the `cut` share, and at least
    one value once there are three, at each end.

    The shared two-core host this benchmark was tuned on switches, for
    seconds to minutes at a time, between two speeds about 1.45x apart.  A
    median over the passes of a run then jumps between the two speeds when
    a switch falls inside the run, while a mean moves in proportion to the
    time spent at each; the trim drops single stalls."""
    values = sorted(values)
    k = max(int(len(values) * cut), 1 if len(values) >= 3 else 0)
    return statistics.fmean(values[k:len(values) - k])


def slot_latencies(records):
    """Each op slot's latency over the passes (trimmed mean).  A slot is
    an op's place in the pass; every pass of a workload has the same slots,
    so the percentiles over slots weigh every op equally however many
    passes fit in the run."""
    by_slot = {}
    for r in records:
        by_slot.setdefault(r["slot"], []).append(r["seconds"])
    return sorted(trimmed_mean(v) for v in by_slot.values())


def end_to_end(workload, records, walls, setup_s):
    attempted, _, passed = summary(records)
    lat = slot_latencies(records)
    q = statistics.quantiles(lat, n=10, method="inclusive") if len(lat) > 1 else [lat[0]] * 9
    who = resource.RUSAGE_SELF if workload == "oracle_sweep" else resource.RUSAGE_CHILDREN
    return {
        "wall_s": trimmed_mean(walls),
        "op_s.p50": statistics.median(lat),
        "op_s.p90": q[8],
        "pass_ratio": passed / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def import_times(env):
    """Import costs in fresh interpreters (medians of IMPORT_REPS):
    lightcone.cli as a whole, and within it the cumulative import time of
    scipy.optimize and of the numpy + click floor (from -X importtime)."""
    total, scipy_opt, floor = [], [], []
    code = "import time; t = time.perf_counter(); import lightcone.cli; print(time.perf_counter() - t)"
    for _ in range(IMPORT_REPS):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True)
        total.append(float(out.stdout.strip()))
        prof = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lightcone.cli"],
                              env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        cumulative = {}
        for line in prof.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = (s.strip() for s in line[len("import time:"):].split("|"))
                if cum.isdigit():
                    cumulative.setdefault(name, int(cum) * 1e-6)
        scipy_opt.append(cumulative.get("scipy.optimize", 0.0))
        floor.append(cumulative.get("numpy", 0.0) + cumulative.get("click", 0.0))
    return {
        "import.lightcone_s": statistics.median(total),
        "import.scipy_optimize_s": statistics.median(scipy_opt),
        "import.floor_s": statistics.median(floor),
    }


def layer_metrics(spans, op_props, units):
    m = dict.fromkeys((k for k in units if not k.startswith(("import.", "trace."))), 0.0)
    children = children_of(spans)
    for i, s in enumerate(spans):
        name = s[NAME]
        if name[4:] in COMMANDS and name.startswith("cli."):
            m[f"{name}.self_s"] += self_time(spans, i, children)
            continue
        m[f"{name}_s"] += busy(s)
        if f"{name}.calls" in m:
            m[f"{name}.calls"] += 1
        if name == "slayer.fermi_conservation_residual":
            n = op_props.get(s[OP], {}).get("modes_per_side")
            if f"{name}.n{n}_s" in m:
                m[f"{name}.n{n}_s"] += busy(s)
    m["cli.run_suites.overhead_s"] = m["cli.run_suites_s"] - sum(m[f"cli.suite_{s}_s"] for s in SUITES)
    m["trace.spans"] = float(len(spans))
    return m


def traced_run(passes, lc, deadline, env, reference):
    """Replay the op list in this process, alternating untraced and traced
    passes; returns (records, per-layer metrics, units, spans of the first
    traced pass)."""
    units = per_layer_units()
    metrics = import_times(env)
    caches = [f for mod in lc.values() for f in vars(mod).values() if hasattr(f, "cache_clear")]
    op_props = {op.id: op.props for ops_ in passes for op in ops_}
    tracer = Tracer()
    state = {"traced": False}

    def run_op(op):
        tracer.op = op.id
        if op.argv is None:
            return op.call()
        for f in caches:  # each CLI op starts as cold as a fresh process
            f.cache_clear()
        if state["traced"]:
            with tracer.span(op.command):
                return ops.run_cli_inprocess(op, lc["cli"])
        return ops.run_cli_inprocess(op, lc["cli"])

    records, untraced, traced, per_pass, p = [], [], [], [], 0
    while True:
        t0 = time.perf_counter()
        # alternate which of the pair runs first, so neither gains from order
        for mode in ("untraced", "traced")[:: 1 if p % 2 == 0 else -1]:
            state["traced"] = mode == "traced"
            if state["traced"]:
                tracer.spans = []
                tracer.install(lc)
            try:
                recs, walls = run_passes([passes[p % len(passes)]], run_op, reference, n_passes=1)
            finally:
                tracer.uninstall()
            for r in recs:
                r["pass"], r["mode"] = p, mode
            records += recs
            (traced if state["traced"] else untraced).append(walls[0])
        per_pass.append(layer_metrics(tracer.spans, op_props, units))
        if p == 0:
            first_spans = tracer.spans
        p += 1
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    for name in per_pass[0]:
        metrics[name] = statistics.median(m[name] for m in per_pass)
    metrics["trace.untraced_pass_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return records, {k: metrics[k] for k in units}, units, first_spans


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------


def environment():
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "commit": commit,
        "src_sha256": h.hexdigest()[:16],
    }


def load_reference():
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {}


def run(args):
    tmp = OUT / f"tmp-{os.getpid()}"
    try:
        passes, props, lc, setup_s = setup(args.workload, args.seed, tmp,
                                           in_process=args.trace == 1 or args.workload == "oracle_sweep")
        env = ops.child_env()
        reference = load_reference().get(args.workload, {})
        deadline = T_START + args.seconds
        if args.trace == 1:
            records, metrics, units, spans = traced_run(passes, lc, deadline, env, reference)
        else:
            run_op = (lambda op: op.call()) if args.workload == "oracle_sweep" else (
                lambda op: ops.run_cli_subprocess(op, env))
            spans = None
            records, walls = run_passes(passes, run_op, reference, deadline=deadline)
            metrics, units = end_to_end(args.workload, records, walls, setup_s), END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted, failed, _ = summary(records)
    env_block = environment()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    used = props if args.workload in ("slayer_deep", "slayer_wide") else props[: 1 + max(r["pass"] for r in records)]
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"environment": env_block, "workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "inputs": used, "result": result, "ops": records}, indent=1))
    if spans is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "cpu", "main_thread"], "spans": spans}))
    for r in records:
        if r["outcome"] == "failed":
            print(f"FAILED {r['op']} ({r['key']}): {r['reason']}", file=sys.stderr)
    print(json.dumps({"environment": env_block}))
    print(json.dumps(result))
    return 0


def write_reference(workloads):
    """Record the digests of every op at the default seed (REFERENCE_PASSES
    passes per workload) into reference.json, replacing those of
    `workloads`."""
    ref = load_reference()
    env = ops.child_env()
    for workload in workloads:
        tmp = OUT / f"ref-{workload}"
        lc = import_lightcone() if workload == "oracle_sweep" else None
        passes, _ = build(workload, gen.DEFAULT_SEED, tmp, lc)
        run_op = (lambda op: op.call()) if lc else (lambda op: ops.run_cli_subprocess(op, env))
        records, _ = run_passes(passes, run_op, {}, n_passes=REFERENCE_PASSES[workload])
        shutil.rmtree(tmp, ignore_errors=True)
        bad = [r for r in records if r["outcome"] == "failed"]
        if bad:
            raise SystemExit(f"{workload}: ops failed, no reference written: {bad[:3]}")
        ref[workload] = {r["key"]: r["digest"] for r in records}
        print(f"{workload}: {len(ref[workload])} digests", file=sys.stderr)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "lightcone" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'lightcone'} is missing", file=sys.stderr)
        return 2
    if args.self_check:
        import selfcheck

        return selfcheck.main()
    if args.write_reference:
        return write_reference([args.workload] if args.workload else WORKLOADS)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed is None:
        args.seed = gen.DEFAULT_SEED
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
