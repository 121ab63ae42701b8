"""Quick self-check of the benchmark itself (not part of the test suite):

    python3 perfbench/run.py --self-check

1. input generation is deterministic for a seed and differs between seeds;
2. every workload, run for one pass untraced and traced at the default seed,
   prints exactly the metrics BENCHMARK.json names, each with its unit, and
   no op fails (which includes the reference digests);
3. the spans of the traced runs (first traced pass) nest, and spans opened
   from more threads than cores at once all close inside their parent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading

import gen
import run
from tracing import Tracer, nesting_errors


def snapshot(workload, seed, tmp):
    """Op keys and written files of one input generation."""
    passes, _ = run.build(workload, seed, tmp, None)
    keys = [op.key for ops in passes for op in ops]
    files = {p.name: p.read_bytes() for p in sorted(tmp.iterdir())}
    shutil.rmtree(tmp)
    return keys, files


def check_generation(problems):
    for workload in run.WORKLOADS:
        tmp = run.OUT / "selfcheck-gen"
        first, again, other = (snapshot(workload, s, tmp) for s in (3, 3, 4))
        if first != again:
            problems.append(f"{workload}: seed 3 generated different inputs twice")
        if first == other:
            problems.append(f"{workload}: seeds 3 and 4 generated the same inputs")


def check_tracer_threads(problems, n_threads=4, calls=2000):
    """A lost update on the shared span list would leave spans unclosed or
    under the wrong parent."""
    tracer = Tracer()
    work = tracer.wrap("work", lambda: None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.span("root"):
            threads = [threading.Thread(target=lambda: [work() for _ in range(calls)])
                       for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    if any(t.is_alive() for t in threads):
        problems.append("tracer threads did not finish")
    if len(tracer.spans) != 1 + n_threads * calls:
        problems.append(f"tracer recorded {len(tracer.spans)} spans, expected {1 + n_threads * calls}")
    problems += [f"threaded tracer: {e}" for e in nesting_errors(tracer.spans)[:5]]


def check_runs(problems, bench):
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                   "--seed", str(gen.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=False)
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{what}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{what}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{what}: {result['failed']} failed ops: {proc.stderr[-500:]}")
            want = {m["name"]: m["unit"] for m in expected[trace]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{what}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            if trace:
                spans = json.loads((run.OUT / f"{workload}-seed{gen.DEFAULT_SEED}-trace1.spans.json").read_text())
                problems += [f"{what}: {e}" for e in nesting_errors(spans["spans"])[:5]]
            print(f"checked {what}: {result['attempted']} ops", file=sys.stderr)


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if not {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS):
        problems.append("BENCHMARK.json names a workload that run.WORKLOADS lacks")
    check_generation(problems)
    check_tracer_threads(problems)
    check_runs(problems, bench)
    for p in problems:
        print("PROBLEM:", p, file=sys.stderr)
    print("self-check", "failed" if problems else "passed", file=sys.stderr)
    return 1 if problems else 0
