"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace] [--out FILE]

For every workload and metric it reports the median over the seeds and the
spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median.  With --out
the summary, the runs' results and the environment are written as JSON,
replacing the entries of the workloads run (the committed baseline files
were made this way).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["environment"], json.loads(lines[-1])


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None,
        }
    return out


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = Path(args.out) if args.out else None
    report = json.loads(out.read_text()) if out and out.is_file() else {"workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            env, result = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']}",
                  file=sys.stderr, flush=True)
        summary = summarize(results)
        report["environment"] = env
        report["workloads"][workload] = {"seeds": args.seeds, "seconds": args.seconds,
                                         "trace": args.trace, "summary": summary, "runs": results}
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            bound = bounds.get(name)
            print(f"{workload:13s} {name:45s} median {s['median']:.6g} {s['unit']:6s} spread {spread}"
                  + (f" (bound {bound}, third {bound / 3:.4f})" if bound else ""), flush=True)
    if out:
        out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
