"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py --workload verdicts --seeds 1-10 --seconds 20 [--trace 1] [--label A]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for every
metric the median, the first and third quartiles (``statistics.quantiles``
with n=4) and the spread (q3 - q1) / median.  The per-seed results and the
summary go to ``bench/out/sweep-<label>-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", default="run")
    args = ap.parse_args(argv)

    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        traced = [line.split()[2] for line in lines if line.startswith("traced job_p50_s")]
        if traced:
            result["traced_job_p50_s"] = float(traced[0])
        runs.append(result)
        shown = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} {result['failed']}/{result['attempted']} failed {shown}",
              flush=True)

    names = list(runs[0]["metrics"])
    summary = {name: summarise([r["metrics"][name]["value"] for r in runs]) for name in names}
    if args.trace:
        summary["traced_job_p50_s"] = summarise([r["traced_job_p50_s"] for r in runs])
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"{args.workload}: {len(runs)} runs, all correct={all(r['correct'] for r in runs)}, "
          f"failed shares {shares}")
    for name, s in summary.items():
        print(f"  {name:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {100 * s['spread']:.2f} %")
    out = os.path.join(BENCH, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"sweep-{args.label}-{args.workload}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                   "runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
