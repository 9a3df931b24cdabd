"""Closed-loop benchmark of the wignerlab command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One caller drives
``wignerlab.cli.main(argv)`` in this process: each job starts when the
previous one ends.  The seed fixes the job list (see workloads.py); the run
repeats whole rounds of it until ``--seconds`` of loop time have passed,
checks the artifacts of every job, and prints the metrics as the last line
of standard output.  With ``--trace 1`` the same loop runs with spans around
every layer's public functions and prints the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def rusage_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_job(cli, job, out_dir: str) -> tuple[float, float, list, list]:
    """Run one job's calls back to back; returns wall s, CPU s, exit codes, stderr texts."""
    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))
    codes, logs = [], []
    cpu0 = rusage_cpu()
    t0 = time.perf_counter()
    for argv in job.calls:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main([*argv, "--out", out_dir])
            except Exception as exc:  # a traceback out of main is a failed job
                code = -1
                err.write(f"uncaught {type(exc).__name__}: {exc}")
        codes.append(code)
        logs.append(err.getvalue())
        if code != 0:
            break
    wall = time.perf_counter() - t0
    return wall, rusage_cpu() - cpu0, codes, logs


def check_job(job, out_dir: str, codes: list, logs: list) -> tuple[bool, list]:
    """(exited cleanly, problems found in its artifacts)."""
    if any(code != 0 for code in codes):
        return False, [f"{job.calls[len(codes) - 1][0]} exited {codes[-1]}: {logs[-1].strip()}"]
    try:
        return True, job.check(out_dir, logs)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return True, [f"unreadable artifact: {type(exc).__name__}: {exc}"]


def pin_to_one_cpu() -> None:
    """Bind every thread of this process to the lowest CPU it may run on.

    Call it after numpy is imported: OpenBLAS has then started its helper
    threads for every CPU the process may use, as it does for a user, and
    they keep running; only where they run is fixed.  Left to the
    scheduler, the helper thread shares the main thread's CPU in some spells
    and runs beside it in others, and the same ensembles job list then takes
    0.34 s or 0.55 s a job on a 2-vCPU machine.  On one CPU every job pays
    the helper's time in wall time as well as in CPU time.
    """
    if not hasattr(os, "sched_setaffinity") or not os.path.isdir("/proc/self/task"):
        return
    cpu = min(os.sched_getaffinity(0))
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:  # the thread ended meanwhile
            pass


def set_up(workload: str, seed: int, work_dir: str, tracer=None):
    """What a user pays once, before the first job: import, inputs from the seed, one warm-up job."""
    import numpy as np

    import workloads
    import wignerlab.cli

    pin_to_one_cpu()
    if tracer is not None:
        tracer.install("wignerlab")
    rounds = workloads.WORKLOADS[workload](np.random.default_rng(seed), work_dir)
    out_dir = os.path.join(work_dir, "out")
    os.makedirs(out_dir)
    warm = rounds[0][0]
    _, _, codes, logs = run_job(wignerlab.cli, warm, out_dir)
    _, problems = check_job(warm, out_dir, codes, logs)
    return wignerlab.cli, rounds, out_dir, problems


def probe_setup(workload: str, seed: int) -> tuple[list, list]:
    """Set-up times of fresh interpreters, from spawn to the end of their warm-up."""
    times, problems = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(report["ready"] - t0)
        problems += report["problems"]
    return times, problems


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wignerlab", "cli.py")):
        print(f"error: no wignerlab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    tmp_root = os.path.join(BENCH, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        if args.setup_probe:
            _, _, _, problems = set_up(args.workload, args.seed, work_dir)
            print(json.dumps({"ready": time.monotonic(), "problems": problems}))
            return 0
        return measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args: argparse.Namespace, work_dir: str) -> int:
    # The probes start before set_up pins this process: a child inherits its
    # parent's CPU mask, and OpenBLAS sizes its thread pool from that mask.
    setup_times, problems = ([], []) if args.trace else probe_setup(args.workload, args.seed)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    cli, rounds, out_dir, warm_problems = set_up(args.workload, args.seed, work_dir, tracer)
    problems += warm_problems
    if tracer is not None:
        tracer.clear()

    for problem in problems:
        print(f"set-up check failed: {problem}", file=sys.stderr)
    correct = not problems
    walls, cpus = [], []
    attempted = failed = 0
    origin = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - origin < args.seconds:
        for job in rounds[r % len(rounds)]:
            if tracer is not None:
                tracer.job = attempted
            wall, cpu, codes, logs = run_job(cli, job, out_dir)
            attempted += 1
            walls.append(wall)
            cpus.append(cpu)
            exited, found = check_job(job, out_dir, codes, logs)
            if not exited or found:
                failed += 1
                print(f"job {attempted - 1} failed: {'; '.join(found)}", file=sys.stderr)
            if exited:
                correct = correct and not found
        r += 1

    job_p50 = statistics.median(walls)
    print(f"{args.workload} seed {args.seed}: {attempted} jobs in {r} rounds, "
          f"{sum(walls):.3f} s timed, job p50 {job_p50:.4f} s, trace {args.trace}")
    if tracer is not None:
        out = os.path.join(BENCH, "out")
        os.makedirs(out, exist_ok=True)
        spans_path = os.path.join(out, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path, origin)
        print(f"traced job_p50_s {job_p50:.6f} s; {len(tracer.spans)} spans in "
              f"{os.path.relpath(spans_path, ROOT)}")
        metrics = tracing.layer_metrics(tracer.spans, attempted)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print("set-up probes (s): " + ", ".join(f"{t:.4f}" for t in setup_times))
        metrics = {
            "jobs_per_s": {"value": attempted / sum(walls), "unit": "1/s"},
            "job_p50_s": {"value": job_p50, "unit": "s"},
            "cpu_s_per_job": {"value": sum(cpus) / attempted, "unit": "s"},
            "peak_rss_mb": {"value": peak_kib * 1024 / 1e6, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
