"""Benchmark of the pdseq command line: end-to-end times and memory, or per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from src/,
nothing is installed.  Workloads (see workloads.py and README.md):
check-suite, series-invert, sequence-export.

A run first times set-up: fresh interpreters that import pdseq.cli, one
unmeasured to write the bytecode cache, then SETUP_PROBES measured ones.
Then it runs rounds until S seconds have passed, at least one.  Each round is
a fresh worker process (worker.py) that runs the workload's operations once:
pdseq keeps sequence prefixes cached for the life of the process, so a
second round in the same process would time a warm cache instead of the
workload.  Every round's start-up is one more set-up sample.

--trace 0 prints setup_s, wall_s and peak_rss_mb, the medians over the
samples and rounds.  --trace 1 alternates untraced and traced rounds (at
least one of each) and prints the per-layer metrics of the traced rounds,
with trace.overhead_s the difference of the traced and untraced median
wall_s.  The last line of stdout is the JSON result; the exit code is 0
when the run completed, whatever the verdict on the outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
TRACE_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 6
RUN_DEADLINE_S = 170  # a run must end within 180 s

# The program runs single-threaded in BLAS and OpenMP: compose's float64
# matrix product would otherwise use every core of a shared 2-core host and
# pick up its neighbours' noise.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def start_worker(arg):
    """Start a worker and wait until pdseq.cli is imported; returns (process, set-up seconds)."""
    env = dict(os.environ, **THREAD_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, arg], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line != "ready\n":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup_s


def finish(proc, deadline):
    """The worker's stdout once it has exited; kills it at the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"the run did not finish within {RUN_DEADLINE_S} s") from None
    return out


def probe(deadline):
    proc, setup_s = start_worker("probe")
    finish(proc, deadline)
    return setup_s


def run_round(workload, seed, trace_path, verified, deadline):
    spec = json.dumps({"workload": workload, "seed": seed, "trace": trace_path, "verified": verified})
    proc, setup_s = start_worker(spec)
    out = finish(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"a {workload} round ended with exit code {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = setup_s
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_DEADLINE_S

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    if not os.path.isfile(os.path.join(ROOT, "src", "pdseq", "cli.py")):
        sys.exit("error: src/pdseq/cli.py not found; run from the root of a pdseq checkout")

    probe(deadline)  # writes the bytecode cache and warms the file cache; not measured
    setup = [probe(deadline) for _ in range(SETUP_PROBES)]
    untraced, traced = [], []
    verified = {}  # operation index -> digests of outputs that passed their check
    start = time.perf_counter()
    while not untraced or (args.trace and not traced) or time.perf_counter() - start < args.seconds:
        trace_round = bool(args.trace) and len(traced) < len(untraced)
        trace_path = None
        if trace_round:
            os.makedirs(TRACE_DIR, exist_ok=True)
            trace_path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}-round{len(traced)}.json")
        report = run_round(args.workload, args.seed, trace_path, verified, deadline)
        (traced if trace_round else untraced).append(report)
        setup.append(report["setup_s"])
        for i, digest in report["verified"].items():
            verified.setdefault(i, []).append(digest)

    rounds = untraced + traced
    failures = [f for r in rounds for f in r["failures"]]
    for f in failures:
        print(f"failed: {f['argv'][:3]}: {f['reason']}", file=sys.stderr)
    result = {
        # a known fault may crash or refuse; a wrong answer is never correct
        "correct": all(f["known_fault"] and f["kind"] != "wrong" for f in failures),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": len(failures),
    }
    if args.trace:
        names = traced[0]["layers"].keys()
        metrics = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
        metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
            r["wall_s"] for r in untraced
        )
        result["metrics"] = {n: {"value": v, "unit": spans.unit(n)} for n, v in metrics.items()}
    else:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in untraced), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in untraced), "unit": "MB"},
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
