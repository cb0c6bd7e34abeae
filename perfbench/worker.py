"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py '{"workload": W, "seed": N, "trace": null or path, "verified": {...}}'
    python3 perfbench/worker.py probe

Imports the pdseq command line first and prints "ready", so the parent can
time set-up from process start.  Then it builds the round's operations,
calls ``pdseq.cli.main`` for each with stdout and stderr captured, reads the
peak RSS, checks every output and prints one JSON line with the result.
An output whose digest the parent lists under "verified" for that operation
passed its check in an earlier round of the run and is not checked again.
With a trace path it wraps the layers first (see spans.py) and writes the
spans there at the end.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import pdseq.cli  # noqa: E402  (set-up ends here)

sys.stdout.write("ready\n")
sys.stdout.flush()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


def run_op(op):
    """(exit code or None, stdout, exception line or None) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    if op.stdin is not None:
        sys.stdin = io.StringIO(op.stdin)
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = pdseq.cli.main(list(op.argv))
        except SystemExit as exc:  # argparse refusing the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the program crashed: the operation fails
            rc, crash = None, traceback.format_exception_only(exc)[-1].strip()
    return rc, out.getvalue(), crash


def failure(op, rc, out, crash):
    """None when the operation succeeded, else (kind, reason)."""
    if crash is not None:
        return "crash", f"crashed: {crash}"
    try:
        reason = op.check(rc, out)
    except (ValueError, KeyError, TypeError) as exc:
        reason = f"unreadable output: {exc!r}"
    if reason is None:
        return None
    return ("exit" if reason.startswith(verify.EXIT_CODE) else "wrong"), reason


def main(spec):
    ops = workloads.WORKLOADS[spec["workload"]](spec["seed"])
    tracer = None
    if spec.get("trace"):
        tracer = spans.Tracer()
        spans.install(tracer)

    start = time.perf_counter()
    results = [run_op(op) for op in ops]
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

    verified = spec.get("verified", {})
    failures, digests = [], {}
    for i, (op, (rc, out, crash)) in enumerate(zip(ops, results)):
        digest = hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()
        if crash is None and digest in verified.get(str(i), ()):
            continue
        failed = failure(op, rc, out, crash)
        if failed is None:
            digests[str(i)] = digest
        else:
            kind, reason = failed
            failures.append({"op": i, "argv": list(op.argv), "known_fault": op.known_fault, "kind": kind, "reason": reason})

    report = {
        "attempted": len(ops),
        "failures": failures,
        "verified": digests,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        output_bytes = sum(len(out) for _, out, _ in results)
        report["layers"] = spans.layer_metrics(tracer, wall_s, output_bytes, verify.CHECK_IDS)
        tracer.write(spec["trace"], {"workload": spec["workload"], "seed": spec["seed"], "wall_s": wall_s})
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["probe"]:
        main(json.loads(sys.argv[1]))
