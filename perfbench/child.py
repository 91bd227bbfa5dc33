"""One workload in a process of its own: set up, time passes, check outputs.

Run by run.py, never by hand.  It prints a single JSON object with the
timings, failures and peak RSS of this process.  With ``--setup-only`` it
stops where the timed phase would begin, so run.py can sample set-up time
several times per run.
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
import sys
import time
import traceback

import numpy as np

import tracing
import workloads
from workloads import sha1

MIN_PASSES = 2
PROBE_KEYS = np.random.default_rng(0).integers(0, 1 << 30, 20_000)


def speed_probe() -> float:
    """Seconds a fixed kernel takes: a pure-Python loop and a numpy sort, no apsa code.

    It runs after every timed call, so run.py can scale each pass to one
    reference CPU speed (see run.speed_scale).
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    np.argsort(PROBE_KEYS, kind="stable")
    return time.perf_counter() - t0


def execute(call) -> tuple[float, object, str, str]:
    """Run one call with stdout and stderr captured; returns (seconds, rc, output, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc, value = call.run()
        except SystemExit as exc:
            rc, value = exc.code, None
        except Exception:
            rc, value = "exception", None
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
    return elapsed, rc, out.getvalue() if value is None else value, err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--started", type=float, required=True, help="time.time() when run.py spawned us")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None, help="install shims and write spans here")
    parser.add_argument("--min-calls", type=int, default=100)
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    try:
        return run(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


def run(args) -> int:
    import apsa
    import apsa.cli

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(apsa.__file__).startswith(src + os.sep):
        print(f"apsa imported from {apsa.__file__}, not from {src}", file=sys.stderr)
        return 2

    calls, warm, prepare = workloads.WORKLOADS[args.workload](args.seed, args.size, args.workdir)
    warm_outputs = [execute(c)[2] for c in warm]
    if prepare:
        calls = prepare(warm_outputs)
        for call in calls:
            if call not in warm:
                execute(call)

    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    setup_s = time.time() - args.started
    # The CPU speed set-up ran at, for scaling it like the timed calls.
    setup_probe_s = statistics.median(speed_probe() for _ in range(5))
    result = {"setup_s": setup_s, "setup_probe_s": setup_probe_s,
              "calls": [{"kind": c.kind, "n": c.n, **c.extra} for c in calls]}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    passes, digests, errors = [], [], {}
    measured = 0.0
    while (
        len(passes) < MIN_PASSES
        or len(passes) * len(calls) < args.min_calls
        or measured < args.seconds
    ):
        index = len(passes)
        if tracer:
            tracer.pass_index = index
        times, probes, outputs = [], [], []
        t0 = time.perf_counter()
        for i, call in enumerate(calls):
            if tracer:
                tracer.call_id = i
            elapsed, rc, out, err = execute(call)
            times.append(elapsed)
            outputs.append((rc, out))
            if rc != call.expect_rc:
                errors[(index, i)] = f"exit code {rc}, expected {call.expect_rc}: {err.strip()[-300:]}"
            probes.append(speed_probe())
        measured += time.perf_counter() - t0
        digests.append([sha1(f"{rc}\n") + (c.digest(out) if c.digest else sha1(out)) for c, (rc, out) in zip(calls, outputs)])
        strings = [workloads.enumerate_yield(out) if c.kind == "enumerate" else 0 for c, (_, out) in zip(calls, outputs)]
        passes.append({"wall_s": sum(times), "call_s": times, "probe_s": probes, "strings": strings})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # The last pass's outputs get the full check; earlier passes must match them.
    verdicts = [None if rc != c.expect_rc else c.check(out) for c, (rc, out) in zip(calls, outputs)]
    failures = []
    for index, pass_digests in enumerate(digests):
        for i, call in enumerate(calls):
            reason = errors.get((index, i)) or verdicts[i]
            if reason is None and pass_digests[i] != digests[-1][i]:
                reason = "output differs from the checked last-pass output"
            if reason is not None:
                failures.append({"pass": index, "call": i, "kind": call.kind, "reason": reason})

    result.update(passes=passes, failures=failures, digests=digests[-1], peak_rss_mb=peak_rss_mb)
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
