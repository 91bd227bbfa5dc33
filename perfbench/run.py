"""Benchmark for apsa: time the CLI and library end to end, and each layer under it.

    python3 perfbench/run.py                      # every workload, untraced and traced
    python3 perfbench/run.py --workload corpus_large --seed 3 --seconds 10 --trace 0

Run it from the repository root.  Each workload runs in fresh child
processes (perfbench/child.py) against the package in ./src, so peak RSS is
the workload's own.  With ``--trace 0`` it reports the end-to-end metrics:
set-up time is sampled in SETUP_SAMPLES processes and the median reported,
then one process times passes over the seeded call list for ``--seconds``.
With ``--trace 1`` an untraced and a traced process share the time; the
traced one wraps every public function of the package (perfbench/tracing.py)
and gives the per-layer metrics, and the two must print identical stdout.

Every output is checked outside the timed region.  Human-readable lines come
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit codes: 0 when the run
completed (check failures are reported, not raised), 1 when a child process
failed or timed out, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corpus_large", "closed_form_queries", "oracle_queries")
DEADLINE_S = 170  # each (workload, trace) run ends inside 180 seconds
THREADS = 2  # APSA_THREADS, capped at nproc below
# The query workloads time at least 100 calls per run, so call_ms_p90 has
# ten samples beyond it; corpus_large makes four long calls a pass.
MIN_CALLS = {"corpus_large": 0, "closed_form_queries": 100, "oracle_queries": 100}
# Set-up processes sampled per untraced run; corpus_large's set-up writes ~0.7 GB.
# child.speed_probe's median time on the reference machine (README, Environment).
PROBE_REF_S = 3.0e-3
PROBE_WINDOW = 3  # calls on either side whose probes scale a call
SETUP_SAMPLES = {"corpus_large": 3, "closed_form_queries": 5, "oracle_queries": 5}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "calls_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "chars_per_s": "chars/s",
}

LAYER_TIMES = (
    "corpus.entry_text_bytes", "corpus.entry_sa_array", "corpus.pick_parameters", "corpus.predicted_bwt_runs",
    "corpus.verify_sa_file", "corpus.verify_bwt_file", "corpus.read_manifest",
    "synthesis.synth", "synthesis.synth_general", "core.ap_materialize", "textindex.bwt_predict",
    "textindex.rotate_runs", "christoffel.christoffel_word", "lyndonlab.fibonacci_word",
    "textindex.suffix_array", "textindex.bwt_from_sa", "core.ap_detect",
    "lyndonlab.is_lyndon", "lyndonlab.is_balanced", "enumeration.enumerate_strings",
)
PER_LAYER = {
    **{f"{name}_ms": "ms" for name in LAYER_TIMES},
    "corpus.write_self_ms": "ms",
    "cli.self_ms": "ms",
    "enumeration.oracle_ms": "ms",
    "textindex.suffix_array.calls": "count",
    "corpus.bytes_written": "bytes",
    "corpus.bytes_verified": "bytes",
    "enumeration.candidates": "count",
    "enumeration.yielded": "count",
    "enumeration.useful_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "gen_mb_s": "MB/s",
    "verify_mb_s": "MB/s",
    "enum_strings_per_s": "strings/s",
}


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["APSA_THREADS"] = str(min(THREADS, os.cpu_count() or 1))
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def fs_type(path: str) -> str:
    """Filesystem type of the mount holding path, from /proc/self/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) >= 3 and (path == parts[1] or path.startswith(parts[1].rstrip("/") + "/")):
                    if len(parts[1]) > len(best):
                        best, kind = parts[1], parts[2]
    except OSError:
        pass
    return kind


def spawn(args, workload: str, seconds: float, deadline: float, **flags) -> dict:
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{os.getpid()}")
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--size", args.size, "--workdir", workdir]
    for flag, value in flags.items():
        if value is True:
            argv.append(f"--{flag.replace('_', '-')}")
        elif value is not None:
            argv += [f"--{flag.replace('_', '-')}", str(value)]
    argv += ["--started", repr(time.time())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("no time left for another child process")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} child timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{workload} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled(measure: dict) -> list[dict]:
    """The measuring child's passes with every time scaled to the reference CPU speed.

    The host's CPU speed drifts by tens of percent within seconds, and the
    time of every call drifts with it.  child.speed_probe, a fixed kernel
    outside apsa, runs after each call.  A call's time is multiplied by
    PROBE_REF_S over the median probe time of the calls within PROBE_WINDOW
    of it in the same pass.
    """
    out = []
    for p in measure["passes"]:
        probes = p["probe_s"]
        factors = [PROBE_REF_S / statistics.median(probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1])
                   for i in range(len(probes))]
        call_s = [t * f for t, f in zip(p["call_s"], factors)]
        out.append({**p, "factors": factors, "wall_s": sum(call_s), "call_s": call_s})
    return out


def end_to_end(measure: dict, setups: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics of one measuring child, plus notes for the report."""
    calls, passes = measure["calls"], scaled(measure)
    wall = statistics.median(p["wall_s"] for p in passes)
    latencies = [t * 1000 for p in passes for t in p["call_s"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": measure["peak_rss_mb"],
        "calls_per_s": len(calls) / wall,
        "call_ms_p50": percentile(latencies, 50),
        "call_ms_p90": percentile(latencies, 90),
        "chars_per_s": sum(c["n"] for c in calls) / wall,
    }
    beyond = sum(1 for x in latencies if x > metrics["call_ms_p90"])
    unscaled = statistics.median(p["wall_s"] for p in measure["passes"])
    factors = [f for p in passes for f in p["factors"]]
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {len(passes)} passes of {len(calls)} calls; unscaled {unscaled:.6g} s,"
                  f" speed factor {min(factors):.3f}..{max(factors):.3f}",
        "call_ms_p50": f"{len(latencies)} samples",
        "call_ms_p90": f"{len(latencies)} samples, {beyond} beyond",
    }
    return metrics, notes


def per_kind(measure: dict) -> dict:
    """Throughputs of single call kinds: corpus gen, corpus verify, enumerate."""
    calls, passes = measure["calls"], scaled(measure)

    def rate(amounts) -> float:
        """Median over passes of the amount per second of the calls that have one."""
        values = []
        for p in passes:
            amount = amounts(p)
            seconds = sum(t for t, x in zip(p["call_s"], amount) if x)
            values.append(sum(amount) / seconds if seconds else 0.0)
        return statistics.median(values)

    return {
        "gen_mb_s": rate(lambda p: [c.get("bytes_written", 0) for c in calls]) / 1e6,
        "verify_mb_s": rate(lambda p: [c.get("bytes_verified", 0) for c in calls]) / 1e6,
        "enum_strings_per_s": rate(lambda p: p["strings"]),
    }


def failure_lines(results: list[dict]) -> list[str]:
    lines = []
    for res in results:
        for f in res["failures"][:10]:
            lines.append(f"  FAILED pass {f['pass']} call {f['call']} {f['kind']}: {f['reason']}")
    return lines


def run_workload(args, workload: str, trace: int, deadline: float) -> dict:
    if trace == 0:
        samples = [spawn(args, workload, args.seconds, deadline, setup_only=True)
                   for _ in range(SETUP_SAMPLES[workload] - 1)]
        measure = spawn(args, workload, args.seconds, deadline, min_calls=MIN_CALLS[workload])
        setups = [c["setup_s"] * PROBE_REF_S / c["setup_probe_s"] for c in samples + [measure]]
        metrics, notes = end_to_end(measure, setups)
        children = [measure]
        units = END_TO_END
    else:
        half = args.seconds / 2
        plain = spawn(args, workload, half, deadline, min_calls=0)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{workload}-seed{args.seed}.jsonl")
        traced = spawn(args, workload, half, deadline, min_calls=0, trace_out=spans)
        for i, (a, b) in enumerate(zip(plain["digests"], traced["digests"])):
            if a != b:
                traced["failures"].append({"pass": "-", "call": i, "kind": "trace",
                                           "reason": "captured stdout differs with tracing on"})
        layers = traced["layers"]
        metrics = {name: float(layers.get(name, 0)) for name in PER_LAYER}
        metrics.update(per_kind(plain))
        plain_wall = statistics.median(p["wall_s"] for p in scaled(plain))
        traced_wall = statistics.median(p["wall_s"] for p in scaled(traced))
        metrics["trace.overhead_ratio"] = traced_wall / plain_wall - 1
        notes = {"spans": spans}
        children = [plain, traced]
        units = PER_LAYER
    attempted = sum(len(c["passes"]) * len(c["calls"]) for c in children)
    failed = sum(len(c["failures"]) for c in children)
    return {"workload": workload, "trace": trace, "metrics": metrics, "units": units, "notes": notes,
            "attempted": attempted, "failed": failed, "children": children}


def report(args, res: dict) -> None:
    m = res["metrics"]
    print(f"workload={res['workload']} seed={args.seed} trace={res['trace']} size={args.size}"
          f" attempted={res['attempted']} failed={res['failed']}"
          f" failed_ratio={res['failed'] / res['attempted']:.6g}")
    for name, unit in res["units"].items():
        note = res["notes"].get(name)
        print(f"  {name} = {m[name]:.6g} {unit}" + (f"  ({note})" if note else ""))
    if res["trace"] == 0:
        for name, value in per_kind(res["children"][0]).items():
            if value:
                print(f"  {name} = {value:.6g} {PER_LAYER[name]}")
    if "spans" in res["notes"]:
        print(f"  spans written to {os.path.relpath(res['notes']['spans'], ROOT)}")
    for line in failure_lines(res["children"]):
        print(line)


def environment(args) -> str:
    import numpy

    workdir = os.path.join(ROOT, ".perfbench_work")
    return (f"env nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={numpy.__version__}"
            f" APSA_THREADS={child_env()['APSA_THREADS']} corpus_dir={os.path.relpath(workdir, ROOT)}"
            f" corpus_fs={fs_type(ROOT)} seed={args.seed} seconds={args.seconds} size={args.size}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input for a quick smoke check")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "apsa", "__init__.py")):
        print(f"no apsa package under {os.path.join(ROOT, 'src')}; run from a full checkout", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    print(environment(args))
    results = []
    try:
        for workload in workloads:
            for trace in traces:
                res = run_workload(args, workload, trace, time.monotonic() + DEADLINE_S)
                report(args, res)
                results.append(res)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # One run reports its metrics by name; several prefix them with the workload.
    prefix = (lambda r: f"{r['workload']}/") if len(results) > 1 else (lambda r: "")
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {prefix(r) + name: {"value": r["metrics"][name], "unit": unit}
                    for r in results for name, unit in r["units"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
