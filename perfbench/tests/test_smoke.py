"""Smoke check of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/tests -q

Runs every workload once untraced and once traced with tiny inputs, and
checks the result line against BENCHMARK.json.  No call may fail.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from math import gcd

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import reference as ref  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float), m["name"]
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    failures = [line for line in lines if "FAILED" in line]
    assert failures == [] and result["failed"] == 0 and result["correct"]


def test_refuses_to_run_without_the_package():
    bare = os.path.join(ROOT, ".perfbench_work", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = bench("--workload", "oracle_queries", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_spec_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) == SPEC["end_to_end"][0]["bound"]
    assert SPEC["end_to_end"][0]["name"] == "setup_s"


def test_references_agree_with_the_package():
    from apsa import APPerm, christoffel_word, factorization_index, is_balanced, suffix_array, synth

    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 40)
        k = rng.choice([k for k in range(1, n) if gcd(k, n) == 1])
        p1 = rng.randint(1, n)
        text = ref.canonical_text(n, k, p1).decode()
        assert text == synth(APPerm(n, k, p1)).text
        assert ref.is_progression_sa(ref.codes_of(text), n, k, p1)
        other = "".join(rng.choice("ab") for _ in range(n))
        sa = ref.suffix_array(ref.codes_of(other))
        assert tuple(sa) == suffix_array(other).sa
        assert ref.is_progression_sa(ref.codes_of(other), n, k, p1) == (tuple(sa) == tuple(ref.progression(n, k, p1)))
        assert ref.is_cyclically_balanced(ref.codes_of(other)) == is_balanced(other)
    for p in range(1, 15):
        for q in range(1, 15):
            if gcd(p, q) == 1:
                assert ref.christoffel_codes(p, q).tobytes().decode() == christoffel_word(p, q)
                assert ref.christoffel_fact_index(p, q) == factorization_index(p, q)
