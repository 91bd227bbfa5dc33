import os
import random
import re
import signal
import time
import warnings

import numpy as np
import pytest

from apsa.core import APPerm, ap_array, ap_materialize
from apsa.corpus import (
    CASES,
    entry_sa_array,
    entry_text_bytes,
    generate_corpus,
    pick_parameters,
    predicted_bwt_runs,
    read_manifest,
    verify_bwt_file,
    verify_corpus,
    verify_sa_file,
)
from apsa.errors import CorpusFormatError
from apsa.synthesis import classify, synth
from apsa.textindex import bwt_from_sa, suffix_array


def test_pick_parameters_cases_and_determinism():
    for case in CASES:
        a = pick_parameters(40, case, "seed")
        b = pick_parameters(40, case, "seed")
        assert a == b
        assert classify(a)[0].value == case
    assert pick_parameters(40, "ternary", "seed") != pick_parameters(40, "ternary", "other")


def test_pick_parameters_draws_the_top_ternary_ratio():
    # With k = n - 1 every p1 in [2, n - 1] is ternary; only binary1 and
    # binary2 turn into the reversal there.
    draws = [pick_parameters(7, "ternary", seed) for seed in range(200)]
    top = [perm for perm in draws if perm.k == 6]
    assert top
    assert all(classify(perm)[0].value == "ternary" for perm in top)


def test_pick_parameters_rejects_impossible():
    with pytest.raises(ValueError):
        pick_parameters(3, "ternary", 0)
    with pytest.raises(ValueError):
        pick_parameters(8, "sparkly", 0)


def test_pick_parameters_refuses_below_the_minimum_lengths():
    refused = {(1, "binary1"), (1, "binary2"), (1, "binary3"), (1, "ternary"),
               (2, "binary1"), (2, "binary2"), (2, "ternary"), (3, "ternary")}
    for n in range(1, 9):
        for case in CASES:
            if (n, case) in refused:
                with pytest.raises(ValueError, match=f"no ratio realizes case '{case}' at length {n}"):
                    pick_parameters(n, case, 0)
            else:
                assert classify(pick_parameters(n, case, 0))[0].value == case


def test_pick_parameters_draws_at_ten_million_are_frozen():
    # Corpora written by earlier versions at this length must stay reproducible.
    assert [pick_parameters(10**7, case, 0) for case in ("binary1", "binary2", "binary3", "ternary")] == [
        APPerm(10**7, 4916493, 10**7),
        APPerm(10**7, 8879707, 8879708),
        APPerm(10**7, 3907099, 1),
        APPerm(10**7, 880481, 8967894),
    ]


def test_fast_builders_match_synthesis():
    for n in (2, 3, 8, 31, 64, 257):
        for case in CASES:
            try:
                perm = pick_parameters(n, case, 1)
            except ValueError:
                continue
            text = entry_text_bytes(perm).decode()
            assert text == synth(perm).text
            assert list(entry_sa_array(perm)) == ap_materialize(perm)
            assert predicted_bwt_runs(perm) == bwt_from_sa(text).runs


def test_generated_entries_pass_oracle(tmp_path):
    out = tmp_path / "corpus"
    manifest = generate_corpus(out, [8, 100, 1001], ["binary3", "ternary", "unary"], 7)
    for entry in manifest.entries:
        text = (out / entry.text_name).read_bytes().decode()
        sa = np.fromfile(out / entry.sa_name, dtype="<u8")
        assert len(text) == entry.n
        assert list(suffix_array(text).sa) == [int(v) for v in sa]


def test_thread_count_env(monkeypatch):
    from apsa.corpus import thread_count

    monkeypatch.setenv("APSA_THREADS", "2")
    assert thread_count() == 2
    assert thread_count(5) == 5
    monkeypatch.delenv("APSA_THREADS")
    assert thread_count() >= 1


def test_thread_count_follows_the_affinity_mask(monkeypatch):
    from apsa.corpus import thread_count

    monkeypatch.delenv("APSA_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert thread_count() == 1


def test_generation_thread_count_does_not_change_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_corpus(a, [64, 128, 256], ["binary3", "ternary"], 3, threads=1)
    generate_corpus(b, [64, 128, 256], ["binary3", "ternary"], 3, threads=4)
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generation_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        generate_corpus(out, [64, 128], ["binary1", "binary2"], "s")
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_verify_accepts_generated(tmp_path):
    out = tmp_path / "c"
    generate_corpus(out, [8, 500], list(CASES), 3)
    results = verify_corpus(out / "manifest.txt")
    assert results and all(r.ok for r in results)


def test_verify_detects_swapped_entries(tmp_path):
    out = tmp_path / "c"
    generate_corpus(out, [8], ["ternary"], "fig")
    manifest = read_manifest(out / "manifest.txt")
    entry = manifest.entries[0]
    path = out / entry.sa_name
    arr = np.fromfile(path, dtype="<u8")
    arr[2], arr[3] = arr[3], arr[2]  # swap entries 3 and 4 (1-based)
    arr.tofile(path)
    res = verify_sa_file(path, entry.n, entry.k, entry.p1)
    assert not res.ok
    assert res.first_bad == 3


def test_verify_detects_wrong_first_entry(tmp_path):
    out = tmp_path / "c"
    generate_corpus(out, [16], ["binary3"], 0)
    entry = read_manifest(out / "manifest.txt").entries[0]
    path = out / entry.sa_name
    arr = np.fromfile(path, dtype="<u8")
    arr[0] = entry.n  # p1 is 1 for this case
    arr.tofile(path)
    res = verify_sa_file(path, entry.n, entry.k, entry.p1)
    assert not res.ok and res.first_bad == 1


def test_verify_bwt_candidate(tmp_path):
    out = tmp_path / "c"
    generate_corpus(out, [8], ["ternary"], "fig")
    entry = read_manifest(out / "manifest.txt").entries[0]
    text = (out / entry.text_name).read_bytes().decode()
    good = bwt_from_sa(text).chars.encode()
    bwt_path = out / f"{entry.id}.bwt"
    bwt_path.write_bytes(good)
    results = verify_corpus(out / "manifest.txt")
    assert all(r.ok for r in results)
    bad = bytearray(good)
    bad[5] ^= 1
    bwt_path.write_bytes(bytes(bad))
    results = verify_corpus(out / "manifest.txt")
    bwt_results = [r for r in results if r.check == "bwt"]
    assert len(bwt_results) == 1 and not bwt_results[0].ok
    assert bwt_results[0].first_bad == 6


def test_verify_zero_based(tmp_path):
    out = tmp_path / "c"
    generate_corpus(out, [100], ["binary2"], 5)
    entry = read_manifest(out / "manifest.txt").entries[0]
    path = out / entry.sa_name
    arr = np.fromfile(path, dtype="<u8") - 1
    zb = out / "zero.sa"
    arr.astype("<u8").tofile(zb)
    assert not verify_sa_file(zb, entry.n, entry.k, entry.p1).ok
    assert verify_sa_file(zb, entry.n, entry.k, entry.p1, zero_based=True).ok


def test_verify_malformed_size(tmp_path):
    out = tmp_path / "c"
    generate_corpus(out, [32], ["binary3"], 5)
    entry = read_manifest(out / "manifest.txt").entries[0]
    path = out / entry.sa_name
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CorpusFormatError):
        verify_sa_file(path, entry.n, entry.k, entry.p1)


def test_manifest_round_trip(tmp_path):
    out = tmp_path / "c"
    generated = generate_corpus(out, [8, 64], ["binary1", "ternary"], 11)
    loaded = read_manifest(out / "manifest.txt")
    assert loaded.format_version == generated.format_version
    assert loaded.entries == generated.entries


def test_manifest_rejects_duplicate_ids(tmp_path):
    out = tmp_path / "c"
    generate_corpus(out, [8], ["unary"], 0)
    path = out / "manifest.txt"
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], lines[1], lines[1]]) + "\n")
    with pytest.raises(CorpusFormatError):
        read_manifest(path)


def test_corruption_fuzz(tmp_path):
    # Any single-value mutation of a generated suffix-array file is detected.
    out = tmp_path / "c"
    n = 4096
    generate_corpus(out, [n], ["binary3"], "fuzz")
    entry = read_manifest(out / "manifest.txt").entries[0]
    path = out / entry.sa_name
    pristine = np.fromfile(path, dtype="<u8")
    rng = random.Random(20240229)
    for _ in range(300):
        arr = pristine.copy()
        i = rng.randrange(n)
        delta = rng.randrange(1, n)
        arr[i] = (arr[i] - 1 + delta) % n + 1
        arr.tofile(path)
        res = verify_sa_file(path, entry.n, entry.k, entry.p1)
        assert not res.ok
        assert res.first_bad == i + 1  # 1-based index of the corrupted entry
    pristine.tofile(path)


@pytest.mark.parametrize("builder", ["entry_sa_array", "entry_text_bytes"])
def test_builders_refuse_int64_overflow(builder):
    from helpers import run_capped

    # (n - 1) * k and (n - 1) * k^{-1} both exceed 2**63 - 1 here, so the
    # SA (ratio k) and the inverse SA behind the text (ratio k^{-1}) overflow.
    proc = run_capped(
        "from apsa.core import APPerm\n"
        f"from apsa.corpus import {builder}\n"
        "try:\n"
        f"    {builder}(APPerm(4000000007, 4000000004, 1))\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ValueError"), proc.stdout
    assert "overflows int64" in proc.stdout


def _rewrite_manifest_field(path, line_no, key, value):
    lines = path.read_text().splitlines()
    line, count = re.subn(rf"(?<!\S){key}=\S*", f"{key}={value}", lines[line_no - 1])
    assert count == 1
    lines[line_no - 1] = line
    path.write_text("\n".join(lines) + "\n")


# Line 1 is the header, line 2 the binary3 entry of a manifest holding
# binary3-n64 and ternary-n64.
MANIFEST_DEFECTS = [
    (1, "format_version", "x"),
    (1, "format_version", "9"),
    (2, "n", "6x4"),
    (2, "k", "+3"),
    (2, "k", "2"),  # not coprime with 64
    (2, "p1", "1.0"),
    (2, "p1", "65"),
    (2, "p1", "0"),
    (2, "sa", "../mf/binary3-n64.sa"),
    (2, "sa", "/tmp/binary3-n64.sa"),
    (2, "sa", ".."),
    (2, "text", "sub/binary3-n64.txt"),
    (2, "id", "../binary3-n64"),
    (2, "case", "ternary"),
    (2, "bwt", "a64"),
    (2, "bwt", "b\u0667a57"),  # ARABIC-INDIC DIGIT SEVEN is not an ASCII count
    (2, "bwt", "b7a5\u0667"),
]


@pytest.mark.parametrize("line_no, key, value", MANIFEST_DEFECTS)
def test_manifest_defects_name_their_line(tmp_path, line_no, key, value):
    out = tmp_path / "c"
    generate_corpus(out, [64], ["binary3", "ternary"], 3)
    path = out / "manifest.txt"
    _rewrite_manifest_field(path, line_no, key, value)
    with pytest.raises(CorpusFormatError, match=f"manifest.txt:{line_no}: "):
        read_manifest(path)


def test_chunked_generation_is_byte_identical(tmp_path, monkeypatch):
    import apsa.corpus as corpus

    sizes, cases = [7, 8, 20, 64, 101], list(CASES)
    whole = tmp_path / "whole"
    generate_corpus(whole, sizes, cases, 5, threads=1)
    monkeypatch.setattr(corpus, "_CHUNK_ENTRIES", 7)
    for threads in (1, 4):
        out = tmp_path / f"t{threads}"
        generate_corpus(out, sizes, cases, 5, threads=threads)
        names = sorted(p.name for p in whole.iterdir())
        assert names == sorted(p.name for p in out.iterdir())
        for name in names:
            assert (whole / name).read_bytes() == (out / name).read_bytes(), name
    for entry in read_manifest(whole / "manifest.txt").entries:
        assert (whole / entry.text_name).read_bytes() == entry_text_bytes(entry.perm)
        assert (whole / entry.sa_name).read_bytes() == entry_sa_array(entry.perm).tobytes()


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_chunked_generation_is_byte_identical_at_small_blocks(tmp_path, monkeypatch, block):
    import apsa.core as core

    reference = tmp_path / "reference"
    generate_corpus(reference, [7, 8, 20, 64, 101], list(CASES), 5, threads=1)
    monkeypatch.setattr(core, "_BLOCK", block)
    test_chunked_generation_is_byte_identical(tmp_path, monkeypatch)
    for name in sorted(p.name for p in reference.iterdir()):
        assert (reference / name).read_bytes() == (tmp_path / "whole" / name).read_bytes(), name


@pytest.mark.parametrize("prior", ["same", "other_seed", "longer", "shorter"])
@pytest.mark.parametrize("threads", [1, 4])
def test_regeneration_over_an_existing_corpus_is_byte_identical(
    tmp_path, monkeypatch, prior, threads
):
    import apsa.corpus as corpus

    sizes, cases = [7, 8, 20, 64, 101], list(CASES)
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    generate_corpus(fresh, sizes, cases, 5, threads=1)
    monkeypatch.setattr(corpus, "_CHUNK_ENTRIES", 7)
    old = generate_corpus(out, sizes, cases, 6 if prior == "other_seed" else 5, threads=threads)
    if prior == "other_seed":  # same names and sizes, other ratios and first entries
        new = read_manifest(fresh / "manifest.txt").entries
        assert [e.text_name for e in old.entries] == [e.text_name for e in new]
        assert any((e.k, e.p1) != (f.k, f.p1) for e, f in zip(old.entries, new))
    for i, path in enumerate(sorted(out.glob("*-n*"))):
        data = path.read_bytes()
        if prior == "longer":
            path.write_bytes(data + b"\xff\x01junk" * (i % 3 + 1))
        elif prior == "shorter":
            path.write_bytes(data[: len(data) // 2 if i % 2 else 0])
    generate_corpus(out, sizes, cases, 5, threads=threads)
    names = sorted(p.name for p in fresh.iterdir())
    assert names == sorted(p.name for p in out.iterdir())
    for name in names:
        assert (fresh / name).read_bytes() == (out / name).read_bytes(), name
    results = verify_corpus(out / "manifest.txt", threads=threads)
    assert len(results) == len(sizes) * len(cases) and all(r.ok for r in results)


def test_failed_regeneration_leaves_no_manifest(tmp_path, monkeypatch):
    import apsa.corpus as corpus

    out = tmp_path / "c"
    generate_corpus(out, [64], ["binary3", "ternary"], 5, threads=1)
    monkeypatch.setattr(corpus, "_CHUNK_ENTRIES", 7)
    real = corpus._write_chunk

    def write_chunk(out_dir, entry, start, stop):
        if entry.case == "ternary" and start >= 28:
            raise OSError("no space left on device")
        real(out_dir, entry, start, stop)

    monkeypatch.setattr(corpus, "_write_chunk", write_chunk)
    with pytest.raises(OSError, match="no space left"):
        generate_corpus(out, [64], ["binary3", "ternary"], 6, threads=2)
    assert not (out / "manifest.txt").exists()
    assert sorted(p.name for p in out.iterdir()) == [
        "binary3-n64.sa", "binary3-n64.txt", "ternary-n64.sa", "ternary-n64.txt"
    ]


@pytest.mark.parametrize(
    "corrupt, reported",
    [
        ([8], 8),  # first entry of the second chunk
        ([14], 14),  # last entry of the second chunk
        ([1], 1),
        ([64], 64),
        ([50, 31], 31),  # two chunks at once
    ],
)
@pytest.mark.parametrize("threads", [1, 4])
def test_chunked_verify_reports_smallest_offset(tmp_path, monkeypatch, corrupt, reported, threads):
    import apsa.corpus as corpus

    monkeypatch.setattr(corpus, "_CHUNK_ENTRIES", 7)
    out = tmp_path / "c"
    generate_corpus(out, [64], ["ternary"], "chunks")
    entry = read_manifest(out / "manifest.txt").entries[0]
    text = (out / entry.text_name).read_bytes().decode()
    bwt = bytearray(bwt_from_sa(text).chars.encode())
    sa = np.fromfile(out / entry.sa_name, dtype="<u8")
    for offset in corrupt:
        sa[offset - 1] = sa[offset - 1] % entry.n + 1
        bwt[offset - 1] ^= 1
    sa.tofile(out / entry.sa_name)
    (out / f"{entry.id}.bwt").write_bytes(bytes(bwt))
    results = verify_corpus(out / "manifest.txt", threads=threads)
    assert [(r.check, r.ok, r.first_bad) for r in results] == [
        ("sa", False, reported),
        ("bwt", False, reported),
    ]
    assert verify_sa_file(out / entry.sa_name, entry.n, entry.k, entry.p1).first_bad == reported
    assert verify_bwt_file(out / f"{entry.id}.bwt", entry.bwt_runs).first_bad == reported


@pytest.mark.parametrize("offset", [1, 2, 7, 8, 40])
@pytest.mark.parametrize("zero_based", [False, True])
def test_verify_reports_top_u64_value(tmp_path, monkeypatch, offset, zero_based):
    import apsa.corpus as corpus

    monkeypatch.setattr(corpus, "_CHUNK_ENTRIES", 7)
    perm = APPerm(40, 7, 3)
    path = tmp_path / "cand.sa"
    sa = entry_sa_array(perm) - np.uint64(zero_based)
    sa[offset - 1] = 2**64 - 1
    sa.tofile(path)
    res = verify_sa_file(path, perm.n, perm.k, perm.p1, zero_based=zero_based)
    assert not res.ok and res.first_bad == offset


def test_generation_refuses_overflow_before_writing(tmp_path, monkeypatch):
    import apsa.corpus as corpus

    # An entry whose ratio overflows int64 comes after one that does not.
    real = corpus.pick_parameters
    monkeypatch.setattr(
        corpus,
        "pick_parameters",
        lambda n, case, seed: APPerm(4000000007, 4000000004, 1) if n == 9 else real(n, case, seed),
    )
    out = tmp_path / "c"
    with pytest.raises(ValueError, match="overflows int64"):
        generate_corpus(out, [64, 9], ["binary3"], 0, threads=2)
    assert list(out.iterdir()) == []


def test_generation_peak_memory_is_bounded(tmp_path):
    from helpers import run_measured

    # One 10^7 ternary entry on two threads; whole-entry vectors would need
    # about 24 bytes per entry per thread, some 280 MiB.
    code, out, peak_mib = run_measured(
        "from apsa.corpus import generate_corpus\n"
        f"generate_corpus({str(tmp_path / 'c')!r}, [10**7], ['ternary'], 1, threads=2)\n"
    )
    assert code == 0, out
    assert (tmp_path / "c" / "ternary-n10000000.sa").stat().st_size == 8 * 10**7
    assert peak_mib < 150, peak_mib


def test_run_measured_counts_the_child_alone():
    from helpers import run_measured

    ballast = np.ones(200 << 20, dtype=np.uint8)  # this process holds 200 MiB more
    code, out, peak_mib = run_measured("pass")
    assert (code, out) == (0, "")
    assert peak_mib < 64, peak_mib
    del ballast
    with pytest.raises(RuntimeError, match="reported no peak RSS"):
        run_measured("import os\nos._exit(0)")


def test_vmhwm_env_logs_each_child_alone(tmp_path):
    import subprocess
    import sys

    from helpers import reported_peaks_mib, vmhwm_env

    env = vmhwm_env(str(tmp_path))
    ballast = np.ones(200 << 20, dtype=np.uint8)  # this process holds 200 MiB more
    for argv in (["-m", "apsa.cli", "fib", "-m", "5"], ["-c", "x = b'1' * (100 << 20)"]):
        subprocess.run([sys.executable, *argv], env=env, check=True, stdout=subprocess.DEVNULL)
    del ballast
    small, large = reported_peaks_mib(str(tmp_path))
    assert small < 64 and 100 < large < 164, (small, large)


def test_ranges_outside_the_entry_raise():
    for n in range(1, 13):
        edges = [-2, -1, 0, 1, n - 1, n, n + 1, n + 3]
        for case in CASES:
            try:
                perm = pick_parameters(n, case, 0)
            except ValueError:
                continue
            for start in edges:
                for stop in edges + [None]:
                    if 0 <= start <= (n if stop is None else stop) <= n:
                        continue
                    for build in (ap_array, entry_sa_array, entry_text_bytes):
                        with pytest.raises(ValueError, match="not inside"):
                            build(perm, start, stop)
    with pytest.raises(ValueError, match="not inside"):
        ap_array(APPerm(10**9 + 7, 10**9, 1), 10**10, 10**10 + 3)


def _corrupted_entry(out, corrupt):
    """A 64-entry ternary corpus whose SA and .bwt files are corrupted at the given offsets."""
    generate_corpus(out, [64], ["ternary"], "chunks")
    entry = read_manifest(out / "manifest.txt").entries[0]
    text = (out / entry.text_name).read_bytes().decode()
    bwt = bytearray(bwt_from_sa(text).chars.encode())
    sa = np.fromfile(out / entry.sa_name, dtype="<u8")
    for offset in corrupt:
        sa[offset - 1] = sa[offset - 1] % entry.n + 1
        bwt[offset - 1] ^= 1
    sa.tofile(out / entry.sa_name)
    (out / f"{entry.id}.bwt").write_bytes(bytes(bwt))
    return entry


@pytest.mark.parametrize("corrupt", [[], [8], [14], [1], [64], [50, 31]])
def test_single_file_checks_match_verify_corpus_at_every_thread_count(tmp_path, monkeypatch, corrupt):
    import apsa.corpus as corpus

    monkeypatch.setattr(corpus, "_CHUNK_ENTRIES", 7)
    out = tmp_path / "c"
    entry = _corrupted_entry(out, corrupt)
    expected = min(corrupt, default=None)
    assert [r.first_bad for r in verify_corpus(out / "manifest.txt", threads=2)] == [expected] * 2
    for threads in (1, 2, 4):
        sa = verify_sa_file(out / entry.sa_name, entry.n, entry.k, entry.p1, threads=threads)
        bwt = verify_bwt_file(out / f"{entry.id}.bwt", entry.bwt_runs, threads=threads)
        assert (sa.ok, sa.first_bad) == (expected is None, expected)
        assert (bwt.ok, bwt.first_bad) == (expected is None, expected)
    monkeypatch.setenv("APSA_THREADS", "abc")
    with pytest.raises(ValueError, match="APSA_THREADS=abc"):
        verify_sa_file(out / entry.sa_name, entry.n, entry.k, entry.p1)
    with pytest.raises(ValueError, match="APSA_THREADS=abc"):
        verify_bwt_file(out / f"{entry.id}.bwt", entry.bwt_runs)


def test_verify_corpus_runs_the_single_file_checks(tmp_path, monkeypatch):
    import apsa.corpus as corpus

    out = tmp_path / "c"
    manifest = generate_corpus(out, [8, 20], ["binary1", "ternary"], 3)
    with_bwt = manifest.entries[1]
    text = (out / with_bwt.text_name).read_bytes().decode()
    (out / f"{with_bwt.id}.bwt").write_bytes(bwt_from_sa(text).chars.encode())
    calls = []
    for name in ("verify_sa_file", "verify_bwt_file"):

        def spy(*args, real=getattr(corpus, name), name=name, **kwargs):
            calls.append((name, os.path.basename(args[0]), args[1]))
            return real(*args, **kwargs)

        monkeypatch.setattr(corpus, name, spy)
    results = verify_corpus(out / "manifest.txt")
    expected, tags = [], []
    for entry in manifest.entries:
        expected.append(("verify_sa_file", entry.sa_name, entry.n))
        tags.append((entry.id, "sa", True))
        if entry is with_bwt:
            expected.append(("verify_bwt_file", f"{entry.id}.bwt", entry.bwt_runs))
            tags.append((entry.id, "bwt", True))
    assert calls == expected
    assert [(r.entry_id, r.check, r.ok) for r in results] == tags


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_verifies_after_the_parent(tmp_path, monkeypatch):
    import apsa.corpus as corpus

    monkeypatch.setattr(corpus, "_CHUNK_ENTRIES", 7)
    entry = generate_corpus(tmp_path / "c", [100], ["ternary"], 1, threads=2).entries[0]
    path = tmp_path / "c" / entry.sa_name
    assert verify_sa_file(path, entry.n, entry.k, entry.p1, threads=2).ok
    with warnings.catch_warnings():
        # Python 3.12+ warns that forking a process that runs threads may deadlock.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if verify_sa_file(path, entry.n, entry.k, entry.p1, threads=2).ok else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's verify did not finish")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status[1]) == 0


@pytest.mark.parametrize(
    "n, k, p1, match",
    [
        (4000000007, 4000000004, 1, "overflows int64"),
        (0, 1, 1, "length must be positive"),
        (64, 2, 1, "coprime"),
    ],
)
def test_verify_sa_file_refuses_what_generation_refuses(tmp_path, n, k, p1, match):
    # An empty file is the right size only for n = 0; the parameters are refused first.
    path = tmp_path / "cand.sa"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match=match):
        verify_sa_file(path, n, k, p1)


@pytest.mark.parametrize(
    "line_no, key, extra",
    [(2, "sa", "sa=other.sa"), (2, "n", "n=64"), (1, "format_version", "format_version=1")],
)
def test_manifest_rejects_repeated_keys(tmp_path, line_no, key, extra):
    out = tmp_path / "c"
    generate_corpus(out, [64], ["binary3"], 3)
    path = out / "manifest.txt"
    lines = path.read_text().splitlines()
    lines[line_no - 1] += " " + extra
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match=f"manifest.txt:{line_no}: key '{key}' repeated"):
        read_manifest(path)


def test_manifest_rejects_unknown_entry_keys(tmp_path):
    out = tmp_path / "c"
    generate_corpus(out, [64], ["binary3", "ternary"], 3)
    path = out / "manifest.txt"
    lines = path.read_text().splitlines()
    lines[2] += " lcp=ternary-n64.lcp"
    path.write_text("\n".join(lines) + "\n")
    for check in (read_manifest, verify_corpus):
        with pytest.raises(CorpusFormatError, match="manifest.txt:3: unknown key 'lcp'"):
            check(path)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("zero_based", [False, True])
def test_verify_reports_the_first_difference_from_the_closed_form(
    tmp_path, monkeypatch, threads, zero_based
):
    import apsa.corpus as corpus

    monkeypatch.setattr(corpus, "_CHUNK_ENTRIES", 7)
    rng = np.random.default_rng([20261019, threads, zero_based])
    special = np.array([0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1], dtype=np.uint64)
    sa_path, bwt_path = tmp_path / "cand.sa", tmp_path / "cand.bwt"
    for n in (1, 2, 7, 8, 15, 40, 64, 101):
        ks = [k for k in range(1, n) if np.gcd(k, n) == 1] or [1]
        for _ in range(12):
            perm = APPerm(n, int(rng.choice(ks)), int(rng.integers(1, n + 1)))
            truth = ap_array(perm).view(np.uint64) - np.uint64(zero_based)
            offsets = rng.choice(n, size=rng.integers(0, min(n, 4) + 1), replace=False)
            sa = truth.copy()
            for i in offsets:
                kind = rng.integers(3)
                if kind == 0:
                    sa[i] = rng.integers(0, 2**64, dtype=np.uint64)
                elif kind == 1:
                    sa[i] = rng.choice(special)
                else:
                    sa[i] = rng.integers(0, n + 2)
            sa.astype("<u8").tofile(sa_path)
            diff = np.flatnonzero(sa != truth)
            expected = int(diff[0]) + 1 if diff.size else None
            res = verify_sa_file(sa_path, perm.n, perm.k, perm.p1, zero_based, threads)
            assert (res.ok, res.first_bad) == (expected is None, expected), (perm, sa)

            runs = predicted_bwt_runs(perm)
            good = np.frombuffer("".join(ch * count for ch, count in runs).encode(), np.uint8)
            bwt = good.copy()
            bwt[offsets] = rng.integers(0, 256, size=offsets.size)
            bwt.tofile(bwt_path)
            diff = np.flatnonzero(bwt != good)
            expected = int(diff[0]) + 1 if diff.size else None
            res = verify_bwt_file(bwt_path, runs, threads)
            assert (res.ok, res.first_bad) == (expected is None, expected), (perm, bwt)


def test_verify_stops_at_the_first_failing_chunk(tmp_path, monkeypatch):
    import apsa.corpus as corpus

    monkeypatch.setattr(corpus, "_CHUNK_ENTRIES", 7)
    perm = APPerm(64, 5, 3)  # ten chunks
    sa = entry_sa_array(perm)
    sa[16] = sa[16] % perm.n + 1  # offset 17, in chunk 2 (entries 15-21)
    path = tmp_path / "cand.sa"
    sa.tofile(path)
    calls = []
    real = corpus.ap_array

    def counted(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(corpus, "ap_array", counted)
    res = verify_sa_file(path, perm.n, perm.k, perm.p1, threads=1)
    assert (res.ok, res.first_bad) == (False, 17)
    assert len(calls) <= 3, calls


def test_verify_returns_after_every_chunk_it_started(tmp_path, monkeypatch):
    # A chunk still comparing its memory map after verify returned would read
    # a file the caller may truncate next, and a read past the end is SIGBUS.
    import threading

    import apsa.corpus as corpus

    monkeypatch.setattr(corpus, "_CHUNK_ENTRIES", 7)
    perm = APPerm(64, 5, 3)
    sa = entry_sa_array(perm)
    sa[0] = sa[0] % perm.n + 1
    path = tmp_path / "cand.sa"
    sa.tofile(path)
    running, lock = set(), threading.Lock()
    real = corpus.ap_array

    def slow(perm, start, stop):
        with lock:
            running.add(start)
        if start:
            time.sleep(0.05)
        try:
            return real(perm, start, stop)
        finally:
            with lock:
                running.discard(start)

    monkeypatch.setattr(corpus, "ap_array", slow)
    res = verify_sa_file(path, perm.n, perm.k, perm.p1, threads=4)
    with lock:
        assert (res.first_bad, running) == (1, set())


def test_chunk_pool_comes_from_the_corpus_executor_name(tmp_path, monkeypatch):
    # Generation and verification take their pool class from corpus.ThreadPoolExecutor
    # at call time: a counting subclass there is built at two threads, never at one.
    from concurrent.futures import ThreadPoolExecutor

    import apsa._chunked as chunked
    import apsa.corpus as corpus

    built = []

    class Counting(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(corpus, "ThreadPoolExecutor", Counting)
    try:
        for threads in (1, 2):
            chunked._pool.cache_clear()
            out = tmp_path / f"t{threads}"
            (entry,) = generate_corpus(out, [50], ["ternary"], 1, threads=threads).entries
            after_gen = len(built)
            chunked._pool.cache_clear()
            res = verify_sa_file(out / entry.sa_name, entry.n, entry.k, entry.p1, threads=threads)
            assert res.ok
            assert (after_gen, len(built)) == ((0, 0) if threads == 1 else (1, 2))
    finally:
        for pool in built:
            pool.shutdown()
        chunked._pool.cache_clear()


def test_verify_calls_no_generation_builder(tmp_path, monkeypatch):
    # Verification compares with the closed forms themselves; a call of a
    # generation builder would count as bytes written in a traced run.
    import apsa.corpus as corpus

    generate_corpus(tmp_path, [50], list(CASES), 2)
    for entry in read_manifest(tmp_path / "manifest.txt").entries:
        text = (tmp_path / entry.text_name).read_text()
        (tmp_path / f"{entry.id}.bwt").write_text(bwt_from_sa(text).chars)

    def refuse(*args):
        raise AssertionError("generation builder called")

    monkeypatch.setattr(corpus, "entry_sa_array", refuse)
    monkeypatch.setattr(corpus, "entry_text_bytes", refuse)
    results = verify_corpus(tmp_path / "manifest.txt", threads=1)
    assert [(r.check, r.ok) for r in results] == [("sa", True), ("bwt", True)] * len(CASES)
