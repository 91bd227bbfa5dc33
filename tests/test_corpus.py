import random

import numpy as np
import pytest

from apsa.core import APPerm, ap_materialize
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


def test_pick_parameters_rejects_impossible():
    with pytest.raises(ValueError):
        pick_parameters(3, "ternary", 0)
    with pytest.raises(ValueError):
        pick_parameters(8, "sparkly", 0)


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
