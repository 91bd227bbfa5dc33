"""Ground-truth corpora for exercising external suffix-array implementations.

A corpus entry is a text file plus the suffix array it must produce.  Both
are generated directly from the progression parameters in O(n), with no
suffix sorting, so entries of tens of millions of characters are cheap to
produce and their index shape is known exactly.  The closed forms are not
restated here: the suffix array is :func:`apsa.core.ap_array`, the text is
the canonical synthesized text from :mod:`apsa.synthesis`, and the BWT
profile is :func:`apsa.textindex.bwt_runs`.  The files are:

* text file: raw bytes, characters 'a'..'z' by rank;
* suffix-array file: little-endian unsigned 64-bit integers, 1-based values,
  no header (a ``zero_based`` switch accommodates tools that emit 0-based
  arrays);
* manifest: UTF-8 lines of space-separated key=value pairs, one entry per
  line after a format_version header.

Verification is streaming and O(n): a candidate suffix array is accepted
exactly when its first value is the declared first entry and every following
value continues the progression, which pins every single value; a candidate
BWT is compared against the predicted rotation profile.  The number of
worker threads is capped by the APSA_THREADS environment variable.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional

import numpy as np

from .core import APPerm, ap_array
from .errors import CorpusFormatError
from .synthesis import _split_boundaries, _text_codes, required_splits
from .textindex import bwt_runs, compact_runs, expand_runs, parse_compact_runs

__all__ = [
    "CorpusEntry",
    "CorpusManifest",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "thread_count",
    "pick_parameters",
    "entry_text_bytes",
    "entry_sa_array",
    "predicted_bwt_runs",
    "generate_corpus",
    "verify_corpus",
    "verify_sa_file",
    "verify_bwt_file",
]

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.txt"
_CHUNK_ENTRIES = 1 << 20

CASES = ("unary", "binary1", "binary2", "binary3", "ternary")


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    n: int
    k: int
    p1: int
    case: str
    text_name: str
    sa_name: str
    bwt_runs: tuple[tuple[str, int], ...]

    @property
    def perm(self) -> APPerm:
        return APPerm(self.n, self.k, self.p1)


@dataclass
class CorpusManifest:
    format_version: int
    entries: list[CorpusEntry]


@dataclass(frozen=True)
class CheckResult:
    entry_id: str
    check: str  # "sa" or "bwt"
    ok: bool
    first_bad: Optional[int] = None  # 1-based position of the first mismatch


def thread_count(requested: Optional[int] = None) -> int:
    if requested is not None:
        return max(1, requested)
    env = os.environ.get("APSA_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def pick_parameters(n: int, case: str, seed) -> APPerm:
    """Deterministically choose (k, p1) realizing `case` at length n."""
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    rng = random.Random(f"{seed}|{n}|{case}")
    if case == "unary":
        return APPerm(n, n - 1 if n > 1 else 1, n)
    exclude_top = case != "binary3"  # k = n-1 collapses those cases into the reversal
    if n <= 4096:
        ks = [
            k
            for k in range(1, n)
            if gcd(k, n) == 1 and not (exclude_top and k == n - 1)
        ]
        if case == "ternary" and n < 4:
            ks = []
        if not ks:
            raise ValueError(f"no ratio realizes case {case!r} at length {n}")
        k = rng.choice(ks)
    else:
        while True:  # rejection sampling; coprime ratios are dense
            k = rng.randrange(1, n)
            if gcd(k, n) == 1 and not (exclude_top and k == n - 1):
                break
    if case == "binary1":
        p1 = n
    elif case == "binary2":
        p1 = k + 1
    elif case == "binary3":
        p1 = 1
    else:
        while True:
            p1 = rng.randrange(2, n)
            if p1 != k + 1:
                break
    return APPerm(n, k, p1)


def entry_text_bytes(perm: APPerm) -> bytes:
    """The canonical synthesized text as raw bytes, built without suffix sorting."""
    return _text_codes(perm, _split_boundaries(perm, required_splits(perm))).tobytes()


def entry_sa_array(perm: APPerm) -> np.ndarray:
    """The materialized progression as little-endian u64, ready to write."""
    return ap_array(perm).astype("<u8")


def predicted_bwt_runs(perm: APPerm) -> tuple[tuple[str, int], ...]:
    """Run-length form of the BWT of the canonical text, computed on runs only."""
    return bwt_runs(perm, _split_boundaries(perm, required_splits(perm)))


def _manifest_line(entry: CorpusEntry) -> str:
    return (
        f"id={entry.id} n={entry.n} k={entry.k} p1={entry.p1} case={entry.case}"
        f" text={entry.text_name} sa={entry.sa_name} bwt={compact_runs(entry.bwt_runs)}"
    )


def write_manifest(manifest: CorpusManifest, path: str) -> None:
    lines = [f"format_version={manifest.format_version}"]
    lines.extend(_manifest_line(e) for e in manifest.entries)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_manifest(path: str) -> CorpusManifest:
    entries = []
    version = None
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = {}
            for token in line.split():
                key, sep, value = token.partition("=")
                if not sep:
                    raise CorpusFormatError(
                        f"{path}:{line_no}: token {token!r} is not key=value"
                    )
                fields[key] = value
            if version is None:
                if set(fields) != {"format_version"}:
                    raise CorpusFormatError(f"{path}:1: missing format_version header")
                version = int(fields["format_version"])
                continue
            try:
                entries.append(
                    CorpusEntry(
                        id=fields["id"],
                        n=int(fields["n"]),
                        k=int(fields["k"]),
                        p1=int(fields["p1"]),
                        case=fields["case"],
                        text_name=fields["text"],
                        sa_name=fields["sa"],
                        bwt_runs=parse_compact_runs(fields["bwt"]),
                    )
                )
            except KeyError as exc:
                raise CorpusFormatError(f"{path}:{line_no}: missing field {exc}") from exc
    if version is None:
        raise CorpusFormatError(f"{path}: empty manifest")
    ids = [e.id for e in entries]
    if len(set(ids)) != len(ids):
        raise CorpusFormatError(f"{path}: duplicate entry ids")
    return CorpusManifest(version, entries)


def generate_corpus(
    out_dir: str,
    sizes: Iterable[int],
    cases: Iterable[str],
    seed,
    threads: Optional[int] = None,
) -> CorpusManifest:
    """Write one entry per (size, case) pair plus a manifest; fully deterministic."""
    os.makedirs(out_dir, exist_ok=True)
    sizes = list(dict.fromkeys(sizes))
    cases = list(dict.fromkeys(cases))
    entries = []
    for n in sizes:
        for case in cases:
            perm = pick_parameters(n, case, seed)
            entry_id = f"{case}-n{n}"
            entries.append(
                CorpusEntry(
                    id=entry_id,
                    n=n,
                    k=perm.k,
                    p1=perm.p1,
                    case=case,
                    text_name=f"{entry_id}.txt",
                    sa_name=f"{entry_id}.sa",
                    bwt_runs=predicted_bwt_runs(perm),
                )
            )

    def _write(entry: CorpusEntry) -> None:
        with open(os.path.join(out_dir, entry.text_name), "wb") as fh:
            fh.write(entry_text_bytes(entry.perm))
        entry_sa_array(entry.perm).tofile(os.path.join(out_dir, entry.sa_name))

    workers = min(thread_count(threads), max(1, len(entries)))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_write, entries))
    else:
        for entry in entries:
            _write(entry)
    manifest = CorpusManifest(FORMAT_VERSION, entries)
    write_manifest(manifest, os.path.join(out_dir, MANIFEST_NAME))
    return manifest


def verify_sa_file(
    path: str, n: int, k: int, p1: int, zero_based: bool = False
) -> CheckResult:
    """Streaming check that the file holds exactly the declared progression.

    The first value must be p1 and each later value must be its predecessor
    advanced by k modulo n, which determines the whole array; the first
    offending 1-based index is reported on failure.
    """
    size = os.path.getsize(path)
    if size != 8 * n:
        raise CorpusFormatError(
            f"{path}: expected {8 * n} bytes for n={n}, found {size}",
            offset=min(size, 8 * n),
        )
    offset = 1 if zero_based else 0
    prev = None
    index = 0
    with open(path, "rb") as fh:
        while True:
            buf = fh.read(8 * _CHUNK_ENTRIES)
            if not buf:
                break
            arr = np.frombuffer(buf, dtype="<u8").astype(np.int64) + offset
            if index == 0 and arr[0] != p1:
                return CheckResult("", "sa", False, 1)
            if prev is not None and arr[0] != (prev + k - 1) % n + 1:
                return CheckResult("", "sa", False, index + 1)
            expected = (arr[:-1] + k - 1) % n + 1
            good = arr[1:] == expected
            if not bool(good.all()):
                return CheckResult("", "sa", False, index + int(np.argmin(good)) + 2)
            prev = int(arr[-1])
            index += arr.size
    return CheckResult("", "sa", True)


def verify_bwt_file(
    path: str, runs: Iterable[tuple[str, int]]
) -> CheckResult:
    """Streaming comparison of a candidate BWT against the predicted profile."""
    runs = tuple(runs)
    n = sum(count for _, count in runs)
    size = os.path.getsize(path)
    if size != n:
        raise CorpusFormatError(
            f"{path}: expected {n} bytes, found {size}", offset=min(size, n)
        )
    expected = np.frombuffer(expand_runs(runs).encode("ascii"), dtype=np.uint8)
    pos = 0
    with open(path, "rb") as fh:
        while True:
            buf = fh.read(_CHUNK_ENTRIES)
            if not buf:
                break
            got = np.frombuffer(buf, dtype=np.uint8)
            good = got == expected[pos : pos + got.size]
            if not bool(good.all()):
                return CheckResult("", "bwt", False, pos + int(np.argmin(good)) + 1)
            pos += got.size
    return CheckResult("", "bwt", True)


def verify_corpus(
    manifest_path: str,
    directory: Optional[str] = None,
    zero_based: bool = False,
    threads: Optional[int] = None,
    only_id: Optional[str] = None,
    sa_override: Optional[str] = None,
    bwt_override: Optional[str] = None,
) -> list[CheckResult]:
    """Verify candidate SA (and BWT, when present) files for manifest entries.

    By default each entry's SA file named in the manifest is checked, plus a
    sibling <id>.bwt candidate if one exists.  A single entry can be targeted
    with explicit candidate paths instead.  Results keep manifest order.
    """
    manifest = read_manifest(manifest_path)
    base = directory or os.path.dirname(os.path.abspath(manifest_path))
    entries = manifest.entries
    if only_id is not None:
        entries = [e for e in entries if e.id == only_id]
        if not entries:
            raise ValueError(f"no entry with id {only_id!r} in {manifest_path}")

    def _verify(entry: CorpusEntry) -> list[CheckResult]:
        results = []
        sa_path = sa_override or os.path.join(base, entry.sa_name)
        res = verify_sa_file(sa_path, entry.n, entry.k, entry.p1, zero_based)
        results.append(CheckResult(entry.id, "sa", res.ok, res.first_bad))
        bwt_path = bwt_override or os.path.join(base, f"{entry.id}.bwt")
        if bwt_override or os.path.exists(bwt_path):
            res = verify_bwt_file(bwt_path, entry.bwt_runs)
            results.append(CheckResult(entry.id, "bwt", res.ok, res.first_bad))
        return results

    workers = min(thread_count(threads), max(1, len(entries)))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(_verify, entries))
    else:
        nested = [_verify(e) for e in entries]
    return [r for group in nested for r in group]
