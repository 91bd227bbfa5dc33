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

The ``bwt=`` runs and ``<id>.bwt`` files hold the SA-based BWT, the character
cyclically preceding each sorted suffix with no sentinel, not the rotation-matrix
BWT: for (8, 3, 4), ``babaabab``, they are ``bbbaaaab`` and ``bbababaa``, so a
tool that computes the matrix BWT fails every binary2 entry.

A corpus file is its bytes per position and the closed-form chunk for
positions [start, stop).  Generation and verification run in such chunks on
:mod:`apsa._chunked` with :func:`thread_count` workers.  Verification checks a
candidate's size, compares each memory-mapped chunk with the SA from
:func:`apsa.core.ap_array` or the expanded BWT runs, one file at a time, and
reports the first differing offset; it stops at the first failing chunk and
refuses the (n, k, p1) that generation refuses.  Reading a manifest checks
every entry against its (n, k, p1): file names must stay inside the corpus
directory, the case tag and BWT runs must be the predicted ones, and no key
may repeat or fall outside the eight that generation writes.
"""

from __future__ import annotations

import contextlib
import os
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from math import gcd
from typing import Iterable, Optional

import numpy as np

from ._chunked import run_until, spans
from .core import APPerm, _check_int64, ap_array, ap_inverse
from .errors import CorpusFormatError
from .synthesis import SynthCase, _canonical_boundaries, _text_codes, classify
from .textindex import bwt_runs, compact_runs, parse_compact_runs

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

CASES = tuple(case.value for case in SynthCase)
# The shortest length at which each case has a progression.
_MIN_LENGTH = {"unary": 1, "binary1": 3, "binary2": 3, "binary3": 2, "ternary": 4}
# The keys of a manifest entry line, as _manifest_line writes them.
_ENTRY_KEYS = ("id", "n", "k", "p1", "case", "text", "sa", "bwt")


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
    """Worker threads: `requested`, else APSA_THREADS, else the usable CPUs; below 1 raises ValueError."""
    env = os.environ.get("APSA_THREADS") if requested is None else None
    if env:
        try:
            requested = int(env)
        except ValueError:
            raise ValueError(f"APSA_THREADS={env} is not an integer") from None
    if requested is not None:
        if requested < 1:
            raise ValueError(f"{'APSA_THREADS' if env else 'threads'}={requested} is not a positive count")
        return requested
    if hasattr(os, "sched_getaffinity"):  # the affinity mask, not every CPU of the machine
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pick_parameters(n: int, case: str, seed) -> APPerm:
    """Deterministically choose (k, p1) realizing `case` at length n, by one rejection sampler.

    n below _MIN_LENGTH[case] (binary3 2, binary1 and binary2 3, ternary 4) raises ValueError.
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    if n < _MIN_LENGTH[case]:
        raise ValueError(f"no ratio realizes case {case!r} at length {n}")
    rng = random.Random(f"{seed}|{n}|{case}")
    if case == "unary":
        return APPerm(n, n - 1 if n > 1 else 1, n)
    exclude_top = case in ("binary1", "binary2")  # with k = n-1 their p1 = n: the reversal
    while True:  # coprime ratios are dense
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


def entry_text_bytes(perm: APPerm, start: int = 0, stop: Optional[int] = None) -> bytes:
    """Characters [start, stop) of the canonical synthesized text as raw bytes."""
    return _text_codes(perm, _canonical_boundaries(perm), start, stop).tobytes()


def entry_sa_array(perm: APPerm, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
    """Entries [start, stop) of the progression as little-endian u64, ready to write."""
    return ap_array(perm, start, stop).view(np.uint64).astype("<u8", copy=False)


def predicted_bwt_runs(perm: APPerm) -> tuple[tuple[str, int], ...]:
    """Run-length form of the BWT of the canonical text, computed on runs only."""
    return bwt_runs(perm, _canonical_boundaries(perm))


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


def _decimal(key: str, value: str) -> int:
    if not (value.isascii() and value.isdigit()):
        raise ValueError(f"{key}={value} is not a decimal integer")
    return int(value)


def _bare_name(key: str, value: str) -> str:
    """A file name that stays inside the corpus directory: no separator, '.' or '..'."""
    if value in ("", ".", "..") or any(ch in value for ch in "/\\\0"):
        raise ValueError(f"{key}={value} is not a bare file name")
    return value


def _parse_entry(fields: dict[str, str]) -> CorpusEntry:
    """One manifest entry, checked against its (n, k, p1); raises KeyError or ValueError."""
    unknown = [key for key in fields if key not in _ENTRY_KEYS]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    entry = CorpusEntry(
        id=_bare_name("id", fields["id"]),
        n=_decimal("n", fields["n"]),
        k=_decimal("k", fields["k"]),
        p1=_decimal("p1", fields["p1"]),
        case=fields["case"],
        text_name=_bare_name("text", fields["text"]),
        sa_name=_bare_name("sa", fields["sa"]),
        bwt_runs=parse_compact_runs(fields["bwt"]),
    )
    case = classify(entry.perm)[0].value
    if entry.case != case:
        raise ValueError(f"case={entry.case} but (n, k, p1) is {case}")
    predicted = predicted_bwt_runs(entry.perm)
    if entry.bwt_runs != predicted:
        raise ValueError(
            f"bwt={fields['bwt']} but the predicted BWT is {compact_runs(predicted)}"
        )
    return entry


def read_manifest(path: str) -> CorpusManifest:
    """Parse and check a manifest; any defect raises CorpusFormatError naming its line."""
    entries = []
    version = None
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                fields = {}
                for token in line.split():
                    key, sep, value = token.partition("=")
                    if not sep:
                        raise ValueError(f"token {token!r} is not key=value")
                    if key in fields:
                        raise ValueError(f"key {key!r} repeated")
                    fields[key] = value
                if version is None:
                    if set(fields) != {"format_version"}:
                        raise ValueError("missing format_version header")
                    version = _decimal("format_version", fields["format_version"])
                    if version != FORMAT_VERSION:
                        raise ValueError(
                            f"format_version={version} is not {FORMAT_VERSION}"
                        )
                else:
                    entries.append(_parse_entry(fields))
            except KeyError as exc:
                raise CorpusFormatError(f"{path}:{line_no}: missing field {exc}") from exc
            except ValueError as exc:
                raise CorpusFormatError(f"{path}:{line_no}: {exc}") from exc
    if version is None:
        raise CorpusFormatError(f"{path}: empty manifest")
    ids = [e.id for e in entries]
    if len(set(ids)) != len(ids):
        raise CorpusFormatError(f"{path}: duplicate entry ids")
    return CorpusManifest(version, entries)


def _entry_files(entry: CorpusEntry) -> tuple:
    """Each file of an entry: (name, bytes per position, builder), the builders read at call time."""
    return ((entry.text_name, 1, entry_text_bytes), (entry.sa_name, 8, entry_sa_array))


def _write_chunk(out_dir: str, entry: CorpusEntry, start: int, stop: int) -> None:
    """Write positions [start, stop) of each of one corpus entry's files in place."""
    for name, width, build in _entry_files(entry):
        with open(os.path.join(out_dir, name), "r+b") as fh:
            fh.seek(width * start)
            fh.write(build(entry.perm, start, stop))


def generate_corpus(
    out_dir: str,
    sizes: Iterable[int],
    cases: Iterable[str],
    seed,
    threads: Optional[int] = None,
) -> CorpusManifest:
    """Write one entry per (size, case) pair plus a manifest; fully deterministic.

    All chunks of all entries, _CHUNK_ENTRIES positions each, go in one pass.
    Once every parameter is accepted the old manifest goes, each text and SA
    file is sized to its final length and overwritten in place, and the new
    manifest comes last: no manifest outlives files a failed call rewrote.
    """
    threads = thread_count(threads)  # a bad APSA_THREADS fails before any file exists
    sizes = list(dict.fromkeys(sizes))
    cases = list(dict.fromkeys(cases))
    perms = {(n, case): pick_parameters(n, case, seed) for n in sizes for case in cases}
    os.makedirs(out_dir, exist_ok=True)  # only once every size and case is valid
    entries = []
    for (n, case), perm in perms.items():
        _check_int64(perm)  # refuse before any entry data is written
        _check_int64(ap_inverse(perm))
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
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, MANIFEST_NAME))
    for entry in entries:
        for name, width, _ in _entry_files(entry):
            with open(os.path.join(out_dir, name), "ab") as fh:  # keeps the cached pages
                fh.truncate(width * entry.n)
    tasks = [(out_dir, e, a, b) for e in entries for a, b in spans(0, e.n, _CHUNK_ENTRIES)]
    run_until(_write_chunk, tasks, threads, ThreadPoolExecutor)
    manifest = CorpusManifest(FORMAT_VERSION, entries)
    write_manifest(manifest, os.path.join(out_dir, MANIFEST_NAME))
    return manifest


def _check_file(path: str, check: str, n: int, width: int, expected, threads: int) -> CheckResult:
    """Check that a file holds n values of `width` bytes each, expected(start, stop) for [start, stop).

    After the size, each _CHUNK_ENTRIES chunk is memory-mapped with expected's dtype, little-endian;
    the first failing chunk ends the pass and gives the 1-based offset of its first bad value.
    """
    found = os.path.getsize(path)
    if found != width * n:
        of_n = f" for n={n}" if width > 1 else ""  # one byte per value: the size is n
        raise CorpusFormatError(f"{path}: expected {width * n} bytes{of_n}, found {found}")

    def chunk(start: int, stop: int) -> Optional[int]:
        want = expected(start, stop)
        bad = np.memmap(path, want.dtype.newbyteorder("<"), "r", width * start, (stop - start,)) != want
        return start + int(bad.argmax()) + 1 if bad.any() else None

    first = run_until(chunk, spans(0, n, _CHUNK_ENTRIES), threads, ThreadPoolExecutor)
    return CheckResult("", check, first is None, first)


def verify_sa_file(
    path: str, n: int, k: int, p1: int, zero_based: bool = False, threads: Optional[int] = None
) -> CheckResult:
    """Streaming check that the file holds exactly the declared progression.

    Parameters that generation refuses (not a progression, or past int64) raise ValueError
    before the file is opened.  Each chunk is compared with the same entries of
    :func:`apsa.core.ap_array`, less 1 for a 0-based candidate; the first bad 1-based index is reported.
    """
    threads = thread_count(threads)
    perm = APPerm(n, k, p1)
    _check_int64(perm)

    def expected(start: int, stop: int) -> np.ndarray:
        values = ap_array(perm, start, stop).view(np.uint64)
        if zero_based:
            values -= 1
        return values

    return _check_file(path, "sa", n, 8, expected, threads)


def verify_bwt_file(
    path: str, runs: Iterable[tuple[str, int]], threads: Optional[int] = None
) -> CheckResult:
    """Streaming comparison of a candidate BWT against the predicted profile."""
    threads = thread_count(threads)
    runs = tuple(runs)
    chars = np.frombuffer("".join(ch for ch, _ in runs).encode("ascii"), dtype=np.uint8)
    edges = np.cumsum([0, *(count for _, count in runs)])  # run j is chars[j] on [edges[j], edges[j + 1])
    return _check_file(
        path, "bwt", int(edges[-1]), 1, lambda a, b: np.repeat(chars, np.diff(np.clip(edges, a, b))), threads
    )


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
    with explicit candidate paths instead; a candidate path without only_id
    raises ValueError before any file is opened.  Each file is checked in
    turn by verify_sa_file or verify_bwt_file, which reports its smallest
    failing offset.  Results keep manifest order.
    """
    if only_id is None and (sa_override or bwt_override):
        raise ValueError("candidate --sa/--bwt files need --id to name their entry")
    threads = thread_count(threads)
    manifest = read_manifest(manifest_path)
    base = directory or os.path.dirname(os.path.abspath(manifest_path))
    entries = manifest.entries
    if only_id is not None:
        entries = [e for e in entries if e.id == only_id]
        if not entries:
            raise ValueError(f"no entry with id {only_id!r} in {manifest_path}")

    results = []
    for entry in entries:
        sa_path = sa_override or os.path.join(base, entry.sa_name)
        found = [verify_sa_file(sa_path, entry.n, entry.k, entry.p1, zero_based, threads)]
        bwt_path = bwt_override or os.path.join(base, f"{entry.id}.bwt")
        if bwt_override or os.path.exists(bwt_path):
            found.append(verify_bwt_file(bwt_path, entry.bwt_runs, threads))
        results.extend(replace(res, entry_id=entry.id) for res in found)
    return results
