"""The benchmark workloads: seeded inputs, the calls to time, and their checks.

A workload is a fixed list of calls built from the seed during set-up.  The
timed phase runs that list over and over (one run of it is a "pass").  Each
call is either ``apsa.cli.main(argv)`` with stdout captured or a public
library function the CLI does not expose.  Checks run after the timed phase
against references from :mod:`reference`: the last pass's outputs get the
full check, and every earlier pass must match them byte for byte.

Input sizes sit on a geometric ladder jittered by the seed, so every seed
draws the same spread of sizes and the figures of different seeds agree.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import random
from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Optional

import numpy as np

import reference as ref

CASES = ("unary", "binary1", "binary2", "binary3", "ternary")
# The largest alphabet drawn.  Above 26 ranks the package prints dotted
# decimals (ROADMAP item 3), a wrong answer, and the benchmark draws only
# inputs the package handles; the widest calls sit at this limit.
MAX_SIGMA = 26

SIZES = {
    "full": {
        "corpus_n": 10**7,
        "synth": (10**3, 10**6),
        "fib_m": (16, 30),
        "sorted": (3 * 10**3, 3 * 10**5),
        "binary": (500, 2000),
        "oracle_fib_m": (15, 17),
        "enum_n": (16, 32, 40, 26, 24, 36),
    },
    "tiny": {
        "corpus_n": 10**4,
        "synth": (50, 3000),
        "fib_m": (8, 16),
        "sorted": (50, 3000),
        "binary": (30, 200),
        "oracle_fib_m": (8, 10),
        "enum_n": (6, 8, 10, 8, 8, 10),
    },
}

# (case, sigma) of the six enumerate calls; n comes from SIZES["enum_n"].
ENUM_SLOTS = (("ternary", 6), ("ternary", 5), ("binary1", 4), ("binary3", 5), ("unary", 4), ("binary2", 3))


@dataclass
class Call:
    """One timed call and everything needed to judge its output."""

    kind: str
    n: int  # characters processed, summed into chars_per_s
    run: Callable[[], tuple[int, str]]  # returns (exit code, output)
    check: Callable[[str], Optional[str]]  # failure reason for an output, or None
    expect_rc: int = 0
    digest: Optional[Callable[[str], str]] = None  # output fingerprint compared across passes
    extra: dict = field(default_factory=dict)  # bytes written/verified, strings yielded


def sha1(data) -> str:
    return hashlib.sha1(data if isinstance(data, bytes) else data.encode()).hexdigest()


def file_sha1(path: str) -> str:
    h = hashlib.sha1()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 24):
            h.update(chunk)
    return h.hexdigest()


def fields(line: str) -> dict:
    out = {}
    for token in line.split():
        key, _, value = token.partition("=")
        out[key] = value
    return out


def ladder(lo: int, hi: int, count: int, rng: random.Random) -> list[int]:
    """count sizes spaced geometrically from lo to hi, each jittered by up to 2%."""
    if count == 1:
        return [hi]
    out = []
    for j in range(count):
        base = lo * (hi / lo) ** (j / (count - 1))
        out.append(max(4, round(base * (1 + 0.02 * (rng.random() - 0.5)))))
    return out


def pick_perm(n: int, case: str, rng: random.Random) -> tuple[int, int, int]:
    """Seeded (n, k, p1) realizing the case; ternary needs n >= 4."""
    if case == "unary":
        return n, n - 1, n
    while True:
        k = rng.randrange(1, n)
        if gcd(k, n) != 1 or (k == n - 1 and case != "binary3"):
            continue
        if case == "binary1":
            return n, k, n
        if case == "binary2":
            return n, k, k + 1
        if case == "binary3":
            return n, k, 1
        p1 = rng.randrange(2, n)
        if p1 != k + 1:
            return n, k, p1


# Functions are looked up when a call runs, so timing shims installed after
# set-up apply to them.


def pick_coprime(n: int, rng: random.Random) -> int:
    """Seeded p in [1, n-1] with gcd(p, n) = 1: a Christoffel word (p, n - p)."""
    while True:
        p = rng.randrange(1, n)
        if gcd(p, n) == 1:
            return p


def cli(argv: list[str]) -> Callable[[], tuple[int, None]]:
    """A call of apsa.cli.main(argv); the runner captures its stdout as output."""
    return lambda: (importlib.import_module("apsa.cli").main(argv), None)


def library(module: str, name: str, arg) -> Callable[[], tuple[int, str]]:
    """A call of a public apsa function returning a BWT profile; output is its chars."""
    return lambda: (0, getattr(importlib.import_module(module), name)(arg).chars)


# --------------------------------------------------------------------------
# Checks shared by the query workloads


def check_progressed_text(text: str, n: int, k: int, p1: int, parts: int) -> Optional[str]:
    if len(text) != n:
        return f"text length {len(text)} != n {n}"
    codes = ref.codes_of(text)
    if not ref.is_progression_sa(codes, n, k, p1):
        return "suffix array of printed text is not the progression"
    if len(np.unique(codes)) != parts:
        return f"text uses {len(np.unique(codes))} letters, expected {parts}"
    return None


def check_synth(out: str, n: int, k: int, p1: int, parts: int) -> Optional[str]:
    f = fields(out)
    text = f.get("text", "")
    problem = check_progressed_text(text, n, k, p1, parts)
    if problem:
        return problem
    codes = ref.codes_of(text)
    case = ref.case_of(n, k, p1)
    if f.get("case") != case:
        return f"case={f.get('case')} expected {case}"
    bwt = ref.compact(ref.bwt_runs_chunked(codes, n, k, p1))
    if f.get("bwt") != bwt:
        return f"bwt={f.get('bwt')} expected {bwt}"
    a_count = int(np.count_nonzero(codes == codes.min()))
    if case != "unary" and f.get("p_s") != str(int(ref.progression(n, k, p1, a_count - 1, a_count)[0])):
        return f"p_s={f.get('p_s')} wrong"
    if "s" in f and f["s"] != str(a_count):
        return f"s={f['s']} expected {a_count}"
    if "period" in f:
        period = int(f["period"])
        if not 0 < period < n or text[period:] != text[: n - period]:
            return f"period={period} is not a period"
    return None


def free_split_values(n: int, k: int, p1: int, count: int, rng: random.Random) -> list[int]:
    """Distinct split values that are neither required nor the final entry."""
    case = ref.case_of(n, k, p1)
    wrap = (p1 - k - 1) % n or n
    required = {"unary": set(), "binary1": {wrap}, "ternary": {wrap, n - k}}.get(case, {n - k})
    last = (p1 - k) % n or n
    values: set[int] = set()
    while len(values) < count:
        v = rng.randrange(1, n + 1)
        if v not in required and v != last:
            values.add(v)
    return sorted(values)


def classify_expectation(text: str, triple: Optional[tuple[int, int, int]]) -> str:
    """The exact classify line for a text, from the reference suffix array."""
    codes = ref.codes_of(text)
    if triple is None:
        triple = ref.detect_progression(ref.suffix_array(codes))
    if triple is None:
        return "ap=false"
    n, k, p1 = triple
    parts = ["ap=true", f"n={n}", f"k={k}", f"p1={p1}", f"case={ref.case_of(n, k, p1)}"]
    period = ref.smallest_period(text)
    if period is not None:
        parts.append(f"period={period}")
    parts.append(f"lyndon={'true' if p1 == 1 else 'false'}")
    if set(text) <= {"a", "b"}:
        parts.append(f"balanced={'true' if ref.is_cyclically_balanced(codes) else 'false'}")
    return " ".join(parts)


def check_classify(out: str, text: str, triple) -> Optional[str]:
    if triple is not None and not ref.is_progression_sa(ref.codes_of(text), *triple):
        return "benchmark input is not progressed"  # a harness fault, reported as such
    expected = classify_expectation(text, triple)
    return None if out.strip() == expected else f"got {out.strip()[:120]!r} expected {expected[:120]!r}"


# --------------------------------------------------------------------------
# closed_form_queries


def closed_form_queries(seed: int, size: str, workdir: str):
    from apsa import APPerm

    cfg = SIZES[size]
    rng = random.Random(f"closed_form_queries|{seed}")
    lo, hi = cfg["synth"]
    calls: list[Call] = []

    for case in CASES:
        for n in ladder(lo, hi, 4, rng):
            n, k, p1 = pick_perm(n, case, rng)
            argv = ["synth", "-n", str(n), "-k", str(k), "--p1", str(p1)]
            parts = ref.CASE_SIGMA[case]
            calls.append(Call("synth", n, cli(argv),
                              lambda out, n=n, k=k, p1=p1, parts=parts: check_synth(out, n, k, p1, parts)))

    sizes = ladder(lo, hi, 10, rng)
    wide = {2, 8}  # the small share drawn at the widest alphabet, one small and one large
    for j, n in enumerate(sizes):
        case = CASES[j % 5]
        n, k, p1 = pick_perm(n, case, rng)
        smin = ref.CASE_SIGMA[case]
        if j in wide:
            sigma = MAX_SIGMA
            free = sigma - smin
        else:
            sigma = rng.randint(smin + 1, 8)
            free = rng.randint(0, sigma - smin)
        values = free_split_values(n, k, p1, free, rng)
        argv = ["synth", "-n", str(n), "-k", str(k), "--p1", str(p1), "--sigma", str(sigma)]
        if values:
            argv += ["--splits", ",".join(map(str, values))]
        calls.append(Call("synth_general", n, cli(argv),
                          lambda out, n=n, k=k, p1=p1, parts=smin + free: check_synth(out, n, k, p1, parts)))

    for n in ladder(lo, hi, 5, rng):
        p = pick_coprime(n, rng)
        calls.append(Call("christoffel", n, cli(["christoffel", "-p", str(p), "-q", str(n - p)]),
                          lambda out, p=p, q=n - p: check_christoffel(out, p, q)))

    m_lo, m_hi = cfg["fib_m"]
    for j in range(5):  # Fibonacci lengths grow by 1.6x per index, so no jitter
        m = m_lo + round((m_hi - m_lo) * j / 4)
        n = ref.fibonacci_numbers(m)[-1]
        calls.append(Call("fib", n, cli(["fib", "-m", str(m)]), lambda out, m=m: check_fib(out, m)))

    for j, n in enumerate(ladder(lo, hi, 8, rng)):
        n, k, p1 = pick_perm(n, CASES[1 + j % 4], rng)
        calls.append(Call("bwt_predict", n, library("apsa.textindex", "bwt_predict", APPerm(n, k, p1)),
                          lambda out, n=n, k=k, p1=p1: check_bwt_chars(out, n, k, p1)))

    return calls, smallest_of_each_kind(calls), None


def smallest_of_each_kind(calls: list[Call]) -> list[Call]:
    """Warm-up calls: the smallest call of every kind."""
    smallest: dict[str, Call] = {}
    for call in calls:
        if call.kind not in smallest or call.n < smallest[call.kind].n:
            smallest[call.kind] = call
    return list(smallest.values())


def differing_fields(out: str, expected: dict) -> Optional[str]:
    got = fields(out)
    wrong = sorted(key for key in set(got) | set(expected) if got.get(key) != expected.get(key))
    return f"fields differ: {wrong}" if wrong else None


def check_christoffel(out: str, p: int, q: int) -> Optional[str]:
    """Word, (n, k, p1), split index, BWT shape and factorization index; p, q >= 1."""
    n = p + q
    word = ref.christoffel_codes(p, q).tobytes().decode()
    k = pow(q, -1, n)
    problem = differing_fields(out, {"word": word, "n": str(n), "k": str(k), "p1": "1", "s": str(p),
                                     "bwt": f"b{q}a{p}", "fact_index": str(ref.christoffel_fact_index(p, q))})
    if problem is None and not ref.is_progression_sa(ref.codes_of(word), n, k, 1):
        problem = "christoffel word's suffix array is not (n, q^-1, 1)"
    return problem


def check_fib(out: str, m: int) -> Optional[str]:
    """Word, length, ratio f(m-2) and the swapped word for odd m; m >= 3."""
    word = ref.fibonacci_text(m)
    n, ratio = len(word), ref.fibonacci_numbers(m)[-3]
    swapped = word.translate(str.maketrans("ab", "ba"))
    expected = {"m": str(m), "word": word, "length": str(n), "ratio": str(ratio)}
    expected.update({"ap_word": "swapped", "swapped": swapped} if m % 2 else {"ap_word": "word"})
    problem = differing_fields(out, expected)
    if problem is None and not ref.is_progression_sa(ref.codes_of(swapped if m % 2 else word), n, ratio, n):
        problem = "Fibonacci word's suffix array is not (f_m, f_(m-2), f_m)"
    return problem


def check_bwt_chars(out: str, n: int, k: int, p1: int) -> Optional[str]:
    codes = np.frombuffer(ref.canonical_text(n, k, p1), dtype=np.uint8)
    expected = ref.bwt_codes(codes, n, k, p1)
    return None if out.encode() == expected.tobytes() else "BWT differs from the SA-based BWT"


# --------------------------------------------------------------------------
# oracle_queries


def oracle_queries(seed: int, size: str, workdir: str):
    cfg = SIZES[size]
    rng = random.Random(f"oracle_queries|{seed}")
    calls: list[Call] = []

    def classify(kind: str, text: str, triple):
        calls.append(Call(kind, len(text), cli(["classify", text]),
                          lambda out, text=text, triple=triple: check_classify(out, text, triple)))

    lo, hi = cfg["sorted"]
    for n in ladder(lo, hi, 6, rng):
        triple = pick_perm(n, "ternary", rng)
        classify("classify_ternary", ref.canonical_text(*triple).decode(), triple)
    b_lo, b_hi = cfg["binary"]
    for case in ("unary", "binary1", "binary2", "binary3"):
        for n in ladder(b_lo, b_hi, 2, rng):
            triple = pick_perm(n, case, rng)
            classify("classify_binary", ref.canonical_text(*triple).decode(), triple)
    for n in ladder(b_lo, b_hi, 2, rng):
        p = pick_coprime(n, rng)
        classify("classify_christoffel", ref.christoffel_codes(p, n - p).tobytes().decode(),
                 (n, pow(n - p, -1, n), 1))
    m_lo, m_hi = cfg["oracle_fib_m"]
    for m in (m_lo, m_hi):
        word = ref.fibonacci_text(m)
        if m % 2:
            word = word.translate(str.maketrans("ab", "ba"))
        f = ref.fibonacci_numbers(m)
        classify("classify_fibonacci", word, (f[-1], f[-3], f[-1]))
    for j, n in enumerate(ladder(lo, hi, 6, rng)):
        letters = "abcd"[: 2 + j % 3]
        text = "".join(rng.choice(letters) for _ in range(n))
        classify("classify_random", text, None)

    for j, n in enumerate(ladder(lo, hi, 4, rng)):
        n, k, p1 = pick_perm(n, CASES[1 + j % 4], rng)
        text = ref.canonical_text(n, k, p1).decode()
        calls.append(Call("bwt_from_sa", n, library("apsa.textindex", "bwt_from_sa", text),
                          lambda out, n=n, k=k, p1=p1: check_bwt_chars(out, n, k, p1)))

    for (case, sigma), n in zip(ENUM_SLOTS, cfg["enum_n"]):
        n, k, p1 = pick_perm(n, case, rng)
        smin = ref.CASE_SIGMA[case]
        argv = ["enumerate", "-n", str(n), "-k", str(k), "--p1", str(p1), "--sigma", str(sigma)]
        calls.append(Call("enumerate", n, cli(argv),
                          lambda out, n=n, k=k, p1=p1, sigma=sigma, smin=smin: check_enumerate(out, n, k, p1, sigma, smin)))
    return calls, smallest_of_each_kind(calls), None


def check_enumerate(out: str, n: int, k: int, p1: int, sigma: int, smin: int) -> Optional[str]:
    f = fields(out)
    body = f.get("strings", "")
    if not (body.startswith("[") and body.endswith("]")):
        return "malformed strings list"
    strings = body[1:-1].split(",") if body != "[]" else []
    expected = ref.enumeration_count(n, sigma, smin)
    if f.get("count") != str(len(strings)) or len(strings) != expected:
        return f"count={f.get('count')} listed={len(strings)} expected {expected}"
    if len(set(strings)) != len(strings):
        return "duplicate strings"
    if any(len(s) != n for s in strings):
        return "string of wrong length"
    rows = np.frombuffer("".join(strings).encode("ascii"), dtype=np.uint8).reshape(len(strings), n)
    if rows.size and (rows.min() < ord("a") or rows.max() >= ord("a") + sigma):
        return "string outside the alphabet"
    if not bool(ref.strings_have_progression_sa(rows, n, k, p1).all()):
        return "a listed string does not have the progression as suffix array"
    return None


def enumerate_yield(out: str) -> int:
    return int(fields(out).get("count", 0))


# --------------------------------------------------------------------------
# corpus_large


class CorpusFiles:
    """Candidate files for corpus verify, written in set-up from closed forms."""

    def __init__(self, directory: str, n: int):
        self.dir = directory
        self.n = n
        self.entries: dict[str, tuple[int, int, int, str]] = {}  # id -> (n, k, p1, case)

    @property
    def manifest(self) -> str:
        return os.path.join(self.dir, "manifest.txt")

    def learn(self, gen_stdout: str) -> None:
        """Entry parameters as the generator chose them for this seed."""
        for line in gen_stdout.splitlines():
            f = fields(line)
            if "id" in f:
                self.entries[f["id"]] = (int(f["n"]), int(f["k"]), int(f["p1"]), f["case"])

    def write_candidates(self, rng: random.Random) -> tuple[str, str, str, int]:
        """Sibling .bwt files, one 0-based SA candidate, one corrupted SA candidate."""
        for entry_id, (n, k, p1, _) in self.entries.items():
            codes = np.frombuffer(ref.canonical_text(n, k, p1), dtype=np.uint8)
            with open(os.path.join(self.dir, f"{entry_id}.bwt"), "wb") as fh:
                for start in range(0, n, ref.CHUNK):
                    stop = min(start + ref.CHUNK, n)
                    fh.write(codes[(ref.progression(n, k, p1, start, stop) - 2) % n].tobytes())
        ids = sorted(self.entries)
        zero_id, bad_id = rng.choice(ids), rng.choice(ids)
        n, k, p1, _ = self.entries[zero_id]
        zero_path = os.path.join(self.dir, "candidate-zero-based.sa")
        self._write_sa(zero_path, n, k, p1, shift=-1)
        n, k, p1, _ = self.entries[bad_id]
        offset = n - rng.randrange(min(n, ref.CHUNK))  # 1-based index of the corrupted value
        bad_path = os.path.join(self.dir, "candidate-corrupted.sa")
        self._write_sa(bad_path, n, k, p1, corrupt=offset)
        return zero_id, bad_id, bad_path, offset

    def _write_sa(self, path, n, k, p1, shift=0, corrupt=None):
        with open(path, "wb") as fh:
            for start in range(0, n, ref.CHUNK):
                stop = min(start + ref.CHUNK, n)
                values = ref.progression(n, k, p1, start, stop) + shift
                if corrupt is not None and start < corrupt <= stop:
                    values[corrupt - 1 - start] = values[corrupt - 1 - start] % n + 1
                fh.write(values.astype("<u8").tobytes())

    def check_gen(self, out: str, cases: list[str]) -> Optional[str]:
        lines = out.splitlines()
        if lines[-1:] != [f"manifest=manifest.txt entries={len(cases)}"]:
            return "missing manifest summary line"
        with open(self.manifest, encoding="utf-8") as fh:
            manifest = fh.read().splitlines()
        if manifest[0] != "format_version=1" or len(manifest) != len(cases) + 1:
            return "manifest header or length wrong"
        for case, line, mline in zip(cases, lines, manifest[1:]):
            f, mf = fields(line), fields(mline)
            if f != mf:
                return f"manifest line differs from stdout for {case}"
            n, k, p1 = int(f["n"]), int(f["k"]), int(f["p1"])
            entry_id = f"{case}-n{self.n}"
            if f["id"] != entry_id or n != self.n or f["case"] != case or ref.case_of(n, k, p1) != case:
                return f"entry {f['id']} has wrong id, n or case"
            if f["text"] != f"{entry_id}.txt" or f["sa"] != f"{entry_id}.sa":
                return f"entry {entry_id} names wrong files"
            codes = np.fromfile(os.path.join(self.dir, f["text"]), dtype=np.uint8)
            if not ref.is_progression_sa(codes, n, k, p1):
                return f"{entry_id}: text's suffix array is not the progression"
            if len(np.unique(codes)) != ref.CASE_SIGMA[case]:
                return f"{entry_id}: text is not on the minimal alphabet"
            problem = self._check_sa_file(os.path.join(self.dir, f["sa"]), n, k, p1)
            if problem:
                return f"{entry_id}: {problem}"
            bwt = ref.compact(ref.bwt_runs_chunked(codes, n, k, p1))
            if f["bwt"] != bwt:
                return f"{entry_id}: predicted bwt {f['bwt']} but SA-based is {bwt}"
        return None

    def _check_sa_file(self, path: str, n: int, k: int, p1: int) -> Optional[str]:
        if os.path.getsize(path) != 8 * n:
            return "SA file has the wrong size"
        with open(path, "rb") as fh:
            for start in range(0, n, ref.CHUNK):
                stop = min(start + ref.CHUNK, n)
                got = np.frombuffer(fh.read(8 * (stop - start)), dtype="<u8")
                if not np.array_equal(got, ref.progression(n, k, p1, start, stop)):
                    return "SA file differs from the progression"
        return None

    def gen_digest(self, out: str) -> str:
        names = [os.path.join(self.dir, "manifest.txt")]
        for entry_id in sorted(self.entries):
            names += [os.path.join(self.dir, f"{entry_id}.txt"), os.path.join(self.dir, f"{entry_id}.sa")]
        return sha1(out) + "".join(file_sha1(p) for p in names)


def corpus_large(seed: int, size: str, workdir: str):
    """The gen call runs first as warm-up; its output tells prepare which entries to expect."""
    n = SIZES[size]["corpus_n"]
    files = CorpusFiles(os.path.join(workdir, "corpus"), n)
    gen_argv = ["corpus", "gen", "--out", files.dir, "--sizes", str(n), "--cases", ",".join(CASES),
                "--seed", str(seed)]
    gen = Call("corpus_gen", len(CASES) * n, cli(gen_argv),
               lambda out: files.check_gen(out, list(CASES)), digest=files.gen_digest,
               extra={"bytes_written": len(CASES) * 9 * n})

    def prepare(warm_outputs: list[str]) -> list[Call]:
        """Write the candidates and add the verify calls."""
        files.learn(warm_outputs[0])
        zero_id, bad_id, bad_path, offset = files.write_candidates(random.Random(f"corpus_large|{seed}"))
        ids = list(files.entries)  # manifest order
        verify_all = Call("corpus_verify", len(ids) * n, cli(["corpus", "verify", files.manifest]),
                          lambda out: expect_lines(out, [f"id={i} sa=pass bwt=pass" for i in ids] + ["result=pass"]),
                          extra={"bytes_verified": len(ids) * 9 * n})
        zero = Call("corpus_verify_zero_based", n,
                    cli(["corpus", "verify", files.manifest, "--id", zero_id, "--sa",
                         os.path.join(files.dir, "candidate-zero-based.sa"), "--zero-based"]),
                    lambda out: expect_lines(out, [f"id={zero_id} sa=pass bwt=pass", "result=pass"]),
                    extra={"bytes_verified": 9 * n})
        bad = Call("corpus_verify_corrupted", n,
                   cli(["corpus", "verify", files.manifest, "--id", bad_id, "--sa", bad_path]),
                   lambda out: expect_lines(out, [f"id={bad_id} sa=fail sa_offset={offset} bwt=pass", "result=fail"]),
                   expect_rc=1)
        return [gen, verify_all, zero, bad]

    return [gen], [gen], prepare


def expect_lines(out: str, lines: list[str]) -> Optional[str]:
    got = out.splitlines()
    return None if got == lines else f"got {got[:3]} expected {lines[:3]}"


WORKLOADS = {
    "corpus_large": corpus_large,
    "closed_form_queries": closed_form_queries,
    "oracle_queries": oracle_queries,
}
