"""Independent references for checking apsa outputs.

Nothing here imports apsa.  Every expected value is computed either from the
progression parameters (n, k, p1) in closed form or from the output itself,
with numpy, so a check never trusts the function it is checking.

Conventions follow the package: positions and suffix-array values are
1-based, suffixes are ordered strictly lexicographically with no sentinel.
"""

from __future__ import annotations

from math import comb, gcd

import numpy as np

CHUNK = 1 << 20

CASE_SIGMA = {"unary": 1, "binary1": 2, "binary2": 2, "binary3": 2, "ternary": 3}


def case_of(n: int, k: int, p1: int) -> str:
    """Construction case of the progression, from the parameters alone."""
    if n == 1 or (p1 == n and k == n - 1):
        return "unary"
    if p1 == n:
        return "binary1"
    if p1 == k + 1:
        return "binary2"
    if p1 == 1:
        return "binary3"
    return "ternary"


def progression(n: int, k: int, p1: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Entries start..stop-1 (0-based indices) of the progression, 1-based values."""
    i = np.arange(start, n if stop is None else stop, dtype=np.int64)
    return (p1 - 1 + i * k) % n + 1


def _index_of(pos: np.ndarray, n: int, p1: int, kinv: int) -> np.ndarray:
    """1-based index in the progression holding each 1-based position; n+1 maps to 0."""
    idx = ((pos - p1) % n) * kinv % n + 1
    return np.where(pos > n, 0, idx)


def split_boundaries(n: int, k: int, p1: int) -> list[int]:
    """Index-space boundaries of the canonical construction (split after value v)."""
    case = case_of(n, k, p1)
    if case == "unary":
        return []
    kinv = pow(k, -1, n)
    wrap = (p1 - k - 1) % n or n
    if case == "binary1":
        values = {wrap}
    elif case == "ternary":
        values = {wrap, n - k}
    else:
        values = {n - k}
    idx = {((v - p1) % n) * kinv % n + 1 for v in values}
    idx.discard(n)
    return sorted(idx)


def canonical_text(n: int, k: int, p1: int) -> bytes:
    """The minimal-alphabet text whose suffix array is the progression.

    Position i gets one letter more than 'a' per boundary its rank exceeds.
    Built in chunks, so memory stays at the text itself.
    """
    if case_of(n, k, p1) == "unary":
        return b"a" * n
    kinv = pow(k, -1, n)
    boundaries = split_boundaries(n, k, p1)
    letters = np.full(n, ord("a"), dtype=np.uint8)
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        rank = _index_of(np.arange(start + 1, stop + 1, dtype=np.int64), n, p1, kinv)
        for b in boundaries:
            letters[start:stop] += rank > b
    return letters.tobytes()


def codes_of(text) -> np.ndarray:
    """Character codes of a str or bytes text, ordered like the characters."""
    if isinstance(text, (bytes, bytearray, memoryview)):
        return np.frombuffer(text, dtype=np.uint8)
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)


def is_progression_sa(codes: np.ndarray, n: int, k: int, p1: int) -> bool:
    """O(n) certificate that the progression (n, k, p1) is the suffix array of codes.

    Adjacent entries a, b must satisfy (T[a], rank[a+1]) < (T[b], rank[b+1]),
    where rank is the inverse permutation and the empty suffix ranks 0.
    Works in chunks, so memory stays flat at any n.
    """
    if codes.size != n or n < 1 or not 1 <= p1 <= n:
        return False
    if n == 1:
        return True
    if not 1 <= k < n or gcd(k, n) != 1:
        return False
    kinv = pow(k, -1, n)
    for start in range(0, n - 1, CHUNK):
        stop = min(start + CHUNK, n - 1)
        a = progression(n, k, p1, start, stop)
        b = (a - 1 + k) % n + 1
        ca, cb = codes[a - 1], codes[b - 1]
        ra, rb = _index_of(a + 1, n, p1, kinv), _index_of(b + 1, n, p1, kinv)
        if not bool(((ca < cb) | ((ca == cb) & (ra < rb))).all()):
            return False
    return True


def strings_have_progression_sa(rows: np.ndarray, n: int, k: int, p1: int) -> np.ndarray:
    """Certificate applied to each row of a (count, n) code matrix at once."""
    sa = progression(n, k, p1)
    if n == 1:
        return np.ones(rows.shape[0], dtype=bool)
    rank = np.zeros(n + 2, dtype=np.int64)
    rank[sa] = np.arange(1, n + 1)
    a, b = sa[:-1] - 1, sa[1:] - 1
    tail_ok = rank[a + 2] < rank[b + 2]
    ca, cb = rows[:, a], rows[:, b]
    return ((ca < cb) | ((ca == cb) & tail_ok)).all(axis=1)


def suffix_array(codes: np.ndarray) -> np.ndarray:
    """Suffix array by prefix doubling over lexsorted rank pairs, 1-based."""
    n = codes.size
    rank = np.unique(codes, return_inverse=True)[1].astype(np.int64) + 1
    step = 1
    while True:
        second = np.zeros(n, dtype=np.int64)
        second[: n - step] = rank[step:]
        order = np.lexsort((second, rank))
        r, s = rank[order], second[order]
        new = np.empty(n, dtype=np.int64)
        new[order] = np.cumsum(np.r_[True, (r[1:] != r[:-1]) | (s[1:] != s[:-1])])
        rank = new
        if rank.max() == n or step >= n:
            return order + 1
        step <<= 1


def detect_progression(sa: np.ndarray) -> tuple[int, int, int] | None:
    """(n, k, p1) when the 1-based permutation steps by a constant ratio mod n."""
    n = sa.size
    if n == 1:
        return (1, 1, 1)
    k = int((sa[1] - sa[0]) % n)
    if gcd(k, n) != 1 or not bool(((np.diff(sa) % n) == k).all()):
        return None
    return (n, k, int(sa[0]))


def bwt_codes(codes: np.ndarray, n: int, k: int, p1: int) -> np.ndarray:
    """SA-based BWT: the character cyclically preceding each suffix in SA order."""
    return codes[(progression(n, k, p1) - 2) % n]


def runs_of(codes: np.ndarray) -> list[tuple[str, int]]:
    """Run-length encoding of a code array as (character, count) pairs."""
    if codes.size == 0:
        return []
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    lengths = np.diff(np.r_[starts, codes.size])
    return [(chr(int(codes[s])), int(c)) for s, c in zip(starts, lengths)]


def bwt_runs_chunked(codes: np.ndarray, n: int, k: int, p1: int) -> list[tuple[str, int]]:
    """Runs of the SA-based BWT, built chunk by chunk for large n."""
    runs: list[tuple[str, int]] = []
    for start in range(0, n, CHUNK):
        chunk = codes[(progression(n, k, p1, start, min(start + CHUNK, n)) - 2) % n]
        for ch, count in runs_of(chunk):
            if runs and runs[-1][0] == ch:
                runs[-1] = (ch, runs[-1][1] + count)
            else:
                runs.append((ch, count))
    return runs


def compact(runs) -> str:
    return "".join(f"{ch}{count}" for ch, count in runs)


def smallest_period(text: str) -> int | None:
    """Smallest p < n with text[i] == text[i+p] for all i, via the prefix function."""
    n = len(text)
    pi = [0] * n
    j = 0
    for i in range(1, n):
        c = text[i]
        while j and c != text[j]:
            j = pi[j - 1]
        if c == text[j]:
            j += 1
        pi[i] = j
    period = n - pi[-1] if n else 0
    return period if period < n else None


def is_cyclically_balanced(codes: np.ndarray) -> bool:
    """Cyclic windows of every length hold 'a'-counts differing by at most one."""
    n = codes.size
    prefix = np.r_[0, np.cumsum(np.tile(codes == ord("a"), 2), dtype=np.int64)]
    for length in range(1, n + 1):
        counts = prefix[length : length + n] - prefix[:n]
        if counts.max() - counts.min() > 1:
            return False
    return True


def christoffel_codes(p: int, q: int) -> np.ndarray:
    """Lower Christoffel word: the prefix of length i holds floor(i q / n) letters b."""
    n = p + q
    b_count = np.arange(n + 1, dtype=np.int64) * q // n
    return np.where(np.diff(b_count) > 0, ord("b"), ord("a")).astype(np.uint8)


def christoffel_fact_index(p: int, q: int) -> int:
    """Interior path vertex nearest to the segment from (0, 0) to (p, q)."""
    n = p + q
    i = np.arange(1, n, dtype=np.int64)
    y = i * q // n
    return int(np.argmin(np.abs(q * (i - y) - p * y))) + 1


def fibonacci_numbers(m: int) -> list[int]:
    """[f1, ..., fm] with f1 = f2 = 1."""
    f = [1, 1]
    while len(f) < m:
        f.append(f[-1] + f[-2])
    return f[:m]


def fibonacci_text(m: int) -> str:
    """F1 = b, F2 = a, Fm = F(m-1) F(m-2)."""
    prev, cur = "b", "a"
    if m == 1:
        return prev
    for _ in range(m - 2):
        prev, cur = cur, cur + prev
    return cur


def enumeration_count(n: int, sigma: int, sigma_min: int) -> int:
    """Split refinements containing the required boundaries: C(n + s - s_min, s - s_min)."""
    return comb(n + sigma - sigma_min, sigma - sigma_min)
