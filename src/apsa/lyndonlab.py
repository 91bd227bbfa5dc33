"""Lyndon-word predicates and factorizations, balanced words, Fibonacci words.

A Lyndon word is strictly least among its cyclic rotations, hence primitive
and border-free.  Besides the classic greedy (Duval) factorization, Lyndon
words admit a right factorization (split before the least proper suffix) and
a left factorization (split after the longest proper Lyndon prefix).  Over two
letters the words where the two coincide at every level are exactly the lower
Christoffel words; over more letters others qualify too, such as acb and abac.

>>> is_lyndon("abcac")
True
>>> [f for f in duval_factorization("babbabac").factors]
['b', 'abb', 'abac']
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import APPerm
from .errors import WrongParityError
from .synthesis import synth_binary
from .textindex import bwt_from_matrix

__all__ = [
    "Factorization",
    "FibonacciWord",
    "is_lyndon",
    "duval_factorization",
    "right_factorization",
    "left_factorization",
    "is_balanced2",
    "balanced2_factorization",
    "is_balanced",
    "balanced_via_bwt",
    "balanced_via_slope",
    "fibonacci_word",
    "fibonacci_lengths",
    "fibonacci_closed_form",
    "fibonacci_swapped",
]

_BALANCE_BLOCK_CELLS = 1 << 20


@dataclass(frozen=True)
class Factorization:
    """Factors of a word, with the kind of factorization that produced them.

    For kind "balanced2-tree" the two children carry the recursive structure
    down to single characters.
    """

    factors: tuple[str, ...]
    kind: str
    children: tuple["Factorization", ...] = ()

    @property
    def word(self) -> str:
        return "".join(self.factors)


def is_lyndon(w: str) -> bool:
    """True when w is strictly smaller than every nontrivial rotation of itself."""
    n = len(w)
    if n == 0:
        raise ValueError("empty word")
    doubled = w + w
    return all(w < doubled[i : i + n] for i in range(1, n))


def duval_factorization(w: str) -> Factorization:
    """Unique factorization into lexicographically nonincreasing Lyndon words."""
    if not w:
        raise ValueError("empty word")
    factors = []
    i, n = 0, len(w)
    while i < n:
        j, k = i + 1, i
        while j < n and w[k] <= w[j]:
            k = i if w[k] < w[j] else k + 1
            j += 1
        while i <= k:
            factors.append(w[i : i + j - k])
            i += j - k
    return Factorization(tuple(factors), "duval")


def right_factorization(w: str) -> Factorization:
    """Split a Lyndon word before its lexicographically least proper suffix.

    Both factors are Lyndon and the left one is smaller.  The least proper
    suffix of w is the least suffix of w[1:], which is the last Duval factor
    of w[1:].
    """
    if len(w) < 2:
        raise ValueError("need at least two characters to factorize")
    if not is_lyndon(w):
        raise ValueError(f"{w!r} is not a Lyndon word")
    cut = _right_cut(w)
    return Factorization((w[:cut], w[cut:]), "right")


def left_factorization(w: str) -> Factorization:
    """Split a Lyndon word after its longest proper Lyndon prefix.

    By Chen-Fox-Lyndon that prefix is the first Duval factor of w[:-1].
    """
    if len(w) < 2:
        raise ValueError("need at least two characters to factorize")
    if not is_lyndon(w):
        raise ValueError(f"{w!r} is not a Lyndon word")
    cut = _left_cut(w)
    return Factorization((w[:cut], w[cut:]), "left")


def _left_cut(w: str) -> int:
    return len(duval_factorization(w[:-1]).factors[0])


def _right_cut(w: str) -> int:
    return len(w) - len(duval_factorization(w[1:]).factors[-1])


def _balanced2_cuts(w: str) -> Optional[dict[str, int]]:
    """The cut of every multi-character node of w's balanced2 tree, or None.

    Both factors of a coinciding factorization of a Lyndon word are Lyndon,
    so only the root is checked.  The tree is walked with an explicit stack:
    a lower Christoffel word such as a b^1000 is a thousand levels deep.
    """
    if not is_lyndon(w):
        return None
    cuts: dict[str, int] = {}
    stack = [w]
    while stack:
        u = stack.pop()
        if len(u) > 1 and u not in cuts:
            cuts[u] = cut = _left_cut(u)
            if cut != _right_cut(u):
                return None
            stack += (u[:cut], u[cut:])
    return cuts


def is_balanced2(w: str) -> bool:
    """True when the left and right factorizations coincide recursively.

    Single characters are balanced; multi-character non-Lyndon words are not
    (no error is raised for them).
    """
    return _balanced2_cuts(w) is not None


def balanced2_factorization(w: str) -> Factorization:
    """The recursive coinciding factorization, down to single characters."""
    cuts = _balanced2_cuts(w)
    if cuts is None:
        raise ValueError(f"{w!r} has no coinciding left/right factorization")
    nodes = {ch: Factorization((ch,), "balanced2-tree") for ch in set(w)}
    for u in sorted(cuts, key=len):  # children before their parents
        left, right = u[: cuts[u]], u[cuts[u] :]
        nodes[u] = Factorization((left, right), "balanced2-tree", (nodes[left], nodes[right]))
    return nodes[w]


def _check_binary(w: str) -> None:
    if not w:
        raise ValueError("empty word")
    if set(w) - {"a", "b"}:
        raise ValueError(f"expected a word over 'a','b', got {w!r}")


def is_balanced(w: str) -> bool:
    """Cyclic balance check, straight from the definition.

    For every window length, the 'a'-counts over all cyclic windows of that
    length may differ by at most one.  The work stays quadratic on purpose,
    since this is the test oracle, but it runs in numpy: one int32 prefix-sum
    vector over w + w gives every count, and the window lengths are checked
    in blocks of about 2^20 counts, stopping at the first block that holds
    an unbalanced length.
    """
    _check_binary(w)
    n = len(w)
    is_a = np.frombuffer(w.encode("ascii"), dtype=np.uint8) == ord("a")
    prefix = np.zeros(2 * n + 1, dtype=np.int32)
    np.cumsum(np.tile(is_a, 2), dtype=np.int32, out=prefix[1:])
    windows = sliding_window_view(prefix, n)  # row L holds prefix[L : L + n]
    lengths_per_block = max(1, _BALANCE_BLOCK_CELLS // n)
    for lo in range(1, n + 1, lengths_per_block):
        counts = windows[lo : min(lo + lengths_per_block, n + 1)] - prefix[:n]
        if (np.ptp(counts, axis=1) > 1).any():
            return False
    return True


def balanced_via_bwt(w: str) -> bool:
    """Balance check through the rotation-matrix BWT.

    A binary word is cyclically balanced exactly when its matrix BWT is
    perfectly clustered, all 'b's then all 'a's.
    """
    _check_binary(w)
    return "ab" not in bwt_from_matrix(w).chars


def balanced_via_slope(w: str) -> bool:
    """Balance check in O(n) without a sort: w keeps within one step of its slope.

    With c(i) 'a's among the first i letters and m in all, the cyclic window
    [i, i + L) holds (D(i + L) - D(i) + L m) / n of them, where
    D(i) = n c(i) - i m repeats with period n.  So every window length sees
    at most two adjacent counts when max D - min D < n.  Otherwise a window
    holds at least L m / n + 1, and as the n windows of its length average
    L m / n, another holds at least two fewer.
    """
    _check_binary(w)
    n = len(w)
    counts = np.cumsum(np.frombuffer(w.encode("ascii"), dtype=np.uint8) == ord("a"), dtype=np.int64)
    drift = n * counts - np.arange(1, n + 1) * counts[-1]  # D(1), ..., D(n) = D(0)
    return int(np.ptp(drift)) < n


@dataclass(frozen=True)
class FibonacciWord:
    m: int
    word: str

    @property
    def length(self) -> int:
        return len(self.word)


def fibonacci_word(m: int) -> FibonacciWord:
    """The m-th Fibonacci word: F1 = b, F2 = a, Fm = F(m-1) F(m-2)."""
    if m < 1:
        raise ValueError(f"index must be at least 1, got {m}")
    prev, cur = "b", "a"  # F1, F2
    if m == 1:
        return FibonacciWord(1, prev)
    for _ in range(m - 2):
        prev, cur = cur, cur + prev
    return FibonacciWord(m, cur)


def fibonacci_lengths(m: int) -> list[int]:
    """Lengths [f1..fm] of the first m Fibonacci words."""
    if m < 1:
        raise ValueError(f"index must be at least 1, got {m}")
    out = [1, 1]
    while len(out) < m:
        out.append(out[-1] + out[-2])
    return out[:m]


def fibonacci_closed_form(m: int) -> str:
    """Even-index Fibonacci word by synthesis instead of recursion.

    It is the binary string whose suffix array is the progression
    (f(m), f(m-2), f(m)): character i is 'a' exactly when 1 + i*f(m-2),
    reduced into [1..f(m)], is at most f(m-1).
    """
    if m % 2:
        raise WrongParityError(f"closed form applies to even indices, got {m}")
    if m < 4:
        raise ValueError(f"index must be at least 4, got {m}")
    f = fibonacci_lengths(m)
    return synth_binary(APPerm(f[m - 1], f[m - 3], f[m - 1])).text


_SWAP = str.maketrans("ab", "ba")


def fibonacci_swapped(m: int) -> str:
    """The m-th Fibonacci word with 'a' and 'b' exchanged."""
    return fibonacci_word(m).word.translate(_SWAP)
