"""Reference oracles for suffix arrays and both Burrows-Wheeler transform definitions.

Conventions, fixed package-wide:

* Suffix arrays are 1-based permutations, sorted under strict lexicographic
  order with no sentinel appended, so a suffix that is a prefix of another
  precedes it.
* The SA-based BWT takes the character cyclically preceding each sorted
  suffix.  The matrix-based BWT is the last column of the lexicographically
  sorted rotation matrix; equal rotations of a non-primitive text are ordered
  by starting position, which makes the matrix BWT total and deterministic.
  The two definitions coincide on Lyndon words and on the split-construction
  strings of :mod:`apsa.synthesis`, but not in general.

The closed-form BWT has one home, :func:`bwt_runs`: a text whose suffix array
is the progression (n, k, p1) lists its characters in sorted order along
that suffix array, and its BWT is that sorted string rotated left by n
minus the inverse ratio.

The suffix-array oracle is prefix doubling, O(n log n); a vectorized variant
takes over for long texts.  Linear-time construction is out of scope here on
purpose: these are desk-scale reference oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby, pairwise
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import APPerm, canonical_residue
from .errors import UnsupportedCaseError
from .synthesis import _split_boundaries, required_splits, synth_ternary

__all__ = [
    "SuffixArrayView",
    "BwtProfile",
    "suffix_array",
    "inverse_sa",
    "bwt_from_sa",
    "bwt_from_matrix",
    "bwt_predict",
    "bwt_predict_ternary",
    "bwt_runs",
    "run_count",
    "bwt_definitions_agree",
    "runs_of",
    "expand_runs",
    "rotate_runs",
    "compact_runs",
    "parse_compact_runs",
]

_NUMPY_THRESHOLD = 2048


@dataclass(frozen=True)
class SuffixArrayView:
    """A text together with its suffix array (1-based starting positions)."""

    text: str
    sa: tuple[int, ...]


@dataclass(eq=False)
class BwtProfile:
    """A BWT string with its run-length encoding and provenance.

    Equality compares the character string only; `source` records whether the
    profile was computed from a suffix array, from the rotation matrix, or
    predicted in closed form.
    """

    chars: str
    source: str
    runs: tuple[tuple[str, int], ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.runs is None:
            self.runs = runs_of(self.chars)

    def __eq__(self, other):
        if isinstance(other, BwtProfile):
            return self.chars == other.chars
        return NotImplemented


def runs_of(chars: str) -> tuple[tuple[str, int], ...]:
    """Run-length encode a string into (character, count) pairs."""
    return tuple((ch, sum(1 for _ in grp)) for ch, grp in groupby(chars))


def expand_runs(runs: Iterable[tuple[str, int]]) -> str:
    return "".join(ch * count for ch, count in runs)


def compact_runs(runs: Iterable[tuple[str, int]]) -> str:
    """Serialize runs as concatenated <char><count> tokens, e.g. b4c1a3."""
    return "".join(f"{ch}{count}" for ch, count in runs)


def parse_compact_runs(text: str) -> tuple[tuple[str, int], ...]:
    runs = []
    i = 0
    while i < len(text):
        ch = text[i]
        j = i + 1
        while j < len(text) and text[j].isdigit():
            j += 1
        if j == i + 1:
            raise ValueError(f"malformed run encoding {text!r}")
        runs.append((ch, int(text[i + 1 : j])))
        i = j
    return tuple(runs)


def rotate_runs(runs: Sequence[tuple[str, int]], t: int) -> tuple[tuple[str, int], ...]:
    """Left-rotate the expanded string of `runs` by t, staying in run form."""
    n = sum(count for _, count in runs)
    t %= n
    head: list[list] = []
    tail: list[list] = []
    pos = 0
    for ch, count in runs:
        if pos + count <= t:
            head.append([ch, count])
        elif pos >= t:
            tail.append([ch, count])
        else:
            head.append([ch, t - pos])
            tail.append([ch, pos + count - t])
        pos += count
    merged: list[list] = []
    for ch, count in tail + head:
        if merged and merged[-1][0] == ch:
            merged[-1][1] += count
        else:
            merged.append([ch, count])
    return tuple((ch, count) for ch, count in merged)


def _doubling_small(codes: list[int]) -> list[int]:
    """Prefix-doubling suffix sort over integer codes; returns 0-based starts."""
    n = len(codes)
    order = sorted(range(n), key=codes.__getitem__)
    rank = [0] * n
    r = 0
    for t, i in enumerate(order):
        if t and codes[order[t - 1]] != codes[i]:
            r += 1
        rank[i] = r
    step = 1
    base = n + 1
    while r + 1 < n:
        # Missing tail ranks sort below every real rank, so a suffix that is
        # a prefix of another comes first.
        key = [
            rank[i] * base + (rank[i + step] + 1 if i + step < n else 0)
            for i in range(n)
        ]
        order.sort(key=key.__getitem__)
        prev = key[order[0]]
        r = 0
        rank[order[0]] = 0
        for i in order[1:]:
            ki = key[i]
            if ki != prev:
                r += 1
                prev = ki
            rank[i] = r
        step <<= 1
    return order


def _doubling_numpy(codes: np.ndarray) -> np.ndarray:
    """Same algorithm as :func:`_doubling_small`, vectorized for long texts."""
    n = codes.size
    rank = np.unique(codes, return_inverse=True)[1].astype(np.int64)
    step = 1
    base = np.int64(n + 1)
    while rank.max() + 1 < n:
        key2 = np.zeros(n, dtype=np.int64)
        key2[: n - step] = rank[step:] + 1
        key = rank * base + key2
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        flags = np.empty(n, dtype=np.int64)
        flags[0] = 0
        flags[1:] = sorted_key[1:] != sorted_key[:-1]
        new_rank = np.empty(n, dtype=np.int64)
        new_rank[order] = np.cumsum(flags)
        rank = new_rank
        step <<= 1
    return np.argsort(rank)


def suffix_array(text: str) -> SuffixArrayView:
    """Suffix array of `text` under strict lexicographic order, 1-based."""
    n = len(text)
    if n == 0:
        raise ValueError("empty text has no suffix array")
    if n >= _NUMPY_THRESHOLD:
        codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
        order = _doubling_numpy(codes.astype(np.int64))
        sa = tuple(int(i) + 1 for i in order)
    else:
        order = _doubling_small([ord(c) for c in text])
        sa = tuple(i + 1 for i in order)
    return SuffixArrayView(text, sa)


def inverse_sa(sa: Sequence[int]) -> list[int]:
    """Inverse of a 1-based permutation: result[sa[i]] = i."""
    n = len(sa)
    out = [0] * n
    for i, v in enumerate(sa, start=1):
        if not isinstance(v, (int, np.integer)) or not 1 <= v <= n or out[v - 1]:
            raise ValueError("input is not a permutation of [1..n]")
        out[v - 1] = i
    return out


def bwt_from_sa(text: str, sa: Optional[Sequence[int]] = None) -> BwtProfile:
    """BWT from the suffix array: the character cyclically preceding each suffix."""
    n = len(text)
    if sa is None:
        sa = suffix_array(text).sa
    if len(sa) != n:
        raise ValueError(f"suffix array length {len(sa)} != text length {n}")
    chars = "".join(text[canonical_residue(p - 1, n) - 1] for p in sa)
    return BwtProfile(chars, "sa-based")


def bwt_from_matrix(text: str) -> BwtProfile:
    """BWT as the last column of the sorted rotation matrix.

    Ties between equal rotations (non-primitive texts) are broken by starting
    position; sorting is stable, so this falls out of the index order.
    """
    n = len(text)
    if n == 0:
        raise ValueError("empty text has no rotation matrix")
    doubled = text + text
    starts = sorted(range(n), key=lambda i: doubled[i : i + n])
    chars = "".join(text[i - 1] for i in starts)  # i-1 is cyclic predecessor of 0-based i
    return BwtProfile(chars, "matrix-based")


def bwt_runs(
    perm: APPerm, boundaries: Sequence[int]
) -> tuple[tuple[str, int], ...]:
    """Run-length BWT of the text that splits P at the index-space boundaries.

    The j-th subarray of P holds the positions of rank j, character
    chr(96 + j); listed in suffix-array order those characters are sorted,
    and rotating them left by n - k_inverse gives the BWT.
    """
    edges = (0, *boundaries, perm.n)
    sorted_runs = tuple(
        (chr(96 + rank), hi - lo)
        for rank, (lo, hi) in enumerate(pairwise(edges), start=1)
        if hi > lo
    )
    return rotate_runs(sorted_runs, perm.n - perm.k_inverse)


def bwt_predict(perm: APPerm) -> BwtProfile:
    """Predicted BWT of the canonical synthesized string, no suffix sort involved.

    The canonical string splits P at the required splits only.
    """
    if perm.is_reversal:
        raise UnsupportedCaseError("the unary family has the all-equal BWT; nothing to predict")
    runs = bwt_runs(perm, _split_boundaries(perm, required_splits(perm)))
    return BwtProfile(expand_runs(runs), "predicted", runs)


def bwt_predict_ternary(perm: APPerm) -> BwtProfile:
    """Predicted BWT of the three-way split construction string.

    Identical to :func:`bwt_predict` except when p1 = k + 1, where the
    split construction keeps a third character for the final position while
    the canonical binary string merges it away.
    """
    runs = bwt_runs(perm, synth_ternary(perm).split.boundaries)
    return BwtProfile(expand_runs(runs), "predicted", runs)


def run_count(profile: BwtProfile) -> int:
    """Number of maximal equal-character runs."""
    return len(profile.runs)


def bwt_definitions_agree(text: str) -> bool:
    """True when the SA-based and matrix-based BWTs of `text` coincide."""
    return bwt_from_sa(text).chars == bwt_from_matrix(text).chars
