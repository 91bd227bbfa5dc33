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

The suffix-array oracle sorts texts shorter than 256 characters by the
definition, comparing the suffixes themselves, and longer ones with a numpy
prefix-doubling kernel.  The kernel sorts rotations only, in O(n log n)
time and O(n) memory; its first round ranks a packed key, the first c
characters of each rotation with as many characters as an int64 holds, so
doubling starts at step c instead of 1.  The matrix BWT reads the sorted
rotations directly.  For the suffix array the text gets one sentinel below
every character: every rotation of the longer text then sorts as its suffix
up to the sentinel does, so dropping the sentinel's own rotation, which
sorts first, leaves the suffix order.  Linear-time construction is out of
scope here on purpose: these are desk-scale reference oracles.

Whether a text has a progressed suffix array needs no sort.  The
progression P = (n, k, p1) is the suffix array of T exactly when
T[a] <= T[a + k mod n] for every entry a of P but the last, strictly where a
is a required split value (:func:`apsa.synthesis.required_splits` says why).
:func:`progression_holds` reads this in text order, in the chunks of
:mod:`apsa._chunked`, so each chunk compares two contiguous slices.
:func:`progression_of` finds the only candidate from letter counts: the last
suffix ranks 1 + #{j : T[j] < T[n]}, the one before it also counts the
suffixes that start with T[n - 1] and continue below T[n], and the two ranks
differ by k^{-1}.  Once P is known, the smallest period is read off the
closed-form LCPs of adjacent suffixes at the ranks below the text's, from P
and the letter counts alone (:func:`_smallest_period`).  :func:`bwt_from_sa`
certifies first and sorts only a text that is not progressed;
:func:`suffix_array` always sorts, as the reference the certificate is
tested against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import pairwise
from math import gcd
from typing import Iterable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._chunked import run_until, spans
from .core import APPerm, _entry, _permutation, ap_array, ap_inverse, canonical_residue
from .errors import UnsupportedCaseError
from .synthesis import (
    _canonical_boundaries,
    _rank_alphabet,
    _ternary_boundaries,
    _text_of,
    required_splits,
)

__all__ = [
    "SuffixArrayView",
    "BwtProfile",
    "suffix_array",
    "progression_holds",
    "progression_of",
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

_NUMPY_THRESHOLD = 256
_CHUNK = 1 << 20


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


def _codes_of(text: str) -> np.ndarray:
    """The text's code points, one uint32 each."""
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)


def runs_of(chars: str) -> tuple[tuple[str, int], ...]:
    """Run-length encode a string into (character, count) pairs."""
    codes = _codes_of(chars)
    first = np.ones(codes.size, dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=codes.size)
    return tuple(zip(_text_of(codes[starts]), counts.tolist()))


def expand_runs(runs: Iterable[tuple[str, int]]) -> str:
    return "".join(ch * count for ch, count in runs)


def compact_runs(runs: Iterable[tuple[str, int]]) -> str:
    """Serialize runs as <char><count> tokens, e.g. b4c1a3; a decimal <char> raises ValueError."""
    runs = tuple(runs)
    if any(ch.isdecimal() for ch, _ in runs):
        raise ValueError("a decimal digit cannot be a run character")
    return "".join(f"{ch}{count}" for ch, count in runs)


def parse_compact_runs(text: str) -> tuple[tuple[str, int], ...]:
    """Read back :func:`compact_runs`: each count is ASCII digits after one non-digit."""
    if not re.fullmatch(r"(?:\D[0-9]+)*", text):
        raise ValueError(f"malformed run encoding {text!r}")
    return tuple((ch, int(count)) for ch, count in re.findall(r"(\D)([0-9]+)", text))


def rotate_runs(runs: Sequence[tuple[str, int]], t: int) -> tuple[tuple[str, int], ...]:
    """Left-rotate the expanded string of `runs` by t, staying in run form."""
    n = sum(count for _, count in runs)
    if n == 0:
        return ()
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
    """0-based suffix starts in order, sorted by the definition.

    Python orders strings by code point with a proper prefix first: the
    package's strict order, no sentinel.  Tests import this name as the
    kernel's reference and replace it to show that a path sorts nothing, so
    :func:`_suffix_order` calls it through the module global.
    """
    text = "".join(map(chr, codes))
    return sorted(range(len(text)), key=lambda i: text[i:])


def _int64_width(base: int) -> int:
    """How many base-`base` digits one int64 key holds."""
    width = 1
    while base ** (width + 1) <= 1 << 63:
        width += 1
    return width


def _doubling_numpy(codes: np.ndarray) -> np.ndarray:
    """Sort the rotations of the text with these codes; returns 0-based starts.

    The first round ranks a packed key: the first c characters of each
    rotation as digits numbered densely from 0, with c as large as int64
    allows (31 for a ternary text with a sentinel), so doubling starts at
    step c.  Each round then ranks the pair (rank[i], rank[i + step mod n])
    and doubles the step.  A round sorts the new keys in the previous
    round's order, which is already sorted by the first component; the sorts
    are stable, so equal keys stay in order of their start positions.  The
    rounds stop once every rank differs or step >= n, where equal rotations
    of a non-primitive text still share a key and so come out by start
    position.
    """
    n = codes.size
    digits = np.unique(codes, return_inverse=True)[1]
    base = max(2, int(digits.max()) + 1)
    step = min(n, _int64_width(base))
    powers = base ** np.arange(step - 1, -1, -1, dtype=np.int64)
    key = sliding_window_view(np.concatenate((digits, digits[:step])), step)[:n] @ powers
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    # Vectors are updated in place and dropped once used, so at most about
    # six of length n are alive at a time.
    del key
    while True:
        # The sorted rotations' ranks; the same vector becomes the next key.
        key = np.zeros(n, dtype=np.int64)
        np.cumsum(sorted_key[1:] != sorted_key[:-1], out=key[1:])
        del sorted_key
        if key[-1] == n - 1 or step >= n:
            return order
        rank = np.empty(n, dtype=np.int64)
        rank[order] = key
        following = np.concatenate((rank, rank[:step]))
        del rank
        # key[t] packs (rank, rank step positions on) of rotation order[t].
        key *= n
        key += following[order + step]
        del following
        by_key = np.argsort(key, kind="stable")
        order = order[by_key]
        sorted_key = key[by_key]
        step <<= 1


def _suffix_order(text: str) -> np.ndarray:
    """0-based suffix starts in order, as an int64 vector."""
    if len(text) < _NUMPY_THRESHOLD:
        return np.array(_doubling_small([ord(c) for c in text]), dtype=np.int64)
    # A sentinel below every code point makes the suffix order the rotation
    # order; its own rotation sorts first and is dropped.
    return _doubling_numpy(np.append(_codes_of(text).astype(np.int64), -1))[1:]


def suffix_array(text: str) -> SuffixArrayView:
    """Suffix array of `text` under strict lexicographic order, 1-based.

    Always sorts, progressed or not: tests hold the certificate against it.
    """
    if not text:
        raise ValueError("empty text has no suffix array")
    return SuffixArrayView(text, tuple((_suffix_order(text) + 1).tolist()))


def progression_holds(codes: np.ndarray, perm: APPerm) -> bool:
    """True when P is the suffix array of the text with these codes.

    `codes` is one text's codes, or a matrix with one text per row, in which
    case P must be the suffix array of every row.  Any integer codes that
    order like the characters will do.  Reads the theorem of the module
    docstring: the codes rise after each required split value and never fall
    along P.  Position a is followed in P by a + k, or by a + k - n past the
    end, so each chunk compares one slice of the codes with another k
    positions on; the final entry of P has no successor and is exempt.
    """
    n, k = perm.n, perm.k
    if codes.shape[-1] != n:
        raise ValueError(f"text length {codes.shape[-1]} != progression length {n}")
    for v in required_splits(perm):
        if not (codes[..., v - 1] < codes[..., (v - 1 + k) % n]).all():
            return False
    exempt = perm.last - 1

    def falls(start: int, stop: int) -> bool:
        shift = k if start < n - k else k - n
        ok = codes[..., start:stop] <= codes[..., start + shift : stop + shift]
        if start <= exempt < stop:
            ok[..., exempt - start] = True
        return not ok.all()

    return not run_until(falls, spans(0, n - k, _CHUNK) + spans(n - k, n, _CHUNK))


def progression_of(text: str) -> Optional[APPerm]:
    """The progression that is the suffix array of `text`, or None if it has none.

    No suffix sort: letter counts give the ranks of the last two suffixes,
    whose difference is k^{-1}, and the one candidate they name is checked
    with :func:`progression_holds`.  Works over any alphabet.
    """
    n = len(text)
    if n == 0:
        raise ValueError("empty text has no suffix array")
    if n == 1:
        return APPerm(1, 1, 1)
    codes = _codes_of(text)
    x, y = int(codes[-1]), int(codes[-2])
    rank_last = 1 + int(np.count_nonzero(codes < x))
    rank_before = 1 + int(np.count_nonzero(codes < y)) + (x == y)
    rank_before += int(np.count_nonzero((codes[:-1] == y) & (codes[1:] < x)))
    k_inverse = (rank_last - rank_before) % n
    if gcd(k_inverse, n) != 1:
        return None
    k = pow(k_inverse, -1, n)
    perm = APPerm(n, k, canonical_residue(n + (1 - rank_last) * k, n))
    return perm if progression_holds(codes, perm) else None


def _smallest_period(text: str, perm: APPerm) -> Optional[int]:
    """Smallest period of a text whose suffix array is P, or None when it is n.

    A border is a suffix ranked below the whole text whose longest common
    prefix with the text is its own length; that prefix is the minimum of the
    adjacent suffixes' LCPs from its rank up to the text's.  The period is
    the smallest border start (0-based).  Suffixes P[j] and P[j + 1] stay one
    rank apart as they advance, so they first differ at the end of the
    shorter one or where P[j]'s side reaches the last position of a letter's
    block, P[b] for b a letter boundary, whichever comes first.
    """
    n = perm.n
    top = ap_inverse(perm).p1  # the whole text's rank
    below = ap_array(perm, 0, top - 1)
    counts = np.bincount(_codes_of(text))
    bounds = np.cumsum(counts[counts > 0])[:-1]  # index-space letter boundaries
    ends = np.sort(_entry(perm, bounds))
    # The next block end at or after each P[j], cyclically; 2n stands for none.
    ends = np.concatenate((ends, ends[:1] + n, [2 * n]))
    own = n + 1 - below  # each suffix's length; P[top] = 1 is the whole text
    reach = np.minimum(own, np.append(own[1:], n))
    reach = np.minimum(reach, ends[np.searchsorted(ends, below)] - below)
    reach = np.minimum.accumulate(reach[::-1])[::-1]
    borders = below[reach == own]
    return int(borders.min()) - 1 if borders.size else None


def inverse_sa(sa: Iterable[int]) -> list[int]:
    """Inverse of a 1-based permutation, result[sa[i]] = i, by one numpy scatter.

    Raises ValueError unless `sa` holds each of 1..n once as integers, not
    bools or floats; the empty permutation is its own inverse.
    """
    if (sa := _permutation(sa)) is None:
        raise ValueError("input is not a permutation of [1..n]")
    out = np.empty(sa.size, dtype=np.int64)
    out[sa - 1] = np.arange(1, sa.size + 1)
    return out.tolist()


def bwt_from_sa(text: str, sa: Optional[Sequence[int]] = None) -> BwtProfile:
    """BWT from the suffix array: the character cyclically preceding each suffix.

    `sa` may be any integer sequence or array; it is checked as in
    :func:`inverse_sa` and must also pass Burkhardt and Kärkkäinen's O(n)
    suffix-array check.  Without it, a text whose suffix array is a
    progression reads it off :func:`progression_of` in O(n), and only other
    texts are sorted.  One gather picks the characters.
    """
    n = len(text)
    if n == 0:
        raise ValueError("empty text has no BWT")
    codes = _codes_of(text)
    if sa is None:
        perm = progression_of(text)
        starts = _suffix_order(text) if perm is None else ap_array(perm) - 1
    else:
        if len(sa) != n:
            raise ValueError(f"suffix array length {len(sa)} != text length {n}")
        if (starts := _permutation(sa)) is None:
            raise ValueError("suffix array is not a permutation of [1..n]")
        starts = starts - 1  # a new vector: the given array may be this one
        # Adjacent a, b need T[a] < T[b], or T[a] = T[b] and the suffix at
        # a + 1 ranked below the one at b + 1; the empty suffix ranks -1.
        rank = np.full(n + 1, -1, dtype=np.int64)
        rank[starts] = np.arange(n)
        a, b = starts[:-1], starts[1:]
        ordered = (codes[a] < codes[b]) | ((codes[a] == codes[b]) & (rank[a + 1] < rank[b + 1]))
        if not ordered.all():
            raise ValueError("given array is not the suffix array of the text")
    # Index -1 wraps to the last character, which precedes the whole text.
    return BwtProfile(_text_of(codes[starts - 1]), "sa-based")


def bwt_from_matrix(text: str) -> BwtProfile:
    """BWT as the last column of the sorted rotation matrix.

    The prefix-doubling kernel sorts the rotations in O(n log n) time and
    O(n) memory; equal rotations (non-primitive texts) are ordered by
    starting position.
    """
    n = len(text)
    if n == 0:
        raise ValueError("empty text has no rotation matrix")
    codes = _codes_of(text)
    starts = _doubling_numpy(codes)
    return BwtProfile(_text_of(codes[starts - 1]), "matrix-based")


def bwt_runs(
    perm: APPerm, boundaries: Sequence[int]
) -> tuple[tuple[str, int], ...]:
    """Run-length BWT of the text that splits P at the index-space boundaries.

    The j-th subarray of P holds the positions of rank j, the j-th rank
    character; listed in suffix-array order those characters are sorted,
    and rotating them left by n - k_inverse gives the BWT.
    """
    edges = (0, *boundaries, perm.n)
    alphabet = _rank_alphabet(len(edges) - 1)
    sorted_runs = tuple(
        (ch, hi - lo) for ch, (lo, hi) in zip(alphabet, pairwise(edges)) if hi > lo
    )
    return rotate_runs(sorted_runs, perm.n - perm.k_inverse)


def bwt_predict(perm: APPerm) -> BwtProfile:
    """Predicted BWT of the canonical synthesized string, no suffix sort involved.

    The canonical string splits P at the required splits only.
    """
    if perm.is_reversal:
        raise UnsupportedCaseError("the unary family has the all-equal BWT; nothing to predict")
    runs = bwt_runs(perm, _canonical_boundaries(perm))
    return BwtProfile(expand_runs(runs), "predicted", runs)


def bwt_predict_ternary(perm: APPerm) -> BwtProfile:
    """Predicted BWT of the three-way split construction string.

    Identical to :func:`bwt_predict` except when p1 = k + 1, where the
    split construction keeps a third character for the final position while
    the canonical binary string merges it away.
    """
    runs = bwt_runs(perm, _ternary_boundaries(perm))
    return BwtProfile(expand_runs(runs), "predicted", runs)


def run_count(profile: BwtProfile) -> int:
    """Number of maximal equal-character runs."""
    return len(profile.runs)


def bwt_definitions_agree(text: str) -> bool:
    """True when the SA-based and matrix-based BWTs of `text` coincide."""
    return bwt_from_sa(text).chars == bwt_from_matrix(text).chars
