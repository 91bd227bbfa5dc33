"""Construct strings whose suffix array is a given arithmetically progressed permutation.

The construction splits the materialized permutation P into consecutive
subarrays and assigns one character per subarray, smallest character first.
Two split positions are forced: right after the entry with value n - k, and
right after the entry with value (p1 - k - 1) mod n.  Depending on where the
first entry p1 sits, those positions collapse or fall at the end of P, which
is what makes one, two, or three characters necessary:

* p1 = n with k = n - 1: the reversal [n, ..., 1], one character suffices.
* p1 in {n, k+1, 1}: two characters suffice (cases binary1/2/3 below).
* anything else: three characters are necessary and the string is unique.

Split positions are handled in two coordinate systems: "after the entry with
value v" (value space) and "after index i of P" (index space).  Each closed
form has one home here: :func:`_split_values` writes the two split values,
:func:`required_splits` keeps those that force a split,
:func:`_split_boundaries` is the only conversion from value space to index
space (:func:`_canonical_boundaries` and :func:`_ternary_boundaries` name
its two uses), :func:`_result` sets the split index s and the period n - k
whenever the split is the canonical one, and :func:`_text_codes` is the
only text builder: it reads each character's rank off the inverse suffix
array (:func:`apsa.core.ap_array` of :func:`apsa.core.ap_inverse`) for one
split (synthesis, the corpus) or a matrix of them (:mod:`apsa.enumeration`),
and :func:`_text_of` decodes its codes.  The ISA steps by one every k
positions, so a text repeats with period k and with period n - k except at
the at most sigma positions where a rank crosses a boundary; a long
single-split range is one period of the ISA route, tiled, plus a strided
correction per crossing.  :func:`binary_closed_form`
re-derives the binary strings independently for cross-checking.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations_with_replacement, filterfalse, islice
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import APPerm, _check_range, _entry, ap_array, ap_inverse, ap_position_of, canonical_residue
from .errors import (
    AlphabetTooSmallError,
    InvalidSplitError,
    UnsupportedCaseError,
    WrongCaseError,
)

__all__ = [
    "SynthCase",
    "SplitSpec",
    "SynthResult",
    "classify",
    "required_splits",
    "synth",
    "synth_ternary",
    "synth_binary",
    "binary_closed_form",
    "synth_unary_family",
    "synth_general",
    "render_ranks",
]

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# Single-row ranges up to this length read the ISA throughout (measured crossover).
_TILE_MIN = 1 << 13


class SynthCase(Enum):
    UNARY = "unary"
    BINARY1 = "binary1"  # p1 = n, k != n-1
    BINARY2 = "binary2"  # p1 = k+1
    BINARY3 = "binary3"  # p1 = 1
    TERNARY = "ternary"


@dataclass(frozen=True)
class SplitSpec:
    """Ordered boundary set partitioning P.

    boundaries[j] = i means "split right after index i of P"; the subarrays
    take ranks 1, 2, ... in order, 1 being the smallest.
    """

    boundaries: tuple[int, ...]


@dataclass(frozen=True)
class SynthResult:
    text: str
    case: SynthCase
    split: SplitSpec
    s: Optional[int]  # split index: number of smallest-rank characters (binary cases)
    p_s: int  # position of the largest suffix starting with the smallest character
    predicted_period: Optional[int]


def classify(perm: APPerm) -> tuple[SynthCase, int]:
    """Case tag and minimal alphabet size for the permutation, from (n, k, p1) alone."""
    if perm.is_reversal:
        return SynthCase.UNARY, 1
    if perm.p1 == perm.n:
        return SynthCase.BINARY1, 2
    if perm.p1 == perm.k + 1:
        return SynthCase.BINARY2, 2
    if perm.p1 == 1:
        return SynthCase.BINARY3, 2
    return SynthCase.TERNARY, 3


def _split_values(perm: APPerm) -> set[int]:
    """The paper's two split values, n - k and (p1 - k - 1) mod n, in [1..n]."""
    n, k = perm.n, perm.k
    return {canonical_residue(n - k, n), canonical_residue(perm.p1 - k - 1, n)}


def required_splits(perm: APPerm) -> frozenset[int]:
    """Values of P after which every valid construction must split.

    Returned in value space ("split after the entry with this value").  For
    adjacent entries a, b of P the suffix at b + 1 ranks one above the
    suffix at a + 1, so T[a] <= T[b] suffices, except where b = n (a = n - k)
    or a + 1 is the final entry of P (a = p1 - k - 1 mod n): there T[a] < T[b]
    is forced.  Two of these values need no split: nothing follows the final
    entry of P, and after value n the suffix at a + 1 is the empty one, which
    ranks below every other.  The set has sigma_min - 1 elements.
    """
    return frozenset(_split_values(perm) - {perm.n, perm.last})


def _breaks_records(ch: str) -> bool:
    """True for characters that would break the CLI's key=value records.

    Whitespace is what str.split() separates on; numerals (isdigit() or
    isnumeric()) read as counts in compact run encodings; '=', ',', '[' and
    ']' delimit fields and lists; DEL and the C1 controls drive terminals;
    surrogates have no UTF-8 encoding.
    """
    return (
        "\x7f" <= ch <= "\x9f"
        or "\ud800" <= ch <= "\udfff"
        or ch.isspace()
        or ch.isnumeric()
        or ch in "=,[]"
    )


@lru_cache(maxsize=1)  # every batch of one enumeration asks for the same table
def _rank_alphabet(sigma: int) -> str:
    """The characters of ranks 1..sigma, strictly increasing.

    Ranks 1..26 are 'a'..'z'; above that the table continues upward from '{'
    and skips every character for which :func:`_breaks_records` holds.
    """
    if sigma <= 26:
        return _LETTERS[:sigma]
    usable = filterfalse(_breaks_records, map(chr, range(ord("z") + 1, 0x110000)))
    extra = "".join(islice(usable, sigma - 26))
    if len(extra) < sigma - 26:
        raise ValueError(f"{sigma} ranks exceed the {26 + len(extra)} characters available")
    return _LETTERS + extra


def render_ranks(ranks: Iterable[int]) -> str:
    """Render a rank sequence as text: rank r becomes the r-th rank character.

    Ranks 1..26 are 'a'..'z'; higher ranks continue with the characters of
    :func:`_rank_alphabet`.  The map is strictly increasing, so the text
    orders its suffixes exactly as the rank sequence does.
    """
    ranks = list(ranks)
    low = min(ranks, default=1)
    if low < 1:
        raise ValueError(f"rank {low} is below 1")
    alphabet = _rank_alphabet(max(ranks, default=0))
    return "".join([alphabet[r - 1] for r in ranks])


def _split_boundaries(perm: APPerm, values: Iterable[int]) -> tuple[int, ...]:
    """Index-space boundaries for value-space splits, dropping a split after the end."""
    idx = {ap_position_of(perm, v) for v in values}
    idx.discard(perm.n)
    return tuple(sorted(idx))


def _canonical_boundaries(perm: APPerm) -> tuple[int, ...]:
    """Index-space boundaries of the canonical minimal-alphabet string."""
    return _split_boundaries(perm, required_splits(perm))


def _ternary_boundaries(perm: APPerm) -> tuple[int, ...]:
    """Index-space boundaries of the three-way split after both split values."""
    if perm.is_reversal:
        raise UnsupportedCaseError("the reversal permutation is covered by the unary family")
    return _split_boundaries(perm, _split_values(perm))


def _text_codes(
    perm: APPerm, boundaries: Sequence[int] | np.ndarray, start: int = 0, stop: Optional[int] = None
) -> np.ndarray:
    """Character codes, positions [start, stop), of the text split at boundaries of P.

    `boundaries` is one sorted row of m boundaries, or a (rows, m) matrix of
    them, one text per row.  Position i takes rank 1 + #{b in the row :
    isa[i] > b}, isa being the inverse of P.  Up to 26 ranks the codes of
    'a'..'z' are accumulated one boundary column at a time in one byte each.
    Above that one binary search, O(n log sigma), finds every rank (row r
    shifted by r (n + 1), so all rows form one sorted array, less the r m
    boundaries before it) and reads its code off :func:`_rank_alphabet`.
    stop defaults to n; a range not inside [0, n] raises ValueError.

    A single row of at most 26 ranks is built from one period when its range
    is longer than both q = min(k, n - k) and _TILE_MIN.  P steps by k, so
    isa[i + k] = isa[i] + 1 and isa[i + n - k] = isa[i] - 1, cyclically in
    [1..n]: the code at i + q equals the code at i unless the rank j =
    isa[i] and its neighbour j + 1 (q = k) or j - 1 (q = n - k) fall on
    different sides of a boundary.  The first q codes come from the ISA,
    which also runs ap_array's int64 guard before the range is allocated;
    doubling slice copies repeat them over the range; then each of the at
    most m + 1 ranks j whose rank differs from its neighbour's adds that
    difference to every q-th code after x = P[j] - 1.  Matrices, rows of
    more than 26 ranks (their uint32 code points are not contiguous) and
    ranges no longer than q or _TILE_MIN read the ISA at every position.
    """
    stop = _check_range(perm, start, stop)
    bounds = np.asarray(boundaries, dtype=np.int64)
    m = bounds.shape[-1]
    n, k = perm.n, perm.k
    q = min(k, n - k)
    if bounds.ndim == 1 and 0 < m < 26 and 0 < q < stop - start and stop - start > _TILE_MIN:
        base = _text_codes(perm, bounds, start, start + q)  # int64 guard before allocating
        codes = np.empty(stop - start, dtype=np.uint8)
        codes[:q] = base
        filled = q
        while filled < codes.size:
            step = min(filled, codes.size - filled)
            codes[filled : filled + step] = codes[:step]
            filled += step
        cuts = sorted(bounds.tolist())
        side = 1 if q == k else -1  # isa[i + q] = isa[i] + side, cyclically
        for j in {1, n, *cuts, *(b + 1 for b in cuts)} - {0, n + 1}:
            # the rank rule at the neighbour j + side (cyclically), less that at j
            delta = bisect_left(cuts, (j + side - 1) % n + 1) - bisect_left(cuts, j)
            x = _entry(perm, j) - 1  # isa[x] = j
            if delta and start <= x < stop - q:
                codes[x - start + q :: q] += np.uint8(delta % 256)
        return codes
    isa = ap_array(ap_inverse(perm), start, stop) if m else None
    if m < 26:
        codes = np.full(bounds.shape[:-1] + (stop - start,), ord("a"), dtype=np.uint8)
        for b in bounds.T:
            codes += isa > b[..., None]
        return codes
    row = np.arange(bounds.size // m).reshape(bounds.shape[:-1] + (1,))
    ranks = np.searchsorted((bounds + row * (n + 1)).ravel(), isa + row * (n + 1))
    ranks -= row * m
    alphabet = _rank_alphabet(m + 1).encode("utf-32-le")
    return np.frombuffer(alphabet, dtype=np.uint32)[ranks]


def _text_of(codes: np.ndarray) -> str:
    """The text of C-contiguous character codes: one byte each (latin-1) or four (UTF-32).

    The codes' own buffer is decoded, with no intermediate bytes copy.
    """
    return str(memoryview(codes), "latin-1" if codes.itemsize == 1 else "utf-32-le")


def _result(perm: APPerm, case: SynthCase, boundaries: tuple[int, ...]) -> SynthResult:
    """The text split at `boundaries` with consecutive ranks, plus s, p_s and the period.

    p_s is the entry of P at the first boundary, or its final entry when
    there is no boundary.  s and the period n - k hold for the canonical
    split only: s when it has exactly one boundary (the binary cases), the
    period for the reversal (n > 1) and the cases p1 = n and p1 = k+1.
    Every caller splits at least at the required splits, so the split is
    canonical when it has no more boundaries than those.
    """
    text = _text_of(_text_codes(perm, boundaries))
    b0 = boundaries[0] if boundaries else perm.n
    p_s = _entry(perm, b0)
    canonical = len(boundaries) == len(required_splits(perm))
    s = b0 if canonical and len(boundaries) == 1 else None
    periodic = canonical and perm.n > 1 and case in (SynthCase.UNARY, SynthCase.BINARY1, SynthCase.BINARY2)
    period = perm.n - perm.k if periodic else None
    return SynthResult(text, case, SplitSpec(boundaries), s, p_s, period)


def synth_ternary(perm: APPerm) -> SynthResult:
    """The canonical string over at most three characters with suffix array P.

    Splits P after the entries n - k and (p1 - k - 1) mod n and labels the
    subarrays a, b, c in order.  For p1 in {1, n} one subarray vanishes and
    the output is binary; for the reversal the construction does not apply.
    """
    return _result(perm, classify(perm)[0], _ternary_boundaries(perm))


def synth_binary(perm: APPerm) -> SynthResult:
    """The unique binary string with suffix array P, for p1 in {n, k+1, 1}.

    The first s entries of P (everything up to the one required split value)
    take 'a', the rest 'b'.  Cases p1 = n and p1 = k+1 yield strings with
    period n - k; case p1 = 1 yields a Lyndon word.
    """
    case, _ = classify(perm)
    if case is SynthCase.UNARY:
        raise UnsupportedCaseError(
            "the reversal permutation is covered by the unary family"
        )
    if case is SynthCase.TERNARY:
        raise WrongCaseError(
            f"first entry {perm.p1} not in {{1, {perm.k + 1}, {perm.n}}};"
            " no binary string has this suffix array"
        )
    return synth(perm)


def binary_closed_form(perm: APPerm) -> str:
    """The binary string again, via the inverse-permutation threshold formula.

    Character i is 'a' exactly when the rank of suffix i, computed in closed
    form as (i - last) * k_inverse mod n, is at most the split index s.  This
    is an independent derivation of :func:`synth_binary` kept for
    cross-checking.
    """
    case, _ = classify(perm)
    if case not in (SynthCase.BINARY1, SynthCase.BINARY2, SynthCase.BINARY3):
        raise WrongCaseError(f"case {case.value} has no binary closed form")
    n = perm.n
    kinv = perm.k_inverse
    if case is SynthCase.BINARY2:
        s = canonical_residue(n - 1 - kinv, n)
    else:
        s = canonical_residue(n - kinv, n)
    last = perm.last
    ranks = [
        1 if canonical_residue((i - last) * kinv, n) <= s else 2
        for i in range(1, n + 1)
    ]
    return render_ranks(ranks)


def synth_unary_family(n: int, sigma: int) -> Iterator[str]:
    """All strings of descending character blocks, lazily, in colexicographic order.

    These are exactly the strings of length n over sigma ranks whose suffix
    array is [n, n-1, ..., 1]; there are C(n + sigma - 1, n) of them.
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    if sigma < 1:
        raise ValueError(f"alphabet size must be positive, got {sigma}")
    for combo in combinations_with_replacement(range(1, sigma + 1), n):
        yield render_ranks(reversed(combo))


def synth(perm: APPerm) -> SynthResult:
    """Canonical minimal-alphabet string for P, split at the required splits only.

    Binary cases report s, their first boundary; the reversal (n > 1) and
    the cases p1 = n and p1 = k+1 have period n - k.
    """
    return _result(perm, classify(perm)[0], _canonical_boundaries(perm))


def _require_alphabet(perm: APPerm, sigma: int) -> tuple[SynthCase, int]:
    """Case tag and minimal alphabet size of P, after checking that sigma reaches it."""
    case, sigma_min = classify(perm)
    if sigma < sigma_min:
        raise AlphabetTooSmallError(f"alphabet size {sigma} below the required minimum {sigma_min}")
    return case, sigma_min


def synth_general(
    perm: APPerm, sigma: int, split_after_values: Iterable[int] = ()
) -> SynthResult:
    """A string over at most sigma ranks with suffix array P.

    On top of the required splits, extra splits may be requested in value
    space ("after the entry with value v").  Free splits must be distinct
    from the required ones and must not fall after the final entry of P.
    Subarrays take consecutive ranks starting at 1; with no free splits the
    result equals :func:`synth`, s and period included, whatever sigma is.
    """
    case, sigma_min = _require_alphabet(perm, sigma)
    required_values = required_splits(perm)
    free = list(split_after_values)
    if len(set(free)) != len(free):
        raise InvalidSplitError("duplicate split values")
    if len(free) > sigma - sigma_min:
        raise AlphabetTooSmallError(
            f"{len(free)} free splits need an alphabet of at least"
            f" {sigma_min + len(free)} characters"
        )
    for v in free:
        if v in required_values:
            raise InvalidSplitError(f"split after value {v} is already required")
        if v == perm.last:
            raise InvalidSplitError(
                f"value {v} is the final entry; splitting after it has no effect"
            )
    return _result(perm, case, _split_boundaries(perm, required_values.union(free)))
