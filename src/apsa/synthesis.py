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
form has one home here: :func:`required_splits` gives the forced split
values, :func:`_split_boundaries` is the only conversion from value space to
index space (:func:`_canonical_boundaries` and :func:`_ternary_boundaries`
name its two uses), :func:`synth` sets the split index s and the period n - k,
and :func:`_text_codes` is the only text builder: it reads each character's
rank off the inverse suffix array (:func:`apsa.core.ap_array` of
:func:`apsa.core.ap_inverse`) for one split (synthesis, the corpus) or a
matrix of them (:mod:`apsa.enumeration`), and :func:`_text_of` decodes its
codes.  :func:`binary_closed_form` re-derives the binary strings
independently for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations_with_replacement, filterfalse, islice
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import APPerm, _check_range, ap_array, ap_inverse, ap_position_of, canonical_residue
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


def required_splits(perm: APPerm) -> frozenset[int]:
    """Values of P after which every valid construction must split.

    Returned in value space ("split after the entry with this value").  The
    set has sigma_min - 1 elements.
    """
    n, k, p1 = perm.n, perm.k, perm.p1
    if perm.is_reversal:
        return frozenset()
    if p1 == n:
        return frozenset({canonical_residue(p1 - k - 1, n)})
    if p1 in (1, k + 1):
        return frozenset({n - k})
    return frozenset({canonical_residue(p1 - k - 1, n), n - k})


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
    """Index-space boundaries of the three-way split after n - k and (p1 - k - 1) mod n."""
    if perm.is_reversal:
        raise UnsupportedCaseError("the reversal permutation is covered by the unary family")
    n, k, p1 = perm.n, perm.k, perm.p1
    return _split_boundaries(perm, {n - k, canonical_residue(p1 - k - 1, n)})


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
    """
    stop = _check_range(perm, start, stop)
    bounds = np.asarray(boundaries, dtype=np.int64)
    m = bounds.shape[-1]
    isa = ap_array(ap_inverse(perm), start, stop) if m else None
    if m < 26:
        codes = np.full(bounds.shape[:-1] + (stop - start,), ord("a"), dtype=np.uint8)
        for b in bounds.T:
            codes += isa > b[..., None]
        return codes
    if bounds.ndim == 1:
        ranks = np.searchsorted(bounds, isa)
    else:
        row = np.arange(len(bounds))[:, None]
        ranks = np.searchsorted((bounds + row * (perm.n + 1)).ravel(), isa + row * (perm.n + 1))
        ranks -= row * m
    alphabet = _rank_alphabet(m + 1).encode("utf-32-le")
    return np.frombuffer(alphabet, dtype=np.uint32)[ranks]


def _text_of(codes: np.ndarray) -> str:
    """The text of character codes: one byte each (latin-1) or four (UTF-32)."""
    return codes.tobytes().decode("latin-1" if codes.itemsize == 1 else "utf-32-le")


def _result(
    perm: APPerm,
    case: SynthCase,
    boundaries: tuple[int, ...],
    s: Optional[int] = None,
    period: Optional[int] = None,
) -> SynthResult:
    """The text split at `boundaries` with consecutive ranks, plus its p_s.

    p_s is the entry of P at the first boundary, or its final entry when
    there is no boundary.
    """
    text = _text_of(_text_codes(perm, boundaries))
    b0 = boundaries[0] if boundaries else perm.n
    p_s = canonical_residue(perm.p1 + (b0 - 1) * perm.k, perm.n)
    return SynthResult(text, case, SplitSpec(boundaries), s, p_s, period)


def synth_ternary(perm: APPerm) -> SynthResult:
    """The canonical string over at most three characters with suffix array P.

    Splits P after the entries n - k and (p1 - k - 1) mod n and labels the
    subarrays a, b, c in order.  For p1 in {1, n} one subarray vanishes and
    the output is binary; for the reversal the construction does not apply.
    """
    boundaries = _ternary_boundaries(perm)
    if len(boundaries) == 1:  # p1 in {1, n}: the canonical binary string
        return synth(perm)
    return _result(perm, classify(perm)[0], boundaries)


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
    """All strings of descending character blocks, lazily, in lexicographic order.

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
    case, sigma_min = classify(perm)
    boundaries = _canonical_boundaries(perm)
    s = boundaries[0] if sigma_min == 2 else None
    periodic = perm.n > 1 and case in (SynthCase.UNARY, SynthCase.BINARY1, SynthCase.BINARY2)
    return _result(perm, case, boundaries, s, perm.n - perm.k if periodic else None)


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
    Subarrays take consecutive ranks starting at 1; with no free splits and
    sigma equal to the case minimum this coincides with :func:`synth`.
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
