"""Count and generate all strings whose suffix array is a given progression.

Every string with suffix array P reads, in suffix-array order, as a
nondecreasing sequence of ranks, so it corresponds to a composition of n into
sigma nonnegative class sizes whose boundaries include the required splits.
Generation merges the required boundaries into each multiset of free ones,
so no composition is built and then discarded; counting gives binomial bounds:

* at most C(n + sigma - 1, n) strings for an arbitrary permutation,
* at most C(n + sigma - 1, sigma - sigma_min) for a fixed progression,
* at most n (n - 1) times that over all progressions of length n.

The bounds are not always tight, so exact numbers are reported by generation
and bounds separately, never conflated.  Each generated candidate is checked
against the suffix-array oracle before it is yielded; the construction
argues the check can never fail, and the test suite treats any skipped
candidate as a hard failure.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import merge
from itertools import combinations_with_replacement, product
from math import comb
from typing import Iterator, Optional

from .core import APPerm, ap_inverse, ap_materialize
from .errors import AlphabetTooSmallError, SearchSpaceTooLargeError
from .synthesis import _canonical_boundaries, _rank_alphabet, classify
from .textindex import suffix_array

__all__ = [
    "CountReport",
    "sigma_min",
    "count_bounds",
    "enumerate_strings",
    "candidate_strings",
    "brute_force_strings",
    "BRUTE_FORCE_LIMIT",
]

BRUTE_FORCE_LIMIT = 10**7


@dataclass(frozen=True)
class CountReport:
    exact: Optional[int]
    bound_fixed_perm: int
    bound_any_perm: int
    bound_total: int


def sigma_min(perm: APPerm) -> int:
    """Smallest alphabet size admitting a string with this suffix array."""
    return classify(perm)[1]


def count_bounds(n: int, sigma: int, sigma_min_: int) -> CountReport:
    """The binomial bounds, evaluated exactly (Python integers never wrap)."""
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    if not 1 <= sigma_min_ <= sigma:
        raise ValueError(f"need 1 <= sigma_min <= sigma, got {sigma_min_}, {sigma}")
    fixed = comb(n + sigma - 1, sigma - sigma_min_)
    return CountReport(
        exact=None,
        bound_fixed_perm=fixed,
        bound_any_perm=comb(n + sigma - 1, n),
        bound_total=n * (n - 1) * fixed,
    )


def _compositions(perm: APPerm, sigma: int) -> Iterator[tuple[int, ...]]:
    """Cumulative boundary multisets over [0..n] holding the required splits, in lex order."""
    required = _canonical_boundaries(perm)
    for free in combinations_with_replacement(range(perm.n + 1), sigma - 1 - len(required)):
        yield tuple(merge(required, free))


def candidate_strings(perm: APPerm, sigma: int) -> Iterator[str]:
    """All split refinements as strings, without oracle validation."""
    if sigma < sigma_min(perm):
        raise AlphabetTooSmallError(
            f"alphabet size {sigma} below the required minimum {sigma_min(perm)}"
        )
    isa = ap_materialize(ap_inverse(perm))
    alphabet = _rank_alphabet(sigma)
    for cum in _compositions(perm, sigma):
        yield "".join([alphabet[bisect_left(cum, rank)] for rank in isa])


def enumerate_strings(perm: APPerm, sigma: int) -> Iterator[str]:
    """Every string over ranks 1..sigma whose suffix array is P, each once.

    Candidates come from split refinements (empty character classes included)
    and are validated against the suffix-array oracle before being yielded.
    """
    smin = sigma_min(perm)
    if sigma < smin:
        raise AlphabetTooSmallError(
            f"alphabet size {sigma} below the required minimum {smin}"
        )
    target = tuple(ap_materialize(perm))
    bound = count_bounds(perm.n, sigma, smin).bound_fixed_perm
    yielded = 0
    for text in candidate_strings(perm, sigma):
        if suffix_array(text).sa != target:
            continue
        yielded += 1
        if yielded > bound:
            raise RuntimeError(
                "generated more strings than the stars-and-bars bound allows"
            )
        yield text


def brute_force_strings(perm: APPerm, sigma: int) -> set[str]:
    """Exhaustive filter of all sigma^n strings; the independent oracle route.

    Refuses instances with more than 10^7 candidate strings.
    """
    n = perm.n
    if sigma < 1:
        raise ValueError(f"alphabet size must be positive, got {sigma}")
    if sigma**n > BRUTE_FORCE_LIMIT:
        raise SearchSpaceTooLargeError(
            f"sigma**n = {sigma**n} exceeds the brute-force limit {BRUTE_FORCE_LIMIT}"
        )
    target = tuple(ap_materialize(perm))
    found = set()
    for chars in product(_rank_alphabet(sigma), repeat=n):
        text = "".join(chars)
        if suffix_array(text).sa == target:
            found.add(text)
    return found
