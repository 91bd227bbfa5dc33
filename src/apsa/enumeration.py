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
and bounds separately, never conflated.  Candidates are built in batches of
about 2^20 cells: a matrix of compositions, one per row, goes through the
one split-construction builder of :mod:`apsa.synthesis`
(:func:`apsa.synthesis._text_codes`, which also builds :func:`apsa.synth`'s
texts and the corpus), and each batch is checked with the O(n) progression
certificate (:func:`apsa.textindex.progression_holds`) before its strings
are yielded.  The construction argues the check can never fail, so a batch
that fails it raises instead of being skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, islice, product
from math import comb
from typing import Iterator, Optional

import numpy as np

from .core import APPerm, ap_materialize
from .errors import SearchSpaceTooLargeError
from .synthesis import (
    _canonical_boundaries, _rank_alphabet, _require_alphabet, _text_codes, _text_of, classify
)
from .textindex import progression_holds, suffix_array

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
_BATCH_CELLS = 1 << 20


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


def _compositions(perm: APPerm, sigma: int, rows: int) -> Iterator[np.ndarray]:
    """Cumulative boundary multisets over [0..n] holding the required splits, in lex order.

    Yields them `rows` at a time, one sorted multiset of sigma - 1
    boundaries per row.
    """
    required = np.array(_canonical_boundaries(perm), dtype=np.int64)
    width = sigma - 1 - required.size
    free = combinations_with_replacement(range(perm.n + 1), width)
    while batch := list(islice(free, rows)):
        merged = np.empty((len(batch), sigma - 1), dtype=np.int64)
        merged[:, :width] = np.array(batch, dtype=np.int64).reshape(len(batch), width)
        merged[:, width:] = required
        merged.sort(axis=1)
        yield merged


def candidate_strings(perm: APPerm, sigma: int) -> Iterator[str]:
    """Every split refinement as a string, in composition order.

    Each batch of compositions, about 2^20 cells, is built into one text per
    row by :func:`apsa.synthesis._text_codes` and must pass the progression
    certificate before its strings are yielded.
    """
    _require_alphabet(perm, sigma)
    n = perm.n
    for boundaries in _compositions(perm, sigma, max(1, _BATCH_CELLS // (n + sigma))):
        codes = _text_codes(perm, boundaries)
        if not progression_holds(codes, perm):
            raise RuntimeError("a split refinement fails the progression certificate")
        joined = _text_of(codes)
        yield from (joined[i : i + n] for i in range(0, len(joined), n))


def enumerate_strings(perm: APPerm, sigma: int) -> Iterator[str]:
    """Every string over ranks 1..sigma whose suffix array is P, each once.

    Candidates come from split refinements (empty character classes
    included); every batch passes the progression certificate before its
    strings are yielded, and no more than the stars-and-bars bound may come.
    """
    _, smin = _require_alphabet(perm, sigma)
    bound = count_bounds(perm.n, sigma, smin).bound_fixed_perm
    yielded = 0
    for text in candidate_strings(perm, sigma):
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
