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
and bounds separately, never conflated.  Candidates are built in batches, a
rows x n rank matrix of about 2^20 cells with one composition per row, and
:func:`enumerate_strings` checks each batch with the O(n) progression
certificate (:func:`apsa.textindex.progression_holds`) before yielding it.
The construction argues the check can never fail, so a batch that fails it
raises instead of being skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, islice, product
from math import comb
from typing import Iterator, Optional

import numpy as np

from .core import APPerm, ap_array, ap_inverse, ap_materialize
from .errors import AlphabetTooSmallError, SearchSpaceTooLargeError
from .synthesis import _canonical_boundaries, _rank_alphabet, classify
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


def _require_alphabet(perm: APPerm, sigma: int) -> int:
    """sigma_min of P, after checking that sigma reaches it."""
    smin = sigma_min(perm)
    if sigma < smin:
        raise AlphabetTooSmallError(
            f"alphabet size {sigma} below the required minimum {smin}"
        )
    return smin


def _candidates(perm: APPerm, sigma: int, certify: bool) -> Iterator[str]:
    """Every split refinement as a string, in composition order.

    Position i of a row takes rank #{b in the composition : b < isa[i]}, the
    rank rule of :func:`apsa.synthesis._text_codes` counted from 0, read off
    the row's running count of boundaries per value.  A batch holds about
    2^20 cells.  With `certify`, each batch must pass the progression
    certificate.
    """
    _require_alphabet(perm, sigma)
    n = perm.n
    isa = ap_array(ap_inverse(perm))
    alphabet = np.frombuffer(_rank_alphabet(sigma).encode("utf-32-le"), dtype=np.uint32)
    for boundaries in _compositions(perm, sigma, max(1, _BATCH_CELLS // (n + sigma))):
        rows = len(boundaries)
        cells = boundaries + (n + 1) * np.arange(rows)[:, None]  # (row, value) cells
        at_most = np.bincount(cells.ravel(), minlength=rows * (n + 1))
        ranks = at_most.reshape(rows, n + 1).cumsum(axis=1)[:, isa - 1]
        if certify and not progression_holds(ranks, perm):
            raise RuntimeError("a split refinement fails the progression certificate")
        joined = alphabet[ranks].tobytes().decode("utf-32-le")
        yield from (joined[i : i + n] for i in range(0, len(joined), n))


def candidate_strings(perm: APPerm, sigma: int) -> Iterator[str]:
    """All split refinements as strings, without the certificate."""
    yield from _candidates(perm, sigma, certify=False)


def enumerate_strings(perm: APPerm, sigma: int) -> Iterator[str]:
    """Every string over ranks 1..sigma whose suffix array is P, each once.

    Candidates come from split refinements (empty character classes
    included); every batch passes the progression certificate before its
    strings are yielded.
    """
    bound = count_bounds(perm.n, sigma, _require_alphabet(perm, sigma)).bound_fixed_perm
    yielded = 0
    for text in _candidates(perm, sigma, certify=True):
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
