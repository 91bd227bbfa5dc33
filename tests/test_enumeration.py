from bisect import bisect_left
from itertools import combinations_with_replacement
from math import comb

import pytest

from apsa.core import APPerm, ap_materialize
from apsa.enumeration import (
    brute_force_strings,
    candidate_strings,
    count_bounds,
    enumerate_strings,
    sigma_min,
)
from apsa.errors import AlphabetTooSmallError, SearchSpaceTooLargeError
from apsa.synthesis import render_ranks, required_splits
from apsa.textindex import suffix_array

from helpers import ap_census, iter_ap_perms


@pytest.mark.parametrize(
    "perm, expected",
    [
        (APPerm(8, 5, 5), 3),
        (APPerm(8, 7, 8), 1),
        (APPerm(8, 5, 1), 2),
    ],
)
def test_sigma_min(perm, expected):
    assert sigma_min(perm) == expected


def test_count_bounds_examples():
    assert count_bounds(3, 2, 1).bound_any_perm == comb(4, 3) == 4
    assert count_bounds(8, 3, 3).bound_fixed_perm == comb(10, 0) == 1
    assert count_bounds(8, 5, 3).bound_fixed_perm == comb(12, 2) == 66
    report = count_bounds(8, 5, 3)
    assert report.exact is None
    assert report.bound_total == 8 * 7 * 66


def test_count_bounds_validation():
    with pytest.raises(ValueError):
        count_bounds(8, 2, 3)
    with pytest.raises(ValueError):
        count_bounds(0, 2, 1)


def test_count_bounds_are_exact_integers():
    # Large arguments stay exact; Python integers cannot overflow.
    report = count_bounds(10**6, 200, 3)
    assert report.bound_fixed_perm == comb(10**6 + 199, 197)


@pytest.mark.parametrize(
    "perm, sigma, expected",
    [
        (APPerm(8, 7, 8), 2, {"b" * r + "a" * (8 - r) for r in range(9)}),
        (APPerm(8, 5, 5), 3, {"babbabac"}),
        (APPerm(8, 5, 1), 2, {"ababbabb"}),
    ],
)
def test_enumerate_examples(perm, sigma, expected):
    assert set(enumerate_strings(perm, sigma)) == expected


def test_enumerate_rejects_small_alphabet():
    with pytest.raises(AlphabetTooSmallError):
        list(enumerate_strings(APPerm(8, 5, 5), 2))


@pytest.mark.parametrize(
    "perm, sigma, expected",
    [
        (APPerm(3, 2, 3), 2, {"aaa", "baa", "bba", "bbb"}),
        (APPerm(3, 1, 1), 2, {"aab"}),
        (APPerm(3, 1, 2), 2, {"bab"}),
    ],
)
def test_brute_force_examples(perm, sigma, expected):
    assert brute_force_strings(perm, sigma) == expected


def test_brute_force_refuses_large_instances():
    with pytest.raises(SearchSpaceTooLargeError):
        brute_force_strings(APPerm(30, 7, 1), 4)


def test_enumeration_census_small():
    # enumerate_strings and one-pass brute force agree for every progression;
    # every refinement candidate validates; counts respect the binomial bound.
    for n in range(1, 7):
        for sigma in range(1, 5):
            buckets = ap_census(n, sigma)
            for perm in iter_ap_perms(n):
                if sigma < sigma_min(perm):
                    assert perm not in buckets
                    continue
                generated = list(enumerate_strings(perm, sigma))
                candidates = list(candidate_strings(perm, sigma))
                assert generated == candidates  # the refinement argument holds
                assert len(set(generated)) == len(generated)
                got = set(generated)
                assert got == buckets.get(perm, set())
                assert len(got) <= count_bounds(n, sigma, sigma_min(perm)).bound_fixed_perm


def test_exact_count_formula_observed():
    # Observed exact counts: one free boundary slot per extra character over
    # [0..n], i.e. C(n + sigma - sigma_min, sigma - sigma_min); the
    # stars-and-bars bound is tight exactly for the reversal.
    for n in range(2, 7):
        for sigma in range(1, 5):
            for perm in iter_ap_perms(n):
                smin = sigma_min(perm)
                if sigma < smin:
                    continue
                count = sum(1 for _ in enumerate_strings(perm, sigma))
                assert count == comb(n + sigma - smin, sigma - smin)


def test_global_count_bound():
    # Across all strings of length n, the number with an arithmetically
    # progressed suffix array stays below n(n-1) times the per-permutation
    # bound (instantiated with the smallest possible sigma_min).
    for sigma in (2, 3):
        for n in range(2, 9):
            total = sum(len(texts) for texts in ap_census(n, sigma).values())
            assert total <= count_bounds(n, sigma, 1).bound_total


def test_sigma_min_consistency():
    for n in range(2, 7):
        for perm in iter_ap_perms(n):
            smin = sigma_min(perm)
            if smin > 1:
                assert not brute_force_strings(perm, smin - 1)
            assert brute_force_strings(perm, smin)


@pytest.mark.parametrize(
    "perm, sigma",
    [
        (APPerm(16, 3, 5), 6),  # ternary
        (APPerm(32, 5, 7), 5),  # ternary
        (APPerm(40, 3, 40), 4),  # binary1
        (APPerm(26, 7, 1), 5),  # binary3
        (APPerm(24, 23, 24), 4),  # unary
        (APPerm(36, 5, 6), 3),  # binary2
    ],
)
def test_candidates_are_exact_beyond_the_census(perm, sigma):
    # Sizes far beyond brute force: the construction alone yields exactly
    # C(n + sigma - sigma_min, sigma - sigma_min) distinct strings, and the
    # oracle accepts every one of them.
    smin = sigma_min(perm)
    target = tuple(ap_materialize(perm))
    strings = list(candidate_strings(perm, sigma))
    assert len(strings) == len(set(strings)) == comb(perm.n + sigma - smin, sigma - smin)
    assert all(len(s) == perm.n and suffix_array(s).sa == target for s in strings)


def reference_strings(perm, sigma):
    """Every boundary multiset holding the required splits, ranked in pure Python.

    Position i takes rank 1 + #{boundaries b : b < the rank of suffix i}; a
    boundary b splits P after its b-th entry.
    """
    order = ap_materialize(perm)
    rank = {position: r for r, position in enumerate(order, 1)}
    required = [order.index(v) + 1 for v in required_splits(perm)]
    free = sigma - sigma_min(perm)
    for multiset in combinations_with_replacement(range(perm.n + 1), free):
        bounds = sorted(required + list(multiset))
        yield render_ranks(1 + bisect_left(bounds, rank[i]) for i in range(1, perm.n + 1))


@pytest.mark.parametrize(
    "n, sigmas",
    [
        (1, range(1, 31)),
        (2, range(1, 31)),
        (3, (1, 2, 3, 4, 25, 26, 27, 30)),
        (4, (1, 2, 3, 4, 5, 27)),
        (5, (1, 2, 3, 4, 5)),
        (6, (1, 2, 3, 4, 5)),
    ],
)
def test_enumerate_matches_reference_rendering(n, sigmas):
    for perm in iter_ap_perms(n):
        for sigma in sigmas:
            if sigma >= sigma_min(perm):
                assert list(enumerate_strings(perm, sigma)) == list(reference_strings(perm, sigma))


def test_one_enumeration_builds_the_rank_alphabet_once(monkeypatch):
    import apsa.enumeration as enumeration
    import apsa.synthesis as synthesis

    builds = []
    real = synthesis.filterfalse
    monkeypatch.setattr(synthesis, "filterfalse", lambda *args: builds.append(args) or real(*args))
    monkeypatch.setattr(enumeration, "_BATCH_CELLS", 256)  # 7 rows a batch, 709 batches
    synthesis._rank_alphabet.cache_clear()
    texts = list(enumerate_strings(APPerm(3, 2, 3), 30))
    assert len(texts) == comb(3 + 29, 3)
    assert len(builds) == 1
