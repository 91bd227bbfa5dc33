from itertools import pairwise, product
from math import gcd

import pytest

from apsa.christoffel import (
    ChristoffelParams,
    adjacent_diff_columns,
    bwt_matrix_adjacent_diffs,
    christoffel_bwt,
    christoffel_path,
    christoffel_sa_params,
    christoffel_upper,
    christoffel_word,
    closest_path_point,
    factorization_index,
)
from apsa.core import APPerm, ap_detect, ap_materialize
from apsa.errors import DegenerateSlopeError, NotCoprimeError
from apsa.lyndonlab import (
    balanced2_factorization,
    is_balanced,
    is_balanced2,
    is_lyndon,
)
from apsa.synthesis import synth_binary
from apsa.textindex import bwt_from_sa, suffix_array

from helpers import naive_sa


def coprime_pairs(n_max, n_min=3):
    for n in range(n_min, n_max + 1):
        for p in range(1, n):
            if gcd(p, n - p) == 1:
                yield p, n - p


@pytest.mark.parametrize(
    "p, q, word",
    [
        (7, 5, "aababaababab"),
        (1, 0, "a"),
        (0, 1, "b"),
        (2, 1, "aab"),
        (1, 1, "ab"),
        (3, 2, "aabab"),
    ],
)
def test_christoffel_word(p, q, word):
    assert christoffel_word(p, q) == word


def test_christoffel_rejects_non_coprime():
    with pytest.raises(NotCoprimeError):
        christoffel_word(4, 2)
    with pytest.raises(NotCoprimeError):
        ChristoffelParams(0, 0)


@pytest.mark.parametrize(
    "p, q, perm",
    [
        (7, 5, APPerm(12, 5, 1)),
        (2, 1, APPerm(3, 1, 1)),
        (1, 1, APPerm(2, 1, 1)),
    ],
)
def test_christoffel_sa_params(p, q, perm):
    assert christoffel_sa_params(p, q) == perm
    assert tuple(ap_materialize(perm)) == suffix_array(christoffel_word(p, q)).sa


def test_sa_params_reject_degenerate_slope():
    with pytest.raises(DegenerateSlopeError):
        christoffel_sa_params(1, 0)
    with pytest.raises(DegenerateSlopeError):
        christoffel_bwt(0, 1)
    with pytest.raises(DegenerateSlopeError):
        factorization_index(1, 0)


@pytest.mark.parametrize(
    "p, q, chars",
    [(7, 5, "bbbbbaaaaaaa"), (1, 1, "ba"), (2, 1, "baa")],
)
def test_christoffel_bwt(p, q, chars):
    assert christoffel_bwt(p, q).chars == chars
    assert bwt_from_sa(christoffel_word(p, q)).chars == chars


def test_christoffel_path_examples():
    assert christoffel_path(1, 0).points == ((0, 0), (1, 0))
    assert christoffel_path(2, 1).points == ((0, 0), (1, 0), (2, 0), (2, 1))
    assert christoffel_path(7, 5).points[5] == (3, 2)


def test_path_stays_below_segment():
    for p, q in coprime_pairs(20):
        for x, y in christoffel_path(p, q).points:
            assert q * x - p * y >= 0


def test_no_lattice_point_between_path_and_segment():
    for p, q in coprime_pairs(20):
        top = {}
        for x, y in christoffel_path(p, q).points:
            top[x] = max(top.get(x, 0), y)
        for x in range(p + 1):
            for y in range(q + 1):
                strictly_below_segment = q * x - p * y > 0
                strictly_above_path = y > top[x]
                assert not (strictly_below_segment and strictly_above_path), (p, q, x, y)


@pytest.mark.parametrize(
    "p, q, expected",
    [(7, 5, 5), (1, 1, 1), (2, 1, 1), (3, 2, 3)],
)
def test_factorization_index(p, q, expected):
    assert factorization_index(p, q) == expected


def test_factorization_index_matches_all_routes():
    for p, q in coprime_pairs(40):
        idx = factorization_index(p, q)
        assert idx == closest_path_point(p, q)
        left = balanced2_factorization(christoffel_word(p, q)).factors[0]
        assert idx == len(left)


def test_word_properties_up_to_40():
    for p, q in coprime_pairs(40):
        n = p + q
        word = christoffel_word(p, q)
        perm = ap_detect(list(suffix_array(word).sa))
        assert perm == christoffel_sa_params(p, q)
        assert word == synth_binary(perm).text
        assert is_lyndon(word)
        assert is_balanced(word)
        assert is_balanced2(word)
        assert christoffel_bwt(p, q) == bwt_from_sa(word)
        # Lyndon words are primitive and border-free by definition checks:
        assert all(word[: i] != word[n - i :] for i in range(1, n))


def cayley_word(p, q):
    """Reference: character i is 'a' exactly when (i-1)q mod n < iq mod n, n = p + q."""
    n = p + q
    return "".join("a" if (i - 1) * q % n < i * q % n else "b" for i in range(1, n + 1))


def test_word_and_bwt_match_cayley_formula_up_to_300():
    for p, q in coprime_pairs(300, n_min=2):
        word = christoffel_word(p, q)
        assert word == cayley_word(p, q), (p, q)
        bwt = christoffel_bwt(p, q)
        assert bwt.runs == (("b", q), ("a", p)) and bwt.source == "predicted", (p, q)


def test_adjacent_diff_examples():
    assert bwt_matrix_adjacent_diffs("ab") == [(1, 1), (1, 2)]
    diffs = bwt_matrix_adjacent_diffs("aababaababab")
    row1 = [c for r, c in diffs if r == 1]
    assert row1 == [7, 8]
    for word in ("aab",):
        diffs = bwt_matrix_adjacent_diffs(word)
        for row in (1, 2):
            cols = [c for r, c in diffs if r == row]
            assert len(cols) == 2
            assert (cols[1] - cols[0]) % len(word) == 1


def test_adjacent_diffs_read_the_sorted_rotation_matrix():
    # Brute force: sort the rotations, equal ones by start, and compare rows.
    for alphabet in ("ab", "abc"):
        for n in range(2, 8):
            for letters in product(alphabet, repeat=n):
                word = "".join(letters)
                rows = sorted(word[i:] + word[:i] for i in range(n))
                want = [
                    (i, j + 1)
                    for i, (x, y) in enumerate(pairwise(rows), start=1)
                    for j in range(n)
                    if x[j] != y[j]
                ]
                assert bwt_matrix_adjacent_diffs(word) == want, word


def test_adjacent_diffs_at_predicted_columns():
    for p, q in coprime_pairs(24):
        word = christoffel_word(p, q)
        n = len(word)
        k = christoffel_sa_params(p, q).k
        diffs = bwt_matrix_adjacent_diffs(word)
        by_row = {}
        for r, c in diffs:
            by_row.setdefault(r, []).append(c)
        for i in range(1, n):
            predicted = adjacent_diff_columns(n, k, i)
            assert sorted(by_row[i]) == sorted(predicted), (p, q, i)


@pytest.mark.parametrize(
    "p, q, expected",
    [(7, 5, "bababaababaa"), (1, 1, "ba"), (2, 1, "baa")],
)
def test_christoffel_upper(p, q, expected):
    assert christoffel_upper(p, q) == expected


def test_upper_word_progression_under_reversed_order():
    # With the order of the two characters inverted (checked by relabeling),
    # the upper word's suffix array progresses with ratio n - k.
    swap = str.maketrans("ab", "ba")
    for p, q in coprime_pairs(24):
        n = p + q
        k = christoffel_sa_params(p, q).k
        relabeled = christoffel_upper(p, q).translate(swap)
        perm = ap_detect(list(naive_sa(relabeled)))
        assert perm == APPerm(n, n - k, 1)
