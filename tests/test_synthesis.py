import random
from math import comb

import numpy as np
import pytest

from apsa.core import APPerm, ap_materialize, ap_rotate
from apsa.errors import (
    AlphabetTooSmallError,
    InvalidSplitError,
    UnsupportedCaseError,
    WrongCaseError,
)
import apsa.synthesis as synthesis
from apsa.synthesis import (
    SynthCase,
    _canonical_boundaries,
    _rank_alphabet,
    _ternary_boundaries,
    _text_codes,
    binary_closed_form,
    classify,
    render_ranks,
    required_splits,
    synth,
    synth_binary,
    synth_general,
    synth_ternary,
    synth_unary_family,
)
from apsa.textindex import bwt_from_sa, suffix_array

from helpers import iter_ap_perms, naive_sa


@pytest.mark.parametrize(
    "perm, case, sigma",
    [
        (APPerm(8, 5, 5), SynthCase.TERNARY, 3),
        (APPerm(8, 7, 8), SynthCase.UNARY, 1),
        (APPerm(8, 5, 6), SynthCase.BINARY2, 2),
        (APPerm(8, 5, 8), SynthCase.BINARY1, 2),
        (APPerm(8, 5, 1), SynthCase.BINARY3, 2),
        (APPerm(8, 7, 1), SynthCase.BINARY3, 2),
        (APPerm(1, 1, 1), SynthCase.UNARY, 1),
    ],
)
def test_classify(perm, case, sigma):
    assert classify(perm) == (case, sigma)


@pytest.mark.parametrize(
    "perm, values",
    [
        (APPerm(8, 5, 5), {7, 3}),
        (APPerm(8, 7, 8), set()),
        (APPerm(8, 5, 1), {3}),
        (APPerm(8, 5, 6), {3}),
        (APPerm(8, 5, 8), {2}),
    ],
)
def test_required_splits(perm, values):
    assert required_splits(perm) == frozenset(values)
    assert len(required_splits(perm)) == classify(perm)[1] - 1


@pytest.mark.parametrize(
    "p1, text",
    [
        (5, "babbabac"),
        (2, "babacbac"),
        (7, "acbacbac"),
        (4, "acbacacc"),
        (1, "ababbabb"),
        (6, "ccaccacb"),
        (3, "ccacbccb"),
        (8, "babbabba"),
    ],
)
def test_synth_ternary_rotation_family(p1, text):
    result = synth_ternary(APPerm(8, 5, p1))
    assert result.text == text
    assert suffix_array(text).sa == tuple(ap_materialize(APPerm(8, 5, p1)))


def test_synth_ternary_rejects_reversal():
    with pytest.raises(UnsupportedCaseError):
        synth_ternary(APPerm(8, 7, 8))


def test_synth_ternary_unique_over_all_ternary_strings():
    # For a permutation needing three characters there is exactly one string
    # over {a, b, c} with that suffix array; spot-check by brute force.
    from itertools import product

    perm = APPerm(5, 2, 4)
    target = naive_sa(synth_ternary(perm).text)
    assert list(target) == ap_materialize(perm)
    hits = [
        "".join(t)
        for t in product("abc", repeat=5)
        if naive_sa("".join(t)) == target
    ]
    assert hits == [synth_ternary(perm).text]


@pytest.mark.parametrize(
    "p1, text, p_s, s",
    [
        (8, "babbabba", 2, 3),
        (6, "bbabbabb", 3, 2),
        (1, "ababbabb", 3, 3),
    ],
)
def test_synth_binary_three_cases(p1, text, p_s, s):
    result = synth_binary(APPerm(8, 5, p1))
    assert result.text == text
    assert result.p_s == p_s
    assert result.s == s
    assert suffix_array(text).sa == tuple(ap_materialize(APPerm(8, 5, p1)))


def test_synth_binary_errors():
    with pytest.raises(WrongCaseError):
        synth_binary(APPerm(8, 5, 5))
    with pytest.raises(UnsupportedCaseError):
        synth_binary(APPerm(8, 7, 8))


def test_binary_periods_and_lyndon():
    from apsa.lyndonlab import is_lyndon

    for n in range(2, 65):
        for perm in iter_ap_perms(n):
            case, _ = classify(perm)
            if case in (SynthCase.UNARY, SynthCase.TERNARY):
                continue
            result = synth_binary(perm)
            text, period = result.text, n - perm.k
            if case is SynthCase.BINARY3:
                assert result.predicted_period is None
                assert is_lyndon(text)
            else:
                assert result.predicted_period == period
                assert all(text[i] == text[i + period] for i in range(n - period))


def test_split_and_threshold_constructions_agree():
    for n in range(2, 65):
        for perm in iter_ap_perms(n):
            if classify(perm)[0] in (SynthCase.UNARY, SynthCase.TERNARY):
                continue
            assert synth_binary(perm).text == binary_closed_form(perm)


def test_split_index_closed_forms():
    for n in range(2, 65):
        for perm in iter_ap_perms(n):
            case, _ = classify(perm)
            kinv = perm.k_inverse
            if case is SynthCase.BINARY2:
                expected = (n - 1 - kinv) % n
            elif case in (SynthCase.BINARY1, SynthCase.BINARY3):
                expected = n - kinv
            else:
                continue
            result = synth_binary(perm)
            assert result.s == expected
            assert result.s == result.text.count("a")


def test_round_trip_moderate():
    for n in range(2, 25):
        for perm in iter_ap_perms(n):
            assert suffix_array(synth(perm).text).sa == tuple(ap_materialize(perm))


def test_first_rotation_of_lyndon_case():
    # Rotating the p1 = 1 string left once rotates its suffix array by the
    # number of 'a's, and leaves the BWT unchanged.
    for n in range(2, 33):
        for perm in iter_ap_perms(n):
            if classify(perm)[0] is not SynthCase.BINARY3:
                continue
            result = synth_binary(perm)
            m = result.s
            rotated = result.text[1:] + result.text[0]
            target = ap_rotate(perm, m)
            assert suffix_array(rotated).sa == tuple(ap_materialize(target))
            assert list(suffix_array(rotated).sa)[0] == n
            assert bwt_from_sa(result.text) == bwt_from_sa(rotated)


def test_unary_family_examples():
    assert list(synth_unary_family(3, 1)) == ["aaa"]
    assert list(synth_unary_family(3, 2)) == ["aaa", "baa", "bba", "bbb"]
    two_over_three = list(synth_unary_family(2, 3))
    assert len(two_over_three) == comb(4, 2) == 6
    assert len(set(two_over_three)) == 6


def test_unary_family_is_the_reversal_enumeration_reversed():
    from apsa.enumeration import enumerate_strings

    for n in range(1, 7):
        reversal = APPerm(n, n - 1, n) if n > 1 else APPerm(1, 1, 1)
        for sigma in range(1, 5):
            expected = list(enumerate_strings(reversal, sigma))[::-1]
            assert list(synth_unary_family(n, sigma)) == expected


def test_unary_family_all_have_reversal_sa():
    for n in range(1, 7):
        for sigma in range(1, 4):
            family = list(synth_unary_family(n, sigma))
            assert len(family) == comb(n + sigma - 1, n)
            for text in family:
                assert naive_sa(text) == tuple(range(n, 0, -1))


def test_synth_unary_dispatch():
    result = synth(APPerm(8, 7, 8))
    assert result.text == "a" * 8
    assert result.case is SynthCase.UNARY
    assert result.predicted_period == 1


@pytest.mark.parametrize(
    "perm, sigma, values, text",
    [
        (APPerm(8, 5, 5), 5, [1, 2], "cadcadbe"),
        (APPerm(8, 5, 5), 3, [], "babbabac"),
    ],
)
def test_synth_general_examples(perm, sigma, values, text):
    result = synth_general(perm, sigma, values)
    assert result.text == text
    assert suffix_array(text).sa == tuple(ap_materialize(perm))


def test_synth_general_free_split_inside_first_block():
    perm = APPerm(8, 5, 1)
    result = synth_general(perm, 3, [5])
    assert suffix_array(result.text).sa == tuple(ap_materialize(perm))
    assert len(set(result.text)) == 3


def test_synth_general_matches_dispatch_at_minimum():
    for n in range(2, 17):
        for perm in iter_ap_perms(n):
            sigma = classify(perm)[1]
            assert synth_general(perm, sigma).text == synth(perm).text


def test_synth_general_without_free_splits_is_synth():
    # The whole record, s and period included, for sigma at and above the minimum.
    for n in range(1, 17):
        for perm in iter_ap_perms(n):
            sigma = classify(perm)[1]
            assert synth_general(perm, sigma) == synth(perm)
            assert synth_general(perm, sigma + 2, ()) == synth(perm)


def test_synth_ternary_with_one_boundary_is_synth():
    # For p1 in {1, n} the three-way split loses a subarray and is the canonical one.
    for n in range(2, 17):
        for perm in iter_ap_perms(n):
            if not perm.is_reversal and perm.p1 in (1, n):
                assert synth_ternary(perm) == synth(perm)


def test_synth_general_errors():
    perm = APPerm(8, 5, 5)
    with pytest.raises(AlphabetTooSmallError):
        synth_general(perm, 2)
    with pytest.raises(InvalidSplitError):
        synth_general(perm, 4, [7])  # already required
    with pytest.raises(AlphabetTooSmallError):
        synth_general(perm, 4, [1, 2])  # two free splits need sigma >= 5
    with pytest.raises(InvalidSplitError):
        synth_general(perm, 4, [8])  # final entry of P
    with pytest.raises(InvalidSplitError):
        synth_general(APPerm(8, 5, 5), 5, [1, 1])


def test_synth_general_above_26_ranks():
    perm = APPerm(40, 3, 5)
    result = synth_general(perm, 30, range(3, 30))
    assert len(result.text) == 40
    assert len(set(result.text)) == 30
    assert suffix_array(result.text).sa == tuple(ap_materialize(perm))


def test_rank_alphabet_keeps_records_parseable():
    alphabet = _rank_alphabet(5000)
    assert alphabet[:26] == "abcdefghijklmnopqrstuvwxyz"
    assert all(a < b for a, b in zip(alphabet, alphabet[1:]))
    assert alphabet.split() == [alphabet]
    assert not any(ch.isnumeric() or ch in "=,[]" for ch in alphabet)
    alphabet.encode("utf-8")  # no surrogates


# n = 20011 rows are built from one period, on the k side and the n - k side.
@pytest.mark.parametrize(
    "perm",
    [APPerm(8, 5, 5), APPerm(9, 8, 9), APPerm(40, 3, 5), APPerm(20011, 9, 5), APPerm(20011, 20002, 17)],
)
@pytest.mark.parametrize("m", [0, 1, 3, 25, 26, 27, 45])
def test_text_codes_matrix_rows_are_separate_texts(perm, m):
    rng = np.random.default_rng(m)
    rows = np.sort(rng.integers(0, perm.n + 1, size=(6, m)), axis=1)
    rows[1] = rows[1, :1]  # one class holds everything, the others are empty
    rows[2] = perm.n  # every boundary after the final entry
    codes = _text_codes(perm, rows)
    assert codes.shape == (6, perm.n)
    assert codes.dtype == (np.uint8 if m < 26 else np.uint32)
    for row, got in zip(rows, codes):
        assert np.array_equal(got, _text_codes(perm, tuple(row.tolist())))
    assert np.array_equal(_text_codes(perm, rows, 2, perm.n - 1), codes[:, 2 : perm.n - 1])


def _census_rows(perm, rng):
    """Canonical and ternary boundaries, plus a refinement with repeats, 0 and n."""
    rows = {_canonical_boundaries(perm)}
    if not perm.is_reversal:
        rows.add(_ternary_boundaries(perm))
    extra = rng.choices([0, perm.n, *range(perm.n + 1)], k=rng.randint(1, 5))
    rows.add(tuple(sorted(_canonical_boundaries(perm) + tuple(extra))))
    return sorted(row for row in rows if row)


def test_tiled_text_codes_census(monkeypatch):
    """Single rows built from one period equal the one-row-matrix ISA route.

    Every (n, k, p1) with n <= 40.  Up to n = 10 every range (start, stop);
    above that the whole text and ranges of length q - 1, q, q + 1 and
    2q + 1 at random starts, q = min(k, n - k).
    """
    monkeypatch.setattr(synthesis, "_TILE_MIN", 0)
    rng = random.Random(20)
    for n in range(1, 41):
        for perm in iter_ap_perms(n):
            q = min(perm.k, n - perm.k)
            if n <= 10:
                ranges = [(a, b) for a in range(n + 1) for b in range(a, n + 1)]
            else:
                ranges = [(0, n)]
                for length in (q - 1, q, q + 1, 2 * q + 1):
                    a = rng.randint(0, n - length)
                    ranges.append((a, a + length))
            for row in _census_rows(perm, rng):
                whole = _text_codes(perm, [row])[0]
                for a, b in ranges:
                    got = _text_codes(perm, row, a, b)
                    assert got.tobytes() == whole[a:b].tobytes(), (perm, row, a, b)


def test_synth_reads_one_period_of_the_isa(monkeypatch):
    perm = APPerm(10**5 + 3, 7, 5)
    real, read = synthesis.ap_array, []

    def spy(p, start=0, stop=None):
        out = real(p, start, stop)
        read.append(out.size)
        return out

    monkeypatch.setattr(synthesis, "ap_array", spy)
    text = synth(perm).text
    assert sum(read) <= 7
    monkeypatch.undo()
    assert text == synthesis._text_of(_text_codes(perm, [_canonical_boundaries(perm)])[0])


@pytest.mark.parametrize("ranks, bad", [([2, 0, 1], 0), ([3, -1], -1)])
def test_render_ranks_refuses_ranks_below_one(ranks, bad):
    with pytest.raises(ValueError, match=f"rank {bad} "):
        render_ranks(ranks)
