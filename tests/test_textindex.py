import random
from itertools import product

import numpy as np
import pytest

from apsa.core import APPerm, ap_materialize, canonical_residue
from apsa.errors import UnsupportedCaseError
from apsa.synthesis import SynthCase, classify, synth, synth_ternary
from apsa.textindex import (
    bwt_definitions_agree,
    bwt_from_matrix,
    bwt_from_sa,
    bwt_predict,
    bwt_predict_ternary,
    compact_runs,
    expand_runs,
    inverse_sa,
    parse_compact_runs,
    rotate_runs,
    run_count,
    runs_of,
    suffix_array,
)

from helpers import iter_ap_perms, naive_matrix_bwt, naive_sa


@pytest.mark.parametrize(
    "text, expected",
    [
        ("babbabac", (5, 2, 7, 4, 1, 6, 3, 8)),
        ("abaababa", (8, 3, 6, 1, 4, 7, 2, 5)),
        ("aaa", (3, 2, 1)),
        ("banana", (6, 4, 2, 1, 5, 3)),
        ("ab", (1, 2)),
        ("a", (1,)),
    ],
)
def test_suffix_array_examples(text, expected):
    assert suffix_array(text).sa == expected


def test_suffix_array_rejects_empty():
    with pytest.raises(ValueError):
        suffix_array("")


def test_suffix_array_cross_check_exhaustive():
    # Against the independent naive oracle, over every string of length up
    # to 12 on up to three characters.
    for length in range(1, 13):
        for tup in product("abc", repeat=length):
            text = "".join(tup)
            assert suffix_array(text).sa == naive_sa(text), text


def test_suffix_array_numpy_path_agrees():
    # Long texts take the vectorized route; check it against the small one.
    from apsa.textindex import _doubling_small

    words = [
        ("ab" * 1500) + "a",
        "a" * 3000,
        ("abc" * 1000) + "bca",
        # U+0000 is a real character, not the sentinel.
        "\x00" * 3000,
        "a\x00" * 1500,
        "\x00a" * 1500 + "\x00",
    ]
    for text in words:
        got = suffix_array(text).sa  # length >= threshold, vectorized
        want = tuple(i + 1 for i in _doubling_small([ord(c) for c in text]))
        assert got == want


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_suffix_array_agrees_on_both_sides_of_the_numpy_threshold(offset):
    import random
    from math import gcd

    from apsa.textindex import _NUMPY_THRESHOLD

    n = _NUMPY_THRESHOLD + offset
    rnd = random.Random(n)
    k = rnd.choice([k for k in range(1, n) if gcd(k, n) == 1])
    texts = [
        "".join(rnd.choices("abc", k=n)),
        "".join(rnd.choices("\x00ab", k=n)),
        "a" * n,
        ("abaab" * n)[:n],
        synth(APPerm(n, k, rnd.randint(1, n))).text,
    ]
    for text in texts:
        assert suffix_array(text).sa == naive_sa(text), text


def test_numpy_kernel_agrees_at_every_short_length(monkeypatch):
    # Below the threshold suffix_array sorts by the definition; lowering it
    # sends every length through the kernel and its sentinel.
    from math import gcd

    import apsa.textindex

    monkeypatch.setattr(apsa.textindex, "_NUMPY_THRESHOLD", 1)
    rnd = random.Random(300)
    for n in range(1, 301):
        k = rnd.choice([k for k in range(1, n) if gcd(k, n) == 1] or [1])
        texts = [
            "".join(rnd.choices("\x00abc"[: rnd.randint(2, 4)], k=n)),
            "".join(rnd.choices("ab\x00d", k=n)),
            (rnd.choice(["ab", "aab", "abaab", "\x00a"]) * n)[:n],
            "a" * n,
            synth(APPerm(n, k, rnd.randint(1, n))).text,
        ]
        for text in texts:
            assert suffix_array(text).sa == naive_sa(text), text


@pytest.mark.parametrize(
    "base, width", [(2, 63), (3, 39), (4, 31), (3_037_000_499, 2), (3_037_000_500, 1)]
)
def test_packed_key_width_fills_int64(base, width):
    from apsa.textindex import _int64_width

    assert _int64_width(base) == width
    assert base**width <= 2**63 < base ** (width + 1)


@pytest.mark.parametrize(
    "sa, expected",
    [
        ([5, 2, 7, 4, 1, 6, 3, 8], [5, 2, 7, 4, 1, 6, 3, 8]),
        ([1, 2, 3, 4], [1, 2, 3, 4]),
        ([3, 1, 2], [2, 3, 1]),
        ([], []),
    ],
)
def test_inverse_sa(sa, expected):
    assert inverse_sa(sa) == expected


def test_inverse_sa_rejects_non_permutation():
    with pytest.raises(ValueError):
        inverse_sa([1, 1, 2])
    with pytest.raises(ValueError):
        inverse_sa([0, 1, 2])


@pytest.mark.parametrize(
    "values",
    [
        [True],
        [True, 2],
        np.array([True]),
        [2.0, 1.0],
        np.array([2.0, 1.0]),
        ["2", "1"],
        [[1]],
        [1, 1],
        [0, 1],
        [1, 3],
    ],
)
def test_every_permutation_check_refuses_the_same_inputs(values):
    from apsa.core import ap_detect

    assert ap_detect(values) is None
    with pytest.raises(ValueError):
        inverse_sa(values)
    with pytest.raises(ValueError, match="not a permutation"):
        bwt_from_sa("ab"[: len(values)], values)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200])
def test_suffix_order_is_int64_at_every_length(n):
    from apsa.textindex import _suffix_order

    text = "".join(random.Random(n).choice("abc") for _ in range(n))
    order = _suffix_order(text)
    assert order.dtype == np.int64
    assert tuple((order + 1).tolist()) == naive_sa(text)


def test_isa_closed_form():
    # For synthesized strings the inverse suffix array is the materialized
    # inverse permutation: rank of suffix i is (i - last) * k_inverse mod n.
    from apsa.core import ap_inverse

    for n in range(2, 33):
        for perm in iter_ap_perms(n):
            sa = list(suffix_array(synth(perm).text).sa)
            assert inverse_sa(sa) == ap_materialize(ap_inverse(perm))


@pytest.mark.parametrize(
    "text, chars",
    [
        ("babbabac", "bbbbcaaa"),
        ("ababbabb", "bbbbbaaa"),
        ("bab", "bab"),
    ],
)
def test_bwt_from_sa_examples(text, chars):
    profile = bwt_from_sa(text)
    assert profile.chars == chars
    assert profile.source == "sa-based"
    assert expand_runs(profile.runs) == chars


def test_bwt_from_sa_length_mismatch():
    with pytest.raises(ValueError):
        bwt_from_sa("abc", [1, 2])


@pytest.mark.parametrize("sa", [[1, 1, 1], [7, 8, 9], [0, 1, 2], [3, 3, 1], [-1, 1, 2]])
def test_bwt_from_sa_rejects_a_non_permutation(sa):
    for given in (sa, np.array(sa)):
        with pytest.raises(ValueError, match="not a permutation"):
            bwt_from_sa("abc", given)


def test_bwt_from_sa_rejects_a_permutation_that_is_not_the_suffix_array():
    # The reversed order is a permutation; the BWT of abab is bbaa, not abab.
    for given in ([4, 3, 2, 1], np.array([4, 3, 2, 1])):
        with pytest.raises(ValueError, match="not the suffix array"):
            bwt_from_sa("abab", given)


def test_bwt_from_sa_accepts_exactly_the_suffix_array():
    # Every permutation of every short text: only the true suffix array passes.
    from itertools import permutations

    for alphabet, top in (("ab", 5), ("abc", 4)):
        for n in range(1, top + 1):
            for chars in product(alphabet, repeat=n):
                text = "".join(chars)
                truth = naive_sa(text)
                for sa in permutations(range(1, n + 1)):
                    if sa == truth:
                        assert bwt_from_sa(text, sa).chars == "".join(text[i - 2] for i in sa)
                    else:
                        with pytest.raises(ValueError, match="not the suffix array"):
                            bwt_from_sa(text, sa)


@pytest.mark.parametrize(
    "text, chars",
    [
        ("bab", "bba"),
        ("babbabac", "bbbbcaaa"),
        ("bbabbabb", "bbbbbaba"),
    ],
)
def test_bwt_from_matrix_examples(text, chars):
    assert bwt_from_matrix(text).chars == chars


def test_bwt_from_matrix_non_primitive_deterministic():
    # Equal rotations ordered by starting position; brute force agrees.
    for text in ("abab", "aaaa", "abcabc", "aabaab"):
        assert bwt_from_matrix(text).chars == naive_matrix_bwt(text)


def test_bwt_from_matrix_memory_is_linear():
    # Sorting n rotation slices would need n^2 bytes, 10 GB here; the
    # cyclic doubling kernel fits in a 1 GiB address space.
    from helpers import run_capped

    proc = run_capped(
        "from apsa.textindex import bwt_from_matrix\n"
        "chars = bwt_from_matrix('ab' * 50_000).chars\n"
        "print(chars == 'b' * 50_000 + 'a' * 50_000)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


@pytest.mark.parametrize(
    "perm, chars",
    [
        (APPerm(8, 5, 6), "bbbbbaab"),  # canonical binary output
        (APPerm(8, 5, 5), "bbbbcaaa"),
        (APPerm(8, 5, 1), "bbbbbaaa"),
    ],
)
def test_bwt_predict_examples(perm, chars):
    profile = bwt_predict(perm)
    assert profile.chars == chars
    assert profile.source == "predicted"


def test_bwt_predict_ternary_keeps_third_character():
    # For p1 = k + 1 the split construction string is ternary and its BWT
    # differs from the canonical binary string's BWT.
    assert bwt_predict_ternary(APPerm(8, 5, 6)).chars == "cccccaab"
    assert runs_of("cccccaab") == (("c", 5), ("a", 2), ("b", 1))


def test_bwt_predict_rejects_reversal():
    with pytest.raises(UnsupportedCaseError):
        bwt_predict(APPerm(8, 7, 8))


def test_bwt_predict_matches_sa_route():
    for n in range(2, 65):
        for perm in iter_ap_perms(n):
            if perm.is_reversal:
                continue
            text = synth(perm).text
            assert bwt_predict(perm) == bwt_from_sa(text, ap_materialize(perm))


def test_bwt_predict_ternary_matches_sa_route():
    for n in range(2, 49):
        for perm in iter_ap_perms(n):
            if perm.is_reversal:
                continue
            text = synth_ternary(perm).text
            assert bwt_predict_ternary(perm) == bwt_from_sa(text, ap_materialize(perm))


@pytest.mark.parametrize(
    "chars, count",
    [
        ("bbbbcaaa", 3),
        ("bbbbbaaa", 2),
        ("aaaa", 1),
    ],
)
def test_run_count(chars, count):
    from apsa.textindex import BwtProfile

    assert run_count(BwtProfile(chars, "sa-based")) == count


def test_run_counts_of_split_construction():
    # Exactly 2 runs when the split construction string is binary, exactly 3
    # when it is ternary.
    for n in range(2, 65):
        for perm in iter_ap_perms(n):
            if perm.is_reversal:
                continue
            profile = bwt_predict_ternary(perm)
            expected = 2 if perm.p1 in (1, perm.n) else 3
            assert run_count(profile) == expected, perm


@pytest.mark.parametrize(
    "text, expected",
    [
        ("babbabac", True),
        ("bbabbabb", False),
        ("aab", True),
    ],
)
def test_bwt_definitions_agree_examples(text, expected):
    assert bwt_definitions_agree(text) is expected


def test_bwt_definitions_agree_on_split_construction():
    # The split construction string always satisfies matrix = SA BWT; the
    # canonical binary string for p1 = k + 1 may not.
    for n in range(2, 49):
        for perm in iter_ap_perms(n):
            if perm.is_reversal:
                continue
            assert bwt_definitions_agree(synth_ternary(perm).text), perm


def test_bwt_definitions_agree_on_lyndon_words():
    for text in ("aab", "ab", "aababaababab", "ababbabb", "abcac"):
        assert bwt_definitions_agree(text)


def test_run_helpers_round_trip():
    for chars in ("bbbbcaaa", "a", "abba", "cccccaab"):
        runs = runs_of(chars)
        assert expand_runs(runs) == chars
        assert parse_compact_runs(compact_runs(runs)) == runs
        assert all(count >= 1 for _, count in runs)
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))


def test_compact_runs_refuses_a_digit_run_character():
    # "a111" would read back as (("a", 111),).
    with pytest.raises(ValueError):
        compact_runs(runs_of("a1"))


def test_rotate_runs_matches_string_rotation():
    for chars in ("aaabbbbc", "aabbbbbb", "abc", "aaaa", ""):
        runs = runs_of(chars)
        for t in range(len(chars) + 1):
            rotated = chars[t:] + chars[:t]
            assert expand_runs(rotate_runs(runs, t)) == rotated
            assert rotate_runs(runs, t) == runs_of(rotated)


def test_profile_equality_is_on_chars():
    a = bwt_from_sa("babbabac")
    b = bwt_from_matrix("babbabac")
    assert a == b
    assert a.source != b.source


@pytest.mark.parametrize("n", [2047, 2048, 2049])
def test_bwt_from_sa_reads_the_sort_directly(monkeypatch, n):
    # Texts around 2048 characters, without a SuffixArrayView in between.
    import random

    import apsa.textindex

    def refuse(text):
        raise AssertionError("suffix_array called")

    monkeypatch.setattr(apsa.textindex, "suffix_array", refuse)
    rnd = random.Random(n)
    texts = [
        "".join(rnd.choices("\x00ab", k=n)),
        "\x00" * n,
        ("a\x00" * n)[:n],
        ("abaab" * n)[:n],
    ]
    for text in texts:
        want = "".join(text[i - 2] for i in naive_sa(text))
        assert bwt_from_sa(text).chars == want


def test_bwt_from_sa_census_matches_the_sorted_suffix_array():
    # Progressed or not, every short text over abc and abcd gets the BWT its
    # sorted suffix array gives.
    for alphabet, top in (("abc", 8), ("abcd", 6)):
        for n in range(1, top + 1):
            for chars in product(alphabet, repeat=n):
                text = "".join(chars)
                want = "".join(text[p - 2] for p in suffix_array(text).sa)
                assert bwt_from_sa(text).chars == want


def test_bwt_from_sa_reads_progressed_texts_off_the_certificate(monkeypatch):
    import apsa.textindex
    from apsa.christoffel import christoffel_bwt, christoffel_word
    from apsa.lyndonlab import fibonacci_lengths, fibonacci_swapped, fibonacci_word
    from apsa.synthesis import synth_general
    from apsa.textindex import bwt_runs

    perm = APPerm(100_003, 7, 5)
    f = fibonacci_lengths(21)
    general_perm = APPerm(997, 7, 5)
    allowed = sorted(set(range(1, 998)) - {general_perm.last})[:40]
    general = synth_general(general_perm, classify(general_perm)[1] + 40, allowed)
    assert len(set(general.text)) == 43
    cases = [
        (synth(perm).text, bwt_predict(perm).chars),
        (christoffel_word(1000, 777), christoffel_bwt(1000, 777).chars),
        (fibonacci_word(20).word, bwt_predict(APPerm(f[19], f[17], f[19])).chars),
        (fibonacci_swapped(21), bwt_predict(APPerm(f[20], f[18], f[20])).chars),
        (general.text, expand_runs(bwt_runs(general_perm, general.split.boundaries))),
    ]

    def refuse(codes):
        raise AssertionError("suffix sort called")

    monkeypatch.setattr(apsa.textindex, "_doubling_numpy", refuse)
    monkeypatch.setattr(apsa.textindex, "_doubling_small", refuse)
    for text, want in cases:
        assert bwt_from_sa(text).chars == want


def test_bwt_from_sa_sorts_texts_that_are_not_progressed(monkeypatch):
    import random

    import apsa.textindex

    perm = APPerm(3001, 7, 5)
    progressed = synth(perm).text
    n, k = perm.n, perm.k
    texts = [
        "".join(random.Random(3000).choices("abcd", k=3000)),
        # No rise after the split value n - k: position n repeats position n - k.
        progressed[: n - 1] + progressed[n - k - 1],
    ]
    sort = apsa.textindex._doubling_numpy
    calls = []
    monkeypatch.setattr(
        apsa.textindex, "_doubling_numpy", lambda codes: calls.append(codes.size) or sort(codes)
    )
    for text in texts:
        assert apsa.textindex.progression_of(text) is None
        want = "".join(text[p - 2] for p in naive_sa(text))
        assert bwt_from_sa(text).chars == want
    assert calls == [3001, 3002]  # one sort each, the sentinel included
