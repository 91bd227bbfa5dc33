from itertools import product
from math import gcd

import pytest

from apsa.christoffel import christoffel_word, factorization_index
from apsa.core import APPerm, ap_detect
from apsa.errors import WrongParityError
from apsa.lyndonlab import (
    balanced2_factorization,
    balanced_via_bwt,
    balanced_via_slope,
    duval_factorization,
    fibonacci_closed_form,
    fibonacci_lengths,
    fibonacci_swapped,
    fibonacci_word,
    is_balanced,
    is_balanced2,
    is_lyndon,
    left_factorization,
    right_factorization,
)
from apsa.synthesis import SynthCase, classify, synth_binary
from apsa.textindex import suffix_array

from helpers import all_strings, iter_ap_perms, naive_sa


@pytest.mark.parametrize(
    "word, expected",
    [
        ("abcac", True),
        ("aaacbaabaaacc", True),
        ("aaacbaabaaac", False),  # has border aaac
        ("ababbabb", True),
        ("a", True),
        ("aa", False),
        ("ba", False),
    ],
)
def test_is_lyndon(word, expected):
    assert is_lyndon(word) is expected


def test_is_lyndon_rejects_empty():
    with pytest.raises(ValueError):
        is_lyndon("")


@pytest.mark.parametrize(
    "word, factors",
    [
        ("babbabac", ("b", "abb", "abac")),
        ("aaaa", ("a", "a", "a", "a")),
        ("abcac", ("abcac",)),
        ("ababbabb", ("ababbabb",)),
    ],
)
def test_duval_examples(word, factors):
    assert duval_factorization(word).factors == factors


def test_duval_properties_exhaustive():
    for length in range(1, 13):
        for tup in product("abc", repeat=length):
            word = "".join(tup)
            factors = duval_factorization(word).factors
            assert "".join(factors) == word
            assert all(a >= b for a, b in zip(factors, factors[1:]))
            assert all(is_lyndon(f) for f in factors)


@pytest.mark.parametrize(
    "word, factors",
    [
        ("aababaababab", ("aabab", "aababab")),
        ("ab", ("a", "b")),
        ("aabab", ("aab", "ab")),
    ],
)
def test_right_factorization(word, factors):
    got = right_factorization(word)
    assert got.factors == factors
    assert all(is_lyndon(f) for f in got.factors)
    assert got.factors[0] < got.factors[1]


@pytest.mark.parametrize(
    "word, factors",
    [
        ("aababaababab", ("aabab", "aababab")),
        ("ab", ("a", "b")),
        ("aaababb", ("aaabab", "b")),
    ],
)
def test_left_factorization(word, factors):
    got = left_factorization(word)
    assert got.factors == factors
    assert all(is_lyndon(f) for f in got.factors)
    assert got.factors[0] < got.factors[1]


def test_left_factorization_matches_prefix_scan():
    # Reference: scan the proper prefixes from the longest down and keep the
    # first Lyndon one.
    for length in range(2, 11):
        for tup in product("abc", repeat=length):
            word = "".join(tup)
            if not is_lyndon(word):
                continue
            cut = next(m for m in range(length - 1, 0, -1) if is_lyndon(word[:m]))
            assert left_factorization(word).factors == (word[:cut], word[cut:]), word


def test_right_factorization_matches_suffix_array_cut():
    # Reference: the least proper suffix of a Lyndon word is the second entry
    # of its suffix array, since the word itself is the first.
    for length in range(2, 11):
        for tup in product("abc", repeat=length):
            word = "".join(tup)
            if not is_lyndon(word):
                continue
            cut = suffix_array(word).sa[1] - 1
            assert right_factorization(word).factors == (word[:cut], word[cut:]), word


def test_factorizations_reject_bad_input():
    for fn in (right_factorization, left_factorization):
        with pytest.raises(ValueError):
            fn("ba")  # not Lyndon
        with pytest.raises(ValueError):
            fn("a")  # too short


def test_balanced2_examples():
    assert is_balanced2("aababaababab") is True
    assert is_balanced2("a") is True
    assert is_balanced2("ba") is False  # multi-character non-Lyndon word
    assert is_balanced2("aababb") is False  # left (aabab)(b) != right (a)(ababb)


def test_balanced2_beyond_two_letters():
    # Coinciding factorizations at every level do not force a binary word.
    assert is_balanced2("acb") is True  # (ac)(b), then (a)(c)
    assert is_balanced2("abac") is True  # (ab)(ac), then (a)(b) and (a)(c)


DEEP_CHRISTOFFEL = [(1, 1000), (1000, 1001), (1000, 2001)]


@pytest.mark.parametrize("p, q", DEEP_CHRISTOFFEL)
def test_is_balanced2_on_deep_christoffel_trees(p, q):
    # The tree of a b^1000 is a thousand levels deep; recursion overflowed.
    assert is_balanced2(christoffel_word(p, q)) is True


@pytest.mark.parametrize("p, q", DEEP_CHRISTOFFEL)
def test_balanced2_factorization_on_deep_christoffel_trees(p, q):
    tree = balanced2_factorization(christoffel_word(p, q))
    assert len(tree.factors[0]) == factorization_index(p, q)


@pytest.mark.parametrize("p, q", [(1, 300), (100, 101), (100, 201), (55, 89)])
def test_balanced2_tree_nodes_are_both_factorizations(p, q):
    # `==` and `repr` recurse on deep trees, so the nodes are walked with a
    # stack and compared one at a time.
    tree = balanced2_factorization(christoffel_word(p, q))
    stack, internal = [tree], 0
    while stack:
        node = stack.pop()
        assert node.kind == "balanced2-tree"
        if not node.children:
            assert len(node.factors) == 1 and len(node.factors[0]) == 1
            continue
        internal += 1
        assert node.factors == left_factorization(node.word).factors
        assert node.factors == right_factorization(node.word).factors
        assert tuple(child.word for child in node.children) == node.factors
        stack.extend(node.children)
    assert internal == p + q - 1


def test_balanced2_tree_structure():
    tree = balanced2_factorization("aababaababab")
    assert tree.factors == ("aabab", "aababab")
    assert tree.children[0].factors == ("aab", "ab")
    assert tree.children[1].factors == ("aabab", "ab")
    leaf = balanced2_factorization("a")
    assert leaf.factors == ("a",) and leaf.children == ()
    with pytest.raises(ValueError):
        balanced2_factorization("aababb")


def test_balanced2_iff_christoffel():
    # Over every binary word of length up to 14, the words with coinciding
    # recursive factorizations are exactly the lower Christoffel words.
    for n in range(1, 15):
        christoffel = {
            christoffel_word(p, n - p)
            for p in range(0, n + 1)
            if gcd(p, n - p) == 1
        }
        for word in all_strings(2, n):
            assert is_balanced2(word) == (word in christoffel), word


@pytest.mark.parametrize(
    "word, expected",
    [
        ("ababbabb", True),
        ("bbabbabb", False),
        ("ab", True),
        ("aaaa", True),
        ("abab", True),
        ("aabb", False),
    ],
)
def test_is_balanced(word, expected):
    assert is_balanced(word) is expected
    assert balanced_via_bwt(word) is expected


def test_balance_checks_reject_non_binary():
    with pytest.raises(ValueError):
        is_balanced("abc")
    with pytest.raises(ValueError):
        balanced_via_bwt("abc")


def test_balanced_agreement_exhaustive():
    for n in range(1, 13):
        for word in all_strings(2, n):
            assert is_balanced(word) == balanced_via_bwt(word), word


def test_synthesized_binary_words_are_balanced():
    # Holds for the p1 = 1 and p1 = n binary cases; the p1 = k + 1 strings
    # are observed unbalanced in general, so their status is only recorded.
    case2_balance = {}
    for n in range(2, 65):
        for perm in iter_ap_perms(n):
            case, _ = classify(perm)
            if case in (SynthCase.UNARY, SynthCase.TERNARY):
                continue
            text = synth_binary(perm).text
            if case is SynthCase.BINARY2:
                case2_balance[(n, perm.k)] = is_balanced(text)
            else:
                assert is_balanced(text), perm
    assert case2_balance[(8, 5)] is False  # known unbalanced example


@pytest.mark.parametrize(
    "m, word",
    [
        (1, "b"),
        (2, "a"),
        (3, "ab"),
        (4, "aba"),
        (5, "abaab"),
        (6, "abaababa"),
    ],
)
def test_fibonacci_word(m, word):
    fw = fibonacci_word(m)
    assert fw.word == word
    assert fw.length == len(word) == fibonacci_lengths(m)[-1]


def test_fibonacci_word_rejects_zero():
    with pytest.raises(ValueError):
        fibonacci_word(0)


@pytest.mark.parametrize("m", [4, 6, 8, 10, 12, 14])
def test_fibonacci_closed_form_matches_recursion(m):
    assert fibonacci_closed_form(m) == fibonacci_word(m).word


def test_fibonacci_closed_form_rejects_odd():
    with pytest.raises(WrongParityError):
        fibonacci_closed_form(5)


@pytest.mark.parametrize(
    "m, expected", [(5, "babba"), (2, "b"), (6, "babbabab")]
)
def test_fibonacci_swapped(m, expected):
    assert fibonacci_swapped(m) == expected


def test_even_fibonacci_suffix_arrays():
    f = fibonacci_lengths(16)
    for m in range(4, 17, 2):
        fm, fm2 = f[m - 1], f[m - 3]
        word = fibonacci_word(m).word
        perm = ap_detect(list(suffix_array(word).sa))
        assert perm == APPerm(fm, fm2 % fm, fm)
        assert word == synth_binary(perm).text


def test_odd_swapped_fibonacci_suffix_arrays():
    f = fibonacci_lengths(15)
    for m in range(3, 16, 2):
        fm, fm2 = f[m - 1], f[m - 3]
        word = fibonacci_swapped(m)
        perm = ap_detect(list(suffix_array(word).sa))
        assert perm is not None and perm.k == fm2 % fm and perm.p1 == fm


def test_fibonacci_square_identity():
    f = fibonacci_lengths(31)
    for m in range(4, 31, 2):
        if f[m - 1] > 10**6:
            break
        assert f[m - 3] ** 2 % f[m - 1] == 1


def test_lyndon_iff_progressed_suffix_array_starts_with_one():
    # What `apsa classify` reports as lyndon= for progressed texts.
    seen = {True: 0, False: 0}
    for sigma in (2, 3):
        for length in range(1, 9):
            for text in all_strings(sigma, length):
                perm = ap_detect(naive_sa(text))
                if perm is not None:
                    assert is_lyndon(text) == (perm.p1 == 1), text
                    seen[perm.p1 == 1] += 1
    assert min(seen.values()) > 100, seen


def test_balanced_via_slope_exhaustive():
    for n in range(1, 13):
        for word in all_strings(2, n):
            assert balanced_via_slope(word) == is_balanced(word), word


def test_balanced_via_slope_on_long_words():
    for p, q in [(7, 5), (101, 200), (1, 999), (377, 610)]:
        word = christoffel_word(p, q)
        for w in (word, word[5:] + word[:5], word * 3):
            assert balanced_via_slope(w) and balanced_via_bwt(w)
        # Swapping one "ab" for "ba": all three checks agree on the result.
        i = word.index("ab")
        near = word[:i] + "ba" + word[i + 2 :]
        assert balanced_via_slope(near) == balanced_via_bwt(near) == is_balanced(near)
    with pytest.raises(ValueError):
        balanced_via_slope("abc")
