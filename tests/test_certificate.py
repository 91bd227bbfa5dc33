"""The O(n) progression certificate against the suffix sort.

`progression_of` names the one candidate progression from letter counts and
checks it with `progression_holds`; `cli._smallest_period` reads the period
off the progression's adjacent LCPs.  Both are compared with the sort and
with the KMP reference on exhaustive censuses and derandomized hypothesis
texts, near misses included, and classify and enumerate are run with the
suffix sort disabled.
"""

import random
from itertools import product
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apsa.textindex
from apsa.christoffel import christoffel_word
from apsa.cli import _smallest_period, main
from apsa.core import APPerm, ap_detect
from apsa.enumeration import enumerate_strings, sigma_min
from apsa.lyndonlab import fibonacci_swapped, fibonacci_word
from apsa.synthesis import _rank_alphabet, classify, required_splits, synth, synth_general
from apsa.textindex import _codes_of, progression_holds, progression_of, suffix_array

from helpers import iter_ap_perms, smallest_period_reference

bounded = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# The six shapes of test_candidates_are_exact_beyond_the_census.
ENUMERATE_SHAPES = [
    (APPerm(16, 3, 5), 6),
    (APPerm(32, 5, 7), 5),
    (APPerm(40, 3, 40), 4),
    (APPerm(26, 7, 1), 5),
    (APPerm(24, 23, 24), 4),
    (APPerm(36, 5, 6), 3),
]


def sorted_progression(text):
    return ap_detect(suffix_array(text).sa)


def near_miss(rnd, text):
    """`text` with one character replaced by a different one of the same alphabet or the next rank."""
    alphabet = _rank_alphabet(len(set(text)) + 1)
    i = rnd.randrange(len(text))
    return text[:i] + rnd.choice([c for c in alphabet if c != text[i]]) + text[i + 1 :]


def test_census_matches_the_sort_and_kmp():
    progressed = 0
    for letters, max_n in (("abc", 8), ("abcd", 6), ("ab", 14)):
        for n in range(1, max_n + 1):
            for chars in product(letters, repeat=n):
                text = "".join(chars)
                perm = progression_of(text)
                assert perm == sorted_progression(text), text
                if perm is not None:
                    progressed += 1
                    assert _smallest_period(text, perm) == smallest_period_reference(text), text
    assert progressed > 1000


def test_pinned_examples():
    # Four letters and still progressed: the certificate must not reject
    # texts over more than three letters.
    assert progression_of("adaba") == APPerm(5, 3, 5)
    # The period comes from a one-letter border, not from n - k.
    perm = progression_of("acaba")
    assert perm == APPerm(5, 3, 5)
    assert _smallest_period("acaba", perm) == smallest_period_reference("acaba") == 4
    # Letters above U+FFFF: the letter boundaries come from their counts.
    text = synth(APPerm(1000, 7, 5)).text.translate({ord("b"): 0x1F600, ord("c"): 0x10FFFD})
    perm = progression_of(text)
    assert perm == APPerm(1000, 7, 5)
    assert _smallest_period(text, perm) == smallest_period_reference(text) == 999
    text = synth(APPerm(1000, 7, 1000)).text.translate({ord("a"): 0x1F600, ord("b"): 0x10FFFD})
    perm = progression_of(text)
    assert perm == APPerm(1000, 7, 1000)
    assert _smallest_period(text, perm) == smallest_period_reference(text) == 993
    assert progression_of("banana") is None
    assert progression_of("x") == APPerm(1, 1, 1)
    with pytest.raises(ValueError):
        progression_of("")


@st.composite
def letter_texts(draw):
    """Random texts over 1-5 letters, short or in the numpy sort's range."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.one_of(st.integers(1, 60), st.integers(2048, 4000)))
    text = "".join(rnd.choices("abcde"[: draw(st.integers(1, 5))], k=n))
    return near_miss(rnd, text) if draw(st.booleans()) else text


@bounded
@given(letter_texts())
def test_letter_texts_match_the_sort(text):
    assert progression_of(text) == sorted_progression(text)


@st.composite
def synthesized_texts(draw):
    """synth_general texts with up to 45 free splits (above 26 ranks too), and their near misses."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.one_of(st.integers(2, 2047), st.integers(2048, 3000)))
    k = rnd.choice([k for k in range(1, n) if gcd(k, n) == 1])
    perm = APPerm(n, k, rnd.randint(1, n))
    allowed = sorted(set(range(1, n + 1)) - required_splits(perm) - {perm.last})
    free = rnd.sample(allowed, min(len(allowed), draw(st.integers(0, 45))))
    text = synth_general(perm, classify(perm)[1] + len(free), free).text
    miss = draw(st.booleans())
    return perm, near_miss(rnd, text) if miss else text, miss


@bounded
@given(synthesized_texts())
def test_synthesized_texts_match_the_sort_and_kmp(case):
    perm, text, miss = case
    got = progression_of(text)
    assert got == sorted_progression(text)
    if not miss:
        assert got == perm
    if got is not None:
        assert _smallest_period(text, got) == smallest_period_reference(text)


def test_chunk_edges(monkeypatch):
    # Chunks of three positions put the exempt entry and the first failing
    # pair at every offset of a chunk.
    monkeypatch.setattr(apsa.textindex, "_CHUNK", 3)
    rnd = random.Random(7)
    for n in range(2, 30):
        for k in (k for k in range(1, n) if gcd(k, n) == 1):
            for p1 in range(1, n + 1):
                text = synth(APPerm(n, k, p1)).text
                assert progression_of(text) == APPerm(n, k, p1)
                miss = near_miss(rnd, text)
                assert progression_of(miss) == sorted_progression(miss)


def test_certificate_reads_every_row():
    perm = APPerm(8, 5, 5)
    rows = np.array([_codes_of("babbabac"), _codes_of("cadcadbe")])
    assert progression_holds(rows, perm)
    rows[1, 0] = ord("e")
    assert not progression_holds(rows, perm)
    assert progression_holds(rows[:1], perm)
    with pytest.raises(ValueError):
        progression_holds(_codes_of("babbaba"), perm)


def test_certificate_holds_for_one_letter():
    perm = APPerm(1, 1, 1)
    assert progression_holds(_codes_of("a"), perm)
    assert progression_holds(np.array([[ord("b")], [ord("a")], [0]]), perm)


def no_sort(*args, **kwargs):
    raise AssertionError("suffix sort called")


def test_classify_and_enumerate_sort_nothing(monkeypatch, capsys):
    rnd = random.Random(3)
    perm = APPerm(3001, 5, 7)
    allowed = sorted(set(range(1, 3002)) - required_splits(perm) - {perm.last})
    texts = {
        synth(perm).text: "true",
        synth(APPerm(2500, 3, 2500)).text: "true",
        christoffel_word(101, 200): "true",
        fibonacci_word(12).word: "true",
        fibonacci_swapped(13): "true",
        synth_general(perm, 43, rnd.sample(allowed, 40)).text: "true",  # 43 ranks
        "".join(rnd.choices("abc", k=3000)): "false",
        "".join(rnd.choices("ab", k=50)): "false",
    }
    monkeypatch.setattr(apsa.textindex, "_doubling_small", no_sort)
    monkeypatch.setattr(apsa.textindex, "_doubling_numpy", no_sort)
    for text, ap in texts.items():
        assert main(["classify", text]) == 0
        assert capsys.readouterr().out.startswith(f"ap={ap}")
    for perm, sigma in ENUMERATE_SHAPES:
        argv = ["-n", str(perm.n), "-k", str(perm.k), "--p1", str(perm.p1), "--sigma", str(sigma)]
        assert main(["enumerate", *argv]) == 0
        free = sigma - sigma_min(perm)
        assert capsys.readouterr().out.startswith(f"count={comb(perm.n + free, free)} ")


def test_a_failing_batch_raises(monkeypatch):
    import apsa.enumeration

    monkeypatch.setattr(apsa.enumeration, "progression_holds", lambda codes, perm: False)
    with pytest.raises(RuntimeError):
        next(enumerate_strings(APPerm(8, 5, 5), 3))


def test_certificate_needs_no_inverse_suffix_array(monkeypatch):
    perm = APPerm(100_003, 7, 5)
    text = synth(perm).text
    n, k = perm.n, perm.k
    flat = text[: n - 1] + text[n - k - 1]  # no rise after the split value n - k
    miss = text[:50_000] + ("a" if text[50_000] != "a" else "b") + text[50_001:]
    expected = {t: sorted_progression(t) for t in (flat, miss)}

    def no_closed_form(*args):
        raise AssertionError("inverse suffix array computed")

    monkeypatch.setattr(apsa.textindex, "ap_array", no_closed_form)
    monkeypatch.setattr(apsa.textindex, "ap_inverse", no_closed_form)
    assert progression_holds(_codes_of(text), perm)
    assert progression_of(text) == perm
    for t, want in expected.items():
        assert not progression_holds(_codes_of(t), perm)
        assert progression_of(t) == want


def test_every_required_split_needs_a_rise(monkeypatch):
    # The canonical text with the character after a required split value set
    # to the one at it: alone, as the middle row of a matrix whose other rows
    # hold, and alone in chunks of three positions.
    misses = []
    for n in range(2, 61):
        for perm in iter_ap_perms(n):
            codes = _codes_of(synth(perm).text)
            for v in required_splits(perm):
                flat = codes.copy()
                flat[(v - 1 + perm.k) % n] = codes[v - 1]
                misses.append((perm, flat))
                assert not progression_holds(flat, perm), (perm, v)
                assert not progression_holds(np.stack((codes, flat, codes)), perm), (perm, v)
    monkeypatch.setattr(apsa.textindex, "_CHUNK", 3)
    for perm, flat in misses:
        assert not progression_holds(flat, perm), perm


def test_certificate_cuts_its_pass_at_the_patched_chunk(monkeypatch):
    # progression_holds reads textindex._CHUNK at call time: chunks of three
    # positions cut [0, n - k) and [n - k, n) into ceil((n - k)/3) + ceil(k/3) tasks.
    perm = APPerm(20, 7, 5)
    codes = _codes_of(synth(perm).text)
    seen = []
    real = apsa.textindex.run_until

    def counted(fn, tasks, *args):
        seen.append(list(tasks))
        return real(fn, seen[-1], *args)

    monkeypatch.setattr(apsa.textindex, "_CHUNK", 3)
    monkeypatch.setattr(apsa.textindex, "run_until", counted)
    assert progression_holds(codes, perm)
    assert [len(tasks) for tasks in seen] == [-(-13 // 3) + -(-7 // 3)]
