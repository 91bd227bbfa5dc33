"""Property tests: every closed-form builder against the suffix-array oracle,
and every numpy oracle against its pure-Python or brute-force counterpart.

Progressions go up to n = 3000, so both oracle paths (a sort by the suffix
definition below textindex._NUMPY_THRESHOLD, the numpy kernel from there on)
are exercised.  The CLI's records are checked against their key=value
contract.  Examples are derandomized so the suite stays deterministic.
"""

import contextlib
import io
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apsa.christoffel import christoffel_word
from apsa.cli import main
from apsa.core import APPerm, ap_array, ap_detect, ap_materialize
from apsa.corpus import entry_text_bytes, predicted_bwt_runs
from apsa.lyndonlab import balanced2_factorization, balanced_via_bwt, is_balanced, is_balanced2
from apsa.synthesis import (
    _split_boundaries,
    _text_codes,
    classify,
    required_splits,
    synth,
    synth_general,
)
from apsa.textindex import (
    _doubling_small,
    bwt_from_matrix,
    bwt_from_sa,
    bwt_runs,
    inverse_sa,
    suffix_array,
)

from helpers import balanced2_cuts_reference, balanced2_tree_cuts, naive_matrix_bwt

MAX_N = 3000

bounded = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def ap_perms(draw, max_n=MAX_N):
    n = draw(st.one_of(st.integers(1, 2047), st.integers(2048, max_n)))
    if n == 1:
        return APPerm(1, 1, 1)
    k = draw(st.integers(1, n - 1).filter(lambda k: gcd(k, n) == 1))
    return APPerm(n, k, draw(st.integers(1, n)))


@st.composite
def perms_with_free_splits(draw):
    """A progression plus distinct free split values, up to 45 of them."""
    perm = draw(ap_perms())
    allowed = sorted(set(range(1, perm.n + 1)) - required_splits(perm) - {perm.last})
    count = draw(st.integers(0, min(45, len(allowed))))
    free = []
    if count:
        free = draw(st.lists(st.sampled_from(allowed), min_size=count, max_size=count, unique=True))
    sigma = classify(perm)[1] + len(free) + draw(st.integers(0, 2))
    return perm, sigma, free


def check_p_s(text, sa, p_s):
    """p_s starts the largest suffix whose first character is the smallest one."""
    smallest = min(text)
    assert p_s == sa[text.count(smallest) - 1]


@bounded
@given(ap_perms())
def test_synth_round_trip(perm):
    result = synth(perm)
    sa = suffix_array(result.text).sa
    assert sa == tuple(ap_materialize(perm))
    check_p_s(result.text, sa, result.p_s)


@bounded
@given(perms_with_free_splits())
def test_synth_general_round_trip(case):
    perm, sigma, free = case
    result = synth_general(perm, sigma, free)
    text = result.text
    assert len(text) == perm.n
    assert len(set(text)) == classify(perm)[1] + len(free)
    sa = suffix_array(text).sa
    assert sa == tuple(ap_materialize(perm))
    check_p_s(text, sa, result.p_s)
    assert bwt_runs(perm, result.split.boundaries) == bwt_from_sa(text, sa).runs


@bounded
@given(ap_perms())
def test_corpus_builders_match_synthesis(perm):
    text = synth(perm).text
    assert entry_text_bytes(perm).decode() == text
    assert predicted_bwt_runs(perm) == bwt_from_sa(text).runs


def random_text(rnd, n, alphabet):
    return "".join(rnd.choice(alphabet) for _ in range(n))


@st.composite
def long_texts(draw):
    """Texts of 2048..4000 characters, the numpy kernel's range.

    Small alphabets give the widest packed keys; periodic and progressed
    texts need the most doubling rounds; thousands of distinct characters,
    most above U+FFFF, shrink the packed key to five characters.
    """
    rnd = random.Random(draw(st.integers(0, 2**32)))
    n = rnd.randint(2048, 4000)
    kind = draw(st.sampled_from(["letters", "periodic", "progressed", "wide"]))
    if kind == "letters":
        return random_text(rnd, n, "abcde"[: rnd.randint(1, 5)])
    if kind == "periodic":
        word = random_text(rnd, rnd.randint(1, 40), "abc")
        return (word * (n // len(word) + 1))[:n]
    if kind == "progressed":
        k = rnd.choice([k for k in range(1, n) if gcd(k, n) == 1])
        return synth(APPerm(n, k, rnd.randint(1, n))).text
    alphabet = [chr(0x10000 + 7 * i) for i in range(rnd.randint(2, n))] + ["a", "\uffff"]
    return random_text(rnd, n, alphabet)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(long_texts())
def test_packed_kernel_matches_pure_python_doubling(text):
    want = tuple(i + 1 for i in _doubling_small([ord(c) for c in text]))
    assert suffix_array(text).sa == want


@st.composite
def binary_words(draw):
    """Binary words up to 300 characters, balanced ones included on purpose."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["random", "christoffel", "perturbed"]))
    if kind == "random":
        return random_text(rnd, draw(st.integers(1, 300)), "ab")
    p = draw(st.integers(1, 150))
    q = draw(st.integers(1, 150).filter(lambda q: gcd(p, q) == 1))
    word = christoffel_word(p, q) * draw(st.integers(1, max(1, 300 // (p + q))))
    shift = rnd.randrange(len(word))
    word = word[shift:] + word[:shift]
    if kind == "perturbed":
        i = rnd.randrange(len(word))
        word = word[:i] + ("a" if word[i] == "b" else "b") + word[i + 1 :]
    return word


@bounded
@given(binary_words())
def test_is_balanced_matches_bwt_clustering(word):
    assert is_balanced(word) == balanced_via_bwt(word)


@st.composite
def balanced2_candidates(draw):
    """Words over 1-4 letters up to 40 characters, lower Christoffel words up
    to p + q = 300, and those words with one letter changed."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["random", "christoffel", "near_miss"]))
    if kind == "random":
        alphabet = "abcd"[: draw(st.integers(1, 4))]
        return random_text(rnd, draw(st.integers(1, 40)), alphabet)
    n = draw(st.integers(1, 300))
    p = draw(st.integers(0, n).filter(lambda p: gcd(p, n - p) == 1))
    word = christoffel_word(p, n - p)
    if kind == "near_miss":
        i = rnd.randrange(n)
        word = word[:i] + rnd.choice([c for c in "abc" if c != word[i]]) + word[i + 1 :]
    return word


@bounded
@given(balanced2_candidates())
def test_balanced2_matches_recursive_reference(word):
    want = balanced2_cuts_reference(word)
    assert is_balanced2(word) == (want is not None)
    if want is not None:
        assert balanced2_tree_cuts(balanced2_factorization(word)) == want


@st.composite
def cyclic_texts(draw):
    """Texts up to 300 characters, many of them powers such as (ab)^m."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    alphabet = "abcd"[: draw(st.integers(1, 4))]
    root = random_text(rnd, draw(st.integers(1, 12)), alphabet)
    if draw(st.booleans()):
        return root * draw(st.integers(1, 300 // len(root)))
    return random_text(rnd, draw(st.integers(1, 300)), alphabet)


@bounded
@given(cyclic_texts())
def test_cyclic_matrix_bwt_matches_brute_force(text):
    assert bwt_from_matrix(text).chars == naive_matrix_bwt(text)


@bounded
@given(cyclic_texts())
def test_bwt_from_sa_takes_any_integer_sequence(text):
    sa = suffix_array(text).sa
    want = "".join(text[p - 2] for p in sa)  # text[-1] precedes position 1
    for given_sa in (list(sa), sa, np.array(sa), np.array(sa, dtype=np.uint32)):
        assert bwt_from_sa(text, given_sa).chars == want
    assert bwt_from_sa(text).chars == want


@bounded
@given(ap_perms(), st.data())
def test_ap_array_ranges_are_slices(perm, data):
    start = data.draw(st.integers(0, perm.n))
    stop = data.draw(st.integers(start, perm.n))
    assert np.array_equal(ap_array(perm, start, stop), ap_array(perm)[start:stop])


@bounded
@given(st.data())
def test_ap_array_matches_python_ints_across_blocks(data):
    """Ranges a few blocks long, n up to the int64 guard, against Python integers."""
    import apsa.core as core

    n = data.draw(st.one_of(st.integers(1, 200), st.integers(2**31, 2**63 - 1)))
    if n == 1:
        perm = APPerm(1, 1, 1)
    else:
        top = min(n - 1, (2**63 - 2) // (n - 1))  # (n - 1)*k + p1 must fit in int64
        k = data.draw(st.integers(1, top).filter(lambda k: gcd(k, n) == 1))
        perm = APPerm(n, k, data.draw(st.integers(1, min(n, 2**63 - 1 - (n - 1) * k))))
    block = data.draw(st.sampled_from([1, 2, 3, 7, 64, core._BLOCK]))
    start = data.draw(st.integers(0, n))
    length = block * data.draw(st.integers(0, 4)) + data.draw(st.integers(0, block + 1))
    stop = min(start + length, n)
    want = [(perm.p1 - 1 + i * perm.k) % n + 1 for i in range(start, stop)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK", block)
        assert ap_array(perm, start, stop).tolist() == want


@bounded
@given(perms_with_free_splits(), st.data())
def test_text_code_ranges_are_slices(case, data):
    perm, _, free = case
    boundaries = _split_boundaries(perm, required_splits(perm).union(free))
    start = data.draw(st.integers(0, perm.n))
    stop = data.draw(st.integers(start, perm.n))
    whole = _text_codes(perm, boundaries)
    assert np.array_equal(_text_codes(perm, boundaries, start, stop), whole[start:stop])
    assert np.array_equal(_text_codes(perm, boundaries, start), whole[start:])


@bounded
@given(perms_with_free_splits(), st.data())
def test_tiled_text_codes_match_the_isa_route(case, data):
    """Single rows built from one period, on both sides of n/2, against the matrix route."""
    import apsa.synthesis as synthesis

    perm, _, free = case
    boundaries = _split_boundaries(perm, required_splits(perm).union(free))
    n, q = perm.n, min(perm.k, perm.n - perm.k)
    length = data.draw(st.sampled_from([q - 1, q, q + 1, 2 * q + 3, n]).filter(lambda size: 0 <= size <= n))
    start = data.draw(st.integers(0, n - length))
    whole = _text_codes(perm, [boundaries])[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthesis, "_TILE_MIN", 0)
        got = _text_codes(perm, boundaries, start, start + length)
    assert got.tobytes() == whole[start : start + length].tobytes()


@st.composite
def permutations_with_a_defect(draw):
    """A permutation of 1..n (n <= 200) as a list, tuple or array, with at most one defect.

    The defects: a duplicate, 0-based values, n + 1 in place of an entry, and
    True or a float in place of the entry of equal value, which leaves the
    numbers a permutation.  Bools go into lists only, since an array would
    turn them into ints.
    """
    n = draw(st.integers(1, 200))
    values = draw(st.permutations(range(1, n + 1)))
    defect = draw(st.sampled_from(["none", "duplicate", "zero-based", "n+1", "bool", "float"]))
    i = draw(st.integers(0, n - 1))
    if defect == "duplicate" and n > 1:
        values[i] = values[i - 1]
    elif defect == "zero-based":
        values = [v - 1 for v in values]
    elif defect == "n+1":
        values[i] = n + 1
    elif defect == "bool":
        values[values.index(1)] = True
    elif defect == "float":
        values[i] = float(values[i])
    else:
        defect = "none"
    form = draw(st.sampled_from([list, tuple] if defect == "bool" else [list, tuple, np.array]))
    return form(values), defect


@bounded
@given(permutations_with_a_defect())
def test_one_permutation_check_behind_inverse_sa_bwt_from_sa_and_ap_detect(case):
    values, defect = case
    n = len(values)
    try:
        inverse = inverse_sa(values)
    except ValueError:
        inverse = None
    try:
        bwt_from_sa("a" * n, values)
        refused = False
    except ValueError as exc:
        refused = "not a permutation" in str(exc)
    assert (inverse is None) == refused == (defect != "none")
    detected = ap_detect(values)
    if defect != "none":
        assert detected is None
    else:
        assert inverse_sa(inverse) == list(values)
        assert detected is None or ap_array(detected).tolist() == list(values)


@st.composite
def synth_argvs(draw):
    """`apsa synth` for a progression with n <= 200, half of them with --sigma and --splits."""
    n = draw(st.integers(1, 200))
    k = draw(st.integers(1, max(n - 1, 1)).filter(lambda k: gcd(k, n) == 1))
    perm = APPerm(n, k, draw(st.integers(1, n)))
    argv = ["synth", "-n", str(n), "-k", str(k), "--p1", str(perm.p1)]
    if draw(st.booleans()):
        allowed = sorted(set(range(1, n + 1)) - required_splits(perm) - {perm.last})
        free = draw(st.lists(st.sampled_from(allowed), max_size=45, unique=True)) if allowed else []
        argv += ["--sigma", str(classify(perm)[1] + len(free) + draw(st.integers(0, 2)))]
        argv += ["--splits", ",".join(map(str, free))] if free else []
    return argv


def cli_record(argv):
    """The record `apsa argv` prints, as a dict, once it is checked as one line of key=value tokens."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    line = out.getvalue()
    assert line.endswith("\n") and "\n" not in line[:-1], argv
    pairs = [token.split("=", 1) for token in line[:-1].split(" ")]
    assert all(len(pair) == 2 and pair[0].isidentifier() for pair in pairs), line
    record = dict(pairs)
    assert len(record) == len(pairs), line  # keys are unique
    assert not {"", "None", "True", "False"} & set(record.values()), line
    return record


@bounded
@given(synth_argvs(), st.tuples(st.integers(0, 200), st.integers(0, 200)).filter(lambda pq: gcd(*pq) == 1))
def test_cli_records_are_key_value_lines(argv, pq):
    text = cli_record(argv)["text"]
    assert cli_record(["classify", text])["ap"] == "true"
    assert cli_record(["christoffel", "-p", str(pq[0]), "-q", str(pq[1])])["n"] == str(sum(pq))
