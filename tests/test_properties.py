"""Property tests: every closed-form builder against the suffix-array oracle.

Progressions go up to n = 3000, so both oracle paths (pure Python below
2048, numpy above) are exercised.  Examples are derandomized so the suite
stays deterministic.
"""

from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from apsa.core import APPerm, ap_materialize
from apsa.corpus import entry_text_bytes, predicted_bwt_runs
from apsa.synthesis import classify, required_splits, synth, synth_general
from apsa.textindex import bwt_from_sa, bwt_runs, suffix_array

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
