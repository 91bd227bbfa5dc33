import numpy as np
import pytest

from apsa.core import (
    APPerm,
    _entry,
    ap_array,
    ap_detect,
    ap_inverse,
    ap_materialize,
    ap_position_of,
    ap_rotate,
    canonical_residue,
    mod_inverse,
)
from apsa.errors import NotCoprimeError

from helpers import coprimes, iter_ap_perms


@pytest.mark.parametrize(
    "x, n, expected",
    [
        (0, 8, 8),
        (8, 8, 8),
        (-15, 8, 1),
        (1, 1, 1),
        (17, 8, 1),
        (-8, 8, 8),
    ],
)
def test_canonical_residue(x, n, expected):
    assert canonical_residue(x, n) == expected


def test_canonical_residue_rejects_bad_modulus():
    with pytest.raises(ValueError):
        canonical_residue(3, 0)
    with pytest.raises(ValueError):
        canonical_residue(3, -2)


@pytest.mark.parametrize(
    "k, n, expected",
    [
        (5, 8, 5),
        (1, 5, 1),
        (3, 8, 3),
        (1, 1, 1),
        (2, 5, 3),
    ],
)
def test_mod_inverse(k, n, expected):
    assert mod_inverse(k, n) == expected
    assert canonical_residue(k * expected, n) == canonical_residue(1, n)


def test_mod_inverse_exhaustive_small():
    for n in range(2, 40):
        for k in range(1, n):
            if k in coprimes(n):
                inv = mod_inverse(k, n)
                assert (k * inv) % n == 1
                assert mod_inverse(inv, n) == k  # involution on its image
            else:
                with pytest.raises(NotCoprimeError):
                    mod_inverse(k, n)


@pytest.mark.parametrize(
    "perm, expected",
    [
        (APPerm(8, 5, 5), [5, 2, 7, 4, 1, 6, 3, 8]),
        (APPerm(8, 5, 1), [1, 6, 3, 8, 5, 2, 7, 4]),
        (APPerm(4, 3, 4), [4, 3, 2, 1]),
        (APPerm(1, 1, 1), [1]),
    ],
)
def test_ap_materialize(perm, expected):
    assert ap_materialize(perm) == expected


def test_apperm_rejects_non_coprime_ratio():
    with pytest.raises(NotCoprimeError):
        APPerm(8, 4, 1)


@pytest.mark.parametrize(
    "array, expected",
    [
        ([5, 2, 7, 4, 1, 6, 3, 8], APPerm(8, 5, 5)),
        ([4, 2, 3, 1], None),
        ([1], APPerm(1, 1, 1)),
        ([1, 2, 2], None),
        ([2, 3, 4], None),  # not a permutation of [1..3]
        ([1, 2, 3, 4], APPerm(4, 1, 1)),
    ],
)
def test_ap_detect(array, expected):
    assert ap_detect(array) == expected


def test_ap_detect_accepts_numpy_integers():
    perm = APPerm(8, 5, 5)
    assert ap_detect(ap_array(perm)) == perm
    assert ap_detect(ap_array(perm).astype(np.uint8)) == perm
    assert ap_detect(tuple(ap_array(perm))) == perm  # numpy scalars in a tuple
    assert ap_detect(iter(ap_materialize(perm))) == perm


@pytest.mark.parametrize(
    "values",
    [
        [True],
        np.array([True]),
        [2, True],
        [np.True_, 2],
        [1.0],
        [2.0, 1.0],
        np.array([5.0, 2.0, 7.0, 4.0, 1.0, 6.0, 3.0, 8.0]),
        ["1"],
        [[1]],
    ],
)
def test_ap_detect_rejects_bools_and_non_integers(values):
    assert ap_detect(values) is None


def test_detect_materialize_round_trip():
    for n in range(1, 33):
        for perm in iter_ap_perms(n):
            assert ap_detect(ap_materialize(perm)) == perm


def test_non_coprime_ratio_never_detected():
    # The only arrays with constant adjacent difference k are orbits of the
    # recurrence; when gcd(k, n) > 1 every orbit repeats values, so nothing
    # can pass the permutation check.
    for n in range(2, 65):
        for k in range(1, n):
            if k in coprimes(n):
                continue
            for p1 in range(1, n + 1):
                arr = [p1]
                for _ in range(n - 1):
                    arr.append(canonical_residue(arr[-1] + k, n))
                assert ap_detect(arr) is None


@pytest.mark.parametrize(
    "perm, expected",
    [
        (APPerm(8, 5, 1), APPerm(8, 5, 1)),
        (APPerm(5, 2, 1), APPerm(5, 3, 1)),
        (APPerm(4, 3, 4), APPerm(4, 3, 4)),
    ],
)
def test_ap_inverse_examples(perm, expected):
    assert ap_inverse(perm) == expected


def test_ap_inverse_is_elementwise_inverse():
    for n in range(1, 33):
        for perm in iter_ap_perms(n):
            p = ap_materialize(perm)
            q = ap_materialize(ap_inverse(perm))
            assert all(q[p[i] - 1] == i + 1 for i in range(n))


@pytest.mark.parametrize(
    "perm, m, expected",
    [
        (APPerm(8, 5, 1), 3, APPerm(8, 5, 8)),
        (APPerm(8, 5, 5), 0, APPerm(8, 5, 5)),
        (APPerm(8, 5, 5), 1, APPerm(8, 5, 2)),
    ],
)
def test_ap_rotate(perm, m, expected):
    assert ap_rotate(perm, m) == expected
    p = ap_materialize(perm)
    assert ap_materialize(ap_rotate(perm, m)) == p[m:] + p[:m]


def test_ap_rotate_range_check():
    with pytest.raises(ValueError):
        ap_rotate(APPerm(8, 5, 5), 8)
    with pytest.raises(ValueError):
        ap_rotate(APPerm(8, 5, 5), -1)


def test_ap_position_of():
    for perm in (APPerm(8, 5, 5), APPerm(12, 5, 1), APPerm(7, 3, 2), APPerm(1, 1, 1)):
        p = ap_materialize(perm)
        for i, v in enumerate(p, start=1):
            assert ap_position_of(perm, v) == i


def test_entry_matches_materialize():
    for n in range(1, 31):
        indices = np.arange(1, n + 1, dtype=np.int64)
        for perm in iter_ap_perms(n):
            p = ap_materialize(perm)
            assert [_entry(perm, i) for i in range(1, n + 1)] == p
            entries = _entry(perm, indices)
            assert entries.dtype == np.int64 and entries.tolist() == p


def test_ap_array_refuses_int64_overflow_before_allocating():
    import tracemalloc

    from apsa.core import ap_array

    # Both k and k^{-1} = 2666666671 push (n - 1) * ratio past 2**63 - 1.
    perm = APPerm(4000000007, 4000000004, 1)
    tracemalloc.start()
    try:
        for target in (perm, ap_inverse(perm)):
            with pytest.raises(ValueError, match="overflows int64"):
                ap_array(target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_ap_array_block_edges(monkeypatch, block):
    import apsa.core as core

    monkeypatch.setattr(core, "_BLOCK", block)
    for n in range(1, 41):
        ks = coprimes(n) or [1]
        for k, p1 in {(ks[0], n), (ks[len(ks) // 2], n // 2 + 1), (ks[-1], 1)}:
            perm = APPerm(n, k, p1)
            reference = [(p1 - 1 + i * k) % n + 1 for i in range(n)]
            for start in range(n + 1):
                for stop in range(start, n + 1):
                    got = ap_array(perm, start, stop)
                    assert got.dtype == np.int64
                    assert got.tolist() == reference[start:stop], (perm, start, stop)
