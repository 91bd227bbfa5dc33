"""Modular arithmetic on 1-based residues and arithmetically progressed permutations.

Every public index and residue in this package is 1-based: the canonical
representative of x modulo n lies in [1..n], so a multiple of n reduces to n,
not 0.  All modular reduction funnels through :func:`canonical_residue` so the
convention lives in exactly one place.

An arithmetically progressed permutation of [1..n] steps by a constant ratio k
modulo n, including the wrap from the last entry back to the first.  Such a
permutation exists only when gcd(k, n) = 1, and is fully described by the
triple (n, k, first entry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import NotCoprimeError

__all__ = [
    "APPerm",
    "canonical_residue",
    "mod_inverse",
    "ap_array",
    "ap_materialize",
    "ap_detect",
    "ap_inverse",
    "ap_rotate",
    "ap_position_of",
]


def canonical_residue(x: int, n: int) -> int:
    """Reduce x to the unique representative in [1..n] congruent to x mod n."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    r = x % n
    return r if r else n


def mod_inverse(k: int, n: int) -> int:
    """Multiplicative inverse of k modulo n, as a residue in [1..n]."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if math.gcd(k, n) != 1:
        raise NotCoprimeError(f"{k} has no inverse modulo {n}")
    return canonical_residue(pow(k, -1, n), n)


@dataclass(frozen=True)
class APPerm:
    """Descriptor (n, k, p1) of an arithmetically progressed permutation.

    n is the length, k the ratio in [1..n-1] (k = 1 for the degenerate n = 1),
    and p1 the first entry.  gcd(k, n) = 1 is enforced on construction.
    """

    n: int
    k: int
    p1: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"length must be positive, got {self.n}")
        if not 1 <= self.p1 <= self.n:
            raise ValueError(f"first entry {self.p1} outside [1..{self.n}]")
        if self.n == 1:
            if self.k != 1:
                raise ValueError("the singleton permutation has ratio 1")
            return
        if not 1 <= self.k <= self.n - 1:
            raise ValueError(f"ratio {self.k} outside [1..{self.n - 1}]")
        if math.gcd(self.k, self.n) != 1:
            raise NotCoprimeError(
                f"k and n must be coprime, got ratio {self.k} and length {self.n}"
            )

    @property
    def k_inverse(self) -> int:
        """Inverse of the ratio modulo n, in [1..n]."""
        return mod_inverse(self.k, self.n)

    @property
    def last(self) -> int:
        """The final entry, one ratio step before the first."""
        return _entry(self, self.n)

    @property
    def is_reversal(self) -> bool:
        """True when the permutation materializes to [n, n-1, ..., 1]."""
        return self.n == 1 or (self.p1 == self.n and self.k == self.n - 1)


# Entries per block of ap_array: 256 KiB of int64, small enough to stay in cache.
_BLOCK = 1 << 15


def _check_int64(perm: APPerm) -> None:
    """Raise ValueError when (n - 1)*k + p1, the largest product, exceeds int64."""
    if (perm.n - 1) * perm.k + perm.p1 > np.iinfo(np.int64).max:
        raise ValueError(
            f"progression n={perm.n}, ratio {perm.k}, first entry {perm.p1}"
            " overflows int64 arithmetic"
        )


def _check_range(perm: APPerm, start: int, stop: Optional[int]) -> int:
    """stop, n when None; raise ValueError unless 0 <= start <= stop <= n."""
    stop = perm.n if stop is None else stop
    if not 0 <= start <= stop <= perm.n:
        raise ValueError(f"range [{start}, {stop}) is not inside [0, {perm.n}]")
    return stop


def ap_array(perm: APPerm, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
    """Entries [start, stop) of the permutation as an int64 vector.

    Entry i (0-based) is (p1 - 1 + i*k) mod n + 1; stop defaults to n.  Raises
    ValueError, before allocating anything, when the range is not inside [0, n]
    or (n - 1)*k + p1 does not fit in int64, since the products would wrap
    silently.  Applied to :func:`ap_inverse` it yields the inverse suffix array.

    The first _BLOCK entries take a multiply and a modulo each.  Every later
    block is that first block plus a*k mod n, a being its offset from start:
    both terms lie below n, so a subtraction of n, written into the next,
    still unused block, and a minimum reduce the sum without a division.
    The last block or two, with less room after them than their own size,
    take a modulo.  A range of at most _BLOCK entries is the first block
    alone.  The output comes from np.empty; only the first block comes from
    an arange, and no other array has the output's length.
    """
    n, k = perm.n, perm.k
    _check_int64(perm)
    out = np.empty(_check_range(perm, start, stop) - start, dtype=np.int64)
    head = out[:_BLOCK]
    np.multiply(np.arange(start, start + head.size, dtype=np.int64), k, out=head)
    head += perm.p1 - 1
    head %= n
    # uint64 views: sums reach 2n - 2, past int64 when n > 2**62
    u, h = out.view(np.uint64), head.view(np.uint64)
    for a in range(_BLOCK, u.size, _BLOCK):
        block = u[a : a + _BLOCK]
        spill = u[a + _BLOCK : a + 2 * _BLOCK]
        np.add(h[: block.size], a * k % n, out=block)
        if spill.size < block.size:
            block %= n
        else:
            np.subtract(block, n, out=spill)  # wraps where the sum is below n
            np.minimum(block, spill, out=block)
        block += 1
    head += 1
    return out


def ap_materialize(perm: APPerm) -> list[int]:
    """Expand the descriptor into the full permutation array."""
    return ap_array(perm).tolist()


def ap_detect(values: Iterable[int]) -> Optional[APPerm]:
    """Recognize an arithmetically progressed permutation, if the array is one.

    Accepts any sequence, iterable or array of integers, Python or numpy.
    Returns the (n, k, p1) descriptor, or None for anything else: bools,
    floats and other non-integers, arrays that are not permutations of
    [1..n], or permutations whose successive differences are not constant
    modulo n.  Checking the n-1 adjacent differences suffices because the
    cyclic wrap difference is forced (the n cyclic differences sum to 0
    modulo n).
    """
    if not isinstance(values, np.ndarray):
        if not isinstance(values, Sequence):
            values = list(values)
        # numpy would turn bools mixed with ints into ints
        if not {bool, np.bool_}.isdisjoint(map(type, values)):
            return None
    seq = np.asarray(values)
    n = seq.size
    if seq.ndim != 1 or n == 0 or seq.dtype.kind not in "iu":
        return None
    if seq.min() < 1 or seq.max() > n:
        return None
    seq = seq.astype(np.int64, copy=False)
    if np.bincount(seq, minlength=n + 1).max() > 1:
        return None
    if n == 1:
        return APPerm(1, 1, 1)
    steps = np.diff(seq)
    steps %= n
    k = int(steps[0])
    if math.gcd(k, n) != 1 or not (steps == k).all():
        return None
    return APPerm(n, k, int(seq[0]))


def ap_inverse(perm: APPerm) -> APPerm:
    """Descriptor of the elementwise inverse permutation.

    The inverse progresses with the inverse ratio, and its first entry is
    the index at which P holds the value 1.
    """
    return APPerm(perm.n, perm.k_inverse, ap_position_of(perm, 1))


def ap_rotate(perm: APPerm, m: int) -> APPerm:
    """Descriptor of the m-th left rotation of the materialized permutation."""
    if not 0 <= m < perm.n:
        raise ValueError(f"rotation amount {m} outside [0..{perm.n - 1}]")
    return APPerm(perm.n, perm.k, _entry(perm, m + 1))


def ap_position_of(perm: APPerm, value: int) -> int:
    """Index i (1-based) with materialized entry i equal to the given value."""
    if not 1 <= value <= perm.n:
        raise ValueError(f"value {value} outside [1..{perm.n}]")
    return canonical_residue((value - perm.p1) * perm.k_inverse + 1, perm.n)


def _entry(perm: APPerm, i):
    """Entry i (1-based) of P, (p1 - 1 + (i - 1)*k) mod n + 1, for an int or an int64 array."""
    return (perm.p1 - 1 + (i - 1) * perm.k) % perm.n + 1
