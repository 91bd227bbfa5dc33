"""Lower Christoffel words, their suffix arrays, BWT shape, and lattice geometry.

A lower Christoffel word for coprime (p, q) traces the staircase path from
(0, 0) to (p, q) just below the connecting segment: 'a' is a unit step right,
'b' a unit step up, and no lattice point lies strictly between path and
segment.  Every exported index follows the package's 1-based convention.

The suffix array of a lower Christoffel word is arithmetically progressed
with first entry 1 and ratio q^{-1} mod n (n = p + q), its BWT is b^q a^p,
and its split index equals p.  So for p, q >= 1 the word is the binary3
synthesis of that progression and its BWT the closed-form prediction.  The
Cayley-graph form (character i is 'a' exactly when (i-1)q < iq, both taken
as plain 0-based residues mod n) is the tests' independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .core import APPerm, _entry, canonical_residue, mod_inverse
from .errors import DegenerateSlopeError, NotCoprimeError
from .synthesis import synth_binary
from .textindex import BwtProfile, _codes_of, _doubling_numpy, bwt_predict

__all__ = [
    "ChristoffelParams",
    "LatticePath",
    "christoffel_word",
    "christoffel_upper",
    "christoffel_sa_params",
    "christoffel_bwt",
    "christoffel_path",
    "factorization_index",
    "closest_path_point",
    "bwt_matrix_adjacent_diffs",
    "adjacent_diff_columns",
]


@dataclass(frozen=True)
class ChristoffelParams:
    """Coprime step counts: p moves along x ('a'), q along y ('b')."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("step counts must be nonnegative")
        if math.gcd(self.p, self.q) != 1:
            raise NotCoprimeError(f"({self.p}, {self.q}) must be coprime")

    @property
    def n(self) -> int:
        return self.p + self.q


@dataclass(frozen=True)
class LatticePath:
    """Vertices of a staircase path, from (0, 0) to (p, q)."""

    points: tuple[tuple[int, int], ...]


def christoffel_word(p: int, q: int) -> str:
    """The lower Christoffel word with slope q/p, a Lyndon word of length p + q."""
    ChristoffelParams(p, q)
    if p == 0 or q == 0:
        return "a" * p + "b" * q
    return synth_binary(christoffel_sa_params(p, q)).text


def christoffel_upper(p: int, q: int) -> str:
    """The upper Christoffel word: the reversal of the lower one."""
    return christoffel_word(p, q)[::-1]


def _positive_slope(p: int, q: int) -> ChristoffelParams:
    params = ChristoffelParams(p, q)
    if p == 0 or q == 0:
        raise DegenerateSlopeError("both step counts must be positive here")
    return params


def christoffel_sa_params(p: int, q: int) -> APPerm:
    """Suffix-array descriptor of the lower Christoffel word: (p+q, q^{-1}, 1)."""
    params = _positive_slope(p, q)
    n = params.n
    return APPerm(n, mod_inverse(q, n), 1)


def christoffel_bwt(p: int, q: int) -> BwtProfile:
    """Predicted BWT shape b^q a^p."""
    return bwt_predict(christoffel_sa_params(p, q))


def christoffel_path(p: int, q: int) -> LatticePath:
    """The staircase path induced by the word; stays weakly below the segment."""
    xs = accumulate((ch == "a" for ch in christoffel_word(p, q)), initial=0)
    return LatticePath(tuple((x, i - x) for i, x in enumerate(xs)))


def factorization_index(p: int, q: int) -> int:
    """Length of the left factor of the coinciding two-way factorization.

    Computable in O(1) from the progression: with split index s = p, the
    answer is suffix-array entry (s + 2) reduced into [1..n].  For n = 2 the
    only split is after the first character.
    """
    perm = christoffel_sa_params(p, q)
    return _entry(perm, canonical_residue(p + 2, perm.n))


def closest_path_point(p: int, q: int) -> int:
    """Prefix length whose path vertex is nearest to the segment, interior only.

    Distance of vertex (x, y) to the segment is |qx - py| / sqrt(p^2 + q^2);
    the integer numerator is minimized.  The minimizing vertex is unique and
    coincides with :func:`factorization_index`.
    """
    params = _positive_slope(p, q)
    points = christoffel_path(p, q).points
    return min(range(1, params.n), key=lambda i: abs(q * points[i][0] - p * points[i][1]))


def adjacent_diff_columns(n: int, k: int, i: int) -> tuple[int, int]:
    """Predicted columns (1-based) where rotation-matrix rows i and i+1 differ."""
    c = canonical_residue(i * (n - k), n)
    return c, canonical_residue(c + 1, n)


def bwt_matrix_adjacent_diffs(word: str) -> list[tuple[int, int]]:
    """All (row, column) positions where adjacent sorted-rotation rows differ.

    Row i is the i-th rotation in sorted order, equal rotations by start
    position, and a slice of the codes of word + word, so rows are compared
    two at a time in O(n) memory.
    For a lower Christoffel word each adjacent pair differs in exactly two
    consecutive columns, at i(n-k) mod n and the next; for other inputs the
    raw difference positions are returned and the caller judges the pattern.
    """
    n = len(word)
    if n < 2:
        raise ValueError("need at least two rotations to compare")
    doubled = _codes_of(word + word)
    starts = _doubling_numpy(doubled[:n]).tolist()
    diffs = []
    for i, (a, b) in enumerate(zip(starts, starts[1:]), start=1):
        columns = (doubled[a : a + n] != doubled[b : b + n]).nonzero()[0] + 1
        diffs += [(i, j) for j in columns.tolist()]
    return diffs
