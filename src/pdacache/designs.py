"""Row index matrices, orthogonal/covering array checks, and the explicit
OA constructions used as inputs to the PDA framework."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import BadStrength, LengthMismatch


def hamming_distance(a, b):
    """Number of coordinates where a and b differ."""
    if len(a) != len(b):
        raise LengthMismatch(f"lengths {len(a)} and {len(b)} differ")
    return sum(x != y for x, y in zip(a, b))


def weight(a):
    """Number of nonzero coordinates."""
    return sum(x != 0 for x in a)


@dataclass(frozen=True)
class RowIndexMatrix:
    """F x m matrix over [0, q); its rows index the rows of a PDA."""

    rows: tuple
    m: int
    q: int

    def __post_init__(self):
        for r in self.rows:
            if len(r) != self.m:
                raise LengthMismatch(f"row {r} does not have length {self.m}")
            if any(not 0 <= x < self.q for x in r):
                raise ValueError(f"row {r} has entries outside [0, {self.q})")

    @property
    def nrows(self):
        return len(self.rows)


def matrix_from_rows(rows, m, q):
    return RowIndexMatrix(tuple(tuple(r) for r in rows), m, q)


@dataclass(frozen=True)
class OaCheckResult:
    """Outcome of an orthogonal array check.

    On failure, ``witness`` is a (column subset, tuple, count) triple showing
    a tuple that does not occur the uniform number of times.
    """

    is_oa: bool
    lam: int | None
    witness: tuple | None

    def __bool__(self):
        return self.is_oa


@dataclass(frozen=True)
class CaCheckResult:
    is_ca: bool
    witness: tuple | None  # (column subset, missing/undercounted tuple, count)

    def __bool__(self):
        return self.is_ca


def _first_bad_projection(matrix, s, bad):
    """First (column subset, tuple, count) over all s-column projections
    whose count satisfies ``bad``, or None."""
    if not 1 <= s <= matrix.m:
        raise BadStrength(f"strength {s} outside [1, {matrix.m}]")
    for sub in itertools.combinations(range(matrix.m), s):
        counts = Counter(tuple(r[i] for i in sub) for r in matrix.rows)
        for tup in itertools.product(range(matrix.q), repeat=s):
            if bad(counts[tup]):
                return sub, tup, counts[tup]
    return None


def is_oa(matrix, s):
    """Check whether every s-column projection contains each s-tuple the
    same number of times (= F / q^s)."""
    F, n_tuples = matrix.nrows, matrix.q**s
    witness = _first_bad_projection(matrix, s, lambda n: n * n_tuples != F)
    return OaCheckResult(witness is None, None if witness else F // n_tuples, witness)


def is_ca(matrix, s, lam=1):
    """Check whether every s-column projection contains each s-tuple at
    least lam times."""
    if lam < 1:
        raise ValueError("lam must be >= 1")
    witness = _first_bad_projection(matrix, s, lambda n: n < lam)
    return CaCheckResult(witness is None, witness)


def oa_trivial(m, q):
    """The strength-(m-1) orthogonal array whose last coordinate is the sum
    (mod q) of the free prefix; rows in lexicographic order of the prefix."""
    if m < 2 or q < 2:
        raise ValueError("need m >= 2 and q >= 2")
    rows = []
    for prefix in itertools.product(range(q), repeat=m - 1):
        rows.append(prefix + (sum(prefix) % q,))
    return RowIndexMatrix(tuple(rows), m, q)


def oa_from_mds(code):
    """Row index matrix whose rows are the codewords in generation order.

    Any k coordinates of an [m, k] MDS code determine the codeword, so the
    result is an OA(m, q, k) with index 1.
    """
    return RowIndexMatrix(code.codewords, code.m, code.q)


def full_grid(m, q):
    """All of [0, q)^m in lexicographic order."""
    return RowIndexMatrix(tuple(itertools.product(range(q), repeat=m)), m, q)
