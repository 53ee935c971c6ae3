"""Row index matrices, orthogonal/covering array checks, and the explicit
OA constructions used as inputs to the PDA framework."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

from .errors import BadInput, BadLength, BadStrength, require_ints, require_type, require_within
from .gf import MdsCode

# The largest PDA, in cells F * K, that the scheme builders materialize, and
# the largest m, q, row count or column count a design helper accepts.
MAX_CELLS = 10**7


def check_sizes(m, q, what, count):
    """BadInput naming the first of m, q and count (the size ``what``, each
    exponent in it capped) above MAX_CELLS, before anything is built."""
    require_within(BadInput, "MAX_CELLS", MAX_CELLS, (f"m={m}", m), (f"q={q}", q), (what, count))


def capped(k):
    """k, at most the bit length b of MAX_CELLS: q**b for q >= 2 and C(n, b)
    for n >= 2b pass MAX_CELLS, so a count does exactly when it does capped."""
    return min(k, MAX_CELLS.bit_length())


def check_full_columns(m, t, q):
    """BadInput unless full_column_set(m, t, q) is well posed and fits check_sizes."""
    require_ints(BadInput, m=m, t=t, q=q)
    if not 0 < t <= m or q < 2:
        raise BadInput(f"need 0 < t <= m and q >= 2, got m={m}, t={t}, q={q}")
    count = math.comb(m, capped(min(t, m - t))) * q ** capped(t)
    check_sizes(m, q, f"C({m},{t})*{q}^{t} columns", count)


def within(values, stop):
    """Whether the ints of values all lie in [0, stop)."""
    values = set(values)
    return min(values, default=0) >= 0 and max(values, default=-1) < stop


def weight(a):
    """Number of nonzero coordinates of a sequence."""
    require_type(a, Sequence, "weight")
    return sum(x != 0 for x in a)


@dataclass(frozen=True)
class RowIndexMatrix:
    """F x m matrix over [0, q); its rows index the rows of a PDA."""

    rows: tuple
    m: int
    q: int

    def __post_init__(self):
        m, q, rows = self.m, self.q, self.rows
        require_ints(BadInput, 0, m=m, q=q)
        if type(rows) is not tuple:
            raise BadInput(f"need a tuple of tuple rows, got rows of type {type(rows).__name__}")
        check_sizes(m, q, f"{len(rows)} rows", len(rows))
        entries = partial(itertools.chain.from_iterable, rows)
        if (
            {tuple}.issuperset(map(type, rows))
            and {m}.issuperset(map(len, rows))
            and {int}.issuperset(map(type, entries()))
            and within(entries(), q)
        ):
            return
        # a whole-collection rule failed: name the first bad row
        for r in rows:
            if type(r) is not tuple:
                raise BadInput(f"row {r!r} is of type {type(r).__name__}, not a tuple")
            if len(r) != m:
                raise BadLength(f"row {r} does not have length {m}")
            if any(type(x) is not int or not 0 <= x < q for x in r):
                raise BadInput(f"row {r} has entries outside [0, {q})")

    @property
    def nrows(self):
        return len(self.rows)


def matrix_from_rows(rows, m, q):
    try:
        rows = tuple(map(tuple, rows))
    except TypeError as exc:
        raise BadInput(f"the rows must be an iterable of rows: {exc}") from exc
    return RowIndexMatrix(rows, m, q)


@dataclass(frozen=True)
class ArrayCheck:
    """Outcome of is_oa or is_ca: ``lam`` is an accepted OA's index, and a
    failure's ``witness`` is a (column subset, tuple, count) counted wrong."""

    ok: bool
    lam: int | None = None
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


def _first_bad_projection(matrix, s, bad):
    """First (column subset, tuple, count) over all s-column projections
    whose count satisfies ``bad``, or None; BadInput, before the walk, when
    the C(m, s) * q^s tuples to count exceed MAX_CELLS."""
    m, q = matrix.m, matrix.q
    if type(s) is not int or not 1 <= s <= m:
        raise BadStrength(f"strength {s} outside [1, {m}]")
    count = math.comb(m, capped(min(s, m - s))) * q ** capped(s)
    check_sizes(m, q, f"C({m},{s})*{q}^{s} projected tuples", count)
    for sub in itertools.combinations(range(m), s):
        counts = Counter(tuple(r[i] for i in sub) for r in matrix.rows)
        for tup in itertools.product(range(q), repeat=s):
            if bad(counts[tup]):
                return sub, tup, counts[tup]
    return None


def is_oa(matrix, s):
    """Check whether every s-column projection contains each s-tuple the
    same number of times (= F / q^s)."""
    require_type(matrix, RowIndexMatrix, "is_oa")
    F = matrix.nrows
    witness = _first_bad_projection(matrix, s, lambda n: n * matrix.q**s != F)
    return ArrayCheck(witness is None, None if witness else F // matrix.q**s, witness)


def is_ca(matrix, s, lam=1):
    """Check whether every s-column projection contains each s-tuple at
    least lam times."""
    require_type(matrix, RowIndexMatrix, "is_ca")
    require_ints(BadInput, 1, lam=lam)
    witness = _first_bad_projection(matrix, s, lambda n: n < lam)
    return ArrayCheck(witness is None, witness=witness)


def oa_trivial(m, q):
    """The strength-(m-1) orthogonal array whose last coordinate is the sum
    (mod q) of the free prefix; rows in lexicographic order of the prefix."""
    require_ints(BadInput, 2, m=m, q=q)
    check_sizes(m, q, f"{q}^{m - 1} rows", q ** capped(m - 1))
    rows = (prefix + (sum(prefix) % q,) for prefix in itertools.product(range(q), repeat=m - 1))
    return RowIndexMatrix(tuple(rows), m, q)


def oa_from_mds(code):
    """Row index matrix whose rows are the codewords in generation order.

    Any k coordinates of an [m, k] MDS code determine the codeword, so the
    result is an OA(m, q, k) with index 1.
    """
    require_type(code, MdsCode, "oa_from_mds")
    return RowIndexMatrix(code.codewords, code.m, code.q)


def full_grid(m, q):
    """All of [0, q)^m in lexicographic order."""
    require_ints(BadInput, 0, m=m)
    require_ints(BadInput, 2, q=q)
    check_sizes(m, q, f"{q}^{m} rows", q ** capped(m))
    return RowIndexMatrix(tuple(itertools.product(range(q), repeat=m)), m, q)
