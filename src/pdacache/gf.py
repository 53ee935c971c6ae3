"""Small finite fields GF(q) and extended Reed-Solomon MDS codes.

Elements of GF(p^k) are integers in [0, q): the base-p digits of an element
are the coefficients of its polynomial representation, least significant
digit first.  Arithmetic is table driven, which is plenty for q <= 41.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from .errors import BadInput, MdsUnavailable, UnsupportedField, require_ints, require_type

# Fixed monic irreducible reduction polynomials, low degree first.
# GF(4): x^2+x+1, GF(8): x^3+x+1, GF(9): x^2+1, GF(16): x^4+x+1,
# GF(25): x^2+x+1, GF(27): x^3+2x+1, GF(32): x^5+x^2+1.
_REDUCTION_POLYS = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (1, 1, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
}

# Every prime up to 41, taken as GF(p)[x]/(x), and the prime powers above.
SUPPORTED_ORDERS = frozenset(
    {p for p in range(2, 42) if all(p % d for d in range(2, p))} | _REDUCTION_POLYS.keys()
)


@dataclass(frozen=True)
class Field:
    """GF(q) with precomputed add/mul tables."""

    q: int
    p: int
    k: int
    reduction_poly: tuple | None
    _add: tuple = field(repr=False)
    _mul: tuple = field(repr=False)

    def add(self, a, b):
        return self._add[a][b]

    def mul(self, a, b):
        return self._mul[a][b]


def field_new(q):
    """Build GF(q) = GF(p)[x]/(poly) for a supported prime power q = p^k.

    A prime order is GF(p)[x]/(x), so every order takes one path: a sum is
    digit-wise mod p, and mul(a, b) is the sum of b_i times a * x^i.
    """
    if type(q) is not int or q not in SUPPORTED_ORDERS:
        raise UnsupportedField(f"q={q} is not in the supported set")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    poly = _REDUCTION_POLYS.get(q, (0, 1))
    k = len(poly) - 1
    digits = [tuple(a // p**i % p for i in range(k)) for a in range(q)]
    index = {d: a for a, d in enumerate(digits)}

    def combine(coeffs, elems):
        """The element whose digits are sum(c * e) mod p over (c, e) pairs."""
        return index[tuple(sum(map(operator.mul, coeffs, col)) % p for col in zip(*elems))]

    add = tuple(tuple(combine((1, 1), (da, db)) for db in digits) for da in digits)
    mul = []
    for da in digits:
        shifts = [da]  # shifts[i]: the digits of a * x^i
        for _ in range(k - 1):
            *low, c = shifts[-1]  # shift up; c carries out as -c * poly's low part
            shifts.append(tuple((d - c * r) % p for d, r in zip([0] + low, poly)))
        mul.append(tuple(combine(db, shifts) for db in digits))
    return Field(q, p, k, _REDUCTION_POLYS.get(q), add, tuple(mul))


@dataclass(frozen=True)
class MdsCode:
    """All codewords of an [m, k] extended Reed-Solomon code over GF(q)."""

    m: int
    k: int
    field: Field
    codewords: tuple

    @property
    def q(self):
        return self.field.q


def check_mds(q, m, k):
    """Raise MdsUnavailable unless an [m, k]_q extended RS code exists,
    and BadInput if q, m or k is not an int."""
    require_ints(BadInput, q=q, m=m, k=k)
    if not 1 <= k <= m:
        raise MdsUnavailable(f"need 1 <= k <= m, got k={k}, m={m}")
    if m > q + 1:
        raise MdsUnavailable(f"m={m} > q+1={q + 1}: no extended RS code")


def mds_generate(f, m, k):
    """Enumerate the q^k codewords of an [m, k]_q extended RS code.

    Evaluation points are the field elements 0..q-1 in order; when m = q+1
    the extra coordinate is msg[k-1], the leading coefficient (the classical
    single extension, a point with powers 0, ..., 0, 1).  Codewords come in
    lexicographic order of their messages, built one digit at a time.
    BadInput, before any is built, when the q^k * m cells exceed MAX_CELLS.
    """
    from . import designs  # designs imports gf; MAX_CELLS is read at call time

    require_type(f, Field, "mds_generate")
    q = f.q
    check_mds(q, m, k)
    designs.check_sizes(m, q, f"{q}^{k}*{m} codeword cells", q**k * m)

    # powers[j][i] = point_j ^ i, by repeated mul from point_j ^ 0 = 1
    powers = [list(itertools.accumulate([x] * (k - 1), f.mul, initial=1)) for x in range(min(m, q))]
    if m == q + 1:
        powers.append([0] * (k - 1) + [1])
    words = [(0,) * m]
    for i in range(k):
        terms = [tuple(f._mul[x][pw[i]] for pw in powers) for x in range(q)]
        words = [tuple(map(f.add, w, t)) for w in words for t in terms]
    return MdsCode(m, k, f, tuple(words))
