"""Small finite fields GF(q) and extended Reed-Solomon MDS codes.

Elements of GF(p^k) are integers in [0, q): the base-p digits of an element
are the coefficients of its polynomial representation, least significant
digit first.  Arithmetic is table driven, which is plenty for q <= 41.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import MdsUnavailable, UnsupportedField, ZeroInverse

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

SUPPORTED_ORDERS = frozenset({2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 23, 25, 27, 31, 32, 41})


def _poly_divmod(num, den, p):
    """Divide polynomials over GF(p); coefficients low degree first."""
    num = list(num)
    dlen = len(den)
    inv_lead = pow(den[-1], -1, p)
    quot = [0] * max(len(num) - dlen + 1, 1)
    for shift in range(len(num) - dlen, -1, -1):
        c = (num[shift + dlen - 1] * inv_lead) % p
        quot[shift] = c
        for i, d in enumerate(den):
            num[shift + i] = (num[shift + i] - c * d) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _digits(value, p, k):
    out = []
    for _ in range(k):
        out.append(value % p)
        value //= p
    return out


def _undigits(digits, p):
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


@dataclass(frozen=True)
class Field:
    """GF(q) with precomputed add/mul/inv tables."""

    q: int
    p: int
    k: int
    reduction_poly: tuple | None
    _add: tuple = field(repr=False)
    _mul: tuple = field(repr=False)
    _inv: tuple = field(repr=False)

    def add(self, a, b):
        return self._add[a][b]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return self._inv[a]

    def pow(self, a, e):
        out = 1
        for _ in range(e):
            out = self._mul[out][a]
        return out


def field_new(q):
    """Build GF(q) for a supported prime power q."""
    if q not in SUPPORTED_ORDERS:
        raise UnsupportedField(f"q={q} is not in the supported set")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    if q not in _REDUCTION_POLYS:
        add = tuple(tuple((a + b) % p for b in range(p)) for a in range(p))
        mul = tuple(tuple((a * b) % p for b in range(p)) for a in range(p))
        inv = tuple(pow(a, -1, p) if a else 0 for a in range(p))
        return Field(q, p, 1, None, add, mul, inv)

    poly = _REDUCTION_POLYS[q]
    k = len(poly) - 1

    def add_elems(a, b):
        da, db = _digits(a, p, k), _digits(b, p, k)
        return _undigits([(x + y) % p for x, y in zip(da, db)], p)

    def mul_elems(a, b):
        da, db = _digits(a, p, k), _digits(b, p, k)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        _, rem = _poly_divmod(prod, list(poly), p)
        rem += [0] * (k - len(rem))
        return _undigits(rem[:k], p)

    add = tuple(tuple(add_elems(a, b) for b in range(q)) for a in range(q))
    mul = tuple(tuple(mul_elems(a, b) for b in range(q)) for a in range(q))
    inv_list = [0] * q
    for a in range(1, q):
        row = mul[a]
        inv_list[a] = row.index(1)
    return Field(q, p, k, poly, add, tuple(mul), tuple(inv_list))


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


def mds_generate(f, m, k):
    """Enumerate the q^k codewords of an [m, k]_q extended RS code.

    Evaluation points are the field elements 0..q-1 in order; when m = q+1
    the extra coordinate is the leading message coefficient (the classical
    single extension).  Codewords come in lexicographic order of their
    message vectors.
    """
    q = f.q
    if not 1 <= k <= m:
        raise MdsUnavailable(f"need 1 <= k <= m, got k={k}, m={m}")
    if m > q + 1:
        raise MdsUnavailable(f"m={m} > q+1={q + 1}: no extended RS code")

    n_eval = min(m, q)
    # powers[j][i] = point_j ^ i
    powers = [[f.pow(pt, i) for i in range(k)] for pt in range(n_eval)]
    words = []
    for msg in itertools.product(range(q), repeat=k):
        cw = []
        for j in range(n_eval):
            acc = 0
            for i in range(k):
                acc = f.add(acc, f.mul(msg[i], powers[j][i]))
            cw.append(acc)
        if m == q + 1:
            cw.append(msg[k - 1])
        words.append(tuple(cw))
    return MdsCode(m, k, f, tuple(words))
