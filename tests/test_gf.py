"""Field arithmetic and Reed-Solomon code generation."""

import itertools

import pytest

from pdacache.errors import MdsUnavailable, UnsupportedField
from pdacache.gf import _REDUCTION_POLYS, SUPPORTED_ORDERS, _poly_divmod, field_new, mds_generate
from pdacache.designs import hamming_distance


def naive_gf_mul(a, b, p, k, poly):
    """Independent polynomial multiply-and-reduce, digits little-endian."""

    def digits(v):
        return [(v // p**i) % p for i in range(k)]

    prod = [0] * (2 * k - 1)
    for i, x in enumerate(digits(a)):
        for j, y in enumerate(digits(b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    # reduce by the monic poly, highest degree first
    for deg in range(len(prod) - 1, k - 1, -1):
        c = prod[deg]
        if c:
            for i, coeff in enumerate(poly):
                prod[deg - k + i] = (prod[deg - k + i] - c * coeff) % p
    return sum(d * p**i for i, d in enumerate(prod[:k]))


class TestFieldConstruction:
    def test_prime_field_mod_arithmetic(self):
        f = field_new(5)
        assert f.mul(2, 3) == 1
        assert f.add(4, 3) == 2

    def test_gf4_non_unit_elements_are_mutual_inverses(self):
        f = field_new(4)
        others = [a for a in range(4) if a not in (0, 1)]
        assert f.mul(others[0], others[1]) == 1

    def test_non_prime_power_rejected(self):
        with pytest.raises(UnsupportedField):
            field_new(6)
        with pytest.raises(UnsupportedField):
            field_new(12)

    def test_unsupported_prime_rejected(self):
        with pytest.raises(UnsupportedField):
            field_new(43)

    def test_gf2_characteristic_two(self):
        f = field_new(2)
        assert f.add(1, 1) == 0

    def test_gf3_self_inverse(self):
        f = field_new(3)
        assert f.mul(2, 2) == 1


@pytest.mark.parametrize("q", sorted(SUPPORTED_ORDERS))
def test_order_is_prime_power(q):
    f = field_new(q)
    assert all(f.p % d for d in range(2, f.p))
    assert q == f.p**f.k


@pytest.mark.parametrize("q", sorted(_REDUCTION_POLYS))
def test_reduction_poly_is_irreducible(q):
    poly = _REDUCTION_POLYS[q]
    p = min(d for d in range(2, q + 1) if q % d == 0)
    k = len(poly) - 1
    assert p**k == q
    assert poly[-1] == 1
    for deg in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            _, rem = _poly_divmod(poly, list(tail) + [1], p)  # monic divisor
            assert rem != [0], f"{poly} is divisible by {list(tail) + [1]} over GF({p})"


@pytest.mark.parametrize("q", sorted(SUPPORTED_ORDERS))
def test_field_axioms_exhaustive(q):
    f = field_new(q)
    elems = range(q)
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        if a:
            assert 1 in (f.mul(a, b) for b in elems)
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    # associativity and distributivity on a full triple sweep
    for a, b, c in itertools.product(elems, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32])
def test_extension_mul_table_matches_independent_oracle(q):
    f = field_new(q)
    for a in range(q):
        for b in range(q):
            assert f.mul(a, b) == naive_gf_mul(a, b, f.p, f.k, f.reduction_poly)


class TestMdsGenerate:
    def test_repetition_code(self):
        code = mds_generate(field_new(2), 2, 1)
        assert code.codewords == ((0, 0), (1, 1))

    def test_q3_length4_dimension2(self):
        code = mds_generate(field_new(3), 4, 2)
        assert len(code.codewords) == 9
        dists = [
            hamming_distance(a, b)
            for a, b in itertools.combinations(code.codewords, 2)
        ]
        assert min(dists) == 3  # = m - k + 1

    def test_unavailable_beyond_extended_length(self):
        with pytest.raises(MdsUnavailable):
            mds_generate(field_new(2), 4, 2)

    def test_codeword_count_and_order(self):
        code = mds_generate(field_new(3), 3, 2)
        assert len(code.codewords) == 9
        # lexicographic message order: first codeword is all zeros
        assert code.codewords[0] == (0, 0, 0)

    @pytest.mark.parametrize(
        "q,m,k",
        [(2, 2, 1), (2, 3, 2), (3, 4, 2), (3, 4, 3), (4, 5, 2), (4, 5, 3), (5, 5, 2), (5, 6, 3)],
    )
    def test_minimum_distance_is_mds(self, q, m, k):
        code = mds_generate(field_new(q), m, k)
        dists = [
            hamming_distance(a, b)
            for a, b in itertools.combinations(code.codewords, 2)
        ]
        assert min(dists) == m - k + 1

    @pytest.mark.parametrize(
        "q,m,k", [(2, 3, 2), (3, 4, 2), (4, 5, 3), (5, 4, 2)]
    )
    def test_projection_bijection_on_every_k_subset(self, q, m, k):
        code = mds_generate(field_new(q), m, k)
        for sub in itertools.combinations(range(m), k):
            proj = {tuple(c[i] for i in sub) for c in code.codewords}
            assert len(proj) == q**k
