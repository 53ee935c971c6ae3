"""Field arithmetic and Reed-Solomon code generation."""

import itertools
import re

import pytest

from pdacache import designs
from pdacache.errors import BadInput, MdsUnavailable, UnsupportedField
from pdacache.gf import _REDUCTION_POLYS, SUPPORTED_ORDERS, check_mds, field_new, mds_generate
from reference import hamming_distance, mds_codewords


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

    def test_supported_orders_are_the_prime_powers_up_to_41(self):
        def prime_power(q):
            p = next(d for d in range(2, q + 1) if q % d == 0)
            while q % p == 0:
                q //= p
            return q == 1

        assert SUPPORTED_ORDERS == {q for q in range(2, 42) if prime_power(q)}
        assert field_new(17).mul(3, 6) == 1

    def test_unsupported_prime_rejected(self):
        with pytest.raises(UnsupportedField):
            field_new(43)

    @pytest.mark.parametrize("q", [4.0, [4], "4", None, True], ids=repr)
    def test_non_int_order_rejected(self, q):
        # 4.0 == 4 and True == 1, so only the type tells these from an order
        message = f"^q={re.escape(str(q))} is not in the supported set$"
        with pytest.raises(UnsupportedField, match=message):
            field_new(q)

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
    """f is irreducible exactly when GF(p)[x]/(f) has no zero divisors."""
    poly = _REDUCTION_POLYS[q]
    p = min(d for d in range(2, q + 1) if q % d == 0)
    k = len(poly) - 1
    assert p**k == q
    assert poly[-1] == 1
    for a, b in itertools.product(range(1, q), repeat=2):
        assert naive_gf_mul(a, b, p, k, poly) != 0, f"{poly} has zero divisors {a}, {b} over GF({p})"


def test_reducible_poly_has_zero_divisors():
    # x^2 + 1 = (x + 1)^2 over GF(2): the check above must catch it
    assert naive_gf_mul(3, 3, 2, 2, (1, 0, 1)) == 0


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


def naive_gf_add(a, b, p, k):
    """Independent digit-wise add mod p, digits little-endian."""
    return sum((a // p**i + b // p**i) % p * p**i for i in range(k))


@pytest.mark.parametrize("q", sorted(SUPPORTED_ORDERS))
def test_tables_match_independent_oracle(q):
    f = field_new(q)
    for a, b in itertools.product(range(q), repeat=2):
        if f.k == 1:
            assert f.add(a, b) == (a + b) % q
            assert f.mul(a, b) == (a * b) % q
        else:
            assert f.add(a, b) == naive_gf_add(a, b, f.p, f.k)
            assert f.mul(a, b) == naive_gf_mul(a, b, f.p, f.k, f.reduction_poly)


@pytest.mark.parametrize("q", sorted(SUPPORTED_ORDERS - set(_REDUCTION_POLYS)))
def test_prime_field_has_no_reduction_poly(q):
    f = field_new(q)
    assert (f.p, f.k, f.reduction_poly) == (q, 1, None)


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

    @pytest.mark.parametrize("m, k", [(2, 0), (2, 3)])
    def test_unavailable_dimension_outside_one_to_m(self, m, k):
        with pytest.raises(MdsUnavailable, match=f"^need 1 <= k <= m, got k={k}, m={m}$"):
            mds_generate(field_new(2), m, k)

    @pytest.mark.parametrize("m, k", [(4, 2.0), (4.0, 2), (None, 2), (4, "2"), (True, 1)], ids=repr)
    def test_non_int_sizes_rejected(self, m, k):
        name, value = ("k", k) if type(m) is int else ("m", m)
        message = f"^{name} must be an integer, not {re.escape(repr(value))}$"
        with pytest.raises(BadInput, match=message):
            check_mds(5, m, k)
        with pytest.raises(BadInput, match=message):
            mds_generate(field_new(5), m, k)

    @pytest.mark.parametrize("q", [None, 2.0, "5", True], ids=repr)
    def test_non_int_order_rejected(self, q):
        with pytest.raises(BadInput, match=f"^q must be an integer, not {re.escape(repr(q))}$"):
            check_mds(q, 2, 1)

    def test_too_many_codeword_cells_refused_before_building(self, monkeypatch):
        message = r"^41\^8\*42 codeword cells exceeds the limit MAX_CELLS = 10000000$"
        with pytest.raises(BadInput, match=message):
            mds_generate(field_new(41), 42, 8)
        # the limit is read at call time: 3^3 codewords of 4 cells fit 108
        monkeypatch.setattr(designs, "MAX_CELLS", 108)
        assert len(mds_generate(field_new(3), 4, 3).codewords) == 27
        monkeypatch.setattr(designs, "MAX_CELLS", 107)
        message = r"^3\^3\*4 codeword cells exceeds the limit MAX_CELLS = 107$"
        with pytest.raises(BadInput, match=message):
            mds_generate(field_new(3), 4, 3)

    def test_codeword_count_and_order(self):
        code = mds_generate(field_new(3), 3, 2)
        assert len(code.codewords) == 9
        # lexicographic message order: first codeword is all zeros
        assert code.codewords[0] == (0, 0, 0)

    @pytest.mark.parametrize(
        "q, m, k",
        [
            (q, m, k)
            for q in sorted(SUPPORTED_ORDERS)
            if q <= 9
            for m in range(2, q + 2)
            for k in range(1, min(m, 3) + 1)
        ],
    )
    def test_codewords_match_per_message_evaluation(self, q, m, k):
        """Pins every codeword, its message order and, at m = q+1, the
        extension coordinate msg[k-1]."""
        f = field_new(q)
        assert mds_generate(f, m, k).codewords == mds_codewords(f, m, k)

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
