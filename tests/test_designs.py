"""Orthogonal/covering array checks and the explicit constructions."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FAULTY_ENTRIES, outcome
from pdacache.designs import (
    RowIndexMatrix,
    full_grid,
    is_ca,
    is_oa,
    matrix_from_rows,
    oa_from_mds,
    oa_trivial,
    weight,
)
from pdacache.errors import BadInput, BadLength, BadStrength
from pdacache.gf import field_new, mds_generate
from reference import check_rows, hamming_distance

EQ4_MATRIX = matrix_from_rows([(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 0)], 3, 2)


def brute_force_counts(rows, m, q, s):
    """Independent tuple counter for every s-subset of columns."""
    out = {}
    for sub in itertools.combinations(range(m), s):
        for tup in itertools.product(range(q), repeat=s):
            out[(sub, tup)] = sum(
                all(r[i] == t for i, t in zip(sub, tup)) for r in rows
            )
    return out


class TestHamming:
    def test_distance(self):
        assert hamming_distance((0, 0, 0), (1, 1, 0)) == 2

    def test_identity(self):
        assert hamming_distance((1, 0, 1), (1, 0, 1)) == 0

    def test_weight(self):
        assert weight((0, 1, 0, 1)) == 2

    def test_short_matrix_row_refused(self):
        with pytest.raises(BadLength, match=r"row \(0, 1\) does not have length 3"):
            RowIndexMatrix(((0, 1, 0), (0, 1)), 3, 2)


class TestIsOa:
    def test_strength2_index1(self):
        res = is_oa(EQ4_MATRIX, 2)
        assert res.ok and res.lam == 1

    def test_single_row_fails_strength1(self):
        m = matrix_from_rows([(0, 0)], 2, 2)
        res = is_oa(m, 1)
        assert not res.ok
        sub, tup, count = res.witness
        assert count * 2 != m.nrows  # the witnessed tuple count is non-uniform
        # and indeed the tuple (1,) never appears
        assert not is_ca(m, 1, 1)

    def test_full_grid_is_oa_full_strength(self):
        res = is_oa(full_grid(3, 2), 3)
        assert res.ok and res.lam == 1

    @pytest.mark.parametrize("check", [is_oa, is_ca])
    @pytest.mark.parametrize("s", [0, 4, "a", 1.5, True])
    def test_bad_strength(self, check, s):
        with pytest.raises(BadStrength, match=f"^strength {s} outside"):
            check(EQ4_MATRIX, s)


class TestIsCa:
    def test_eq4_is_covering(self):
        assert is_ca(EQ4_MATRIX, 2, 1)

    def test_any_index1_oa_is_ca(self):
        for m, q in [(3, 2), (4, 2), (3, 3)]:
            mat = oa_trivial(m, q)
            assert is_oa(mat, m - 1).lam >= 1
            assert is_ca(mat, m - 1, 1)

    def test_missing_tuple_reported(self):
        mat = matrix_from_rows([(0, 0, 0), (1, 1, 1)], 3, 2)
        res = is_ca(mat, 2, 1)
        assert not res.ok
        sub, tup, count = res.witness
        assert count == 0

    def test_one_result_type_for_both_checks(self):
        oa, ca = is_oa(EQ4_MATRIX, 2), is_ca(EQ4_MATRIX, 2)
        assert type(oa) is type(ca)
        assert (oa.ok, oa.lam, oa.witness) == (True, 1, None)
        assert (ca.ok, ca.lam, ca.witness) == (True, None, None)


class TestOaTrivial:
    def test_m3_q2_rows(self):
        assert set(oa_trivial(3, 2).rows) == {
            (0, 0, 0),
            (0, 1, 1),
            (1, 0, 1),
            (1, 1, 0),
        }

    def test_matches_eq4_as_a_set(self):
        assert set(oa_trivial(3, 2).rows) == set(EQ4_MATRIX.rows)

    def test_m2_q3(self):
        assert oa_trivial(2, 3).rows == ((0, 0), (1, 1), (2, 2))

    def test_m4_q3_strength3(self):
        mat = oa_trivial(4, 3)
        assert mat.nrows == 27
        res = is_oa(mat, 3)
        assert res.ok and res.lam == 1

    def test_rows_lex_in_prefix(self):
        mat = oa_trivial(3, 3)
        prefixes = [r[:-1] for r in mat.rows]
        assert prefixes == sorted(prefixes)

    @pytest.mark.parametrize("m,q", [(m, q) for m in (2, 3, 4, 5) for q in (2, 3, 4)])
    def test_strength_monotonicity(self, m, q):
        mat = oa_trivial(m, q)
        for t in range(1, m):
            res = is_oa(mat, t)
            assert res.ok and res.lam == q ** (m - 1 - t)


TOO_MANY_TUPLES = r"^C\(10000,3\)\*2\^3 projected tuples exceeds the limit MAX_CELLS = 10000000$"


class TestBadSizesAndRows:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: oa_trivial("a", 2), "^m must be an integer >= 2, not 'a'$"),
            (lambda: oa_trivial(3, True), "^q must be an integer >= 2, not True$"),
            (lambda: oa_trivial(3, 2.0), r"^q must be an integer >= 2, not 2\.0$"),
            (lambda: full_grid("a", 2), "^m must be an integer >= 0, not 'a'$"),
            (lambda: full_grid(True, 2), "^m must be an integer >= 0, not True$"),
            (lambda: full_grid(2, -1), "^q must be an integer >= 2, not -1$"),
            (lambda: full_grid(-1, 2), "^m must be an integer >= 0, not -1$"),
            (lambda: matrix_from_rows(5, 2, 2), "the rows must be an iterable of rows"),
            (lambda: matrix_from_rows([(0, 0), 5], 2, 2), "the rows must be an iterable of rows"),
            (lambda: matrix_from_rows([("a", 0)], 2, 2), r"row \('a', 0\) has entries outside"),
            (lambda: matrix_from_rows([(0, 1), (True, 0)], 2, 2), r"row \(True, 0\) has entries"),
            (lambda: matrix_from_rows([(0, 1.0)], 2, 2), r"row \(0, 1.0\) has entries outside"),
            (lambda: matrix_from_rows([(0, -1)], 2, 2), r"row \(0, -1\) has entries outside"),
            (lambda: matrix_from_rows([(0, 1)], 2, "a"), "^q must be an integer >= 0, not 'a'$"),
            (lambda: matrix_from_rows([(0,)], True, 2), "^m must be an integer >= 0, not True$"),
            (lambda: RowIndexMatrix([(0, 1)], 2, 2), "tuple of tuple rows, got rows of type list"),
            (lambda: RowIndexMatrix(((0, 1), [1, 0]), 2, 2), r"row \[1, 0\] is of type list, not a tuple"),
            # sizes over MAX_CELLS, and array checks whose C(m, s) * q^s
            # projected tuples are, refused before any walk
            (lambda: RowIndexMatrix((), 10**11, 2), "^m=100000000000 exceeds the limit MAX_CELLS"),
            (lambda: matrix_from_rows([], 10**11, 10**11), "^m=100000000000 exceeds the limit"),
            (lambda: matrix_from_rows([], 2, 10**11), "^q=100000000000 exceeds the limit"),
            (lambda: is_oa(matrix_from_rows([], 10**4, 2), 3), TOO_MANY_TUPLES),
            (lambda: is_ca(matrix_from_rows([], 10**4, 2), 3), TOO_MANY_TUPLES),
        ],
    )
    def test_refused_with_bad_input(self, call, message):
        with pytest.raises(BadInput, match=message):
            call()

    def test_first_bad_row_is_named(self):
        with pytest.raises(BadInput, match=r"row \(0, 2\) has entries outside \[0, 2\)"):
            matrix_from_rows([(0, 1), (0, 2), (3, 0)], 2, 2)
        with pytest.raises(BadLength, match=r"row \(0,\) does not have length 2"):
            matrix_from_rows([(0, 1), (0,), (3, 0)], 2, 2)

    def test_zero_length_rows_and_the_one_row_grid_stay_valid(self):
        assert matrix_from_rows([(), ()], 0, 2).rows == ((), ())
        assert full_grid(0, 3).rows == ((),)
        assert matrix_from_rows([], 3, 2).nrows == 0


@st.composite
def row_tuples(draw):
    """(rows, m, q): valid rows of a small matrix with up to two faults: a
    list for a row, a faulty entry, or a wrong length.  Now and then a list
    of rows."""
    m, q = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * m), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rows) - 1))
        fault, r = draw(st.sampled_from(["list", "entry", "length"])), list(rows[i])
        if fault == "entry" and r:
            r[draw(st.integers(0, len(r) - 1))] = draw(st.sampled_from(FAULTY_ENTRIES + [q]))
        elif fault == "length":
            r = r[:-1] if r and draw(st.booleans()) else r + [0]
        rows[i] = r if fault == "list" else tuple(r)
    return draw(st.sampled_from([tuple] * 7 + [list]))(rows), m, q


@given(row_tuples())
@example((((0, 2),), 2, 2))  # an entry out of range at each end, and a bool
@example((((0, -1),), 2, 2))
@example((((0, True),), 2, 2))
@settings(max_examples=100, deadline=None)
def test_row_check_matches_the_per_row_reference(case):
    """The whole-collection check accepts what the per-row loop accepts and
    names the same first fault."""
    rows, m, q = case
    assert outcome(lambda: RowIndexMatrix(rows, m, q)) == outcome(lambda: check_rows(rows, m, q))


class TestOaFromMds:
    def test_repetition(self):
        mat = oa_from_mds(mds_generate(field_new(2), 2, 1))
        assert set(mat.rows) == {(0, 0), (1, 1)}
        assert is_oa(mat, 1).lam == 1

    def test_rs_4_2_over_gf3(self):
        mat = oa_from_mds(mds_generate(field_new(3), 4, 2))
        res = is_oa(mat, 2)
        assert res.ok and res.lam == 1

    def test_parity_code_equals_trivial_oa(self):
        mat = oa_from_mds(mds_generate(field_new(2), 3, 2))
        assert set(mat.rows) == set(oa_trivial(3, 2).rows)


class TestAgainstBruteForce:
    def test_random_small_matrices(self):
        rng = random.Random(7)
        for _ in range(60):
            m = rng.randint(2, 5)
            q = rng.randint(2, 3)
            nrows = rng.randint(1, 30)
            rows = [
                tuple(rng.randrange(q) for _ in range(m)) for _ in range(nrows)
            ]
            mat = matrix_from_rows(rows, m, q)
            for s in range(1, m + 1):
                counts = brute_force_counts(rows, m, q, s)
                vals = set(counts.values())
                expect_oa = len(vals) == 1 and nrows % q**s == 0
                assert bool(is_oa(mat, s)) == expect_oa
                for lam in (1, 2):
                    assert bool(is_ca(mat, s, lam)) == (min(counts.values()) >= lam)


@given(
    st.integers(2, 4).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.integers(2, 3),
            st.integers(1, 8),
        )
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_oa_implies_ca_property(dims, rnd):
    m, q, nrows = dims
    rows = [tuple(rnd.randrange(q) for _ in range(m)) for _ in range(nrows)]
    mat = matrix_from_rows(rows, m, q)
    for s in range(1, m + 1):
        res = is_oa(mat, s)
        if res.ok and res.lam >= 1:
            assert is_ca(mat, s, res.lam)
