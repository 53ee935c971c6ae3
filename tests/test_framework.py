"""The general construction: column index sets and the entry rule."""

import inspect
import itertools
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pdacache
import reference
from conftest import FAULTY_ENTRIES, LABELED_4x12, MATRIX_4x3_ROWS, label_grid, outcome, traced
from pdacache import designs, gf, schemes
from pdacache.designs import (
    RowIndexMatrix,
    full_grid,
    is_ca,
    is_oa,
    matrix_from_rows,
    oa_from_mds,
    oa_trivial,
)
from pdacache.errors import BadInput, ParamMismatch, PdacacheError
from pdacache.framework import (
    ColumnIndex,
    ColumnIndexSet,
    construct,
    full_column_set,
    weight_column_set,
)
from pdacache.pda import pda_params, verify_pda
from pdacache.schemes import SchemeSpec


class TestFullColumnSet:
    def test_3_2_2_order(self):
        cols = full_column_set(3, 2, 2)
        assert len(cols) == 12
        assert cols.columns[:5] == (
            ColumnIndex((0, 1), (0, 0)),
            ColumnIndex((0, 1), (1, 0)),
            ColumnIndex((0, 1), (0, 1)),
            ColumnIndex((0, 1), (1, 1)),
            ColumnIndex((0, 2), (0, 0)),
        )

    def test_counts(self):
        assert len(full_column_set(2, 1, 2)) == 4
        assert len(full_column_set(4, 2, 2)) == 24

    def test_b_coordinate0_fastest(self):
        cols = full_column_set(2, 2, 3)
        bs = [c.b for c in cols.columns if c.T == (0, 1)][:4]
        assert bs == [(0, 0), (1, 0), (2, 0), (0, 1)]


class TestWeightColumnSet:
    def test_4_2_1(self):
        cols = weight_column_set(4, 2, 1)
        assert len(cols) == 12
        assert {c.b for c in cols.columns} == {(1, 0), (0, 1)}

    def test_omega_zero_all_ones(self):
        cols = weight_column_set(5, 3, 0)
        assert all(c.b == (1, 1, 1) for c in cols.columns)
        assert len(cols) == 10

    def test_omega_equals_t_all_zero(self):
        cols = weight_column_set(3, 2, 2)
        assert len(cols) == 3
        assert all(c.b == (0, 0) for c in cols.columns)


class TestColumnIndexSetValidation:
    def test_duplicates_rejected(self):
        col = ColumnIndex((0,), (1,))
        with pytest.raises(ValueError):
            ColumnIndexSet((col, col), 2, 1, 2)

    def test_unsorted_subset_rejected(self):
        with pytest.raises(ValueError):
            ColumnIndexSet((ColumnIndex((1, 0), (0, 0)),), 2, 2, 2)

    def test_first_bad_column_in_order_is_named(self):
        a = ColumnIndex((0, 1), (0, 0))
        with pytest.raises(BadInput, match="duplicate column"):
            ColumnIndexSet((a, a, ColumnIndex((0, 1), (0, 2))), 3, 2, 2)
        with pytest.raises(BadInput, match=r"b=\(0, 5\)\): b outside"):
            ColumnIndexSet((a, ColumnIndex((0, 2), (0, 5)), ColumnIndex((2, 1), (0, 0))), 3, 2, 2)
        with pytest.raises(BadInput, match=r"T=\(2, 1\).*T must be strictly increasing"):
            ColumnIndexSet((a, ColumnIndex((2, 1), (0, 0)), ColumnIndex((0, 2), (0, 5))), 3, 2, 2)


@st.composite
def column_sets(draw):
    """(columns, m, t, q): distinct valid columns of a small set, with up to
    two faults: a plain tuple for a ColumnIndex, a list for a T or b, a
    faulty entry, a wrong arity, a reversed T, or a repeated column.  Now
    and then a list of columns."""
    m, q = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    t = draw(st.integers(0, m))
    b = st.tuples(*[st.integers(0, q - 1)] * t)
    subsets = st.sampled_from(list(itertools.combinations(range(m), t)))
    columns = draw(st.lists(st.builds(ColumnIndex, subsets, b), min_size=1, max_size=6, unique=True))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(columns) - 1))
        fault = draw(st.sampled_from(["repeat", "tuple", "list", "entry", "arity", "order"]))
        if fault == "repeat":
            columns.insert(draw(st.integers(0, len(columns))), columns[i])
            continue
        if fault == "tuple":
            columns[i] = tuple(columns[i])
            continue
        which = draw(st.integers(0, 1))  # T or b
        v = list(columns[i][which])
        if fault == "entry" and v:
            v[draw(st.integers(0, len(v) - 1))] = draw(st.sampled_from(FAULTY_ENTRIES + [m, q]))
        elif fault == "arity":
            v = v[:-1] if v and draw(st.booleans()) else v + [0]
        elif fault == "order":
            v.reverse()
        fields = list(columns[i])
        fields[which] = v if fault == "list" else tuple(v)
        columns[i] = ColumnIndex(*fields)
    return draw(st.sampled_from([tuple] * 7 + [list]))(columns), m, t, q


@given(column_sets())
# T and b out of range at each end, T not increasing, and a bool in b
@example(((ColumnIndex((0, 1), (0, True)),), 2, 2, 2))
@example(((ColumnIndex((0, 2), (0, 0)),), 2, 2, 2))
@example(((ColumnIndex((-1, 1), (0, 0)),), 2, 2, 2))
@example(((ColumnIndex((0, 1), (0, 2)),), 2, 2, 2))
@example(((ColumnIndex((0, 1), (-1, 0)),), 2, 2, 2))
@example(((ColumnIndex((1, 0), (0, 0)),), 2, 2, 2))
@settings(max_examples=100, deadline=None)
def test_column_check_matches_the_per_column_reference(case):
    """ColumnIndexSet's column loop accepts what the reference's accepts
    and names the same first fault."""
    columns, m, t, q = case
    want = outcome(lambda: reference.check_columns(columns, m, t, q))
    assert outcome(lambda: ColumnIndexSet(columns, m, t, q)) == want


# Small (m, t, q) and (m, t, omega) for the builders that skip the check.
SMALL_MTQ = [(m, t, q) for m in range(1, 5) for t in range(1, m + 1) for q in (2, 3, 4)]
SMALL_MT_OMEGA = [(m, t, w) for m in range(5) for t in range(m + 1) for w in range(t + 1)]


def test_builders_make_what_the_checked_constructors_accept():
    """Each builder's unchecked result equals, field for field, what the
    checked constructor makes of the same fields."""
    for m, t, q in SMALL_MTQ:
        cols = full_column_set(m, t, q)
        assert vars(cols) == vars(ColumnIndexSet(cols.columns, m, t, q))
        for rows in (oa_trivial(m, q) if m >= 2 else None, full_grid(m, q)):
            if rows is not None:
                assert vars(rows) == vars(RowIndexMatrix(rows.rows, m, q))
    for m, t, omega in SMALL_MT_OMEGA:
        cols = weight_column_set(m, t, omega)
        assert vars(cols) == vars(ColumnIndexSet(cols.columns, m, t, 2))


def test_builders_skip_the_constructor_check(monkeypatch):
    """The four builders, and so build, run no design-input check; the
    entry points that take outside input still do."""
    checked = []

    def spy(cls):
        check = cls.__post_init__

        def recorded(self):
            checked.append(cls.__name__)
            check(self)

        monkeypatch.setattr(cls, "__post_init__", recorded)

    spy(RowIndexMatrix)
    spy(ColumnIndexSet)
    oa_trivial(3, 2)
    full_grid(2, 3)
    full_column_set(3, 2, 2)
    weight_column_set(4, 2, 1)
    schemes.build(SchemeSpec("theorem6", m=4, t=2, q=3))
    assert checked == []
    matrix_from_rows([(0, 1)], 2, 2)
    oa_from_mds(gf.mds_generate(gf.field_new(3), 3, 2))
    ColumnIndexSet((ColumnIndex((0,), (1,)),), 2, 1, 2)
    assert checked == ["RowIndexMatrix", "RowIndexMatrix", "ColumnIndexSet"]


def _column_set(*columns):
    return lambda: ColumnIndexSet(columns, 3, 2, 2)


# Every refused argument of the designs and framework layers, and the
# wrong-type refusals of the entry points that build them, with its
# message: each is a PdacacheError that callers may still catch as ValueError.
BAD_INPUTS = [
    (lambda: matrix_from_rows([(0, 2)], 2, 2), r"row \(0, 2\) has entries outside \[0, 2\)"),
    (lambda: is_ca(matrix_from_rows([(0, 0)], 2, 2), 1, lam=0), "^lam must be an integer >= 1, not 0$"),
    (lambda: is_ca(matrix_from_rows([(0, 0)], 2, 2), 1, "a"), "^lam must be an integer >= 1, not 'a'$"),
    (lambda: is_ca(matrix_from_rows([(0, 0)], 2, 2), 1, None), "^lam must be an integer >= 1, not None$"),
    (lambda: oa_trivial(1, 2), "^m must be an integer >= 2, not 1$"),
    (_column_set(ColumnIndex((0,), (0,))), "does not have arity 2"),
    (_column_set(ColumnIndex((0, 1), (0,))), "does not have arity 2"),
    (_column_set(ColumnIndex((1, 0), (0, 0))), "T must be strictly increasing"),
    (_column_set(ColumnIndex((0, 3), (0, 0))), r"T outside \[0, 3\)"),
    (_column_set(ColumnIndex((0, 1), (0, 2))), r"b outside \[0, 2\)"),
    (_column_set(ColumnIndex((0, 1), (-1, 0))), r"b outside \[0, 2\)"),
    (_column_set(ColumnIndex((0, 1), (0, 0)), ColumnIndex((0, 1), (0, 0))), "duplicate column"),
    (_column_set(((0, 1), (0, 0))), r"column \(\(0, 1\), \(0, 0\)\) is not a ColumnIndex"),
    (_column_set(ColumnIndex([0, 1], (0, 0))), r"column ColumnIndex\(T=\[0, 1\].*is not a ColumnIndex"),
    (_column_set(ColumnIndex((0, 1), ("a", 0))), r"b=\('a', 0\)\) is not a ColumnIndex of two int"),
    (_column_set(ColumnIndex((0, 1), (0, 0)), ((0, 2), (0, 0))), r"column \(\(0, 2\), \(0, 0\)\) is not"),
    (lambda: full_column_set(2, 3, 2), "need 0 < t <= m and q >= 2, got m=2, t=3, q=2"),
    (lambda: weight_column_set(3, 2, 3), "need 0 <= omega <= t <= m, got m=3, t=2, omega=3"),
    (lambda: full_column_set("a", 1, 2), "^m must be an integer, not 'a'$"),
    (lambda: full_column_set(3, 2, 2.0), r"^q must be an integer, not 2\.0$"),
    (lambda: full_column_set(3, True, 2), "^t must be an integer, not True$"),
    (lambda: weight_column_set("a", 1, 0), "^m must be an integer, not 'a'$"),
    (lambda: weight_column_set(3, 2, None), "^omega must be an integer, not None$"),
    # a wrong-type argument, one case per entry point that checks it
    (lambda: schemes.build(None), "^build takes a SchemeSpec, not NoneType$"),
    (lambda: schemes.predict(None), "^predict takes a SchemeSpec, not NoneType$"),
    (lambda: construct(None, None), "^construct takes a RowIndexMatrix, not NoneType$"),
    (lambda: construct(oa_trivial(2, 2), None), "^construct takes a ColumnIndexSet, not NoneType$"),
    (lambda: is_oa(None, 1), "^is_oa takes a RowIndexMatrix, not NoneType$"),
    (lambda: is_ca(None, 1), "^is_ca takes a RowIndexMatrix, not NoneType$"),
    (lambda: oa_from_mds(None), "^oa_from_mds takes a MdsCode, not NoneType$"),
    (lambda: gf.mds_generate(None, 2, 1), "^mds_generate takes a Field, not NoneType$"),
    (lambda: designs.weight(None), "^weight takes a Sequence, not NoneType$"),
    (lambda: designs.weight(5), "^weight takes a Sequence, not int$"),
    (lambda: ColumnIndexSet(None, 2, 1, 2), "^ColumnIndexSet takes a tuple, not NoneType$"),
    (lambda: ColumnIndexSet([], 2, 1, 2), "^ColumnIndexSet takes a tuple, not list$"),
    (lambda: ColumnIndexSet((), "a", 1, 2), "^m must be an integer >= 0, not 'a'$"),
    (lambda: ColumnIndexSet((), 2, -1, 2), "^t must be an integer >= 0, not -1$"),
    (lambda: ColumnIndexSet((), 2, 1, True), "^q must be an integer >= 0, not True$"),
]


@pytest.mark.parametrize("call, message", BAD_INPUTS)
def test_bad_input_is_a_typed_value_error(call, message):
    with pytest.raises(PdacacheError, match=message) as info:
        call()
    assert isinstance(info.value, ValueError)


class TestSizeGuards:
    """The design helpers refuse m, q, or a row or column count above
    designs.MAX_CELLS from the closed form, before anything is built."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: full_grid(1, 10**11), "q=100000000000"),
            (lambda: oa_trivial(2, 10**11), "q=100000000000"),
            (lambda: full_column_set(1, 1, 10**11), "q=100000000000"),
            (lambda: weight_column_set(10**11, 0, 0), "m=100000000000"),
            (lambda: full_grid(30, 2), "2^30 rows"),
            (lambda: full_grid(10**7, 10**7), "10000000^10000000 rows"),
            (lambda: oa_trivial(10**7 + 1, 2), "m=10000001"),
            (lambda: full_column_set(2, 1, 5 * 10**6 + 1), "C(2,1)*5000001^1 columns"),
            (lambda: full_column_set(10**7, 5 * 10**6, 2), "C(10000000,5000000)*2^5000000 columns"),
            (lambda: weight_column_set(10**7, 2, 1), "C(10000000,2)*C(2,1) columns"),
        ],
    )
    def test_refused_before_building(self, call, message):
        full = f"{message} exceeds the limit MAX_CELLS = 10000000"
        with pytest.raises(BadInput, match=f"^{re.escape(full)}$"):
            call()

    @pytest.mark.parametrize("limit", [1, 2, 7, 8, 9, 16, 30])
    def test_capped_counts_refuse_exactly_the_counts_over_the_limit(self, monkeypatch, limit):
        """With a small limit, every helper is refused exactly when m, q or
        its exact count exceeds it, and otherwise builds that many."""
        monkeypatch.setattr(designs, "MAX_CELLS", limit)

        def outcome(call):
            try:
                return len(call())
            except BadInput as exc:
                assert str(exc).endswith(f"exceeds the limit MAX_CELLS = {limit}")
                return None

        for m, q in itertools.product(range(0, 7), range(2, 6)):
            want = q**m if max(m, q, q**m) <= limit else None
            assert outcome(lambda: full_grid(m, q).rows) == want
            if m >= 2:
                want = q ** (m - 1) if max(m, q, q ** (m - 1)) <= limit else None
                assert outcome(lambda: oa_trivial(m, q).rows) == want
            for t in range(1, m + 1):
                n = math.comb(m, t) * q**t
                want = n if max(m, q, n) <= limit else None
                assert outcome(lambda: full_column_set(m, t, q).columns) == want
                for omega in range(t + 1):
                    n = math.comb(m, t) * math.comb(t, omega)
                    want = n if max(m, 2, n) <= limit else None  # q is 2
                    assert outcome(lambda: weight_column_set(m, t, omega).columns) == want


def test_star_import_binds_every_public_class_and_function_and_no_module():
    public = {n: v for n, v in vars(pdacache).items() if not n.startswith("_")}
    assert set(pdacache.__all__) == {n for n, v in public.items() if not inspect.ismodule(v)}
    assert all(inspect.isclass(public[n]) or inspect.isfunction(public[n]) for n in pdacache.__all__)


class TestConstruct:
    def test_reproduces_4x12_example_cell_for_cell(self):
        matrix = matrix_from_rows(MATRIX_4x3_ROWS, 3, 2)
        pda = construct(matrix, full_column_set(3, 2, 2))
        expected = [
            [(e, 0) if e is not None else None for e in row] for row in LABELED_4x12
        ]
        assert label_grid(pda) == expected
        assert verify_pda(pda)
        p = pda_params(pda)
        assert (p.K, p.F, p.Z, p.S) == (12, 4, 3, 4)

    def test_hand_enumerated_2x2_grid(self):
        # rows 00,01,10,11; columns ({0},b) and ({1},b) for b in {0,1}.
        # Star iff the selected coordinate equals b, so 2 stars per column.
        matrix = full_grid(2, 2)
        pda = construct(matrix, full_column_set(2, 1, 2))
        assert verify_pda(pda)
        p = pda_params(pda)
        assert (p.K, p.F, p.Z) == (4, 4, 2)
        # column ({0}, 0): stars at rows 00, 01; entries e = (0, f_1) at 10, 11
        assert pda.grid[0][0] is None and pda.grid[1][0] is None
        assert pda.labels[pda.grid[2][0]] == ((0, 0), 0)
        assert pda.labels[pda.grid[3][0]] == ((0, 1), 0)

    def test_repeated_rows_get_occurrence_orders(self):
        matrix = matrix_from_rows([(0, 0), (0, 0)], 2, 2)
        pda = construct(matrix, full_column_set(2, 1, 2))
        assert verify_pda(pda)
        labels = [pda.labels[c] for row in pda.grid for c in row if c is not None]
        orders = {lab for lab in labels}
        # same e appears with n_e = 0 in row 0 and n_e = 1 in row 1
        assert {n for _, n in orders} == {0, 1}

    def test_param_mismatch(self):
        matrix = full_grid(2, 2)
        with pytest.raises(ParamMismatch):
            construct(matrix, full_column_set(3, 2, 2))
        with pytest.raises(ParamMismatch):
            construct(matrix, full_column_set(2, 1, 3))

    def test_strength_beyond_m_refused(self):
        with pytest.raises(ParamMismatch, match="^t=3 exceeds m=2$"):
            construct(full_grid(2, 2), ColumnIndexSet((), 2, 3, 2))

    def test_star_rule_symmetry(self):
        # star exactly where the row agrees with b on >= 1 chosen coordinate
        matrix = full_grid(3, 2)
        cols = full_column_set(3, 2, 2)
        pda = construct(matrix, cols)
        for j, f in enumerate(matrix.rows):
            for k, (T, b) in enumerate(cols.columns):
                agrees = any(f[i] == x for i, x in zip(T, b))
                assert (pda.grid[j][k] is None) == agrees

    def test_every_output_is_a_pda_random_inputs(self):
        # Proposition-style guarantee: any matrix and any column subset
        # yield a valid PDA.
        rng = random.Random(11)
        for _ in range(40):
            m = rng.randint(2, 4)
            q = rng.randint(2, 3)
            t = rng.randint(1, m)
            nrows = rng.randint(1, 8)
            rows = [tuple(rng.randrange(q) for _ in range(m)) for _ in range(nrows)]
            full = full_column_set(m, t, q)
            ncols = rng.randint(1, len(full))
            subset = tuple(sorted(rng.sample(range(len(full)), ncols)))
            cols = ColumnIndexSet(
                tuple(full.columns[i] for i in subset), m, t, q
            )
            pda = construct(matrix_from_rows(rows, m, q), cols)
            assert verify_pda(pda)

    def test_dimensions_match_inputs(self):
        matrix = full_grid(3, 2)
        cols = full_column_set(3, 1, 2)
        pda = construct(matrix, cols)
        assert pda.F == matrix.nrows
        assert pda.K == len(cols)

    def test_equal_symbols_obey_opposite_star_corners(self):
        # restatement of the defining condition directly on framework output
        pda = construct(full_grid(3, 2), full_column_set(3, 2, 2))
        positions = reference.symbol_positions(pda)
        for cells in positions.values():
            for (j1, k1), (j2, k2) in itertools.combinations(cells, 2):
                assert j1 != j2 and k1 != k2
                assert pda.grid[j1][k2] is None and pda.grid[j2][k1] is None


@st.composite
def framework_inputs(draw):
    """A random row matrix (m <= 4, q <= 4) with duplicate rows in random
    order, and a random subset of the full or a binary weight column set in
    shuffled order."""
    m = draw(st.integers(1, 4))
    weighted = draw(st.booleans())
    q = 2 if weighted else draw(st.integers(2, 4))
    t = draw(st.integers(0 if weighted else 1, m))
    if weighted:
        full = weight_column_set(m, t, draw(st.integers(0, t)))
    else:
        full = full_column_set(m, t, q)
    rows = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * m), max_size=8))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    rows = draw(st.permutations(rows))
    cols = draw(st.lists(st.sampled_from(full.columns), unique=True))
    return matrix_from_rows(rows, m, q), ColumnIndexSet(tuple(cols), m, t, q)


class TestAgainstPerCellReference:
    @given(framework_inputs())
    @settings(max_examples=300, deadline=None)
    def test_random_inputs_match_reference(self, inputs):
        matrix, cols = inputs
        got, want = construct(matrix, cols), reference.construct(matrix, cols)
        assert got.grid == want.grid
        assert list(got.labels.items()) == list(want.labels.items())

    def test_zero_length_rows_match_reference(self):
        matrix, cols = matrix_from_rows([(), ()], 0, 2), weight_column_set(0, 0, 0)
        got, want = construct(matrix, cols), reference.construct(matrix, cols)
        assert got.grid == want.grid == ((0,), (1,))
        assert list(got.labels.items()) == list(want.labels.items())

    # Shapes that a row-major pass over per-subset walks can get wrong: rows
    # with no column at all, no rows, subsets whose columns interleave
    # (so one row's cells of a subset are not contiguous), with repeated
    # rows for positive occurrence orders, and one rest group whose parts
    # repeat, so one part is reached at two nodes of a subset's trie.
    @pytest.mark.parametrize(
        "rows, m, columns, grid",
        [
            ([(0, 1), (1, 0), (0, 1)], 2, ColumnIndexSet((), 2, 1, 2), ((), (), ())),
            ([], 2, full_column_set(2, 1, 2), ()),
            (
                [(0, 0, 1), (1, 1, 0), (0, 0, 1), (1, 0, 0)],
                3,
                ColumnIndexSet(
                    tuple(sorted(full_column_set(3, 2, 2).columns, key=lambda c: c.b)), 3, 2, 2
                ),
                (
                    (None, None, None, None, None, None, None, 0, 1, 2, None, None),
                    (3, None, None, None, 4, 5, None, None, None, None, None, None),
                    (None, None, None, None, None, None, None, 6, 7, 8, None, None),
                    (None, None, None, 1, 9, None, None, None, None, None, None, 2),
                ),
            ),
            (
                [(0, 0, 0), (1, 1, 0), (0, 0, 0), (1, 1, 0)],
                3,
                full_column_set(3, 2, 2),
                (
                    (None, None, None, 0, None, None, None, 1, None, None, None, 2),
                    (3, None, None, None, None, None, 2, None, None, None, 1, None),
                    (None, None, None, 4, None, None, None, 5, None, None, None, 6),
                    (7, None, None, None, None, None, 6, None, None, None, 5, None),
                ),
            ),
            # T = (3,) comes back after T = (0,): numbering each row's cells
            # subset by subset would give row 0 the ids (None, 1, 0)
            (
                [(0, 0, 0, 0), (0, 0, 0, 0)],
                4,
                ColumnIndexSet(
                    tuple(ColumnIndex(T, b) for T, b in [((3,), (0,)), ((0,), (1,)), ((3,), (1,))]),
                    4,
                    1,
                    2,
                ),
                ((None, 0, 1), (None, 2, 3)),
            ),
        ],
        ids=[
            "no-columns",
            "no-rows",
            "interleaved-subsets",
            "one-part-at-two-nodes",
            "subset-runs-in-column-order",
        ],
    )
    def test_pinned_shapes_match_reference(self, rows, m, columns, grid):
        matrix = matrix_from_rows(rows, m, 2)
        got, want = construct(matrix, columns), reference.construct(matrix, columns)
        assert got.grid == want.grid == grid
        assert list(got.labels.items()) == list(want.labels.items())


def test_construct_peak_stays_near_the_result():
    """The build never holds a key for every cell at once: its traced peak
    is at most twice what the finished PDA retains."""
    (built, _), retained, peak = traced(lambda: schemes.build(SchemeSpec("theorem6", m=5, t=2, q=4)))
    assert built.F * built.K == 256 * 160
    assert peak <= 2 * retained, f"peak {peak} B vs {retained} B retained"


def test_construct_peak_with_equal_rows_stays_near_the_result():
    """F equal rows share no trie node, so the first pass holds an entry
    per non-star cell; the second frees them as it numbers the rows, and
    the peak stays near a key grid's (about 2.1x the result) or below."""
    matrix = matrix_from_rows([(0,) * 5] * 256, 5, 4)
    built, retained, peak = traced(lambda: construct(matrix, full_column_set(5, 2, 4)))
    assert built.F * built.K == 256 * 160
    assert peak <= 2.5 * retained, f"peak {peak} B vs {retained} B retained"


def _builder_inputs(monkeypatch, spec):
    """The (matrix, columns, meta) that schemes.build passes to construct."""
    calls = []
    monkeypatch.setattr(schemes, "construct", lambda *args: calls.append(args))
    schemes.build(spec)
    (inputs,) = calls
    return inputs


class TestSchemesAgainstPerCellReference:
    # spec -> the largest occurrence order n_e among its labels; a positive
    # one needs a rest group (rows that agree outside T) of several rows
    @pytest.mark.parametrize(
        "spec, max_n",
        [
            (SchemeSpec("mn", m=5, s=2), 0),
            (SchemeSpec("theorem3", m=5, s=2, t=2, omega=1), 0),
            (SchemeSpec("theorem6", m=4, t=2, q=3), 1),
            (SchemeSpec("theorem7", m=4, t=2, q=5), 0),
            (SchemeSpec("szg_second", m=3, t=2, q=3), 3),
        ],
        ids=repr,
    )
    def test_scheme_matches_reference(self, monkeypatch, spec, max_n):
        matrix, cols, meta = _builder_inputs(monkeypatch, spec)
        got, want = construct(matrix, cols, meta), reference.construct(matrix, cols, meta)
        assert got.grid == want.grid
        assert list(got.labels.items()) == list(want.labels.items())
        assert got.meta == want.meta == meta
        assert max(n for _, n in got.labels.values()) == max_n
