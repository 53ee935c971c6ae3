"""The general construction: column index sets and the entry rule."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import LABELED_4x12, MATRIX_4x3_ROWS, label_grid
from pdacache import schemes
from pdacache.designs import full_grid, matrix_from_rows
from pdacache.errors import ParamMismatch
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
        positions = pda.symbol_positions
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
