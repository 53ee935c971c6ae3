"""PDA verification, parameter extraction, and the lower-bound checks."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import (
    LABELED_4x12,
    WEIGHT_EXAMPLE_CELLS,
    count_index_builds,
    labeled_cells_to_pda,
)
from pdacache import (
    Pda,
    SchemeSpec,
    build,
    build_szg_second,
    build_theorem6,
    build_theorem7,
    check_lower_bounds,
    is_regular,
    pda_from_grid,
    pda_params,
    star_counts,
    structurally_equal,
    verify_pda,
)
from pdacache.errors import BadLength, PreconditionUnmet


# One spec per family, small enough for the reference implementations.
SCHEME_SPECS = (
    SchemeSpec("theorem3", m=5, s=2, t=2, omega=1),
    SchemeSpec("theorem6", m=4, t=2, q=3),
    SchemeSpec("theorem7", m=4, t=2, q=3),
    SchemeSpec("mn", m=5, s=2),
    SchemeSpec("szg_first", m=5, s=2, t=2),
    SchemeSpec("szg_second", m=3, t=2, q=3),
)
SCHEME_PDAS = tuple(build(spec)[0] for spec in SCHEME_SPECS)

# Up to 6 x 6 over four symbols, so symbols repeat within rows and columns.
GRIDS = st.integers(0, 6).flatmap(
    lambda k: st.lists(
        st.lists(st.one_of(st.none(), st.integers(0, 3)), min_size=k, max_size=k),
        max_size=6,
    )
)


@st.composite
def mutated_scheme_pdas(draw):
    """A scheme PDA with one cell made a star, an existing symbol or a new one."""
    p = draw(st.sampled_from(SCHEME_PDAS))
    j, k = draw(st.integers(0, p.F - 1)), draw(st.integers(0, p.K - 1))
    grid = [list(row) for row in p.grid]
    grid[j][k] = draw(st.one_of(st.none(), st.integers(0, len(p.labels))))
    return pda_from_grid(grid)


class TestVerify:
    def test_example_array_accepted(self, example_pda):
        assert verify_pda(example_pda)

    def test_all_star_grid(self):
        p = pda_from_grid([[None, None], [None, None]])
        assert verify_pda(p)
        assert pda_params(p).S == 0

    def test_duplicate_in_column_rejected(self, example_pda):
        grid = [list(r) for r in example_pda.grid]
        grid[0][3] = 1  # column 3 now holds two 1s (rows 0 and 3)
        verdict = verify_pda(pda_from_grid(grid))
        assert not verdict
        assert verdict.witness is not None

    def test_missing_star_corner_rejected(self):
        p = pda_from_grid([[0, 1], [1, 0]])
        verdict = verify_pda(p)
        assert not verdict
        j1, k1, j2, k2 = verdict.witness
        assert {j1, j2} == {0, 1} and {k1, k2} == {0, 1}

    def test_same_symbol_twice_in_row_rejected(self):
        p = pda_from_grid([[0, 0], [None, None]])
        assert not verify_pda(p)


class TestRegularityAndParams:
    def test_example_z2(self, example_pda):
        z, counts = is_regular(example_pda)
        assert z == 2

    def test_example_params(self, example_pda):
        p = pda_params(example_pda)
        assert (p.K, p.F, p.Z, p.S) == (6, 4, 2, 4)
        assert p.R == 1
        assert p.gain_histogram == {3: 4}

    def test_framework_4x12_params(self):
        p = pda_params(labeled_cells_to_pda(LABELED_4x12))
        assert (p.K, p.F, p.Z, p.S) == (12, 4, 3, 4)
        assert p.R == 1 and p.gain_histogram == {3: 4}

    def test_weight_example_params(self):
        p = pda_params(labeled_cells_to_pda(WEIGHT_EXAMPLE_CELLS))
        assert (p.K, p.F, p.Z, p.S) == (12, 6, 4, 6)
        # 24 non-star cells over 6 symbols: every gain is 4 (< C(4,2) = 6)
        assert p.R == 1 and p.gain_histogram == {4: 6}

    def test_irregular_counts_reported(self):
        p = pda_from_grid([[None, 0], [None, None]])
        z, counts = is_regular(p)
        assert z is None
        assert counts == [2, 1]


class TestLowerBounds:
    def test_theorem6_tight_case(self):
        pda, _ = build_theorem6(3, 2, 2)
        rep = check_lower_bounds(pda, 3, 2, 2)
        assert rep.load_ok and rep.load_tight
        assert rep.subpacketization_ok
        assert rep.F == 4 >= rep.subpacketization_bound == 2
        assert rep.R == 1

    def test_theorem7_strict_case(self):
        pda, _ = build_theorem7(4, 2, 3)
        rep = check_lower_bounds(pda, 4, 2, 3)
        assert rep.load_ok and not rep.load_tight
        assert rep.R == 8 > 4
        assert rep.subpacketization_ok is None

    def test_szg_second_bound_not_tight_in_f(self):
        pda, _ = build_szg_second(3, 2, 2)
        rep = check_lower_bounds(pda, 3, 2, 2)
        assert rep.load_ok and rep.load_tight
        assert rep.F == 8 >= rep.subpacketization_bound == 2

    def test_precondition_checked(self, example_pda):
        with pytest.raises(PreconditionUnmet):
            check_lower_bounds(example_pda, 3, 2, 2)


class TestStructuralEquality:
    def test_row_permutation_with_relabel(self, example_pda):
        perm = [2, 0, 3, 1]
        relabel = {0: 3, 1: 2, 2: 1, 3: 0}
        grid = [
            [relabel[c] if c is not None else None for c in example_pda.grid[j]]
            for j in perm
        ]
        assert structurally_equal(example_pda, pda_from_grid(grid))

    def test_detects_difference(self, example_pda):
        grid = [list(r) for r in example_pda.grid]
        grid[0][0], grid[0][3] = grid[0][3], grid[0][0]
        assert not structurally_equal(example_pda, pda_from_grid(grid))

    def test_inconsistent_relabel_rejected(self):
        a = pda_from_grid([[0, None], [None, 0]])
        b = pda_from_grid([[0, None], [None, 1]])
        assert not structurally_equal(a, b)


class TestJsonRoundTrip:
    def test_grid_and_labels_preserved(self, example_pda):
        text = example_pda.to_json()
        back = Pda.from_json(text)
        assert back.grid == example_pda.grid
        assert bool(verify_pda(back)) and pda_params(back) == pda_params(example_pda)

    @pytest.mark.parametrize("spec", SCHEME_SPECS, ids=repr)
    def test_labels_round_trip(self, spec):
        pda, _ = build(spec)
        back = Pda.from_json(pda.to_json())
        assert list(back.labels.items()) == list(pda.labels.items())
        assert back.meta == pda.meta

    def test_declared_shape_checked(self):
        with pytest.raises(ValueError):
            Pda.from_json('{"F": 3, "K": 1, "grid": [[null]]}')

    @pytest.mark.parametrize(
        "header, labels, field",
        [
            ('"F": true, "K": 1', "{}", "F must be"),
            ('"F": 1, "K": 1.0', "{}", "K must be"),
            ('"F": 1, "K": -1', "{}", "K must be"),
            ('"F": 1, "K": 1', '{"x": {"e": [0], "n": 0}}', "label key 'x'"),
            ('"F": 1, "K": 1', '{"0": {"e": "ab", "n": 0}}', "label 0: e must be"),
            ('"F": 1, "K": 1', '{"0": {"e": [true], "n": 0}}', "label 0: e must be"),
            ('"F": 1, "K": 1', '{"0": {"e": [0], "n": "x"}}', "label 0: n must be"),
            ('"F": 1, "K": 1', '{"0": {"e": [0], "n": false}}', "label 0: n must be"),
            ('"F": 1, "K": 1', '{"0": {"e": [0], "n": -1}}', "label 0: n must be"),
        ],
    )
    def test_header_and_labels_checked(self, header, labels, field):
        with pytest.raises(ValueError, match=field):
            Pda.from_json(f'{{{header}, "grid": [[null]], "labels": {labels}}}')

    @pytest.mark.parametrize("cell", ["true", "-1", "1.5", '"a"'])
    def test_bad_cell_names_its_row(self, cell):
        text = f'{{"F": 3, "K": 2, "grid": [[0, null], [null, {cell}], [1, 0]]}}'
        with pytest.raises(ValueError, match="row 1 has a cell that is not null or an integer >= 0"):
            Pda.from_json(text)

    def test_short_row_named_before_a_later_bad_cell(self):
        text = '{"F": 2, "K": 2, "grid": [[0], [null, true]]}'
        with pytest.raises(ValueError, match="row 0 has 1 cells, not K=2"):
            Pda.from_json(text)

    @pytest.mark.parametrize("spec", SCHEME_SPECS, ids=repr)
    def test_text_is_the_list_encoding(self, spec):
        pda, _ = build(spec)
        obj = {
            "F": pda.F,
            "K": pda.K,
            "grid": [list(row) for row in pda.grid],
            "labels": {str(s): {"e": list(e), "n": n} for s, (e, n) in pda.labels.items()},
            "meta": pda.meta,
        }
        assert pda.to_json() == json.dumps(obj)

    @pytest.mark.parametrize("key", ["-5", "1"])
    def test_label_must_name_a_grid_symbol(self, key):
        text = f'{{"F": 2, "K": 2, "grid": [[0, null], [null, 0]], "labels": {{"{key}": {{"e": [0], "n": 0}}}}}}'
        with pytest.raises(ValueError, match=f"label key '{key}' is not a symbol id"):
            Pda.from_json(text)


def _verdict(v):
    return v.ok, v.witness, v.reason


class TestAgainstPairwiseReference:
    @given(st.one_of(GRIDS.map(pda_from_grid), mutated_scheme_pdas()))
    @example(pda_from_grid([[0, 1], [None, 0]]))  # one corner is not a star
    @example(pda_from_grid([[0, None, 0], [None, 0, None]]))  # row repeat only
    @example(pda_from_grid([[0, None], [0, None], [None, 1]]))  # column repeat only
    # The masks first fail on symbol 1 in column 0; the pair scan names symbol
    # 0, whose corner (0, 2) holds 5.
    @example(pda_from_grid([[None, 0, 5], [1, 7, 0], [1, None, None]]))
    @settings(max_examples=400, deadline=None)
    def test_verify_matches_reference(self, p):
        assert _verdict(verify_pda(p)) == _verdict(reference.verify_pda(p))

    def test_accepting_builds_no_symbol_index(self, monkeypatch):
        calls = count_index_builds(monkeypatch)
        for p in SCHEME_PDAS:
            fresh = pda_from_grid(p.grid)
            assert verify_pda(fresh)
            assert "symbol_positions" not in vars(fresh)
        assert calls == []
        rejected = pda_from_grid([[0], [0]])
        assert _verdict(verify_pda(rejected)) == (
            False, (0, 0, 1, 0), "symbol 0 repeats in a row/column"
        )
        assert len(calls) == 1 and calls[0] is rejected

    @given(GRIDS.map(pda_from_grid))
    @settings(max_examples=200, deadline=None)
    def test_params_match_reference(self, p):
        got, want = pda_params(p), reference.pda_params(p)
        assert got == want
        assert list(got.gain_histogram.items()) == list(want.gain_histogram.items())
        assert star_counts(p) == reference.star_counts(p)

    @pytest.mark.parametrize("p", SCHEME_PDAS, ids=[repr(s) for s in SCHEME_SPECS])
    def test_scheme_params_match_reference(self, p):
        assert pda_params(p) == reference.pda_params(p)
        assert _verdict(verify_pda(p)) == _verdict(reference.verify_pda(p))

    @pytest.mark.parametrize("grid", [[[None, 0], [1]], [[None], [1, None]]])
    def test_ragged_grid_refused(self, grid):
        with pytest.raises(BadLength, match="row 1 has"):
            pda_from_grid(grid)
        with pytest.raises(BadLength, match="row 1 has"):
            Pda(tuple(tuple(row) for row in grid))


class TestCachedIndex:
    @given(GRIDS.map(pda_from_grid))
    @settings(max_examples=200, deadline=None)
    def test_index_and_star_rows_match_reference(self, p):
        index = p.symbol_positions
        assert type(index) is dict
        assert all(type(cells) is tuple for cells in index.values())
        want = reference.symbol_positions(p)
        assert list(index) == list(want)
        assert {s: list(cells) for s, cells in index.items()} == want
        assert p.star_rows == tuple(
            tuple(j for j in range(p.F) if p.grid[j][k] is None) for k in range(p.K)
        )

    def test_missing_symbol_raises_without_growing_the_index(self):
        p = pda_from_grid([[None, 0], [0, None]])
        index = p.symbol_positions
        with pytest.raises(KeyError):
            index[1]
        assert index == {0: ((0, 1), (1, 0))}
        assert p.symbol_positions is index
