"""PDA verification, parameter extraction, and the lower-bound checks."""

import dataclasses
import functools
import hashlib
import json
import operator
import pickle
import random
import re
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pdacache
import reference
from conftest import (
    LABELED_4x12,
    WEIGHT_EXAMPLE_CELLS,
    count_index_builds,
    labeled_cells_to_pda,
    traced,
)
from pdacache import (
    Pda,
    SchemeSpec,
    build,
    build_szg_second,
    build_theorem6,
    build_theorem7,
    check_lower_bounds,
    pda_params,
    run_round_trip,
    verify_pda,
)
from pdacache import framework
from pdacache import pda as pda_mod
from pdacache.designs import oa_trivial
from pdacache.errors import BadInput, BadLength, PdacacheError, PreconditionUnmet
from pdacache.pda import Labels, Verdict, symbol_cells


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

# The benchmark's build ladder: every family, up to theorem7(6,2,5).
LADDER_SPECS = (
    SchemeSpec("mn", m=10, s=3),
    SchemeSpec("theorem3", m=8, s=4, t=2, omega=1),
    SchemeSpec("szg_second", m=4, t=2, q=3),
    SchemeSpec("theorem7", m=4, t=2, q=5),
    SchemeSpec("theorem6", m=4, t=2, q=5),
    SchemeSpec("theorem6", m=5, t=2, q=4),
    SchemeSpec("theorem3", m=10, s=4, t=3, omega=1),
    SchemeSpec("theorem7", m=5, t=2, q=7),
    SchemeSpec("theorem7", m=6, t=2, q=5),
)

# sha256 of to_json for each spec, pinned from the eager-label construct, so
# labels decoded on first read must write the same text byte for byte.
TO_JSON_SHA256 = {
    LADDER_SPECS[0]: "47f9de15a226c58c6f32b3a197d184e931c46b63143bc1de052c675624c1f083",
    LADDER_SPECS[1]: "ed088dde1acd62432f125597474be015a5ee2ca3b714c565725a60259e588fc5",
    LADDER_SPECS[2]: "3c376aeb9f9e6ff828e13ee1db1381eda77ed1596ea33ca15b47546b6ca667a4",
    LADDER_SPECS[3]: "1a61ad327872fc8256031ba87a47f87db8483420b453180133bcc5c5a9cab44a",
    LADDER_SPECS[4]: "ee3fca5152bbe957787619c138cbb48b29814d4614061f650820986fb209fd17",
    LADDER_SPECS[5]: "d7a688bab3da59cc3eb73a6a1a0c45f8ff19bc7e866ef07820aa6f2ba7967f46",
    LADDER_SPECS[6]: "264cb63ece0757d0a013b4b5e720606d81f94923cc9639df1d37922347fae9c2",
    LADDER_SPECS[7]: "f46ee7b5b367af02370194020b33448950ee8acbb2d522646772096cd5241e4b",
    LADDER_SPECS[8]: "d09a6d3c49bf35ecb13e6bfcd7d0ed09ba547cf8fe39921a18de0688a079b85b",
    SCHEME_SPECS[0]: "6a9f1c73831282cf646d45d04c104306aba1dfc844c93abc8b8522ef524f77e3",
    SCHEME_SPECS[1]: "90a863ea3796e48375b772a7af58bc10ca4d5e9fe6bb2cf5b20b916cc2bd99f3",
    SCHEME_SPECS[2]: "039297f55fb34bd9084e2e59897470ea9b3f20cf94f8006d066e30f19d0de7eb",
    SCHEME_SPECS[3]: "ed390b6dc5941e81a5b3a77194001d7c6c1b59b110f82c769f24a893530db029",
    SCHEME_SPECS[4]: "89461fdd61d29037cb7da41a7b5748baa3a4cc095dfa5714a544a58ab2f6b628",
    SCHEME_SPECS[5]: "493153ae74a34f08c476ec56576ebe11e663135f888ab0ee4723925946f0c5b0",
}

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
    return Pda(grid)


class TestVerify:
    def test_example_array_accepted(self, example_pda):
        assert verify_pda(example_pda)

    def test_all_star_grid(self):
        p = Pda([[None, None], [None, None]])
        assert verify_pda(p)
        assert pda_params(p).S == 0

    def test_duplicate_in_column_rejected(self, example_pda):
        grid = [list(r) for r in example_pda.grid]
        grid[0][3] = 1  # column 3 now holds two 1s (rows 0 and 3)
        verdict = verify_pda(Pda(grid))
        assert not verdict
        assert verdict.witness is not None

    def test_missing_star_corner_rejected(self):
        p = Pda([[0, 1], [1, 0]])
        verdict = verify_pda(p)
        assert not verdict
        j1, k1, j2, k2 = verdict.witness
        assert {j1, j2} == {0, 1} and {k1, k2} == {0, 1}

    def test_same_symbol_twice_in_row_rejected(self):
        p = Pda([[0, 0], [None, None]])
        assert not verify_pda(p)


class TestRegularityAndParams:
    def test_example_z2(self, example_pda):
        assert pda_params(example_pda).Z == 2

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
        p = Pda([[None, 0], [None, None]])
        params = pda_params(p)
        assert params.Z is None
        assert params.Z_cols == (2, 1)


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

    def test_star_fraction_checked(self):
        all_stars = Pda([[None] * 12])  # K = C(3,2)*2^2, but Z/F = 1
        with pytest.raises(PreconditionUnmet, match=r"^Z/F does not equal 1 - \(\(q-1\)/q\)\^t$"):
            check_lower_bounds(all_stars, 3, 2, 2)

    @pytest.mark.parametrize(
        "m, t, q, message",
        [
            ("a", 1, 2, "m must be an integer, not 'a'"),
            (3, 2.0, 2, "t must be an integer, not 2.0"),
            (3, 2, True, "q must be an integer, not True"),
            (3, 2, None, "q must be an integer, not None"),
        ],
    )
    def test_non_int_parameters_refused(self, m, t, q, message):
        pda, _ = build_theorem6(3, 2, 2)
        with pytest.raises(BadInput, match=f"^{re.escape(message)}$"):
            check_lower_bounds(pda, m, t, q)

    @pytest.mark.parametrize(
        "m, t, q", [(-1, 0, 2), (2, -1, 2), (1, 0, 0), (2, 3, 2), (3, 2, 1), (0, 0, 2)]
    )
    def test_out_of_range_parameters_refused(self, m, t, q):
        pda, _ = build_theorem6(3, 2, 2)
        message = f"need 0 < t <= m and q >= 2, got m={m}, t={t}, q={q}"
        with pytest.raises(BadInput, match=f"^{re.escape(message)}$"):
            check_lower_bounds(pda, m, t, q)

    @pytest.mark.parametrize(
        "m, t, q, message",
        [
            (10**11, 10**11, 10**11, "m=100000000000"),
            (4, 2, 10**6, "C(4,2)*1000000^2 columns"),
            (10**7, 5 * 10**6, 2, "C(10000000,5000000)*2^5000000 columns"),
        ],
    )
    def test_sizes_full_column_set_refuses_are_refused(self, m, t, q, message):
        """The same size limit as full_column_set, before q**t is computed."""
        full = f"{message} exceeds the limit MAX_CELLS = 10000000"
        with pytest.raises(BadInput, match=f"^{re.escape(full)}$"):
            check_lower_bounds(Pda([[0]]), m, t, q)


@pytest.mark.parametrize(
    "call", [verify_pda, pda_params, functools.partial(check_lower_bounds, m=3, t=2, q=2)]
)
@pytest.mark.parametrize(
    "arg, name", [(5, "int"), ([[0]], "list"), (None, "NoneType"), ((((0,),),), "tuple")]
)
def test_entry_point_refuses_a_non_pda(call, arg, name):
    with pytest.raises(BadInput, match=f"takes a Pda, not {name}$"):
        call(arg)


class TestStructuralEquality:
    def test_row_permutation_with_relabel(self, example_pda):
        perm = [2, 0, 3, 1]
        relabel = {0: 3, 1: 2, 2: 1, 3: 0}
        grid = [
            [relabel[c] if c is not None else None for c in example_pda.grid[j]]
            for j in perm
        ]
        assert reference.structurally_equal(example_pda, Pda(grid))

    def test_detects_difference(self, example_pda):
        grid = [list(r) for r in example_pda.grid]
        grid[0][0], grid[0][3] = grid[0][3], grid[0][0]
        assert not reference.structurally_equal(example_pda, Pda(grid))

    def test_inconsistent_relabel_rejected(self):
        a = Pda([[0, None], [None, 0]])
        b = Pda([[0, None], [None, 1]])
        assert not reference.structurally_equal(a, b)


# A one-cell document holding symbol 0, with the labels object put in.
ONE_CELL = '{"F": 1, "K": 1, "grid": [[0]], "labels": %s}'


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

    def test_bad_cell_named_before_a_later_short_row(self):
        text = '{"F": 2, "K": 2, "grid": [[true, null], [null]]}'
        with pytest.raises(BadInput, match="row 0 has a cell that is not null"):
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "list indices must be integers"),
            ("{}", "'grid'"),
            ('{"F": 1, "K": 1, "grid": 5}', "not iterable"),
            ('{"F": 1, "K": 1, "grid": [5]}', "not iterable"),
            ('{"K": 1, "grid": [[null]]}', "'F'"),
            ('{"F": -1, "K": 1, "grid": [[0]]}', "F must be an integer >= 0"),
            ('{"F": 2, "K": 1, "grid": [[0]]}', "declared F=2 but the grid has 1 rows"),
            ('{"F": 1, "K": 2, "grid": [[0]]}', "row 0 has 1 cells, not K=2"),
            ('{"F": 0, "K": 5, "grid": []}', "declared K=5 but the grid has no rows"),
            (ONE_CELL % "[]", "has no attribute 'items'"),
            (ONE_CELL % "null", "has no attribute 'items'"),
            (ONE_CELL % '{"0": 5}', "not subscriptable"),
            (ONE_CELL % '{"0": {"e": [0]}}', "'n'"),
            (ONE_CELL % '{"x": {"e": [0], "n": 0}}', "label key 'x' is not an integer"),
            (ONE_CELL % '{"0": {"e": "ab", "n": 0}}', "label 0: e must be"),
            (ONE_CELL % '{"0": {"e": [0], "n": -1}}', "label 0: n must be"),
            (ONE_CELL % '{"3": {"e": [0], "n": 0}}', "label key '3' is not a symbol id"),
            ("[" * 200_000, "maximum recursion depth exceeded"),
        ],
        ids=lambda v: v[:40],
    )
    def test_malformed_document_raises_bad_input(self, text, message):
        with pytest.raises(BadInput, match=message) as info:
            Pda.from_json(text)
        assert isinstance(info.value, PdacacheError) and isinstance(info.value, ValueError)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit in this Python"
    )
    def test_integer_too_long_for_json_raises_bad_input(self):
        with pytest.raises(BadInput, match="integer string conversion"):
            Pda.from_json('{"F": 1, "K": 1, "grid": [[' + "9" * 5000 + "]]}")

    def test_text_that_is_not_json_keeps_its_decode_error(self):
        with pytest.raises(json.JSONDecodeError):
            Pda.from_json("not json")

    def test_empty_grid_with_zero_K_loads(self):
        p = Pda.from_json('{"F": 0, "K": 0, "grid": []}')
        assert (p.F, p.K) == (0, 0)


@pytest.mark.parametrize("cell", ["a", 1.5, 0.5, -1, True])
def test_pda_refuses_a_cell_as_from_json_does(cell):
    message = "^row 0 has a cell that is not null or an integer >= 0$"
    for grid in ([[cell]], [[cell, None], [None, cell]]):
        with pytest.raises(BadInput, match=message):
            Pda(grid)
        with pytest.raises(BadInput, match=message):
            Pda.from_json(json.dumps({"F": len(grid), "K": len(grid), "grid": grid}))


@pytest.mark.parametrize(
    "labels",
    [None, {}, {0: ((), 0)}, {1: ((2, 3), 7), 0: ((1,), 0)}, Labels(lambda: {0: ((1,), 0)})],
)
def test_labels_round_trip(labels):
    p = Pda(((0, None), (1, 0)), labels)
    back = Pda.from_json(p.to_json())
    assert back == p and dict(back.labels or {}) == dict(labels or {})


# Keys, e and n of labels that to_json and from_json would not carry back:
# keys not an int symbol id, e not a tuple of ints, n not an int >= 0.
BAD_LABEL_KEYS = st.one_of(st.integers(0, 4), st.sampled_from(["0", "1", True, 0.0, None]))
BAD_LABEL_E = st.one_of(
    st.lists(st.one_of(st.integers(0, 2), st.booleans(), st.floats(0, 1)), max_size=2),
    st.sampled_from(["ab", None, (-1,), (True,)]),
)
BAD_LABEL_VALUES = st.one_of(
    st.tuples(BAD_LABEL_E, st.integers(0, 3)),
    st.tuples(st.just((0,)), st.sampled_from([-1, True, 1.0])),
    st.sampled_from([5, None, "ab", ()]),
)
GOOD_LABEL_VALUES = st.tuples(st.lists(st.integers(0, 4), max_size=3).map(tuple), st.integers(0, 3))


@st.composite
def grids_and_labels(draw):
    """A grid from GRIDS and labels keyed by its symbols, as a dict or a
    Labels; half the time a key or label may come from the bad grammar."""
    grid = draw(GRIDS)
    symbols = sorted({c for row in grid for c in row} - {None})
    keys = st.sampled_from(symbols) if symbols else BAD_LABEL_KEYS
    values = GOOD_LABEL_VALUES
    if draw(st.booleans()):
        keys, values = keys | BAD_LABEL_KEYS, values | BAD_LABEL_VALUES
    labels = draw(st.none() | st.dictionaries(keys, values, min_size=bool(symbols), max_size=4))
    if labels is not None and draw(st.booleans()):
        return grid, Labels(lambda: labels)
    return grid, labels


@given(grids_and_labels())
@example(([[0, None], [1, 0]], {1: ((2, 3), 7), 0: ((1,), 0)}))
@example(([[0]], {0: ([1], 0)}))
@example(([[1]], {"1": ((1,), 0)}))
@settings(max_examples=300, deadline=None)
def test_every_accepted_pda_round_trips(grid_and_labels):
    """Every Pda the constructor accepts writes to_json text that from_json
    loads back with an equal grid and labels."""
    grid, labels = grid_and_labels
    try:
        p = Pda(grid, labels)
    except BadInput:
        return
    back = Pda.from_json(p.to_json())
    assert back.grid == p.grid and (back.labels is None) == (labels is None)
    assert dict(back.labels or {}) == dict(labels or {})


@pytest.mark.parametrize(
    "labels, meta, message",
    [
        (5, None, "^labels must be a Mapping or None, not int$"),
        ([(0, ((1,), 0))], None, "^labels must be a Mapping or None, not list$"),
        (None, 5, "^meta must be a dict or None, not int$"),
        ({}, (("scheme", "mn"),), "^meta must be a dict or None, not tuple$"),
        ({1: "junk"}, None, r"^to_json cannot write the labels: too many values to unpack"),
        (Labels(lambda: 5), None, "^to_json cannot write the labels: 'int' object is not iter"),
        ({7: ((1,), 0)}, None, "^label key '7' is not a symbol id of the grid$"),
        ({"1": ((1,), 0)}, None, r"^label '1': \(\(1,\), 0\) would load back as None$"),
        ({True: ((1,), 0)}, None, "^label key 'True' is not an integer$"),
        ({1.0: ((1,), 0)}, None, "^label key '1.0' is not an integer$"),
        ({1: ([1], 0)}, None, r"^label 1: \(\[1\], 0\) would load back as \(\(1,\), 0\)$"),
        ({1: ((0.5,), 0)}, None, r"^label 1: e must be a list of integers, not \[0.5\]$"),
        (None, {"a": {1}}, "^to_json cannot write the meta: Object of type set is not JSON"),
    ],
)
def test_bad_labels_and_meta_refused(labels, meta, message):
    with pytest.raises(BadInput, match=message):
        Pda(((1,),), labels, meta)


def test_file_meta_that_is_not_an_object_refused():
    with pytest.raises(BadInput, match="^meta must be a dict or None, not int$"):
        Pda.from_json('{"F": 1, "K": 1, "grid": [[1]], "meta": 5}')


@pytest.mark.parametrize("grid", [5, (5,), ((0,), 5), [(0,)], ([0],), [[0], 5]])
def test_grid_that_is_not_rows_refused(grid):
    if type(grid) is int or 5 in grid:  # not rows at all
        with pytest.raises(BadInput, match="^the grid must be an iterable of rows: "):
            Pda(grid)
    else:  # any iterable of row iterables, kept as a tuple of tuples
        assert Pda(grid) == Pda(((0,),)) and Pda(grid).grid == ((0,),)


def test_construct_and_from_json_skip_the_constructor_check(monkeypatch):
    """The build pays no cell check, and from_json only its own pass."""
    checked = []
    check = pda_mod._check_cells

    def recorded(grid, K):
        checked.append(len(grid))
        return check(grid, K)

    monkeypatch.setattr(pda_mod, "_check_cells", recorded)
    built, _ = build(SchemeSpec("theorem6", m=4, t=2, q=3))
    assert checked == []
    back = Pda.from_json(built.to_json())
    assert checked == [built.F] and back.grid == built.grid
    assert Pda(built.grid) == Pda._trusted(built.grid, None, None)
    assert checked == [built.F, built.F]


def test_pda_from_grid_is_the_checked_constructor():
    # Kept as a name because perfbench/workloads.py (_plant_fault, _corrupt)
    # calls pdacache.pda_from_grid.
    assert pdacache.pda_from_grid is pdacache.Pda


def record_label_decodes(monkeypatch):
    """Make construct's label decoder record its (keys, m, q) on each call,
    and return that list."""
    calls = []
    decode = framework._decode_labels

    def recorded(keys, m, q):
        calls.append((list(keys), m, q))
        return decode(keys, m, q)

    monkeypatch.setattr(framework, "_decode_labels", recorded)
    return calls


class TestLabels:
    @pytest.mark.parametrize("spec", LADDER_SPECS + SCHEME_SPECS, ids=repr)
    def test_decoded_on_first_read_as_construct_did(self, monkeypatch, spec):
        calls = record_label_decodes(monkeypatch)
        pda, _ = build(spec)
        assert verify_pda(pda)
        S = pda_params(pda).S
        assert calls == []  # build, verify_pda and pda_params read no label
        items = list(pda.labels.items())
        ((keys, m, q),) = calls
        assert items == list(reference.decode_label_keys(keys, m, q).items())
        assert len(pda.labels) == S and len(calls) == 1

    @pytest.mark.parametrize("spec", LADDER_SPECS + SCHEME_SPECS, ids=repr)
    def test_text_and_equality_survive_a_round_trip(self, spec):
        pda, _ = build(spec)
        text = pda.to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == TO_JSON_SHA256[spec]
        back = Pda.from_json(text)
        assert type(back.labels) is Labels
        assert back == pda and pda == back
        assert back.to_json() == text

    @pytest.mark.parametrize(
        "load", [lambda p: p, lambda p: Pda.from_json(p.to_json())], ids=["built", "loaded"]
    )
    def test_labels_behave_as_a_read_only_dict(self, load):
        pda = load(build(SchemeSpec("theorem6", m=4, t=2, q=3))[0])
        # build_theorem6's inputs, through the per-cell construction
        labels = pda.labels
        want = reference.construct(oa_trivial(4, 3), framework.full_column_set(4, 2, 3)).labels
        assert type(want) is dict
        assert labels == want and want == labels
        assert not labels != want and not want != labels
        changed = {**want, 0: ((9, 9, 9, 9), 0)}
        assert labels != changed and changed != labels and labels != {} and {} != labels
        assert len(labels) == len(want)
        assert list(labels) == list(want) and list(labels.values()) == list(want.values())
        missing = len(want)
        with pytest.raises(KeyError) as info:
            labels[missing]
        assert info.value.args == (missing,)
        assert missing not in labels and labels.get(missing) is None and 0 in labels
        with pytest.raises(TypeError):
            labels[0] = ((0, 0, 0, 0), 0)

    def test_decoder_runs_once_then_is_dropped(self):
        class Source(list):
            pass

        source, calls = Source([((1, 2), 0), ((0, 2), 1)]), []

        def decode(src):
            calls.append(len(src))
            return dict(enumerate(src))

        labels = Labels(functools.partial(decode, source))
        alive = weakref.ref(source)
        del source
        assert alive() is not None and calls == []
        assert len(labels) == 2 and labels[1] == ((0, 2), 1) and list(labels) == [0, 1]
        assert labels == {0: ((1, 2), 0), 1: ((0, 2), 1)}
        assert calls == [2] and alive() is None

    @pytest.mark.parametrize("read_first", [False, True])
    def test_pickles_before_and_after_the_first_read(self, read_first):
        built, _ = build(SchemeSpec("theorem7", m=4, t=2, q=3))
        for pda in (built, Pda.from_json(built.to_json())):
            if read_first:
                len(pda.labels)
            back = pickle.loads(pickle.dumps(pda))
            assert back == built and list(back.labels.items()) == list(built.labels.items())

    def test_unlabeled_pda_has_no_labels(self, example_pda):
        assert example_pda.labels is None
        text = example_pda.to_json()
        assert '"labels"' not in text
        back = Pda.from_json(text)
        assert back.labels is None and back == example_pda

    def test_plain_dict_labels_write_and_compare_as_before(self):
        p = Pda(((0, None), (None, 0)), {0: ((1, 2), 0)}, {"scheme": "x"})
        text = p.to_json()
        assert text == (
            '{"F": 2, "K": 2, "grid": [[0, null], [null, 0]], '
            '"labels": {"0": {"e": [1, 2], "n": 0}}, "meta": {"scheme": "x"}}'
        )
        back = Pda.from_json(text)
        assert back == p and p == back and back.to_json() == text

    @pytest.mark.parametrize(
        "labels, key",
        [
            ('{"05": {"e": [0], "n": 0}}', "05"),
            ('{" 5": {"e": [0], "n": 0}}', " 5"),
            ('{"5_0": {"e": [0], "n": 0}}', "5_0"),
            ('{"5": {"e": [0], "n": 0}, "05": {"e": [1], "n": 0}}', "05"),
        ],
    )
    def test_non_canonical_label_key_refused(self, labels, key):
        text = f'{{"F": 1, "K": 2, "grid": [[5, 50]], "labels": {labels}}}'
        parsed = json.loads(text)
        reference.load_labels(parsed["labels"], parsed["grid"])  # int() reads the key
        message = f"^label key {re.escape(repr(key))} is not a symbol id of the grid$"
        with pytest.raises(BadInput, match=message):
            Pda.from_json(text)


# A grid whose symbols are 0, 1, 3, 5, 10 and 50, so that "5_0" and "1_0"
# read with int() name grid symbols.
LABEL_GRID = [[0, 1, 5, None], [10, 50, None, 3]]
CANONICAL_KEYS = st.sampled_from(["0", "1", "3", "5", "10", "50"])
LABEL_KEYS = st.one_of(
    CANONICAL_KEYS,
    st.sampled_from(["00", "05", "010", " 5", "5 ", " 10", "5_0", "1_0", "+5"]),  # non-canonical
    st.integers(-60, -1).map(str),  # negative
    st.sampled_from(["x", "", "None", "5a", "0x5", "-", "1.0"]),  # not numeric
    st.integers(0, 60).map(str),  # mostly not a grid symbol
)
VALID_E = st.lists(st.integers(-2, 4), max_size=3)
LABEL_E = st.one_of(
    VALID_E,
    st.lists(
        st.one_of(st.integers(0, 4), st.booleans(), st.floats(-2, 2), st.text(max_size=1)),
        max_size=3,
    ),
    st.one_of(st.integers(0, 4), st.text(max_size=2), st.none(), st.just({"0": 1})),
)
VALID_N = st.integers(0, 3)
LABEL_N = st.one_of(VALID_N, st.integers(-3, -1), st.booleans(), st.text(max_size=1), st.floats(-1, 1))


@st.composite
def label_values(draw):
    """A label {"e": ..., "n": ...}, now and then without e or n."""
    value = {"e": draw(LABEL_E), "n": draw(LABEL_N)}
    for key in draw(st.sampled_from([()] * 8 + [("e",), ("n",)])):
        del value[key]
    return value


VALID_LABELS = st.dictionaries(
    CANONICAL_KEYS, st.fixed_dictionaries({"e": VALID_E, "n": VALID_N}), max_size=4
)


@st.composite
def one_fault_labels(draw):
    """Valid labels with one label's key, e or n drawn from the wider grammar."""
    labels = draw(VALID_LABELS.filter(bool))
    key = draw(st.sampled_from(sorted(labels)))
    field = draw(st.sampled_from(["key", "e", "n"]))
    if field == "key":
        labels[draw(LABEL_KEYS)] = labels.pop(key)
    else:
        labels[key] = {**labels[key], field: draw(LABEL_E if field == "e" else LABEL_N)}
    return labels


LABEL_OBJECTS = st.one_of(
    VALID_LABELS,
    one_fault_labels(),
    st.dictionaries(
        LABEL_KEYS, label_values() | label_values() | st.sampled_from([5, None, [], "ab"]),
        max_size=4,
    ),
    st.sampled_from([[], None, 5, "ab"]),
)


def _outcome(load):
    """(True, the label items) or (False, the message from_json reports)."""
    try:
        return True, list(load().items())
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return False, str(exc)


def _non_canonical(labels):
    """The keys of labels that int() reads but that are not their int's text."""
    if type(labels) is not dict:
        return []
    keys = []
    for s in labels:
        try:
            if s != str(int(s)):
                keys.append(s)
        except ValueError:
            pass
    return keys


@given(LABEL_OBJECTS)
@example({"5": {"e": [0], "n": 0}, "05": {"e": [1], "n": 0}})
@example({"5_0": {"e": [0], "n": 0}, "x": {"e": [0], "n": 0}})
@example({"-5": {"e": [0], "n": 0}, "0": {"e": "ab", "n": 0}})
@example({"0": {"e": [0], "n": 0}, "5": {"e": [1, True], "n": 0}})
@example({"0": {"e": [0.5], "n": 1}})
@settings(max_examples=300, deadline=None)
def test_label_check_matches_the_per_label_reference(labels):
    text = json.dumps({"F": 2, "K": 4, "grid": LABEL_GRID, "labels": labels})
    got = _outcome(lambda: Pda.from_json(text).labels)
    want = _outcome(lambda: reference.load_labels(json.loads(text)["labels"], LABEL_GRID))
    non_canonical = _non_canonical(labels)
    if not non_canonical:
        assert got == want
        return
    # from_json refuses a non-canonical key, which the reference reads with
    # int(); a fault the reference meets before its key check keeps its message.
    refusals = [f"label key {s!r} is not a symbol id of the grid" for s in non_canonical]
    assert not got[0] and (got == want or got[1] in refusals)


BAD_CELLS = (True, 1.5, "a", -1)


def random_grid(rng):
    """(grid, K): 1-4 rows of about K cells, each row now and then one cell
    short or long, and now and then a bad cell anywhere."""
    K = rng.randint(1, 4)
    grid = []
    for _ in range(rng.randint(1, 4)):
        row = [rng.choice([None, 0, 1, 2, 7]) for _ in range(K + rng.choice([0] * 6 + [-1, 1]))]
        if row and rng.random() < 0.25:
            row[rng.randrange(len(row))] = rng.choice(BAD_CELLS)
        grid.append(row)
    return grid, K


def _grid_outcome(load, errors=BadInput):
    """None when load() accepts, else the message of the error it raises."""
    try:
        load()
    except errors as exc:
        return str(exc)
    return None


def test_grid_check_matches_the_per_row_reference():
    rng = random.Random(19)
    seen = set()
    for _ in range(2000):
        grid, K = random_grid(rng)
        text = json.dumps({"F": len(grid), "K": K, "grid": grid})
        want = _grid_outcome(lambda: reference.check_grid(grid, K))
        assert _grid_outcome(lambda: Pda.from_json(text)) == want, text
        rectangular = all(len(row) == K for row in grid)
        if len(grid[0]) == K:  # Pda takes K from row 0, and refuses a length with BadLength
            assert _grid_outcome(lambda: Pda(grid), (BadInput, BadLength)) == want, grid
        short_and_bad = any(
            len(row) < K and not set(map(type, row)) <= {int, type(None)} for row in grid
        )
        seen.add((rectangular, want is None, short_and_bad))
    # accepted, refused for a cell, refused for a length, and a short row
    # holding a bad cell all occurred
    assert {(True, True, False), (True, False, False), (False, False, False)} <= seen
    assert any(short_and_bad for _, _, short_and_bad in seen)


def _verdict(v):
    return v.ok, v.witness, v.reason


class TestAgainstPairwiseReference:
    @given(st.one_of(GRIDS.map(Pda), mutated_scheme_pdas()))
    @example(Pda([[0, 1], [None, 0]]))  # one corner is not a star
    @example(Pda([[0, None, 0], [None, 0, None]]))  # row repeat only
    @example(Pda([[0, None], [0, None], [None, 1]]))  # column repeat only
    # The masks first fail on symbol 1 in column 0; the pair scan names symbol
    # 0, whose corner (0, 2) holds 5.
    @example(Pda([[None, 0, 5], [1, 7, 0], [1, None, None]]))
    @settings(max_examples=400, deadline=None)
    def test_verify_matches_reference(self, p):
        assert _verdict(verify_pda(p)) == _verdict(reference.verify_pda(p))

    def test_accepting_builds_no_symbol_index(self, monkeypatch):
        calls = count_index_builds(monkeypatch)
        for p in SCHEME_PDAS:
            fresh = Pda(p.grid)
            assert verify_pda(fresh)
        assert calls == []
        rejected = Pda([[0], [0]])
        assert _verdict(verify_pda(rejected)) == (
            False, (0, 0, 1, 0), "symbol 0 repeats in a row/column"
        )
        assert len(calls) == 1 and calls[0] is rejected

    @given(GRIDS.map(Pda))
    @settings(max_examples=200, deadline=None)
    def test_params_match_reference(self, p):
        got, want = pda_params(p), reference.pda_params(p)
        assert got == want
        assert list(got.gain_histogram.items()) == list(want.gain_histogram.items())

    @pytest.mark.parametrize("p", SCHEME_PDAS, ids=[repr(s) for s in SCHEME_SPECS])
    def test_scheme_params_match_reference(self, p):
        assert pda_params(p) == reference.pda_params(p)
        assert _verdict(verify_pda(p)) == _verdict(reference.verify_pda(p))

    @pytest.mark.parametrize("grid", [[[None, 0], [1]], [[None], [1, None]]])
    def test_ragged_grid_refused(self, grid):
        message = f"^row 1 has {len(grid[1])} cells, not K={len(grid[0])}$"
        with pytest.raises(BadLength, match=message):
            Pda(grid)


def transpose(p):
    return Pda(tuple(zip(*p.grid)))


def _shown(params):
    """A PdaParams with its repr and its histogram's key order, which ==
    ignores."""
    return params, repr(params), list(params.gain_histogram.items())


class TestCensus:
    """An accepting verdict carries a Census, and pda_params reads it; what
    it reads must equal the per-cell reference count, gains ascending."""

    @given(st.one_of(GRIDS.map(Pda), GRIDS.map(Pda).map(transpose)))
    # tall: symbol 1 (gain 1) is first down column 0, symbol 0 (gain 2) in row 0
    @example(Pda([[None, 0], [1, None], [0, None]]))
    @settings(max_examples=300, deadline=None)
    def test_params_after_verify_match_reference(self, p):
        counted = _shown(pda_params(Pda(p.grid)))
        verdict = verify_pda(p)
        assert (verdict.census is not None) == verdict.ok
        assert _shown(pda_params(p)) == counted == _shown(reference.pda_params(p))

    @pytest.mark.parametrize(
        "p, shape, gains",
        [
            (transpose(build_theorem7(4, 2, 5)[0]), (150, 25), [(3, 400), (6, 200)]),
            (build_theorem7(4, 2, 5)[0], (25, 150), [(3, 400), (6, 200)]),
            (build_theorem7(5, 2, 7)[0], (343, 490), [(6, 10290), (10, 6174)]),
        ],
        ids=["tall-t7-425", "wide-t7-425", "wide-t7-527"],
    )
    def test_two_gains_ascending_on_both_paths(self, p, shape, gains):
        assert (p.F, p.K) == shape
        counted = _shown(pda_params(Pda(p.grid)))
        assert verify_pda(p).census.gains == tuple(gains)
        assert _shown(pda_params(p)) == counted
        assert counted[2] == gains
        assert counted[0] == reference.pda_params(p)

    @pytest.mark.parametrize("grid", [(), ((),)])
    def test_empty_grids(self, grid):
        p = Pda(grid)
        counted = _shown(pda_params(Pda(grid)))
        assert verify_pda(p).census.Z_cols == ()
        assert _shown(pda_params(p)) == counted
        assert (counted[0].Z, counted[0].Z_cols, counted[0].S) == (None, (), 0)

    def test_params_read_the_census(self, example_pda):
        p = Pda(example_pda.grid)
        verdict = verify_pda(p)
        vars(p)["verdict"] = dataclasses.replace(verdict, census=verdict.census._replace(S=99))
        assert pda_params(p).S == 99

    def test_pda_params_verifies_nothing(self, example_pda):
        p = Pda(example_pda.grid)
        assert pda_params(p) == reference.pda_params(p)
        assert "verdict" not in vars(p)

    def test_rejected_pda_keeps_no_census(self):
        # one wide and one tall reject; each is found by the masks
        for grid in ([[0, 1], [None, 0]], [[0], [0], [None]]):
            p = Pda(grid)
            assert verify_pda(p).census is None
            assert _shown(pda_params(p)) == _shown(reference.pda_params(p))

    def test_census_is_left_out_of_eq_and_repr(self, example_pda):
        verdict = verify_pda(Pda(example_pda.grid))
        assert verdict.census == (4, (2, 2, 2, 2, 2, 2), ((3, 4),))
        assert verdict == Verdict(True) and hash(verdict) == hash(Verdict(True))
        assert repr(verdict) == "Verdict(ok=True, witness=None, reason=None)"

    def test_one_check_for_verify_then_round_trip(self, monkeypatch):
        """verify_pda and the simulator's C1 check share Pda.verdict, so a
        fresh theorem7(6,2,5) is checked once."""
        calls = []
        check = pda_mod._check

        def counted(p):
            calls.append(p)
            return check(p)

        monkeypatch.setattr(pda_mod, "_check", counted)
        p = Pda(build_theorem7(6, 2, 5)[0].grid)
        assert verify_pda(p) is p.verdict
        assert run_round_trip(p, seed=1)[2]
        assert calls == [p]


def random_pda_grid(rng, F, K):
    """A random F x K grid that satisfies C1: cells get an existing symbol
    or a new one in random order, each kept only if the pairwise reference
    still accepts the grid."""
    grid = [[None] * K for _ in range(F)]
    symbols = 0
    for _ in range(F * K):
        j, k = rng.randrange(F), rng.randrange(K)
        if grid[j][k] is not None:
            continue
        grid[j][k] = rng.randrange(symbols + 1)
        if reference.verify_pda(Pda(grid)):
            symbols = max(symbols, grid[j][k] + 1)
        else:
            grid[j][k] = None
    return grid


def mutants(rng, grid):
    """Copies of a C1 grid with one symbol repeated in a row, one repeated
    in a column, and one corner of a symbol's pair filled with a new
    symbol; a mutant the grid's shape or symbols cannot give is left out."""
    cells = [(j, k) for j, row in enumerate(grid) for k, c in enumerate(row) if c is not None]
    F, K = len(grid), len(grid[0]) if grid else 0
    out = []
    if cells and K > 1:
        j, k = rng.choice(cells)
        g = [list(row) for row in grid]
        g[j][rng.choice([x for x in range(K) if x != k])] = grid[j][k]
        out.append(g)
    if cells and F > 1:
        j, k = rng.choice(cells)
        g = [list(row) for row in grid]
        g[rng.choice([x for x in range(F) if x != j])][k] = grid[j][k]
        out.append(g)
    pairs = [(a, b) for a in cells for b in cells if a < b and grid[a[0]][a[1]] == grid[b[0]][b[1]]]
    if pairs:
        (j1, k1), (j2, k2) = rng.choice(pairs)
        g = [list(row) for row in grid]
        g[j1][k2] = 1 + max(c for row in grid for c in row if c is not None)
        out.append(g)
    return out


# Tall (F > K, masks over columns), wide and square (masks over rows),
# and the edge shapes.
ORIENTATION_SHAPES = [(9, 4), (8, 3), (4, 9), (3, 8), (6, 6), (0, 0), (5, 0), (1, 7), (7, 1)]


class TestBothOrientations:
    @pytest.mark.parametrize("F, K", ORIENTATION_SHAPES)
    def test_verify_matches_reference_and_its_transpose(self, F, K):
        rng = random.Random(F * 100 + K)
        for _ in range(4):
            grid = random_pda_grid(rng, F, K)
            for g in [grid, *mutants(rng, grid)]:
                p = Pda(g)
                got = verify_pda(p)
                assert got.ok == (g is grid)
                assert _verdict(got) == _verdict(reference.verify_pda(p))
                assert got.ok == verify_pda(transpose(p)).ok

    def test_tall_peak_stays_near_the_masks_peak(self):
        """The masks cover the narrower side, so checking the tall
        szg_second(4,1,5) peaks about as high as building its K-bit masks
        alone.  Each traced call checks a fresh Pda, so no kept verdict can
        answer it.  Walking the columns through zip(*grid) reads 1.30."""
        p = build_szg_second(4, 1, 5)[0]
        assert (p.F, p.K) == (625, 20)

        def column_masks():
            masks = {}
            for k in range(p.K):
                for s in map(operator.itemgetter(k), p.grid):
                    if s is not None:
                        masks[s] = masks.get(s, 0) | 1 << k
            return masks

        _, _, check_peak = traced(lambda: pda_mod._check(Pda(p.grid)))
        _, _, masks_peak = traced(column_masks)
        assert check_peak <= 1.15 * masks_peak, f"peak {check_peak} B vs {masks_peak} B of masks"


class TestCellIndex:
    @given(GRIDS.map(Pda))
    @example(Pda(()))
    @example(Pda(((),)))
    @settings(max_examples=200, deadline=None)
    def test_cells_match_reference_positions(self, p):
        """symbol_cells is the reference's (row, col) index as flat numbers
        k*F + j, with symbols and each symbol's cells in the same order."""
        want = reference.symbol_positions(p)
        got = symbol_cells(p)
        assert list(got) == list(want)
        assert dict(got) == {s: [k * p.F + j for j, k in cells] for s, cells in want.items()}

    @given(GRIDS.map(Pda))
    @example(Pda(()))
    @example(Pda(((),)))
    @settings(max_examples=200, deadline=None)
    def test_caches_are_the_star_rows(self, p):
        assert p.sim_layout.caches == tuple(
            frozenset(j for j in range(p.F) if p.grid[j][k] is None) for k in range(p.K)
        )
        assert all(type(rows) is frozenset for rows in p.sim_layout.caches)

    @given(GRIDS.map(Pda))
    @settings(max_examples=100, deadline=None)
    def test_verdict_is_verify_pda_kept_with_the_pda(self, p):
        assert verify_pda(p) is p.verdict is verify_pda(p)
