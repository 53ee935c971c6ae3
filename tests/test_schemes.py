"""Named constructions: measured parameters must equal the closed forms."""

import inspect
import itertools
import math
import re
from fractions import Fraction

import pytest

import reference
from conftest import TAKES, UNREAD_SETTINGS, VALID_FIELDS
from pdacache import (
    build_mn,
    build_szg_second,
    build_theorem3,
    build_theorem6,
    build_theorem7,
    pda_params,
    predict,
    verify_pda,
)
from pdacache.errors import BadParams, MdsUnavailable
from pdacache.gf import field_new, mds_generate
from pdacache import designs, schemes
from pdacache.schemes import FAMILIES, SchemeSpec, build, predict


def assert_measured_matches(pda, pred):
    assert verify_pda(pda)
    p = pda_params(pda)
    assert (p.K, p.F, p.Z, p.S) == (pred.K, pred.F, pred.Z, pred.S)
    assert p.R == pred.R
    if pred.gain is not None:
        assert p.gain_histogram == {pred.gain: pred.S}


class TestTheorem3:
    def test_example_12_6_4_6(self):
        pda, pred = build_theorem3(4, 2, 2, 1)
        assert (pred.K, pred.F, pred.Z, pred.S) == (12, 6, 4, 6)
        assert_measured_matches(pda, pred)

    def test_mn_specialization(self):
        pda, pred = build_theorem3(4, 2, 1, 0)
        assert (pred.K, pred.F, pred.Z, pred.S) == (4, 6, 3, 4)
        assert pred.R == Fraction(4, 6)  # = (k - t') / (1 + t') at k=4, t'=2
        assert_measured_matches(pda, pred)
        pda_mn, pred_mn = build_mn(4, 2)
        assert pred_mn == pred

    def test_large_parameter_closed_forms(self):
        pred = predict(SchemeSpec("theorem3", m=10, s=4, t=3, omega=2))
        assert pred.K == 360
        assert pred.memory_ratio == Fraction(9, 10)
        assert pred.F == 210
        assert pred.S == 120
        assert pred.gain == 63

    def test_bad_params(self):
        with pytest.raises(BadParams):
            build_theorem3(4, 2, 3, 0)  # t > s
        with pytest.raises(BadParams):
            build_theorem3(3, 2, 2, 0)  # s + t > m with omega = 0

    @pytest.mark.parametrize("m", range(3, 8))
    def test_symbol_census_all_weights(self, m):
        # every binary m-vector of weight s+t-2*omega occurs, nothing else
        for s in range(1, m + 1):
            for t in range(1, s + 1):
                for omega in range(0, t + 1):
                    if s + t - 2 * omega > m:
                        continue
                    pda, pred = build_theorem3(m, s, t, omega)
                    es = {e for e, _ in pda.labels.values()}
                    w = s + t - 2 * omega
                    if s + t - omega > m:
                        # degenerate corner: no row can realize any symbol
                        assert es == set()
                        continue
                    assert len(es) == math.comb(m, w)
                    assert all(sum(e) == w for e in es)

    def test_szg_first_is_omega_zero(self):
        pda_a, pred_a = build(SchemeSpec("szg_first", m=5, s=3, t=2))
        pda_b, pred_b = build_theorem3(5, 3, 2, 0)
        assert pred_a == pred_b
        assert pda_a.grid == pda_b.grid
        assert pred_a.K == math.comb(5, 2)
        assert pred_a.S == math.comb(5, 5)


class TestTheorem6:
    def test_3_2_2(self):
        pda, pred = build_theorem6(3, 2, 2)
        assert (pred.K, pred.F, pred.Z, pred.S) == (12, 4, 3, 4)
        assert_measured_matches(pda, pred)

    def test_t1_row_family(self):
        pda, pred = build_theorem6(3, 1, 3)
        assert pred.K == 3 * 3
        assert pred.F == 9
        assert pred.R == 2  # q - 1
        assert_measured_matches(pda, pred)

    def test_4_2_3(self):
        pda, pred = build_theorem6(4, 2, 3)
        assert (pred.K, pred.F, pred.Z, pred.S) == (54, 27, 15, 108)
        assert pred.R == 4
        assert_measured_matches(pda, pred)
        assert pda_params(pda).gain_histogram == {6: 108}

    def test_bad_params(self):
        with pytest.raises(BadParams):
            build_theorem6(3, 3, 2)
        with pytest.raises(BadParams):
            build_theorem6(3, 0, 2)


class TestTheorem7:
    def test_2_1_2_repetition(self):
        pda, pred = build_theorem7(2, 1, 2)
        assert (pred.K, pred.F, pred.Z, pred.S) == (4, 2, 1, 2)
        assert pred.R == 1
        assert_measured_matches(pda, pred)

    def test_4_2_3(self):
        pda, pred = build_theorem7(4, 2, 3)
        assert (pred.K, pred.F, pred.Z, pred.S) == (54, 9, 5, 72)
        assert pred.R == 8
        assert_measured_matches(pda, pred)

    def test_4_2_4_over_gf4(self):
        pda, pred = build_theorem7(4, 2, 4)
        assert (pred.K, pred.F, pred.Z, pred.S) == (96, 16, 7, 240)
        assert pred.R == 15
        assert_measured_matches(pda, pred)

    def test_mds_unavailable_propagates(self):
        with pytest.raises(MdsUnavailable):
            build_theorem7(4, 2, 2)

    @pytest.mark.parametrize(
        "q,m,t",
        [(q, m, t) for q in (2, 3, 4, 5) for m in range(2, q + 2) for t in range(1, m // 2 + 1)],
    )
    def test_symbol_census_is_complement_of_code(self, q, m, t):
        pda, pred = build_theorem7(m, t, q)
        code = mds_generate(field_new(q), m, m - t)
        es = {e for e, _ in pda.labels.values()}
        everything = set(itertools.product(range(q), repeat=m))
        assert es == everything - set(code.codewords)
        assert len(es) == q**m - q ** (m - t)


class TestSzgSecond:
    def test_3_2_2(self):
        pda, pred = build_szg_second(3, 2, 2)
        assert (pred.K, pred.F, pred.Z, pred.S) == (12, 8, 6, 8)
        assert pred.R == 1
        assert_measured_matches(pda, pred)

    def test_2_1_2(self):
        pda, pred = build_szg_second(2, 1, 2)
        assert (pred.K, pred.F, pred.Z, pred.S) == (4, 4, 2, 4)
        assert_measured_matches(pda, pred)

    @pytest.mark.parametrize("m,t,q", [(3, 2, 2), (3, 1, 3), (4, 2, 2)])
    def test_subpacketization_ratio_vs_theorem6(self, m, t, q):
        _, p6 = build_theorem6(m, t, q)
        _, ps = build_szg_second(m, t, q)
        assert ps.F == q * p6.F
        assert ps.K == p6.K and ps.R == p6.R
        assert Fraction(ps.Z, ps.F) == Fraction(p6.Z, p6.F)


class TestPredictBuildAgreement:
    SPECS = [
        SchemeSpec("theorem3", m=5, s=3, t=2, omega=1),
        SchemeSpec("theorem3", m=6, s=2, t=2, omega=0),
        SchemeSpec("theorem6", m=4, t=2, q=2),
        SchemeSpec("theorem6", m=3, t=1, q=4),
        SchemeSpec("theorem7", m=4, t=2, q=3),
        SchemeSpec("theorem7", m=3, t=1, q=2),
        SchemeSpec("theorem7", m=3, t=1, q=17),  # GF(17): a prime order with no table entry
        SchemeSpec("szg_second", m=3, t=2, q=2),
        SchemeSpec("mn", m=5, s=2),
        SchemeSpec("szg_first", m=5, s=2, t=2),
    ]

    def test_specs_cover_every_family(self):
        assert {spec.family for spec in self.SPECS} == set(FAMILIES)

    @pytest.mark.parametrize("family, field, value", UNREAD_SETTINGS)
    def test_unread_setting_refused(self, family, field, value):
        spec = SchemeSpec(family, **VALID_FIELDS[family])
        build(spec)
        unread = SchemeSpec(family, **VALID_FIELDS[family], **{field: value})
        message = f"^{family} takes only {TAKES[family]}, not {field}={value}$"
        for entry in (predict, build):
            with pytest.raises(BadParams, match=message):
                entry(unread)
        # the default itself is accepted, as if the field were not set
        default = {f.name: f.default for f in schemes.SPEC_FIELDS}[field]
        at_default = SchemeSpec(family, **VALID_FIELDS[family], **{field: default})
        assert predict(at_default) == predict(spec)

    def test_unread_settings_are_the_fields_no_family_takes(self):
        every = {(family, f.name) for family in FAMILIES for f in schemes.SPEC_FIELDS}
        taken = {(family, f) for family, (_, _, names) in FAMILIES.items() for f in names}
        assert {(family, field) for family, field, _ in UNREAD_SETTINGS} == every - taken
        assert len(UNREAD_SETTINGS) == 12

    def test_unknown_family(self):
        with pytest.raises(BadParams):
            predict(SchemeSpec("theorem5"))
        with pytest.raises(BadParams):
            build(SchemeSpec("theorem5"))

    @pytest.mark.parametrize("family", [[], None, 6], ids=repr)
    def test_non_string_family_refused(self, family):
        for entry in (predict, build):
            message = f"^family must be a string, not {re.escape(repr(family))}$"
            with pytest.raises(BadParams, match=message):
                entry(SchemeSpec(family))

    @pytest.mark.parametrize("field", ["m", "t", "q", "s", "omega"])
    @pytest.mark.parametrize("value", [True, 5.5, "a", None], ids=repr)
    def test_non_integer_field_refused(self, field, value):
        with pytest.raises(BadParams, match=f"^{field} must be an integer, not {value!r}$"):
            SchemeSpec("theorem6", **{field: value})

    # Each builder goes through its predict, which refuses a non-int
    # argument before any comparison or math.comb sees it.
    @pytest.mark.parametrize(
        "call, args",
        [
            (build_theorem3, (8, 4, 2, 1)),
            (build_theorem6, (4, 2, 3)),
            (build_theorem7, (4, 2, 5)),
            (build_szg_second, (4, 2, 3)),
            (build_mn, (10, 3)),
            (schemes.predict_theorem3, (8, 4, 2, 1)),
            (schemes.predict_theorem6, (4, 2, 3)),
            (schemes.predict_theorem7, (4, 2, 5)),
            (schemes.predict_szg_second, (4, 2, 3)),
        ],
        ids=lambda x: getattr(x, "__name__", str(x)),
    )
    @pytest.mark.parametrize("value", [4.0, "5", None, True], ids=repr)
    def test_direct_call_refuses_non_integer(self, call, args, value):
        for i, name in enumerate(inspect.signature(call).parameters):
            bad = args[:i] + (value,) + args[i + 1 :]
            message = f"^{name} must be an integer, not {re.escape(repr(value))}$"
            with pytest.raises(BadParams, match=message):
                call(*bad)

    @pytest.mark.parametrize("entry", [predict, build])
    @pytest.mark.parametrize("k, cache_level", [(4, 4), (4, 0), (3, 5)])
    def test_mn_rule_names_mn(self, entry, k, cache_level):
        message = rf"^mn needs 1 <= cache_level < k, got \({k}, {cache_level}\)$"
        with pytest.raises(BadParams, match=message):
            entry(SchemeSpec("mn", m=k, s=cache_level))

    def test_cell_limit_is_inclusive(self, monkeypatch):
        spec = SchemeSpec("mn", m=5, s=2)  # F * K = 10 * 5
        monkeypatch.setattr(designs, "MAX_CELLS", 50)
        assert build(spec)[0].F == 10
        monkeypatch.setattr(designs, "MAX_CELLS", 49)
        with pytest.raises(BadParams, match="^F\\*K = 50 cells exceeds the limit MAX_CELLS = 49$"):
            build(spec)

    @pytest.mark.parametrize(
        "builder, args",
        [
            (build_theorem3, (60, 30, 2, 1)),
            (build_theorem6, (40, 2, 41)),
            (build_theorem7, (40, 2, 41)),
            (build_szg_second, (40, 2, 41)),
            (build_mn, (60, 30)),
        ],
        ids=lambda x: getattr(x, "__name__", str(x)),
    )
    def test_every_builder_refuses_too_many_cells(self, monkeypatch, builder, args):
        def refuse(*args):
            raise AssertionError("rows were built")

        for name in ("_weight_s_rows", "oa_trivial", "mds_generate", "full_grid", "construct"):
            monkeypatch.setattr(schemes, name, refuse)
        with pytest.raises(BadParams, match="exceeds the limit MAX_CELLS"):
            builder(*args)

    def test_value_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(schemes, "MAX_SPEC_VALUE", 5)
        assert predict(SchemeSpec("mn", m=5, s=2)).F == 10
        assert predict(SchemeSpec("theorem6", m=3, t=1, q=5)).F == 25
        with pytest.raises(BadParams, match="m=6, q=2 exceeds the limit MAX_SPEC_VALUE = 5"):
            predict(SchemeSpec("mn", m=6, s=2))
        with pytest.raises(BadParams, match="m=3, q=6 exceeds the limit MAX_SPEC_VALUE = 5"):
            predict(SchemeSpec("theorem6", m=3, t=1, q=6))

    @pytest.mark.parametrize(
        "spec",
        [
            # q**m or C(m, s) of these would exhaust memory
            SchemeSpec("theorem6", m=10**11, t=1, q=2),
            SchemeSpec("theorem7", m=10**11, t=1, q=2),
            SchemeSpec("szg_second", m=10**9, t=1, q=2),
            SchemeSpec("mn", m=10**11, s=10**9),
            SchemeSpec("szg_first", m=10**11, s=10**9, t=1),
            SchemeSpec("theorem3", m=10**11, s=10**9, t=1, omega=1),
            SchemeSpec("theorem7", m=4, t=2, q=10**11),
        ],
        ids=str,
    )
    def test_huge_values_refused_before_predicting(self, spec):
        for entry in (predict, build):
            with pytest.raises(BadParams, match="exceeds the limit MAX_SPEC_VALUE = 10000"):
                entry(spec)

    @pytest.mark.parametrize("q", [-3, 0, 1])
    def test_theorem7_needs_a_field_size(self, q):
        with pytest.raises(BadParams, match="q >= 2"):
            predict(SchemeSpec("theorem7", m=4, t=2, q=q))

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_measured_equals_predicted(self, spec):
        pda, pred = build(spec)
        assert pred == predict(spec)
        assert_measured_matches(pda, pred)


class TestTheorem6GainUniformity:
    @pytest.mark.parametrize(
        "m,t,q",
        [
            (m, t, q)
            for q in (2, 3, 4)
            for m in range(2, 8)
            for t in range(1, m)
            if q ** (m - 1) <= 512
        ],
    )
    def test_every_symbol_gain_is_choose_m_t(self, m, t, q):
        pda, _ = build_theorem6(m, t, q)
        positions = reference.symbol_positions(pda)
        expect = math.comb(m, t)
        assert all(len(v) == expect for v in positions.values())
