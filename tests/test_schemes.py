"""Named constructions: measured parameters must equal the closed forms."""

import itertools
import math
from fractions import Fraction

import pytest

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
from pdacache import schemes
from pdacache.schemes import FAMILIES, SchemeSpec, build


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
        SchemeSpec("szg_second", m=3, t=2, q=2),
        SchemeSpec("mn", m=5, s=2),
        SchemeSpec("szg_first", m=5, s=2, t=2),
    ]

    def test_specs_cover_every_family(self):
        assert {spec.family for spec in self.SPECS} == set(FAMILIES)

    def test_unknown_family(self):
        with pytest.raises(BadParams):
            predict(SchemeSpec("theorem5"))
        with pytest.raises(BadParams):
            build(SchemeSpec("theorem5"))

    def test_cell_limit_is_inclusive(self, monkeypatch):
        spec = SchemeSpec("mn", m=5, s=2)  # F * K = 10 * 5
        monkeypatch.setattr(schemes, "MAX_CELLS", 50)
        assert build(spec)[0].F == 10
        monkeypatch.setattr(schemes, "MAX_CELLS", 49)
        with pytest.raises(BadParams, match="F\\*K = 50 cells exceeds the limit MAX_CELLS = 49"):
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
        positions = pda.symbol_positions()
        expect = math.comb(m, t)
        assert all(len(v) == expect for v in positions.values())
