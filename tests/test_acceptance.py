"""End-to-end acceptance checks, one test per criterion.

Each criterion reports a single PASS/FAIL line in the terminal summary
(see conftest).  Sweep sizes are capped where the nominal parameter range
would materialize arrays with hundreds of millions of cells; the caps and
the two strict-xfail companions near the bottom are catalogued in the
project decision log.
"""

import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

import conftest
from conftest import (
    EXAMPLE_PDA_4x6,
    LABELED_4x12,
    MATRIX_4x3_ROWS,
    WEIGHT_EXAMPLE_CELLS,
    WEIGHT_EXAMPLE_COLUMNS,
    label_grid,
    labeled_cells_to_pda,
    symbolic_round_trip,
)
from pdacache import (
    build_szg_second,
    build_theorem3,
    build_theorem6,
    build_theorem7,
    check_lower_bounds,
    construct,
    deliver,
    full_column_set,
    is_ca,
    is_oa,
    matrix_from_rows,
    mds_generate,
    oa_from_mds,
    oa_trivial,
    pda_params,
    place,
    random_instance,
    run_round_trip,
    star_counts,
    structurally_equal,
    verify_pda,
    weight_column_set,
)
from pdacache.cli import main as cli_main
from pdacache.gf import field_new

# Sweep caps: the nominal ranges below admit instances like q=2, m=12,
# t=6 (2048 x 59136 cells) whose construction alone dwarfs the rest of
# the suite.  Capped instances are skipped, not weakened.
SUM_OA_MAX_Q = 9
SUM_OA_MAX_CELLS = 200_000
SIM_MAX_CELLS = 20_000
# A symbolic instance has ceil(F*K/8)-byte packets, so its cost grows with
# the square of the cell count.
SYMBOLIC_MAX_CELLS = 5000


def criterion(number, name):
    """Record a one-line verdict for an acceptance criterion."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                conftest.ACCEPTANCE_LINES.append(f"criterion {number:2d} {name}: FAIL")
                raise
            conftest.ACCEPTANCE_LINES.append(f"criterion {number:2d} {name}: PASS")
            return result

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# Shared sweeps (session fixtures so criteria 4-6, 8 and 10 build each PDA
# exactly once).  Records are (family, params dict, pda, predicted).
# ---------------------------------------------------------------------------


def _degenerate_weight_tuple(m, s, t, omega):
    # no binary row of weight s can disagree with a weight-(t - omega)
    # target on all t chosen coordinates; the array is all stars
    return s + t - omega > m


@pytest.fixture(scope="session")
def weight_sweep():
    records = []
    for m in range(2, 8):
        for s in range(1, m + 1):
            for t in range(1, s + 1):
                for omega in range(0, t + 1):
                    if s + t - 2 * omega > m:
                        continue
                    pda, pred = build_theorem3(m, s, t, omega)
                    records.append(
                        ("theorem3", {"m": m, "s": s, "t": t, "omega": omega}, pda, pred)
                    )
    return records


@pytest.fixture(scope="session")
def sum_oa_sweep():
    records = []
    for q in range(2, SUM_OA_MAX_Q + 1):
        for m in itertools.count(2):
            if q ** (m - 1) > 2048:
                break
            for t in range(1, m):
                cells = q ** (m - 1) * math.comb(m, t) * q**t
                if cells > SUM_OA_MAX_CELLS:
                    continue
                pda, pred = build_theorem6(m, t, q)
                records.append(("theorem6", {"m": m, "t": t, "q": q}, pda, pred))
    return records


@pytest.fixture(scope="session")
def mds_sweep():
    records = []
    for q in (2, 3, 4, 5):
        for m in range(2, q + 2):
            for t in range(1, m // 2 + 1):
                pda, pred = build_theorem7(m, t, q)
                records.append(("theorem7", {"m": m, "t": t, "q": q}, pda, pred))
    return records


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


@criterion(1, "worked 4x6 array verifies as a (6,4,2,4) PDA, every gain 3")
def test_worked_example_array():
    assert verify_pda(EXAMPLE_PDA_4x6)
    p = pda_params(EXAMPLE_PDA_4x6)
    assert (p.K, p.F, p.Z, p.S) == (6, 4, 2, 4)
    assert p.gain_histogram == {3: 4}


@criterion(2, "framework reproduces the worked 4x12 array")
def test_framework_reproduces_4x12():
    matrix = matrix_from_rows(MATRIX_4x3_ROWS, 3, 2)
    pda = construct(matrix, full_column_set(3, 2, 2))
    expected = [
        [(e, 0) if e is not None else None for e in row] for row in LABELED_4x12
    ]
    assert label_grid(pda) == expected
    # the packaged builder uses lexicographic row order: same PDA up to a
    # row permutation with consistent relabeling
    built, _ = build_theorem6(3, 2, 2)
    assert structurally_equal(pda, built)


@criterion(3, "weight-vector builder reproduces the worked 6x12 array")
def test_weight_builder_reproduces_6x12():
    pda, pred = build_theorem3(4, 2, 2, 1)
    assert (pred.K, pred.F, pred.Z, pred.S) == (12, 6, 4, 6)
    p = pda_params(pda)
    assert (p.K, p.F, p.Z, p.S) == (12, 6, 4, 6)
    # the reference array lists columns in a different order; permute its
    # columns into ours by matching (T, b), then compare structurally
    ours = weight_column_set(4, 2, 1).columns
    perm = [WEIGHT_EXAMPLE_COLUMNS.index(c) for c in ours]
    reference = labeled_cells_to_pda(
        [[row[i] for i in perm] for row in WEIGHT_EXAMPLE_CELLS]
    )
    assert structurally_equal(pda, reference)


@criterion(4, "weight-vector sweep m<=7 matches the closed forms")
def test_weight_sweep_closed_forms(weight_sweep):
    assert len(weight_sweep) > 100
    degenerate = 0
    for _, ps, pda, pred in weight_sweep:
        m, s, t, omega = ps["m"], ps["s"], ps["t"], ps["omega"]
        p = pda_params(pda)
        assert p.K == math.comb(t, omega) * math.comb(m, t)
        assert p.F == math.comb(m, s)
        assert p.Z == math.comb(m, s) - math.comb(m - t, s - omega)
        if _degenerate_weight_tuple(m, s, t, omega):
            # all-star array: no symbol is realizable (see decision log)
            assert p.S == 0
            degenerate += 1
        else:
            assert p.S == math.comb(m, s + t - 2 * omega)
        assert (p.K, p.F, p.Z, p.S) == (pred.K, pred.F, pred.Z, pred.S)
        assert verify_pda(pda)
    assert degenerate > 0  # the guard is actually exercised


@criterion(5, "sum-coordinate OA sweep matches the closed forms, uniform gain")
def test_sum_oa_sweep_closed_forms(sum_oa_sweep):
    assert len(sum_oa_sweep) >= 40
    seen = set()
    for _, ps, pda, pred in sum_oa_sweep:
        m, t, q = ps["m"], ps["t"], ps["q"]
        seen.add(q)
        p = pda_params(pda)
        assert p.K == math.comb(m, t) * q**t
        assert p.F == q ** (m - 1)
        assert p.Z == q ** (m - 1) - (q - 1) ** t * q ** (m - t - 1)
        assert p.S == (q - 1) ** t * q ** (m - 1)
        assert p.gain_histogram == ({math.comb(m, t): p.S} if p.S else {})
        assert (p.K, p.F, p.Z, p.S) == (pred.K, pred.F, pred.Z, pred.S)
    assert seen == set(range(2, SUM_OA_MAX_Q + 1))


@criterion(6, "MDS-codeword sweep matches the closed forms and symbol census")
def test_mds_sweep_closed_forms(mds_sweep):
    assert len(mds_sweep) >= 15
    for _, ps, pda, pred in mds_sweep:
        m, t, q = ps["m"], ps["t"], ps["q"]
        p = pda_params(pda)
        assert p.K == math.comb(m, t) * q**t
        assert p.F == q ** (m - t)
        assert p.Z == q ** (m - t) - (q - 1) ** t * q ** (m - 2 * t)
        assert p.S == q**m - q ** (m - t)
        assert (p.K, p.F, p.Z, p.S) == (pred.K, pred.F, pred.Z, pred.S)
        code = mds_generate(field_new(q), m, m - t)
        labels = {e for e, _ in pda.labels.values()}
        everything = set(itertools.product(range(q), repeat=m))
        assert labels == everything - set(code.codewords)


@criterion(7, "constant column star count iff the row matrix is an OA")
def test_regular_iff_orthogonal_array():
    def constant_stars(matrix, t, q):
        pda = construct(matrix, full_column_set(matrix.m, t, q))
        return len(set(star_counts(pda))) == 1

    # exhaustive for m=2, q=2, t=1: every row matrix with at most 6 rows
    checked = 0
    row_space = list(itertools.product(range(2), repeat=2))
    for nrows in range(1, 7):
        for rows in itertools.product(row_space, repeat=nrows):
            matrix = matrix_from_rows(list(rows), 2, 2)
            assert constant_stars(matrix, 1, 2) == bool(is_oa(matrix, 1))
            checked += 1
    assert checked == sum(4**n for n in range(1, 7))  # 5460

    # randomized for (m, q) = (3, 2) at t = 1 and t = 2, plus structured
    # matrices so the OA side of the equivalence is exercised
    rng = random.Random(20260824)
    positives = 0
    for t in (1, 2):
        pool = [oa_trivial(3, 2)]
        if t == 1:
            pool.append(matrix_from_rows([(0, 0, 0), (1, 1, 1)], 3, 2))
        for _ in range(500):
            nrows = rng.randint(1, 6)
            rows = [tuple(rng.randrange(2) for _ in range(3)) for _ in range(nrows)]
            pool.append(matrix_from_rows(rows, 3, 2))
        for matrix in pool:
            oa = bool(is_oa(matrix, t))
            assert constant_stars(matrix, t, 2) == oa
            positives += oa
    assert positives >= 3


@criterion(8, "load and subpacketization lower bounds hold, tight where promised")
def test_lower_bounds(sum_oa_sweep, mds_sweep):
    for family, ps, pda, pred in sum_oa_sweep + mds_sweep:
        m, t, q = ps["m"], ps["t"], ps["q"]
        bound = (q - 1) ** t
        assert pred.R >= bound
        if pred.R == bound:
            matrix = (
                oa_trivial(m, q)
                if family == "theorem6"
                else oa_from_mds(mds_generate(field_new(q), m, m - t))
            )
            assert is_ca(matrix, m - t, 1)
            assert pred.F >= q ** (m - t)
    # the sum-coordinate scheme is always load-tight, and at t=1 it also
    # meets the subpacketization bound with equality
    for family, ps, pda, pred in sum_oa_sweep:
        m, t, q = ps["m"], ps["t"], ps["q"]
        assert pred.R == (q - 1) ** t
        if t == 1:
            assert pred.F == q ** (m - 1) == q ** (m - t)
            rep = check_lower_bounds(pda, m, t, q)
            assert rep.load_ok and rep.load_tight and rep.subpacketization_ok
    # the full-grid baseline satisfies both bounds strictly in F
    for m, t, q in [(3, 2, 2), (3, 1, 3), (4, 2, 2), (2, 1, 5)]:
        pda, pred = build_szg_second(m, t, q)
        rep = check_lower_bounds(pda, m, t, q)
        assert rep.load_ok and rep.load_tight
        assert rep.F == q**m >= q ** (m - t) == rep.subpacketization_bound


@criterion(9, "radius-(m-k) balls around MDS codewords cover the whole space")
def test_mds_sphere_cover():
    def within(point, codeword, radius):
        return sum(a != b for a, b in zip(point, codeword)) <= radius

    checked = 0
    for q in (2, 3, 4):
        f = field_new(q)
        for m in range(2, min(5, q + 1) + 1):
            for k in range(1, m):
                code = mds_generate(f, m, k)
                radius = m - k
                for point in itertools.product(range(q), repeat=m):
                    assert any(within(point, c, radius) for c in code.codewords)
                checked += 1
    assert checked >= 15


@criterion(10, "simulator round-trips every swept PDA byte-exactly")
def test_simulator_round_trips(weight_sweep, sum_oa_sweep, mds_sweep):
    examples = [
        ("example", {}, EXAMPLE_PDA_4x6, None),
        ("example", {}, labeled_cells_to_pda(WEIGHT_EXAMPLE_CELLS), None),
    ]
    simulated = 0
    for _, _, pda, _ in examples + weight_sweep + sum_oa_sweep + mds_sweep:
        if pda.F * pda.K > SIM_MAX_CELLS:
            continue
        p = pda_params(pda)
        inst, transcript, ok = run_round_trip(pda, seed=simulated, packet_bytes=4)
        assert ok
        if pda.F * pda.K <= SYMBOLIC_MAX_CELLS:
            assert symbolic_round_trip(pda)
        assert transcript.measured_load == Fraction(p.S, p.F)
        caches = place(inst)
        for cache in caches:
            assert Fraction(len(cache), inst.N * pda.F) == Fraction(p.Z, pda.F)
        simulated += 1
    assert simulated >= 100


@criterion(11, "delivery signals on the worked 4x6 array match the reference")
def test_worked_example_delivery_signals():
    inst = random_instance(EXAMPLE_PDA_4x6, seed=7, packet_bytes=4)
    assert inst.demand == (0, 1, 2, 3, 4, 5)
    transcript = deliver(inst)

    def xor(*parts):
        acc = bytes(len(parts[0]))
        for part in parts:
            acc = bytes(x ^ y for x, y in zip(acc, part))
        return acc

    assert transcript.signals[0] == xor(
        inst.packet(0, 2), inst.packet(1, 1), inst.packet(3, 0)
    )
    assert list(transcript.signals) == [
        xor(inst.packet(0, 2), inst.packet(1, 1), inst.packet(3, 0)),
        xor(inst.packet(0, 3), inst.packet(2, 1), inst.packet(4, 0)),
        xor(inst.packet(1, 3), inst.packet(2, 2), inst.packet(5, 0)),
        xor(inst.packet(3, 3), inst.packet(4, 2), inst.packet(5, 1)),
    ]


@criterion(12, "comparison tables reproduce the reference figures")
def test_comparison_tables(capsys):
    assert cli_main(["compare", "thm6-vs-thm7", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(r["m"], r["q"]) for r in rows] == [(10, 11), (20, 23), (30, 31), (40, 41)]
    assert [r["K"] for r in rows] == [5445, 100510, 418035, 1311180]
    assert [r["F1_over_F2"] for r in rows] == [11, 23, 31, 41]
    # two reference figures are arithmetically inconsistent with the closed
    # forms the same table is defined by; the exact values are asserted
    # here and the published figures are strict-xfailed below
    assert [r["M_over_N"] for r in rows] == ["0.1736", "0.0851", "0.0635", "0.0482"]
    assert [r["R1_over_R2"] for r in rows] == ["0.8333", "0.9167", "0.9375", "0.9524"]
    for r in rows:
        m, q, t = r["m"], r["q"], 2
        assert Fraction(r["K"]) == math.comb(m, t) * q**t
        ratio = Fraction((q - 1) ** t, q**t - 1)
        assert r["R1_over_R2"] == f"{float(ratio):.4f}"

    assert cli_main(["compare", "omega", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [
        {"scheme": "Scheme 1", "K": 360, "M_over_N": "0.9", "F": 210,
         "R": "0.57143", "gain": 63, "omega": 2},
        {"scheme": "Scheme 2", "K": 120, "M_over_N": "0.91667", "F": 252,
         "R": "0.17857", "gain": 56, "omega": 0},
        {"scheme": "Scheme 3", "K": 120, "M_over_N": "0.83333", "F": 210,
         "R": "0.57143", "gain": 35, "omega": 0},
        {"scheme": "Scheme 4", "K": 360, "M_over_N": "0.83333", "F": 210,
         "R": "1.2", "gain": 50, "omega": 1},
    ]


# ---------------------------------------------------------------------------
# Strict-xfail companions: published figures that contradict the closed
# forms they are derived from (documented in the decision log).
# ---------------------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="published ratio 0.9091 = 10/11 is (q-1)/q, not (q-1)^2/(q^2-1) = 5/6",
)
def test_published_rate_ratio_row_one():
    from pdacache.tables import thm6_vs_thm7_table

    assert thm6_vs_thm7_table()[0]["R1_over_R2"] == "0.9091"


@pytest.mark.xfail(
    strict=True,
    reason="published memory ratio 0.0930 = 45/484 divides by (q-1)^2, not q^2",
)
def test_published_memory_ratio_row_two():
    from pdacache.tables import thm6_vs_thm7_table

    assert thm6_vs_thm7_table()[1]["M_over_N"] == "0.0930"


@pytest.mark.xfail(
    strict=True,
    reason="the S closed form ignores the all-star corner s+t-omega > m",
)
def test_degenerate_weight_tuple_nominal_s():
    _, pred = build_theorem3(7, 7, 2, 1)
    assert pred.S == math.comb(7, 7)
