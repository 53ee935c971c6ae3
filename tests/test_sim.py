"""Placement, delivery, and decoding driven by a PDA."""

import random
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import EXAMPLE_PDA_4x6, symbolic_round_trip
from pdacache import (
    CachingInstance,
    Pda,
    build_mn,
    build_theorem6,
    build_theorem7,
    decode,
    deliver,
    pda_from_grid,
    pda_params,
    place,
    random_instance,
    run_round_trip,
    verify_pda,
)
from pdacache.errors import BadLength, DecodeFailure


def xor_bytes(*parts):
    acc = bytes(len(parts[0]))
    for p in parts:
        acc = bytes(x ^ y for x, y in zip(acc, p))
    return acc


def copied_caches(inst):
    """Reference placement: a dict per user holding a copy of every star-row
    packet of every file."""
    return [
        {
            (n, j): inst.packet(n, j)
            for j in range(inst.pda.F)
            if inst.pda.grid[j][k] is None
            for n in range(inst.N)
        }
        for k in range(inst.pda.K)
    ]


@pytest.fixture
def example_instance(example_pda):
    return random_instance(example_pda, seed=1, packet_bytes=8)


class TestPlacement:
    def test_star_rows_cached_for_all_files(self, example_instance):
        caches = place(example_instance)
        # user 0 has stars in rows 0 and 1
        assert set(caches[0]) == {(n, j) for n in range(6) for j in (0, 1)}

    def test_cache_fraction_matches_star_count(self, example_instance):
        caches = place(example_instance)
        inst = example_instance
        total = len(inst.files) * len(inst.files[0])
        for k, cache in enumerate(caches):
            stars = sum(inst.pda.grid[j][k] is None for j in range(inst.pda.F))
            cached = sum(len(v) for v in cache.values())
            assert Fraction(cached, total) == Fraction(stars, inst.pda.F)

    def test_all_star_pda_caches_everything(self):
        p = pda_from_grid([[None], [None]])
        inst = random_instance(p, seed=0)
        caches = place(inst)
        assert len(caches[0]) == inst.N * 2

    def test_star_free_column_caches_nothing(self):
        inst = CachingInstance((b"abcd",), pda_from_grid([[0], [1]]), (0,))
        assert place(inst) == [{}]

    def test_single_star_per_column(self):
        inst = CachingInstance(
            (b"abcd", b"efgh"), pda_from_grid([[0, None], [None, 0]]), (0, 1)
        )
        caches = place(inst)
        assert caches == [
            {(0, 1): b"cd", (1, 1): b"gh"},
            {(0, 0): b"ab", (1, 0): b"ef"},
        ]

    def test_views_equal_copied_caches(self, example_instance):
        caches = place(example_instance)
        reference = copied_caches(example_instance)
        assert caches == reference
        for cache, ref in zip(caches, reference):
            assert list(cache) == list(ref)
            assert len(cache) == len(ref)

    def test_view_lookups_behave_like_a_dict(self, example_instance):
        cache = place(example_instance)[0]  # star rows 0 and 1
        assert isinstance(cache, Mapping)
        assert list(cache.rows) == [0, 1]
        assert (5, 1) in cache and cache[(5, 1)] == example_instance.packet(5, 1)
        for key in ((0, 2), (6, 0), (-1, 0), 5, "ab", (0, 0, 0)):
            assert key not in cache
            assert cache.get(key) is None
            assert cache.get(key, b"") == b""
        with pytest.raises(KeyError):
            cache[(0, 2)]
        with pytest.raises(TypeError):
            cache[(0, 0)] = b""

    def test_bad_length_rejected(self, example_pda):
        with pytest.raises(BadLength):
            CachingInstance(tuple(b"abc" for _ in range(6)), example_pda, tuple(range(6)))

    def test_zero_files_rejected(self, example_pda):
        with pytest.raises(BadLength, match="at least one file"):
            CachingInstance((), example_pda, tuple(range(6)))


class TestDelivery:
    def test_first_signal_composition(self, example_instance):
        inst = example_instance
        transcript = deliver(inst)
        # symbol 0 sits at cells (2,0), (1,1), (0,3): packets W_{0,2}, W_{1,1}, W_{3,0}
        assert transcript.signals[0] == xor_bytes(
            inst.packet(0, 2), inst.packet(1, 1), inst.packet(3, 0)
        )

    def test_all_four_signals(self, example_instance):
        inst = example_instance
        transcript = deliver(inst)
        expected = [
            xor_bytes(inst.packet(0, 2), inst.packet(1, 1), inst.packet(3, 0)),
            xor_bytes(inst.packet(0, 3), inst.packet(2, 1), inst.packet(4, 0)),
            xor_bytes(inst.packet(1, 3), inst.packet(2, 2), inst.packet(5, 0)),
            xor_bytes(inst.packet(3, 3), inst.packet(4, 2), inst.packet(5, 1)),
        ]
        assert list(transcript.signals) == expected

    def test_gain_one_symbol_sends_uncoded_packet(self):
        p = pda_from_grid([[0, None], [None, 1]])
        inst = random_instance(p, seed=3)
        transcript = deliver(inst)
        assert transcript.signals[0] == inst.packet(inst.demand[0], 0)

    def test_no_symbols_empty_transcript(self):
        p = pda_from_grid([[None], [None]])
        transcript = deliver(random_instance(p, seed=0))
        assert transcript.signals == ()
        assert transcript.measured_load == 0


    def test_signals_match_bytewise_reference(self):
        # mn(5,2) with 256-byte packets whose high half is zero: every
        # signal starts with 128 zero bytes, and the random low half pins
        # the byte order of the integer XOR
        pda, _ = build_mn(5, 2)
        rng = random.Random(11)
        files = tuple(
            b"".join(bytes(128) + rng.randbytes(128) for _ in range(pda.F))
            for _ in range(pda.K)
        )
        inst = CachingInstance(files, pda, tuple(range(pda.K)))
        positions = pda.symbol_positions()
        expected = [
            xor_bytes(*(inst.packet(inst.demand[k], j) for j, k in positions[s]))
            for s in sorted(positions)
        ]
        signals = deliver(inst).signals
        assert list(signals) == expected
        assert all(len(sig) == 256 and sig[:128] == bytes(128) for sig in signals)


class TestDecode:
    def test_round_trip_worst_case(self, example_pda):
        _, transcript, ok = run_round_trip(example_pda, seed=1)
        assert ok
        assert transcript.measured_load == 1

    def test_repeated_demands(self, example_pda):
        _, _, ok = run_round_trip(example_pda, seed=2, demand=(0,) * 6)
        assert ok

    def test_fewer_files_than_users(self, example_pda):
        rng = random.Random(4)
        files = (rng.randbytes(16), rng.randbytes(16))
        inst = CachingInstance(files, example_pda, (0, 1, 1, 0, 1, 0))
        recovered = decode(inst, place(inst), deliver(inst))
        assert recovered == [files[d] for d in inst.demand]

    def test_missing_side_packet_names_user_packet_and_symbol(self):
        # symbol 0 twice in one row: user 0 needs packet 0 of file 1
        inst = CachingInstance((b"ab", b"cd"), pda_from_grid([[0, 0]]), (0, 1))
        with pytest.raises(DecodeFailure, match=r"user 0 lacks packet \(1, 0\) needed for symbol 0"):
            decode(inst, place(inst), deliver(inst))

    def test_short_transcript_rejected(self, example_instance):
        inst = example_instance
        transcript = deliver(inst)
        short = type(transcript)(transcript.signals[:-1], transcript.F)
        with pytest.raises(BadLength, match="transcript has 3 signals, need S=4"):
            decode(inst, place(inst), short)

    def test_wrong_cache_count_rejected(self, example_instance):
        inst = example_instance
        with pytest.raises(BadLength, match="got 5 caches, need K=6"):
            decode(inst, place(inst)[:-1], deliver(inst))

    @pytest.mark.parametrize("size", [7, 9])
    def test_signal_of_wrong_length_rejected(self, example_instance, size):
        inst = example_instance  # 8-byte packets
        transcript = deliver(inst)
        signals = list(transcript.signals)
        signals[2] = bytes(size)
        bad = type(transcript)(tuple(signals), transcript.F)
        with pytest.raises(BadLength, match=f"signal 2 has {size} bytes, need packet size 8"):
            decode(inst, place(inst), bad)

    @pytest.mark.parametrize("grid", [[[None], [0, None]], [[0, None], [None]]])
    def test_ragged_grid_never_reaches_the_simulator(self, grid):
        with pytest.raises(BadLength, match="row 1 has"):
            run_round_trip(pda_from_grid(grid))

    def test_corrupt_signal_detected(self, example_instance):
        inst = example_instance
        caches = place(inst)
        transcript = deliver(inst)
        bad = list(transcript.signals)
        bad[0] = bytes([bad[0][0] ^ 0xFF]) + bad[0][1:]
        corrupted = type(transcript)(tuple(bad), transcript.F)
        recovered = decode(inst, caches, corrupted)
        assert any(
            recovered[k] != inst.files[inst.demand[k]] for k in range(inst.pda.K)
        )

    @pytest.mark.parametrize("pattern", [b"\x00", b"\xff", None])
    def test_xor_algebra_adversarial_contents(self, example_pda, pattern):
        if pattern is None:
            files = tuple(random.Random(5).randbytes(16) for _ in range(6))
        else:
            files = tuple(pattern * 16 for _ in range(6))
        inst = CachingInstance(files, example_pda, tuple(range(6)))
        caches = place(inst)
        recovered = decode(inst, caches, deliver(inst))
        assert all(recovered[k] == files[k] for k in range(6))


class TestInstanceTables:
    def test_packet_table_covers_the_demanded_files(self, example_pda):
        rng = random.Random(6)
        files = tuple(rng.randbytes(12) for _ in range(4))
        inst = CachingInstance(files, example_pda, (2, 0, 2, 2, 0, 0))
        assert inst.packets[1] is None and inst.packets[3] is None
        for n in (0, 2):
            assert inst.packets[n] == [int.from_bytes(inst.packet(n, j), "big") for j in range(4)]

    def test_index_built_once_per_round(self, monkeypatch, example_pda):
        calls = []
        original = Pda.symbol_positions

        def counted(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(Pda, "symbol_positions", counted)
        inst = random_instance(example_pda, seed=1)
        decode(inst, place(inst), deliver(inst))
        assert len(calls) == 1
        calls.clear()
        assert run_round_trip(example_pda, seed=1)[2]
        assert len(calls) == 1


@st.composite
def sim_instances(draw):
    """Grids up to 5x5 that may fail C1, N from 1 to K+1 files (so demands
    repeat and N < K occurs), and packets of 1 to 9 bytes that start with
    up to a whole packet of zero bytes."""
    k = draw(st.integers(1, 5))
    grid = draw(
        st.lists(
            st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=k, max_size=k),
            min_size=1,
            max_size=5,
        )
    )
    n_files = draw(st.integers(1, k + 1))
    demand = tuple(draw(st.lists(st.integers(0, n_files - 1), min_size=k, max_size=k)))
    size = draw(st.sampled_from([1, 2, 3, 8, 9]))
    zeros = draw(st.integers(0, size))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    files = tuple(
        b"".join(bytes(zeros) + rng.randbytes(size - zeros) for _ in grid) for _ in range(n_files)
    )
    return CachingInstance(files, pda_from_grid(grid), demand)


def round_outcome(deliver_fn, decode_fn, inst):
    """Signals, and the recovered files or the DecodeFailure message."""
    transcript = deliver_fn(inst)
    try:
        result = decode_fn(inst, place(inst), transcript)
    except DecodeFailure as exc:
        result = str(exc)
    return transcript.signals, result


class TestAgainstReferenceSimulator:
    @given(sim_instances())
    @example(CachingInstance((b"ab", b"cd"), pda_from_grid([[0, 0]]), (0, 1)))
    @example(CachingInstance((b"\0\0\0\1",), EXAMPLE_PDA_4x6, (0,) * 6))
    @settings(max_examples=200, deadline=None)
    def test_same_signals_and_recovery(self, inst):
        want = round_outcome(reference.deliver, reference.decode, inst)
        assert round_outcome(deliver, decode, inst) == want


class TestSymbolic:
    def test_example_decodes_symbolically(self, example_pda):
        assert symbolic_round_trip(example_pda)

    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.lists(
                st.lists(st.one_of(st.none(), st.integers(0, 3)), min_size=k, max_size=k),
                min_size=1,
                max_size=4,
            )
        )
    )
    @example(EXAMPLE_PDA_4x6.grid)
    @example([[0, 0]])  # row repeat: a side packet is missing
    @example([[0], [0]])  # column repeat: the user decodes the wrong packet
    @example([[0, None], [1, 0]])  # corner not a star
    @settings(max_examples=200, deadline=None)
    def test_verify_accepts_exactly_what_decodes(self, grid):
        p = pda_from_grid(grid)
        try:
            decodes = symbolic_round_trip(p)
        except DecodeFailure:
            decodes = False
        assert bool(verify_pda(p)) == decodes


class TestLoad:
    def test_theorem6_load(self):
        pda, _ = build_theorem6(3, 2, 2)
        _, transcript, ok = run_round_trip(pda, seed=0)
        assert ok and transcript.measured_load == 1

    def test_theorem7_load(self):
        pda, _ = build_theorem7(4, 2, 3)
        _, transcript, ok = run_round_trip(pda, seed=0)
        assert ok and transcript.measured_load == Fraction(72, 9) == 8

    def test_load_equals_params_ratio(self, example_pda):
        _, transcript, _ = run_round_trip(example_pda, seed=9)
        p = pda_params(example_pda)
        assert transcript.measured_load == Fraction(p.S, p.F)
