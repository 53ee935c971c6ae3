"""Placement, delivery, and decoding driven by a PDA."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from reference import packet
from conftest import EXAMPLE_PDA_4x6, count_index_builds, symbolic_round_trip
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
from pdacache import schemes, sim
from pdacache.errors import BadInput, BadLength, BadParams, DecodeFailure


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
            (n, j): packet(inst, n, j)
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
        assert caches[0] == frozenset({0, 1})
        assert all(type(cache) is frozenset for cache in caches)

    def test_cache_fraction_matches_star_count(self, example_instance):
        caches = place(example_instance)
        inst = example_instance
        total = len(inst.files) * len(inst.files[0])
        for k, cache in enumerate(caches):
            stars = sum(inst.pda.grid[j][k] is None for j in range(inst.pda.F))
            cached = len(cache) * inst.N * inst.packet_size
            assert Fraction(cached, total) == Fraction(stars, inst.pda.F)

    def test_all_star_pda_caches_everything(self):
        p = pda_from_grid([[None], [None]])
        inst = random_instance(p, seed=0)
        caches = place(inst)
        assert caches == [frozenset({0, 1})]

    def test_star_free_column_caches_nothing(self):
        inst = CachingInstance((b"abcd",), pda_from_grid([[0], [1]]), (0,))
        assert place(inst) == [frozenset()]

    def test_single_star_per_column(self):
        inst = CachingInstance(
            (b"abcd", b"efgh"), pda_from_grid([[0, None], [None, 0]]), (0, 1)
        )
        assert place(inst) == [frozenset({1}), frozenset({0})]

    def test_views_equal_copied_caches(self, example_instance):
        # Row j in user k's cache stands for packet j of every file.
        inst = example_instance
        caches = place(inst)
        expanded = [
            {(n, j): packet(inst, n, j) for j in sorted(cache) for n in range(inst.N)}
            for cache in caches
        ]
        assert expanded == copied_caches(inst)

    def test_caches_are_the_pdas_star_rows(self, example_instance):
        caches = place(example_instance)
        assert all(map(operator.is_, caches, example_instance.pda.sim_layout.caches))

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
            packet(inst, 0, 2), packet(inst, 1, 1), packet(inst, 3, 0)
        )

    def test_all_four_signals(self, example_instance):
        inst = example_instance
        transcript = deliver(inst)
        expected = [
            xor_bytes(packet(inst, 0, 2), packet(inst, 1, 1), packet(inst, 3, 0)),
            xor_bytes(packet(inst, 0, 3), packet(inst, 2, 1), packet(inst, 4, 0)),
            xor_bytes(packet(inst, 1, 3), packet(inst, 2, 2), packet(inst, 5, 0)),
            xor_bytes(packet(inst, 3, 3), packet(inst, 4, 2), packet(inst, 5, 1)),
        ]
        assert list(transcript.signals) == expected

    def test_gain_one_symbol_sends_uncoded_packet(self):
        p = pda_from_grid([[0, None], [None, 1]])
        inst = random_instance(p, seed=3)
        transcript = deliver(inst)
        assert transcript.signals[0] == packet(inst, inst.demand[0], 0)

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
        positions = reference.symbol_positions(pda)
        expected = [
            xor_bytes(*(packet(inst, inst.demand[k], j) for j, k in positions[s]))
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

    def test_missing_own_packet_names_user_and_packet(self):
        inst = random_instance(pda_from_grid([[None, 0], [0, None]]))
        caches = place(inst)
        with pytest.raises(DecodeFailure, match=r"^user 0 lacks its own packet \(0, 0\)$"):
            decode(inst, [frozenset(), caches[1]], deliver(inst))

    def test_first_missing_packet_wins_row_by_row(self):
        # User 0's row 0 needs side packet (1, 1), and its row 1 is its own
        # packet (0, 1); an empty cache lacks both, and row 0 comes first.
        inst = random_instance(pda_from_grid([[0, None], [None, 0]]))
        empty = frozenset()
        transcript = deliver(inst)
        side = r"^user 0 lacks packet \(1, 1\) needed for symbol 0$"
        with pytest.raises(DecodeFailure, match=side):
            decode(inst, [empty, place(inst)[1]], transcript)
        # Swapping the rows puts the own packet (0, 0) first.
        inst = random_instance(pda_from_grid([[None, 0], [0, None]]))
        with pytest.raises(DecodeFailure, match=r"^user 0 lacks its own packet \(0, 0\)$"):
            decode(inst, [empty, place(inst)[1]], deliver(inst))

    def test_cache_with_extra_rows_decodes(self, example_instance):
        inst = example_instance
        full = frozenset(range(inst.pda.F))
        recovered = decode(inst, [full] * inst.pda.K, deliver(inst))
        assert recovered == [inst.files[d] for d in inst.demand]

    def test_mutable_set_caches_decode(self, example_instance):
        inst = example_instance
        recovered = decode(inst, [set(c) for c in place(inst)], deliver(inst))
        assert recovered == [inst.files[d] for d in inst.demand]

    @pytest.mark.parametrize("bad", [5, [0, 1], (0, 1), {0: None, 1: None}, "01", None])
    def test_cache_that_is_not_a_set_rejected(self, example_instance, bad):
        inst = example_instance
        caches = place(inst)
        caches[2] = bad
        message = f"^cache of user 2 has type {type(bad).__name__}, not set or frozenset$"
        with pytest.raises(BadParams, match=message):
            decode(inst, caches, deliver(inst))

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


NOT_OBJECTS = pytest.mark.parametrize(
    "arg, name", [(5, "int"), (None, "NoneType"), ([[0]], "list"), ((((0,),),), "tuple")]
)


class TestEntryPointTypes:
    """Each simulator entry point ends a call with a wrong-type argument in
    a typed error, never AttributeError or TypeError."""

    @NOT_OBJECTS
    def test_random_instance_takes_a_pda(self, arg, name):
        with pytest.raises(BadInput, match=f"^random_instance takes a Pda, not {name}$"):
            random_instance(arg)

    @NOT_OBJECTS
    def test_run_round_trip_takes_a_pda(self, arg, name):
        with pytest.raises(BadInput, match=f"^run_round_trip takes a Pda, not {name}$"):
            run_round_trip(arg)

    @NOT_OBJECTS
    def test_instance_takes_a_pda(self, arg, name):
        with pytest.raises(BadInput, match=f"^CachingInstance takes a Pda, not {name}$"):
            CachingInstance((b"ab",), arg, (0,))

    @NOT_OBJECTS
    def test_place_takes_an_instance(self, arg, name):
        with pytest.raises(BadInput, match=f"^place takes a CachingInstance, not {name}$"):
            place(arg)

    @NOT_OBJECTS
    def test_deliver_takes_an_instance(self, arg, name):
        with pytest.raises(BadInput, match=f"^deliver takes a CachingInstance, not {name}$"):
            deliver(arg)

    @NOT_OBJECTS
    def test_decode_takes_an_instance(self, example_instance, arg, name):
        caches, transcript = place(example_instance), deliver(example_instance)
        with pytest.raises(BadInput, match=f"^decode takes a CachingInstance, not {name}$"):
            decode(arg, caches, transcript)

    @NOT_OBJECTS
    def test_decode_takes_a_transcript(self, example_instance, arg, name):
        caches = place(example_instance)
        with pytest.raises(BadInput, match=f"^decode takes a DeliveryTranscript, not {name}$"):
            decode(example_instance, caches, arg)

    @pytest.mark.parametrize(
        "caches, name", [(5, "int"), (None, "NoneType"), (frozenset(), "frozenset")]
    )
    def test_decode_takes_a_list_of_caches(self, example_instance, caches, name):
        transcript = deliver(example_instance)
        message = f"^caches must be a list or tuple of sets, not {name}$"
        with pytest.raises(BadParams, match=message):
            decode(example_instance, caches, transcript)

    @pytest.mark.parametrize("demand, shown", [(5, "5"), (1.5, "1.5"), (True, "True")])
    def test_random_instance_takes_an_iterable_demand(self, monkeypatch, example_pda, demand, shown):
        def refuse(self, n):
            raise AssertionError("drew a file")

        monkeypatch.setattr(random.Random, "randbytes", refuse)
        message = f"^demand must be an iterable of integers, not {shown}$"
        with pytest.raises(BadParams, match=message):
            random_instance(example_pda, demand=demand)

    @pytest.mark.parametrize(
        "files, demand, message",
        [
            (3, (0,) * 6, "^files must be a sequence, not int$"),
            (None, (0,) * 6, "^files must be a sequence, not NoneType$"),
            ((b"abcd",), 0, "^demand must be a sequence, not int$"),
            ((b"abcd",), {0}, "^demand must be a sequence, not set$"),
        ],
    )
    def test_instance_takes_sequences(self, example_pda, files, demand, message):
        with pytest.raises(BadParams, match=message):
            CachingInstance(files, example_pda, demand)

    def test_decode_takes_a_tuple_of_caches(self, example_instance):
        caches = tuple(place(example_instance))
        recovered = decode(example_instance, caches, deliver(example_instance))
        assert recovered == [example_instance.files[d] for d in example_instance.demand]


class TestInstanceTables:
    def test_packet_table_covers_the_demanded_files(self, example_pda):
        rng = random.Random(6)
        files = tuple(rng.randbytes(12) for _ in range(4))
        demand = (2, 0, 2, 2, 0, 0)
        inst = CachingInstance(files, example_pda, demand)
        assert inst.flat == [packet(inst, d, j) for d in demand for j in range(4)]
        assert all(type(x) is bytes for x in inst.flat)
        # users demanding one file share its packet objects
        assert inst.flat[0] is inst.flat[8] and inst.flat[4] is inst.flat[20]
        assert not hasattr(inst, "packets")

    def test_files_must_be_bytes(self):
        pda = pda_from_grid([[None, 0], [0, None]])
        for files in (("abcd", "efgh"), (b"abcd", bytearray(b"efgh")), ([1, 2], [3, 4])):
            with pytest.raises(BadParams, match="files must be bytes"):
                CachingInstance(files, pda, (0, 1))

    @pytest.mark.parametrize("seed", [[1], 1.5, "1", None, True, b"1"])
    def test_seed_must_be_an_int(self, monkeypatch, example_pda, seed):
        def refuse(self, n):
            raise AssertionError("drew a file")

        monkeypatch.setattr(random.Random, "randbytes", refuse)
        with pytest.raises(BadParams, match="seed must be an integer"):
            random_instance(example_pda, seed=seed)

    def test_success_path_builds_the_cell_index_once_per_pda(self, monkeypatch):
        """Across rounds the success path builds the cell index once per
        Pda, for its Layout; a twin grid builds its own."""
        calls = count_index_builds(monkeypatch)
        p = pda_from_grid(EXAMPLE_PDA_4x6.grid)
        for seed in (1, 2):
            inst = random_instance(p, seed=seed, demand=(seed,) * 6)
            assert decode(inst, place(inst), deliver(inst)) == [inst.files[seed]] * 6
        assert run_round_trip(p, seed=3)[2]
        assert len(calls) == 1 and calls[0] is p
        twin = pda_from_grid(EXAMPLE_PDA_4x6.grid)
        assert run_round_trip(twin, seed=1)[2]
        assert len(calls) == 2 and calls[1] is twin
        assert twin.sim_layout is not p.sim_layout

    @pytest.mark.parametrize("packet_bytes", [-1, 2.5, True, "4", None])
    def test_packet_size_must_be_a_count(self, monkeypatch, example_pda, packet_bytes):
        def refuse(self, n):
            raise AssertionError("drew a file")

        monkeypatch.setattr(random.Random, "randbytes", refuse)
        with pytest.raises(BadParams, match="packet_bytes must be an integer >= 0"):
            random_instance(example_pda, packet_bytes=packet_bytes)

    def test_zero_byte_packets_round_trip(self, example_pda):
        inst, transcript, ok = run_round_trip(example_pda, packet_bytes=0)
        assert ok and transcript.signals == (b"",) * 4

    @pytest.mark.parametrize("demand", [(0,) * 5, (0,) * 7, ()])
    def test_demand_of_wrong_length(self, example_pda, demand):
        with pytest.raises(BadLength, match=f"demand has {len(demand)} entries, need K=6"):
            random_instance(example_pda, demand=demand)

    @pytest.mark.parametrize("entry", [-1, 6, 1.0, "1", None, True])
    def test_demand_entry_out_of_range(self, example_pda, entry):
        demand = (0, 1, 2, entry, 4, 5)
        with pytest.raises(BadParams, match=r"demand entries must be integers in \[0, N=6\)"):
            random_instance(example_pda, demand=demand)

    @pytest.mark.parametrize("grid", [[], [[]], [[], []]])
    def test_no_users_take_an_empty_demand(self, grid):
        inst = CachingInstance((b"ab",), pda_from_grid(grid), ())
        assert deliver(inst).signals == () and decode(inst, [], deliver(inst)) == []

    def test_files_of_unequal_length(self, example_pda):
        files = (b"abcd",) * 5 + (b"abcdefgh",)
        with pytest.raises(BadLength, match="^all files must have equal length$"):
            CachingInstance(files, example_pda, tuple(range(6)))

    def test_instance_byte_limit_is_inclusive(self, monkeypatch, example_pda):
        # N * F * packet bytes = 6 * 4 * 8
        monkeypatch.setattr(sim, "MAX_INSTANCE_BYTES", 192)
        assert len(random_instance(example_pda, packet_bytes=8).files[0]) == 32
        monkeypatch.setattr(sim, "MAX_INSTANCE_BYTES", 191)
        message = "N\\*F\\*packet bytes = 192 exceeds the limit MAX_INSTANCE_BYTES = 191"
        with pytest.raises(BadParams, match=message):
            random_instance(example_pda, packet_bytes=8)

    def test_too_many_bytes_refused_before_drawing(self, monkeypatch, example_pda):
        def refuse(*args):
            raise AssertionError("files were drawn")

        monkeypatch.setattr(random.Random, "randbytes", refuse)
        for packet_bytes in (sim.MAX_INSTANCE_BYTES // 24 + 1, 25 * 10**9):
            with pytest.raises(BadParams, match="exceeds the limit MAX_INSTANCE_BYTES"):
                random_instance(example_pda, packet_bytes=packet_bytes)


@st.composite
def sim_instances(draw):
    """Grids up to 5x5 that may fail C1, N from 1 to K+1 files (so demands
    repeat and N < K occurs), and packets of 0 to 9 bytes that start with
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
    size = draw(st.sampled_from([0, 1, 2, 3, 8, 9]))
    zeros = draw(st.integers(0, size))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    files = tuple(
        b"".join(bytes(zeros) + rng.randbytes(size - zeros) for _ in grid) for _ in range(n_files)
    )
    return CachingInstance(files, pda_from_grid(grid), demand)


@st.composite
def cache_edits(draw):
    """None (place's caches) in about 60% of draws; ("thin", k, i) drops
    the i-th star row of user k (mod K and the star count) in about 30%;
    "widen" gives every user every row in about 10%."""
    u = draw(st.integers(0, 9))
    if u < 6:
        return None
    if u < 9:
        return ("thin", draw(st.integers(0, 5)), draw(st.integers(0, 5)))
    return "widen"


def edited_caches(inst, edit):
    caches = place(inst)
    if edit == "widen":
        return [frozenset(range(inst.pda.F)) for _ in caches]
    if edit is not None:
        _, k, i = edit
        k %= len(caches)
        rows = sorted(caches[k])
        if rows:
            del rows[i % len(rows)]
        caches[k] = frozenset(rows)
    return caches


def round_outcome(deliver_fn, decode_fn, inst, edit=None):
    """Signals, and the recovered files or the DecodeFailure message."""
    transcript = deliver_fn(inst)
    try:
        result = decode_fn(inst, edited_caches(inst, edit), transcript)
    except DecodeFailure as exc:
        result = str(exc)
    return transcript.signals, result


# Gains 1, 2 and 3 in one valid PDA: symbol 0 three times, 1 twice, 2 once.
THREE_GAIN_CLASSES = [
    [None, None, 0, 2],
    [None, 0, None, 1],
    [0, None, None, None],
    [1, None, None, None],
]


class TestAgainstReferenceSimulator:
    @given(sim_instances(), cache_edits())
    @example(CachingInstance((b"ab", b"cd"), pda_from_grid([[0, 0]]), (0, 1)), None)
    @example(CachingInstance((b"\0\0\0\1",), EXAMPLE_PDA_4x6, (0,) * 6), None)
    @example(CachingInstance((b"\0\0\0\1",), EXAMPLE_PDA_4x6, (0,) * 6), ("thin", 5, 1))
    @example(CachingInstance((b"\0\0\0\1",), EXAMPLE_PDA_4x6, (0,) * 6), "widen")
    @example(CachingInstance((bytes(8),), pda_from_grid(THREE_GAIN_CLASSES), (0,) * 4), None)
    @example(CachingInstance((b"", b""), pda_from_grid(THREE_GAIN_CLASSES), (1, 0, 1, 0)), None)
    @example(CachingInstance((b"", b""), pda_from_grid([[0, 1], [None, 0]]), (1, 0)), "widen")
    @example(CachingInstance((b"abcd",), pda_from_grid([[0], [0]]), (0,)), "widen")
    @example(CachingInstance((b"ab", b"cd"), pda_from_grid([[0, None], [1, 0]]), (0, 1)), "widen")
    @settings(max_examples=300, deadline=None)
    def test_same_signals_and_recovery(self, inst, edit):
        want = round_outcome(reference.deliver, reference.decode, inst, edit)
        assert round_outcome(deliver, decode, inst, edit) == want

    def test_three_gain_classes_decode(self):
        p = pda_from_grid(THREE_GAIN_CLASSES)
        assert verify_pda(p)
        assert [n for n, _, _ in p.sim_layout.classes] == [1, 1, 1]
        assert [len(planes) for _, planes, _ in p.sim_layout.classes] == [1, 2, 3]
        for size in (0, 1, 33):
            assert run_round_trip(p, seed=size, packet_bytes=size)[2]


def refuse_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError("decode fell back to the scan")

    monkeypatch.setattr(sim, "_scan", refuse)


# One small PDA of every scheme family.
FAMILY_SPECS = [
    schemes.SchemeSpec("theorem3", m=5, s=3, t=2, omega=1),
    schemes.SchemeSpec("theorem6", m=3, t=2, q=2),
    schemes.SchemeSpec("theorem7", m=4, t=2, q=3),
    schemes.SchemeSpec("mn", m=5, s=2),
    schemes.SchemeSpec("szg_first", m=5, s=3, t=2),
    schemes.SchemeSpec("szg_second", m=3, t=2, q=3),
]


def count_plane_joins(p):
    """Make p's Layout record every plane it gathers from a flat table, and
    return that list: one entry per plane int built."""
    joins = []

    def counted(plane):
        def gather(flat):
            joins.append(plane)
            return plane(flat)

        return gather

    layout = p.sim_layout
    layout.classes = tuple(
        (n, tuple(map(counted, planes)), signals) for n, planes, signals in layout.classes
    )
    return joins


SHARED_PLANE_PDAS = [EXAMPLE_PDA_4x6.grid, THREE_GAIN_CLASSES, build_mn(5, 2)[0].grid]


class TestSharedPlanes:
    @pytest.mark.parametrize("grid", SHARED_PLANE_PDAS)
    def test_decode_builds_the_planes_without_deliver(self, grid):
        p = pda_from_grid(grid)
        inst = random_instance(p, seed=7, packet_bytes=5, demand=(1,) + (0,) * (p.K - 1))
        transcript = reference.deliver(inst)
        assert "plane_ints" not in vars(inst)
        recovered = decode(inst, place(inst), transcript)
        assert "plane_ints" in vars(inst)
        assert recovered == reference.decode(inst, place(inst), transcript)
        assert recovered == [inst.files[d] for d in inst.demand]

    @pytest.mark.parametrize("grid", SHARED_PLANE_PDAS)
    def test_transcript_edited_after_deliver(self, grid):
        p = pda_from_grid(grid)
        inst = random_instance(p, seed=8, packet_bytes=5)
        signals = deliver(inst).signals
        planes = inst.plane_ints
        for i in range(len(signals)):
            edited = list(signals)
            edited[i] = bytes([edited[i][0] ^ 0x81]) + edited[i][1:]
            transcript = sim.DeliveryTranscript(tuple(edited), p.F)
            recovered = decode(inst, place(inst), transcript)
            assert recovered == reference.decode(inst, place(inst), transcript)
            assert recovered != [inst.files[d] for d in inst.demand]
        assert inst.plane_ints is planes

    @pytest.mark.parametrize("grid", SHARED_PLANE_PDAS)
    def test_planes_built_once_per_instance(self, grid):
        p = pda_from_grid(grid)
        joins = count_plane_joins(p)
        count = sum(len(planes) for _, planes, _ in p.sim_layout.classes)
        for seed in (1, 2):
            inst = random_instance(p, seed=seed, packet_bytes=4)
            assert decode(inst, place(inst), deliver(inst)) == list(inst.files)
            assert len(joins) == seed * count

    def test_scan_builds_no_planes(self, example_instance):
        caches = place(example_instance)
        caches[2] = frozenset({0})
        transcript = reference.deliver(example_instance)
        with pytest.raises(DecodeFailure):
            decode(example_instance, caches, transcript)
        assert "plane_ints" not in vars(example_instance)


class TestDecodePath:
    def test_every_family_is_covered(self):
        assert {spec.family for spec in FAMILY_SPECS} == set(schemes.FAMILIES)

    @pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda spec: spec.family)
    def test_place_caches_never_reach_the_scan(self, monkeypatch, spec):
        refuse_scan(monkeypatch)
        pda, _ = schemes.build(spec)
        inst = random_instance(pda, seed=4, packet_bytes=3, demand=(0,) * pda.K)
        assert decode(inst, place(inst), deliver(inst)) == [inst.files[0]] * pda.K
        assert run_round_trip(pda, seed=5, packet_bytes=3)[2]

    def test_plane_path_reads_only_the_verdict_and_layout(self, monkeypatch, example_instance):
        inst = example_instance
        caches, transcript = place(inst), deliver(inst)
        assert inst.pda.verdict
        refuse_scan(monkeypatch)
        monkeypatch.setattr(Pda, "K", property(lambda p: pytest.fail("decode read the Pda")))
        calls = count_index_builds(monkeypatch)
        recovered = decode(inst, caches, transcript)
        assert recovered == [inst.files[d] for d in inst.demand]
        assert calls == []

    def test_thinned_cache_reaches_the_scan(self, monkeypatch, example_instance):
        inst = example_instance
        caches = place(inst)
        caches[2] = frozenset({0})  # drops star row 3
        transcript = deliver(inst)
        with pytest.raises(DecodeFailure, match=r"^user 2 lacks packet \(0, 3\) needed for symbol 1$"):
            decode(inst, caches, transcript)
        refuse_scan(monkeypatch)
        with pytest.raises(AssertionError, match="fell back to the scan"):
            decode(inst, caches, transcript)

    def test_column_repeat_reaches_the_scan(self, monkeypatch):
        inst = CachingInstance((b"abcd",), pda_from_grid([[0], [0]]), (0,))
        full = frozenset(range(2))
        assert not inst.pda.verdict
        refuse_scan(monkeypatch)
        with pytest.raises(AssertionError, match="fell back to the scan"):
            decode(inst, [full], deliver(inst))

    def test_c1_failure_without_a_column_repeat_reaches_the_scan(self, monkeypatch):
        # Symbol 0 sits in distinct rows and columns, but corner (1, 0)
        # holds symbol 1, not a star.
        inst = CachingInstance((b"ab", b"cd"), pda_from_grid([[0, None], [1, 0]]), (0, 1))
        assert not inst.pda.verdict
        widened = [frozenset(range(2))] * 2
        transcript = deliver(inst)
        scans = []
        scan = sim._scan

        def counted(*args):
            scans.append(args)
            return scan(*args)

        monkeypatch.setattr(sim, "_scan", counted)
        recovered = decode(inst, widened, transcript)
        assert len(scans) == 1
        assert recovered == reference.decode(inst, widened, transcript)


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
