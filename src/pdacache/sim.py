"""End-to-end caching simulation driven by a PDA: split files into packets,
give every user the star rows of its column as its cache, broadcast one XOR
signal per symbol, and let every user reassemble its demanded file.

No packet is copied into a cache: user k's cache is the frozenset of the
rows j whose packet j of every file it holds.  What depends only on the PDA
(its C1 verdict and the simulator's gain-class Layout, which holds every
user's cache) is built once per Pda and read by every round.  Each
instance splits the demanded files into one flat table of packets and
joins each gain-class plane of that table into one big int once;
delivery and decoding both XOR those plane ints."""

from __future__ import annotations

import random
import struct
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import chain, compress, repeat
from operator import is_, itemgetter, xor

from .errors import BadLength, BadParams, DecodeFailure, require_ints, require_type, require_within
from .pda import Pda, symbol_cells

# The most file bytes, N * F * packet bytes, that random_instance draws.
# Larger requests are refused before any file is drawn.  theorem7(6,2,5)
# with 64-byte packets, the largest round trip measured, draws 1.5e7 bytes.
MAX_INSTANCE_BYTES = 10**8


@lru_cache(maxsize=64)
def _splitter(size, n):
    """A function that cuts n * size bytes into a tuple of n size-byte
    packets; one struct unpack is much faster than n slices."""
    return struct.Struct(f"{size}s" * n).unpack


def _getter(indices):
    """itemgetter over indices that returns a sequence for any count."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return lambda seq: ()


@dataclass(frozen=True)
class CachingInstance:
    files: tuple  # N >= 1 byte strings of equal length
    pda: Pda
    demand: tuple  # length K, entries in [0, N)

    def __post_init__(self):
        require_type(self.pda, Pda, "CachingInstance")
        for name, value in (("files", self.files), ("demand", self.demand)):
            if not isinstance(value, Sequence):
                raise BadParams(f"{name} must be a sequence, not {type(value).__name__}")
        if not self.files:
            raise BadLength("need at least one file")
        if set(map(type, self.files)) != {bytes}:
            raise BadParams("files must be bytes")
        if len(set(map(len, self.files))) > 1:
            raise BadLength("all files must have equal length")
        n, length, demand = len(self.files), len(self.files[0]), self.demand
        if self.pda.F and length % self.pda.F:
            raise BadLength(f"file length {length} not divisible by F={self.pda.F}")
        if len(demand) != self.pda.K:
            raise BadLength(f"demand has {len(demand)} entries, need K={self.pda.K}")
        if set(map(type, demand)) - {int} or demand and not 0 <= min(demand) <= max(demand) < n:
            raise BadParams(f"demand entries must be integers in [0, N={n})")

    @property
    def N(self):
        return len(self.files)

    @property
    def packet_size(self):
        return len(self.files[0]) // self.pda.F if self.pda.F else 0

    @cached_property
    def flat(self):
        """flat[k*F + j]: packet j of the file user k demands, as bytes.
        Users demanding one file share its packet objects.  Built on first
        use and freed with the instance."""
        unpack = _splitter(self.packet_size, self.pda.F)
        split = {n: unpack(self.files[n]) for n in set(self.demand)}
        return list(chain.from_iterable(map(split.__getitem__, self.demand)))

    @cached_property
    def plane_ints(self):
        """plane_ints[c][i]: plane i of gain class c of pda.sim_layout, joined
        from flat into one big int once and read by deliver and decode."""
        classes = self.pda.sim_layout.classes
        return [[int.from_bytes(b"".join(p(self.flat)), "big") for p in ps] for _, ps, _ in classes]


def random_instance(pda, seed=0, packet_bytes=4, demand=None):
    """Seeded instance with N = K files of packet_bytes * F bytes each and
    the all-distinct default demand d_k = k.  BadInput when pda is not a
    Pda; BadParams for a seed not an int, a packet_bytes not an int >= 0, a
    demand not iterable, or files of more than MAX_INSTANCE_BYTES bytes."""
    require_type(pda, Pda, "random_instance")
    require_ints(BadParams, seed=seed)
    require_ints(BadParams, 0, packet_bytes=packet_bytes)
    if demand is None:
        demand = range(pda.K)
    try:
        demand = tuple(demand)
    except TypeError:
        raise BadParams(f"demand must be an iterable of integers, not {demand!r}") from None
    n = max(pda.K, 1)
    length = packet_bytes * max(pda.F, 1)
    text = f"N*F*packet bytes = {n * length}"
    require_within(BadParams, "MAX_INSTANCE_BYTES", MAX_INSTANCE_BYTES, (text, n * length))
    rng = random.Random(seed)
    files = tuple(rng.randbytes(length) for _ in range(n))
    return CachingInstance(files, pda, demand)


def place(inst):
    """Per-user caches: user k holds packet j of every file iff cell (j, k)
    is a star, so its cache is the frozenset of its column's star rows."""
    require_type(inst, CachingInstance, "place")
    return list(inst.pda.sim_layout.caches)


class Layout:
    """The cells of a PDA grouped by gain, as flat-table indices, for
    delivering and decoding whole planes at once.  Built from
    symbol_cells once per Pda (Pda.sim_layout), keeping none of it.

    classes: one (n, planes, signals) per gain g, ascending.  The class's
    n symbols are in ascending order; planes[i] gathers, from an instance's
    flat table, the packet at the i-th cell of each symbol (g planes), and
    signals gathers the class's signals from a transcript.
    order: gathers the class-ordered signals back into ascending symbol
    order.
    gathers[k]: user k's packets in row order from [own packets | decoded
    packets], the flat table followed by the decoded planes in class, plane
    and symbol order.
    caches[k]: the star rows of column k as a frozenset, which is user k's
    cache."""

    def __init__(self, pda):
        F, cells = pda.F, symbol_cells(pda)
        symbols = sorted(cells)
        by_gain = defaultdict(list)
        for rank, s in enumerate(symbols):
            by_gain[len(cells[s])].append(rank)
        source = list(range(F * pda.K))  # source[k*F + j]: user k's packet j
        classes, order, decoded = [], [], []
        for g, ranks in sorted(by_gain.items()):
            members = [cells[symbols[r]] for r in ranks]
            planes = [[c[i] for c in members] for i in range(g)]
            decoded.extend(chain.from_iterable(planes))
            classes.append((len(ranks), tuple(map(_getter, planes)), _getter(ranks)))
            order.extend(ranks)
        for y, x in enumerate(decoded, len(source)):
            source[x] = y
        self.classes = tuple(classes)
        self.order = _getter(sorted(range(len(order)), key=order.__getitem__))
        self.gathers = tuple(_getter(source[k * F : (k + 1) * F]) for k in range(pda.K))
        self.caches = tuple(
            frozenset(compress(range(F), map(is_, col, repeat(None)))) for col in zip(*pda.grid)
        )


@dataclass(frozen=True)
class DeliveryTranscript:
    signals: tuple  # one byte string per symbol id, ascending
    F: int

    @property
    def measured_load(self):
        return Fraction(len(self.signals), self.F) if self.F else Fraction(0)


def deliver(inst):
    """One signal per symbol id s, ascending: the XOR over all cells
    (j, k) = s of packet j of user k's demanded file.  Each gain class XORs
    its g plane ints (inst.plane_ints) and splits the result into its signals."""
    require_type(inst, CachingInstance, "deliver")
    layout, size = inst.pda.sim_layout, inst.packet_size
    signals = []
    for (n, _, _), planes in zip(layout.classes, inst.plane_ints):
        signals.extend(_splitter(size, n)(reduce(xor, planes).to_bytes(n * size, "big")))
    return DeliveryTranscript(tuple(layout.order(signals)), inst.pda.F)


def decode(inst, caches, transcript):
    """Reconstruct every user's demanded file from its cache plus the
    broadcast signals; byte-exact for any PDA satisfying C1.  Each cache is
    a set of rows, as place makes them: user k holds packet j of every file
    for each row j in caches[k].  Every packet a user reads, its own or a
    side packet, must lie in one of its cache's rows, else DecodeFailure
    names the first one missing, user by user and row by row.  A wrong
    type raises BadInput (inst, transcript) or BadParams (caches, a cache),
    a wrong-length transcript, cache list or signal BadLength.

    When the PDA satisfies C1 (pda.verdict) and every cache holds its
    column's star rows, each gain class is decoded plane by plane: the user
    at the i-th cell of a symbol gets its signal XOR the class's planes
    before and after i, so no cell reads its own packet.  C1 puts every
    side packet a user reads in its star rows.  Otherwise _scan decodes
    user by user and names the first missing packet."""
    require_type(inst, CachingInstance, "decode")
    require_type(transcript, DeliveryTranscript, "decode")
    if not isinstance(caches, (list, tuple)):
        raise BadParams(f"caches must be a list or tuple of sets, not {type(caches).__name__}")
    layout, size, signals = inst.pda.sim_layout, inst.packet_size, transcript.signals
    S, K = sum(n for n, _, _ in layout.classes), len(layout.caches)
    if len(signals) != S:
        raise BadLength(f"transcript has {len(signals)} signals, need S={S}")
    if len(caches) != K:
        raise BadLength(f"got {len(caches)} caches, need K={K}")
    if not all(map(isinstance, caches, repeat((set, frozenset)))):
        k, c = next((k, c) for k, c in enumerate(caches) if not isinstance(c, (set, frozenset)))
        raise BadParams(f"cache of user {k} has type {type(c).__name__}, not set or frozenset")
    if set(map(len, signals)) - {size}:
        i, x = next((i, x) for i, x in enumerate(signals) if len(x) != size)
        raise BadLength(f"signal {i} has {len(x)} bytes, need packet size {size}")
    if not inst.pda.verdict or not all(map(frozenset.issubset, layout.caches, caches)):
        return _scan(inst, caches, signals)
    table = list(inst.flat)  # [own packets | decoded packets]
    for (n, _, class_signals), planes in zip(layout.classes, inst.plane_ints):
        unpack = _splitter(size, n)
        acc = int.from_bytes(b"".join(class_signals(signals)), "big")
        for packets in _unmix(planes, acc):
            table.extend(unpack(packets.to_bytes(n * size, "big")))
    return [b"".join(gather(table)) for gather in layout.gathers]


def _unmix(planes, acc):
    """Yield, plane by plane, acc (a gain class's signals as an int) XOR
    every other plane int of the class: signal ^ prefix ^ suffix.  Only the
    suffix XORs are kept, one int per plane, and they are freed when the
    class is done."""
    suffix = [0] * (len(planes) + 1)
    for i in range(len(planes) - 1, -1, -1):
        suffix[i] = suffix[i + 1] ^ planes[i]
    for i in range(len(planes)):
        packets = acc ^ suffix[i + 1]
        yield packets
        acc = packets ^ suffix[i]  # signal ^ prefix through plane i


def _scan(inst, caches, signals):
    """Decode user by user and row by row, checking that every packet read
    lies in one of the user's cache rows; the first one missing raises
    DecodeFailure.  A side packet in the user's own column is skipped."""
    pda, flat, demand = inst.pda, inst.flat, inst.demand
    F, size, cells = pda.F, inst.packet_size, symbol_cells(pda)
    signal = dict(zip(sorted(cells), signals))
    recovered = []
    for k, (held, col) in enumerate(zip(caches, zip(*pda.grid))):
        parts = []
        for j, cell in enumerate(col):
            if cell is None:
                if j not in held:
                    raise DecodeFailure(f"user {k} lacks its own packet ({demand[k]}, {j})")
                parts.append(flat[k * F + j])
                continue
            acc = int.from_bytes(signal[cell], "big")
            for x in cells[cell]:
                k2, j2 = divmod(x, F)
                if k2 == k:
                    continue
                if j2 not in held:
                    raise DecodeFailure(
                        f"user {k} lacks packet ({demand[k2]}, {j2}) needed for symbol {cell}"
                    )
                acc ^= int.from_bytes(flat[x], "big")
            parts.append(acc.to_bytes(size, "big"))
        recovered.append(b"".join(parts))
    return recovered


def run_round_trip(pda, seed=0, packet_bytes=4, demand=None):
    """Place, deliver, decode; return (instance, transcript, ok)."""
    require_type(pda, Pda, "run_round_trip")
    inst = random_instance(pda, seed=seed, packet_bytes=packet_bytes, demand=demand)
    transcript = deliver(inst)
    recovered = decode(inst, place(inst), transcript)
    ok = all(recovered[k] == inst.files[inst.demand[k]] for k in range(inst.pda.K))
    return inst, transcript, ok
