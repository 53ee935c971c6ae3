"""End-to-end caching simulation driven by a PDA: split files into packets,
give every user a cache view of its star rows, broadcast one XOR signal per
symbol, and let every user reassemble its demanded file.

No packet is copied into a cache: a cache is a read-only view over the
instance's files.  What depends only on the PDA (its symbol index and each
column's star rows) is built once per Pda and read by every round.  Each
instance converts the packets of its demanded files to Python ints once,
and delivery and decoding XOR those ints."""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat

from .errors import BadLength, BadParams, DecodeFailure

# The most file bytes, N * F * packet bytes, that random_instance draws.
# Larger requests are refused before any file is drawn.  theorem7(6,2,5)
# with 64-byte packets, the largest round trip measured, draws 1.5e7 bytes.
MAX_INSTANCE_BYTES = 10**8


@dataclass(frozen=True)
class CachingInstance:
    files: tuple  # N >= 1 byte strings of equal length
    pda: "Pda"
    demand: tuple  # length K, entries in [0, N)

    def __post_init__(self):
        if not self.files:
            raise BadLength("need at least one file")
        n = len(self.files)
        length = len(self.files[0])
        if any(len(w) != length for w in self.files):
            raise BadLength("all files must have equal length")
        if self.pda.F and length % self.pda.F:
            raise BadLength(f"file length {length} not divisible by F={self.pda.F}")
        if len(self.demand) != self.pda.K:
            raise BadLength(f"demand has {len(self.demand)} entries, need K={self.pda.K}")
        if any(type(d) is not int or not 0 <= d < n for d in self.demand):
            raise BadParams(f"demand entries must be integers in [0, N={n})")

    @property
    def N(self):
        return len(self.files)

    @property
    def packet_size(self):
        return len(self.files[0]) // self.pda.F if self.pda.F else 0

    def packet(self, n, j):
        """Packet j of file n (contiguous byte slice)."""
        return self.files[n][self.slices[j]]

    @cached_property
    def slices(self):
        """slices[j]: the slice of any file that is its packet j."""
        size = self.packet_size
        return [slice(j * size, (j + 1) * size) for j in range(self.pda.F)]

    @cached_property
    def packets(self):
        """packets[n][j]: packet j of file n as a big-endian int, for the
        files named in the demand (None for the others).  Built on first
        use and freed with the instance."""
        table = [None] * len(self.files)
        for n in set(self.demand):
            packets = map(self.files[n].__getitem__, self.slices)
            table[n] = list(map(int.from_bytes, packets, repeat("big")))
        return table


def random_instance(pda, seed=0, packet_bytes=4, demand=None):
    """Seeded instance with N = K files of packet_bytes * F bytes each and
    the all-distinct default demand d_k = k.  BadParams when packet_bytes
    is not an int >= 0 or the files would hold more than
    MAX_INSTANCE_BYTES bytes."""
    if type(packet_bytes) is not int or packet_bytes < 0:
        raise BadParams(f"packet_bytes must be an integer >= 0, not {packet_bytes!r}")
    n = max(pda.K, 1)
    length = packet_bytes * max(pda.F, 1)
    if n * length > MAX_INSTANCE_BYTES:
        raise BadParams(
            f"N*F*packet bytes = {n * length} exceeds the limit"
            f" MAX_INSTANCE_BYTES = {MAX_INSTANCE_BYTES}"
        )
    rng = random.Random(seed)
    files = tuple(rng.randbytes(length) for _ in range(n))
    if demand is None:
        demand = tuple(range(pda.K))
    return CachingInstance(files, pda, tuple(demand))


class CacheView(Mapping):
    """Read-only cache of one user: key (n, j) maps to packet j of file n
    for every file n and every star row j of the user's PDA column.
    Packets are sliced from the files only when a key is looked up."""

    def __init__(self, files, packet_size, rows):
        self._files = files
        self._size = packet_size
        self.rows = dict.fromkeys(rows)  # star rows, ascending; O(1) membership
        self._file_ids = range(len(files))

    def get(self, key, default=None):
        try:
            n, j = key
        except (TypeError, ValueError):
            return default
        if j not in self.rows or n not in self._file_ids:
            return default
        return self._files[n][j * self._size : (j + 1) * self._size]

    def __getitem__(self, key):
        packet = self.get(key)
        if packet is None:
            raise KeyError(key)
        return packet

    def __iter__(self):
        return ((n, j) for j in self.rows for n in self._file_ids)

    def __len__(self):
        return len(self._files) * len(self.rows)


def place(inst):
    """Per-user caches: user k holds packet j of every file iff cell (j, k)
    is a star."""
    return [CacheView(inst.files, inst.packet_size, rows) for rows in inst.pda.star_rows]


@dataclass(frozen=True)
class DeliveryTranscript:
    signals: tuple  # one byte string per symbol id, ascending
    F: int

    @property
    def measured_load(self):
        return Fraction(len(self.signals), self.F) if self.F else Fraction(0)


def deliver(inst):
    """One signal per symbol id s, ascending: the XOR over all cells
    (j, k) = s of packet j of user k's demanded file."""
    positions, table, demand = inst.pda.symbol_positions, inst.packets, inst.demand
    size = inst.packet_size
    signals = []
    for s in sorted(positions):
        acc = 0
        for j, k in positions[s]:
            acc ^= table[demand[k]][j]
        signals.append(acc.to_bytes(size, "big"))
    return DeliveryTranscript(tuple(signals), inst.pda.F)


def decode(inst, caches, transcript):
    """Reconstruct every user's demanded file from its cache plus the
    broadcast signals; byte-exact for any PDA satisfying C1.  The caches
    are views over the instance's files, as place makes them.  Every packet
    a user reads, its own or a side packet, must lie in one of its cache's
    rows, else DecodeFailure names the first one missing, user by user and
    row by row.  A wrong-length transcript, cache list or signal raises
    BadLength."""
    pda, table, demand = inst.pda, inst.packets, inst.demand
    positions, size, signals = pda.symbol_positions, inst.packet_size, transcript.signals
    slices = inst.slices
    if len(signals) != len(positions):
        raise BadLength(f"transcript has {len(signals)} signals, need S={len(positions)}")
    if len(caches) != pda.K:
        raise BadLength(f"got {len(caches)} caches, need K={pda.K}")
    for i, x in enumerate(signals):
        if len(x) != size:
            raise BadLength(f"signal {i} has {len(x)} bytes, need packet size {size}")
    signal = {s: int.from_bytes(x, "big") for s, x in zip(sorted(positions), signals)}
    recovered = []
    for k, (cache, col) in enumerate(zip(caches, zip(*pda.grid))):
        held, w = cache.rows, inst.files[demand[k]]
        parts = []
        for j, cell in enumerate(col):
            if cell is None:
                if j not in held:
                    raise DecodeFailure(f"user {k} lacks its own packet ({demand[k]}, {j})")
                parts.append(w[slices[j]])
                continue
            acc = signal[cell]
            for j2, k2 in positions[cell]:
                if k2 == k:
                    continue
                if j2 not in held:
                    raise DecodeFailure(
                        f"user {k} lacks packet ({demand[k2]}, {j2}) needed for symbol {cell}"
                    )
                acc ^= table[demand[k2]][j2]
            parts.append(acc.to_bytes(size, "big"))
        recovered.append(b"".join(parts))
    return recovered


def run_round_trip(pda, seed=0, packet_bytes=4, demand=None):
    """Place, deliver, decode; return (instance, transcript, ok)."""
    inst = random_instance(pda, seed=seed, packet_bytes=packet_bytes, demand=demand)
    caches = place(inst)
    transcript = deliver(inst)
    recovered = decode(inst, caches, transcript)
    ok = all(recovered[k] == inst.files[inst.demand[k]] for k in range(inst.pda.K))
    return inst, transcript, ok
