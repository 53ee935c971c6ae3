"""End-to-end caching simulation driven by a PDA: split files into packets,
give every user a cache view of its star rows, broadcast one XOR signal per
symbol, and let every user reassemble its demanded file.

No packet is copied into a cache: a cache is a read-only view over the
instance's files.  Each instance converts the packets of its demanded files
to Python ints once, builds its PDA's symbol index once, and delivery and
decoding XOR those ints."""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import BadLength, DecodeFailure


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
            raise ValueError("demand length must equal K")
        if any(not 0 <= d < n for d in self.demand):
            raise ValueError("demand entries must lie in [0, N)")

    @property
    def N(self):
        return len(self.files)

    @property
    def packet_size(self):
        return len(self.files[0]) // self.pda.F if self.pda.F else 0

    def packet(self, n, j):
        """Packet j of file n (contiguous byte slice)."""
        size = self.packet_size
        return self.files[n][j * size : (j + 1) * size]

    @cached_property
    def packets(self):
        """packets[n][j]: packet j of file n as a big-endian int, for the
        files named in the demand (None for the others).  Built on first
        use and freed with the instance."""
        size, F = self.packet_size, self.pda.F
        table = [None] * len(self.files)
        for n in set(self.demand):
            w = self.files[n]
            table[n] = [int.from_bytes(w[j * size : (j + 1) * size], "big") for j in range(F)]
        return table

    @cached_property
    def positions(self):
        """The PDA's symbol index, built once per instance; it is not cached
        on the Pda, so it is freed with the instance."""
        return self.pda.symbol_positions()


def random_instance(pda, seed=0, packet_bytes=4, demand=None):
    """Seeded instance with N = K files of packet_bytes * F bytes each and
    the all-distinct default demand d_k = k."""
    rng = random.Random(seed)
    n = max(pda.K, 1)
    length = packet_bytes * max(pda.F, 1)
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
    grid = inst.pda.grid
    return [
        CacheView(inst.files, inst.packet_size, (j for j, row in enumerate(grid) if row[k] is None))
        for k in range(inst.pda.K)
    ]


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
    positions, table, demand = inst.positions, inst.packets, inst.demand
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
    broadcast signals; byte-exact for any PDA satisfying C1.  Every side
    packet must be in the user's cache, i.e. lie in one of its star rows.
    A wrong-length transcript, cache list or signal raises BadLength."""
    positions, table, demand = inst.positions, inst.packets, inst.demand
    grid, size, signals = inst.pda.grid, inst.packet_size, transcript.signals
    if len(signals) != len(positions):
        raise BadLength(f"transcript has {len(signals)} signals, need S={len(positions)}")
    if len(caches) != inst.pda.K:
        raise BadLength(f"got {len(caches)} caches, need K={inst.pda.K}")
    for i, x in enumerate(signals):
        if len(x) != size:
            raise BadLength(f"signal {i} has {len(x)} bytes, need packet size {size}")
    signal = {s: int.from_bytes(x, "big") for s, x in zip(sorted(positions), signals)}
    recovered = []
    for k, cache in enumerate(caches):
        held = cache.rows
        parts = []
        for j, row in enumerate(grid):
            cell = row[k]
            if cell is None:
                parts.append(cache[(demand[k], j)])
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
