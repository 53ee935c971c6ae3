"""Reference implementations kept as test oracles: the per-cell framework
construction, the pairwise C1 check, the per-cell star and gain counts,
and the per-packet simulator.  They are slow and plain on purpose; the
library versions must agree with them exactly."""

from collections import Counter, defaultdict
from fractions import Fraction

from pdacache.errors import DecodeFailure
from pdacache.pda import Pda, PdaParams, Verdict
from pdacache.sim import DeliveryTranscript


def construct(matrix, columns, meta=None):
    """Visit every cell; star if f agrees with b somewhere on T, otherwise
    label (e, n_e) with e = b on T and f elsewhere."""
    ids = {}  # (e, n_e) -> symbol id, in first-appearance order
    seen_in_col = [Counter() for _ in columns.columns]
    grid = []
    for f in matrix.rows:
        row = []
        for ci, (T, b) in enumerate(columns.columns):
            if any(f[T[h]] == b[h] for h in range(columns.t)):
                row.append(None)
                continue
            e = list(f)
            for h, pos in enumerate(T):
                e[pos] = b[h]
            e = tuple(e)
            n_e = seen_in_col[ci][e]
            seen_in_col[ci][e] += 1
            key = (e, n_e)
            if key not in ids:
                ids[key] = len(ids)
            row.append(ids[key])
        grid.append(tuple(row))
    labels = {sid: key for key, sid in ids.items()}
    return Pda(tuple(grid), labels, meta)


def symbol_positions(p):
    pos = defaultdict(list)
    for j, row in enumerate(p.grid):
        for k, c in enumerate(row):
            if c is not None:
                pos[c].append((j, k))
    return pos


def verify_pda(p):
    """Check every pair of cells of every symbol."""
    for row in p.grid:
        if len(row) != p.K:
            return Verdict(False, None, "ragged grid")
    for s, cells in symbol_positions(p).items():
        for i in range(len(cells)):
            j1, k1 = cells[i]
            for j2, k2 in cells[i + 1 :]:
                if j1 == j2 or k1 == k2:
                    return Verdict(
                        False, (j1, k1, j2, k2), f"symbol {s} repeats in a row/column"
                    )
                if p.grid[j1][k2] is not None or p.grid[j2][k1] is not None:
                    return Verdict(
                        False, (j1, k1, j2, k2), f"corners of symbol {s} are not stars"
                    )
    return Verdict(True)


def star_counts(p):
    return [sum(p.grid[j][k] is None for j in range(p.F)) for k in range(p.K)]


def pda_params(p):
    counts = star_counts(p)
    z = counts[0] if counts and all(c == counts[0] for c in counts) else None
    positions = symbol_positions(p)
    gains = Counter(len(v) for v in positions.values())
    return PdaParams(
        K=p.K,
        F=p.F,
        S=len(positions),
        Z=z,
        Z_cols=tuple(counts),
        R=Fraction(len(positions), p.F) if p.F else Fraction(0),
        gain_histogram=dict(gains),
    )


def _int(packet):
    return int.from_bytes(packet, "big")


def deliver(inst):
    """One signal per symbol, ascending: slice and convert every packet
    at every cell of the symbol; the index is rebuilt on each call."""
    positions = symbol_positions(inst.pda)
    signals = []
    for s in sorted(positions):
        acc = 0
        for j, k in positions[s]:
            acc ^= _int(inst.packet(inst.demand[k], j))
        signals.append(acc.to_bytes(inst.packet_size, "big"))
    return DeliveryTranscript(tuple(signals), inst.pda.F)


def decode(inst, caches, transcript):
    """Every user's file from its cache and the signals, with one
    ``cache.get`` per side packet; the index is rebuilt on each call."""
    positions = symbol_positions(inst.pda)
    signal = dict(zip(sorted(positions), map(_int, transcript.signals)))
    grid, demand, size = inst.pda.grid, inst.demand, inst.packet_size
    recovered = []
    for k in range(inst.pda.K):
        cache = caches[k]
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
                side = cache.get((demand[k2], j2))
                if side is None:
                    raise DecodeFailure(
                        f"user {k} lacks packet ({demand[k2]}, {j2}) needed for symbol {cell}"
                    )
                acc ^= _int(side)
            parts.append(acc.to_bytes(size, "big"))
        recovered.append(b"".join(parts))
    return recovered
