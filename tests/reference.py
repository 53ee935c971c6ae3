"""Reference implementations kept as test oracles: the per-cell framework
construction, the pairwise C1 check, and the per-cell star and gain
counts.  They are slow and plain on purpose; the library versions must
agree with them exactly."""

from collections import Counter, defaultdict
from fractions import Fraction

from pdacache.pda import Pda, PdaParams, Verdict


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
        min_gain=min(gains) if gains else 0,
        max_gain=max(gains) if gains else 0,
    )
