"""The placement delivery array type, its defining-condition checker, and
parameter extraction."""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import BadLength, PreconditionUnmet

STAR = None  # star cells are stored as None


@dataclass(frozen=True)
class Pda:
    """F x K grid whose cells are None (star) or an integer symbol id.

    ``labels`` optionally maps a symbol id to its construction label
    (e, n_e): the m-vector e and its occurrence order within a column.
    A ragged grid raises BadLength naming the first row unlike row 0.
    """

    grid: tuple
    labels: dict | None = None
    meta: dict | None = None

    def __post_init__(self):
        for j, row in enumerate(self.grid):
            if len(row) != self.K:
                raise BadLength(f"row {j} has {len(row)} cells, not K={self.K}")

    @property
    def F(self):
        return len(self.grid)

    @property
    def K(self):
        return len(self.grid[0]) if self.grid else 0

    @cached_property
    def symbol_positions(self):
        """Map symbol id -> tuple of the (row, col) cells holding it, in
        order of first appearance.  Built on first use and kept with the
        Pda, so every simulator round reads the same index."""
        pos = defaultdict(list)
        for j, row in enumerate(self.grid):
            for k, c in enumerate(row):
                if c is not None:
                    pos[c].append((j, k))
        return {s: tuple(cells) for s, cells in pos.items()}

    @cached_property
    def star_rows(self):
        """star_rows[k]: the star rows of column k, ascending, as a tuple.
        Built on first use and kept with the Pda."""
        rows = range(self.F)
        return tuple(
            tuple(itertools.compress(rows, map(operator.is_, col, itertools.repeat(None))))
            for col in zip(*self.grid)
        )

    @cached_property
    def sim_layout(self):
        """The simulator's gain-class sim.Layout of this PDA.  Built on
        first use and kept with the Pda."""
        from .sim import Layout

        return Layout(self)

    def to_json(self):
        obj = {
            "F": self.F,
            "K": self.K,
            "grid": self.grid,  # json writes tuples as arrays
        }
        if self.labels is not None:
            obj["labels"] = {str(s): {"e": e, "n": n} for s, (e, n) in self.labels.items()}
        if self.meta is not None:
            obj["meta"] = self.meta
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        grid = tuple(tuple(row) for row in obj["grid"])
        for field in ("F", "K"):
            if not _is_count(obj[field]):
                raise ValueError(f"{field} must be an integer >= 0, not {obj[field]!r}")
        if len(grid) != obj["F"]:
            raise ValueError(f"declared F={obj['F']} but the grid has {len(grid)} rows")
        # Check every cell at C speed: only ints and nulls, and no negative
        # int (filter(None, ...) keeps the nonzero ones).  Only a rejection
        # rescans row by row to name the first bad row.
        flat = itertools.chain.from_iterable
        cells_ok = set(map(type, flat(grid))) <= {int, type(None)} and (
            min(filter(None, flat(grid)), default=0) >= 0
        )
        for j, row in enumerate(grid):
            if len(row) != obj["K"]:
                raise ValueError(f"row {j} has {len(row)} cells, not K={obj['K']}")
            if not cells_ok and any(c is not None and not _is_count(c) for c in row):
                raise ValueError(f"row {j} has a cell that is not null or an integer >= 0")
        labels = None
        if "labels" in obj:
            labels = dict(_label(s, d) for s, d in obj["labels"].items())
            cells = set(flat(grid))
            for s in obj["labels"]:
                if int(s) not in cells:
                    raise ValueError(f"label key {s!r} is not a symbol id of the grid")
        return cls(grid, labels, obj.get("meta"))


def _is_count(x):
    return type(x) is int and x >= 0


def _label(s, d):
    """A JSON label "s": {"e": [ints], "n": int >= 0} as (int s, (tuple e, n))."""
    try:
        sid = int(s)
    except ValueError:
        raise ValueError(f"label key {s!r} is not an integer") from None
    e, n = d["e"], d["n"]
    if type(e) is not list or any(type(x) is not int for x in e):
        raise ValueError(f"label {s}: e must be a list of integers, not {e!r}")
    if not _is_count(n):
        raise ValueError(f"label {s}: n must be an integer >= 0, not {n!r}")
    return sid, (tuple(e), n)


def pda_from_grid(rows, labels=None, meta=None):
    return Pda(tuple(tuple(r) for r in rows), labels, meta)


@dataclass(frozen=True)
class Verdict:
    """Result of checking the PDA condition; witness locates a violating
    2x2 subarray as (j1, k1, j2, k2) when rejected."""

    ok: bool
    witness: tuple | None = None
    reason: str | None = None

    def __bool__(self):
        return self.ok


def verify_pda(p):
    """Check condition C1: equal symbols lie in distinct rows and columns,
    and the opposite corners of their 2x2 subarray are stars.

    Accepting needs no pair scan.  rows[s] is the bitmask of the rows that
    hold symbol s, and nonstar that of one column's non-star rows.  C1 holds
    exactly when
    - every non-star cell (j, k) holding s has rows[s] & nonstar == 1 << j:
      no other cell of s is in column k and both corners are stars, and
    - the rows of every symbol are distinct.  A mask never has more bits
      than its symbol has cells, so this holds exactly when the bit counts
      of all masks add up to the number of non-star cells.
    A rejection reruns the pair scan to name the first violating pair."""
    bits = [1 << j for j in range(p.F)]
    rows = defaultdict(int)
    for bit, row in zip(bits, p.grid):
        for s in row:
            if s is not None:
                rows[s] |= bit
    mask = rows.__getitem__
    cells = 0
    for col in zip(*p.grid):
        filled = list(map(operator.is_not, col, itertools.repeat(None)))
        nonstar = sum(itertools.compress(bits, filled))
        # Each term keeps its own row's bit, so it is at least 1 << j, and
        # the terms add up to nonstar exactly when every term is 1 << j.
        held = map(mask, itertools.compress(col, filled))
        if sum(map(operator.and_, held, itertools.repeat(nonstar))) != nonstar:
            return _pair_scan(p)
        cells += nonstar.bit_count()
    if sum(map(int.bit_count, rows.values())) != cells:
        return _pair_scan(p)
    return Verdict(True)


def _pair_scan(p):
    """The first pair of equal symbols that violates C1, pair by pair within
    each symbol in the order of symbol_positions."""
    for s, cells in p.symbol_positions.items():
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
    """Stars per column."""
    return [col.count(None) for col in zip(*p.grid)]


def is_regular(p):
    """Common per-column star count Z, or None (plus the per-column counts)."""
    counts = star_counts(p)
    if counts and all(c == counts[0] for c in counts):
        return counts[0], counts
    return None, counts


@dataclass(frozen=True)
class PdaParams:
    K: int
    F: int
    S: int
    Z: int | None  # common star count, None when irregular
    Z_cols: tuple
    R: Fraction
    gain_histogram: dict


def pda_params(p):
    """Measure (K, F, Z, S), the exact load R = S/F, and the gain histogram
    (occurrence count per symbol)."""
    z, z_cols = is_regular(p)
    occurrences = Counter(itertools.chain.from_iterable(p.grid))
    occurrences.pop(STAR, None)
    gains = Counter(occurrences.values())
    S = len(occurrences)
    return PdaParams(
        K=p.K,
        F=p.F,
        S=S,
        Z=z,
        Z_cols=tuple(z_cols),
        R=Fraction(S, p.F) if p.F else Fraction(0),
        gain_histogram=dict(gains),
    )


@dataclass(frozen=True)
class LowerBoundReport:
    R: Fraction
    load_bound: int  # (q-1)^t
    load_ok: bool
    load_tight: bool
    F: int
    subpacketization_bound: int  # q^(m-t), binding only when load is tight
    subpacketization_ok: bool | None  # None when the load bound is not tight


def check_lower_bounds(p, m, t, q):
    """Check the framework lower bounds R >= (q-1)^t and, when R is tight,
    F >= q^(m-t), for a PDA with the full column index set."""
    params = pda_params(p)
    if params.K != math.comb(m, t) * q**t:
        raise PreconditionUnmet(
            f"K={params.K} != C({m},{t})*{q}^{t}; not a full-column framework PDA"
        )
    if params.Z is None or Fraction(params.Z, params.F) != 1 - Fraction(q - 1, q) ** t:
        raise PreconditionUnmet("Z/F does not equal 1 - ((q-1)/q)^t")
    bound = (q - 1) ** t
    tight = params.R == bound
    return LowerBoundReport(
        R=params.R,
        load_bound=bound,
        load_ok=params.R >= bound,
        load_tight=tight,
        F=params.F,
        subpacketization_bound=q ** (m - t),
        subpacketization_ok=(params.F >= q ** (m - t)) if tight else None,
    )


def _star_pattern(row):
    return tuple(c is None for c in row)


def structurally_equal(a, b):
    """Equality up to a row permutation and a consistent relabeling of
    symbols (columns stay fixed).  Backtracking over rows with matching
    star patterns; desk-scale PDAs only."""
    if a.F != b.F or a.K != b.K:
        return False
    candidates = defaultdict(list)
    for j2, row in enumerate(b.grid):
        candidates[_star_pattern(row)].append(j2)

    fwd, bwd = {}, {}  # symbol bijection a -> b and its inverse
    used = [False] * b.F

    def extend(j):
        if j == a.F:
            return True
        for j2 in candidates[_star_pattern(a.grid[j])]:
            if used[j2]:
                continue
            added = []
            ok = True
            for k in range(a.K):
                ca, cb = a.grid[j][k], b.grid[j2][k]
                if ca is None:
                    continue
                if fwd.get(ca, cb) != cb or bwd.get(cb, ca) != ca:
                    ok = False
                    break
                if ca not in fwd:
                    fwd[ca], bwd[cb] = cb, ca
                    added.append((ca, cb))
            if ok:
                used[j2] = True
                if extend(j + 1):
                    return True
                used[j2] = False
            for ca, cb in added:
                del fwd[ca]
                del bwd[cb]
        return False

    return extend(0)
