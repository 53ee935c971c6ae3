"""The placement delivery array type, its defining-condition checker, and
parameter extraction."""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections import Counter, defaultdict, namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial

from .designs import check_full_columns
from .errors import BadInput, BadLength, PreconditionUnmet, require_ints, require_type


class Labels(Mapping):
    """Read-only map from symbol id to its label (e, n_e), decoded on first
    read: the first lookup, iteration or len calls decode() once and keeps
    its dict, dropping decode and the source it reads."""

    def __init__(self, decode):
        self._decode = decode

    @cached_property
    def _dict(self):
        return self.__dict__.pop("_decode")()

    def __getitem__(self, s):
        return self._dict[s]

    def __iter__(self):
        return iter(self._dict)

    def __len__(self):
        return len(self._dict)


@dataclass(frozen=True)
class Pda:
    """F x K grid whose cells are None (star) or an integer symbol id.

    ``labels`` optionally maps a symbol id to its construction label
    (e, n_e): the m-vector e and its occurrence order within a column.
    A grid that is not a tuple of tuples, labels not a Mapping or a meta not
    a dict (None aside) raise BadInput, a ragged grid BadLength naming the
    first row unlike row 0.  Cells and labels are trusted, as construct
    makes them; pda_from_grid checks cells, from_json both.
    """

    grid: tuple
    labels: Mapping | None = None
    meta: dict | None = None

    def __post_init__(self):
        if not isinstance(self.grid, tuple) or not all(isinstance(r, tuple) for r in self.grid):
            raise BadInput("the grid must be a tuple of row tuples")
        for j, row in enumerate(self.grid):
            if len(row) != self.K:
                raise BadLength(f"row {j} has {len(row)} cells, not K={self.K}")
        for name, x, cls in (("labels", self.labels, Mapping), ("meta", self.meta, dict)):
            if not isinstance(x, (cls, type(None))):
                raise BadInput(f"{name} must be a {cls.__name__} or None, not {type(x).__name__}")

    @property
    def F(self):
        return len(self.grid)

    @property
    def K(self):
        return len(self.grid[0]) if self.grid else 0

    @cached_property
    def verdict(self):
        """The C1 Verdict of this Pda, checked once; verify_pda returns it."""
        return _check(self)

    @cached_property
    def sim_layout(self):
        """The simulator's gain-class sim.Layout of this PDA.  Built on
        first use and kept with the Pda."""
        from .sim import Layout

        return Layout(self)

    def to_json(self):
        obj = {"F": self.F, "K": self.K, "grid": self.grid}  # json writes tuples as arrays
        if self.labels is not None:
            obj["labels"] = {str(s): {"e": e, "n": n} for s, (e, n) in self.labels.items()}
        if self.meta is not None:
            obj["meta"] = self.meta
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text):
        """Load to_json text; non-JSON raises JSONDecodeError, any other fault BadInput."""
        try:
            obj = json.loads(text)
            grid = tuple(tuple(row) for row in obj["grid"])
            require_ints(BadInput, 0, F=obj["F"])
            require_ints(BadInput, 0, K=obj["K"])
            if len(grid) != obj["F"]:
                raise BadInput(f"declared F={obj['F']} but the grid has {len(grid)} rows")
            if not grid and obj["K"]:
                raise BadInput(f"declared K={obj['K']} but the grid has no rows")
            _check_cells(grid, obj["K"])
            labels = _load_labels(obj["labels"], grid) if "labels" in obj else None
            return cls(grid, labels, obj.get("meta"))
        except (json.JSONDecodeError, BadInput):
            raise
        except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise BadInput(str(exc)) from exc


def _check_cells(grid, K):
    """Refuse, with BadInput, the first row that is not K cells long or that
    holds a cell other than None or an int >= 0; a row's length comes first."""
    for j, row in enumerate(grid):
        if len(row) != K:
            raise BadInput(f"row {j} has {len(row)} cells, not K={K}")
        # filter(None, ...) keeps the nonzero ints, so min finds a negative one
        if not set(map(type, row)) <= {int, type(None)} or min(filter(None, row), default=0) < 0:
            raise BadInput(f"row {j} has a cell that is not null or an integer >= 0")


def _load_labels(labels, grid):
    """Labels for JSON labels "s": {"e": [ints], "n": int >= 0}, s the decimal
    text of a grid symbol id, converted on first read.  BadInput names the
    first bad label in document order, then the first key not a symbol's text."""
    symbols = set(map(str, set(itertools.chain.from_iterable(grid)) - {None}))
    for s, d in labels.items():
        if s not in symbols:
            try:
                int(s)
            except ValueError:
                raise BadInput(f"label key {s!r} is not an integer") from None
        e, n = d["e"], d["n"]
        if type(e) is not list or not set(map(type, e)) <= {int}:
            raise BadInput(f"label {s}: e must be a list of integers, not {e!r}")
        if type(n) is not int or n < 0:
            raise BadInput(f"label {s}: n must be an integer >= 0, not {n!r}")
    for s in labels:
        if s not in symbols:
            raise BadInput(f"label key {s!r} is not a symbol id of the grid")
    return Labels(partial(_labels_from_json, labels))


def _labels_from_json(labels):
    return {int(s): (tuple(d["e"]), d["n"]) for s, d in labels.items()}


def symbol_cells(p):
    """Map symbol id -> list of the flat numbers k*F + j of its cells (j, k):
    symbols by first appearance and each symbol's cells, row by row.  Built
    anew on each call, for sim.Layout and the failure paths."""
    cells = defaultdict(list)
    for j, row in enumerate(p.grid):
        for x, s in zip(itertools.count(j, p.F), row):
            if s is not None:
                cells[s].append(x)
    return cells


def pda_from_grid(rows):
    """A checked, unlabeled Pda; BadInput names the first row with a bad cell."""
    try:
        p = Pda(tuple(map(tuple, rows)))
    except TypeError as exc:
        raise BadInput(f"the grid must be an iterable of rows: {exc}") from exc
    _check_cells(p.grid, p.K)
    return p


# What an accepting check learns of its Pda: S, each column's star count,
# and (gain, symbols) pairs by ascending gain.
Census = namedtuple("Census", "S Z_cols gains")
_BINARY = bytes.maketrans(b"\x00\x01", b"01")  # a line's 0/1 bytes as binary digits


@dataclass(frozen=True)
class Verdict:
    """Result of checking the PDA condition; witness locates a violating
    2x2 subarray as (j1, k1, j2, k2) when rejected.  An accepting check's
    Census rides along, left out of == and repr."""

    ok: bool
    witness: tuple | None = None
    reason: str | None = None
    census: Census | None = field(default=None, compare=False, repr=False)

    def __bool__(self):
        return self.ok


def verify_pda(p):
    """Check condition C1: equal symbols lie in distinct rows and columns,
    and the opposite corners of their 2x2 subarray are stars.  Returns
    p.verdict, so each Pda is checked at most once."""
    require_type(p, Pda, "verify_pda")
    return p.verdict


def _check(p):
    """The Verdict of C1 on p, for Pda.verdict.  Accepting needs no pair
    scan.  C1 is unchanged by transposing, so the masks cover the narrower
    side: the masked lines are the rows, or the columns when F > K, and the
    other lines are checked.  masks[s] has bit i when masked line i holds
    symbol s, so it has min(F, K) bits, and nonstar has those of one
    checked line's non-star cells.  C1 holds exactly when
    - every non-star cell holding s in masked line i has masks[s] & nonstar
      == 1 << i: no other cell of s is in its checked line and both
      corners are stars, and
    - the masked lines of every symbol are distinct.  A mask never has more
      bits than its symbol has cells, so this holds exactly when the bit
      counts of all masks add up to the number of non-star cells.
    Then a mask's bit count is its symbol's gain, so an accepting Verdict
    carries a Census for pda_params to read.
    A rejection reruns the pair scan to name the first violating pair."""
    tall = p.F > p.K
    if tall:  # one column at a time: zip(*p.grid) would hold F row iterators
        masked, checked = (map(operator.itemgetter(k), p.grid) for k in range(p.K)), p.grid
    else:
        masked, checked = p.grid, zip(*p.grid)
    bits = [1 << i for i in range(min(p.F, p.K))]
    masks = {}
    get = masks.get
    z_cols = []  # each column's star count, taken by the pass that walks the columns
    for bit, line in zip(bits, masked):
        if tall:
            stars = p.F
            for s in line:
                if s is not None:
                    masks[s] = get(s, 0) | bit
                    stars -= 1
            z_cols.append(stars)
        else:  # the rows: no count, the checked pass counts the columns
            for s in line:
                if s is not None:
                    masks[s] = get(s, 0) | bit
    mask = masks.__getitem__
    cells = 0
    for line in checked:
        filled = bytes(map(operator.is_not, line, itertools.repeat(None)))
        nonstar = int(filled[::-1].translate(_BINARY), 2) if filled else 0
        # Each term keeps its own line's bit, so it is at least 1 << i, and
        # the terms add up to nonstar exactly when every term is 1 << i.
        held = map(mask, itertools.compress(line, filled))
        if sum(map(operator.and_, held, itertools.repeat(nonstar))) != nonstar:
            return _pair_scan(p)
        n = nonstar.bit_count()
        cells += n
        if not tall:
            z_cols.append(p.F - n)
    gains = Counter(map(int.bit_count, masks.values()))
    if sum(g * n for g, n in gains.items()) != cells:
        return _pair_scan(p)
    return Verdict(True, census=Census(len(masks), tuple(z_cols), tuple(sorted(gains.items()))))


def _pair_scan(p):
    """The first pair of equal symbols that violates C1, pair by pair within
    each symbol in the order of symbol_cells."""
    F = p.F
    for s, cells in symbol_cells(p).items():
        for i, x in enumerate(cells):
            k1, j1 = divmod(x, F)
            for k2, j2 in map(divmod, cells[i + 1 :], itertools.repeat(F)):
                if j1 == j2 or k1 == k2:
                    return Verdict(False, (j1, k1, j2, k2), f"symbol {s} repeats in a row/column")
                if p.grid[j1][k2] is not None or p.grid[j2][k1] is not None:
                    return Verdict(False, (j1, k1, j2, k2), f"corners of symbol {s} are not stars")
    return Verdict(True)


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
    (symbols per occurrence count, by ascending count).  Read from the Census
    of p.verdict when it has been computed and accepts; otherwise the grid is
    counted, and nothing is verified."""
    require_type(p, Pda, "pda_params")
    census = vars(p).get("verdict", Verdict(False)).census
    if census is not None:
        S, z_cols, gains = census
    else:
        z_cols = tuple(col.count(None) for col in zip(*p.grid))
        occurrences = Counter(itertools.chain.from_iterable(p.grid))
        occurrences.pop(None, None)
        S, gains = len(occurrences), sorted(Counter(occurrences.values()).items())
    return PdaParams(
        K=p.K,
        F=p.F,
        S=S,
        Z=z_cols[0] if len(set(z_cols)) == 1 else None,
        Z_cols=z_cols,
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
    F >= q^(m-t), for a PDA with the full column index set.  Arguments that
    full_column_set refuses raise its BadInput."""
    require_type(p, Pda, "check_lower_bounds")
    check_full_columns(m, t, q)
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
