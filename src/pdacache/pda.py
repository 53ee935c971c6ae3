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
from functools import cached_property, lru_cache, partial

from .designs import check_full_columns
from .errors import BadInput, BadLength, PreconditionUnmet, require_ints, require_type, trusted


class Labels(Mapping):
    """Read-only map from symbol id to its label (e, n_e), decoded on first
    read: the first lookup, iteration or len calls decode() once and keeps
    its dict, dropping decode and the source it reads.  Iteration, items()
    and values() are the dict's own, so they run at C speed."""

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

    def items(self):
        return self._dict.items()

    def values(self):
        return self._dict.values()

    def __repr__(self):
        return f"Labels({self._dict!r})"


@dataclass(frozen=True)
class Pda:
    """F x K grid whose cells are None (star) or an integer symbol id >= 0.

    The grid, any iterable of row iterables, is kept as tuples.  BadInput
    refuses a grid not of rows or a cell other than None or an int >= 0;
    BadLength a ragged grid, naming its first bad row.  ``labels`` maps a
    symbol id to its construction label (e, n_e): the m-vector e and its
    occurrence order within a column.  Only construct and from_json set
    the labels, as a Labels, and the meta.  Both stay in == and the repr,
    but a Pda hashes by its grid alone.
    """

    grid: tuple
    labels: Labels | None = field(default=None, init=False, hash=False)
    meta: dict | None = field(default=None, init=False, hash=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "grid", tuple(map(tuple, self.grid)))
        except TypeError as exc:
            raise BadInput(f"the grid must be an iterable of rows: {exc}") from exc
        _check_cells(self.grid, self.K)

    @classmethod
    def _trusted(cls, grid, labels, meta):
        """The grid and labels of construct or from_json, unchecked: a Labels stays undecoded."""
        _check_meta(meta)
        return trusted(cls, grid=grid, labels=labels, meta=meta)

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
        """json.dumps of {"F", "K", "grid", "labels", "meta"}, byte for byte:
        the strings of json_runs joined.  BadInput if the grid or meta
        cannot be written."""
        return "".join(self.json_runs())

    def json_runs(self):
        """to_json's text as an iterator of strings, written a run of rows
        or labels at a time, so that neither the encoder nor a caller that
        writes each string out holds the whole text.  BadInput, before the
        first string, if the meta cannot be written, and while iterating
        if a grid cell is too long an int to write."""
        return _json_runs(self, _meta_text(self.meta))

    @classmethod
    def from_json(cls, text):
        """Load to_json text; non-JSON raises JSONDecodeError, any other fault
        BadInput, text not a str, bytes or bytearray included.  Labels are
        made compact as they are parsed, and each row list is freed once its
        tuple exists."""
        if not isinstance(text, (str, bytes, bytearray)):
            raise BadInput(f"from_json takes a str, bytes or bytearray, not {type(text).__name__}")
        try:
            obj = _require_json(_parse(text), dict, "the document")
            rows = _require_json(_member(obj, "grid"), list, "grid")
            del obj["grid"]  # so that each row list is freed once its tuple replaces it
            for j, row in enumerate(rows):
                rows[j] = tuple(_require_json(row, list, f"row {j}"))
            grid = tuple(rows)
            require_ints(BadInput, 0, F=_member(obj, "F"))
            require_ints(BadInput, 0, K=_member(obj, "K"))
            if len(grid) != obj["F"]:
                raise BadInput(f"declared F={obj['F']} but the grid has {len(grid)} rows")
            if not grid and obj["K"]:
                raise BadInput(f"declared K={obj['K']} but the grid has no rows")
            _check_cells(grid, obj["K"])
            if "labels" in obj:
                obj["labels"] = _load_labels(_require_json(obj["labels"], dict, "labels"), grid)
            return cls._trusted(grid, obj.get("labels"), obj.get("meta"))
        except (json.JSONDecodeError, BadInput):
            raise
        # json's too-long int and too-deep nesting, and _check_cells's ragged row
        except (ValueError, RecursionError, BadLength) as exc:
            raise BadInput(str(exc)) from exc


# to_json writes the grid this many rows, and the labels this many labels,
# per string of json_runs.
_ROW_RUN = 64
_LABEL_RUN = 256
_INT = frozenset({int})  # issuperset reads an iterable without making a set of it
_E, _N = operator.itemgetter(0), operator.itemgetter(1)  # of a label (e, n)
# What json.loads makes of each JSON type, as a BadInput message names it.
_JSON_TYPES = {
    dict: "an object",
    list: "an array",
    str: "a string",
    int: "a number",
    float: "a number",
    bool: "a boolean",
    type(None): "null",
}


def _require_json(x, cls, part):
    """x, or BadInput naming part and the JSON type it has unless json made it a cls."""
    if type(x) is not cls:
        raise BadInput(f"{part} must be {_JSON_TYPES[cls]}, not {_JSON_TYPES[type(x)]}")
    return x


def _member(obj, key):
    """obj[key] of the document, or BadInput naming the missing key."""
    if key not in obj:
        raise BadInput(f'the document has no key "{key}"')
    return obj[key]


def _parse(text):
    """json.loads(text), each label object {"e": [ints], "n": int >= 0} made
    (tuple(e), n) as it is parsed.  The hook cannot tell a label from any
    other object of that shape, so if it made one that is not a value of
    the top "labels", the text is parsed again as it is."""
    made = 0

    def compact(d):
        nonlocal made
        e, n = d.get("e"), d.get("n")
        if type(e) is list and type(n) is int and n >= 0 and _INT.issuperset(map(type, e)):
            made += 1
            return tuple(e), n
        return d

    obj = json.loads(text, object_hook=compact)
    labels = obj.get("labels") if type(obj) is dict else None
    # json makes no tuples, so each tuple among the labels is one the hook made
    kept = operator.countOf(map(type, labels.values()), tuple) if type(labels) is dict else 0
    if kept == made:
        return obj
    del obj, labels  # so that the second parse is the only one held
    return json.loads(text)


def _check_cells(grid, K):
    """Refuse the first row not K cells long (BadLength) or holding a cell
    other than None or an int >= 0 (BadInput); a row's length comes first."""
    for j, row in enumerate(grid):
        if len(row) != K:
            raise BadLength(f"row {j} has {len(row)} cells, not K={K}")
        # filter(None, ...) keeps the nonzero ints, so min finds a negative one
        if not set(map(type, row)) <= {int, type(None)} or min(filter(None, row), default=0) < 0:
            raise BadInput(f"row {j} has a cell that is not null or an integer >= 0")


def _json_runs(p, meta):
    """The strings of p.json_runs, given the meta text."""
    yield f'{{"F": {p.F}, "K": {p.K}, "grid": ['
    rows = range(0, p.F, _ROW_RUN)
    try:
        yield from _separated(json.dumps(p.grid[j : j + _ROW_RUN])[1:-1] for j in rows)
    except ValueError as exc:  # an int too long for its decimal text
        raise BadInput(f"to_json cannot write the grid: {exc}") from exc
    yield "]"
    if p.labels is not None:
        yield ', "labels": {'
        yield from _separated(_label_runs(p.labels))
        yield "}"
    if meta is not None:
        yield ', "meta": '
        yield meta
    yield "}"


def _separated(runs):
    """The strings of runs with ", " between each two."""
    for i, run in enumerate(runs):
        if i:
            yield ", "
        yield run


@lru_cache(maxsize=16)
def _template(length):
    """The %-template of a label's JSON text "s": {"e": e, "n": n}, for e of this length."""
    return '"%d": {"e": [' + ", ".join(["%d"] * length) + '], "n": %d}'


def _label_runs(labels):
    """The JSON text of a Labels, "s": {"e": e, "n": n}, _LABEL_RUN labels a
    string, written lazily, each label by the template for its length of e:
    the bytes json.dumps writes."""
    values = labels.values()
    # each label's (s, *e, n), and its text
    flat = map(operator.add, map(operator.add, zip(labels), map(_E, values)), zip(map(_N, values)))
    texts = map(operator.mod, map(_template, map(len, map(_E, values))), flat)
    return iter(lambda: ", ".join(itertools.islice(texts, _LABEL_RUN)), "")


def _meta_text(meta):
    """json.dumps(meta), the text that to_json writes for a Pda's meta, or
    None for None; BadInput unless meta is None or a dict that json.dumps
    can write."""
    if meta is None:
        return None
    if not isinstance(meta, dict):
        raise BadInput(f"meta must be a dict or None, not {type(meta).__name__}")
    try:
        return json.dumps(meta)
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise BadInput(f"to_json cannot write the meta: {exc}") from exc


def _check_meta(meta):
    """BadInput unless meta is None or a dict that loads back equal from
    to_json's text: str keys, and lists rather than tuples."""
    text = _meta_text(meta)
    if meta is not None and (back := json.loads(text)) != meta:
        raise BadInput(f"meta {meta!r} would load back as {back!r}")


def _load_labels(labels, grid):
    """Labels for JSON labels "s": {"e": [ints], "n": int >= 0}, s the decimal
    text of a grid symbol id, each value its object or already (tuple(e), n).
    BadInput names the first bad label in document order, then the first key
    not a symbol's text."""
    cells = set(itertools.chain.from_iterable(grid))
    stray = None  # the first key that is not a symbol's text
    for s, d in labels.items():
        try:
            k = int(s)
        except ValueError:
            raise BadInput(f"label key {s!r} is not an integer") from None
        if stray is None and (k not in cells or str(k) != s):
            stray = s
        if type(d) is tuple:
            continue
        if type(d) is not dict or "e" not in d or "n" not in d:
            raise BadInput(f"label {s}: {d!r} is not an object holding e and n")
        e, n = d["e"], d["n"]
        if type(e) is not list or not _INT.issuperset(map(type, e)):
            raise BadInput(f"label {s}: e must be a list of integers, not {e!r}")
        if type(n) is not int or n < 0:
            raise BadInput(f"label {s}: n must be an integer >= 0, not {n!r}")
        labels[s] = tuple(e), n
    if stray is not None:
        raise BadInput(f"label key {stray!r} is not a symbol id of the grid")
    return Labels(partial(_labels_from_json, labels))


def _labels_from_json(labels):
    return dict(zip(map(int, labels), labels.values()))


def symbol_cells(p):
    """Map symbol id -> list of the flat numbers k*F + j of its cells (j, k):
    symbols by first appearance and each symbol's cells, row by row.  Built
    anew on each call, for sim.Layout and the failure paths."""
    require_type(p, Pda, "symbol_cells")
    cells = defaultdict(list)
    for j, row in enumerate(p.grid):
        for x, s in zip(itertools.count(j, p.F), row):
            if s is not None:
                cells[s].append(x)
    return cells


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
    bits = [1 << i for i in range(min(p.F, p.K))]
    masks = {}
    get = masks.get
    if tall:  # the columns' masks, read row by row in memory order
        for row in p.grid:
            for bit, s in zip(bits, row):
                if s is not None:
                    masks[s] = get(s, 0) | bit
        checked = p.grid
    else:
        for bit, row in zip(bits, p.grid):
            for s in row:
                if s is not None:
                    masks[s] = get(s, 0) | bit
        checked = zip(*p.grid)
    mask = masks.__getitem__
    cells = 0
    z_cols = [p.F] * p.K if tall else []  # each column's star count
    digits = 0  # tall: the rows' filled bytes as ints, summed: one byte digit per column
    for j, line in enumerate(checked, 1):
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
            continue
        digits += int.from_bytes(filled, "little")
        if j % 255 == 0 or j == p.F:  # a digit counts 255 rows at most: fold before it carries
            z_cols = list(map(operator.sub, z_cols, digits.to_bytes(p.K, "little")))
            digits = 0
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
    full_column_set refuses raise its BadInput; PreconditionUnmet a K or
    Z/F that does not fit, then an array that fails C1."""
    require_type(p, Pda, "check_lower_bounds")
    check_full_columns(m, t, q)
    params = pda_params(p)
    if params.K != math.comb(m, t) * q**t:
        raise PreconditionUnmet(
            f"K={params.K} != C({m},{t})*{q}^{t}; not a full-column framework PDA"
        )
    if params.Z is None or Fraction(params.Z, params.F) != 1 - Fraction(q - 1, q) ** t:
        raise PreconditionUnmet("Z/F does not equal 1 - ((q-1)/q)^t")
    if not p.verdict:
        raise PreconditionUnmet(f"not a PDA: {p.verdict.reason}")
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
