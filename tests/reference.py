"""Reference implementations kept as test oracles: the per-cell framework
construction, the per-column and per-row checks of column index sets and
row index matrices, the per-codeword MDS code, the eager label decode and
label loading that Labels replaced, the one-shot JSON writer and the
whole-document loader, the per-cell grid check, the pairwise C1 check, the
per-cell star and gain counts, the per-packet simulator, the Hamming
distance and structural equality of PDAs.  They are slow and plain on
purpose; the library versions must agree with them exactly."""

import itertools
import json
import operator
from collections import Counter, defaultdict
from fractions import Fraction
from functools import partial

from pdacache.designs import check_sizes
from pdacache.errors import BadInput, BadLength, DecodeFailure, require_ints, require_type
from pdacache.framework import ColumnIndex
from pdacache.pda import Labels, Pda, PdaParams, Verdict
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
    return Pda._trusted(tuple(grid), Labels(partial(dict, labels)), meta)


def check_columns(columns, m, t, q):
    """ColumnIndexSet's check, column by column: the first column that is
    not a ColumnIndex of two int tuples, not of arity t, whose T is not
    strictly increasing or outside [0, m), whose b is outside [0, q), or
    that repeats an earlier column raises BadInput naming it."""
    require_type(columns, tuple, "ColumnIndexSet")
    require_ints(BadInput, 0, m=m, t=t, q=q)
    seen = set()
    for col in columns:
        if type(col) is not ColumnIndex or not all(
            type(v) is tuple and all(type(x) is int for x in v) for v in col
        ):
            raise BadInput(f"column {col!r} is not a ColumnIndex of two int tuples")
        if len(col.T) != t or len(col.b) != t:
            raise BadInput(f"column {col} does not have arity {t}")
        if list(col.T) != sorted(set(col.T)):
            raise BadInput(f"column {col}: T must be strictly increasing")
        if any(not 0 <= x < m for x in col.T):
            raise BadInput(f"column {col}: T outside [0, {m})")
        if any(not 0 <= x < q for x in col.b):
            raise BadInput(f"column {col}: b outside [0, {q})")
        if col in seen:
            raise BadInput(f"duplicate column {col}")
        seen.add(col)


def check_rows(rows, m, q):
    """RowIndexMatrix's check, row by row: the first row that is not a
    tuple (BadInput), not of length m (BadLength), or holds an entry not an
    int in [0, q) (BadInput) is named."""
    require_ints(BadInput, 0, m=m, q=q)
    if type(rows) is not tuple:
        raise BadInput(f"need a tuple of tuple rows, got rows of type {type(rows).__name__}")
    check_sizes(m, q, f"{len(rows)} rows", len(rows))
    for r in rows:
        if type(r) is not tuple:
            raise BadInput(f"row {r!r} is of type {type(r).__name__}, not a tuple")
        if len(r) != m:
            raise BadLength(f"row {r} does not have length {m}")
        if any(type(x) is not int or not 0 <= x < q for x in r):
            raise BadInput(f"row {r} has entries outside [0, {q})")


def decode_label_keys(keys, m, q):
    """The label decode construct ran on every build before labels were
    decoded on first read: keys n_e * q^m + sum e_i q^i, in id order, to the
    dict {id: (e, n_e)}, digit by digit across all keys at once."""
    keys, digits = list(keys), []
    for _ in range(m):
        digits.append(list(map(operator.mod, keys, itertools.repeat(q))))
        keys = list(map(operator.floordiv, keys, itertools.repeat(q)))
    es = zip(*digits) if digits else itertools.repeat(())
    return dict(enumerate(zip(es, keys)))


def _label(s, d):
    """A JSON label "s": {"e": [ints], "n": int >= 0} as (int s, (tuple e, n))."""
    try:
        sid = int(s)
    except ValueError:
        raise BadInput(f"label key {s!r} is not an integer") from None
    if not isinstance(d, dict) or "e" not in d or "n" not in d:
        raise BadInput(f"label {s}: {d!r} is not an object holding e and n")
    e, n = d["e"], d["n"]
    if type(e) is not list or any(type(x) is not int for x in e):
        raise BadInput(f"label {s}: e must be a list of integers, not {e!r}")
    if type(n) is not int or n < 0:
        raise BadInput(f"label {s}: n must be an integer >= 0, not {n!r}")
    return sid, (tuple(e), n)


def load_labels(labels, grid):
    """The label part of Pda.from_json before the C-speed check: every label
    through _label in document order, then every key, read with int(), must
    be a symbol of the grid.  Keys are not checked to be canonical, so "05"
    loads as 5.  Labels that are not an object raise BadInput naming their
    JSON type."""
    _expect("labels", labels, dict)
    out = dict(_label(s, d) for s, d in labels.items())
    cells = set(itertools.chain.from_iterable(grid))
    for s in labels:
        if int(s) not in cells:
            raise BadInput(f"label key {s!r} is not a symbol id of the grid")
    return out


def to_json(p):
    """Pda.to_json as one json.dumps of the whole document, with every
    label object built first."""
    obj = {"F": p.F, "K": p.K, "grid": p.grid}
    if p.labels is not None:
        obj["labels"] = {str(s): {"e": e, "n": n} for s, (e, n) in p.labels.items()}
    if p.meta is not None:
        obj["meta"] = p.meta
    return json.dumps(obj)


def from_json(text):
    """Pda.from_json on the whole parsed document: every row list and label
    object is kept until the checks end, and the labels are converted on
    first read.  Pda._trusted checks the meta."""
    try:
        obj = json.loads(text)
        _expect("the document", obj, dict)
        _expect("grid", _key(obj, "grid"), list)
        for j, row in enumerate(obj["grid"]):
            _expect(f"row {j}", row, list)
        grid = tuple(tuple(row) for row in obj["grid"])
        for name in ("F", "K"):
            if type(_key(obj, name)) is not int or obj[name] < 0:
                raise BadInput(f"{name} must be an integer >= 0, not {obj[name]!r}")
        if len(grid) != obj["F"]:
            raise BadInput(f"declared F={obj['F']} but the grid has {len(grid)} rows")
        if not grid and obj["K"]:
            raise BadInput(f"declared K={obj['K']} but the grid has no rows")
        check_grid(grid, obj["K"])
        labels = _whole_labels(obj["labels"], grid) if "labels" in obj else None
        return Pda._trusted(grid, labels, obj.get("meta"))
    except (json.JSONDecodeError, BadInput):
        raise
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError, BadLength) as exc:
        raise BadInput(str(exc)) from exc


def _json_type(x):
    """The JSON type json.loads read x from, with its article."""
    kinds = [(bool, "a boolean"), ((int, float), "a number"), (str, "a string")]
    for cls, name in kinds + [(list, "an array"), (dict, "an object")]:
        if isinstance(x, cls):
            return name
    assert x is None
    return "null"


def _expect(part, x, cls):
    if not isinstance(x, cls):
        raise BadInput(f"{part} must be {_json_type(cls())}, not {_json_type(x)}")


def _key(obj, key):
    if key not in obj:
        raise BadInput(f'the document has no key "{key}"')
    return obj[key]


def _whole_labels(labels, grid):
    """The label part of from_json: each label in document order, its key
    an integer before its e and n are read, then each key the text of a
    grid symbol."""
    _expect("labels", labels, dict)
    symbols = set(map(str, set(itertools.chain.from_iterable(grid)) - {None}))
    for s, d in labels.items():
        if s not in symbols:
            try:
                int(s)
            except ValueError:
                raise BadInput(f"label key {s!r} is not an integer") from None
        if not isinstance(d, dict) or "e" not in d or "n" not in d:
            raise BadInput(f"label {s}: {d!r} is not an object holding e and n")
        e, n = d["e"], d["n"]
        if type(e) is not list or not set(map(type, e)) <= {int}:
            raise BadInput(f"label {s}: e must be a list of integers, not {e!r}")
        if type(n) is not int or n < 0:
            raise BadInput(f"label {s}: n must be an integer >= 0, not {n!r}")
    for s in labels:
        if s not in symbols:
            raise BadInput(f"label key {s!r} is not a symbol id of the grid")
    return Labels(partial(_convert_labels, labels))


def _convert_labels(labels):
    return {int(s): (tuple(d["e"]), d["n"]) for s, d in labels.items()}


def check_grid(grid, K):
    """The grid part of Pda.from_json, row by row and cell by cell: BadInput
    for the first row whose length is not K, or which holds a cell that is
    not None or an int >= 0 (a bool is not an int here); a row's length is
    checked before its cells."""
    for j, row in enumerate(grid):
        if len(row) != K:
            raise BadInput(f"row {j} has {len(row)} cells, not K={K}")
        for c in row:
            if c is not None and (type(c) is not int or c < 0):
                raise BadInput(f"row {j} has a cell that is not null or an integer >= 0")


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
        gain_histogram=dict(sorted(gains.items())),
    )


def _int(data):
    return int.from_bytes(data, "big")


def packet(inst, n, j):
    """Packet j of file n of inst, as a contiguous byte slice."""
    size = inst.packet_size
    return inst.files[n][j * size : (j + 1) * size]


def deliver(inst):
    """One signal per symbol, ascending: slice and convert every packet
    at every cell of the symbol; the index is rebuilt on each call."""
    positions = symbol_positions(inst.pda)
    signals = []
    for s in sorted(positions):
        acc = 0
        for j, k in positions[s]:
            acc ^= _int(packet(inst, inst.demand[k], j))
        signals.append(acc.to_bytes(inst.packet_size, "big"))
    return DeliveryTranscript(tuple(signals), inst.pda.F)


def decode(inst, caches, transcript):
    """Every user's file from its cache (a set of rows) and the signals,
    with one row lookup and one packet slice per packet read; the index is
    rebuilt on each call."""
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
                if j not in cache:
                    raise DecodeFailure(f"user {k} lacks its own packet ({demand[k]}, {j})")
                parts.append(packet(inst, demand[k], j))
                continue
            acc = signal[cell]
            for j2, k2 in positions[cell]:
                if k2 == k:
                    continue
                if j2 not in cache:
                    raise DecodeFailure(
                        f"user {k} lacks packet ({demand[k2]}, {j2}) needed for symbol {cell}"
                    )
                acc ^= _int(packet(inst, demand[k2], j2))
            parts.append(acc.to_bytes(size, "big"))
        recovered.append(b"".join(parts))
    return recovered


def mds_codewords(f, m, k):
    """The [m, k]_q extended RS codewords, one message at a time in
    lexicographic order: evaluate sum(msg[i] * point^i) at each point
    0..min(m, q)-1 with the field's add and mul, then append msg[k-1] when
    m = q+1."""
    q = f.q
    n_eval = min(m, q)
    powers = [list(itertools.accumulate([pt] * (k - 1), f.mul, initial=1)) for pt in range(n_eval)]
    words = []
    for msg in itertools.product(range(q), repeat=k):
        cw = []
        for j in range(n_eval):
            acc = 0
            for i in range(k):
                acc = f.add(acc, f.mul(msg[i], powers[j][i]))
            cw.append(acc)
        if m == q + 1:
            cw.append(msg[k - 1])
        words.append(tuple(cw))
    return tuple(words)


def hamming_distance(a, b):
    """Number of coordinates where a and b differ."""
    return sum(x != y for x, y in zip(a, b, strict=True))


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
