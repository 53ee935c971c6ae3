"""The general PDA construction: pick a row index matrix and a column index
set, place a star where the row agrees with the column's target vector on at
least one chosen coordinate, and label every other cell with the merged
vector e and its occurrence order within the column."""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

from .designs import weight
from .errors import ParamMismatch
from .pda import Pda


class ColumnIndex(NamedTuple):
    T: tuple  # strictly increasing t-subset of [0, m)
    b: tuple  # length-t vector over [0, q)


@dataclass(frozen=True)
class ColumnIndexSet:
    columns: tuple
    m: int
    t: int
    q: int

    def __post_init__(self):
        seen = set()
        for col in self.columns:
            if len(col.T) != self.t or len(col.b) != self.t:
                raise ValueError(f"column {col} does not have arity {self.t}")
            if list(col.T) != sorted(set(col.T)):
                raise ValueError(f"column {col}: T must be strictly increasing")
            if any(not 0 <= x < self.m for x in col.T):
                raise ValueError(f"column {col}: T outside [0, {self.m})")
            if any(not 0 <= x < self.q for x in col.b):
                raise ValueError(f"column {col}: b outside [0, {self.q})")
            if col in seen:
                raise ValueError(f"duplicate column {col}")
            seen.add(col)

    def __len__(self):
        return len(self.columns)


def _b_vectors(q, t):
    """All of [0, q)^t with coordinate 0 varying fastest: 00, 10, 01, 11."""
    return [tuple(reversed(v)) for v in itertools.product(range(q), repeat=t)]


def full_column_set(m, t, q):
    """All C(m, t) * q^t columns; subsets in lexicographic order, b vectors
    with coordinate 0 fastest within each subset."""
    if not 0 < t <= m or q < 2:
        raise ValueError(f"need 0 < t <= m and q >= 2, got m={m}, t={t}, q={q}")
    cols = [
        ColumnIndex(T, b)
        for T in itertools.combinations(range(m), t)
        for b in _b_vectors(q, t)
    ]
    return ColumnIndexSet(tuple(cols), m, t, q)


def weight_column_set(m, t, omega):
    """Binary columns restricted to target vectors of weight t - omega;
    C(m, t) * C(t, omega) columns in the same enumeration order."""
    if not 0 <= omega <= t <= m:
        raise ValueError(f"need 0 <= omega <= t <= m, got m={m}, t={t}, omega={omega}")
    cols = [
        ColumnIndex(T, b)
        for T in itertools.combinations(range(m), t)
        for b in _b_vectors(2, t)
        if weight(b) == t - omega
    ]
    return ColumnIndexSet(tuple(cols), m, t, 2)


def construct(matrix, columns, meta=None):
    """Build the PDA for a row index matrix and column index set.

    Cell (f, (T, b)) is a star unless f|_T disagrees with b everywhere; a
    non-star cell gets the vector e that equals b on T and f elsewhere,
    paired with e's occurrence order n_e in that column (scanning rows in
    matrix order, starting from 0).  Symbol ids are assigned by first
    appearance in a row-major scan.

    A vector e is coded as the integer sum of e_i * q^i, and a label
    (e, n_e) as n_e * q^m + e.  The grid is filled subset by subset.  For
    a subset T, a row's code is its part (the code of f|_T) plus its rest
    (the code of f off T).  Rows with equal rests agree outside T and form
    a rest group; an earlier row of the group gives the same e in a column
    (T, b) exactly when that column is non-star in it too.  So a row's
    cells on T depend only on its part and the parts of the earlier rows
    of its group.  That history is a path in a trie of parts, one trie per
    T, whose node lists (column, n_e * q^m + code of b) for each non-star
    column; each cell is the row's rest plus that.  In an index-1
    orthogonal array every rest group has one row, so the key is the part
    alone and every n_e is 0.  The labels are decoded digit by digit
    across all keys at once.
    """
    if matrix.m != columns.m or matrix.q != columns.q:
        raise ParamMismatch(
            f"matrix (m={matrix.m}, q={matrix.q}) vs columns "
            f"(m={columns.m}, q={columns.q})"
        )
    if columns.t > matrix.m:
        raise ParamMismatch(f"t={columns.t} exceeds m={matrix.m}")

    m, q = matrix.m, matrix.q
    Q = q**m
    by_subset = {}  # T -> [(column index, b, code of b on T)] in column order
    for ci, (T, b) in enumerate(columns.columns):
        bcode = sum(x * q**i for i, x in zip(T, b))
        by_subset.setdefault(T, []).append((ci, b, bcode))

    rows = matrix.rows
    # coords[i][j] = f_i * q^i for row j; a code is a sum of some of them
    coords = [
        list(map(operator.mul, map(operator.itemgetter(i), rows), itertools.repeat(q**i)))
        for i in range(m)
    ]
    codes = _sum(coords, len(rows))
    key_rows = [[None] * len(columns) for _ in rows]
    for T, cols in by_subset.items():
        parts = _sum([coords[i] for i in T], len(rows))
        # A trie node is (entries, children by part, per column of T the
        # number of rows on its path that are non-star there).
        root = (None, {}, [0] * len(cols))
        tips = {}  # rest -> the node its rest group has reached so far
        for row, f, code, part in zip(key_rows, rows, codes, parts):
            rest = code - part
            tip = tips.get(rest, root)
            node = tip[1].get(part)
            if node is None:
                node = tip[1][part] = _child(tip[2], cols, [f[i] for i in T], Q)
            tips[rest] = node
            for ci, w in node[0]:
                row[ci] = rest + w

    # ids hands out the next symbol id on first sight of a key, so a
    # row-major pass numbers the symbols in order of first appearance
    ids = defaultdict(itertools.count().__next__)
    ids[None] = None
    grid = tuple(tuple(map(ids.__getitem__, row)) for row in key_rows)
    # Take the m digits of e off all keys at once; what is left is n_e.
    keys, digits = list(ids)[1:], []
    for _ in range(m):
        digits.append(list(map(operator.mod, keys, itertools.repeat(q))))
        keys = list(map(operator.floordiv, keys, itertools.repeat(q)))
    es = zip(*digits) if digits else itertools.repeat(())
    labels = dict(enumerate(zip(es, keys)))
    return Pda(grid, labels, meta)


def _sum(vectors, n):
    """The coordinate-wise sum of vectors of length n (zeros for none)."""
    total = [0] * n
    for v in vectors:
        total = list(map(operator.add, total, v))
    return total


def _child(counts, cols, v, Q):
    """The trie node for a row with part v on T below a node with counts:
    its entries and the counts that include it."""
    fits = [all(map(operator.ne, b, v)) for _, b, _ in cols]
    entries = [
        (ci, n * Q + bcode)
        for (ci, _, bcode), n, fit in zip(cols, counts, fits)
        if fit
    ]
    return entries, {}, list(map(operator.add, counts, fits))
