"""The general PDA construction: pick a row index matrix and a column index
set, place a star where the row agrees with the column's target vector on at
least one chosen coordinate, and label every other cell with the merged
vector e and its occurrence order within the column."""

from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .designs import RowIndexMatrix, capped, check_full_columns, check_sizes, weight
from .errors import BadInput, ParamMismatch, require_ints, require_type
from .pda import Labels, Pda


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
        require_type(self.columns, tuple, "ColumnIndexSet")
        require_ints(BadInput, 0, m=self.m, t=self.t, q=self.q)
        seen = set()
        for col in self.columns:
            if type(col) is not ColumnIndex or not all(
                type(v) is tuple and all(type(x) is int for x in v) for v in col
            ):
                raise BadInput(f"column {col!r} is not a ColumnIndex of two int tuples")
            if len(col.T) != self.t or len(col.b) != self.t:
                raise BadInput(f"column {col} does not have arity {self.t}")
            if list(col.T) != sorted(set(col.T)):
                raise BadInput(f"column {col}: T must be strictly increasing")
            if any(not 0 <= x < self.m for x in col.T):
                raise BadInput(f"column {col}: T outside [0, {self.m})")
            if any(not 0 <= x < self.q for x in col.b):
                raise BadInput(f"column {col}: b outside [0, {self.q})")
            if col in seen:
                raise BadInput(f"duplicate column {col}")
            seen.add(col)

    def __len__(self):
        return len(self.columns)


def _b_vectors(q, t):
    """All of [0, q)^t with coordinate 0 varying fastest: 00, 10, 01, 11."""
    return [tuple(reversed(v)) for v in itertools.product(range(q), repeat=t)]


def full_column_set(m, t, q):
    """All C(m, t) * q^t columns; subsets in lexicographic order, b vectors
    with coordinate 0 fastest within each subset."""
    check_full_columns(m, t, q)
    bs = _b_vectors(q, t)
    cols = [ColumnIndex(T, b) for T in itertools.combinations(range(m), t) for b in bs]
    return ColumnIndexSet(tuple(cols), m, t, q)


def weight_column_set(m, t, omega):
    """Binary columns restricted to target vectors of weight t - omega;
    C(m, t) * C(t, omega) columns in the same enumeration order."""
    require_ints(BadInput, m=m, t=t, omega=omega)
    if not 0 <= omega <= t <= m:
        raise BadInput(f"need 0 <= omega <= t <= m, got m={m}, t={t}, omega={omega}")
    count = math.comb(m, capped(min(t, m - t))) * math.comb(t, capped(min(omega, t - omega)))
    check_sizes(m, 2, f"C({m},{t})*C({t},{omega}) columns", count)
    bs = [b for b in _b_vectors(2, t) if weight(b) == t - omega]
    cols = [ColumnIndex(T, b) for T in itertools.combinations(range(m), t) for b in bs]
    return ColumnIndexSet(tuple(cols), m, t, 2)


def construct(matrix, columns, meta=None):
    """Build the PDA for a row index matrix and column index set.

    Cell (f, (T, b)) is a star unless f|_T disagrees with b everywhere; a
    non-star cell gets the vector e that equals b on T and f elsewhere,
    paired with e's occurrence order n_e in that column (scanning rows in
    matrix order, starting from 0).  Symbol ids are assigned by first
    appearance in a row-major scan.

    A vector e is coded as the integer sum of e_i * q^i, and a label
    (e, n_e) as its key n_e * q^m + e.  For a subset T, a row's code is its
    part (the code of f|_T) plus its rest (the code of f off T).  Rows with
    equal rests agree outside T and form a rest group; an earlier row of
    the group gives the same e in a column (T, b) exactly when that column
    is non-star in it too.  So a row's cells on T depend only on its part
    and the earlier parts of its group: a path in a trie of parts.  A node,
    made when a row first reaches it, holds its non-star columns and the
    entry n_e * q^m + code of b - part of each, and a cell's key is the
    row's code plus its entry.

    The first pass goes run by run (a run: a maximal stretch of adjacent
    columns sharing one T) and records for each row the columns and entries
    of the node it reaches unless that node has none, then drops the rest of
    the trie.  It holds one entries list per distinct node: far fewer than
    the cells when rows share nodes, as in the index-1 families, but one per
    non-star cell for F equal rows.  The second, row by row, numbers each key
    as it writes the cell, in column order, and drops the row's entries.
    """
    require_type(matrix, RowIndexMatrix, "construct")
    require_type(columns, ColumnIndexSet, "construct")
    if matrix.m != columns.m or matrix.q != columns.q:
        raise ParamMismatch(
            f"matrix (m={matrix.m}, q={matrix.q}) vs columns "
            f"(m={columns.m}, q={columns.q})"
        )
    if columns.t > matrix.m:
        raise ParamMismatch(f"t={columns.t} exceeds m={matrix.m}")

    m, q = matrix.m, matrix.q
    Q = q**m
    rows = matrix.rows
    # coords[i][j] = f_i * q^i for row j; a code is a sum of some of them
    coords = [
        list(map(operator.mul, map(operator.itemgetter(i), rows), itertools.repeat(q**i)))
        for i in range(m)
    ]
    codes = _sum(coords, len(rows))
    walks = [([], []) for _ in rows]  # per row, its node's columns and entries on each run
    for T, run in itertools.groupby(enumerate(columns.columns), lambda c: c[1].T):
        cis, bs = zip(*[(ci, b) for ci, (_, b) in run])
        bcodes = [sum(x * q**i for i, x in zip(T, b)) for b in bs]
        # differs[h][x][c]: column c's b differs from x at coordinate T[h]
        differs = [[list(map(operator.ne, bh, [x] * len(bh))) for x in range(q)] for bh in zip(*bs)]
        parts = _sum([coords[i] for i in T], len(rows))
        # A trie node is (non-star columns, their entries, children by part,
        # per column of the run the number of rows on its path non-star there).
        root = ((), [], {}, [0] * len(cis))
        tips = {}  # rest -> the node its rest group has reached so far
        for f, part, rest, (fcis, fws) in zip(rows, parts, map(operator.sub, codes, parts), walks):
            tip = tips.get(rest, root)
            node = tip[2].get(part)
            if node is None:
                # column c is non-star iff f differs from its b at every
                # coordinate of T, as t = 0's one column always is
                fits = list(map(all, zip(*[d[f[i]] for i, d in zip(T, differs)]))) if T else [True]
                ns, bcs = itertools.compress(tip[3], fits), itertools.compress(bcodes, fits)
                ws = [n * Q + bc - part for n, bc in zip(ns, bcs)]
                fit_cis = tuple(itertools.compress(cis, fits))
                node = tip[2][part] = (fit_cis, ws, {}, list(map(operator.add, tip[3], fits)))
            tips[rest] = node
            if node[1]:  # most nodes are empty when T has few columns
                fcis.append(node[0])
                fws.append(node[1])

    # ids numbers a key on first sight; walks list a row's columns in order
    ids = defaultdict(itertools.count().__next__)
    grid = []
    for code, (fcis, fws) in zip(codes, walks):
        row = [None] * len(columns)
        for ci, w in zip(itertools.chain.from_iterable(fcis), itertools.chain.from_iterable(fws)):
            row[ci] = ids[code + w]
        fws.clear()  # entries no later row reaches are freed now
        grid.append(tuple(row))
    return Pda._trusted(tuple(grid), Labels(partial(_decode_labels, list(ids), m, q)), meta)


def _decode_labels(keys, m, q):
    """{id: (e, n_e)} from the keys n_e * q^m + e in id order: take the m
    digits of e off all keys at once; what is left is n_e."""
    digits = []
    for _ in range(m):
        digits.append(list(map(operator.mod, keys, itertools.repeat(q))))
        keys = list(map(operator.floordiv, keys, itertools.repeat(q)))
    es = zip(*digits) if digits else itertools.repeat(())
    return dict(enumerate(zip(es, keys)))


def _sum(vectors, n):
    """The coordinate-wise sum of vectors of length n (zeros for none)."""
    total = [0] * n
    for v in vectors:
        total = list(map(operator.add, total, v))
    return total

