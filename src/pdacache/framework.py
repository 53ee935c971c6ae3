"""The general PDA construction: pick a row index matrix and a column index
set, place a star where the row agrees with the column's target vector on at
least one chosen coordinate, and label every other cell with the merged
vector e and its occurrence order within the column."""

from __future__ import annotations

import itertools
from collections import Counter
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
    paired with e's occurrence order in that column (scanning rows in
    matrix order, starting from 0).  Symbol ids are assigned by first
    appearance in a row-major scan.
    """
    if matrix.m != columns.m or matrix.q != columns.q:
        raise ParamMismatch(
            f"matrix (m={matrix.m}, q={matrix.q}) vs columns "
            f"(m={columns.m}, q={columns.q})"
        )
    if columns.t > matrix.m:
        raise ParamMismatch(f"t={columns.t} exceeds m={matrix.m}")

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
