"""The general construction: row index matrices, column index sets, and why
orthogonal arrays are exactly the matrices that give regular PDAs.

Rows of the PDA are indexed by the rows of an F x m matrix over [0, q);
columns by pairs (T, b) of a t-subset of coordinates and a target vector.
Cell (f, (T, b)) is a star unless f disagrees with b on every coordinate
of T.  Any matrix yields a valid PDA; the column star count is constant
(i.e. the PDA is regular, so all users need the same cache size) exactly
when the matrix is an orthogonal array of strength t.
"""

import random

from pdacache import (
    construct,
    full_column_set,
    is_oa,
    matrix_from_rows,
    oa_trivial,
    pda_params,
    verify_pda,
)

# The strength-2 orthogonal array on 3 binary columns: rows are the even
# weight vectors (free 2-bit prefix plus its mod-2 sum).
matrix = oa_trivial(3, 2)
print("row index matrix:", matrix.rows)
print("is_oa(strength 2):", bool(is_oa(matrix, 2)))

pda = construct(matrix, full_column_set(3, 2, 2))
p = pda_params(pda)
print(f"framework output: K={p.K} F={p.F} Z={p.Z} S={p.S}, load R={p.R}")
print("stars per column:", list(p.Z_cols), "(constant -> regular)")

# A non-orthogonal matrix still produces a valid PDA, just an irregular one.
rng = random.Random(0)
rows = [tuple(rng.randrange(2) for _ in range(3)) for _ in range(4)]
irregular = construct(matrix_from_rows(rows, 3, 2), full_column_set(3, 2, 2))
print("\nrandom matrix:", tuple(rows))
print("is_oa(strength 2):", bool(is_oa(matrix_from_rows(rows, 3, 2), 2)))
print("still a valid PDA:", bool(verify_pda(irregular)))
print("stars per column:", list(pda_params(irregular).Z_cols), "(not constant)")
