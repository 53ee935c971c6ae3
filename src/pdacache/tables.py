"""Closed-form comparison tables over the scheme families, with decimal
rendering that matches half-up rounding at the displayed precision."""

from __future__ import annotations

import math
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from .schemes import predict_theorem3, predict_theorem6, predict_theorem7


def fmt_fixed(value, places):
    """Render an exact rational at a fixed number of decimals, half-up."""
    d = Decimal(value.numerator) / Decimal(value.denominator)
    return str(d.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP))


def fmt_trimmed(value, places):
    """Like fmt_fixed but with trailing zeros (and a bare point) removed."""
    text = fmt_fixed(value, places)
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text


# Parameter tuples (m, s, t, omega) recovered from the closed forms; the
# displayed figures are reproduced exactly by predict_theorem3.
OMEGA_ROWS = (
    ("Scheme 1", 10, 4, 3, 2),
    ("Scheme 2", 10, 5, 3, 0),
    ("Scheme 3", 10, 4, 3, 0),
    ("Scheme 4", 10, 4, 3, 1),
)

SUBPACK_COMPARISON_POINTS = ((10, 11), (20, 23), (30, 31), (40, 41))
SUBPACK_COMPARISON_T = 2


def omega_table():
    """Weight-restricted column schemes at several omega values."""
    rows = []
    for label, m, s, t, omega in OMEGA_ROWS:
        p = predict_theorem3(m, s, t, omega)
        rows.append(
            {
                "scheme": label,
                "K": p.K,
                "M_over_N": fmt_trimmed(p.memory_ratio, 5),
                "F": p.F,
                "R": fmt_trimmed(p.R, 5),
                "gain": p.gain,
                "omega": omega,
            }
        )
    return rows


def thm6_vs_thm7_table():
    """Sum-OA scheme vs MDS scheme at equal users and memory ratio."""
    rows = []
    for m, q in SUBPACK_COMPARISON_POINTS:
        p6 = predict_theorem6(m, SUBPACK_COMPARISON_T, q)
        p7 = predict_theorem7(m, SUBPACK_COMPARISON_T, q)
        rows.append(
            {
                "m": m,
                "q": q,
                "K": p6.K,
                "M_over_N": fmt_fixed(p6.memory_ratio, 4),
                "R1_over_R2": fmt_fixed(p6.R / p7.R, 4),
                "F1_over_F2": p6.F // p7.F,
            }
        )
    return rows


def main_table():
    """The three construction families with their closed forms."""
    return [
        {
            "scheme": "weight-vector (binary rows of weight s)",
            "parameters": "m, s, t, omega with omega <= t <= s, s+t-2*omega <= m",
            "K": "C(t,omega)*C(m,t)",
            "M_over_N": "1 - C(m-t,s-omega)/C(m,s)",
            "R": "C(m,s+t-2*omega)/C(m,s)",
            "F": "C(m,s)",
        },
        {
            "scheme": "sum-coordinate OA rows",
            "parameters": "m, t, q with 0 < t < m, q >= 2",
            "K": "C(m,t)*q^t",
            "M_over_N": "1 - ((q-1)/q)^t",
            "R": "(q-1)^t",
            "F": "q^(m-1)",
        },
        {
            "scheme": "MDS codeword rows",
            "parameters": "m, t prime power q with 2t <= m <= q+1",
            "K": "C(m,t)*q^t",
            "M_over_N": "1 - ((q-1)/q)^t",
            "R": "q^t - 1",
            "F": "q^(m-t)",
        },
    ]


TABLES = {"main": main_table, "omega": omega_table, "thm6-vs-thm7": thm6_vs_thm7_table}
