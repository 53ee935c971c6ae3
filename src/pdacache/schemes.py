"""Named end-to-end PDA constructions and their closed-form parameters.

Each builder returns the materialized, labeled PDA together with the
parameters the construction promises; ``predict`` gives the closed forms
alone, which is what the large-parameter comparison tables need.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .designs import full_grid, matrix_from_rows, oa_from_mds, oa_trivial
from .errors import BadParams
from .framework import construct, full_column_set, weight_column_set
from .gf import check_mds, field_new, mds_generate

# The largest PDA, in cells F * K, that the builders materialize.  Larger
# requests are refused from their closed-form prediction, after the spec is
# validated and before any row is built; the largest PDA the tests build has
# about 3.5e5 cells.
MAX_CELLS = 10**7


@dataclass(frozen=True)
class SchemeSpec:
    family: str
    m: int = 0
    t: int = 0
    q: int = 2
    s: int = 0
    omega: int = 0


@dataclass(frozen=True)
class PredictedParams:
    K: int
    F: int
    Z: int
    S: int
    R: Fraction
    gain: int | None  # common coded gain when the construction promises one

    @property
    def memory_ratio(self):
        return Fraction(self.Z, self.F)


def _within_cell_limit(pred):
    """pred, or BadParams when its F * K exceeds MAX_CELLS."""
    if pred.F * pred.K > MAX_CELLS:
        raise BadParams(
            f"F*K = {pred.F * pred.K} cells exceeds the limit MAX_CELLS = {MAX_CELLS}"
        )
    return pred


def _weight_s_rows(m, s):
    """All binary m-vectors of weight s, lexicographic order."""
    rows = []
    for positions in itertools.combinations(range(m), s):
        v = [0] * m
        for p in positions:
            v[p] = 1
        rows.append(tuple(v))
    rows.sort()
    return rows


def predict_theorem3(m, s, t, omega):
    if not (0 <= omega <= t <= s <= m and s + t - 2 * omega <= m and t >= 1):
        raise BadParams(f"theorem3 needs 0 <= omega <= t <= s <= m and s+t-2*omega <= m")
    K = math.comb(t, omega) * math.comb(m, t)
    F = math.comb(m, s)
    Z = F - math.comb(m - t, s - omega)
    # Every weight-(s+t-2*omega) vector occurs iff a valid row exists for
    # it, which needs s+t-omega <= m; otherwise the array is all stars.
    S = math.comb(m, s + t - 2 * omega) if s + t - omega <= m else 0
    gain = K * (F - Z) // S if S else None
    return PredictedParams(K, F, Z, S, Fraction(S, F), gain)


def build_theorem3(m, s, t, omega):
    """Binary weight-s rows with weight-(t - omega) column targets."""
    pred = _within_cell_limit(predict_theorem3(m, s, t, omega))
    matrix = matrix_from_rows(_weight_s_rows(m, s), m, 2)
    columns = weight_column_set(m, t, omega)
    meta = {"scheme": "theorem3", "m": m, "s": s, "t": t, "omega": omega, "q": 2}
    return construct(matrix, columns, meta), pred


def predict_theorem6(m, t, q):
    if not (0 < t < m and q >= 2):
        raise BadParams(f"theorem6 needs 0 < t < m and q >= 2, got ({m}, {t}, {q})")
    K = math.comb(m, t) * q**t
    F = q ** (m - 1)
    Z = F - (q - 1) ** t * q ** (m - t - 1)
    S = (q - 1) ** t * q ** (m - 1)
    return PredictedParams(K, F, Z, S, Fraction(S, F), math.comb(m, t))


def build_theorem6(m, t, q):
    """Sum-coordinate orthogonal array rows with the full column set."""
    pred = _within_cell_limit(predict_theorem6(m, t, q))
    matrix = oa_trivial(m, q)
    columns = full_column_set(m, t, q)
    meta = {"scheme": "theorem6", "m": m, "t": t, "q": q}
    return construct(matrix, columns, meta), pred


def predict_theorem7(m, t, q):
    if not (t >= 1 and 2 * t <= m):
        raise BadParams(f"theorem7 needs 1 <= t and 2t <= m, got ({m}, {t})")
    K = math.comb(m, t) * q**t
    F = q ** (m - t)
    Z = F - (q - 1) ** t * q ** (m - 2 * t)
    S = q**m - q ** (m - t)
    return PredictedParams(K, F, Z, S, Fraction(S, F), None)


def build_theorem7(m, t, q):
    """MDS codewords as rows with the full column set.

    Raises MdsUnavailable when m > q + 1, before the cell limit is checked.
    """
    pred = predict_theorem7(m, t, q)
    f = field_new(q)
    check_mds(q, m, m - t)
    _within_cell_limit(pred)
    code = mds_generate(f, m, m - t)
    matrix = oa_from_mds(code)
    columns = full_column_set(m, t, q)
    meta = {"scheme": "theorem7", "m": m, "t": t, "q": q}
    return construct(matrix, columns, meta), pred


def predict_szg_second(m, t, q):
    if not (0 < t < m and q >= 2):
        raise BadParams(f"szg_second needs 0 < t < m and q >= 2, got ({m}, {t}, {q})")
    K = math.comb(m, t) * q**t
    F = q**m
    Z = F - (q - 1) ** t * q ** (m - t)
    S = (q - 1) ** t * q**m
    return PredictedParams(K, F, Z, S, Fraction(S, F), math.comb(m, t))


def build_szg_second(m, t, q):
    """Full grid [0, q)^m as rows with the full column set (baseline)."""
    pred = _within_cell_limit(predict_szg_second(m, t, q))
    matrix = full_grid(m, q)
    columns = full_column_set(m, t, q)
    meta = {"scheme": "szg_second", "m": m, "t": t, "q": q}
    return construct(matrix, columns, meta), pred


def build_mn(k, cache_level):
    """The classic scheme with K = k users each caching a cache_level/k
    fraction: theorem3 with t = 1, omega = 0, s = cache_level."""
    if not 1 <= cache_level < k:
        raise BadParams(f"mn needs 1 <= cache_level < k, got ({k}, {cache_level})")
    return build_theorem3(k, cache_level, 1, 0)


# family -> (predict, build, the SchemeSpec fields both take, in order)
FAMILIES = {
    "theorem3": (predict_theorem3, build_theorem3, ("m", "s", "t", "omega")),
    "theorem6": (predict_theorem6, build_theorem6, ("m", "t", "q")),
    "theorem7": (predict_theorem7, build_theorem7, ("m", "t", "q")),
    "mn": (lambda k, s: predict_theorem3(k, s, 1, 0), build_mn, ("m", "s")),
    "szg_first": (
        lambda m, s, t: predict_theorem3(m, s, t, 0),
        lambda m, s, t: build_theorem3(m, s, t, 0),
        ("m", "s", "t"),
    ),
    "szg_second": (predict_szg_second, build_szg_second, ("m", "t", "q")),
}


def _family(spec):
    """The registry entry for spec's family and spec's values of its fields."""
    if spec.family not in FAMILIES:
        raise BadParams(f"unknown scheme family {spec.family!r}")
    predict_fn, build_fn, fields = FAMILIES[spec.family]
    return predict_fn, build_fn, [getattr(spec, name) for name in fields]


def predict(spec):
    """Closed-form parameters without materializing the PDA."""
    predict_fn, _, args = _family(spec)
    return predict_fn(*args)


def build(spec):
    """Materialize the PDA for a scheme spec."""
    _, build_fn, args = _family(spec)
    return build_fn(*args)
