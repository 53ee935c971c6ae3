"""Named end-to-end PDA constructions and their closed-form parameters.

Each builder returns the materialized, labeled PDA together with the
parameters the construction promises; ``predict`` gives the closed forms
alone, which is what the large-parameter comparison tables need.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction

from . import designs
from .designs import full_grid, matrix_from_rows, oa_from_mds, oa_trivial
from .errors import BadParams, require_ints, require_type, require_within
from .framework import construct, full_column_set, weight_column_set
from .gf import check_mds, field_new, mds_generate

# The largest m or q a prediction accepts.  The closed forms are exact, so
# q**m or C(m, s) for much larger values can exhaust memory.  Beyond this
# bound, whose square is over designs.MAX_CELLS, only the one-row theorem3 PDA
# (s = m) would fit the cell limit.
MAX_SPEC_VALUE = 10**4


@dataclass(frozen=True)
class SchemeSpec:
    family: str
    m: int = 0
    t: int = 0
    q: int = 2
    s: int = 0
    omega: int = 0

    def __post_init__(self):
        if not isinstance(self.family, str):
            raise BadParams(f"family must be a string, not {self.family!r}")
        require_ints(BadParams, m=self.m, t=self.t, q=self.q, s=self.s, omega=self.omega)


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
    """pred, or BadParams when its F * K exceeds designs.MAX_CELLS."""
    cells = pred.F * pred.K
    require_within(BadParams, "MAX_CELLS", designs.MAX_CELLS, (f"F*K = {cells} cells", cells))
    return pred


def _weight_s_rows(m, s):
    """All binary m-vectors of weight s, lexicographic order."""
    rows = [tuple(int(i in ones) for i in range(m)) for ones in itertools.combinations(range(m), s)]
    return sorted(rows)


def predict_theorem3(m, s, t, omega=0):
    require_ints(BadParams, m=m, s=s, t=t, omega=omega)
    if not (0 <= omega <= t <= s <= m and s + t - 2 * omega <= m and t >= 1):
        raise BadParams(
            "theorem3 needs 0 <= omega <= t <= s <= m, 1 <= t and s+t-2*omega <= m,"
            f" got ({m}, {s}, {t}, {omega})"
        )
    require_within(BadParams, "MAX_SPEC_VALUE", MAX_SPEC_VALUE, (f"m={m}, q=2", m))
    K = math.comb(t, omega) * math.comb(m, t)
    F = math.comb(m, s)
    Z = F - math.comb(m - t, s - omega)
    # Every weight-(s+t-2*omega) vector occurs iff a valid row exists for
    # it, which needs s+t-omega <= m; otherwise the array is all stars.
    S = math.comb(m, s + t - 2 * omega) if s + t - omega <= m else 0
    gain = K * (F - Z) // S if S else None
    return PredictedParams(K, F, Z, S, Fraction(S, F), gain)


def build_theorem3(m, s, t, omega=0):
    """Binary weight-s rows with weight-(t - omega) column targets."""
    pred = _within_cell_limit(predict_theorem3(m, s, t, omega))
    matrix = matrix_from_rows(_weight_s_rows(m, s), m, 2)
    columns = weight_column_set(m, t, omega)
    meta = {"scheme": "theorem3", "m": m, "s": s, "t": t, "omega": omega, "q": 2}
    return construct(matrix, columns, meta), pred


def predict_theorem6(m, t, q):
    require_ints(BadParams, m=m, t=t, q=q)
    if not (0 < t < m and q >= 2):
        raise BadParams(f"theorem6 needs 0 < t < m and q >= 2, got ({m}, {t}, {q})")
    require_within(BadParams, "MAX_SPEC_VALUE", MAX_SPEC_VALUE, (f"m={m}, q={q}", max(m, q)))
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
    require_ints(BadParams, m=m, t=t, q=q)
    if not (t >= 1 and 2 * t <= m and q >= 2):
        raise BadParams(f"theorem7 needs 1 <= t, 2t <= m and q >= 2, got ({m}, {t}, {q})")
    require_within(BadParams, "MAX_SPEC_VALUE", MAX_SPEC_VALUE, (f"m={m}, q={q}", max(m, q)))
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
    require_ints(BadParams, m=m, t=t, q=q)
    if not (0 < t < m and q >= 2):
        raise BadParams(f"szg_second needs 0 < t < m and q >= 2, got ({m}, {t}, {q})")
    require_within(BadParams, "MAX_SPEC_VALUE", MAX_SPEC_VALUE, (f"m={m}, q={q}", max(m, q)))
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


def predict_mn(k, cache_level):
    require_ints(BadParams, k=k, cache_level=cache_level)
    if not 1 <= cache_level < k:
        raise BadParams(f"mn needs 1 <= cache_level < k, got ({k}, {cache_level})")
    return predict_theorem3(k, cache_level, 1, 0)


def build_mn(k, cache_level):
    """The classic scheme with K = k users each caching a cache_level/k
    fraction: theorem3 with t = 1, omega = 0, s = cache_level."""
    predict_mn(k, cache_level)
    return build_theorem3(k, cache_level, 1, 0)


# SPEC_FIELDS: SchemeSpec's fields after family.  FAMILIES: family -> (predict,
# build, the fields both take, in order); a spec that sets any other field
# away from its default is refused.
SPEC_FIELDS = fields(SchemeSpec)[1:]
FAMILIES = {
    "theorem3": (predict_theorem3, build_theorem3, ("m", "s", "t", "omega")),
    "theorem6": (predict_theorem6, build_theorem6, ("m", "t", "q")),
    "theorem7": (predict_theorem7, build_theorem7, ("m", "t", "q")),
    "mn": (predict_mn, build_mn, ("m", "s")),
    "szg_first": (predict_theorem3, build_theorem3, ("m", "s", "t")),  # omega = 0
    "szg_second": (predict_szg_second, build_szg_second, ("m", "t", "q")),
}


def _family(spec, caller):
    """The registry entry for spec's family and spec's values of its fields;
    BadParams for any other field set away from its default."""
    require_type(spec, SchemeSpec, caller)
    if spec.family not in FAMILIES:
        raise BadParams(f"unknown scheme family {spec.family!r}")
    predict_fn, build_fn, names = FAMILIES[spec.family]
    for f in SPEC_FIELDS:
        if f.name not in names and (value := getattr(spec, f.name)) != f.default:
            raise BadParams(f"{spec.family} takes only {', '.join(names)}, not {f.name}={value}")
    return predict_fn, build_fn, [getattr(spec, name) for name in names]


def predict(spec):
    """Closed-form parameters without materializing the PDA."""
    predict_fn, _, args = _family(spec, "predict")
    return predict_fn(*args)


def build(spec):
    """Materialize the PDA for a scheme spec."""
    _, build_fn, args = _family(spec, "build")
    return build_fn(*args)
