"""Placement delivery arrays for centralized coded caching.

Construct PDAs from a row index matrix and a column index set, verify the
defining condition, check orthogonal/covering-array requirements on the row
matrix, and simulate the placement/delivery protocol end to end.
"""

from .designs import (
    RowIndexMatrix,
    full_grid,
    is_ca,
    is_oa,
    matrix_from_rows,
    oa_from_mds,
    oa_trivial,
    weight,
)
from .framework import ColumnIndex, ColumnIndexSet, construct, full_column_set, weight_column_set
from .gf import Field, MdsCode, field_new, mds_generate
from .pda import Pda, check_lower_bounds, pda_from_grid, pda_params, verify_pda
from .schemes import (
    PredictedParams,
    SchemeSpec,
    build,
    build_mn,
    build_szg_second,
    build_theorem3,
    build_theorem6,
    build_theorem7,
    predict,
)
from .sim import (
    CachingInstance,
    DeliveryTranscript,
    decode,
    deliver,
    place,
    random_instance,
    run_round_trip,
)

__all__ = [name for name in dir() if not name.startswith("_") and callable(globals()[name])]
__version__ = "0.1.0"
