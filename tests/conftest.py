"""Shared reference arrays and helpers for the test suite."""

import gc
import tracemalloc

import pytest

# One line per acceptance criterion, echoed in the terminal summary so the
# pass/fail verdicts survive pytest's output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from pdacache import CachingInstance, Pda, decode, deliver, pda, place, sim
from pdacache.framework import ColumnIndex

# The 12 (family, field) settings that no builder reads, each with a value
# away from the field's default; what each family takes; and a valid spec of
# each family that leaves every unread field at its default.
UNREAD_SETTINGS = [
    ("theorem3", "q", 3),
    *((family, field, 1) for family in ("theorem6", "theorem7", "szg_second")
      for field in ("s", "omega")),
    ("mn", "t", 1),
    ("mn", "q", 3),
    ("mn", "omega", 1),
    ("szg_first", "q", 3),
    ("szg_first", "omega", 2),
]
TAKES = {
    "theorem3": "m, s, t, omega",
    "theorem6": "m, t, q",
    "theorem7": "m, t, q",
    "szg_second": "m, t, q",
    "mn": "m, s",
    "szg_first": "m, s, t",
}
VALID_FIELDS = {
    "theorem3": {"m": 5, "s": 3, "t": 2, "omega": 1},
    "theorem6": {"m": 3, "t": 2, "q": 2},
    "theorem7": {"m": 4, "t": 2, "q": 3},
    "szg_second": {"m": 3, "t": 2, "q": 2},
    "mn": {"m": 4, "s": 2},
    "szg_first": {"m": 5, "s": 3, "t": 2},
}

# The worked 4x6 example array: a (6,4,2,4) PDA (None = star).
EXAMPLE_PDA_4x6 = Pda(
    [
        [None, None, None, 0, 1, 2],
        [None, 0, 1, None, None, 3],
        [0, None, 2, None, 3, None],
        [1, 2, None, 3, None, None],
    ]
)

# Row index matrix of the 4x12 worked example, in its displayed row order.
MATRIX_4x3_ROWS = ((0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 0))

# The 4x12 array the framework produces from MATRIX_4x3_ROWS with the full
# (3, 2, 2) column set; cells are the vector labels e (all occurrence
# orders are 0) or None for a star.  Columns: T in {01, 02, 12} lex order,
# b in the order 00, 10, 01, 11 within each T.
LABELED_4x12 = [
    # T={0,1}: 00 10 01 11 | T={0,2} | T={1,2}
    [None, None, None, (1, 1, 0), None, None, None, (1, 0, 1), None, None, None, (0, 1, 1)],
    [None, None, (0, 1, 1), None, (0, 0, 0), None, None, None, None, (1, 1, 0), None, None],
    [None, (1, 0, 1), None, None, None, (1, 1, 0), None, None, (0, 0, 0), None, None, None],
    [(0, 0, 0), None, None, None, None, None, (0, 1, 1), None, None, None, (1, 0, 1), None],
]

# The 6x12 weight-vector example: rows and columns in their displayed
# (non-lexicographic) order; cells are e labels or None.
WEIGHT_EXAMPLE_ROWS = (
    (1, 1, 0, 0),
    (1, 0, 1, 0),
    (1, 0, 0, 1),
    (0, 1, 1, 0),
    (0, 1, 0, 1),
    (0, 0, 1, 1),
)
WEIGHT_EXAMPLE_COLUMNS = tuple(
    ColumnIndex(T, b)
    for T in ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
    for b in ((1, 0), (0, 1))
)
_E = {
    "0011": (0, 0, 1, 1),
    "0101": (0, 1, 0, 1),
    "0110": (0, 1, 1, 0),
    "1001": (1, 0, 0, 1),
    "1010": (1, 0, 1, 0),
    "1100": (1, 1, 0, 0),
}


def _lab_row(*cells):
    return [(_E[c] if c != "*" else None) for c in cells]


WEIGHT_EXAMPLE_CELLS = [
    _lab_row("*", "*", "*", "0110", "*", "1010", "*", "0101", "*", "1001", "*", "*"),
    _lab_row("*", "0110", "*", "*", "1100", "*", "*", "0011", "*", "*", "*", "1001"),
    _lab_row("*", "0101", "*", "0011", "*", "*", "*", "*", "1100", "*", "1010", "*"),
    _lab_row("1010", "*", "1100", "*", "*", "*", "*", "*", "*", "0011", "*", "0101"),
    _lab_row("1001", "*", "*", "*", "*", "0011", "1100", "*", "*", "*", "0110", "*"),
    _lab_row("*", "*", "1001", "*", "0101", "*", "1010", "*", "0110", "*", "*", "*"),
]


# Entries a fault writes into a row, or a column's T or b: wrong types, a
# bool, and a value below range.
FAULTY_ENTRIES = [True, False, 1.0, "a", None, -1]


def outcome(call):
    """The type and message of the error call() raises, or None."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def traced(build):
    """build() with its traced peak and what its result retains, in bytes.
    Retained is read after a collection, so garbage the build left in
    cycles or free lists does not count.  A peak of 0 B fails: the traced
    build did no work, so a bound on it would measure nothing."""
    build()  # warm any lazily built module state
    gc.collect()
    tracemalloc.start()
    try:
        result = build()
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak > 0, "the traced build allocated nothing"
    return result, retained, peak


def label_grid(p: Pda):
    """Replace each symbol id with its (e, n_e) label; stars stay None."""
    assert p.labels is not None
    return [
        [p.labels[c] if c is not None else None for c in row] for row in p.grid
    ]


def labeled_cells_to_pda(cells):
    """Turn a grid of e-labels (occurrence order 0 implied) into a Pda with
    integer ids assigned by first appearance."""
    ids = {}
    grid = []
    for row in cells:
        out = []
        for c in row:
            if c is None:
                out.append(None)
            else:
                if c not in ids:
                    ids[c] = len(ids)
                out.append(ids[c])
        grid.append(tuple(out))
    labels = {i: (e, 0) for e, i in ids.items()}
    return Pda(tuple(grid), labels)


def symbolic_instance(p):
    """Instance with N = K files and the all-distinct demand whose packet
    (n, j) is the one-hot bit n*F + j, in ceil(N*F/8)-byte packets."""
    n_files = max(p.K, 1)
    size = -(-n_files * p.F // 8)
    files = tuple(
        b"".join((1 << (n * p.F + j)).to_bytes(size, "big") for j in range(p.F))
        for n in range(n_files)
    )
    return CachingInstance(files, p, tuple(range(p.K)))


def symbolic_round_trip(p):
    """Whether every user recovers its file of the symbolic instance.  XOR
    is linear and every packet is a distinct bit, so True proves recovery
    for all file contents.  A missing side packet raises DecodeFailure."""
    inst = symbolic_instance(p)
    recovered = decode(inst, place(inst), deliver(inst))
    return all(recovered[k] == inst.files[d] for k, d in enumerate(inst.demand))


def count_index_builds(monkeypatch):
    """Make pda.symbol_cells, where pda and sim call it, record every Pda it
    builds a cell index for, and return that list."""
    calls = []
    build = pda.symbol_cells

    def counted(p):
        calls.append(p)
        return build(p)

    for module in (pda, sim):
        monkeypatch.setattr(module, "symbol_cells", counted)
    return calls


@pytest.fixture
def example_pda():
    return EXAMPLE_PDA_4x6
