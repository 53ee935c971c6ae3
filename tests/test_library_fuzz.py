"""Every public callable of the package ends a call in a result or a
PdacacheError, whatever its arguments: never TypeError, AttributeError,
MemoryError or a hang.  A Pda it returns loads back from its own JSON."""

import inspect

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pdacache
from conftest import EXAMPLE_PDA_4x6
from pdacache import (
    CachingInstance,
    ColumnIndexSet,
    Pda,
    SchemeSpec,
    deliver,
    full_column_set,
    matrix_from_rows,
    oa_trivial,
    random_instance,
    weight,
    weight_column_set,
)
from pdacache.errors import PdacacheError
from pdacache.gf import check_mds
from pdacache.pda import Labels

CALLABLES = [getattr(pdacache, name) for name in sorted(pdacache.__all__)]

SCALARS = [True, False, -1, 0, 1, 2, 3, 4, 10**11, 2.0, "a", None]
OBJECTS = [
    EXAMPLE_PDA_4x6,
    Pda([[0, 1], [1, 0]]),  # fails C1
    Pda(()),
    SchemeSpec("mn", m=4, s=2),
    SchemeSpec("theorem6", m=3, t=2, q=2),
    SchemeSpec("theorem7", m=4, t=2, q=4),
    oa_trivial(3, 2),
    matrix_from_rows([(0, 1)], 2, 2),
    full_column_set(3, 2, 2),
    weight_column_set(4, 2, 1),
    random_instance(EXAMPLE_PDA_4x6),
    deliver(random_instance(EXAMPLE_PDA_4x6)),
]
VALUES = st.recursive(
    st.sampled_from(SCALARS + OBJECTS), lambda inner: st.lists(inner, max_size=3), max_leaves=6
)


def call_of(f):
    """f with a list of drawn arguments, as many as f takes positionally."""
    params = inspect.signature(f).parameters.values()
    positional = [p for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
    least = sum(p.default is p.empty for p in positional)
    return st.tuples(st.just(f), st.lists(VALUES, min_size=least, max_size=len(positional)))


CALLS = st.sampled_from(CALLABLES).flatmap(call_of)


@given(CALLS)
# Calls that once ended in a raw TypeError, or were accepted.
@example((SchemeSpec, [[]]))  # so build(SchemeSpec([])) and predict(...) cannot happen
@example((weight, [None]))
@example((weight, [5]))
@example((ColumnIndexSet, [None, 2, 1, 2]))
@example((ColumnIndexSet, [(), "a", 1, 2]))
@example((check_mds, [None, 2, 1]))
@example((CachingInstance, [3, EXAMPLE_PDA_4x6, 0]))
@example((Pda, [((1,),), 5]))
@example((Pda, [((0.5,),)]))
@example((Pda, [(("a",),)]))
@example((Pda, [((-1,),)]))
@example((Pda, [((True,),)]))
@example((Pda, [((0,),), {0: "junk"}]))
@example((Pda, [((0,),), None, {"a": {1}}]))
@example((Pda, [((0,),), None, {1: (2, 3)}]))
@example((Pda, [((0,),), {7: ((1,), 0)}]))
@example((Pda, [((0,),), {"0": ((1,), 0)}]))
@example((Pda, [((0,),), Labels(lambda: 5)]))
@settings(max_examples=1200, deadline=None)
def test_every_call_returns_or_raises_a_pdacache_error(call):
    """A Pda that a call returns must also write text that from_json loads
    back equal, so a Pda accepted with a cell, label or meta it cannot carry
    fails."""
    f, args = call
    try:
        result = f(*args)
    except PdacacheError:
        return
    if isinstance(result, Pda):
        assert Pda.from_json(result.to_json()) == result
