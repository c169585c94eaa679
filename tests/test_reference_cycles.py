"""The searches leave no reference cycles behind.

The enumerator, the realization search, the filters' line-profile walks
and the incidence search keep their state in local lists.  A nested
function that referred to itself, or any other cycle through that
state, would hold it after every call until the cyclic GC runs.
"""

import gc

import pytest

from harbourne.criteria import MODE_ABSOLUTE, apply_all
from harbourne.geometry import realize_over_prime_field
from harbourne.incidence import SearchBudgetExceeded, feasible_arrangement
from harbourne.tspace import TVector, _sorted_tspace, enumerate_tvectors

HESSE = TVector.from_mapping(9, {3: 12})


def _budget_exceeded():
    with pytest.raises(SearchBudgetExceeded):
        feasible_arrangement(HESSE, node_budget=2)


CALLS = {
    "enumerate_tvectors": lambda: enumerate_tvectors(8),
    # the enumerator caches its result, so its builder is called past the cache
    "tspace-build": lambda: _sorted_tspace.__wrapped__(8),
    # line profiles and their first mix (criteria._line_profiles, criteria._first_mix)
    "apply_all": lambda: apply_all(HESSE, MODE_ABSOLUTE),
    "feasible_arrangement": lambda: feasible_arrangement(HESSE),
    "feasible_arrangement-budget": _budget_exceeded,
    "realize_over_prime_field": lambda: realize_over_prime_field(HESSE, 3),
    "realize_over_prime_field-budget": lambda: realize_over_prime_field(HESSE, 3, node_budget=2),
}


@pytest.mark.parametrize("name", CALLS)
def test_one_call_leaves_no_cyclic_garbage(name):
    call = CALLS[name]
    call()  # warm caches
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # with the collector off, everything the call allocates stays in generation 0
        gc.collect(0)
        call()
        assert gc.collect(0) == 0
    finally:
        if was_enabled:
            gc.enable()
