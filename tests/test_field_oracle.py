"""All-subsets oracle for the realization search over F_2 and F_3.

PG(2, 2) has 7 lines and PG(2, 3) has 13, so every subset of lines can be
listed (127 and 8,191 subsets with at least one line).  The T-vectors of
those subsets are exactly the T realizable over the field.  The plane, its
incidences and the T of a subset are built here from scratch; nothing but
``enumerate_tvectors`` and the search under test comes from the package.
"""

from collections import Counter
from functools import cache
from itertools import product

import pytest

from harbourne.geometry import realize_over_prime_field
from harbourne.tspace import TVector, enumerate_tvectors


def plane(p):
    """Normalized points of PG(2, p): the first nonzero coordinate is 1."""
    points = set()
    for v in product(range(p), repeat=3):
        lead = next((x for x in v if x), 0)
        if lead:
            inverse = pow(lead, -1, p)
            points.add(tuple(x * inverse % p for x in v))
    return sorted(points)


def tvector_of(p, lines):
    """T of a set of lines in PG(2, p), by counting the lines through every point."""
    mults = Counter()
    for point in plane(p):
        through = sum(1 for line in lines if sum(a * x for a, x in zip(line, point)) % p == 0)
        if through >= 2:
            mults[through] += 1
    return TVector.from_mapping(len(lines), dict(mults))


@cache
def realizable(p):
    """The T of every subset of at least two lines of PG(2, p), by brute force over bitmasks."""
    points = lines = plane(p)
    # through[j]: the lines through point j, one bit per line
    through = [
        sum(1 << i for i, line in enumerate(lines) if sum(a * x for a, x in zip(line, point)) % p == 0)
        for point in points
    ]
    found = set()
    for subset in range(1, 1 << len(lines)):
        d = bin(subset).count("1")
        if d < 2:
            continue
        mults = Counter(bin(mask & subset).count("1") for mask in through)
        found.add(TVector.from_mapping(d, {k: n for k, n in mults.items() if k >= 2}))
    return found


def test_plane_sizes():
    assert [len(plane(p)) for p in (2, 3)] == [7, 13]
    assert tvector_of(2, plane(2)) == TVector.from_mapping(7, {3: 7})


@pytest.mark.parametrize("p, max_d", [(2, 7), (3, 10)])
def test_search_finds_exactly_the_subset_tvectors(p, max_d):
    expected = {tv for tv in realizable(p) if tv.d <= max_d}
    found = set()
    for d in range(2, max_d + 1):
        for tv in enumerate_tvectors(d):
            outcome = realize_over_prime_field(tv, p)
            assert outcome.exhausted, tv  # no budget hit: the verdict is a proof
            if outcome.found:
                assert len(set(outcome.lines)) == d
                assert tvector_of(p, outcome.lines) == tv
                found.add(tv)
    assert found == expected
