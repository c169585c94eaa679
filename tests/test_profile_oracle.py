"""Brute-force oracle for the line-profile stage of the filters.

The profiles, their mixes and the point-pair budgets are rebuilt here from
their definitions, by listing every candidate and keeping those that fit;
nothing but the functions under test and ``enumerate_tvectors`` comes from
the package.

* A profile of T is a count c_k of k-fold points on one line, for each k
  with t_k > 0, such that c_k <= t_k and sum c_k (k - 1) = d - 1.  The
  profiles are listed in descending lexicographic order (by c_d first).
* A mix gives each profile P a number of lines x_P >= 0 with sum x_P = d
  and sum_P x_P c_k(P) = k t_k for every k.  The first mix is the one found
  when the profiles are sorted by their distance sum_k (d c_k - k t_k)^2
  (ties in profile order) and each x_P is tried largest-first: the
  lexicographically largest mix in that order.
* A mix fits the point-pair budgets when its lines join at most C(t_k, 2)
  pairs of k-fold points and t_j t_k pairs of a j- and a k-fold point.
"""

import hashlib
import json
from itertools import combinations, product

import pytest

from harbourne.criteria import _line_profiles, _point_pairs, _profile_mix
from harbourne.tspace import enumerate_tvectors

TVECTORS = {d: enumerate_tvectors(d) for d in range(2, 11)}


def profiles(vector):
    """(ks, profiles): the multiplicities present, descending, and every profile."""
    d, t = vector.d, vector.counts
    ks = [k for k in range(d, 1, -1) if t[k - 2]]
    ranges = [range(min(t[k - 2], (d - 1) // (k - 1)) + 1) for k in ks]
    found = [c for c in product(*ranges) if sum(x * (k - 1) for x, k in zip(c, ks)) == d - 1]
    return ks, sorted(found, reverse=True)


def compositions(n, parts):
    """Every tuple of ``parts`` non-negative ints that sum to n (stars and bars)."""
    for bars in combinations(range(n + parts - 1), parts - 1):
        edges = (-1, *bars, n + parts - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def mixes(vector):
    """(ks, profiles, every mix meeting the incidence totals, in profile order)."""
    ks, found = profiles(vector)
    totals = [k * vector.counts[k - 2] for k in ks]
    if not found:
        return ks, found, []
    meets = [
        x
        for x in compositions(vector.d, len(found))
        if all(sum(n * c[a] for n, c in zip(x, found)) == totals[a] for a in range(len(ks)))
    ]
    return ks, found, meets


def first_mix(vector):
    ks, found, meets = mixes(vector)
    if not meets:
        return None
    totals = [k * vector.counts[k - 2] for k in ks]
    distance = [sum((vector.d * c - t) ** 2 for c, t in zip(vec, totals)) for vec in found]
    order = sorted(range(len(found)), key=lambda i: distance[i])  # stable: ties keep profile order
    return max(meets, key=lambda x: [x[i] for i in order])


def fits_pair_budgets(vector, ks, found, x):
    t = [vector.counts[k - 2] for k in ks]
    for a in range(len(ks)):
        for b in range(a, len(ks)):
            if a == b:
                joined = sum(n * c[a] * (c[a] - 1) // 2 for n, c in zip(x, found))
                available = t[a] * (t[a] - 1) // 2
            else:
                joined = sum(n * c[a] * c[b] for n, c in zip(x, found))
                available = t[a] * t[b]
            if joined > available:
                return False
    return True


def small(max_d):
    return [vector for d in range(2, max_d + 1) for vector in TVECTORS[d]]


@pytest.mark.parametrize("d", range(2, 11))
def test_line_profiles_are_every_profile_in_descending_order(d):
    for vector in TVECTORS[d]:
        assert _line_profiles(vector) == profiles(vector), vector


def test_first_mix_is_the_largest_in_distance_order_up_to_eight_lines():
    found = reordered = 0
    for vector in small(8):
        ks, counts = _line_profiles(vector)
        expected = first_mix(vector)
        assert _profile_mix(vector, ks, counts) == expected, vector
        if expected is not None:
            found += 1
            # the distance order decides: the largest mix in profile order is another one
            reordered += expected != max(mixes(vector)[2])
    assert (found, reordered) == (90, 42)  # of 127 T


def test_point_pairs_exclude_exactly_when_no_mix_fits_up_to_eight_lines():
    excluded = 0
    for vector in small(8):
        ks, found, meets = mixes(vector)
        expected = bool(meets) and not any(fits_pair_budgets(vector, ks, found, x) for x in meets)
        # the row runs on the first mix, where one exists
        rows = _line_profiles(vector)
        first = _profile_mix(vector, *rows)
        assert (first is not None and _point_pairs(vector, *rows, first) is not None) is expected, vector
        excluded += expected
    assert excluded == 24


def test_profile_mix_up_to_ten_lines_is_pinned():
    record = []
    for vector in small(10):
        ks, counts = _line_profiles(vector)
        mix = _profile_mix(vector, ks, counts)
        record.append([vector.d, vector.encode(), None if mix is None else list(mix)])
    assert len(record) == 563
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    assert digest == "e84f6f3c2d7ad85c1f55db000e6e76199a0d8126f8833da35ce2ab005fbfe6b4"
