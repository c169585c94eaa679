"""Independent oracle for the incidence search's verdicts: exact cover of the pairs of K_d.

A T-vector is combinatorially feasible iff the C(d, 2) pairs of K_d can be
covered, each exactly once, by cliques of which t_k have size k.  That is
an exact cover problem (Knuth, "Dancing links", Millennial Perspectives in
Computer Science, 2000): the columns are the pairs, the rows are the
cliques, and the search always branches on the uncovered pair with the
fewest live rows.  A row is live while none of its pairs is covered and
its size has copies left.  The live rows are one int bitmask, so choosing
a row drops every row that shares a pair with it in one AND.

The only symmetry used is line 0's star: relabelling lines 1..d-1 turns
the cliques through line 0 of any partition into consecutive blocks
{0, 1, ...}, {0, ...}, ... of non-increasing size, so the search starts
from each such star in turn.  The oracle takes nothing but
``enumerate_tvectors`` from the package; only the d = 9 test below
calls the incidence search, to compare verdicts.
"""

from functools import cache
from itertools import combinations

from harbourne.incidence import feasible_arrangement
from harbourne.tspace import enumerate_tvectors
from test_incidence import INFEASIBLE_UP_TO_EIGHT_LINES


@cache
def cliques(d):
    """Every clique of K_d as a row of bitmask tables: (index, sizes, masks, in_column, conflicts).

    index maps a clique (a sorted tuple of lines) to its row r; sizes[r]
    and masks[r] are its size and the pair columns it covers; in_column[c]
    is the rows covering pair c, and conflicts[r] the rows sharing a pair
    with row r, r itself included.
    """
    column = {pair: c for c, pair in enumerate(combinations(range(d), 2))}
    index = {clique: r for r, clique in enumerate(c for k in range(2, d + 1) for c in combinations(range(d), k))}
    sizes = [len(clique) for clique in index]
    masks = [sum(1 << column[pair] for pair in combinations(clique, 2)) for clique in index]
    in_column = [0] * len(column)
    for r, clique in enumerate(index):
        for pair in combinations(clique, 2):
            in_column[column[pair]] |= 1 << r
    conflicts = [0] * len(index)
    for r, clique in enumerate(index):
        for pair in combinations(clique, 2):
            conflicts[r] |= in_column[column[pair]]
    return index, sizes, masks, in_column, conflicts


def stars(d, left):
    """Line 0's cliques as consecutive blocks of non-increasing size, at most left[k] of size k."""

    def extend(first, largest):
        if first == d:
            yield ()
            return
        for k in range(min(largest, d - first + 1), 1, -1):
            if left[k]:
                left[k] -= 1
                for rest in extend(first + k - 1, k):
                    yield ((0, *range(first, first + k - 1)), *rest)
                left[k] += 1

    return extend(1, d)


def exact_cover_feasible(vector):
    """True iff the pairs of K_d have an exact cover by cliques with T's size counts."""
    d = vector.d
    index, sizes, masks, in_column, conflicts = cliques(d)
    left = [0, 0, *vector.counts]  # left[k]: cliques of size k still to place
    of_size = [0] * (d + 1)
    for r, k in enumerate(sizes):
        of_size[k] |= 1 << r

    def place(r, live):
        # choose row r: use up one clique of its size (the caller gives it back)
        # and return the rows still live
        k = sizes[r]
        left[k] -= 1
        live &= ~conflicts[r]
        return live if left[k] else live & ~of_size[k]

    def cover(live, uncovered):
        if not uncovered:
            return True
        fewest = None
        todo = uncovered
        while todo:
            low = todo & -todo
            todo ^= low
            options = live & in_column[low.bit_length() - 1]
            if fewest is None or options.bit_count() < fewest.bit_count():
                fewest = options
                if not options:
                    return False
        while fewest:
            low = fewest & -fewest
            fewest ^= low
            r = low.bit_length() - 1
            found = cover(place(r, live), uncovered & ~masks[r])
            left[sizes[r]] += 1
            if found:
                return True
        return False

    for star in stars(d, left[:]):
        rows = [index[clique] for clique in star]
        live = sum(of_size[k] for k in range(2, d + 1) if left[k])
        uncovered = (1 << len(in_column)) - 1
        for r in rows:
            live = place(r, live)
            uncovered &= ~masks[r]
        found = cover(live, uncovered)
        for r in rows:
            left[sizes[r]] += 1
        if found:
            return True
    return False


def infeasible_vectors(d):
    return {vector.encode() for vector in enumerate_tvectors(d) if not exact_cover_feasible(vector)}


def test_exact_cover_verdicts_up_to_eight_lines():
    """The oracle's infeasible T-vectors at d <= 8 are the ones the incidence search is pinned to."""
    infeasible = {d: infeasible_vectors(d) for d in range(2, 9)}
    assert {d: found for d, found in infeasible.items() if found} == INFEASIBLE_UP_TO_EIGHT_LINES


def test_exact_cover_agrees_with_the_incidence_search_at_nine_lines():
    expected = {v.encode() for v in enumerate_tvectors(9) if not feasible_arrangement(v).feasible}
    assert len(expected) == 85
    assert infeasible_vectors(9) == expected
