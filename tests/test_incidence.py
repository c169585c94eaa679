import json
from itertools import combinations, product
from math import comb

import pytest

from harbourne.criteria import MODES, apply_all
from harbourne.incidence import (
    CliquePartition,
    SearchBudgetExceeded,
    _representable_degrees,
    feasible_arrangement,
    validate_partition,
)
from harbourne.tspace import TVector, enumerate_tvectors


def tv(d, counts):
    return TVector.from_mapping(d, counts)


def cover_histograms(d):
    """Brute-force enumeration of all clique partitions of the pairs of K_d.

    Independent of the production search: picks the lexicographically first
    uncovered pair and tries every clique (= superset of the pair) whose
    pairs are all still uncovered.  Returns the achievable size histograms.
    """
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    hists = set()
    covered = set()
    sizes = []

    def search():
        rest = [p for p in pairs if p not in covered]
        if not rest:
            h = [0] * (d + 1)
            for s in sizes:
                h[s] += 1
            hists.add(tuple(h[2:]))
            return
        i, j = rest[0]
        others = [x for x in range(d) if x not in (i, j)]
        for r in range(len(others) + 1):
            for extra in combinations(others, r):
                clique = (i, j) + extra
                cpairs = [
                    (min(a, b), max(a, b))
                    for ai, a in enumerate(clique)
                    for b in clique[ai + 1 :]
                ]
                if any(p in covered for p in cpairs):
                    continue
                covered.update(cpairs)
                sizes.append(len(clique))
                search()
                sizes.pop()
                covered.difference_update(cpairs)

    search()
    return hists


def fano_partition():
    triples = [
        (0, 1, 2),
        (0, 3, 4),
        (0, 5, 6),
        (1, 3, 5),
        (1, 4, 6),
        (2, 3, 6),
        (2, 4, 5),
    ]
    return CliquePartition(7, tuple(triples))


def test_pencil_is_single_clique():
    out = feasible_arrangement(tv(3, {3: 1}))
    assert out.feasible
    assert out.witness.points == ((0, 1, 2),)
    assert out.nodes_explored == 2


def test_two_triple_points_on_four_lines_infeasible():
    out = feasible_arrangement(tv(4, {3: 2}))
    assert not out.feasible
    assert out.nodes_explored == 0


def test_fano_vector_feasible():
    out = feasible_arrangement(tv(7, {3: 7}))
    assert out.feasible
    assert validate_partition(out.witness, tv(7, {3: 7}))
    # witness is a Steiner triple system: 7 triples covering all 21 pairs
    assert len(out.witness.points) == 7
    assert out.nodes_explored == 14


def test_d10_seven_fourfold_points_infeasible():
    out = feasible_arrangement(tv(10, {3: 1, 4: 7}))
    assert not out.feasible
    assert out.nodes_explored == 3


def test_d10_three_lines_of_three_fourfold_points_infeasible():
    # the point_pairs filter excludes this T; the exhaustive proof stays here
    out = feasible_arrangement(tv(10, {3: 7, 4: 4}))
    assert not out.feasible
    assert out.nodes_explored == 97


def test_validate_fano_partition():
    assert validate_partition(fano_partition(), tv(7, {3: 7}))


def test_validate_rejects_doubly_covered_pair():
    broken = CliquePartition(7, fano_partition().points + ((0, 1),))
    assert not validate_partition(broken, tv(7, {3: 7}))


def test_validate_rejects_cliques_sharing_two_lines():
    # (0, 1, 2) and (0, 1, 3) share lines 0 and 1, so both cover the pair (0, 1)
    shared = CliquePartition(4, ((0, 1, 2), (0, 1, 3), (2, 3)))
    assert not validate_partition(shared, tv(4, {2: 1, 3: 2}))


def test_validate_rejects_wrong_histogram():
    assert not validate_partition(fano_partition(), tv(7, {2: 14, 3: 0, 4: 0, 5: 0, 6: 1}))


def test_roundtrip_witness_validates():
    vector = tv(10, {3: 9, 4: 3})
    out = feasible_arrangement(vector)
    assert out.feasible
    assert validate_partition(out.witness, vector)
    assert out.nodes_explored == 28


def test_per_line_parity_on_witnesses():
    for vector in (tv(7, {3: 7}), tv(9, {3: 12}), tv(10, {3: 9, 4: 3}), tv(8, {2: 4, 3: 6, 4: 1})):
        out = feasible_arrangement(vector)
        assert out.feasible
        for line in range(vector.d):
            total = sum(len(c) - 1 for c in out.witness.points if line in c)
            assert total == vector.d - 1


def test_witness_deterministic():
    first = feasible_arrangement(tv(9, {3: 12}))
    second = feasible_arrangement(tv(9, {3: 12}))
    assert first.witness == second.witness
    assert first.nodes_explored == second.nodes_explored == 41


def test_search_deeper_than_the_python_stack():
    # 60 lines in general position: one tree level per pair, 1,770 deep;
    # the only clique partition is every pair on its own
    vector = tv(60, {2: comb(60, 2)})
    outcome = feasible_arrangement(vector)
    assert outcome.nodes_explored == 1770
    assert outcome.witness.points == tuple(combinations(range(60), 2))
    assert validate_partition(outcome.witness, vector)


def test_representable_degrees_match_brute_force_subset_sums():
    """Bit d - v is set iff v <= d-1 is a sum of (k-1)*a_k with 0 <= a_k <= t_k, for every T at d <= 10."""
    assert _representable_degrees(tv(7, {3: 7})) == 0b10101010
    for d in range(2, 11):
        for vector in enumerate_tvectors(d):
            totals = {
                sum(part * a for part, a in enumerate(choice, 1))
                for choice in product(*(range(t + 1) for t in vector.counts))
            }
            assert _representable_degrees(vector) == sum(1 << d - v for v in totals if v < d), vector


def test_budget_exhaustion_raises():
    with pytest.raises(SearchBudgetExceeded) as excinfo:
        feasible_arrangement(tv(9, {3: 12}), node_budget=3)
    assert excinfo.value.nodes == 4


@pytest.mark.parametrize(
    "vector, nodes, feasible",
    [(tv(9, {3: 12}), 41, True), (tv(10, {3: 7, 4: 4}), 97, False)],
    ids=["dual-hesse-witness", "d10-exhausted"],
)
def test_budget_boundary_is_exact(vector, nodes, feasible):
    """A budget of exactly the tree's nodes decides; one fewer raises after that many nodes."""
    outcome = feasible_arrangement(vector, node_budget=nodes)
    assert (outcome.feasible, outcome.nodes_explored) == (feasible, nodes)
    with pytest.raises(SearchBudgetExceeded) as excinfo:
        feasible_arrangement(vector, node_budget=nodes - 1)
    assert excinfo.value.nodes == nodes


def test_negative_budget_is_refused_before_searching():
    with pytest.raises(ValueError, match="node budget must be non-negative, got -1"):
        feasible_arrangement(tv(3, {3: 1}), node_budget=-1)


def test_rejects_non_solution_vector():
    with pytest.raises(ValueError):
        feasible_arrangement(TVector(5, (9, 0, 0, 0)))


def test_partition_json_roundtrip():
    """The wire form `harbourne feasible` prints: d and the sorted cliques as lists."""
    data = json.loads(json.dumps(fano_partition().to_json()))
    assert data == {
        "d": 7,
        "points": [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6], [2, 3, 6], [2, 4, 5]],
    }


@pytest.mark.parametrize("d", range(2, 7))
def test_feasibility_matches_brute_force(d):
    achievable = cover_histograms(d)
    for vector in enumerate_tvectors(d):
        expected = vector.counts in achievable
        assert feasible_arrangement(vector).feasible is expected, vector


# every combinatorially infeasible T-vector with d <= 8, by d; every other solution
# is feasible.  The exact-cover oracle in test_exact_cover_oracle.py, which shares
# no code with the incidence search, decides the same.
INFEASIBLE_UP_TO_EIGHT_LINES = {
    4: {"0,2,0"},
    5: {"1,1,1,0", "1,3,0,0"},
    6: {"0,1,2,0,0", "0,3,1,0,0", "0,5,0,0,0", "2,1,0,1,0", "3,0,2,0,0", "3,2,1,0,0"},
    7: {
        "0,0,1,0,1,0", "0,1,3,0,0,0", "0,2,0,0,1,0", "0,3,2,0,0,0", "0,5,1,0,0,0",
        "1,0,0,2,0,0", "2,1,1,1,0,0", "2,3,0,1,0,0", "3,0,3,0,0,0", "3,1,0,0,1,0",
        "3,2,2,0,0,0", "3,4,1,0,0,0", "5,0,1,1,0,0", "5,2,0,1,0,0", "6,1,2,0,0,0",
    },
    8: {
        "0,0,3,1,0,0,0", "0,1,0,1,1,0,0", "0,2,2,1,0,0,0", "0,4,1,1,0,0,0", "0,6,0,1,0,0,0",
        "1,0,1,0,0,1,0", "1,0,2,0,1,0,0", "1,1,4,0,0,0,0", "1,2,0,0,0,1,0", "1,2,1,0,1,0,0",
        "1,3,3,0,0,0,0", "1,4,0,0,1,0,0", "1,5,2,0,0,0,0", "1,7,1,0,0,0,0", "1,9,0,0,0,0,0",
        "10,0,3,0,0,0,0", "2,0,1,2,0,0,0", "2,2,0,2,0,0,0", "3,0,0,1,1,0,0", "3,1,2,1,0,0,0",
        "3,3,1,1,0,0,0", "3,5,0,1,0,0,0", "4,0,4,0,0,0,0", "4,1,0,0,0,1,0", "4,1,1,0,1,0,0",
        "4,2,3,0,0,0,0", "4,3,0,0,1,0,0", "4,4,2,0,0,0,0", "5,1,0,2,0,0,0", "6,0,2,1,0,0,0",
        "6,2,1,1,0,0,0", "6,4,0,1,0,0,0", "7,0,1,0,1,0,0", "7,1,3,0,0,0,0", "7,2,0,0,1,0,0",
        "8,0,0,2,0,0,0", "9,1,1,1,0,0,0",
    },
}


def test_exhaustive_verdicts_up_to_eight_lines():
    infeasible = {
        d: {v.encode() for v in enumerate_tvectors(d) if not feasible_arrangement(v).feasible}
        for d in range(2, 9)
    }
    assert {d: found for d, found in infeasible.items() if found} == INFEASIBLE_UP_TO_EIGHT_LINES


def test_every_filter_survivor_has_a_witness_within_budget():
    # at d <= 10 surviving the counting filters and being combinatorially feasible coincide
    survivors = {
        vector
        for d in range(2, 11)
        for vector in enumerate_tvectors(d)
        for mode in MODES
        if not apply_all(vector, mode).is_excluded
    }
    assert len(survivors) == 228
    for vector in sorted(survivors, key=lambda v: (v.d, v.counts)):
        out = feasible_arrangement(vector, node_budget=10_000)
        assert out.feasible, vector
        assert validate_partition(out.witness, vector), vector


def test_pair_conservation_in_witnesses():
    for vector in (tv(7, {3: 7}), tv(10, {2: 3, 3: 10, 4: 2})):
        out = feasible_arrangement(vector)
        covered = sum(comb(len(c), 2) for c in out.witness.points)
        assert covered == comb(vector.d, 2)


def test_agreement_with_geometric_realizations():
    """The clique partition induced by a found configuration validates against its T."""
    from harbourne.geometry import Certificate, FieldDescriptor, realize_over_prime_field
    from normal_forms import configuration_from_certificate, incident, tvector_of_configuration

    for d, counts, p in [(7, {3: 7}, 2), (9, {3: 12}, 3), (10, {3: 9, 4: 3}, 3)]:
        outcome = realize_over_prime_field(tv(d, counts), p)
        config = configuration_from_certificate(
            Certificate("found", FieldDescriptor.prime(p), outcome.lines)
        )
        induced = CliquePartition(
            d,
            tuple(
                tuple(i for i, line in enumerate(config.lines) if incident(line, pt))
                for pt in config.singular_points()
            ),
        )
        assert validate_partition(induced, tvector_of_configuration(config))
