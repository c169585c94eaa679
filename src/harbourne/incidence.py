"""Abstract realizability of a T-vector as a clique partition of K_d.

Dual view: lines become vertices 0..d-1 and each singular point becomes
the clique of lines through it.  A T-vector is combinatorially feasible
iff the edge set of K_d can be partitioned into cliques whose size
multiset is exactly the one T prescribes (t_k cliques of size k).

The search pre-allocates one fixed-size slot per point and assigns line
pairs to slots in lexicographic order.  An uncovered pair either joins a
slot already containing its first line or seeds the first empty slot of
some size (identical empty slots are interchangeable, which is the
isomorph rejection).  The state is one int bitmask of lines per slot,
the slots of each line in joining order, and each line's committed
degree; a pair (i, j) is covered iff some slot of i has bit j.

The star of line 0 is placed in canonical form: for the pair (0, j), j
may only join line 0's latest slot while that slot is not full, and
otherwise may only seed a slot no larger than it.  This is sound: the
pairs (0, 1), ..., (0, d-1) come first, and until all of them are placed
no line other than 0 has been touched, so lines 1..d-1 are still
interchangeable.  Relabelling them maps any clique partition to one in
which the cliques through line 0, ordered by their smallest other line,
are consecutive blocks 1..k_1-1, k_1..k_1+k_2-2, ... of non-increasing
size; that partition has the same T and its star is the canonical one,
and the search still visits every partition with that star.  So a
partition exists iff one with a canonical star of line 0 does
(isomorph rejection as in McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26 (1998)).  Pruning:

* per-line degree: a line in slots of sizes k_1, k_2, ... eventually has
  sum (k_i - 1) = d - 1, so the committed remainder must stay
  representable as a capped sum of parts (k - 1);
* two slots sharing a line must satisfy (k1 - 1)(k2 - 1) + 2 <= s;
* every partially filled slot must still have enough compatible lines
  left to reach its size.

Infeasible is only ever reported after the canonical tree is exhausted;
running out of node budget raises instead.
"""

from __future__ import annotations

from math import comb

from ._value import Value
from .tspace import TVector, check_combinatorial_identity

DEFAULT_NODE_BUDGET = 10**9


class SearchBudgetExceeded(RuntimeError):
    """Search gave up before exhausting the tree; the answer is unknown."""

    def __init__(self, nodes: int):
        super().__init__(f"node budget exceeded after {nodes} nodes")
        self.nodes = nodes


class CliquePartition(Value):
    """Cliques of line indices covering every pair exactly once."""

    __slots__ = ("d", "points")

    def __init__(self, d: int, points: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "points", tuple(sorted(tuple(sorted(set(p))) for p in points)))

    def to_json(self) -> dict:
        return {"d": self.d, "points": [list(p) for p in self.points]}

    @classmethod
    def from_json(cls, data: dict) -> "CliquePartition":
        return cls(int(data["d"]), tuple(tuple(p) for p in data["points"]))


class SearchOutcome(Value):
    __slots__ = ("feasible", "witness", "nodes_explored", "exhausted")

    def __init__(
        self, feasible: bool, witness: CliquePartition | None, nodes_explored: int, exhausted: bool
    ) -> None:
        if not feasible and not exhausted:
            raise ValueError("infeasibility claims require an exhausted search")
        object.__setattr__(self, "feasible", feasible)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "nodes_explored", nodes_explored)
        object.__setattr__(self, "exhausted", exhausted)


def validate_partition(partition: CliquePartition, tv: TVector) -> bool:
    """Independent witness checker: pair-exactness, size counts, intersections."""
    d = partition.d
    if d != tv.d:
        return False
    seen_pairs: set[tuple[int, int]] = set()
    for clique in partition.points:
        if len(clique) < 2:
            return False
        if any(not 0 <= i < d for i in clique):
            return False
        for a_idx in range(len(clique)):
            for b_idx in range(a_idx + 1, len(clique)):
                pair = (clique[a_idx], clique[b_idx])
                if pair in seen_pairs:
                    return False
                seen_pairs.add(pair)
    if len(seen_pairs) != comb(d, 2):
        return False
    sizes: dict[int, int] = {}
    for clique in partition.points:
        sizes[len(clique)] = sizes.get(len(clique), 0) + 1
    if sizes != {k: tv.t(k) for k in range(2, d + 1) if tv.t(k) > 0}:
        return False
    # pair exactness already forces |A & B| <= 1; assert it independently
    for i in range(len(partition.points)):
        for j in range(i + 1, len(partition.points)):
            if len(set(partition.points[i]) & set(partition.points[j])) > 1:
                return False
    return True


def _representable_degrees(tv: TVector) -> list[bool]:
    """Which totals sum (k-1)*a_k with 0 <= a_k <= t_k can reach, up to d-1."""
    limit = tv.d - 1
    reachable = [False] * (limit + 1)
    reachable[0] = True
    for k in range(2, tv.d + 1):
        count, part = tv.t(k), k - 1
        if count == 0:
            continue
        for _ in range(count):
            for v in range(limit - part, -1, -1):
                if reachable[v]:
                    reachable[v + part] = True
    return reachable


def feasible_arrangement(tv: TVector, node_budget: int | None = None) -> SearchOutcome:
    """Decide whether T admits a clique partition of K_d; exhaustive search.

    Returns a feasible outcome with a witness, or infeasible with
    ``exhausted=True``.  Raises :class:`SearchBudgetExceeded` when the
    node budget runs out, so an unfinished search is never mistaken for
    a proof of infeasibility.
    """
    if not check_combinatorial_identity(tv):
        raise ValueError(f"not a solution of the pair-count identity: {tv}")
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    d, s = tv.d, tv.s

    sizes = tv.multiplicities()  # slot sizes, descending
    n_slots = len(sizes)
    slot_lines = [0] * n_slots  # bitmask of the lines in each slot
    line_slots: list[list[int]] = [[] for _ in range(d)]  # in joining order
    committed = [0] * d  # sum (size - 1) over slots containing the line
    reachable = _representable_degrees(tv)
    max_deg = d - 1

    # two slots may share a line only if (k1-1)(k2-1) + 2 <= s
    share_ok = [[(k1 - 1) * (k2 - 1) + 2 <= s for k2 in range(d + 1)] for k1 in range(d + 1)]

    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    nodes = 0

    def may_join(line: int, slot: int) -> bool:
        size = sizes[slot]
        new_committed = committed[line] + size - 1
        if new_committed > max_deg or not reachable[max_deg - new_committed]:
            return False
        met = 0  # lines already sharing a slot with `line`
        for other in line_slots[line]:
            if not share_ok[size][sizes[other]]:
                return False
            met |= slot_lines[other]
        return not met & slot_lines[slot]

    def join(line: int, slot: int) -> None:
        slot_lines[slot] |= 1 << line
        committed[line] += sizes[slot] - 1
        line_slots[line].append(slot)

    def unjoin(line: int) -> None:
        slot = line_slots[line].pop()
        committed[line] -= sizes[slot] - 1
        slot_lines[slot] &= ~(1 << line)

    def slots_completable() -> bool:
        # every partially filled slot still needs enough joinable lines
        for slot in range(n_slots):
            have = slot_lines[slot].bit_count()
            if have == 0 or have == sizes[slot]:
                continue
            need = sizes[slot] - have
            count = 0
            for line in range(d):
                if slot_lines[slot] >> line & 1:
                    continue
                if may_join(line, slot):
                    count += 1
                    if count >= need:
                        break
            if count < need:
                return False
        return True

    def search(ptr: int) -> CliquePartition | None:
        nonlocal nodes
        while ptr < len(pairs):
            i, j = pairs[ptr]
            met = 0  # lines already sharing a slot with i
            for slot in line_slots[i]:
                met |= slot_lines[slot]
            if not met >> j & 1:
                break
            ptr += 1
        if ptr == len(pairs):
            points = (tuple(line for line in range(d) if mask >> line & 1) for mask in slot_lines)
            return CliquePartition(d, tuple(points))

        candidates: list[int] = []
        for slot in line_slots[i]:
            if slot_lines[slot].bit_count() < sizes[slot] and may_join(j, slot):
                candidates.append(slot)
        largest_seed = d
        if i == 0 and line_slots[0]:
            # canonical star of line 0: fill its latest slot, then seed one no larger
            latest = line_slots[0][-1]
            full = slot_lines[latest].bit_count() == sizes[latest]
            largest_seed = sizes[latest] if full else 0
        seen_sizes: set[int] = set()
        for slot in range(n_slots):
            if slot_lines[slot]:
                continue
            size = sizes[slot]
            if size in seen_sizes or size > largest_seed:
                continue
            seen_sizes.add(size)
            if may_join(i, slot) and may_join(j, slot):
                candidates.append(slot)

        for slot in candidates:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(nodes)
            # seeding with i leaves j's degree, slots and pair (i, j) as they were,
            # so j may still join
            seeded = not slot_lines[slot]
            if seeded:
                join(i, slot)
            join(j, slot)
            if slots_completable():
                witness = search(ptr)
                if witness is not None:
                    return witness
            unjoin(j)
            if seeded:
                unjoin(i)
        return None

    try:
        witness = search(0)
    finally:
        del search  # it refers to itself, so only the cyclic GC would free it and its state
    if witness is None:
        return SearchOutcome(False, None, nodes, True)
    return SearchOutcome(True, witness, nodes, True)
