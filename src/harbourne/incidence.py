"""Abstract realizability of a T-vector as a clique partition of K_d.

Dual view: lines become vertices 0..d-1 and each singular point becomes
the clique of lines through it.  A T-vector is combinatorially feasible
iff the edge set of K_d can be partitioned into cliques whose size
multiset is exactly the one T prescribes (t_k cliques of size k).

The search pre-allocates one fixed-size slot per point and assigns line
pairs to slots in lexicographic order.  An uncovered pair either joins a
slot already containing its first line or seeds the first empty slot of
some size (identical empty slots are interchangeable).  The state is
one int bitmask of lines per slot, the slots of each line in joining
order, and each line's committed degree.  Every join and unjoin also
keeps four summaries current, so no node rescans the state:

* ``met[line]``, the other lines sharing a slot with it; a pair (i, j)
  is covered iff ``met[i]`` has bit j.  Unjoining clears the bits of the
  slot's other members exactly: two cliques share at most one line, so
  the line met each of them in this slot only;
* ``partial``, a bitmask of the slots with 0 < fill < size, the only
  slots the completability check visits;
* ``unseeded[k]``, the number of empty slots of size k.  Slots of one
  size form a block, seeding takes the block's first empty slot and
  unseeding is last in, first out, so the empty ones are the block's
  tail and the next seed is ``block_end[k] - unseeded[k]``;
* ``allowed[line]``, bit k set iff the line may still join a slot of size
  k under the degree and share prunes below, so candidates, seeding and
  the completability check each test one bit.

Set-up is one pass over the sizes T has: it lays out the slot blocks
and the per-size share masks, and the per-degree masks are shifts of
one reversed bitmask of the representable degrees.  A partition found is
read off the slots already in normal form (``_witness``), with no sort.

Isomorph rejection (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26 (1998)) works stage by stage, where stage i is the pairs
(i, .).  Every member of a clique joins its slot during the stage of the
clique's smallest line, so the state at the start of stage i is exactly
the set of cliques whose smallest line is below i.  Lines j-1 and j, both
greater than i, are *twins* at stage i when swapping them maps that set
onto itself.  Rule: for a twin j, the pair (i, j) may only join a slot of
i that comes no earlier in ``line_slots[i]`` than the slot holding j-1;
seeding a new slot is always allowed.  At stage 0 every j >= 2 is a twin.
j stays a twin at stage s iff it was one at stage s-1 and, for line s-1,
either j-1 and j share a slot or they sit in two slots holding exactly
{s-1, j-1} and {s-1, j}, of equal size; so twins are updated once per
stage entry with a few bit operations per slot of line s-1.

Soundness: take any partition P that obeys the rule before stage i.  Each
run of consecutive twins R = {a, ..., b} at stage i generates the
symmetric group on R, and every permutation of R fixes the state at the
start of stage i, so a relabelled P takes the same path up to that stage.
The slots of i are ordered by the smallest line they hold besides i, and
a slot that existed before stage i holds all of R or none of it (an
automorphism fixing i fixes each such slot).  Relabel R so that its lines
in slots of i that already exist when (i, a) is reached come first,
sorted by slot position, followed by its lines in new slots, slot by slot
in seeding order.  Then along R no line's slot precedes its twin's.  Do
this run by run from the left (a later run moves no slot key of an
earlier one) and stage by stage: the result is a partition with the same
T that the pruned tree visits.  So a partition exists iff the pruned tree
finds one.

Line 0's rule is the stage-0 case plus non-increasing sizes: its slots
are consecutive blocks, and a new one is seeded, no larger than the
latest, only once the latest is full; relabelling lines 1..d-1 sorts any
partition's star of line 0 that way.  Pruning:

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

from collections.abc import Iterator
from functools import cache
from math import comb

from ._value import Value
from .tspace import TVector, require_solution

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


class SearchOutcome(Value):
    """A finished search: ``witness`` is a clique partition with T, or None after the whole tree."""

    __slots__ = ("witness", "nodes_explored")

    @property
    def feasible(self) -> bool:
        return self.witness is not None


def validate_partition(partition: CliquePartition, tv: TVector) -> bool:
    """Independent witness checker: pair-exactness and size counts.

    Two cliques sharing lines a and b would both cover the pair (a, b), so
    pair-exactness also rules out cliques meeting in more than one line.
    """
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
    return True


def resolve_node_budget(node_budget: int | None) -> int:
    """The budget a search runs with: DEFAULT_NODE_BUDGET for None; negative is a ValueError."""
    if node_budget is None:
        return DEFAULT_NODE_BUDGET
    if node_budget < 0:
        raise ValueError(f"node budget must be non-negative, got {node_budget}")
    return node_budget


def _representable_degrees(tv: TVector) -> int:
    """Bitmask of the totals sum (k-1)*a_k with 0 <= a_k <= t_k up to d-1: bit d - v for total v.

    Reversed, so that bit c + k is set iff a line of committed degree c
    that joins a slot of size k leaves a representable remainder d - c - k.
    """
    d = tv.d
    limit = d - 1
    reachable = 1 << d
    for part, count in enumerate(tv.counts, 1):
        if count:
            for _ in range(min(count, limit // part)):
                reachable |= reachable >> part
    return reachable & ~1  # bit 0 would be the total d


@cache
def _pairs(d: int) -> tuple[tuple[int, int], ...]:
    """The pairs (i, j) of lines i < j < d in lexicographic order, the order the search covers them."""
    return tuple((i, j) for i in range(d) for j in range(i + 1, d))


def _witness(d: int, slot_lines: list[int], line_slots: list[list[int]]) -> CliquePartition:
    """The clique partition of a finished search, read off in normal form without sorting.

    Two cliques share at most one line, so the normal order is that of
    each clique's two smallest lines.  A line seeds a slot only at its own
    stage, after every slot it joins, and seeds them in the order of their
    second smallest line, so ``line_slots[i]`` ends with the slots whose
    smallest line is i, already in that order.
    """
    points = []
    for line, slots in enumerate(line_slots):
        below = (1 << line) - 1
        for slot in slots:
            rest = slot_lines[slot]
            if not rest & below:
                clique = []
                while rest:
                    low = rest & -rest
                    clique.append(low.bit_length() - 1)
                    rest ^= low
                points.append(tuple(clique))
    partition = object.__new__(CliquePartition)
    object.__setattr__(partition, "d", d)
    object.__setattr__(partition, "points", tuple(points))
    return partition


def feasible_arrangement(tv: TVector, node_budget: int | None = None) -> SearchOutcome:
    """Decide whether T admits a clique partition of K_d; exhaustive search.

    Returns an outcome with a witness, or without one once the whole tree
    is exhausted.  Raises :class:`SearchBudgetExceeded` when the node
    budget runs out, so an unfinished search is never mistaken for a
    proof of infeasibility.
    """
    budget = resolve_node_budget(node_budget)
    require_solution(tv)
    d = tv.d
    counts = tv.counts
    n_slots = s = sum(counts)

    # One pass over the sizes T has, largest first.  The slots of one size
    # form a block whose empty slots are its last unseeded[size].
    # allowed[line] is deg_ok[committed[line]], the sizes that keep the
    # remaining degree representable, ANDed with share_mask[k] for each
    # size-k slot of the line, the sizes k' with (k-1)(k'-1) + 2 <= s;
    # shares[line] stacks that AND.
    sizes: list[int] = []  # slot sizes, descending
    seed_sizes: list[int] = []  # the sizes T has, descending
    seeds = 0  # the same as a bitmask
    block_end = [0] * (d + 1)
    unseeded = [0] * (d + 1)
    share_mask = [0] * (d + 1)
    size = d
    for count in reversed(counts):
        if count:
            sizes += [size] * count
            seed_sizes.append(size)
            seeds |= 1 << size
            block_end[size] = len(sizes)
            unseeded[size] = count
            share_mask[size] = (2 << min(d, (s - 2) // (size - 1) + 1)) - 1
        size -= 1
    degrees = _representable_degrees(tv)
    deg_ok = [degrees >> c & seeds for c in range(d)]
    slot_lines = [0] * n_slots  # bitmask of the lines in each slot
    line_slots: list[list[int]] = [[] for _ in range(d)]  # in joining order
    committed = [0] * d  # sum (size - 1) over slots containing the line
    met = [0] * d  # bitmask of the other lines sharing a slot with the line
    partial = 0  # bitmask of the slots with 0 < fill < size
    all_lines = (1 << d) - 1
    shares = [[-1] for _ in range(d)]
    allowed = [deg_ok[0]] * d

    pairs = _pairs(d)
    nodes = 0
    # twins[i]: bit j set iff lines j-1 and j are twins at stage i (see the module docstring)
    twins = [0] * d
    twins[0] = (1 << d) - 4

    def split_twins(line: int) -> None:
        # stage line+1 keeps the twins of stage `line` that line's slots do not tell apart
        shared = pairs_of_two = 0
        for slot in line_slots[line]:
            mask = slot_lines[slot]
            shared |= mask & mask >> 1  # bit x: x and x+1 share this slot
            if sizes[slot] == 2:
                pairs_of_two |= mask
        pairs_of_two &= ~(1 << line)  # the partners of line in its slots {line, x}
        kept = (shared | pairs_of_two & pairs_of_two >> 1) << 1
        twins[line + 1] = twins[line] & kept & ~(1 << (line + 2))

    # Depth-first over the candidates of each node, on an explicit stack so
    # that the tree's depth (up to one level per pair) is not bounded by
    # Python's recursion limit.  A node is the pair pointer ptr and the stage
    # of the last pair placed; twins[stage] is current on entering it.  The
    # stack holds each ancestor's pointer, pair, the iterator over its
    # remaining candidates, and whether the candidate it is trying was seeded.
    n_pairs = len(pairs)
    stack: list[tuple[int, int, int, Iterator[int], bool]] = []
    ptr = stage = 0
    while True:
        while ptr < n_pairs:
            i, j = pairs[ptr]
            if not met[i] >> j & 1:
                break
            ptr += 1
        if ptr == n_pairs:
            return SearchOutcome(_witness(d, slot_lines, line_slots), nodes)
        while stage < i:
            split_twins(stage)
            stage += 1

        slots_of_i = line_slots[i]
        if twins[i] >> j & 1:
            # j joins no slot of i earlier than the one holding its twin j-1
            twin_bit = 1 << (j - 1)
            first = 0
            while not slot_lines[slots_of_i[first]] & twin_bit:
                first += 1
            slots_of_i = slots_of_i[first:]
        candidates: list[int] = []
        allowed_j = allowed[j]
        for slot in slots_of_i:
            if partial >> slot & 1 and not met[j] & slot_lines[slot] and allowed_j >> sizes[slot] & 1:
                candidates.append(slot)
        largest_seed = d
        if i == 0 and line_slots[0]:
            # line 0's slots are consecutive blocks: seed one no larger, once the latest is full
            latest = line_slots[0][-1]
            largest_seed = 0 if partial >> latest & 1 else sizes[latest]
        seedable = allowed[i] & allowed_j & (2 << largest_seed) - 1
        for size in seed_sizes:
            left = unseeded[size]
            if left and seedable >> size & 1:
                candidates.append(block_end[size] - left)  # the first empty slot of this size

        # try the candidates in order; when they run out, return to the parent
        options = iter(candidates)
        while True:
            slot = next(options, None)
            if slot is None:
                if not stack:
                    return SearchOutcome(None, nodes)  # the whole tree is exhausted
                ptr, i, j, options, seeded = stack.pop()
            else:
                nodes += 1
                if nodes > budget:
                    raise SearchBudgetExceeded(nodes)
                size = sizes[slot]
                members = slot_lines[slot]
                seeded = not members
                if seeded:  # i seeds the slot alone: met, j and the pair (i, j) stay as they were
                    unseeded[size] -= 1
                    members = 1 << i
                    committed[i] += size - 1
                    line_slots[i].append(slot)
                    share = shares[i][-1] & share_mask[size]
                    shares[i].append(share)
                    allowed[i] = deg_ok[committed[i]] & share
                met[j] |= members
                bit = 1 << j
                rest = members
                while rest:
                    low = rest & -rest
                    met[low.bit_length() - 1] |= bit
                    rest ^= low
                members |= bit
                slot_lines[slot] = members
                committed[j] += size - 1
                line_slots[j].append(slot)
                share = shares[j][-1] & share_mask[size]
                shares[j].append(share)
                allowed[j] = deg_ok[committed[j]] & share
                if members.bit_count() < size:
                    partial |= 1 << slot
                else:
                    partial &= ~(1 << slot)
                # every partially filled slot still needs enough joinable lines
                todo = partial
                while todo:
                    low = todo & -todo
                    todo ^= low
                    part = low.bit_length() - 1
                    part_size = sizes[part]
                    members = blocked = slot_lines[part]
                    need = part_size - members.bit_count()
                    while members:  # a line that met a member may not join
                        low = members & -members
                        blocked |= met[low.bit_length() - 1]
                        members ^= low
                    free = all_lines & ~blocked
                    if free.bit_count() >= need:
                        while need and free:
                            low = free & -free
                            if allowed[low.bit_length() - 1] >> part_size & 1:
                                need -= 1
                            free ^= low
                    if need:
                        break
                else:
                    stack.append((ptr, i, j, options, seeded))
                    stage = i
                    break  # enter the child
            # j leaves the slot it joined last, and i too if it seeded it
            slot = line_slots[j].pop()
            size = sizes[slot]
            committed[j] -= size - 1
            shares[j].pop()
            allowed[j] = deg_ok[committed[j]] & shares[j][-1]
            bit = 1 << j
            members = slot_lines[slot] ^ bit
            met[j] &= ~members  # exact: j meets each of them in this slot only
            rest = members
            while rest:
                low = rest & -rest
                met[low.bit_length() - 1] &= ~bit
                rest ^= low
            if seeded:  # i leaves the slot alone, so met does not change
                slot_lines[slot] = 0
                unseeded[size] += 1
                partial &= ~(1 << slot)
                line_slots[i].pop()
                committed[i] -= size - 1
                shares[i].pop()
                allowed[i] = deg_ok[committed[i]] & shares[i][-1]
            else:
                slot_lines[slot] = members
                partial |= 1 << slot
