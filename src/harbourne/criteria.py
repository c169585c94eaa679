"""Necessary-condition filters on candidate T-vectors, and the modes they run in.

Each filter is one row: a private function that checks a counting fact
every line configuration (over any field, except where noted) must
satisfy, and returns an ``ExclusionVerdict`` with a machine-readable
reason if T breaks it, else None:

* ``_multiplicity_sum``: any r singular points span at most d + C(r,2) lines;
* ``_two_pencils``: the two points of highest multiplicity m1, m2 force at
  least (m1-1)(m2-1) + 2 singular points in total;
* ``_parity_profile``: each line meets the other d-1 lines in points whose
  multiplicities m satisfy sum (m-1) = d-1, and the d per-line profiles
  must jointly account for exactly k*t_k incidences at k-fold points;
* ``_hirzebruch``: t_2 + (3/4) t_3 >= d + sum_{k>=5} (k-4) t_k, valid for
  complex configurations of d >= 6 lines with t_d = t_{d-1} = t_{d-2} = 0;
* ``_point_pairs``: two singular points share at most one line (de
  Bruijn-Erdos 1948), so the line profiles must also fit the budgets of
  C(t_k, 2) pairs of k-fold points and t_j * t_k mixed pairs.

A mode is the certificate field kinds it admits (``admitted_kinds``):
absolute mode admits Q, F_p and Q(w), complex mode Q and Q(w) only.  The
Hirzebruch row runs only in a mode that admits no prime field, as the
bound holds over C only.  ``apply_all`` runs the rows in a fixed order.

Filters never prove existence; sufficiency is the incidence module's job.
"""

from __future__ import annotations

from math import gcd

from ._value import Value
from .exactnum import EISENSTEIN, PRIME, RATIONAL
from .tspace import TVector, _require_balanced

MODE_ABSOLUTE = "absolute"
MODE_COMPLEX = "complex"
# each mode is the field kinds whose certificates it admits, in ``exactnum._KINDS`` order
_ADMITTED = {
    MODE_ABSOLUTE: (RATIONAL, PRIME, EISENSTEIN),
    MODE_COMPLEX: (RATIONAL, EISENSTEIN),
}
MODES = tuple(_ADMITTED)


def admitted_kinds(mode: str) -> tuple[str, ...]:
    """The certificate field kinds ``mode`` admits; ValueError for an unknown mode."""
    try:
        return _ADMITTED[mode]
    except KeyError:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}") from None


class ExclusionVerdict(Value):
    """Outcome of one row (only when it excludes) or of ``apply_all`` on a T-vector.

    ``criterion`` names the row that excluded T; ``None`` means T passed.
    """

    __slots__ = ("criterion", "detail")

    def __init__(self, criterion: str | None, detail: str) -> None:
        if criterion is not None and not (criterion and detail):
            raise ValueError("excluded verdicts need a criterion name and a detail witness")
        object.__setattr__(self, "criterion", criterion)
        object.__setattr__(self, "detail", detail)

    @property
    def is_excluded(self) -> bool:
        return self.criterion is not None

    def to_json(self) -> dict:
        status = "passed" if self.criterion is None else "excluded"
        return {"status": status, "criterion": self.criterion, "detail": self.detail}


def _multiplicity_sum(d: int, mults: list[int]) -> ExclusionVerdict | None:
    """Check sum of the r largest multiplicities <= d + C(r,2) for every r.

    Counting lines through r points (each pair of points shares at most
    one line) gives the bound; r = 3 and r = 4 are the classical
    triangular and quadrangle cases.  ``mults`` is T's multiplicities,
    descending.
    """
    running = 0
    for r, m in enumerate(mults, start=1):
        if m < r:
            # from here on each point adds m <= r - 1 to the sum and the bound
            # grows by r - 1, so no larger r can fail
            break
        running += m
        bound = d + r * (r - 1) // 2
        if running > bound:
            top = "+".join(map(str, mults[:r]))
            return ExclusionVerdict(
                "multiplicity_sum",
                f"r={r}: {top} = {running} > {bound} = d + C({r},2)",
            )
    return None


def _two_pencils(mults: list[int]) -> ExclusionVerdict | None:
    """Check (m1-1)(m2-1) + 2 <= s for the two largest multiplicities.

    The two heaviest points each spread a pencil of lines; pairwise
    intersections of the two pencils (away from a possible common line)
    are distinct singular points.  The bound used here is the weaker of
    the two cases (points joined by a configuration line or not), hence
    valid without knowing which case occurs.  ``mults`` is T's
    multiplicities, descending.
    """
    s = len(mults)
    if s < 2:
        return None
    m1, m2 = mults[0], mults[1]
    needed = (m1 - 1) * (m2 - 1) + 2
    if needed > s:
        return ExclusionVerdict(
            "two_pencils",
            f"(m1-1)(m2-1)+2 = ({m1}-1)({m2}-1)+2 = {needed} > s = {s}",
        )
    return None


def _line_profiles(tv: TVector) -> tuple[list[int], list[tuple[int, ...]]]:
    """(ks, counts): the multiplicities present in T, descending, and the admissible profiles.

    A profile lists the multiplicities of the singular points on one line;
    ``counts[i][a]`` is how often ``ks[a]`` occurs in profile i.  Parts are
    multiplicities m >= 2 with t_m > 0; a line meets at most t_m points of
    multiplicity m, and since each m counts the line itself, the parts
    satisfy sum (m-1) = d-1.  The profiles come in descending
    lexicographic order: each count but the last is tried largest-first,
    and the last is whatever d-1 leaves.
    """
    t = tv.counts
    ks = [k for k in range(tv.d, 1, -1) if t[k - 2]]
    counts: list[tuple[int, ...]] = []
    last = len(ks) - 1
    if last < 0:
        return ks, counts
    vec = [0] * len(ks)
    left = [tv.d - 1] * len(ks)  # left[a]: what the parts (m-1) for m in ks[a:] must add up to
    a = 0
    while True:
        while a < last:
            k = ks[a]
            count = min(t[k - 2], left[a] // (k - 1))
            vec[a] = count
            left[a + 1] = left[a] - count * (k - 1)
            a += 1
        count, rest = divmod(left[last], ks[last] - 1)
        if not rest and count <= t[ks[last] - 2]:
            vec[last] = count
            counts.append(tuple(vec))
        # one part fewer for the deepest multiplicity before the last that has any
        a = last - 1
        while a >= 0 and not vec[a]:
            a -= 1
        if a < 0:
            return ks, counts
        vec[a] -= 1
        left[a + 1] += ks[a] - 1
        a += 1


def _shape(ks: list[int], vec: tuple[int, ...]) -> str:
    """The profile with count vector ``vec`` over ``ks``, descending, e.g. "{4,3,3}"."""
    parts: list[str] = []
    for k, c in zip(ks, vec):
        parts += [str(k)] * c
    return "{" + ",".join(parts) + "}"


def _profile_mix(tv: TVector, ks: list[int], counts: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """First non-negative profile counts x_P meeting the incidence totals, or None.

    Constraints: sum x_P = d, and for each multiplicity m the profiles
    jointly contain m * t_m occurrences of m (each of the t_m points of
    multiplicity m lies on exactly m lines).
    """
    d, t = tv.d, tv.counts
    totals = [k * t[k - 2] for k in ks]
    if len(counts) < 2:
        return _first_mix(d, counts, totals, len(ks))
    # lines of a configuration tend to look alike, so the profiles nearest the
    # average line (totals / d) go first; the first mix then fits the point-pair
    # budgets more often.  The sort is stable: equal distances keep the profiles' order.
    distances = []
    for vec in counts:
        distance = 0
        for a, total in enumerate(totals):
            excess = d * vec[a] - total
            distance += excess * excess
        distances.append(distance)
    order = sorted(range(len(counts)), key=distances.__getitem__)
    found = _first_mix(d, [counts[i] for i in order], totals, len(ks))
    if found is None:
        return None
    mix = [0] * len(counts)
    for i, x in zip(order, found):
        mix[i] = x
    return tuple(mix)


def _first_mix(
    lines: int, vectors: list[tuple[int, ...]], totals: list[int], exact: int
) -> tuple[int, ...] | None:
    """First x >= 0 with sum x = lines and sum_P x_P * vectors[P] fitting ``totals``.

    The first ``exact`` entries must be met exactly, the others only not
    exceeded.  Counts are tried largest-first, one vector at a time, in a
    depth-first walk on flat int lists: ``left`` is what the totals still
    allow, and ``mix[idx]`` the count vector idx takes.
    """
    if not vectors:
        return None
    last = len(vectors) - 1
    final = vectors[last]
    mix = [0] * (last + 1)
    if last:
        # for each vector but the last: its nonzero entries, and the least and
        # the most (of an exact entry) a line of it or a later vector adds; only
        # a nonzero least can rule a state out
        terms: list[list[tuple[int, int]]] = [[]] * last
        floors: list[list[tuple[int, int]]] = [[]] * last
        ceilings: list[list[int]] = [[]] * last
        low = list(final)
        high = low[:exact]
        for idx in range(last - 1, -1, -1):
            term = terms[idx] = []
            floor = floors[idx] = []
            for a, c in enumerate(vectors[idx]):
                if c:
                    term.append((a, c))
                    if a < exact and c > high[a]:
                        high[a] = c
                if c < low[a]:
                    low[a] = c
                if low[a]:
                    floor.append((a, low[a]))
            ceilings[idx] = high[:]
    left = list(totals)
    lines_left = lines
    idx = 0
    while True:
        if idx == last:
            # the last vector takes every remaining line
            for a, c in enumerate(final):
                b = left[a] - lines_left * c
                if b < 0 or (b and a < exact):
                    break
            else:
                mix[last] = lines_left
                return tuple(mix)
        else:
            for a, c in floors[idx]:
                if left[a] < lines_left * c:
                    break
            else:
                for b, c in zip(left, ceilings[idx]):
                    if b > lines_left * c:
                        break
                else:
                    count = lines_left
                    for a, c in terms[idx]:
                        if left[a] < c * count:
                            count = left[a] // c
                    if count:
                        for a, c in terms[idx]:
                            left[a] -= count * c
                        lines_left -= count
                    mix[idx] = count
                    idx += 1
                    continue
        # back to the deepest vector with a line to give back
        idx -= 1
        while idx >= 0 and not mix[idx]:
            idx -= 1
        if idx < 0:
            return None
        mix[idx] -= 1
        for a, c in terms[idx]:
            left[a] += c
        lines_left += 1
        idx += 1


def _pairs(vec: list[int] | tuple[int, ...], a: int, b: int) -> int:
    """Pairs of one point of class a and one of class b among ``vec[a]`` and ``vec[b]`` points.

    With ``vec`` a line's profile counts this is the pairs the line joins;
    with T's point counts per class it is the pairs available.
    """
    c = vec[a]
    return c * (c - 1) // 2 if a == b else c * vec[b]


def _first_overdrawn(
    points: list[int], used: list[tuple[int, tuple[int, ...]]]
) -> tuple[int, int] | None:
    """(index in ``_pair_budgets`` order, pairs needed) of the first budget a mix overdraws, or None.

    ``points`` is T's point count per class and ``used`` the mix as
    (lines, profile counts) for each profile it uses.
    """
    n = len(points)
    i = 0
    for a in range(n):
        for b in range(a, n):
            need = 0
            for x, vec in used:
                need += x * _pairs(vec, a, b)
            if need > _pairs(points, a, b):
                return i, need
            i += 1
    return None


def _pair_budgets(points: list[int]) -> list[tuple[int, int, int]]:
    """(a, b, pairs available) for each class pair a <= b, in lexicographic order."""
    n = len(points)
    return [(a, b, _pairs(points, a, b)) for a in range(n) for b in range(a, n)]


def _pair_use(vec: tuple[int, ...], budgets: list[tuple[int, int, int]]) -> tuple[int, ...]:
    """Point pairs one line of this profile spends from each budget."""
    return tuple(_pairs(vec, a, b) for a, b, _ in budgets)


def _parity_profile(
    tv: TVector, ks: list[int], counts: list[tuple[int, ...]], first: tuple[int, ...] | None
) -> ExclusionVerdict | None:
    """Check that admissible line profiles exist and can jointly cover T.

    First hurdle: d-1 must be a sum of parts (m-1) over multiplicities m
    present in T (with at most t_m parts equal to m).  Second hurdle: the
    d lines must distribute over the admissible profiles so that k-fold
    points collect exactly k * t_k incidences for every k.  ``ks`` and
    ``counts`` are ``_line_profiles(tv)``, and ``first`` is their
    ``_profile_mix``, None exactly when no distribution exists.
    """
    if first is not None:
        return None
    shapes = [_shape(ks, vec) for vec in counts]
    if not shapes:
        return ExclusionVerdict(
            "parity_profile",
            f"d-1 = {tv.d - 1} is not a sum of parts (m-1) for m in {sorted(ks)} "
            f"with at most t_m parts of each size",
        )
    return ExclusionVerdict(
        "parity_profile",
        f"no assignment of the {len(shapes)} admissible line profiles [{', '.join(shapes)}] "
        f"to {tv.d} lines meets the incidence totals k*t_k",
    )


def _point_pairs(
    tv: TVector, ks: list[int], counts: list[tuple[int, ...]], first: tuple[int, ...]
) -> ExclusionVerdict | None:
    """Check that some profile mix also fits the point-pair budgets.

    Two singular points lie on at most one common line (de Bruijn-Erdos
    1948).  A line whose profile has c_j points of multiplicity j and c_k
    of multiplicity k joins C(c_k, 2) pairs of k-fold points and
    c_j * c_k pairs of a j-fold and a k-fold point, and no pair is joined
    twice, so the d lines' profile counts x_P must satisfy

        sum_P x_P * C(c_k(P), 2)      <= C(t_k, 2)   for every k,
        sum_P x_P * c_j(P) * c_k(P)   <= t_j * t_k   for every j < k,

    on top of the incidence totals of :func:`_parity_profile`.  Dually,
    two cliques of a clique partition of K_d share at most one vertex, so
    the same budgets bind the incidence search, and this row never
    excludes a T that admits a clique partition.  ``first`` is the first
    mix of the incidence totals (``_profile_mix``); it is checked
    directly, and only an overdrawn one starts a search over mixes under
    the budgets.
    """
    points = [tv.counts[k - 2] for k in ks]
    overdrawn = _first_overdrawn(points, [(x, vec) for x, vec in zip(first, counts) if x])
    if overdrawn is None:
        return None
    i, need = overdrawn
    budgets = _pair_budgets(points)
    uses = [_pair_use(vec, budgets) for vec in counts]
    totals = [k * tv.counts[k - 2] for k in ks] + [cap for _, _, cap in budgets]
    joined = [vec + use for vec, use in zip(counts, uses)]
    if _first_mix(tv.d, joined, totals, len(ks)) is not None:
        return None
    # name the first budget the first mix overdraws
    a, b, cap = budgets[i]
    spenders = [(x, vec, use[i]) for x, vec, use in zip(first, counts, uses) if x and use[i]]
    lines = " + ".join(
        f"{x} x {_shape(ks, vec)}" + (f" ({x * u})" if len(spenders) > 1 else "")
        for x, vec, u in spenders
    )
    j, k = ks[b], ks[a]  # ks is descending
    if j == k:
        what, available = f"pairs of {k}-fold points", f"C({tv.t(k)},2) = {cap}"
    else:
        what = f"pairs of a {j}-fold and a {k}-fold point"
        available = f"{tv.t(j)}*{tv.t(k)} = {cap}"
    return ExclusionVerdict(
        "point_pairs",
        f"no line-profile mix fits the point-pair budgets; in the first, "
        f"{lines} need {need} {what}, but only {available} exist",
    )


def _hirzebruch(tv: TVector) -> ExclusionVerdict | None:
    """Complex-plane bound t_2 + (3/4) t_3 >= d + sum_{k>=5} (k-4) t_k.

    Published form: Hirzebruch's inequality for line arrangements in the
    complex projective plane (Hirzebruch 1983), in the 3/4 form stated by
    Bojanowski (2003) and Pokora for d >= 6 lines with t_d = t_{d-1} =
    t_{d-2} = 0:

        t_2 + (3/4) t_3 >= d + sum_{k>=5} (k^2/4 - k) t_k.

    Since k^2/4 - k - (k - 4) = (k/2 - 2)^2 >= 0, that right-hand side
    dominates the one checked here, so the bound holds under the same
    hypotheses.  Outside them (d < 6, or a point on d, d-1 or d-2 lines)
    the row does not apply and returns None.  At d <= 10 every exclusion
    ``apply_all`` makes with it already meets these hypotheses.  Four
    complex audit entries rest on this row alone: d=7 (0,7,0,...) and
    d=10 (0,9,3,...), (3,6,4,...) and (3,8,3,...).
    """
    d, t = tv.d, tv.counts
    if d < 6 or t[-1] or t[-2] or t[-3]:
        return None
    quadruple_lhs = 4 * t[0] + 3 * t[1]  # 4 (t2 + (3/4) t3)
    rhs = d
    for k in range(5, d + 1):
        rhs += (k - 4) * t[k - 2]
    if quadruple_lhs < 4 * rhs:
        g = gcd(quadruple_lhs, 4)  # the left side in lowest terms, as a Fraction prints it
        lhs = f"{quadruple_lhs // g}" + (f"/{4 // g}" if g < 4 else "")
        return ExclusionVerdict(
            "hirzebruch",
            f"t2 + (3/4) t3 = {lhs} < {rhs} = d + sum_(k>=5) (k-4) t_k",
        )
    return None


def apply_all(tv: TVector, mode: str) -> ExclusionVerdict:
    """Run the rows cheapest-first; return the first exclusion, else passed.

    Order is fixed (multiplicity sums, two pencils, line profiles, then
    the Hirzebruch bound where the mode admits no prime field, and last
    the point-pair budgets) so audit trails are reproducible.  Point pairs
    run last so that every exclusion an earlier row makes keeps its
    criterion.  One pass over the counts checks the pair-count identity
    and lists the multiplicities for the two cheap rows, and the line
    profiles and their first mix are computed once for the rest.
    """
    kinds = admitted_kinds(mode)
    d = k = tv.d
    imbalance = -(d * (d - 1) // 2)
    mults: list[int] = []  # descending
    for count in reversed(tv.counts):
        if count:
            imbalance += count * (k * (k - 1) // 2)
            mults += [k] * count
        k -= 1
    _require_balanced(imbalance)
    verdict = _multiplicity_sum(d, mults) or _two_pencils(mults)
    if verdict is None:
        ks, counts = _line_profiles(tv)
        first = _profile_mix(tv, ks, counts)
        verdict = (
            _parity_profile(tv, ks, counts, first)
            or (None if PRIME in kinds else _hirzebruch(tv))
            or _point_pairs(tv, ks, counts, first)
        )
    return verdict or ExclusionVerdict(None, "all filters passed")
