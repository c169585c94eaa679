"""Necessary-condition filters on candidate T-vectors.

Each filter encodes a counting fact that every line configuration (over
any field, except where noted) must satisfy, and returns a verdict with
a machine-readable reason:

* multiplicity sums: any r singular points span at most d + C(r,2) lines;
* two pencils: the two points of highest multiplicity m1, m2 force at
  least (m1-1)(m2-1) + 2 singular points in total;
* line profiles: each line meets the other d-1 lines in points whose
  multiplicities m satisfy sum (m-1) = d-1, and the d per-line profiles
  must jointly account for exactly k*t_k incidences at k-fold points;
* the Hirzebruch bound t_2 + (3/4) t_3 >= d + sum_{k>=5} (k-4) t_k, valid
  for complex configurations once t_d = t_{d-1} = 0 (complex mode only).

Filters never prove existence; sufficiency is the incidence module's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .tspace import TVector, check_combinatorial_identity

PASSED = "passed"
EXCLUDED = "excluded"

MODE_ABSOLUTE = "absolute"
MODE_COMPLEX = "complex"
MODES = (MODE_ABSOLUTE, MODE_COMPLEX)


@dataclass(frozen=True)
class ExclusionVerdict:
    """Outcome of one filter (or of the whole pipeline) on a T-vector.

    ``criterion`` names the filter that excluded T; ``None`` means T passed.
    """

    criterion: str | None
    detail: str

    def __post_init__(self) -> None:
        if self.criterion is not None and not (self.criterion and self.detail):
            raise ValueError("excluded verdicts need a criterion name and a detail witness")

    @property
    def is_excluded(self) -> bool:
        return self.criterion is not None

    @property
    def status(self) -> str:
        return EXCLUDED if self.is_excluded else PASSED

    def to_json(self) -> dict:
        return {"status": self.status, "criterion": self.criterion, "detail": self.detail}


def _passed(detail: str = "ok") -> ExclusionVerdict:
    return ExclusionVerdict(None, detail)


def _excluded(criterion: str, detail: str) -> ExclusionVerdict:
    return ExclusionVerdict(criterion, detail)


def _require_valid(tv: TVector) -> None:
    if not check_combinatorial_identity(tv):
        raise ValueError(f"not a solution of the pair-count identity: {tv}")


def multiplicity_sum_filter(tv: TVector) -> ExclusionVerdict:
    """Check sum of the r largest multiplicities <= d + C(r,2) for every r.

    Counting lines through r points (each pair of points shares at most
    one line) gives the bound; r = 3 and r = 4 are the classical
    triangular and quadrangle cases.
    """
    _require_valid(tv)
    mults = tv.multiplicities()
    running = 0
    for r, m in enumerate(mults, start=1):
        running += m
        bound = tv.d + comb(r, 2)
        if running > bound:
            top = "+".join(str(x) for x in mults[:r])
            return _excluded(
                "multiplicity_sum",
                f"r={r}: {top} = {running} > {bound} = d + C({r},2)",
            )
    return _passed()


def two_pencils_filter(tv: TVector) -> ExclusionVerdict:
    """Check (m1-1)(m2-1) + 2 <= s for the two largest multiplicities.

    The two heaviest points each spread a pencil of lines; pairwise
    intersections of the two pencils (away from a possible common line)
    are distinct singular points.  The bound used here is the weaker of
    the two cases (points joined by a configuration line or not), hence
    valid without knowing which case occurs.
    """
    _require_valid(tv)
    if tv.s < 2:
        return _passed("fewer than two singular points")
    mults = tv.multiplicities()
    m1, m2 = mults[0], mults[1]
    needed = (m1 - 1) * (m2 - 1) + 2
    if needed > tv.s:
        return _excluded(
            "two_pencils",
            f"(m1-1)(m2-1)+2 = ({m1}-1)({m2}-1)+2 = {needed} > s = {tv.s}",
        )
    return _passed()


def enumerate_line_profiles(tv: TVector) -> list[tuple[int, ...]]:
    """All admissible per-line profiles for this T-vector.

    A profile lists the multiplicities of the singular points on one line,
    in descending order.  Parts are multiplicities m >= 2 with t_m > 0; a
    line meets at most t_m points of multiplicity m, and since each m
    counts the line itself, the parts satisfy sum (m-1) = d-1.
    """
    ks = [k for k in range(tv.d, 1, -1) if tv.t(k) > 0]
    target = tv.d - 1
    profiles: list[tuple[int, ...]] = []
    parts: list[int] = []

    def descend(idx: int, remaining: int) -> None:
        if remaining == 0:
            profiles.append(tuple(parts))
            return
        if idx == len(ks):
            return
        k = ks[idx]
        max_count = min(tv.t(k), remaining // (k - 1))
        for count in range(max_count, -1, -1):
            parts.extend([k] * count)
            descend(idx + 1, remaining - count * (k - 1))
            del parts[len(parts) - count :]

    descend(0, target)
    return profiles


def _profile_mix_exists(tv: TVector, profiles: list[tuple[int, ...]]) -> bool:
    """Decide if non-negative profile counts x_P can meet all incidence totals.

    Constraints: sum x_P = d, and for each multiplicity m the profiles
    jointly contain m * t_m occurrences of m (each of the t_m points of
    multiplicity m lies on exactly m lines).
    """
    ks = [k for k in range(2, tv.d + 1) if tv.t(k) > 0]
    vectors = [tuple(p.count(k) for k in ks) for p in profiles]
    targets = tuple(k * tv.t(k) for k in ks)
    seen: dict[tuple, bool] = {}

    def feasible(idx: int, lines_left: int, budgets: tuple[int, ...]) -> bool:
        if idx == len(vectors):
            return lines_left == 0 and all(b == 0 for b in budgets)
        key = (idx, lines_left, budgets)
        if key in seen:
            return seen[key]
        vec = vectors[idx]
        cap = lines_left
        for c, b in zip(vec, budgets):
            if c:
                cap = min(cap, b // c)
        ok = False
        for x in range(cap, -1, -1):
            nxt = tuple(b - x * c for b, c in zip(budgets, vec))
            if idx + 1 == len(vectors) and (lines_left - x != 0 or any(nxt)):
                continue
            if feasible(idx + 1, lines_left - x, nxt):
                ok = True
                break
        seen[key] = ok
        return ok

    return feasible(0, tv.d, targets)


def parity_profile_filter(tv: TVector) -> ExclusionVerdict:
    """Check that admissible line profiles exist and can jointly cover T.

    First hurdle: d-1 must be a sum of parts (m-1) over multiplicities m
    present in T (with at most t_m parts equal to m).  Second hurdle: the
    d lines must distribute over the admissible profiles so that k-fold
    points collect exactly k * t_k incidences for every k.
    """
    _require_valid(tv)
    profiles = enumerate_line_profiles(tv)
    if not profiles:
        present = sorted(k for k in range(2, tv.d + 1) if tv.t(k) > 0)
        return _excluded(
            "parity_profile",
            f"d-1 = {tv.d - 1} is not a sum of parts (m-1) for m in {present} "
            f"with at most t_m parts of each size",
        )
    if not _profile_mix_exists(tv, profiles):
        shapes = ", ".join("{" + ",".join(map(str, p)) + "}" for p in profiles)
        return _excluded(
            "parity_profile",
            f"no assignment of the {len(profiles)} admissible line profiles [{shapes}] "
            f"to {tv.d} lines meets the incidence totals k*t_k",
        )
    return _passed()


def hirzebruch_filter(tv: TVector) -> ExclusionVerdict:
    """Complex-plane bound t_2 + (3/4) t_3 >= d + sum_{k>=5} (k-4) t_k.

    Only meaningful when t_d = t_{d-1} = 0; otherwise the filter reports
    itself inapplicable and passes.
    """
    _require_valid(tv)
    if tv.t(tv.d) != 0 or tv.t(tv.d - 1) != 0:
        return _passed("inapplicable: t_d or t_{d-1} is nonzero")
    lhs = Fraction(tv.t(2)) + Fraction(3, 4) * tv.t(3)
    rhs = tv.d + sum((k - 4) * tv.t(k) for k in range(5, tv.d + 1))
    if lhs < rhs:
        return _excluded(
            "hirzebruch",
            f"t2 + (3/4) t3 = {lhs} < {rhs} = d + sum_(k>=5) (k-4) t_k",
        )
    return _passed()


def apply_all(tv: TVector, mode: str) -> ExclusionVerdict:
    """Run the filters cheapest-first; return the first exclusion, else passed.

    Order is fixed (multiplicity sums, two pencils, line profiles, then in
    complex mode the Hirzebruch bound) so audit trails are reproducible.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    filters = [multiplicity_sum_filter, two_pencils_filter, parity_profile_filter]
    if mode == MODE_COMPLEX:
        filters.append(hirzebruch_filter)
    for f in filters:
        verdict = f(tv)
        if verdict.is_excluded:
            return verdict
    return _passed("all filters passed")
