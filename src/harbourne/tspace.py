"""T-vector enumeration and combinatorial quotients.

A configuration of d lines determines counts t_k of points where exactly
k lines meet.  Pair counting forces

    sum_{k>=2} t_k * C(k,2) = C(d,2),

and every candidate vector T = (t_2, ..., t_d) satisfying this identity
gets the combinatorial quotient

    q(T) = (d^2 - sum_k k^2 t_k) / (sum_k t_k),

the value the Harbourne constant would take if T were realized by an
actual arrangement.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import cache
from math import comb, lcm
from operator import neg

from ._value import Value

MAX_D = 10  # the tables, the CLI's -d and --max-d, and the census cover d = 2..MAX_D


class TVector(Value):
    """Counts (t_2, ..., t_d) of singular points by multiplicity.

    ``counts[i]`` holds t_{i+2}.  Construction only checks types, shape
    and non-negativity; whether the pair-count identity holds is a
    separate question, which :func:`require_solution` enforces.  ``d``
    and every count must be an ``int`` (not a ``bool``): nothing is
    converted, so 0.5 or "1" is refused rather than read as 0 or 1.
    """

    __slots__ = ("d", "counts")

    def __init__(self, d: int, counts: tuple[int, ...]) -> None:
        if type(d) is not int:
            raise ValueError(f"d must be an int, got {d!r}")
        if d < 2:
            raise ValueError(f"need at least 2 lines, got d={d}")
        counts = tuple(counts)
        if len(counts) != d - 1:
            raise ValueError(f"expected {d - 1} counts (t_2..t_{d}), got {len(counts)}")
        for count in counts:
            if type(count) is not int:
                raise ValueError(f"multiplicity counts must be ints, got {count!r} in {counts}")
        if min(counts) < 0:  # d >= 2, so there is at least one count
            raise ValueError(f"negative multiplicity count in {counts}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_mapping(cls, d: int, counts: dict[int, int]) -> "TVector":
        if any(not 2 <= k <= d for k in counts):
            raise ValueError(f"multiplicities must lie in [2, {d}], got {sorted(counts)}")
        return cls(d, tuple(counts.get(k, 0) for k in range(2, d + 1)))

    @classmethod
    def decode(cls, d: int, text: str) -> "TVector":
        """Parse the wire form "t2,t3,...,td" (fixed length d-1)."""
        parts = [p.strip() for p in text.split(",")]
        try:
            values = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"malformed T-vector {text!r}: {exc}") from None
        return cls(d, values)

    def encode(self) -> str:
        return ",".join(str(c) for c in self.counts)

    def t(self, k: int) -> int:
        """t_k, i.e. the number of points of multiplicity exactly k."""
        if not 2 <= k <= self.d:
            return 0
        return self.counts[k - 2]

    @property
    def s(self) -> int:
        """Total number of singular points."""
        return sum(self.counts)

    def __str__(self) -> str:
        return f"d={self.d}:({self.encode()})"


def require_solution(tv: TVector) -> None:
    """Raise ValueError, naming the imbalance, unless T solves the pair-count identity."""
    imbalance = -comb(tv.d, 2)  # sum t_k * C(k,2) - C(d,2)
    k = 2
    for t in tv.counts:
        if t:
            imbalance += t * (k * (k - 1) // 2)
        k += 1
    _require_balanced(imbalance)


def _require_balanced(imbalance: int) -> None:
    """:func:`require_solution` for an imbalance the caller has already computed."""
    if imbalance:
        raise ValueError(
            f"T-vector violates the pair-count identity: sum t_k*C(k,2) - C(d,2) = {imbalance:+d}"
        )


def quotient_fraction(tv: TVector) -> Fraction:
    s = weighted = 0
    k = 2
    for t in tv.counts:
        if t:
            s += t
            weighted += k * k * t
        k += 1
    if s < 1:
        raise ValueError(f"quotient undefined for empty point set: {tv}")
    return Fraction(tv.d * tv.d - weighted, s)


def render_decimal(x: Fraction) -> str:
    """Six-place fixed-point rendering, exact rounding (ties to even)."""
    scaled = round(x * 10**6)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**6)
    return f"{sign}{whole}.{frac:06d}"


def render_mixed(x: Fraction) -> str:
    """Mixed-fraction rendering: -29/12 -> "-2 5/12", -2 -> "-2", 5/6 -> "5/6"."""
    if x.denominator == 1:
        return str(x.numerator)
    sign = "-" if x < 0 else ""
    whole, rem = divmod(abs(x.numerator), x.denominator)
    if whole == 0:
        return f"{sign}{rem}/{x.denominator}"
    return f"{sign}{whole} {rem}/{x.denominator}"


def enumerate_tvectors(d: int, q_ceiling: Fraction | None = None) -> list[TVector]:
    """All solutions of the pair-count identity for d lines, sorted.

    The order is q(T) ascending with the descending lexicographic order
    on (t_d, ..., t_2) as tie-break, so repeated runs are byte-identical.
    With ``q_ceiling`` (an int or a Fraction) only solutions with
    q(T) <= q_ceiling are kept.  Each d is enumerated and sorted once per
    process; every call returns a new list.
    """
    if d < 2:
        raise ValueError(f"need at least 2 lines, got d={d}")
    if d > MAX_D:
        warnings.warn(f"enumeration for d={d} exceeds the supported range d <= {MAX_D}", stacklevel=2)
    tvectors, quotients = _sorted_tspace(d)
    if q_ceiling is None:
        return list(tvectors)
    num, den = q_ceiling.numerator, q_ceiling.denominator
    kept = 0  # q = excess / points ascends, so the kept solutions are a prefix
    for excess, points in quotients:
        if excess * den > num * points:
            break
        kept += 1
    return list(tvectors[:kept])


@cache
def _sorted_tspace(d: int) -> tuple[tuple[TVector, ...], tuple[tuple[int, int], ...]]:
    """T-space of d in :func:`enumerate_tvectors` order, with each q(T) as (excess, points)."""
    budget = comb(d, 2)
    square = d * d
    # every s <= C(d,2) divides scale, so (d^2 - w) * (scale // s) is q * scale exactly
    scale = lcm(*range(1, budget + 1))
    # one entry per (t_d, ..., t_k) so far: the counts, the pairs they leave, sum t_j, sum j^2 t_j
    level = [((), budget, 0, 0)]
    for k in range(d, 2, -1):
        weight, k_squared = comb(k, 2), k * k
        level = [
            (counts + (t,), remaining - t * weight, points + t, weighted + t * k_squared)
            for counts, remaining, points, weighted in level
            for t in range(remaining // weight + 1)
        ]
    keyed = []
    for counts, remaining, points, weighted in level:
        points += remaining  # each double point uses exactly one pair, so t_2 takes what is left
        excess = square - weighted - 4 * remaining  # q = excess / points
        tie_break = (*map(neg, counts), -remaining)  # (t_d, ..., t_2) descending
        tv = TVector(d, (remaining, *reversed(counts)))
        keyed.append((excess * (scale // points), tie_break, tv, (excess, points)))
    keyed.sort()  # no two T share a tie-break, so no TVector is ever compared
    return tuple(entry[2] for entry in keyed), tuple(entry[3] for entry in keyed)
