"""Instrumentation applied from outside the program, at its layer boundaries.

The benchmark wraps public functions by name in the module namespaces the
program calls them through, so no program file changes:

* ``harbourne.pipeline`` binds ``enumerate_tvectors``, ``quotient_fraction``,
  ``feasible_arrangement``, ``realize_over_prime_field``,
  ``verify_certificate`` and ``builtin_certificates`` by name at import,
  so those are wrapped there, together with ``classify_candidate`` and
  ``compute_table`` (``compute_table`` looks both up as module globals);
* ``apply_all`` is called as ``criteria.apply_all`` and wrapped on
  ``harbourne.criteria``.

``exactnum`` has no boundary on the hot path that can be wrapped from
outside; its cost shows inside the geometry spans' self time.

With ``spans=False`` only what the end-to-end metrics need is kept: the
latency of each ``classify_candidate`` call, whether a node budget ran out
inside it, and its arguments and result, so that ``replay`` can time the
same call again and check that it gives the same result.  ``after_classify``,
if set, runs after every wrapped call, outside the call's timing.  With
``spans=True`` every wrapped call also records a span (name, start, end,
parent, request) in memory and the per-layer counters.
"""

from __future__ import annotations

import time
from collections import Counter

from harbourne import criteria, pipeline
from harbourne.incidence import SearchBudgetExceeded

CRITERIA = ("multiplicity_sum", "two_pencils", "parity_profile", "hirzebruch")
STATUSES = (pipeline.ST_EXCLUDED, pipeline.ST_INFEASIBLE, pipeline.ST_REALIZED, pipeline.ST_INCONCLUSIVE)
REALIZE_PRIMES = (2, 3)
REALIZE_FIELDS = ("calls", "self_s", "nodes", "nodes_per_s", "found", "exhausted", "budget_exhausted")


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = ["tspace.calls", "tspace.self_s"]
    names += ["criteria.calls", "criteria.self_s", "criteria.excluded_share"]
    names += [f"criteria.excluded.{c}" for c in CRITERIA]
    names += [
        f"incidence.{f}"
        for f in ("calls", "self_s", "nodes", "nodes_per_s", "feasible", "infeasible", "budget_exhausted")
    ]
    names += [f"geometry.realize_f{p}.{f}" for p in REALIZE_PRIMES for f in REALIZE_FIELDS]
    names += ["geometry.verify.calls", "geometry.verify.self_s"]
    names += ["pipeline.db_build.self_s", "pipeline.classify.calls", "pipeline.classify.self_s"]
    names += ["pipeline.table.self_s"] + [f"pipeline.status.{s}" for s in STATUSES]
    names += ["trace.wall_s", "trace.unaccounted_s", "trace.overhead_s"]
    return names


def request_id(tv, mode: str) -> str:
    return f"{mode} d={tv.d} T=({tv.encode()})"


class Instrument:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self, spans: bool):
        self.spans_on = spans
        self.spans: list[list] = []  # [group, start, end, parent index, request]
        self._stack: list[int] = []
        self._request: str | None = None
        self._saved: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.classify_s: dict[str, list[float]] = {}
        self._calls: dict[str, tuple] = {}  # request -> (args, kwargs, result JSON)
        self._classify_original = None
        self.after_classify = None  # called after each wrapped classify, outside its timing
        self._budget_hit = False
        self.pass_wall_s: list[float] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Instrument":
        self._patch(pipeline, "classify_candidate", self._classify)
        self._patch(pipeline, "feasible_arrangement", self._incidence)
        self._patch(pipeline, "realize_over_prime_field", self._realize)
        if self.spans_on:
            self._patch(pipeline, "compute_table", self._spanned("pipeline.table"))
            self._patch(pipeline, "builtin_certificates", self._spanned("pipeline.db_build"))
            self._patch(pipeline, "verify_certificate", self._spanned("geometry.verify"))
            self._patch(pipeline, "enumerate_tvectors", self._spanned("tspace"))
            self._patch(pipeline, "quotient_fraction", self._spanned("tspace"))
            self._patch(criteria, "apply_all", self._criteria)
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _patch(self, module, name: str, make) -> None:
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, make(original))

    # -- spans -------------------------------------------------------------

    def _open(self, group: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([group, time.perf_counter(), 0.0, parent, self._request])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, group: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                index = self._open(group)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(index)
                    self.counts[f"{group}.calls"] += 1

            return wrapper

        return make

    # -- layer wrappers ----------------------------------------------------

    def _classify(self, fn):
        self._classify_original = fn

        def wrapper(tv, mode, *args, **kwargs):
            request = request_id(tv, mode)
            outer, self._request = self._request, request
            self._budget_hit = False
            index = self._open("pipeline.classify") if self.spans_on else -1
            start = time.perf_counter()
            try:
                status = fn(tv, mode, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if self.spans_on:
                    self._close(index)
                self._request = outer
            self.classify_s.setdefault(request, []).append(elapsed)
            if request not in self._calls:
                self._calls[request] = ((tv, mode, *args), kwargs, status.to_json())
            self.counts["pipeline.classify.calls"] += 1
            self.counts[f"pipeline.status.{status.status}"] += 1
            self.counts["budget_exhausted_calls"] += self._budget_hit
            if self.after_classify is not None:
                self.after_classify()
            return status

        return wrapper

    def replay(self, request: str) -> str | None:
        """Classify a candidate again with the arguments of its first call.

        The latency joins the candidate's samples; the call counts as a
        replay, not as one of a pass's calls.  Returns a failure message if
        the result differs from the first call's.
        """
        args, kwargs, expected = self._calls[request]
        start = time.perf_counter()
        status = self._classify_original(*args, **kwargs)
        self.classify_s[request].append(time.perf_counter() - start)
        self.counts["replays"] += 1
        if status.to_json() != expected:
            return f"replay of {request} gave {status.to_json()}, first call {expected}"
        return None

    def _incidence(self, fn):
        def wrapper(*args, **kwargs):
            index = self._open("incidence") if self.spans_on else -1
            try:
                outcome = fn(*args, **kwargs)
            except SearchBudgetExceeded as exc:
                self.counts["incidence.nodes"] += exc.nodes
                self.counts["incidence.budget_exhausted"] += 1
                self._budget_hit = True
                raise
            finally:
                if self.spans_on:
                    self._close(index)
                self.counts["incidence.calls"] += 1
            self.counts["incidence.nodes"] += outcome.nodes_explored
            self.counts["incidence.feasible" if outcome.feasible else "incidence.infeasible"] += 1
            return outcome

        return wrapper

    def _realize(self, fn):
        def wrapper(tv, p, *args, **kwargs):
            group = f"geometry.realize_f{p}"
            index = self._open(group) if self.spans_on else -1
            try:
                outcome = fn(tv, p, *args, **kwargs)
            finally:
                if self.spans_on:
                    self._close(index)
                self.counts[f"{group}.calls"] += 1
            self.counts[f"{group}.nodes"] += outcome.nodes
            # ``exhausted`` is False on success, so ``found`` decides first
            if outcome.found:
                self.counts[f"{group}.found"] += 1
            elif outcome.exhausted:
                self.counts[f"{group}.exhausted"] += 1
            else:
                self.counts[f"{group}.budget_exhausted"] += 1
                self._budget_hit = True
            return outcome

        return wrapper

    def _criteria(self, fn):
        def wrapper(*args, **kwargs):
            index = self._open("criteria")
            try:
                verdict = fn(*args, **kwargs)
            finally:
                self._close(index)
                self.counts["criteria.calls"] += 1
            if verdict.is_excluded:
                self.counts["criteria.excluded"] += 1
                self.counts[f"criteria.excluded.{verdict.criterion}"] += 1
            return verdict

        return wrapper

    # -- results -----------------------------------------------------------

    def self_times(self) -> Counter:
        """Seconds per span group: each span's duration minus its children's."""
        totals: Counter = Counter()
        for group, start, end, parent, _ in self.spans:
            duration = end - start
            totals[group] += duration
            if parent >= 0:
                totals[self.spans[parent][0]] -= duration
        return totals

    def per_layer(self, passes: int, span_cost_s: float) -> dict[str, float]:
        """Per-layer metrics of one pass (totals over all passes / passes)."""
        self_s = self.self_times()
        wall = sum(self.pass_wall_s)
        ratios = {"criteria.excluded_share": (self.counts["criteria.excluded"], self.counts["criteria.calls"])}
        for group in ("incidence", *(f"geometry.realize_f{p}" for p in REALIZE_PRIMES)):
            ratios[f"{group}.nodes_per_s"] = (self.counts[f"{group}.nodes"], self_s[group])
        totals = dict(self.counts)
        totals.update((f"{group}.self_s", seconds) for group, seconds in self_s.items())
        totals["trace.wall_s"] = wall
        totals["trace.unaccounted_s"] = wall - sum(self_s.values())
        totals["trace.overhead_s"] = len(self.spans) * span_cost_s
        values: dict[str, float] = {}
        for name in per_layer_names():
            if name in ratios:
                part, whole = ratios[name]
                values[name] = part / whole if whole else 0.0
            else:
                values[name] = totals.get(name, 0) / passes
        return values

    def span_records(self, origin: float) -> list[dict]:
        """Spans as JSON-ready records, times in seconds from ``origin``."""
        return [
            {"name": group, "start_s": start - origin, "end_s": end - origin, "parent": parent, "request": request}
            for group, start, end, parent, request in self.spans
        ]


def span_cost_s(samples: int = 20000) -> float:
    """Calibrated cost of one span: a wrapped no-op call minus a bare one."""

    def noop():
        return None

    probe = Instrument(spans=True)
    wrapped = probe._spanned("calibration")(noop)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(samples):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(samples):
            wrapped()
        best = min(best, (time.perf_counter() - start - bare) / samples)
        probe.spans.clear()
    return max(best, 0.0)
