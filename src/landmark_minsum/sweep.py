"""Unknown-optimum handling: rerun the sweep with ascending threshold guesses.

A run at threshold T depends on T only through its extraction tests
`max_size * r2 > T`.  If p is the smallest product that fired in the run at
T, every threshold in [T, p) gives the same run, and p is itself a ball-size
x distance product.  The walk therefore starts at the smallest positive
landmark-point distance and jumps from each run's smallest fired product to
the next, stopping at the first run that clusters enough points.  It visits
exactly the thresholds where the run changes, so it stops where a walk over
every size x distance product would, without listing those products and
without any further distance queries.

The run at p is the run at T up to the first extraction at product p,
which the strict test does not fire at p; every earlier test has the same
outcome at both thresholds.  So the run at p does not replay the stream:
it resumes from the state the run at T saved just before that extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf as INF

import numpy as np

from .errors import DataError, ParameterError
from .landmark import (
    Clustering,
    LandmarkTable,
    StabilityParams,
    _as_clustering,
    _RunState,
    _stream_min_sum,
    assign_remainder,
    bad_point_budget,
    snapped_ceil,
)


def stop_bound_from(params: StabilityParams, n: int) -> int:
    """`bad_point_budget(params, n)` rounded up."""
    b = snapped_ceil(bad_point_budget(params, n))
    if b >= n:
        raise ParameterError(
            f"stop bound {b} >= n={n}: stability parameters inconsistent with n"
        )
    return b


@dataclass
class SweepResult:
    chosen_threshold: float
    clustering: Clustering  # after remainder assignment
    runs_executed: int
    points_clustered_at_stop: int
    coverage_per_candidate: list[tuple[float, int]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def to_dict(self):
        return {
            "chosen_T": self.chosen_threshold,
            "runs_executed": self.runs_executed,
            "points_clustered_at_stop": self.points_clustered_at_stop,
            "candidates_tried": [t for t, _ in self.coverage_per_candidate],
            "coverage_per_candidate": [cov for _, cov in self.coverage_per_candidate],
            "warnings": self.warnings,
            "clustering": self.clustering.to_dict(),
        }


def sweep(table: LandmarkTable, k: int, stop_bound_b: int) -> SweepResult:
    """Jump between firing products until a run clusters n - b points.

    Starts at the smallest positive finite landmark-point distance; each
    run's smallest fired product p is the next threshold tried.  Stops at the
    first run clustering at least n - b points before remainder assignment,
    then completes the winner with assign_remainder.  Reuses the landmark
    table throughout, so no new queries are issued.

    The run at p equals the run before it up to that run's first extraction
    with product p, which does not fire at p.  So each run after the first
    resumes from the state saved just before that extraction
    (`_stream_min_sum`'s `saves`) and inherits the saved states before it.
    Each chunk of the stream is sorted whole into Python lists once, when
    the first run reaches it, and a saved state points into those lists;
    so, unlike a single run, the sweep splits no chunk and inserts none
    unsorted.
    """
    n = table.n
    # the parameters first: the scan below reads all n' x n distances
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 0 <= stop_bound_b < n:
        raise ParameterError(f"need 0 <= b < n, got b={stop_bound_b}, n={n}")
    rows = table.rows
    # the first threshold: the smallest positive finite distance
    t = float(np.min(rows, where=(rows > 0) & (rows < INF), initial=INF))
    if t == INF:
        raise DataError("no positive finite landmark-point distances")
    needed = n - stop_bound_b
    coverage: list[tuple[float, int]] = []
    pending = table.chunks()
    converted: list[list[list]] = []

    def chunks(first: int):
        # runs read one at a time, so only the current one appends
        yield from converted[first:]
        for c in pending:
            converted.append(c[:])
            yield converted[-1]

    saves: list[_RunState] = []
    start = None
    # the smallest fired product exceeds t, so t rises strictly; a run in
    # which nothing fires (fired is +inf) clusters every point, and the walk
    # reaches such a run before t becomes +inf, so the loop always returns;
    # a run that fired saved the state before its first extraction at fired
    while True:
        clusters, fired = _stream_min_sum(
            table, k, t, chunks(start.chunk if start else 0), start, saves)
        cov = sum(map(len, clusters))
        coverage.append((t, cov))
        if cov >= needed:
            run = _as_clustering(table, k, clusters)
            return SweepResult(
                chosen_threshold=t,
                clustering=assign_remainder(run, table),
                runs_executed=len(coverage),
                points_clustered_at_stop=cov,
                coverage_per_candidate=coverage,
                warnings=list(run.warnings),
            )
        t = fired
        start = saves.pop()
