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
    run's smallest fired product is the next threshold tried.  Stops at the
    first run clustering at least n - b points before remainder assignment,
    then completes the winner with assign_remainder.  Reuses the landmark
    table throughout, so no new queries are issued.  The stream's chunks
    are sorted and turned into Python lists once, when the first run
    reaches them, and later runs read those lists.
    """
    n = table.n
    rows = table.rows
    # the first threshold: the smallest positive finite distance
    t = float(np.min(rows, where=(rows > 0) & (rows < INF), initial=INF))
    if t == INF:
        raise DataError("no positive finite landmark-point distances")
    if not 0 <= stop_bound_b < n:
        raise ParameterError(f"need 0 <= b < n, got b={stop_bound_b}, n={n}")
    needed = n - stop_bound_b
    coverage: list[tuple[float, int]] = []
    pending = table.chunks()
    converted: list[list[list]] = []

    def chunks():
        # runs read one at a time, so only the current one appends
        yield from converted
        for c in pending:
            converted.append([col.tolist() for col in c])
            yield converted[-1]

    # the smallest fired product exceeds t, so t rises strictly; a run in
    # which nothing fires (fired is +inf) clusters every point, and the walk
    # reaches such a run before t becomes +inf, so the loop always returns
    while True:
        clusters, fired = _stream_min_sum(table, k, t, chunks())
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
