"""Reference implementations that the fast paths are checked against.

`enumerate_thresholds` lists every achievable ball-size x distance product
and `candidate_sweep` reruns the clustering once per product in ascending
order, the threshold walk `landmark_minsum.sweep` shortcuts by jumping
between fired products.
"""

from __future__ import annotations

import numpy as np

from landmark_minsum import (
    DataError,
    LandmarkTable,
    ParameterError,
    SweepFailure,
    SweepResult,
    assign_remainder,
    cluster_min_sum,
)


def enumerate_thresholds(table: LandmarkTable, n: int | None = None) -> np.ndarray:
    """Every product of a ball size (1..n) and a positive finite
    landmark-point distance, ascending and without duplicates."""
    if n is None:
        n = table.n
    dists = table.pair_dist
    dists = np.unique(dists[(dists > 0) & np.isfinite(dists)])
    if dists.size == 0:
        raise DataError("no positive finite landmark-point distances")
    return np.unique(np.outer(np.arange(1, n + 1, dtype=np.float64), dists))


def candidate_sweep(table: LandmarkTable, k: int, stop_bound_b: int) -> SweepResult:
    """Run the clustering once per ascending candidate until n - b points
    are clustered, then complete the winner with assign_remainder."""
    n = table.n
    candidates = enumerate_thresholds(table, n)
    if not 0 <= stop_bound_b < n:
        raise ParameterError(f"need 0 <= b < n, got b={stop_bound_b}, n={n}")
    needed = n - stop_bound_b
    coverage: list[tuple[float, int]] = []
    best_cov = -1
    best_t = None
    best_run = None
    for t in candidates.tolist():
        run = cluster_min_sum(table, k, t)
        cov = run.points_clustered()
        coverage.append((t, cov))
        if cov > best_cov:
            best_cov, best_t, best_run = cov, t, run
        if cov >= needed:
            return SweepResult(
                chosen_threshold=t,
                clustering=assign_remainder(run, table),
                runs_executed=len(coverage),
                points_clustered_at_stop=cov,
                coverage_per_candidate=coverage,
                warnings=list(run.warnings),
            )
    raise SweepFailure(
        f"no candidate clustered >= {needed} of {n} points "
        f"(best {best_cov} at T={best_t})",
        best_threshold=best_t,
        best_clustering=best_run,
        best_coverage=best_cov,
    )
