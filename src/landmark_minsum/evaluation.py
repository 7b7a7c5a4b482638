"""Objectives, clustering distance, and structure and stability checks.

The min-sum objective sums intra-cluster distances over unordered pairs;
the balanced variant weights each cluster's best-median distance sum by the
cluster size.  With a metric, the two satisfy psi/2 <= phi <= psi.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .landmark import (
    Clustering,
    StabilityParams,
    bad_point_budget,
    build_landmark_table,
    sample_landmarks,
)
from .metric import DistanceSource, MetricMatrix

# the most scores the stability walk may hold, 8 bytes each (34 MB): its
# size at n = k = 12, Bell(12) partitions and 2^12 subsets
_WALK_LIMIT = 4_213_597 + 2**12

# the subset table scores at most this many gathered distances at once,
# and groups masks by their number of points 2^_LOW_BITS masks at a time:
# about 0.4 MB of temporaries beside the 2^n table at any n
_BATCH = 2**14
_LOW_BITS = 12


@dataclass
class ObjectiveValue:
    kind: str  # "min_sum" | "balanced_k_median"
    value: float
    medians: list[int | None] | None = None


def _require_partition(c: Clustering, n: int) -> None:
    if c.n != n:
        raise DataError(f"clustering over {c.n} points, expected {n}")
    c.validate()
    if not c.is_partition():
        raise DataError("clustering has unassigned points")


def _min_sum_blocks(blocks: np.ndarray) -> tuple[np.ndarray, None]:
    """The min-sum score of each (m, m) block of a (b, m, m) stack: half
    the block's sum, and 0.0 below two points."""
    if blocks.shape[1] < 2:
        return np.zeros(len(blocks)), None
    return 0.0 + blocks.sum(axis=(1, 2)) / 2.0, None


def _balanced_k_median_blocks(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The balanced score of each (m, m) block of a (b, m, m) stack, m
    times its least column sum, and the column of that sum, the first one
    (lowest point index) on a tie."""
    sums = blocks.sum(axis=1)
    best = sums.argmin(axis=1)
    return 0.0 + blocks.shape[1] * sums[np.arange(len(sums)), best], best


# each objective's one formula, scored on a stack of blocks
_OBJECTIVES = {
    "min_sum": _min_sum_blocks,
    "balanced_k_median": _balanced_k_median_blocks,
}


def _min_sum_of(clusters: list[list[int]], d: np.ndarray) -> ObjectiveValue:
    total = 0.0
    for members in clusters:
        block = d[np.ix_(members, members)][None]
        total += float(_min_sum_blocks(block)[0][0])
    return ObjectiveValue("min_sum", total)


def _balanced_k_median_of(
    clusters: list[list[int]], d: np.ndarray
) -> ObjectiveValue:
    total = 0.0
    medians: list[int | None] = []
    for members in clusters:
        if not members:
            medians.append(None)
            continue
        value, best = _balanced_k_median_blocks(d[np.ix_(members, members)][None])
        medians.append(members[int(best[0])])
        total += float(value[0])
    return ObjectiveValue("balanced_k_median", total, medians)


def min_sum(c: Clustering, m: MetricMatrix) -> ObjectiveValue:
    """Sum of intra-cluster distances over unordered pairs.

    Infinite intra-cluster distances flag the value as infinite rather
    than raising.
    """
    _require_partition(c, m.n)
    return _min_sum_of(c.clusters, m.values)


def balanced_k_median(c: Clustering, m: MetricMatrix) -> ObjectiveValue:
    """Per cluster: size times the distance sum to the best in-cluster median."""
    _require_partition(c, m.n)
    return _balanced_k_median_of(c.clusters, m.values)


def _max_agreement(table: np.ndarray) -> int:
    """Largest sum of entries of a non-negative integer table, taking at
    most one entry per row and per column.

    Rows and columns of zeros add nothing and are dropped, and the rest is
    turned to have no more rows than columns.  The Hungarian method with
    row and column potentials then matches every row, O(rows^2 x columns):
    rows join one at a time, each along a shortest augmenting path in
    reduced costs of `-table`.  Integer costs keep every potential exact.
    """
    table = table[table.any(axis=1)][:, table.any(axis=0)]
    if table.shape[0] > table.shape[1]:
        table = table.T
    r, c = table.shape
    # rows and columns count from 1; column 0 roots each augmenting path
    cost = np.zeros((r + 1, c + 1), dtype=np.int64)
    cost[1:, 1:] = -table
    unreached = np.iinfo(np.int64).max
    u = np.zeros(r + 1, dtype=np.int64)  # row potentials
    v = np.zeros(c + 1, dtype=np.int64)  # column potentials
    row_of = np.zeros(c + 1, dtype=np.intp)  # row matched to a column, 0 = none
    way = np.zeros(c + 1, dtype=np.intp)  # previous column on the path
    for i in range(1, r + 1):
        row_of[0] = i
        j0 = 0
        minv = np.full(c + 1, unreached)
        used = np.zeros(c + 1, dtype=bool)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            cur = cost[i0] - u[i0] - v
            better = ~used & (cur < minv)
            minv[better] = cur[better]
            way[better] = j0
            j1 = int(np.argmin(np.where(used, unreached, minv)))
            delta = minv[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    cols = np.flatnonzero(row_of[1:])
    return int(table[row_of[1:][cols] - 1, cols].sum())


def _labels_distance(lab1: np.ndarray, lab2: np.ndarray, k: int, n: int) -> float:
    table = np.zeros((k, k), dtype=np.int64)
    np.add.at(table, (lab1, lab2), 1)
    return (n - _max_agreement(table)) / n


def clustering_distance(c1: Clustering, c2: Clustering) -> float:
    """Fraction of points misclassified under the best cluster bijection.

    Unequal cluster counts are padded with empty clusters, which is what the
    square contingency table below encodes for free.
    """
    _require_partition(c1, c1.n)
    _require_partition(c2, c1.n)
    k = max(c1.k, c2.k, 1)
    return _labels_distance(c1.labels(), c2.labels(), k, c1.n)


# a chunk of the exhaustive walk is one head and every tail that can follow
# it; tails of 5 points keep a chunk under 40k partitions up to k = 12
_TAIL = 5


def _grow(masks: np.ndarray, used: np.ndarray, first_bit: int, steps: int, k: int):
    """Add points first_bit, ..., first_bit + steps - 1 to the partitions
    that are the columns of k block masks and use `used` blocks so far,
    keeping at most k blocks and the lexicographic order of label rows."""
    for bit in range(first_bit, first_bit + steps):
        fan = np.minimum(used + 1, k)  # the child labels run over 0..fan-1
        parent = np.repeat(np.arange(len(used)), fan)
        label = np.arange(len(parent)) - np.repeat(np.cumsum(fan) - fan, fan)
        masks = masks[:, parent]
        masks[label, np.arange(len(parent))] |= 1 << bit
        used = np.maximum(used[parent], label + 1)
    return masks, used


def _walk_size(n: int, k: int) -> int:
    """Entries of the stability walk's two float arrays: the 2^n subset
    table and one score per partition of range(n) into at most k blocks,
    the Stirling numbers S(n, j) summed over j <= k."""
    row = [1] + [0] * k  # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return (1 << n) + sum(row)


def partition_chunks(n: int, k: int):
    """All partitions of range(n) into at most k non-empty blocks, in chunks.

    Returns (heads, used, tails).  A partition is a column of `heads` or'd
    with one of `tails[c]`, where c = used[i] is the number of blocks head
    i uses: row j holds the bits of the points in block j, blocks numbered
    by their least point.  Heads and the tails of each c are in the
    lexicographic order of their label rows, so reading head by head and
    tail by tail gives every partition once in that order, which doubles
    as the tie-break order of the exhaustive walk.
    """
    t = min(n - 1, _TAIL)
    empty = np.zeros((k, 1), np.int64)  # no point in any block
    heads, used = _grow(empty, np.zeros(1, np.int64), 0, n - t, k)
    used = used.tolist()
    tails = {c: _grow(empty, np.array([c]), n - t, t, k)[0] for c in set(used)}
    return heads, used, tails


def _labels(masks: np.ndarray, n: int) -> np.ndarray:
    """The block of each of points 0..n-1 in block masks along axis 0."""
    return (masks[..., None] >> np.arange(n) & 1).argmax(axis=0)


def _members(labels, k: int) -> list[list[int]]:
    """Member lists, in label order, of a label tuple over 0..k-1."""
    clusters: list[list[int]] = [[] for _ in range(k)]
    for p, lab in enumerate(labels):
        clusters[lab].append(p)
    return clusters


@dataclass(frozen=True, eq=False)
class StructureReport:
    """Good/bad point classification against a reference clustering and
    the verdicts of the three structural conditions checked on it (see
    `classify_points`); `witnesses` holds the first violation of each part
    that fails."""

    n: int
    params: StabilityParams
    cluster_sizes: list[int]
    w: float  # average weight, equals the balanced objective / n
    weights: np.ndarray
    second_weights: np.ndarray
    good_sets: list[list[int]]
    bad_points: list[int]
    single_cluster: bool
    part1: bool
    part2: bool
    part3: bool
    witnesses: dict

    @property
    def b_observed(self) -> int:
        return len(self.bad_points)

    @property
    def bad_point_budget(self) -> float:
        return bad_point_budget(self.params, self.n)

    @property
    def all_ok(self) -> bool:
        return self.part1 and self.part2 and self.part3

    def to_dict(self):
        return {
            "n": self.n,
            "params": self.params.to_dict(),
            "w": self.w,
            "b_observed": self.b_observed,
            "bad_point_budget": self.bad_point_budget,
            "good_set_sizes": [len(x) for x in self.good_sets],
            "cluster_sizes": self.cluster_sizes,
            "single_cluster": self.single_cluster,
            "structure": {
                "part1": self.part1,
                "part2": self.part2,
                "part3": self.part3,
            },
            "witnesses": self.witnesses,
        }


def classify_points(
    m: MetricMatrix, c_star: Clustering, params: StabilityParams
) -> StructureReport:
    """Split points into good sets and bad points, then check parts 1-3.

    A point is good when its weight |C_i| d(x, c_i) is at most
    alpha w / (120 eps) and its second weight min_j |C_j| d(x, c_j) is at
    least alpha w / (4 eps).  For a single non-empty cluster the second
    weight is vacuous (+inf); the report flags that rather than inventing
    semantics.

    Part 1: each good set's diameter is at most alpha w / (60 eps |C_i|).
    Part 2: good sets i < j lie more than alpha w / (5 eps) / min(|C_i|,
    |C_j|) apart.  Part 3: the bad points fit `bad_point_budget`.  Parts 1
    and 2 check every pair of good points.  A failing part's witness is
    its first violating cluster (part 2: cluster pair i < j), with the
    first farthest (part 2: closest) pair there in row-major order.
    """
    _require_partition(c_star, m.n)
    n = m.n
    d = m.values
    obj = balanced_k_median(c_star, m)
    sizes = [len(members) for members in c_star.clusters]
    nonempty = [i for i, s in enumerate(sizes) if s]
    w = obj.value / n

    # row r: |C_i| d(c_i, x) for the r-th non-empty cluster i, every x
    medians = [obj.medians[i] for i in nonempty]
    products = np.array(sizes)[nonempty, None] * d[medians]
    own = np.searchsorted(nonempty, c_star.labels()), np.arange(n)
    weights = products[own]
    products[own] = math.inf
    second = products.min(axis=0)

    alpha, eps = params.alpha, params.epsilon
    good_cap = alpha * w / (120.0 * eps)
    second_floor = alpha * w / (4.0 * eps)
    good = (weights <= good_cap) & (second >= second_floor)
    good_sets = [
        [p for p in members if good[p]] for members in c_star.clusters
    ]
    bad = [int(p) for p in np.nonzero(~good)[0]]

    witnesses: dict = {}
    for i, members in enumerate(good_sets):
        if len(members) < 2:
            continue
        sub = d[np.ix_(members, members)]
        mx = float(sub.max())
        bound = alpha * w / (60.0 * eps * sizes[i])
        if mx > bound:
            a, b = np.unravel_index(int(np.argmax(sub)), sub.shape)
            witnesses["part1"] = {
                "cluster": i,
                "pair": [members[int(a)], members[int(b)]],
                "distance": mx,
                "bound": bound,
            }
            break
    occupied = [i for i, x in enumerate(good_sets) if x]
    for i, j in itertools.combinations(occupied, 2):
        cross = d[np.ix_(good_sets[i], good_sets[j])]
        mn = float(cross.min())
        bound = alpha * w / (5.0 * eps) / min(sizes[i], sizes[j])
        if not mn > bound:
            a, b = np.unravel_index(int(np.argmin(cross)), cross.shape)
            witnesses["part2"] = {
                "clusters": [i, j],
                "pair": [good_sets[i][int(a)], good_sets[j][int(b)]],
                "distance": mn,
                "bound": bound,
            }
            break
    budget = bad_point_budget(params, n)
    if len(bad) > budget:
        witnesses["part3"] = {"b_observed": len(bad), "budget": budget}
    return StructureReport(
        n=n,
        params=params,
        cluster_sizes=sizes,
        w=w,
        weights=weights,
        second_weights=second,
        good_sets=good_sets,
        bad_points=bad,
        single_cluster=len(nonempty) <= 1,
        part1="part1" not in witnesses,
        part2="part2" not in witnesses,
        part3="part3" not in witnesses,
        witnesses=witnesses,
    )


@dataclass
class StabilityVerdict:
    holds: bool
    optimum: float
    counterexample: Clustering | None = None
    counterexample_value: float | None = None
    counterexample_distance: float | None = None

    def __bool__(self):
        return self.holds


def _subset_table(d: np.ndarray, k: int, objective: str) -> np.ndarray:
    """w[mask]: the one-block score of each subset of range(n), w[0] = 0.0.

    k = 1 has one block, so only the full set is scored; any larger k puts
    every subset in some partition.  Subsets are scored in batches of one
    block size and at most `_BATCH` gathered distances, each block with
    its members in ascending order, as the objective scores a cluster.
    """
    score = _OBJECTIVES[objective]
    n = len(d)
    w = np.zeros(1 << n)
    # a mask is a pattern of its `low` low bits under a pattern `high` of
    # the others; lows[c] holds the low patterns of c points, ascending
    low = min(n, _LOW_BITS)
    ones = np.zeros(1, np.intp)
    for _ in range(low):
        ones = np.concatenate([ones, ones + 1])
    lows = [np.flatnonzero(ones == c) for c in range(low + 1)]
    bits = np.left_shift(1, np.arange(n))
    for high in range(1 << (n - low)):
        for c, pattern in enumerate(lows):
            m = bin(high).count("1") + c
            if m == 0 or k == 1 and m < n:
                continue
            masks = pattern | high << low
            # a batch gathers (step, m, m) distances from (step, n) bits
            step = max(1, _BATCH // max(m * m, n))
            for start in range(0, len(masks), step):
                batch = masks[start:start + step]
                # row-major, so each mask's members come out ascending
                idx = np.nonzero(batch[:, None] & bits)[1].reshape(-1, m)
                w[batch] = score(d[idx[:, :, None], idx[:, None, :]])[0]
    return w


def verify_stability(
    m: MetricMatrix,
    target: Clustering,
    k: int,
    params: StabilityParams,
    objective: str = "balanced_k_median",
) -> StabilityVerdict:
    """Exhaustively test the approximation-stability implication.

    Every clustering within factor (1 + alpha) of the optimum must be
    within distance epsilon of the target; returns the first counterexample
    otherwise.  Refuses, with a `ParameterError` and before building any
    array, a walk that would hold more than `_WALK_LIMIT` scores.

    Each subset a partition can use is scored once, in numpy batches of
    one block size (`_subset_table`); a partition's score sums those of
    its blocks, read by their bit masks, and only the partitions within
    the limit are decoded to labels.  What remains in Python is one loop
    step per chunk of partitions and one per partition within the limit,
    so the walk costs its partitions.
    """
    n = m.n
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if objective not in _OBJECTIVES:
        raise ParameterError(f"unknown objective {objective!r}")
    # from n = 23 on 2^n alone is past the limit: no partitions are counted
    size = _walk_size(n, k) if n < _WALK_LIMIT.bit_length() else None
    if size is None or size > _WALK_LIMIT:
        raise ParameterError(
            f"stability check refused: its walk at n={n}, k={k} holds "
            f"{size or f'more than 2^{n}'} scores, over the limit of "
            f"{_WALK_LIMIT}"
        )
    _require_partition(target, m.n)
    w = _subset_table(m.values, k, objective)
    # a partition scores w over its blocks in label order (an empty block
    # reads w[0] = 0.0), the IEEE order of the objective's own running sum
    heads, used, tails = partition_chunks(n, k)
    offsets = np.cumsum([0] + [tails[c].shape[1] for c in used]).tolist()
    # one score per partition (8 bytes each), then a replay of the walk
    # beside them: the first partition within the limit and too far from
    # the target is the counterexample
    scores = np.empty(offsets[-1])
    for i, c in enumerate(used):
        chunk = scores[offsets[i]:offsets[i + 1]]
        np.take(w, heads[0, i] | tails[c][0], out=chunk)
        for j in range(1, k):
            chunk += w[heads[j, i] | tails[c][j]]
    opt = float(scores.min())
    limit = (1.0 + params.alpha) * opt
    kk = max(k, target.k)
    target_labels = target.labels()
    for i, c in enumerate(used):
        start = offsets[i]
        for r in np.flatnonzero(scores[start:offsets[i + 1]] <= limit).tolist():
            labels = _labels(heads[:, i] | tails[c][:, r], n)
            dist = _labels_distance(labels, target_labels, kk, n)
            if not dist < params.epsilon:
                return StabilityVerdict(
                    holds=False,
                    optimum=opt,
                    counterexample=Clustering(n=n, clusters=_members(labels, k)),
                    counterexample_value=float(scores[start + r]),
                    counterexample_distance=dist,
                )
    return StabilityVerdict(holds=True, optimum=opt)


def embed_kmeans_baseline(
    source: DistanceSource,
    d_landmarks: int,
    k: int,
    seed: int = 0,
    max_iters: int = 100,
) -> Clustering:
    """Embed points by their distances to d sampled landmarks, then Lloyd.

    Uses exactly d_landmarks one-versus-all queries.  Centers start as a
    uniform sample of distinct points; iteration stops at an assignment
    fixpoint or after max_iters (at least 1) rounds.  Points with infinite
    coordinates are assigned by their finite coordinates only and sit out
    centroid updates.
    """
    n = source.n
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if max_iters < 1:  # with no iteration no point would get a label
        raise ParameterError(f"need max_iters >= 1, got {max_iters}")
    table = build_landmark_table(source, sample_landmarks(n, d_landmarks, seed))
    emb = table.rows.T.copy()  # point i -> distances to the d landmarks

    warnings = []
    finite = np.isfinite(emb)
    clean = finite.all(axis=1)
    if not clean.all():
        warnings.append(f"points_with_infinite_coordinates:{int((~clean).sum())}")
    emb_z = np.where(finite, emb, 0.0)

    rng = np.random.default_rng([seed, 1])
    # prefer fully-finite points as initial centers when there are enough
    pool = np.nonzero(clean)[0] if clean.sum() >= k else np.arange(n)
    init = rng.choice(pool, size=k, replace=False)
    centers = emb_z[init].astype(np.float64)

    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        dist2 = np.empty((n, k))
        for j in range(k):
            diff = emb_z - centers[j]
            dist2[:, j] = np.where(finite, diff * diff, 0.0).sum(axis=1)
        new_labels = np.argmin(dist2, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = clean & (labels == j)
            if members.any():
                centers[j] = emb_z[members].mean(axis=0)
    return Clustering(n=n, clusters=_members(labels, k), warnings=warnings)
