"""Synthetic instances with planted core structure, plus adversarial ones.

Cores are tight balls whose diameters scale inversely with their sizes
(size * diameter <= theta), separated far enough that the structural
conditions verify for the stability parameters the generator declares.
Euclidean embedding guarantees the triangle inequality by construction.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    GenerationError,
    ParameterError,
    open_input,
    open_output,
)
from .evaluation import _members, balanced_k_median
from .landmark import Clustering, StabilityParams, _non_negative_int, _record_from_dict
from .metric import MetricMatrix, _label_sort_key, euclidean_rows

# Declared effective size*diameter scale is this multiple of the requested
# theta: generous enough that every core point classifies as good even with
# off-center medians and attached bad points.
EFFECTIVE_THETA_FACTOR = 6.0

# Separation between good sets must exceed (separation numerator)/(min size);
# the second-weight floor needs 15x the effective theta, which dominates.
_SECOND_WEIGHT_MULTIPLE = 15.0

ADVERSARIAL_KINDS = ("uniform", "single_outlier_cluster", "duplicate_points")


@dataclass(frozen=True)
class InstanceSpec:
    sizes: tuple[int, ...]
    theta: float
    separation_factor: float = 1.5
    bad_fraction: float = 0.0
    embed_dim: int | None = None
    seed: int = 0
    theta_per_cluster: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ParameterError(f"sizes must be positive, got {self.sizes}")
        # written so that NaN fails every bound
        if not 0 < self.theta < math.inf:
            raise ParameterError(
                f"theta must be positive and finite, got {self.theta}"
            )
        if not 1.0 <= self.separation_factor < math.inf:
            raise ParameterError(
                "separation_factor must be finite and >= 1, "
                f"got {self.separation_factor}"
            )
        if not 0.0 <= self.bad_fraction < 1.0:
            raise ParameterError("bad_fraction must be in [0,1)")
        if self.theta_per_cluster is not None:
            if len(self.theta_per_cluster) != len(self.sizes):
                raise ParameterError("theta_per_cluster must match sizes")
            if not all(0 < t < math.inf for t in self.theta_per_cluster):
                raise ParameterError(
                    "theta_per_cluster entries must be positive and finite"
                )
        if self.embed_dim is not None and self.embed_dim < 1:
            raise ParameterError("embed_dim must be >= 1")

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def dim(self) -> int:
        return self.embed_dim if self.embed_dim is not None else max(2, self.k)

    def thetas(self) -> tuple[float, ...]:
        if self.theta_per_cluster is not None:
            return self.theta_per_cluster
        return tuple(self.theta for _ in self.sizes)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return _record_from_dict(cls, d)


@dataclass
class Instance:
    matrix: MetricMatrix
    target: Clustering
    core_members: list[list[int]]
    spec: InstanceSpec | None = None
    stability: StabilityParams | None = None
    points: np.ndarray | None = None
    kind: str = "generated"

    @property
    def n(self) -> int:
        return self.matrix.n


def _required_center_gaps(spec: InstanceSpec, effective_theta: float) -> np.ndarray:
    k = spec.k
    thetas = spec.thetas()
    radii = [thetas[i] / (2.0 * spec.sizes[i]) for i in range(k)]
    gaps = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            sep = (
                spec.separation_factor
                * _SECOND_WEIGHT_MULTIPLE
                * effective_theta
                / min(spec.sizes[i], spec.sizes[j])
            )
            gaps[i, j] = gaps[j, i] = sep + 2.0 * (radii[i] + radii[j])
    return gaps


def _place_centers(spec: InstanceSpec, gaps: np.ndarray, rng) -> np.ndarray:
    k, dim = spec.k, spec.dim
    if k == 1:
        return np.zeros((1, dim))
    if dim >= k:
        # one center per axis at the largest gap it participates in
        t = gaps.max(axis=1)
        centers = np.zeros((k, dim))
        centers[np.arange(k), np.arange(k)] = t
        return centers
    if dim == 1:
        # cumulative steps along the line satisfy every pairwise gap
        t = np.zeros(k)
        for i in range(1, k):
            t[i] = t[i - 1] + gaps[i, :i].max()
        return t[:, None]
    # mid-dimensional fallback: rejection sampling in a growing box
    scale = gaps.max() * k ** (1.0 / dim)
    for attempt in range(200 * k):
        if attempt and attempt % (50 * k) == 0:
            scale *= 1.5
        centers = rng.uniform(0.0, scale, size=(k, dim))
        if not any(
            np.linalg.norm(centers[i] - centers[j]) < gaps[i, j]
            for i, j in itertools.combinations(range(k), 2)
        ):
            return centers
    raise GenerationError(
        f"could not separate {k} cores in {dim} dimensions; increase embed_dim"
    )


def _sample_ball(center: np.ndarray, radius: float, count: int, rng) -> np.ndarray:
    dim = center.shape[0]
    g = rng.standard_normal((count, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * rng.uniform(0.0, 1.0, size=count) ** (1.0 / dim)
    return center + g * r[:, None]


def _euclidean_matrix(points: np.ndarray) -> MetricMatrix:
    return MetricMatrix(euclidean_rows(points, slice(None)), copy=False)


def generate(spec: InstanceSpec) -> Instance:
    """Generate a planted-core instance with declared stability parameters.

    Core i holds sizes[i] points within radius theta_i / (2 sizes[i]) of its
    center; bad points fall uniformly in the bounding box of the cores and
    join the target cluster of their nearest core center.  The declared
    (alpha, epsilon) tie the realized average weight to the effective theta,
    so the classification thresholds land where the construction expects.
    """
    rng = np.random.default_rng(spec.seed)
    thetas = spec.thetas()
    effective_theta = EFFECTIVE_THETA_FACTOR * max(thetas)
    gaps = _required_center_gaps(spec, effective_theta)
    centers = _place_centers(spec, gaps, rng)

    core_points = np.vstack([
        _sample_ball(centers[i], thetas[i] / (2.0 * size), size, rng)
        for i, size in enumerate(spec.sizes)
    ])
    ends = itertools.accumulate(spec.sizes)
    core_members = [list(range(end - size, end)) for end, size in zip(ends, spec.sizes)]

    n_bad = int(math.floor(spec.bad_fraction * core_points.shape[0]))
    if n_bad:
        lo = core_points.min(axis=0)
        hi = core_points.max(axis=0)
        bad_points = rng.uniform(lo, hi, size=(n_bad, spec.dim))
        points = np.vstack([core_points, bad_points])
    else:
        points = core_points
    n = points.shape[0]

    clusters = [list(members) for members in core_members]
    if n_bad:
        bad_ids = range(core_points.shape[0], n)
        to_center = np.linalg.norm(
            points[core_points.shape[0]:, None, :] - centers[None, :, :], axis=2
        )
        nearest = np.argmin(to_center, axis=1)
        for pid, c in zip(bad_ids, nearest):
            clusters[int(c)].append(int(pid))
    target = Clustering(n=n, clusters=[sorted(c) for c in clusters])

    matrix = _euclidean_matrix(points)

    w = balanced_k_median(target, matrix).value / n
    stability = None
    if w > 0:
        epsilon = w / (60.0 * effective_theta)  # alpha = 1 canonical
        if epsilon < 1.0:
            stability = StabilityParams(alpha=1.0, epsilon=epsilon)
        else:
            raise GenerationError(
                "realized weights too large to declare stability; "
                "lower bad_fraction or raise theta"
            )
    return Instance(
        matrix=matrix,
        target=target,
        core_members=core_members,
        spec=spec,
        stability=stability,
        points=points,
    )


def ideal_threshold(inst: Instance) -> float:
    """The known-optimum threshold alpha w / (40 eps) for a generated instance."""
    if inst.stability is None:
        raise ParameterError("instance has no declared stability parameters")
    p = inst.stability
    w = balanced_k_median(inst.target, inst.matrix).value / inst.n
    return p.alpha * w / (40.0 * p.epsilon)


def plant_landmarks(inst: Instance, per_core: int = 1, seed: int = 0) -> list[int]:
    """Pick per_core members from every planted core, deterministically."""
    if per_core < 1:
        raise ParameterError("per_core must be >= 1")
    rng = np.random.default_rng(seed)
    chosen: list[int] = []
    for i, members in enumerate(inst.core_members):
        if len(members) < per_core:
            raise ParameterError(
                f"core {i} has {len(members)} members, need {per_core}"
            )
        chosen.extend(
            int(x) for x in rng.choice(members, size=per_core, replace=False)
        )
    return chosen


def generate_adversarial(kind: str, n: int, k: int, seed: int = 0) -> Instance:
    """Degenerate instances for robustness paths (warnings, padding, ties)."""
    if kind not in ADVERSARIAL_KINDS:
        raise ParameterError(f"unknown adversarial kind {kind!r}")
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        values = np.ones((n, n))
        np.fill_diagonal(values, 0.0)
        matrix = MetricMatrix(values, copy=False)
        clusters = [sorted(range(i, n, k)) for i in range(k)]
        target = Clustering(n=n, clusters=clusters)
        return Instance(matrix, target, clusters, kind=kind)
    if kind == "single_outlier_cluster":
        # a blob of at least one point and an outlier group of at least two
        if k != 2 or n < 3:
            raise ParameterError(
                f"single_outlier_cluster needs k = 2 and n >= 3, got k={k}, n={n}"
            )
        m_out = max(2, n // 10)
        blob = rng.normal(0.0, 1.0, size=(n - m_out, 2))
        outliers = rng.normal(0.0, 0.05, size=(m_out, 2)) + np.array([500.0, 0.0])
        points = np.vstack([blob, outliers])
        matrix = _euclidean_matrix(points)
        clusters = [list(range(n - m_out)), list(range(n - m_out, n))]
        target = Clustering(n=n, clusters=clusters)
        return Instance(matrix, target, clusters, points=points, kind=kind)
    # duplicate_points: k well-separated locations, each repeated
    base = np.zeros((k, 2))
    base[:, 0] = np.arange(k) * 100.0
    reps = [n // k + (1 if i < n % k else 0) for i in range(k)]
    points = np.repeat(base, reps, axis=0)
    matrix = _euclidean_matrix(points)
    ends = itertools.accumulate(reps)
    clusters = [list(range(end - r, end)) for end, r in zip(ends, reps)]
    target = Clustering(n=n, clusters=clusters)
    return Instance(matrix, target, clusters, points=points, kind=kind)


def save_bundle(inst: Instance, directory) -> None:
    """Write matrix CSV + label CSV + instance JSON into one directory.

    The matrix goes to `matrix.csv` through `MetricMatrix.to_csv`, which
    also writes its binary twin `matrix.csv.f8`.
    """
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. the path is an existing file
        raise DataError(f"{directory}: cannot write: {exc.strerror}") from None
    inst.matrix.to_csv(directory / "matrix.csv")
    write_labels_csv(directory / "labels.csv", inst.target.labels())
    meta = {
        "kind": inst.kind,
        "spec": inst.spec.to_dict() if inst.spec is not None else None,
        "stability": inst.stability.to_dict() if inst.stability else None,
        "core_members": inst.core_members,
    }
    with open_output(directory / "instance.json") as fh:
        json.dump(meta, fh, indent=2)


def write_labels_csv(path, labels_by_point) -> None:
    """Write the `point_id,cluster_label` file, header line first."""
    with open_output(path) as fh:
        fh.write("point_id,cluster_label\n")
        for pid, lab in enumerate(labels_by_point):
            fh.write(f"{pid},{lab}\n")


def read_target_labels(path, n: int) -> Clustering:
    """The clustering a `point_id,cluster_label` file gives points 0..n-1.

    Blank lines are skipped, and the first other line is a header if its id
    is not an integer.  Every point must have exactly one label and no id
    may lie outside [0, n).  Labels are compared as written, so `7` and
    `007` are two clusters.  Clusters follow the order `read_pair_file`
    gives ids: integer labels numerically, then the others lexicographically.
    """
    labels: dict[int, str] = {}
    first = True
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            may_be_header, first = first, False
            parts = line.split(",")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 2 columns")
            try:
                pid = int(parts[0])
            except ValueError:
                if may_be_header:
                    continue
                raise DataError(f"{path}:{lineno}: bad point id {parts[0]!r}")
            if pid in labels:
                raise DataError(f"{path}:{lineno}: duplicate point id {pid}")
            labels[pid] = parts[1]
    if not labels:
        raise DataError(f"{path}: empty label file")
    outside = sorted(p for p in labels if not 0 <= p < n)
    if outside:
        raise DataError(f"{path}: point id {outside[0]} outside [0,{n})")
    missing = [i for i in range(n) if i not in labels]
    if missing:
        raise DataError(f"{path}: label file misses point {missing[0]}")
    order = sorted(set(labels.values()), key=_label_sort_key)
    index = {lab: i for i, lab in enumerate(order)}
    return Clustering(
        n=n, clusters=_members([index[labels[p]] for p in range(n)], len(order))
    )


def load_bundle(directory) -> Instance:
    """Read a `save_bundle` directory back into an `Instance`.

    The matrix comes from `MetricMatrix.from_csv`, so from the binary twin
    while it matches `matrix.csv`; `instance.json` may be absent.
    """
    directory = Path(directory)
    matrix = MetricMatrix.from_csv(directory / "matrix.csv")
    target = read_target_labels(directory / "labels.csv", matrix.n)
    meta_path = directory / "instance.json"
    spec = None
    stability = None
    cores: list[list[int]] = [list(c) for c in target.clusters]
    kind = "generated"
    if meta_path.exists():
        try:
            with open_input(meta_path) as fh:
                meta = json.load(fh)
            if not isinstance(meta, dict):
                raise DataError(f"{meta_path}: expected a JSON object")
            if meta.get("spec"):
                spec = InstanceSpec.from_dict(meta["spec"])
            if meta.get("stability"):
                stability = StabilityParams.from_dict(meta["stability"])
            if meta.get("core_members"):
                cores = [
                    [_non_negative_int(x) for x in c] for c in meta["core_members"]
                ]
                outside = [x for c in cores for x in c if x >= matrix.n]
                if outside:
                    raise DataError(
                        f"{meta_path}: core member {outside[0]} outside "
                        f"[0,{matrix.n})"
                    )
            kind = meta.get("kind", "generated")
        except KeyError as exc:
            raise DataError(f"{meta_path}: missing field {exc}") from None
        except (TypeError, ValueError, ParameterError) as exc:
            raise DataError(f"{meta_path}: bad instance JSON: {exc}") from None
    return Instance(matrix, target, cores, spec=spec, stability=stability,
                    kind=kind)
