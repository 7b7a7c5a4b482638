"""Landmark-based min-sum clustering under a one-versus-all query budget."""

__version__ = "0.1.0"

from .errors import (
    BudgetExhaustedError,
    DataError,
    GenerationError,
    InvariantViolation,
    LandmarkMinsumError,
    ParameterError,
)
from .evaluation import (
    ObjectiveValue,
    StabilityVerdict,
    StructureReport,
    balanced_k_median,
    classify_points,
    clustering_distance,
    embed_kmeans_baseline,
    min_sum,
    verify_stability,
)
from .generate import (
    Instance,
    InstanceSpec,
    generate,
    generate_adversarial,
    ideal_threshold,
    load_bundle,
    plant_landmarks,
    read_target_labels,
    save_bundle,
    write_labels_csv,
)
from .landmark import (
    Clustering,
    LandmarkTable,
    StabilityParams,
    assign_remainder,
    build_landmark_table,
    cluster_min_sum,
    landmark_count_for,
    sample_landmarks,
    threshold_from_opt,
)
from .metric import (
    INFINITE_DISTANCE,
    DistanceSource,
    MatrixDistanceSource,
    MetricMatrix,
    MetricReport,
    PointCloudDistanceSource,
    QueryLedger,
    check_metric,
    ingest_similarity,
    read_pair_file,
)
from .sweep import (
    SweepResult,
    stop_bound_from,
    sweep,
)

__all__ = [
    "__version__",
    # errors
    "LandmarkMinsumError", "ParameterError", "DataError",
    "BudgetExhaustedError", "GenerationError", "InvariantViolation",
    # metric core
    "QueryLedger", "DistanceSource", "MatrixDistanceSource",
    "PointCloudDistanceSource", "MetricMatrix", "MetricReport",
    "check_metric", "ingest_similarity", "read_pair_file",
    "INFINITE_DISTANCE",
    # landmark algorithm
    "StabilityParams", "LandmarkTable", "Clustering",
    "sample_landmarks", "landmark_count_for", "build_landmark_table",
    "cluster_min_sum", "assign_remainder", "threshold_from_opt",
    # threshold sweep
    "SweepResult", "sweep", "stop_bound_from",
    # evaluation
    "ObjectiveValue", "min_sum", "balanced_k_median", "clustering_distance",
    "classify_points", "verify_stability", "embed_kmeans_baseline",
    "StructureReport", "StabilityVerdict",
    # instance generation
    "InstanceSpec", "Instance", "generate", "generate_adversarial",
    "plant_landmarks", "ideal_threshold", "save_bundle", "load_bundle",
    "read_target_labels", "write_labels_csv",
]
