"""Statistical clustering toolkit for herd phenotype tables: descriptive
statistics, correlation-driven feature selection, seeded k-means with
elbow-based k selection, and ANOVA/Tukey-HSD cluster evaluation."""

__version__ = "0.1.0"

from .errors import (
    DegenerateInputError,
    HerdClusterError,
    NumericalError,
    ValidationError,
)
from .dataset import (
    DescriptiveStats,
    HerdTable,
    ScoreSummary,
    aggregate_scores,
    describe,
    describe_all,
    load_table,
)
from .stats import (
    CorrelationMatrix,
    FeatureSelection,
    StandardizedMatrix,
    correlation_matrix,
    pearson_r,
    select_features,
    zscore,
)
from .clustering import (
    ElbowResult,
    KMeansConfig,
    KMeansModel,
    assign,
    detect_knee,
    elbow_scan,
    kmeans_fit,
    order_clusters,
)
from .inference import (
    AnovaResult,
    TukeyResult,
    f_cdf,
    ln_gamma,
    one_way_anova,
    reg_inc_beta,
    studentized_range_cdf,
    studentized_range_ppf,
    tukey_hsd,
)
from .pipeline import PRESETS, PipelineConfig, RunReport, run_pipeline

__all__ = [
    "AnovaResult",
    "CorrelationMatrix",
    "DegenerateInputError",
    "DescriptiveStats",
    "ElbowResult",
    "FeatureSelection",
    "HerdClusterError",
    "HerdTable",
    "KMeansConfig",
    "KMeansModel",
    "NumericalError",
    "PRESETS",
    "PipelineConfig",
    "RunReport",
    "ScoreSummary",
    "StandardizedMatrix",
    "TukeyResult",
    "ValidationError",
    "aggregate_scores",
    "assign",
    "correlation_matrix",
    "describe",
    "describe_all",
    "detect_knee",
    "elbow_scan",
    "f_cdf",
    "kmeans_fit",
    "ln_gamma",
    "load_table",
    "one_way_anova",
    "order_clusters",
    "pearson_r",
    "reg_inc_beta",
    "run_pipeline",
    "select_features",
    "studentized_range_cdf",
    "studentized_range_ppf",
    "tukey_hsd",
    "zscore",
]
