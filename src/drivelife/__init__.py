"""drivelife: storage-fleet reliability analysis and failure prediction.

Reconstructs drive lifecycles from daily telemetry (HDD SMART snapshots,
canonical SSD activity logs), reproduces fleet characterization
statistics, and trains/evaluates interpretable failure predictors with
lookahead labeling, drive-grouped cross-validation, and attribute-based
dataset partitioning. A deterministic synthetic generator plants known
effects so the whole pipeline can be validated at desk scale.
"""

__version__ = "0.1.0"

from .ingest import (
    FleetDataset,
    HddDailyRecord,
    SsdDailyRecord,
    SchemaError,
    parse_hdd_csv,
    parse_ssd_log,
    filter_hdd,
    write_hdd_csv,
    write_ssd_csv,
)
from .lifecycle import (
    CensoredSample,
    FailureEvent,
    FailureTable,
    OperationalPeriod,
    PeriodTable,
    RepairSpell,
    build_repair_spells,
    censored_cdf,
    detect_failures,
    extract_operational_periods,
    failure_count_distribution,
    repair_stats,
)
from .charstats import (
    CorrelationMatrix,
    RateCurve,
    hfh_threshold_sweep,
    monthly_failure_rate,
    pe_binned_failure_rate,
    prefailure_error_percentiles,
    prefailure_error_probability,
    spearman,
    spearman_matrix,
    write_intensity_quartiles,
)
from .featurize import (
    FeatureMatrix,
    LabeledExamples,
    PartitionRule,
    label_lookahead,
    make_features,
    make_features_hdd,
    make_features_ssd,
    partition_dataset,
)
from .learners import (
    ForestModel,
    ForestParams,
    ImportanceRanking,
    LogisticModel,
    TreeModel,
    TreeNode,
    TreeParams,
    feature_importance,
    model_from_json,
    model_to_json,
    predict_proba,
    train_forest,
    train_logistic,
    train_tree,
)
from .evaluation import (
    ConfusionMatrix,
    EvalReport,
    FoldAssignment,
    ModelSpec,
    PartitionedReport,
    RocCurve,
    auroc,
    confusion_at_threshold,
    cross_model_matrix,
    cross_validated_eval,
    kfold_by_drive,
    lookahead_sweep,
    partitioned_eval,
    roc_curve,
    tpr_vs_attribute,
    undersample,
)
from .synth import (
    BurstSpec,
    ConfounderSpec,
    SynthConfig,
    generate_fleet,
    verify_fleet,
)
