"""sliceforge: training and evaluation stack for binary classification of 2D
slice stacks, with subject-level cross-validation and leakage auditing."""

__version__ = "0.1.0"

from .data import (
    AugmentConfig,
    DatasetManifest,
    SliceSet,
    SubjectRecord,
    augment,
    generate_synthetic,
    load_manifest,
    load_slice_set,
    save_manifest,
    scale_normalize,
)
from .metrics import (
    ConfusionCounts,
    MetricsReport,
    aggregate_folds,
    compute_metrics,
    format_aggregate_cell,
    format_fold_cell,
)
from .model import (
    Model,
    ModelConfig,
    build_model,
    extract_activation,
    forward,
    load_model,
    maximize_activation,
    predict_labels,
    save_model,
)
from .splits import AuditReport, SplitPlan, audit_split, kfold_split, slice_kfold_split
from .training import (
    FitResult,
    History,
    TrainConfig,
    bce_loss,
    clip_gradients,
    evaluate,
    evaluate_subject_vote,
    fit,
    lr_for_epoch,
    predict,
    sgd_step,
)
