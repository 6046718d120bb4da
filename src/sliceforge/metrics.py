"""Confusion counts, the six binary-classification metrics, fold aggregation
and the fixed report cell formats.

Metric definitions over TP/FP/TN/FN:
    accuracy    = (TP+TN) / (TP+TN+FP+FN)
    sensitivity = TP / (TP+FN)            (recall)
    specificity = TN / (TN+FP)
    precision   = TP / (TP+FP)
    f1          = 2*TP / (2*TP+FP+FN)     (harmonic mean of precision and recall)
    mcc         = (TP*TN - FP*FN) / sqrt((TP+FP)(TP+FN)(TN+FP)(TN+FN))

Any metric whose denominator is zero is reported as 0.0 and named in
``zero_denominator_flags``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ShapeError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise DataError("confusion counts must be nonnegative")

    @classmethod
    def from_pairs(cls, labels, preds) -> "ConfusionCounts":
        """Counts over paired 0/1 true labels and predictions."""
        y = np.asarray(labels)
        p = np.asarray(preds)
        if y.shape != p.shape:
            raise ShapeError(f"labels shape {y.shape} != predictions shape {p.shape}")
        return cls(
            tp=int(np.sum((p == 1) & (y == 1))),
            fp=int(np.sum((p == 1) & (y == 0))),
            tn=int(np.sum((p == 0) & (y == 0))),
            fn=int(np.sum((p == 0) & (y == 1))),
        )

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


METRIC_NAMES = ("accuracy", "sensitivity", "specificity", "precision", "f1", "mcc")

# column headers used by the rendered tables
METRIC_LABELS = {
    "accuracy": "Accuracy",
    "sensitivity": "Sensitivity (Recall)",
    "specificity": "Specificity",
    "precision": "Precision",
    "f1": "F1-Score",
    "mcc": "MCC",
}


@dataclass
class MetricsReport:
    accuracy: float
    sensitivity: float
    specificity: float
    precision: float
    f1: float
    mcc: float
    zero_denominator_flags: tuple = ()


def _ratio(num: int, den: int, name: str, flags: list) -> float:
    if den == 0:
        flags.append(name)
        return 0.0
    return num / den


def compute_metrics(c: ConfusionCounts) -> MetricsReport:
    if c.total < 1:
        raise DataError("all-zero confusion counts")
    flags: list = []
    accuracy = (c.tp + c.tn) / c.total
    sensitivity = _ratio(c.tp, c.tp + c.fn, "sensitivity", flags)
    specificity = _ratio(c.tn, c.tn + c.fp, "specificity", flags)
    precision = _ratio(c.tp, c.tp + c.fp, "precision", flags)
    f1 = _ratio(2 * c.tp, 2 * c.tp + c.fp + c.fn, "f1", flags)
    denom_sq = (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    if denom_sq == 0:
        flags.append("mcc")
        mcc = 0.0
    else:
        mcc = (c.tp * c.tn - c.fp * c.fn) / math.sqrt(denom_sq)
    return MetricsReport(
        accuracy=accuracy,
        sensitivity=sensitivity,
        specificity=specificity,
        precision=precision,
        f1=f1,
        mcc=mcc,
        zero_denominator_flags=tuple(flags),
    )


def mean_std(values: list) -> tuple[float, float]:
    """Mean and population standard deviation of a nonempty list."""
    mean = sum(values) / len(values)
    return mean, math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def aggregate_folds(reports: list) -> dict:
    """Per-metric (mean, population std) over fold reports."""
    if not reports:
        raise DataError("no fold reports to aggregate")
    return {name: mean_std([getattr(r, name) for r in reports]) for name in METRIC_NAMES}


def format_aggregate_cell(mean: float, std: float) -> str:
    """Four-decimal "mean±std" cell."""
    return f"{mean:.4f}±{std:.4f}"


def format_fold_cell(fraction: float) -> str:
    """Two-decimal percentage cell, e.g. 0.7445 -> "74.45%"."""
    return f"{fraction * 100:.2f}%"


def render_aggregate_table(aggregate: dict) -> str:
    """Markdown row of the six metrics as mean±std."""
    headers = [METRIC_LABELS[name] for name in METRIC_NAMES]
    cells = [format_aggregate_cell(*aggregate[name]) for name in METRIC_NAMES]
    return _markdown_table(headers, cells)


def render_folds_table(fold_accuracies: list) -> str:
    """Markdown row of best validation accuracy per fold, percent format."""
    headers = [f"Fold-{i + 1}" for i in range(len(fold_accuracies))]
    cells = [format_fold_cell(v) for v in fold_accuracies]
    return _markdown_table(headers, cells)


def _markdown_table(headers: list, cells: list) -> str:
    return (
        "| " + " | ".join(headers) + " |\n"
        + "| " + " | ".join("---" for _ in headers) + " |\n"
        + "| " + " | ".join(cells) + " |\n"
    )
