import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import metrics_from_pairs, pairs_for_counts
from sliceforge.errors import DataError, ShapeError
from sliceforge.metrics import (
    METRIC_NAMES,
    ConfusionCounts,
    MeanStd,
    aggregate_folds,
    compute_metrics,
)
from sliceforge.tensor import format_json

# (tp, fp, tn, fn) with at least one entry
tables = st.tuples(*[st.integers(0, 30)] * 4).filter(lambda c: sum(c) > 0)


@given(tables)
@settings(max_examples=200, deadline=None)
def test_compute_metrics_matches_pair_oracle(table):
    want = metrics_from_pairs(*pairs_for_counts(*table))
    got = compute_metrics(ConfusionCounts(*table))
    for name in METRIC_NAMES:
        assert getattr(got, name) == want[name], name


@given(tables, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_from_pairs_recovers_the_table(table, rnd):
    labels, preds = pairs_for_counts(*table)
    order = list(range(len(labels)))
    rnd.shuffle(order)
    counts = ConfusionCounts.from_pairs([labels[i] for i in order], [preds[i] for i in order])
    want = metrics_from_pairs(labels, preds)
    assert counts == ConfusionCounts(*table)
    assert json.loads(format_json(counts)) == {k: want[k] for k in ("tp", "fp", "tn", "fn")}


@given(st.lists(tables, min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_aggregate_folds_matches_numpy(fold_tables):
    reports = [compute_metrics(ConfusionCounts(*t)) for t in fold_tables]
    got = aggregate_folds(reports)
    assert tuple(f.name for f in dataclasses.fields(got)) == METRIC_NAMES
    for name in METRIC_NAMES:
        values = np.array([getattr(r, name) for r in reports])
        cell = getattr(got, name)
        assert isinstance(cell, MeanStd)
        assert cell.mean == pytest.approx(values.mean(), rel=1e-12, abs=1e-15), name
        assert cell.std == pytest.approx(values.std(ddof=0), rel=1e-9, abs=1e-12), name


def test_rejections():
    with pytest.raises(DataError):
        compute_metrics(ConfusionCounts(0, 0, 0, 0))
    with pytest.raises(DataError):
        aggregate_folds([])
    with pytest.raises(ShapeError):
        ConfusionCounts.from_pairs([0, 1], [1])
