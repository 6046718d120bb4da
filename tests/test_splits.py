import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceforge.data import VALID_CDR, DatasetManifest, SubjectRecord
from sliceforge.splits import audit_split, kfold_split


@st.composite
def manifests(draw, min_per_class=1):
    """In-memory manifest: each class has 1..10 subjects of 1..4 slices, in
    drawn order. No slice file exists; splitting and auditing never read one."""
    subjects = []
    for label in (0, 1):
        for i in range(draw(st.integers(min_per_class, 10))):
            n_slices = draw(st.integers(1, 4))
            subjects.append(SubjectRecord(
                subject_id=f"c{label}s{i:02d}", cdr=float(label), label=label, age=70.0,
                sex="F", mmse=None, slices=[f"{i}-{j}.tsr" for j in range(n_slices)],
            ))
    subjects = draw(st.permutations(subjects))
    return DatasetManifest(name="prop", slice_height=4, slice_width=4, subjects=list(subjects))


def _check_subject_partition(plan, manifest):
    ids = {s.subject_id for s in manifest.subjects}
    seen = set()
    for fold in plan.folds:
        val, train = set(fold.val), set(fold.train)
        assert len(val) == len(fold.val) and len(train) == len(fold.train)
        assert not val & train
        assert val | train == ids
        assert not val & seen
        seen |= val
    assert seen == ids
    assert audit_split(plan, manifest).leaked_subject_ids == []


@given(manifests(), st.integers(2, 20), st.integers(0, 2 ** 32))
@settings(max_examples=100, deadline=None)
def test_kfold_partitions_subjects(manifest, k, seed):
    k = min(k, len(manifest.subjects))
    plan = kfold_split(manifest, k, seed, stratified=False)
    assert plan.k == len(plan.folds) == k
    _check_subject_partition(plan, manifest)


@given(manifests(min_per_class=2), st.integers(2, 10), st.integers(0, 2 ** 32))
@settings(max_examples=100, deadline=None)
def test_stratified_kfold_balances_each_class(manifest, k, seed):
    label_of = {s.subject_id: s.label for s in manifest.subjects}
    k = min(k, *(sum(1 for v in label_of.values() if v == c) for c in (0, 1)))
    plan = kfold_split(manifest, k, seed, stratified=True)
    _check_subject_partition(plan, manifest)
    for label in (0, 1):
        sizes = [sum(1 for sid in fold.val if label_of[sid] == label) for fold in plan.folds]
        assert max(sizes) - min(sizes) <= 1


@given(manifests(), st.integers(2, 6), st.integers(0, 2 ** 32))
@settings(max_examples=100, deadline=None)
def test_audit_flags_slice_plans_exactly(manifest, k, seed):
    """A subject leaks iff its slices sit in the validation piles of two or
    more folds; a multi-slice subject whose slices all share one pile does not."""
    plan = kfold_split(manifest, min(k, len(manifest.slice_keys())), seed, granularity="slice")
    folds_of = {}
    for fold_i, fold in enumerate(plan.folds):
        for key in fold.val:
            folds_of.setdefault(key.rpartition("#")[0], set()).add(fold_i)
    split_subjects = sorted(sid for sid, folds in folds_of.items() if len(folds) > 1)
    report = audit_split(plan, manifest)
    assert report.leaked_subject_ids == split_subjects


@st.composite
def cohorts(draw):
    """In-memory manifest of 0..8 subjects per class, at least 2 in all, with
    drawn ages, sexes and CDRs, and an MMSE that may be missing."""
    subjects = []
    for label in (0, 1):
        for i in range(draw(st.integers(0, 8))):
            cdr = 0.0 if label == 0 else draw(st.sampled_from(VALID_CDR[1:]))
            subjects.append(SubjectRecord(
                subject_id=f"c{label}s{i}", cdr=cdr, label=label,
                age=draw(st.floats(40.0, 100.0)), sex=draw(st.sampled_from("MF")),
                mmse=draw(st.none() | st.integers(0, 30)), slices=["s.tsr"],
            ))
    subjects = draw(st.permutations(subjects).filter(lambda s: len(s) >= 2))
    return DatasetManifest(name="cohort", slice_height=4, slice_width=4, subjects=list(subjects))


def _reference_stats(values):
    if not values:
        return None
    arr = np.array(values, dtype=np.float64)
    return {"min": min(values), "max": max(values), "mean": arr.mean(), "std": arr.std(ddof=0)}


@given(cohorts(), st.integers(0, 2 ** 32))
@settings(max_examples=100, deadline=None)
def test_audit_demographics_match_per_subject_reference(manifest, seed):
    """Counts, imbalance ratio, sex counts and age and MMSE statistics per class,
    one-class cohorts and subjects without an MMSE among them."""
    want = {label: {"count": 0, "ages": [], "mmses": [], "sexes": {"M": 0, "F": 0}}
            for label in (0, 1)}
    for s in manifest.subjects:
        tally = want[s.label]
        tally["count"] += 1
        tally["ages"].append(s.age)
        if s.mmse is not None:
            tally["mmses"].append(s.mmse)
        tally["sexes"][s.sex] += 1
    report = audit_split(kfold_split(manifest, 2, seed, stratified=False), manifest)
    counts = {label: want[label]["count"] for label in (0, 1)}
    assert report.class_counts == counts
    if min(counts.values()):
        assert report.imbalance_ratio == max(counts.values()) / min(counts.values())
    else:
        assert report.imbalance_ratio is None
    for label in (0, 1):
        got, tally = report.demographics[label], want[label]
        assert (got.count, got.sex_counts) == (tally["count"], tally["sexes"])
        for stats, values in ((got.age, tally["ages"]), (got.mmse, tally["mmses"])):
            ref = _reference_stats(values)
            if ref is None:
                assert stats is None
                continue
            assert (stats["min"], stats["max"]) == (ref["min"], ref["max"])
            assert stats["mean"] == pytest.approx(ref["mean"], rel=1e-12)
            assert stats["std"] == pytest.approx(ref["std"], rel=1e-9, abs=1e-9)
