from hypothesis import given, settings
from hypothesis import strategies as st

from sliceforge.data import DatasetManifest, SubjectRecord
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
