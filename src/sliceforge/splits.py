"""Cross-validation split plans and the leakage/imbalance audit.

Splitting deals whole subjects into folds; slice granularity exists only to
demonstrate the leakage failure mode and is refused by the trainer unless
explicitly overridden.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .data import SLICE_KEY_SEP, DatasetManifest
from .errors import ConfigError, DataError, FormatError
from .metrics import mean_std
from .rng import TAG_SPLIT, SplitMixStream
from .tensor import from_doc, write_json


def _check_split(split) -> None:
    """The range checks of a SplitConfig or SplitPlan."""
    if split.k < 2:
        raise ConfigError(f"k must be >= 2, got {split.k}")
    if split.granularity not in ("subject", "slice"):
        raise ConfigError(f"granularity must be 'subject' or 'slice', got {split.granularity!r}")


@dataclass
class SplitConfig:
    """The run config's ``split`` section: how ``kfold_split`` deals the folds."""

    k: int = 2
    seed: int = 0
    stratified: bool = True
    granularity: str = "subject"

    __post_init__ = _check_split


@dataclass
class Fold:
    train: list[str]  # member ids: subject ids, or "subject#index" slice keys
    val: list[str]


@dataclass
class SplitPlan:
    k: int
    seed: int
    stratified: bool
    granularity: str  # "subject" | "slice"
    folds: list[Fold]

    __post_init__ = _check_split

    def save(self, path) -> None:
        write_json(path, self)

    @classmethod
    def load(cls, path) -> "SplitPlan":
        try:
            return from_doc(cls, json.loads(Path(path).read_text(encoding="utf-8")), "split plan")
        except (OSError, ValueError) as exc:
            raise FormatError(f"{path}: bad split plan: {exc}") from exc


def _deal(members: list, k: int) -> list:
    """Deal members into k piles round-robin; pile sizes differ by at most 1."""
    return [members[i::k] for i in range(k)]


def kfold_split(manifest: DatasetManifest, k: int, seed: int, stratified: bool = True,
                granularity: str = "subject") -> SplitPlan:
    """k-fold plan over subjects (or slices), deterministically shuffled by seed.

    Stratified mode shuffles and deals each class separately so per-fold
    class proportions match the cohort (remainders round-robin by class).
    Slice granularity deals "subject#index" slice keys with no regard to
    their subject, so nearly every multi-slice subject lands on both sides of
    every fold: the leakage failure mode, for demonstration, never stratified.
    """
    stratified = stratified and granularity == "subject"
    ids = ([s.subject_id for s in manifest.subjects] if granularity == "subject"
           else manifest.slice_keys())
    if k > len(ids):  # SplitPlan rejects k < 2 and an unknown granularity
        raise ConfigError(f"k={k} exceeds the {len(ids)} {granularity}s")

    if stratified:
        by_class = {0: [], 1: []}
        for s in manifest.subjects:
            by_class[s.label].append(s.subject_id)
        for label, members in by_class.items():
            if members and k > len(members):
                raise ConfigError(
                    f"k={k} exceeds the {len(members)} subjects of class {label}"
                )
        if not by_class[0] or not by_class[1]:
            raise ConfigError("stratified split needs both classes present")
        val_piles = [[] for _ in range(k)]
        for label in (0, 1):
            members = list(by_class[label])
            order = SplitMixStream(seed, TAG_SPLIT, label).permutation(len(members))
            shuffled = [members[i] for i in order]
            for fold_i, pile in enumerate(_deal(shuffled, k)):
                val_piles[fold_i].extend(pile)
    else:
        order = SplitMixStream(seed, TAG_SPLIT).permutation(len(ids))
        shuffled = [ids[i] for i in order]
        val_piles = _deal(shuffled, k)

    folds = []
    for pile in val_piles:
        val = sorted(pile)
        val_set = set(val)
        folds.append(Fold(train=[i for i in ids if i not in val_set], val=val))
    return SplitPlan(k=k, seed=seed, stratified=stratified, granularity=granularity, folds=folds)


def _member_subject(member: str) -> str:
    sid, sep, _ = member.rpartition(SLICE_KEY_SEP)
    return sid if sep else member


@dataclass
class ClassDemographics:
    count: int
    age: dict  # min/max/mean/std
    mmse: dict | None
    sex_counts: dict


@dataclass
class AuditReport:
    leaked_subject_ids: list
    imbalance_ratio: float | None  # None when a class has no subjects
    class_counts: dict  # label -> subject count
    demographics: dict  # label -> ClassDemographics

    def render_text(self) -> str:
        lines = []
        if self.leaked_subject_ids:
            lines.append(f"LEAKAGE: {len(self.leaked_subject_ids)} subject(s) on both sides of a fold")
            lines.append("  " + ", ".join(self.leaked_subject_ids))
        else:
            lines.append("Leakage: none (subject-disjoint folds)")
        ratio = ("undefined, a class has no subjects" if self.imbalance_ratio is None
                 else f"{self.imbalance_ratio:g}:1")
        lines.append(f"Imbalance ratio (majority:minority): {ratio}")
        lines.append("")

        def span(stats):
            if stats is None:
                return "n/a"
            return (
                f"Range: {stats['min']:g}-{stats['max']:g} "
                f"Mean: {stats['mean']:.2f} Std: {stats['std']:.2f}"
            )

        def gender(d):
            return f"Male: {d.sex_counts['M']} Female: {d.sex_counts['F']}"

        neg, pos = self.demographics[0], self.demographics[1]
        table = [
            ("", "Non-positive (label 0)", "Positive (label 1)"),
            ("No. of Subjects", str(neg.count), str(pos.count)),
            ("Age", span(neg.age), span(pos.age)),
            ("Gender", gender(neg), gender(pos)),
            ("MMSE", span(neg.mmse), span(pos.mmse)),
        ]
        # each column is as wide as its widest cell plus a two-space gap
        widths = [max(len(row[i]) for row in table) + 2 for i in range(2)]
        for title, left, right in table:
            lines.append(f"{title:{widths[0]}}{left:{widths[1]}}{right}")
        return "\n".join(lines) + "\n"


def _summary(values: list) -> dict | None:
    if not values:
        return None
    return {"min": min(values), "max": max(values), **asdict(mean_std(values))}


def audit_split(plan: SplitPlan, manifest: DatasetManifest) -> AuditReport:
    """Flag subjects whose slices sit on both sides of any fold, and report
    class balance and per-class demographics of the whole manifest."""
    known = {s.subject_id for s in manifest.subjects}
    leaked = []
    for fold in plan.folds:
        train_subjects = {_member_subject(m) for m in fold.train}
        val_subjects = {_member_subject(m) for m in fold.val}
        for sid in train_subjects | val_subjects:
            if sid not in known:
                raise DataError(f"split references unknown subject {sid!r}")
        leaked.extend(train_subjects & val_subjects)
    leaked = sorted(set(leaked))

    groups = {label: [s for s in manifest.subjects if s.label == label] for label in (0, 1)}
    counts = {label: len(group) for label, group in groups.items()}
    minority = min(counts.values())
    majority = max(counts.values())
    ratio = majority / minority if minority else None

    demographics = {
        label: ClassDemographics(
            count=len(group),
            age=_summary([s.age for s in group]),
            mmse=_summary([s.mmse for s in group if s.mmse is not None]),
            sex_counts={sex: sum(s.sex == sex for s in group) for sex in ("M", "F")},
        )
        for label, group in groups.items()
    }
    return AuditReport(
        leaked_subject_ids=leaked,
        imbalance_ratio=ratio,
        class_counts=counts,
        demographics=demographics,
    )
