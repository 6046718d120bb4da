"""Output checks and the determinism digest of one measured command.

A run passes only if the command exited 0, its full artifact set is present
and parses, confusion totals equal the slices evaluated, no subject sits on
both sides of a fold, and every saved model survives a ``load_model`` /
``save_model`` round trip byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from sliceforge.model import load_model, save_model
from sliceforge.training import HISTORY_HEADER


class CheckFailed(Exception):
    """An output of the measured command is missing or wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: unreadable: {exc}") from exc


def _csv_rows(path: Path) -> list:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"{path.name}: unreadable: {exc}") from exc


def digest(files: dict) -> str:
    """sha256 over each file's name and bytes, in name order; ``files`` maps a
    name that is the same in every run to the file's path."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode())
        h.update(hashlib.sha256(files[name].read_bytes()).digest())
    return h.hexdigest()


def check_model(path: Path) -> None:
    _require(path.is_file(), f"missing model {path.name}")
    copy = path.with_name(path.name + ".roundtrip")
    try:
        save_model(copy, load_model(path))
        same = copy.read_bytes() == path.read_bytes()
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: load_model round trip failed: {exc}") from exc
    finally:
        copy.unlink(missing_ok=True)
    _require(same, f"{path.name}: load_model round trip changed the bytes")


def subject_slices(manifest_path: Path) -> dict:
    """Slice count of each subject in a manifest."""
    doc = _json(manifest_path)
    return {s["subject_id"]: len(s["slices"]) for s in doc["subjects"]}


def check_cv(out: Path, manifest_path: Path, k: int, epochs: int) -> dict:
    """Artifacts of ``sliceforge run``; returns accuracy, val_loss, work and digest."""
    slices = subject_slices(manifest_path)
    plan = _json(out / "split.json")
    _require(plan.get("k") == k and len(plan.get("folds", ())) == k, "split.json: wrong fold count")
    seen_val = []
    for fold in plan["folds"]:
        train, val = set(fold["train"]), set(fold["val"])
        _require(not train & val, "split.json: a subject is on both sides of a fold")
        _require(train | val == set(slices), "split.json: fold does not cover the manifest")
        seen_val.extend(val)
    _require(sorted(seen_val) == sorted(slices), "split.json: validation sets do not partition subjects")
    audit = _json(out / "audit.json")
    _require(audit.get("leaked_subject_ids") == [], "audit.json: leaked subjects")
    _require(bool((out / "audit.txt").read_text(encoding="utf-8").strip()), "audit.txt: empty")

    work = 0
    val_losses = []
    hashed = []
    for i, fold in enumerate(plan["folds"]):
        fold_dir = out / f"fold-{i + 1}"
        for name in ("best_model.sfm", "final_model.sfm"):
            check_model(fold_dir / name)
            hashed.append(fold_dir / name)
        rows = _csv_rows(fold_dir / "history.csv")
        _require(tuple(rows[0]) == HISTORY_HEADER and len(rows) == epochs + 1,
                 f"fold-{i + 1}/history.csv: wrong header or row count")
        _require(all(math.isfinite(float(v)) for row in rows[1:] for v in row),
                 f"fold-{i + 1}/history.csv: non-finite value")
        metrics = _json(fold_dir / "metrics.json")
        val_slices = sum(slices[s] for s in fold["val"])
        slice_total = sum(metrics["confusion_slice_level"].values())
        vote_total = sum(metrics["confusion_subject_vote"].values())
        _require(slice_total == val_slices,
                 f"fold-{i + 1}: confusion total {slice_total} != {val_slices} val slices")
        _require(vote_total == len(fold["val"]),
                 f"fold-{i + 1}: vote total {vote_total} != {len(fold['val'])} val subjects")
        val_losses.append(float(metrics["val_loss_best_model"]))
        work += epochs * sum(slices[s] for s in fold["train"])
        hashed += [fold_dir / "metrics.json", fold_dir / "history.csv"]

    summary = _json(out / "summary.json")
    _require(summary.get("k") == k and summary.get("leaked_subjects") == [],
             "summary.json: wrong k or leaked subjects")
    _require(bool((out / "report.md").read_text(encoding="utf-8").strip()), "report.md: empty")
    aggregate = _csv_rows(out / "aggregate.csv")
    _require(aggregate[0] == ["metric", "mean", "std", "cell"] and len(aggregate) > 1,
             "aggregate.csv: wrong header or no rows")
    folds = _csv_rows(out / "folds.csv")
    _require(folds[0] == ["fold", "best_val_accuracy", "cell"] and len(folds) == k + 1,
             "folds.csv: wrong header or row count")
    hashed.append(out / "summary.json")
    return {
        "accuracy": float(summary["aggregate"]["accuracy"]["mean"]),
        "val_loss": sum(val_losses) / len(val_losses),
        "work": work,
        "digest": digest({p.relative_to(out).as_posix(): p for p in hashed}),
    }


def check_eval(json_out: Path, stdout_path: Path, manifest_path: Path, model: Path) -> dict:
    """Outputs of ``sliceforge evaluate --json-out``; the model under test was
    checked at setup and enters the digest here."""
    doc = _json(json_out)
    _require(_json(stdout_path) == doc, "evaluate: stdout JSON differs from --json-out file")
    slices = sum(subject_slices(manifest_path).values())
    total = sum(doc["confusion"].values())
    _require(total == slices, f"evaluate: confusion total {total} != {slices} slices")
    _require(math.isfinite(doc["mean_loss"]), "evaluate: non-finite mean_loss")
    return {
        "accuracy": float(doc["metrics"]["accuracy"]),
        "val_loss": float(doc["mean_loss"]),
        "work": slices,
        "digest": digest({"model.sfm": model, "eval.json": json_out}),
    }
