"""The benchmark's workloads: what each prepares and which command it measures.

Every input is made by the program's own ``generate`` from the workload seed,
so the same seed gives the same inputs and the program sees nothing else.
Learning rate and the rest of the recipe stay at the program's defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# the eval-128 test set is generated from its own seed, so its slices are unseen
EVAL_SEED_OFFSET = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "run" (cross-validation) or "evaluate"
    size: int  # slice height and width
    subjects_per_class: int
    slices: int
    k: int
    epochs: int
    batch_size: int = 16
    # evaluate only: the model under test is trained on fold 0 of its own dataset
    train_subjects_per_class: int = 0
    train_slices: int = 0


WORKLOADS = {w.name: w for w in (
    Workload(
        "cv-64",
        why="paper-shaped subject-level CV at 64x64; backward kernels and infer-mode passes "
            "each take about half the time",
        command="run", size=64, subjects_per_class=8, slices=4, k=2, epochs=2,
    ),
    Workload(
        "cv-16-wide",
        why="4-fold CV over 80 subjects of tiny 16x16 slices, so per-call overhead (rng "
            "streams, augmentation, clipping, splitting) dominates rather than FLOPs",
        command="run", size=16, subjects_per_class=40, slices=2, k=4, epochs=3,
    ),
    Workload(
        "eval-128",
        why="read-only inference: infer-mode forward of a saved model at 128x128, batch 64, "
            "over unseen slices; no backward, no augmentation",
        command="evaluate", size=128, subjects_per_class=8, slices=8, k=2, epochs=2,
        train_subjects_per_class=4, train_slices=4,
    ),
)}


@dataclass
class Prepared:
    """Inputs of the measured command, made under ``root``."""

    root: Path
    manifest: Path  # the dataset the measured command reads
    config: Path | None = None  # run config (cross-validation)
    model: Path | None = None  # model under test (evaluate)


def _generate(out: Path, subjects: int, slices: int, size: int, seed: int) -> list:
    return ["generate", "--out", str(out), "--subjects-per-class", str(subjects),
            "--slices", str(slices), "--height", str(size), "--width", str(size),
            "--seed", str(seed)]


def _write_config(path: Path, w: Workload, manifest: Path, seed: int) -> None:
    doc = {
        "manifest_path": str(manifest),
        "output_dir": str(path.parent / "unused"),
        "train": {"epochs": w.epochs, "batch_size": w.batch_size, "seed": seed},
        "split": {"k": w.k, "seed": seed},
    }
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def setup_steps(w: Workload, seed: int, root: Path):
    """(Prepared, list of sliceforge argument lists) that make the inputs.

    Config files are written here; the returned commands do the rest."""
    root.mkdir(parents=True, exist_ok=True)
    if w.command == "run":
        data = root / "data"
        prepared = Prepared(root, data / "manifest.json", config=root / "config.json")
        _write_config(prepared.config, w, prepared.manifest, seed)
        return prepared, [_generate(data, w.subjects_per_class, w.slices, w.size, seed)]

    train_data, test_data = root / "train-data", root / "test-data"
    config = root / "train-config.json"
    _write_config(config, w, train_data / "manifest.json", seed)
    prepared = Prepared(root, test_data / "manifest.json",
                        model=root / "model" / "fold-1" / "best_model.sfm")
    steps = [
        _generate(train_data, w.train_subjects_per_class, w.train_slices, w.size, seed),
        ["split", "--manifest", str(train_data / "manifest.json"), "--out",
         str(root / "split.json"), "--k", str(w.k), "--seed", str(seed)],
        ["train", "--config", str(config), "--manifest", str(train_data / "manifest.json"),
         "--split", str(root / "split.json"), "--fold", "0", "--output-dir", str(root / "model")],
        _generate(test_data, w.subjects_per_class, w.slices, w.size, seed + EVAL_SEED_OFFSET),
    ]
    return prepared, steps


def measured_args(w: Workload, prepared: Prepared, out: Path) -> list:
    """Arguments of the measured command, writing its artifacts under ``out``."""
    if w.command == "run":
        return ["run", "--config", str(prepared.config), "--output-dir", str(out)]
    return ["evaluate", "--model", str(prepared.model), "--manifest", str(prepared.manifest),
            "--json-out", str(out / "eval.json")]
