"""Command-line orchestration: generate, split, audit, train, run, evaluate,
report, inspect.

Exit codes are ``EXIT_CODES``, the --help epilog. A --seed flag overrides
the configured seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    AugmentConfig,
    DatasetManifest,
    generate_synthetic,
    load_manifest,
    load_slice_set,
    scale_normalize,
)
from .errors import ConfigError, DataError, LeakageError, NumericError, SliceforgeError
from .metrics import (
    aggregate_folds,
    compute_metrics,
    format_aggregate_cell,
    format_fold_cell,
    render_aggregate_table,
    render_folds_table,
)
from .model import (
    ModelConfig,
    build_model,
    extract_activation,
    load_model,
    maximize_activation,
    save_model,
)
from .splits import SplitPlan, audit_split, check_split_types, kfold_split
from .tensor import atomic_open, format_json, read_array, write_array, write_pgm
from .tensor import write_json as _json_dump  # benchmarks/tracer.py patches this name
from .training import TrainConfig, evaluate, evaluate_subject_vote, fit, logit_labels, score

EXIT_OK = 0
EXIT_IO = 2
EXIT_LEAKAGE = 3
EXIT_NUMERIC = 4
EXIT_CODES = """exit codes:
  0  ok
  2  bad input or I/O error
  3  subject leakage in the split (rerun with --allow-leakage to proceed)
  4  numeric failure (a non-finite loss, output or weight)"""


@dataclass
class ExperimentConfig:
    manifest_path: str
    output_dir: str
    model: ModelConfig
    train: TrainConfig
    augment: AugmentConfig
    split_k: int = 2
    split_seed: int = 0
    split_stratified: bool = True
    split_granularity: str = "subject"

    @classmethod
    def from_json(cls, path, manifest_path=None) -> tuple["ExperimentConfig", DatasetManifest]:
        """Parse the config file once and load the manifest it names.

        ``manifest_path`` (the --manifest flag) wins over the file's
        ``manifest_path``; the manifest's slice size fills in the model's
        input size when the file gives none.
        """
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}: unreadable config: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        manifest_path = manifest_path or doc.get("manifest_path")
        if not manifest_path or not isinstance(manifest_path, str):
            raise ConfigError(f"{path}: no manifest_path string in the config and no --manifest given")
        manifest = load_manifest(manifest_path, check_files=True)
        try:
            model_doc = dict(doc.get("model", {}))
            model_doc.setdefault("input_height", manifest.slice_height)
            model_doc.setdefault("input_width", manifest.slice_width)
            split_doc = doc.get("split", {})
            config = cls(
                manifest_path=manifest_path,
                output_dir=doc["output_dir"],
                model=ModelConfig(**model_doc),
                train=TrainConfig(**doc.get("train", {})),
                augment=AugmentConfig(**doc.get("augment", {})),
                split_k=split_doc.get("k", 2),
                split_seed=split_doc.get("seed", 0),
                split_stratified=split_doc.get("stratified", True),
                split_granularity=split_doc.get("granularity", "subject"),
            )
            check_split_types(config.split_k, config.split_seed, config.split_stratified)
        except KeyError as exc:
            raise ConfigError(f"{path}: bad config: missing key {exc}") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"{path}: bad config: {exc}") from exc
        return config, manifest


def _resolve_seed(args, config_seed: int) -> int:
    """The --seed flag if given, else the config value."""
    if getattr(args, "seed", None) is not None:
        return args.seed
    return config_seed


def cmd_generate(args) -> int:
    manifest = generate_synthetic(
        n_per_class=args.subjects_per_class,
        slices_per_subject=args.slices,
        h=args.height,
        w=args.width,
        seed=_resolve_seed(args, 0),
        out_dir=args.out,
    )
    print(f"wrote {len(manifest.subjects)} subjects, "
          f"{sum(len(s.slice_paths) for s in manifest.subjects)} slices to {args.out}")
    return EXIT_OK


def cmd_split(args) -> int:
    manifest = load_manifest(args.manifest, check_files=False)
    seed = _resolve_seed(args, 0)
    plan = kfold_split(manifest, args.k, seed, args.stratified, args.granularity)
    plan.save(args.out)
    print(f"wrote {plan.k}-fold {plan.granularity}-level split to {args.out}")
    return EXIT_OK


def cmd_audit(args) -> int:
    manifest = load_manifest(args.manifest, check_files=False)
    plan = SplitPlan.load(args.split)
    report = audit_split(plan, manifest)
    if args.json_out:
        _json_dump(args.json_out, report)
    print(report.render_text(), end="")
    return EXIT_OK


def _run_fold(manifest, plan, fold_index, config, seed):
    fold = plan.folds[fold_index]
    train_set = load_slice_set(manifest, fold.train)
    val_set = load_slice_set(manifest, fold.val)
    model = build_model(config.model, seed=seed + fold_index)
    result = fit(model, train_set, val_set, config.train, config.augment)
    # fit's best-epoch validation logits came from result.best; no pass reruns them
    threshold = result.best.config.threshold
    counts, mean_loss = score(result.val_logits, val_set.labels, threshold)
    subject_counts = evaluate_subject_vote(val_set, logit_labels(result.val_logits, threshold))
    return result, counts, mean_loss, subject_counts


def _write_fold_artifacts(fold_dir: Path, result, counts, mean_loss, subject_counts):
    fold_dir.mkdir(parents=True, exist_ok=True)
    result.history.write_csv(fold_dir / "history.csv")
    save_model(fold_dir / "best_model.sfm", result.best)
    save_model(fold_dir / "final_model.sfm", result.final)
    report = compute_metrics(counts)
    doc = {
        "best_epoch": result.best_epoch,
        "best_val_accuracy": result.best_val_acc,
        "val_loss_best_model": mean_loss,
        "confusion_slice_level": counts,
        "metrics_slice_level": report,
        "confusion_subject_vote": subject_counts,
        "metrics_subject_vote": compute_metrics(subject_counts),
    }
    _json_dump(fold_dir / "metrics.json", doc)
    return report


def cmd_run(args) -> int:
    config, manifest = ExperimentConfig.from_json(args.config, args.manifest)
    if args.output_dir:
        config.output_dir = args.output_dir
    seed = _resolve_seed(args, config.train.seed)
    config.train.seed = seed
    if args.k is not None:
        config.split_k = args.k
    if args.granularity is not None:
        config.split_granularity = args.granularity

    plan = kfold_split(manifest, config.split_k, config.split_seed, config.split_stratified,
                       config.split_granularity)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    plan.save(out_dir / "split.json")

    report = audit_split(plan, manifest)
    _json_dump(out_dir / "audit.json", report)
    with atomic_open(out_dir / "audit.txt", encoding="utf-8") as fh:
        fh.write(report.render_text())
    if report.leaked_subject_ids and not args.allow_leakage:
        raise LeakageError(report.leaked_subject_ids)

    fold_reports = []
    fold_best_acc = []
    for i in range(plan.k):
        result, counts, mean_loss, subject_counts = _run_fold(manifest, plan, i, config, seed)
        fold_dir = out_dir / f"fold-{i + 1}"
        fold_reports.append(_write_fold_artifacts(fold_dir, result, counts, mean_loss, subject_counts))
        fold_best_acc.append(result.best_val_acc)

    aggregate = aggregate_folds(fold_reports)
    summary = {
        "k": plan.k,
        "seed": seed,
        "granularity": plan.granularity,
        "leaked_subjects": report.leaked_subject_ids,
        "fold_best_val_accuracy": fold_best_acc,
        "aggregate": {name: {"mean": m, "std": s} for name, (m, s) in aggregate.items()},
    }
    _json_dump(out_dir / "summary.json", summary)
    _write_report_files(out_dir, aggregate, fold_best_acc)
    print(f"run complete: {plan.k} folds, artifacts in {out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    config, manifest = ExperimentConfig.from_json(args.config, args.manifest)
    plan = SplitPlan.load(args.split)
    seed = _resolve_seed(args, config.train.seed)
    config.train.seed = seed
    if not 0 <= args.fold < plan.k:
        raise ConfigError(f"fold {args.fold} outside 0..{plan.k - 1}")

    report = audit_split(plan, manifest)
    if report.leaked_subject_ids and not args.allow_leakage:
        raise LeakageError(report.leaked_subject_ids)

    result, counts, mean_loss, subject_counts = _run_fold(manifest, plan, args.fold, config, seed)
    fold_dir = Path(args.output_dir) / f"fold-{args.fold + 1}"
    _write_fold_artifacts(fold_dir, result, counts, mean_loss, subject_counts)
    print(f"fold {args.fold + 1}: best val accuracy {format_fold_cell(result.best_val_acc)} "
          f"at epoch {result.best_epoch}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    manifest = load_manifest(args.manifest, check_files=True)
    model = load_model(args.model)
    members = args.subjects.split(",") if args.subjects else [
        s.subject_id for s in manifest.subjects
    ]
    dataset = load_slice_set(manifest, members, materialize=False)
    counts, mean_loss = evaluate(model, dataset, threshold=args.threshold)
    doc = {"confusion": counts, "metrics": compute_metrics(counts), "mean_loss": mean_loss}
    if args.json_out:
        _json_dump(args.json_out, doc)
    print(format_json(doc))
    return EXIT_OK


def _write_report_files(run_dir: Path, aggregate, fold_best_acc) -> None:
    agg_table = render_aggregate_table(aggregate)
    folds_table = render_folds_table(fold_best_acc)
    text = (
        "# Cross-validation report\n\n"
        "## Aggregate metrics over folds (mean±std)\n\n"
        + agg_table
        + "\n## Best validation accuracy per fold\n\n"
        + folds_table
    )
    with atomic_open(run_dir / "report.md", encoding="utf-8") as fh:
        fh.write(text)
    with atomic_open(run_dir / "aggregate.csv", encoding="utf-8", newline="") as fh:
        fh.write("metric,mean,std,cell\n")
        for name, (m, s) in aggregate.items():
            fh.write(f"{name},{m!r},{s!r},{format_aggregate_cell(m, s)}\n")
    with atomic_open(run_dir / "folds.csv", encoding="utf-8", newline="") as fh:
        fh.write("fold,best_val_accuracy,cell\n")
        for i, acc in enumerate(fold_best_acc):
            fh.write(f"{i + 1},{acc!r},{format_fold_cell(acc)}\n")


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    summary_path = run_dir / "summary.json"
    if not summary_path.is_file():
        raise DataError(f"{run_dir}: not a completed run directory (missing summary.json)")
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        aggregate = {
            name: (float(v["mean"]), float(v["std"])) for name, v in summary["aggregate"].items()
        }
        fold_best_acc = [float(a) for a in summary["fold_best_val_accuracy"]]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"{summary_path}: corrupt or incomplete summary: {exc!r}") from exc
    _write_report_files(run_dir, aggregate, fold_best_acc)
    print((run_dir / "report.md").read_text(encoding="utf-8"), end="")
    return EXIT_OK


def cmd_inspect(args) -> int:
    if args.mode == "activation" and not (args.input and args.manifest):
        raise ConfigError("activation mode needs --input and --manifest")
    model = load_model(args.model)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.mode == "activation":
        # the model's input contract: scaled by the manifest's ceiling, as at load
        ceiling = load_manifest(args.manifest, check_files=False).intensity_ceiling
        image = scale_normalize(read_array(args.input), ceiling)
        if image.ndim == 2:
            image = image[None, None, :, :]
        amap = extract_activation(model, image, args.block, args.channel)
        stem = f"activation_b{args.block}_c{args.channel}"
        write_array(out_dir / f"{stem}.tsr", amap)
        write_pgm(out_dir / f"{stem}.pgm", amap)
        print(f"wrote {stem}.tsr / .pgm ({amap.shape[0]}x{amap.shape[1]}) to {out_dir}")
    else:
        seed = _resolve_seed(args, 0)
        image, trace = maximize_activation(
            model, args.block, args.channel, steps=args.steps,
            step_size=args.step_size, seed=seed,
        )
        stem = f"maximize_b{args.block}_c{args.channel}"
        write_array(out_dir / f"{stem}.tsr", image)
        write_pgm(out_dir / f"{stem}.pgm", image[0, 0])
        with atomic_open(out_dir / f"{stem}_trace.csv", encoding="utf-8", newline="") as fh:
            fh.write("step,objective\n")
            for i, v in enumerate(trace):
                fh.write(f"{i},{v!r}\n")
        print(f"wrote {stem}.tsr / .pgm, objective {trace[0]:.6g} -> {trace[-1]:.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliceforge",
        description="Train and audit slice-stack binary classifiers.",
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"sliceforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic two-class dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--subjects-per-class", type=int, default=8)
    p.add_argument("--slices", type=int, default=4)
    p.add_argument("--height", type=int, default=16)
    p.add_argument("--width", type=int, default=16)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("split", help="write a k-fold split plan")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stratified", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--granularity", choices=("subject", "slice"), default="subject")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("audit", help="audit a split plan for leakage and imbalance")
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("train", help="train a single fold of a split plan")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--fold", type=int, required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--allow-leakage", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("run", help="full cross-validation: split, audit, train, report")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", default=None)
    p.add_argument("--output-dir", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--granularity", choices=("subject", "slice"), default=None)
    p.add_argument("--allow-leakage", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("evaluate", help="evaluate a saved model over manifest subjects")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--subjects", default=None, help="comma-separated subject ids or slice keys")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="render tables for a completed run directory")
    p.add_argument("--run-dir", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("inspect", help="export activation maps or maximizing inputs")
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=("activation", "maximize"), required=True)
    p.add_argument("--input", default=None, help="TSR1 slice (activation mode)")
    p.add_argument("--manifest", default=None,
                   help="manifest whose intensity ceiling scales --input (activation mode)")
    p.add_argument("--block", type=int, required=True)
    p.add_argument("--channel", type=int, required=True)
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--step-size", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # no numpy overflow warnings ahead of the one-line error: the
        # finiteness checks of forward, fit and the codec report non-finite results
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except LeakageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("rerun with --allow-leakage to proceed anyway", file=sys.stderr)
        return EXIT_LEAKAGE
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, SliceforgeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
