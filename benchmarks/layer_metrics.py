"""Per-layer metrics from the spans of one traced command.

A span's self time is its duration minus the durations of its direct
children. Times are self times unless the metric name says otherwise
(``_ms.p50`` percentiles and ``copy``/``save``/``history_eval``/``train_step``
spans are inclusive). Counts are exact and repeat from run to run.
"""

from __future__ import annotations

import math

import numpy as np

from tracer import BACKWARD_LAYERS, FORWARD_LAYERS

N_BLOCKS = 9

HEAD_FWD = ("layers.global_avg_pool", "layers.dense", "layers.dropout", "layers.sigmoid")
HEAD_BWD = ("layers.global_avg_pool_backward", "layers.dense_backward", "layers.dropout_backward")

# top-level cli calls by phase; the traced wall minus all of them is cli.other_s
CLI_PHASES = {
    "load": ("data.load_manifest", "data.load_slice_set", "model.load_model"),
    "split": ("splits.kfold_split", "splits.audit_split"),
    "fit": ("training.fit",),
    "final_eval": ("training.evaluate", "training.evaluate_subject_vote"),
    "save": ("model.save_model", "cli.write_fold_artifacts", "cli.write_report_files",
             "cli.json_dump", "splits.SplitPlan.save"),
}

# percentile families and the count metric that gives their sample size
PERCENTILES = {
    "model.forward_train_ms": "model.forward_train_calls",
    "model.forward_infer_ms": "model.forward_infer_calls",
    "model.backward_ms": "model.backward_calls",
    "training.train_step_ms": "training.train_steps",
}

# name -> unit, in print order
UNITS = {}
for _kind in ("bwd", "fwd"):
    for _layer in ("sepconv2d", "batchnorm"):
        for _b in range(N_BLOCKS):
            UNITS[f"layers.{_layer}.{_kind}_s.b{_b}"] = "s"
    UNITS[f"layers.relu.{_kind}_s"] = "s"
    UNITS[f"layers.head.{_kind}_s"] = "s"
UNITS.update({
    "layers.bwd_s": "s",
    "layers.fwd_train_s": "s",
    "layers.fwd_infer_s": "s",
    "layers.sepconv2d.gflop": "GFLOP",
    "layers.sepconv2d.gflop_per_s": "GFLOP/s",
    "model.forward_train_ms.p50": "ms",
    "model.forward_train_ms.p90": "ms",
    "model.forward_train_calls": "count",
    "model.forward_infer_ms.p50": "ms",
    "model.forward_infer_ms.p90": "ms",
    "model.forward_infer_calls": "count",
    "model.forward_self_s": "s",
    "model.backward_ms.p50": "ms",
    "model.backward_ms.p90": "ms",
    "model.backward_calls": "count",
    "model.copy_s": "s",
    "model.save_model_s": "s",
    "training.train_step_ms.p50": "ms",
    "training.train_step_ms.p90": "ms",
    "training.train_steps": "count",
    "training.train_slices_per_s": "slices/s",
    "training.history_eval_s": "s",
    "training.clip_gradients_s": "s",
    "training.clip_rescale_frac": "fraction",
    "training.sgd_step_s": "s",
    "training.bce_loss_s": "s",
    "training.infer_per_train_slice": "ratio",
    "training.final_eval_passes_per_val_slice": "ratio",
    "data.load_slice_set_s": "s",
    "data.slices_loaded": "count",
    "data.augment_s": "s",
    "data.augment_calls": "count",
    "data.scale_normalize_s": "s",
    "data.scale_normalize_calls": "count",
    "data.generate_synthetic_s": "s",
    "tensor.read_array_s": "s",
    "tensor.read_array_calls": "count",
    "tensor.read_bytes": "bytes",
    "splits.kfold_split_s": "s",
    "splits.audit_split_s": "s",
    "rng.draw_s": "s",
    "rng.init_s": "s",
    "rng.streams": "count",
    "cli.load_s": "s",
    "cli.split_s": "s",
    "cli.fit_s": "s",
    "cli.final_eval_s": "s",
    "cli.save_s": "s",
    "cli.other_s": "s",
    "cli.traced_wall_s": "s",
    "bench.trace_overhead_frac": "fraction",
})

# metrics that must repeat exactly between traced runs of one seed
COUNTS = tuple(name for name, unit in UNITS.items()
               if unit in ("count", "bytes", "GFLOP", "ratio", "fraction")
               and name != "bench.trace_overhead_frac")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% at or below it."""
    if not len(values):
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def percentile_metrics(prefix: str, values_ms) -> dict:
    """p50 and p90 of ``values_ms`` together with their sample count."""
    return {
        f"{prefix}.p50": percentile(values_ms, 50),
        f"{prefix}.p90": percentile(values_ms, 90),
        PERCENTILES[prefix]: len(values_ms),
    }


def self_times(spans: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3].astype(np.int64)
    covered = np.zeros(len(spans))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def _under(names_of, parent, targets) -> np.ndarray:
    """For each span, whether it or an ancestor is named in ``targets``.

    Spans are stored in entry order, so a parent's index is always lower."""
    flag = np.zeros(len(parent), dtype=bool)
    for i in range(len(parent)):
        flag[i] = names_of[i] in targets or (parent[i] >= 0 and flag[parent[i]])
    return flag


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def command_metrics(names: list, spans: np.ndarray) -> dict:
    """Per-layer metrics of one traced command whose root span is ``cli.main``."""
    names_of = [names[int(i)] for i in spans[:, 0]]
    name_arr = np.array(names_of, dtype=object)
    start, end = spans[:, 1], spans[:, 2]
    dur = end - start
    parent = spans[:, 3].astype(np.int64)
    a0, a1 = spans[:, 4], spans[:, 5]
    self_t = self_times(spans)

    def is_(*wanted):
        return np.isin(name_arr, wanted)

    def self_sum(mask):
        return float(self_t[mask].sum())

    fwd = is_("model.forward")
    train_fwd = fwd & (a1 == 1.0)
    infer_fwd = fwd & (a1 == 0.0)
    bwd = is_("model.backward")
    fwd_layers = is_(*(f"layers.{n}" for n in FORWARD_LAYERS))
    bwd_layers = is_(*(f"layers.{n}" for n in BACKWARD_LAYERS))
    up = np.maximum(parent, 0)
    in_fwd = (parent >= 0) & fwd[up]
    out = {}

    for kind in ("bwd", "fwd"):
        suffix = "_backward" if kind == "bwd" else ""
        for layer in ("sepconv2d", "batchnorm"):
            mask = is_(f"layers.{layer}{suffix}")
            for b in range(N_BLOCKS):
                out[f"layers.{layer}.{kind}_s.b{b}"] = self_sum(mask & (a0 == b))
        out[f"layers.relu.{kind}_s"] = self_sum(is_(f"layers.relu{suffix}"))
        out[f"layers.head.{kind}_s"] = self_sum(is_(*(HEAD_BWD if kind == "bwd" else HEAD_FWD)))
    out["layers.bwd_s"] = self_sum(bwd_layers)
    out["layers.fwd_train_s"] = self_sum(fwd_layers & in_fwd & (a1[up] == 1.0))
    out["layers.fwd_infer_s"] = self_sum(fwd_layers & in_fwd & (a1[up] == 0.0))
    conv = is_("layers.sepconv2d")
    out["layers.sepconv2d.gflop"] = float(a1[conv].sum()) / 1e9
    out["layers.sepconv2d.gflop_per_s"] = _ratio(out["layers.sepconv2d.gflop"], self_sum(conv))

    out.update(percentile_metrics("model.forward_train_ms", dur[train_fwd] * 1e3))
    out.update(percentile_metrics("model.forward_infer_ms", dur[infer_fwd] * 1e3))
    out["model.forward_self_s"] = self_sum(fwd)
    out.update(percentile_metrics("model.backward_ms", dur[bwd] * 1e3))
    out["model.copy_s"] = float(dur[is_("model.Model.copy")].sum())
    out["model.save_model_s"] = float(dur[is_("model.save_model")].sum())

    # a train step runs from a train-mode forward through the next sgd_step
    train_idx = np.flatnonzero(train_fwd)
    sgd_idx = np.flatnonzero(is_("training.sgd_step"))
    steps = []
    for i in train_idx:
        j = np.searchsorted(sgd_idx, i)
        if j < len(sgd_idx):
            steps.append(end[sgd_idx[j]] - start[i])
    step_ms = np.array(steps) * 1e3
    out.update(percentile_metrics("training.train_step_ms", step_ms))
    train_slices = float(a0[train_fwd].sum())
    out["training.train_slices_per_s"] = _ratio(train_slices, float(step_ms.sum()) / 1e3)
    out["training.history_eval_s"] = float(dur[is_("training.history_eval")].sum())
    clip = is_("training.clip_gradients")
    out["training.clip_gradients_s"] = self_sum(clip)
    out["training.clip_rescale_frac"] = _ratio(float(a0[clip].sum()), float(clip.sum()))
    out["training.sgd_step_s"] = self_sum(is_("training.sgd_step"))
    out["training.bce_loss_s"] = self_sum(is_("training.bce_loss"))
    in_fit = _under(names_of, parent, {"training.fit"})
    out["training.infer_per_train_slice"] = _ratio(float(a0[infer_fwd & in_fit].sum()), train_slices)
    in_final = _under(names_of, parent, {"training.evaluate", "training.evaluate_subject_vote"})
    evaluated = float(a0[is_("training.evaluate")].sum())
    out["training.final_eval_passes_per_val_slice"] = _ratio(
        float(a0[infer_fwd & in_final].sum()), evaluated)

    load = is_("data.load_slice_set")
    out["data.load_slice_set_s"] = self_sum(load)
    out["data.slices_loaded"] = int(a0[load].sum())
    aug = is_("data.augment")
    out["data.augment_s"] = self_sum(aug)
    out["data.augment_calls"] = int(aug.sum())
    norm = is_("data.scale_normalize")
    out["data.scale_normalize_s"] = self_sum(norm)
    out["data.scale_normalize_calls"] = int(norm.sum())
    out["data.generate_synthetic_s"] = self_sum(is_("data.generate_synthetic"))

    read = is_("tensor.read_array")
    out["tensor.read_array_s"] = self_sum(read)
    out["tensor.read_array_calls"] = int(read.sum())
    out["tensor.read_bytes"] = int(a1[read].sum())

    out["splits.kfold_split_s"] = self_sum(is_("splits.kfold_split"))
    out["splits.audit_split_s"] = self_sum(is_("splits.audit_split"))

    init = is_("rng.SplitMixStream.__init__")
    draws = np.array([n.startswith("rng.SplitMixStream.") for n in names_of], dtype=bool) & ~init
    out["rng.draw_s"] = self_sum(draws)
    out["rng.init_s"] = self_sum(init)
    out["rng.streams"] = int(init.sum())

    roots = np.flatnonzero(parent < 0)
    wall = float(dur[roots].sum())
    top = np.isin(parent, roots)
    phase_total = 0.0
    for phase, members in CLI_PHASES.items():
        value = float(dur[top & is_(*members)].sum())
        out[f"cli.{phase}_s"] = value
        phase_total += value
    out["cli.other_s"] = wall - phase_total
    out["cli.traced_wall_s"] = wall
    return out
