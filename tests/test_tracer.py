"""The benchmark tracer (``benchmarks/tracer.py``) patches names of the
package from outside it. Installing and restoring it here makes a renamed or
removed patched name fail this suite instead of every traced benchmark run,
and one tiny traced ``run`` shows that a traced command still completes and
that its per-layer metrics (``benchmarks/layer_metrics.py``) still count
inference passes."""

import importlib.util
import json
from pathlib import Path

from sliceforge import cli
from sliceforge.data import generate_synthetic
from sliceforge.model import ModelConfig, build_model, save_model

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        wrapped = [owner.__dict__[attr] is not original for owner, attr, original in patched]
    finally:
        tracer.restore()
    names = {f"{owner.__name__}.{attr}" for owner, attr, _ in patched}
    assert "sliceforge.training.scale_normalize" in names
    assert "sliceforge.data.scale_normalize" in names
    assert "sliceforge.cli.load_slice_set" in names
    assert all(wrapped)
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


def _traced_tiny_run(tmp_path, monkeypatch):
    """The tracer after one traced ``run`` of a tiny 16x16 dataset."""
    # the benchmark's modules import each other by bare name
    monkeypatch.syspath_prepend(str(TRACER.parent))
    from tracer import Tracer

    # 2 subjects per class in k=2 stratified folds: train and validation halves are equal
    generate_synthetic(2, 2, 16, 16, seed=1, out_dir=tmp_path / "data")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "manifest_path": str(tmp_path / "data" / "manifest.json"),
        "output_dir": str(tmp_path / "run"),
        "train": {"epochs": 1, "batch_size": 2},
        "split": {"k": 2},
    }), encoding="utf-8")
    tracer = Tracer()
    tracer.install()
    try:
        rc = tracer.wrap("cli.main", cli.main)(["run", "--config", str(config)])
    finally:
        tracer.restore()
    assert rc == cli.EXIT_OK
    return tracer


def test_traced_run_makes_one_infer_pass_per_epoch(tmp_path, monkeypatch):
    tracer = _traced_tiny_run(tmp_path, monkeypatch)
    from layer_metrics import command_metrics

    metrics = command_metrics(tracer.names, tracer.span_array())
    assert metrics["training.infer_per_train_slice"] == 1.0
    assert metrics["training.final_eval_passes_per_val_slice"] == 0.0


def test_traced_evaluate_attributes_every_block(tmp_path, monkeypatch):
    """One infer pass of a saved model: each block's folded sepconv gets its
    own span and no batchnorm runs, as the benchmark's per-layer metrics expect."""
    monkeypatch.syspath_prepend(str(TRACER.parent))
    from layer_metrics import N_BLOCKS, command_metrics
    from tracer import Tracer

    generate_synthetic(2, 2, 16, 16, seed=1, out_dir=tmp_path / "data")
    save_model(tmp_path / "model.sfm", build_model(ModelConfig(16, 16), seed=1))
    tracer = Tracer()
    tracer.install()
    try:
        rc = tracer.wrap("cli.main", cli.main)([
            "evaluate", "--model", str(tmp_path / "model.sfm"),
            "--manifest", str(tmp_path / "data" / "manifest.json")])
    finally:
        tracer.restore()
    assert rc == cli.EXIT_OK
    metrics = command_metrics(tracer.names, tracer.span_array())
    assert metrics["model.forward_infer_calls"] == 1
    for b in range(N_BLOCKS):
        assert metrics[f"layers.sepconv2d.fwd_s.b{b}"] > 0
        assert metrics[f"layers.batchnorm.fwd_s.b{b}"] == 0


def test_traced_run_numbers_every_block_layer(tmp_path, monkeypatch):
    """The per-block metrics ``layers.<layer>.<fwd|bwd>_s.b<n>`` read the block
    index the tracer writes to a0, counted by call order within a pass: every
    train-mode forward calls batchnorm for blocks 0..8 in order, every
    backward calls batchnorm_backward for blocks 8..0, infer-mode forwards
    never call batchnorm, and every sepconv span carries its FLOPs in a1."""
    tracer = _traced_tiny_run(tmp_path, monkeypatch)
    from layer_metrics import N_BLOCKS

    spans = tracer.span_array()
    names = [tracer.names[int(i)] for i in spans[:, 0]]
    parent = spans[:, 3].astype(int)
    owner = [-1] * len(spans)  # the innermost model.forward/backward span above each span
    for i, p in enumerate(parent):
        if p >= 0:
            owner[i] = p if names[p] in ("model.forward", "model.backward") else owner[p]

    def block_indices(pass_index, layer):
        return [int(spans[i, 4]) for i in range(len(spans))
                if owner[i] == pass_index and names[i] == layer]

    passes = {"train": 0, "infer": 0, "backward": 0}
    for i, name in enumerate(names):
        if name == "model.backward":
            passes["backward"] += 1
            assert block_indices(i, "layers.batchnorm_backward") == list(range(N_BLOCKS))[::-1]
            assert block_indices(i, "layers.sepconv2d_backward") == list(range(N_BLOCKS))[::-1]
        elif name == "model.forward":
            train = spans[i, 5] == 1.0
            passes["train" if train else "infer"] += 1
            assert block_indices(i, "layers.batchnorm") == (list(range(N_BLOCKS)) if train else [])
            assert block_indices(i, "layers.sepconv2d") == list(range(N_BLOCKS))
    assert passes["train"] == passes["backward"] > 0 and passes["infer"] > 0
    conv = [i for i, name in enumerate(names) if name == "layers.sepconv2d"]
    assert conv and all(spans[i, 5] > 0 for i in conv)
