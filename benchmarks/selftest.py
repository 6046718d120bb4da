"""Tests of the benchmark's own logic. The file name keeps it out of the
repository's default test collection; run it from the repository root with

    python3 -m pytest benchmarks/selftest.py
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import layer_metrics as lm  # noqa: E402
import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from sliceforge import layers, training  # noqa: E402
from sliceforge import model as model_mod  # noqa: E402
from sliceforge.model import ModelConfig, build_model  # noqa: E402
from sliceforge.rng import SplitMixStream  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_direct_children_only():
    # root [0,10] > a [1,4] > b [2,3]; root > c [5,6]
    spans = np.array([
        [0, 0.0, 10.0, -1, 0, 0],
        [1, 1.0, 4.0, 0, 0, 0],
        [2, 2.0, 3.0, 1, 0, 0],
        [1, 5.0, 6.0, 0, 0, 0],
    ])
    assert lm.self_times(spans).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_tracer_records_nesting_and_entry_order():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: 1)
    outer = tracer.wrap("outer", lambda: inner() + inner())
    assert outer() == 2
    spans = tracer.span_array()
    assert [tracer.names[int(i)] for i in spans[:, 0]] == ["outer", "inner", "inner"]
    assert spans[:, 3].tolist() == [-1, 0, 0]
    assert np.all(lm.self_times(spans) >= 0)


def test_percentiles_come_with_their_sample_count():
    out = lm.percentile_metrics("model.backward_ms", list(range(10, 0, -1)))
    assert out == {"model.backward_ms.p50": 5.0, "model.backward_ms.p90": 9.0,
                   "model.backward_calls": 10}
    assert lm.percentile([], 50) == 0.0
    for name in lm.UNITS:
        if name.endswith((".p50", ".p90")):
            assert lm.PERCENTILES[name.rsplit(".", 1)[0]] in lm.UNITS


def test_metric_names_and_benchmark_json_agree():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in doc["workloads"])
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == lm.UNITS
    for name in [*bench.END_TO_END, *lm.UNITS, *WORKLOADS]:
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


def _train_and_infer(model, x):
    probs, _ = training.forward(model, x, "infer")
    streams = [SplitMixStream(7, i) for i in range(len(x))]
    _, caches = training.forward(model, x, "train", streams)
    grads = model_mod.backward(model, caches, np.full(len(x), 0.25, dtype=np.float32))
    return probs, grads


def test_blocks_numbered_by_call_order_after_copy_and_originals_restored():
    model = build_model(ModelConfig(input_height=16, input_width=16), seed=3)
    x = np.linspace(0, 1, 2 * 16 * 16, dtype=np.float32).reshape(2, 1, 16, 16)
    originals = (training.forward, model_mod.backward, layers.sepconv2d,
                 SplitMixStream.__dict__["uniform"], model_mod.Model.copy)
    plain = _train_and_infer(model.copy(), x)

    tracer = Tracer()
    tracer.install()
    try:
        clone = model.copy()
        traced = _train_and_infer(clone, x)
        _train_and_infer(model, x)
    finally:
        tracer.restore()
    assert originals == (training.forward, model_mod.backward, layers.sepconv2d,
                         SplitMixStream.__dict__["uniform"], model_mod.Model.copy)

    # tracing does not perturb results
    assert np.array_equal(plain[0], traced[0])
    assert plain[1].keys() == traced[1].keys()
    assert all(np.array_equal(plain[1][k], traced[1][k]) for k in plain[1])

    spans = tracer.span_array()
    names = [tracer.names[int(i)] for i in spans[:, 0]]
    parent = spans[:, 3].astype(int)
    passes = [i for i, n in enumerate(names) if n in ("model.forward", "model.backward")]
    assert len(passes) == 6
    for p in passes:
        for layer in ("layers.sepconv2d", "layers.batchnorm"):
            if names[p] == "model.backward":
                layer += "_backward"
            blocks = [int(spans[i, 4]) for i, n in enumerate(names) if n == layer and parent[i] == p]
            expected = list(range(9))
            assert blocks == (expected[::-1] if names[p] == "model.backward" else expected)


def _tiny(name):
    w = WORKLOADS[name]
    small = dict(size=16, slices=2, epochs=2, batch_size=4)
    if w.command == "evaluate":
        return replace(w, subjects_per_class=2, train_subjects_per_class=2, train_slices=2, **small)
    return replace(w, subjects_per_class=w.k, **small)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_smoke_pass(name, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    w = _tiny(name)
    b = bench.Bench(ROOT, seed=5, seconds=0)
    try:
        e2e = bench.end_to_end(b, w)
        per_layer = bench.traced(b, w)
    finally:
        shutil.rmtree(b.work, ignore_errors=True)
    for result in (e2e, per_layer):
        assert result["runs"].failures == []
    assert e2e["runs"].digest == per_layer["runs"].digest
    assert set(e2e["metrics"]) == set(bench.END_TO_END)
    assert set(per_layer["metrics"]) == set(lm.UNITS)
    assert all(m["value"] > 0 for m in e2e["metrics"].values())
    rel, absolute = e2e["metrics"], {k: v["value"] for k, v in e2e["absolute"].items()}
    assert rel["wall_rel"]["value"] == pytest.approx(absolute["wall_s"] / absolute["reference_s"])
    assert rel["slices_per_ref"]["value"] * rel["wall_rel"]["value"] == pytest.approx(
        absolute["slices_per_s"] * absolute["wall_s"])
    m = {k: v["value"] for k, v in per_layer["metrics"].items()}
    if w.command == "evaluate":
        assert m["model.forward_train_calls"] == 0 and m["layers.bwd_s"] == 0
        assert m["training.final_eval_passes_per_val_slice"] == 1.0
    else:
        assert m["training.final_eval_passes_per_val_slice"] == 2.0
        assert m["model.backward_calls"] == m["training.train_steps"] > 0
    assert m["data.slices_loaded"] == m["tensor.read_array_calls"]


def test_child_peak_rss_excludes_the_benchmark_process(tmp_path):
    held = np.ones(16_000_000)  # 128 MB resident in this process while the child runs
    b = bench.Bench(ROOT, seed=1, seconds=0)
    try:
        child = b.sliceforge(["generate", "--out", str(tmp_path / "data"), "--subjects-per-class",
                              "1", "--slices", "1", "--height", "16", "--width", "16"])
        assert child.rc == 0
        assert 0 < b.last_peak_mb() < held.nbytes / 2**20 / 2
    finally:
        shutil.rmtree(b.work, ignore_errors=True)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "cv-64",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_last_line_is_the_result_object(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    handler = signal.getsignal(signal.SIGTERM)
    try:
        assert bench.main(["--workload", "cv-64", "--seed", "2", "--seconds", "0",
                           "--trace", "0"]) == 0
    finally:
        signal.signal(signal.SIGTERM, handler)
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == bench.END_TO_END
