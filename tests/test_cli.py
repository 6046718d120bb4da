"""Command-line exit codes (0, 2, 3 and 4) and messages on a tiny generated
dataset, and the column layout of the audit table."""

import json
import re

import numpy as np
import pytest

from helpers import rewrite_sfm_header, set_sfm_value, tsr1_bytes
from sliceforge import cli
from sliceforge.data import load_manifest
from sliceforge.model import ModelConfig, build_model, extract_activation, save_model
from sliceforge.splits import audit_split, kfold_split
from sliceforge.tensor import read_array, write_array


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    rc = cli.main(["generate", "--out", str(root), "--subjects-per-class", "3", "--slices", "2",
                   "--height", "16", "--width", "16", "--seed", "1"])
    assert rc == cli.EXIT_OK
    return root / "manifest.json"


def _config(tmp_path, manifest_path, **overrides):
    doc = {
        "manifest_path": str(manifest_path),
        "output_dir": str(tmp_path / "run"),
        "train": {"epochs": 1, "batch_size": 2},
        "split": {"k": 2},
    }
    doc.update(overrides)
    return doc


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


def test_run_ok(tmp_path, manifest_path, capsys):
    config = _write(tmp_path / "c.json", json.dumps(_config(tmp_path, manifest_path)))
    assert cli.main(["run", "--config", config]) == cli.EXIT_OK
    assert (tmp_path / "run" / "summary.json").is_file()
    assert capsys.readouterr().err == ""


def test_run_diverging_lr_exits_4(tmp_path, manifest_path, capsys):
    doc = _config(tmp_path, manifest_path, train={"epochs": 1, "batch_size": 2, "initial_lr": 1e8})
    config = _write(tmp_path / "c.json", json.dumps(doc))
    assert cli.main(["run", "--config", config]) == cli.EXIT_NUMERIC
    err = _assert_one_line_error(capsys)
    assert re.search(r"epoch \d+", err) and re.search(r"batch \d+", err), err


def test_run_slice_granularity_leak_exits_3(tmp_path, manifest_path, capsys):
    config = _write(tmp_path / "c.json", json.dumps(_config(tmp_path, manifest_path)))
    assert cli.main(["run", "--config", config, "--granularity", "slice"]) == cli.EXIT_LEAKAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--allow-leakage" in err and "Traceback" not in err
    assert json.loads((tmp_path / "run" / "audit.json").read_text())["leaked_subject_ids"]
    assert not list((tmp_path / "run").glob("fold-*"))


def test_run_malformed_json(tmp_path, capsys):
    config = _write(tmp_path / "c.json", '{"manifest_path": ')
    assert cli.main(["run", "--config", config]) == cli.EXIT_IO
    _assert_one_line_error(capsys)


def test_run_without_manifest_path(tmp_path, manifest_path, capsys):
    doc = _config(tmp_path, manifest_path)
    del doc["manifest_path"]
    config = _write(tmp_path / "c.json", json.dumps(doc))
    assert cli.main(["run", "--config", config]) == cli.EXIT_IO
    _assert_one_line_error(capsys)


def test_run_rejects_augment_normalize(tmp_path, manifest_path, capsys):
    doc = _config(tmp_path, manifest_path, augment={"normalize": False})
    config = _write(tmp_path / "c.json", json.dumps(doc))
    assert cli.main(["run", "--config", config]) == cli.EXIT_IO
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("epsilon", ["abc", -1])
def test_evaluate_corrupt_model_header(tmp_path, manifest_path, capsys, epsilon):
    path = tmp_path / "m.sfm"
    save_model(path, build_model(ModelConfig(input_height=16, input_width=16), seed=0))
    rewrite_sfm_header(path, bn_epsilon=epsilon)
    rc = cli.main(["evaluate", "--model", str(path), "--manifest", str(manifest_path)])
    assert rc == cli.EXIT_IO
    _assert_one_line_error(capsys)


def test_evaluate_non_finite_model(tmp_path, manifest_path, capsys):
    path = tmp_path / "m.sfm"
    model = build_model(ModelConfig(input_height=16, input_width=16), seed=0)
    save_model(path, model)
    set_sfm_value(path, model, "hidden.weight", float("nan"))
    rc = cli.main(["evaluate", "--model", str(path), "--manifest", str(manifest_path)])
    assert rc == cli.EXIT_IO
    _assert_one_line_error(capsys)


@pytest.fixture
def own_manifest_path(tmp_path):
    """A generated dataset this test may corrupt."""
    root = tmp_path / "data"
    assert cli.main(["generate", "--out", str(root), "--subjects-per-class", "3", "--slices", "2",
                     "--height", "16", "--width", "16", "--seed", "1"]) == cli.EXIT_OK
    return root / "manifest.json"


def _bad_slice(kind, path):
    if kind == "nan":
        path.write_bytes(tsr1_bytes(np.full((16, 16), np.nan)))
    else:
        write_array(path, np.full((16, 16), -1.0, dtype=np.float32))


@pytest.mark.parametrize("kind", ["nan", "negative"])
@pytest.mark.parametrize("command", ["evaluate", "run"])
def test_bad_slice_exits_2(tmp_path, own_manifest_path, capsys, kind, command):
    bad = own_manifest_path.parent / "slices" / "nc-001" / "s001.tsr"
    _bad_slice(kind, bad)
    if command == "evaluate":
        model = tmp_path / "m.sfm"
        save_model(model, build_model(ModelConfig(input_height=16, input_width=16), seed=0))
        argv = ["evaluate", "--model", str(model), "--manifest", str(own_manifest_path)]
    else:
        config = _write(tmp_path / "c.json", json.dumps(_config(tmp_path, own_manifest_path)))
        argv = ["run", "--config", config]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_IO
    err = _assert_one_line_error(capsys)
    assert str(bad) in err
    if kind == "negative":
        assert "nc-001#1" in err


def _inspect_activation(tmp_path, manifest_path, *extra):
    model = build_model(ModelConfig(input_height=16, input_width=16), seed=0)
    save_model(tmp_path / "m.sfm", model)
    slice_path = manifest_path.parent / "slices" / "ad-000" / "s000.tsr"
    argv = ["inspect", "--model", str(tmp_path / "m.sfm"), "--mode", "activation", "--input",
            str(slice_path), "--block", "0", "--channel", "1", "--out", str(tmp_path / "out"), *extra]
    return model, read_array(slice_path), cli.main(argv)


def test_inspect_activation_needs_manifest(tmp_path, manifest_path, capsys):
    _, _, rc = _inspect_activation(tmp_path, manifest_path)
    assert rc == cli.EXIT_IO
    assert "--manifest" in _assert_one_line_error(capsys)
    assert not (tmp_path / "out").exists()


def test_inspect_activation_normalizes_its_slice(tmp_path, manifest_path):
    model, raw, rc = _inspect_activation(tmp_path, manifest_path, "--manifest", str(manifest_path))
    assert rc == cli.EXIT_OK
    got = read_array(tmp_path / "out" / "activation_b0_c1.tsr")
    ceiling = np.float32(load_manifest(manifest_path).intensity_ceiling)
    want = extract_activation(model, (raw / ceiling)[None, None], 0, 1)
    assert got.any() and np.array_equal(got, want)
    assert not np.allclose(got, extract_activation(model, raw[None, None], 0, 1))


@pytest.mark.parametrize("summary", [
    '{"aggregate": {',
    '{"aggregate": {}}',
    '{"aggregate": {"accuracy": {"mean": 0.5}}, "fold_best_val_accuracy": [0.5]}',
    '{"aggregate": [], "fold_best_val_accuracy": [0.5]}',
    '{"aggregate": {}, "fold_best_val_accuracy": ["high"]}',
    '[]',
])
def test_report_corrupt_summary(tmp_path, capsys, summary):
    _write(tmp_path / "summary.json", summary)
    assert cli.main(["report", "--run-dir", str(tmp_path)]) == cli.EXIT_IO
    _assert_one_line_error(capsys)


def test_audit_columns_line_up(manifest_path):
    manifest = load_manifest(manifest_path, check_files=False)
    text = audit_split(kfold_split(manifest, 2, seed=0, stratified=True), manifest).render_text()
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if "Non-positive (label 0)" in line)
    starts = [lines[header].index("Non-positive"), lines[header].index("Positive (label 1)")]
    rows = lines[header:]
    assert len(rows) == 5
    for row in rows:
        for start in starts:
            assert row[start - 2:start] == "  " and row[start] != " ", row
