"""Command-line exit codes and messages on a tiny generated dataset, and the
column layout of the audit table."""

import json

import pytest

from helpers import rewrite_sfm_header
from sliceforge import cli
from sliceforge.data import load_manifest
from sliceforge.model import ModelConfig, build_model, save_model
from sliceforge.splits import audit_split, kfold_split


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


def test_run_ok(tmp_path, manifest_path, capsys):
    config = _write(tmp_path / "c.json", json.dumps(_config(tmp_path, manifest_path)))
    assert cli.main(["run", "--config", config]) == cli.EXIT_OK
    assert (tmp_path / "run" / "summary.json").is_file()
    assert capsys.readouterr().err == ""


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
