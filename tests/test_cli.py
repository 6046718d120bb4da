"""Command-line exit codes (0, 2, 3 and 4) and messages on a tiny generated
dataset, the column layout of the audit table and the bytes of the artifacts
whose values involve no BLAS."""

import hashlib
import json
import re

import numpy as np
import pytest

from helpers import rewrite_sfm_header, set_sfm_value, tsr1_bytes
from sliceforge import cli, training
from sliceforge.data import load_manifest
from sliceforge.metrics import ConfusionCounts
from sliceforge.model import ModelConfig, build_model, extract_activation, forward, save_model
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
    # a train step names its batch; the history pass names the slices of its micro-batch
    assert re.search(r"epoch \d+", err) and re.search(r"batch \d+|slices \S+ to \S+,", err), err


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


@pytest.mark.parametrize("split", [{"k": 2, "granularity": "slices"}, {"k": 2, "stratified": "no"},
                                   {"k": 2.9}, {"k": "2"}, {"k": True}, {"k": 2, "seed": 1.5}])
def test_run_rejects_mistyped_split_config(tmp_path, manifest_path, capsys, split):
    config = _write(tmp_path / "c.json", json.dumps(_config(tmp_path, manifest_path, split=split)))
    assert cli.main(["run", "--config", config]) == cli.EXIT_IO
    _assert_one_line_error(capsys)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section, edit", [
    ("train", {"epochs": 1.5}), ("train", {"batch_size": 2.5}), ("train", {"epochs": True}),
    ("train", {"seed": 1.5}), ("train", {"initial_lr": float("nan")}),
    ("train", {"clip_norm": float("inf")}), ("model", {"hidden_units": 2.5}),
    ("model", {"kernel": 3.0}), ("model", {"input_height": 16.0}),
    ("model", {"channel_plan": [2.7, 8, 16, 16, 32, 32, 64, 64, 128]}),
    ("model", {"dropout_rate": "0.5"}), ("model", {"threshold": "0.5"}),
    ("augment", {"horizontal_flip": "no"}), ("augment", {"horizontal_flip": 1}),
    ("augment", {"width_shift_frac": "0.1"}), ("augment", {"height_shift_frac": [0.1]}),
])
def test_run_rejects_mistyped_numeric_config(tmp_path, manifest_path, capsys, section, edit):
    doc = _config(tmp_path, manifest_path)
    doc[section] = {**doc.get(section, {}), **edit}
    config = _write(tmp_path / "c.json", json.dumps(doc))
    assert cli.main(["run", "--config", config]) == cli.EXIT_IO
    assert next(iter(edit)) in _assert_one_line_error(capsys)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("edit", [{"stratified": "no", "k": "2"}, {"k": 2.9}, {"seed": True}],
                         ids=["strings", "float-k", "bool-seed"])
@pytest.mark.parametrize("command", ["audit", "train"])
def test_mistyped_split_plan_exits_2(tmp_path, manifest_path, capsys, command, edit):
    split = tmp_path / "split.json"
    assert cli.main(["split", "--manifest", str(manifest_path), "--out", str(split),
                     "--k", "2"]) == cli.EXIT_OK
    split.write_text(json.dumps({**json.loads(split.read_text()), **edit}))
    argv = ["audit", "--manifest", str(manifest_path), "--split", str(split)]
    if command == "train":
        config = _write(tmp_path / "c.json", json.dumps(_config(tmp_path, manifest_path)))
        argv = ["train", "--config", config, "--manifest", str(manifest_path), "--split",
                str(split), "--fold", "0", "--output-dir", str(tmp_path / "run")]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_IO
    assert "bad split plan" in _assert_one_line_error(capsys)
    assert not (tmp_path / "run").exists()


def test_bad_config_prints_the_message_itself(tmp_path, manifest_path, capsys):
    doc = _config(tmp_path, manifest_path, train={"epochs": 1.5})
    config = _write(tmp_path / "c.json", json.dumps(doc))
    assert cli.main(["run", "--config", config]) == cli.EXIT_IO
    assert _assert_one_line_error(capsys) == (
        f"error: {config}: bad config: epochs must be an integer, got 1.5\n")
    del doc["output_dir"]
    _write(tmp_path / "c.json", json.dumps(doc))
    assert cli.main(["run", "--config", config]) == cli.EXIT_IO
    assert _assert_one_line_error(capsys) == (
        f"error: {config}: bad config: missing key 'output_dir'\n")


def test_run_k_zero_exits_2(tmp_path, manifest_path, capsys):
    config = _write(tmp_path / "c.json", json.dumps(_config(tmp_path, manifest_path)))
    assert cli.main(["run", "--config", config, "--k", "0"]) == cli.EXIT_IO
    assert "k must be >= 2, got 0" in _assert_one_line_error(capsys)


@pytest.mark.parametrize("granularity", ["subject", "slice"])
def test_split_then_audit(tmp_path, manifest_path, capsys, granularity):
    split = tmp_path / "split.json"
    assert cli.main(["split", "--manifest", str(manifest_path), "--out", str(split), "--k", "2",
                     "--seed", "1", "--granularity", granularity]) == cli.EXIT_OK
    plan = json.loads(split.read_text())
    assert plan["granularity"] == granularity and len(plan["folds"]) == 2
    assert plan["stratified"] == (granularity == "subject")
    capsys.readouterr()
    report = tmp_path / "audit.json"
    assert cli.main(["audit", "--manifest", str(manifest_path), "--split", str(split),
                     "--json-out", str(report)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    leaked = json.loads(report.read_text())["leaked_subject_ids"]
    if granularity == "subject":
        assert leaked == [] and "Leakage: none" in out
    else:
        assert leaked and out.startswith(f"LEAKAGE: {len(leaked)} subject(s)")


def test_help_lists_exit_codes(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    out = capsys.readouterr().out
    for code in (cli.EXIT_OK, cli.EXIT_IO, cli.EXIT_LEAKAGE, cli.EXIT_NUMERIC):
        assert re.search(rf"^  {code}  \S", out, re.MULTILINE), code


@pytest.mark.parametrize("epsilon", ["abc", -1])
def test_evaluate_corrupt_model_header(tmp_path, manifest_path, capsys, epsilon):
    path = tmp_path / "m.sfm"
    save_model(path, build_model(ModelConfig(input_height=16, input_width=16), seed=0))
    rewrite_sfm_header(path, bn_epsilon=epsilon)
    rc = cli.main(["evaluate", "--model", str(path), "--manifest", str(manifest_path)])
    assert rc == cli.EXIT_IO
    _assert_one_line_error(capsys)


def test_evaluate_non_finite_model(tmp_path, manifest_path, capsys):
    """A NaN weight fails to load (exit 2). Finite weights whose float32 logits
    overflow exit 4, though the sigmoid of an infinite logit is finite."""
    nan_path, inf_path, out = tmp_path / "nan.sfm", tmp_path / "inf.sfm", tmp_path / "eval.json"
    model = build_model(ModelConfig(input_height=16, input_width=16), seed=0)
    save_model(nan_path, model)
    set_sfm_value(nan_path, model, "hidden.weight", float("nan"))
    model.hidden.bias[...] = 1.0
    model.output.weight[...] = 1e38
    model.output.bias[...] = 3e38
    save_model(inf_path, model)
    for path, code in ((nan_path, cli.EXIT_IO), (inf_path, cli.EXIT_NUMERIC)):
        rc = cli.main(["evaluate", "--model", str(path), "--manifest", str(manifest_path),
                       "--json-out", str(out)])
        assert rc == code
        err = _assert_one_line_error(capsys)
        assert not out.exists()
    assert "non-finite logits" in err


@pytest.mark.parametrize("threshold", ["1.5", "nan", "0", "1", "inf"])
def test_evaluate_rejects_threshold_outside_unit_interval(tmp_path, manifest_path, capsys,
                                                          threshold):
    path = tmp_path / "m.sfm"
    save_model(path, build_model(ModelConfig(input_height=16, input_width=16), seed=0))
    rc = cli.main(["evaluate", "--model", str(path), "--manifest", str(manifest_path),
                   "--threshold", threshold, "--json-out", str(tmp_path / "eval.json")])
    assert rc == cli.EXIT_IO
    assert "threshold" in _assert_one_line_error(capsys)
    assert not (tmp_path / "eval.json").exists()


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


def _command_argv(command, tmp_path, manifest_path):
    """``evaluate`` of a fresh 16x16 model, or ``run``, on ``manifest_path``."""
    if command == "evaluate":
        model = tmp_path / "m.sfm"
        save_model(model, build_model(ModelConfig(input_height=16, input_width=16), seed=0))
        return ["evaluate", "--model", str(model), "--manifest", str(manifest_path)]
    config = _write(tmp_path / "c.json", json.dumps(_config(tmp_path, manifest_path)))
    return ["run", "--config", config]


@pytest.mark.parametrize("kind", ["nan", "negative"])
@pytest.mark.parametrize("command", ["evaluate", "run"])
def test_bad_slice_exits_2(tmp_path, own_manifest_path, capsys, kind, command):
    bad = own_manifest_path.parent / "slices" / "nc-001" / "s001.tsr"
    _bad_slice(kind, bad)
    argv = _command_argv(command, tmp_path, own_manifest_path)
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_IO
    err = _assert_one_line_error(capsys)
    assert str(bad) in err and "nc-001#1" in err


def test_evaluate_streams_to_a_bad_slice_and_writes_nothing(tmp_path, own_manifest_path, capsys,
                                                            monkeypatch):
    """One slice per micro-batch: the eleven slices ahead of the last are forwarded
    before its negative second half stops the command with exit 2."""
    bad = own_manifest_path.parent / "slices" / "ad-002" / "s001.tsr"
    raw = read_array(bad)
    raw[8:] = -1.0
    write_array(bad, raw)
    forwards = []

    def counted(model, x, *args):
        forwards.append(len(x))
        return forward(model, x, *args)

    monkeypatch.setattr(training, "_INFER_BUDGET_BYTES", 1)
    monkeypatch.setattr(training, "forward", counted)
    out = tmp_path / "eval.json"
    argv = _command_argv("evaluate", tmp_path, own_manifest_path) + ["--json-out", str(out)]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_IO
    assert _assert_one_line_error(capsys) == (
        f"error: slice ad-002#1 ({bad}): negative intensities in slice\n")
    assert forwards == [1] * 11
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "train"])
def test_repeated_member_exits_2(tmp_path, manifest_path, capsys, command):
    if command == "evaluate":
        argv = _command_argv("evaluate", tmp_path, manifest_path) + [
            "--subjects", "nc-000,nc-000", "--json-out", str(tmp_path / "eval.json")]
    else:
        split = tmp_path / "split.json"
        assert cli.main(["split", "--manifest", str(manifest_path), "--out", str(split),
                         "--k", "2"]) == cli.EXIT_OK
        plan = json.loads(split.read_text())
        plan["folds"][0]["train"].append(plan["folds"][0]["train"][0])
        split.write_text(json.dumps(plan))
        config = _write(tmp_path / "c.json", json.dumps(_config(tmp_path, manifest_path)))
        argv = ["train", "--config", config, "--manifest", str(manifest_path), "--split",
                str(split), "--fold", "0", "--output-dir", str(tmp_path / "run")]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_IO
    assert "is listed more than once" in _assert_one_line_error(capsys)
    assert not (tmp_path / "eval.json").exists() and not (tmp_path / "run").exists()


def test_evaluate_mixed_member_list(tmp_path, manifest_path, capsys):
    """A subject id stands for all its slices and a slice key for itself."""
    argv = _command_argv("evaluate", tmp_path, manifest_path)
    capsys.readouterr()
    assert cli.main(argv + ["--subjects", "nc-000#0,ad-000"]) == cli.EXIT_OK
    confusion = json.loads(capsys.readouterr().out)["confusion"]
    assert sum(confusion.values()) == 3
    assert cli.main(argv + ["--subjects", "nc-000,nc-000#0"]) == cli.EXIT_IO
    assert "slice nc-000#0 is listed more than once" in _assert_one_line_error(capsys)


@pytest.mark.parametrize("ceiling", [float("nan"), "nan", float("inf")], ids=["NaN", "nan", "inf"])
@pytest.mark.parametrize("command", ["evaluate", "run"])
def test_non_finite_intensity_ceiling_exits_2(tmp_path, own_manifest_path, capsys, ceiling, command):
    # json writes NaN and Infinity for the two floats, which json.loads reads back
    doc = json.loads(own_manifest_path.read_text())
    doc["intensity_ceiling"] = ceiling
    own_manifest_path.write_text(json.dumps(doc))
    argv = _command_argv(command, tmp_path, own_manifest_path)
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_IO
    assert "intensity_ceiling" in _assert_one_line_error(capsys)


@pytest.fixture
def one_class_split(tmp_path, own_manifest_path):
    """The generated manifest cut down to its 3 label-0 subjects, and an
    unstratified 2-fold split of it."""
    doc = json.loads(own_manifest_path.read_text())
    doc["subjects"] = [s for s in doc["subjects"] if s["label"] == 0]
    own_manifest_path.write_text(json.dumps(doc))
    split = tmp_path / "split.json"
    assert cli.main(["split", "--manifest", str(own_manifest_path), "--out", str(split),
                     "--k", "2", "--no-stratified"]) == cli.EXIT_OK
    return own_manifest_path, split


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


def test_one_class_audit_is_strict_json(tmp_path, capsys, one_class_split):
    manifest, split = one_class_split
    out = tmp_path / "audit.json"
    capsys.readouterr()
    assert cli.main(["audit", "--manifest", str(manifest), "--split", str(split),
                     "--json-out", str(out)]) == cli.EXIT_OK
    report = _strict_json(out.read_text())
    assert report["imbalance_ratio"] is None and report["class_counts"] == {"0": 3, "1": 0}
    assert ("Imbalance ratio (majority:minority): undefined, a class has no subjects\n"
            in capsys.readouterr().out)


def test_non_finite_json_value_exits_4(tmp_path, capsys, one_class_split):
    # the manifest's ages are not checked for finiteness; audit's demographics carry an infinite one
    manifest, split = one_class_split
    doc = json.loads(manifest.read_text())
    doc["subjects"][0]["age"] = float("inf")
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "audit.json"
    capsys.readouterr()
    assert cli.main(["audit", "--manifest", str(manifest), "--split", str(split),
                     "--json-out", str(out)]) == cli.EXIT_NUMERIC
    assert "cannot write JSON: Out of range float values" in _assert_one_line_error(capsys)
    assert not out.exists()


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


# sha256 of each file test_text_artifacts_keep_their_bytes writes
TEXT_ARTIFACT_SHA256 = {
    "split.json": "21fcd0da4e0d5584bff5da0e9a6e9d91f82927561bd68219517185088235218b",
    "audit.json": "8eb25ce5dd3fbe29a9752ebdf4fdab3f973142a7e05233f9817914183d676263",
    "metrics.json": "345ad0d2ad7d6659cad9399423e14b92db2cdc62c6e5917a2ea7ef3a765681e1",
    "history.csv": "2e697b2f9d7fa33fd4a93322a72991ef27cc49ac02a7f8db16e6359469242eb7",
    "best_model.sfm": "e1292cd995f5d2b13820a7edfe65d339c4539d0803514fa1570e6f84f0fbe873",
}


def test_text_artifacts_keep_their_bytes(tmp_path, manifest_path):
    """Artifacts whose values involve no BLAS, pinned byte for byte: a split plan
    and its audit of the fixture manifest, and a fold's metrics.json, history.csv
    and best model written from fixed counts, history rows and initial weights."""
    split, audit = tmp_path / "split.json", tmp_path / "audit.json"
    assert cli.main(["split", "--manifest", str(manifest_path), "--out", str(split),
                     "--k", "3", "--seed", "4"]) == cli.EXIT_OK
    assert cli.main(["audit", "--manifest", str(manifest_path), "--split", str(split),
                     "--json-out", str(audit)]) == cli.EXIT_OK
    model = build_model(ModelConfig(input_height=16, input_width=16, channel_plan=(2,) * 9,
                                    hidden_units=4), seed=3)
    history = training.History()
    for epoch, loss, acc in ((1, 0.7, 0.5), (2, 0.6931471805599453, 2 / 3)):
        history.append(training.EpochRecord(epoch, 1e-4 * 0.96 ** (epoch - 1), loss, acc,
                                            loss + 0.1, acc))
    result = training.FitResult(final=model, best=model, best_epoch=2, history=history,
                                val_logits=np.zeros(11, dtype=np.float32))
    fold = tmp_path / "fold"
    # the subject vote's counts leave precision and MCC without a denominator
    cli._write_fold_artifacts(fold, result, ConfusionCounts(tp=3, fp=1, tn=5, fn=2), 0.5318,
                              ConfusionCounts(tp=0, fp=0, tn=3, fn=1))
    files = [split, audit, *(fold / name for name in (
        "metrics.json", "history.csv", "best_model.sfm"))]
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
    assert got == TEXT_ARTIFACT_SHA256
