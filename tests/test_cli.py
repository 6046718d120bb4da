"""Command-line exit codes (0, 2, 3 and 4) and messages on a tiny generated
dataset, the column layout of the audit table and the bytes of the artifacts
whose values involve no BLAS."""

import hashlib
import json
import os
import re
import signal
import subprocess
import sys

import numpy as np
import pytest

from helpers import nan_loss_eval_pass, rewrite_sfm_header, set_sfm_value, tsr1_bytes
from sliceforge import cli, training
from sliceforge.data import load_manifest
from sliceforge.metrics import ConfusionCounts, compute_metrics
from sliceforge.model import ModelConfig, build_model, extract_activation, forward, save_model
from sliceforge.splits import audit_split, kfold_split
from sliceforge.tensor import format_json, from_doc, read_array, write_array


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


def test_run_non_finite_history_value_exits_4(tmp_path, manifest_path, capsys, monkeypatch):
    monkeypatch.setattr(training, "_eval_pass", nan_loss_eval_pass(training._eval_pass))
    config = _write(tmp_path / "c.json", json.dumps(_config(tmp_path, manifest_path)))
    assert cli.main(["run", "--config", config]) == cli.EXIT_NUMERIC
    assert "non-finite history value at epoch 1" in _assert_one_line_error(capsys)
    assert not (tmp_path / "run" / "fold-1").exists()


def test_train_reproduces_the_folds_of_run(tmp_path, manifest_path):
    """train --fold i on run's split.json writes fold i's four files byte for byte."""
    config = _write(tmp_path / "c.json", json.dumps(_config(tmp_path, manifest_path)))
    assert cli.main(["run", "--config", config]) == cli.EXIT_OK
    for i in range(2):
        assert cli.main(["train", "--config", config, "--manifest", str(manifest_path),
                         "--split", str(tmp_path / "run" / "split.json"), "--fold", str(i),
                         "--output-dir", str(tmp_path / "train")]) == cli.EXIT_OK
        for name in ("metrics.json", "history.csv", "best_model.sfm", "final_model.sfm"):
            got, want = (tmp_path / run / f"fold-{i + 1}" / name for run in ("train", "run"))
            assert got.read_bytes() == want.read_bytes(), (i, name)


def test_evaluate_one_slice_at_a_time_reproduces_a_fold_of_run(tmp_path, manifest_path, capsys,
                                                                monkeypatch):
    """``run`` scores fold 1's best model on the logits of its validation
    pass, micro-batched at the default budget (the whole 6-slice set at
    16x16). ``evaluate`` over that fold's validation subjects, one slice per
    micro-batch, gives its metrics.json confusion counts and mean loss
    exactly: a slice's infer logit depends on that slice alone."""
    config = _write(tmp_path / "c.json", json.dumps(_config(tmp_path, manifest_path)))
    assert cli.main(["run", "--config", config]) == cli.EXIT_OK
    run = tmp_path / "run"
    val = json.loads((run / "split.json").read_text())["folds"][0]["val"]
    record = json.loads((run / "fold-1" / "metrics.json").read_text())
    forwards = []

    def counted(model, x, *args, **kwargs):
        forwards.append(len(x))
        return forward(model, x, *args, **kwargs)

    monkeypatch.setattr(training, "_INFER_BUDGET_BYTES", 1)  # one slice at least
    monkeypatch.setattr(training, "forward", counted)
    capsys.readouterr()
    assert cli.main(["evaluate", "--model", str(run / "fold-1" / "best_model.sfm"),
                     "--manifest", str(manifest_path), "--subjects", ",".join(val)]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert forwards == [1] * sum(doc["confusion"].values()) and len(forwards) > 1
    assert doc["confusion"] == record["confusion_slice_level"]
    assert doc["mean_loss"] == record["val_loss_best_model"]


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
        f"error: {config}: bad config: train.epochs must be an integer, got 1.5\n")
    del doc["output_dir"]
    _write(tmp_path / "c.json", json.dumps(doc))
    assert cli.main(["run", "--config", config]) == cli.EXIT_IO
    assert _assert_one_line_error(capsys) == (
        f"error: {config}: bad config: missing key 'output_dir'\n")


def test_run_config_parses_beside_another_main(tmp_path, manifest_path):
    """A profiler or runner that keeps its own __main__ module while running
    the CLI's still gets a parsed config."""
    config = _write(tmp_path / "c.json", json.dumps(_config(tmp_path, manifest_path)))
    code = ("import runpy, sys; sys.argv[1:1] = ['run', '--config']; "
            "runpy.run_module('sliceforge.cli', run_name='__main__')")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code, config], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert (tmp_path / "run" / "summary.json").is_file()


# runs ``cli.main(argv)``, SIGKILLing the process once half of eval.json is written
_KILL_HALFWAY_THROUGH_EVAL_JSON = """
import contextlib, os, signal, sys
from sliceforge import cli, tensor

real = tensor.atomic_open

class Half:
    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        os.kill(os.getpid(), signal.SIGKILL)

@contextlib.contextmanager
def killing(path, mode="w", **kwargs):
    with real(path, mode, **kwargs) as fh:
        yield Half(fh) if os.path.basename(path) == "eval.json" else fh

tensor.atomic_open = killing
sys.exit(cli.main(sys.argv[1:]))
"""


def test_evaluate_killed_while_writing_leaves_no_json(tmp_path, manifest_path):
    """A SIGKILL halfway through eval.json leaves no eval.json, only the
    killed process's one temporary, and a rerun writes the reference bytes."""
    argv = _command_argv("evaluate", tmp_path, manifest_path)
    reference = tmp_path / "reference.json"
    assert cli.main(argv + ["--json-out", str(reference)]) == cli.EXIT_OK
    out = tmp_path / "out"
    out.mkdir()
    target = out / "eval.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _KILL_HALFWAY_THROUGH_EVAL_JSON, *argv,
                           "--json-out", str(target)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert not target.exists()
    left = [p.name for p in out.iterdir()]
    assert len(left) <= 1 and all(re.fullmatch(r"eval\.json\.\d+\.tmp", name) for name in left)
    assert cli.main(argv + ["--json-out", str(target)]) == cli.EXIT_OK
    assert target.read_bytes() == reference.read_bytes()


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
    raw = read_array(bad).copy()  # read_array returns a read-only view
    raw[8:] = -1.0
    write_array(bad, raw)
    forwards = []

    def counted(model, x, *args, **kwargs):
        forwards.append(len(x))
        return forward(model, x, *args, **kwargs)

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


def test_evaluate_non_canonical_slice_key_exits_2(tmp_path, manifest_path, capsys):
    argv = _command_argv("evaluate", tmp_path, manifest_path)
    capsys.readouterr()
    assert cli.main(argv + ["--subjects", "nc-000#01"]) == cli.EXIT_IO
    assert "slice nc-000#01: index '01'" in _assert_one_line_error(capsys)


def test_train_rejects_a_slice_alias_across_train_and_val(tmp_path, manifest_path, capsys):
    """A hand-edited slice-level split may name nc-000#1 for training and
    nc-000#01 for validation; fit's overlap check compares keys, so only the
    loader can tell that both are one slice."""
    train = ["nc-000#0", "nc-000#1", "ad-000#0", "ad-000#1"]
    split = _write(tmp_path / "split.json", json.dumps({
        "k": 2, "seed": 0, "stratified": False, "granularity": "slice",
        "folds": [{"train": train, "val": ["nc-000#01", "ad-001#0"]},
                  {"train": ["nc-001#0", "ad-001#0"], "val": train}]}))
    config = _write(tmp_path / "c.json", json.dumps(_config(tmp_path, manifest_path)))
    capsys.readouterr()
    assert cli.main(["train", "--config", config, "--manifest", str(manifest_path), "--split",
                     split, "--fold", "0", "--output-dir", str(tmp_path / "run"),
                     "--allow-leakage"]) == cli.EXIT_IO
    assert "slice nc-000#01: index '01'" in _assert_one_line_error(capsys)
    assert not (tmp_path / "run" / "fold-1" / "metrics.json").exists()


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


def test_non_finite_age_exits_2(tmp_path, capsys, one_class_split):
    # an infinite age stops the command at load, before audit's demographics could carry it
    manifest, split = one_class_split
    doc = json.loads(manifest.read_text())
    doc["subjects"][0]["age"] = float("inf")
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "audit.json"
    capsys.readouterr()
    assert cli.main(["audit", "--manifest", str(manifest), "--split", str(split),
                     "--json-out", str(out)]) == cli.EXIT_IO
    assert _assert_one_line_error(capsys) == (
        f"error: {manifest}: malformed manifest: "
        "subjects[0].age must be a finite number, got inf\n")
    assert not out.exists()


@pytest.mark.parametrize("document, where, value, message", [
    ("manifest", ("subjects", 0, "label"), "1", "subjects[0].label must be an integer, got '1'"),
    ("manifest", ("subjects", 1, "cdr"), "0.5",
     "subjects[1].cdr must be a finite number, got '0.5'"),
    ("manifest", ("subjects", 0, "age"), float("inf"),
     "subjects[0].age must be a finite number, got inf"),
    ("manifest", ("subjects", 2, "mmse"), 29.6, "subjects[2].mmse must be an integer, got 29.6"),
    ("manifest", ("slice_height",), 16.7, "slice_height must be an integer, got 16.7"),
    ("manifest", ("subjects", 0, "slices"), "slices/nc-000/s000.tsr",
     "subjects[0].slices must be a list, got 'slices/nc-000/s000.tsr'"),
    ("config", ("trian",), {"epochs": 1}, "unknown key 'trian' in config"),
    ("config", ("split", "K"), 3, "unknown key 'K' in split"),
    ("plan", ("folds", 1, "train"), "nc-000", "folds[1].train must be a list, got 'nc-000'"),
    ("config", ("train", "epochs"), 0, "bad config: train.epochs must be positive, got 0"),
    ("config", ("train", "batch_size"), -1, "train.batch_size must be positive, got -1"),
    ("config", ("model",), {"hidden_units": 0}, "model.hidden_units must be positive, got 0"),
    ("config", ("split", "k"), 1, "split.k must be >= 2, got 1"),
    ("plan", ("k",), None, "bad split plan: missing key 'k'"),
    ("manifest", ("subjects", 1, "cdr"), None, "missing key 'subjects[1].cdr'"),
], ids=["label-string", "cdr-string", "age-infinite", "mmse-fraction", "height-fraction",
        "slices-string", "config-section", "split-key", "plan-members-string", "epochs-zero",
        "batch-size-negative", "hidden-units-zero", "split-k-one", "plan-missing-k",
        "cdr-missing"])
def test_mistyped_or_unknown_key_exits_2(tmp_path, own_manifest_path, capsys, document, where,
                                         value, message):
    """Each JSON document is read by its dataclass's fields: a value of the wrong
    type or out of range, an unknown key or a missing one (``value`` None)
    exits 2 with one line that names its path, and writes nothing."""
    split, config, out = tmp_path / "split.json", tmp_path / "c.json", tmp_path / "out.json"
    assert cli.main(["split", "--manifest", str(own_manifest_path), "--out", str(split),
                     "--k", "2"]) == cli.EXIT_OK
    _write(config, json.dumps(_config(tmp_path, own_manifest_path)))
    path = {"manifest": own_manifest_path, "config": config, "plan": split}[document]
    doc = json.loads(path.read_text())
    target = doc
    for key in where[:-1]:
        target = target[key]
    if value is None:
        del target[where[-1]]
    else:
        target[where[-1]] = value
    path.write_text(json.dumps(doc))
    argv = {
        "manifest": ["split", "--manifest", str(own_manifest_path), "--out", str(out), "--k", "2"],
        "config": ["run", "--config", str(config)],
        "plan": ["audit", "--manifest", str(own_manifest_path), "--split", str(split),
                 "--json-out", str(out)],
    }[document]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_IO
    assert message in _assert_one_line_error(capsys)
    assert not out.exists() and not (tmp_path / "run").exists()


def _inspect_activation(tmp_path, manifest_path, *extra, slice_path=None):
    model = build_model(ModelConfig(input_height=16, input_width=16), seed=0)
    save_model(tmp_path / "m.sfm", model)
    slice_path = slice_path or manifest_path.parent / "slices" / "ad-000" / "s000.tsr"
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


def test_inspect_activation_rejects_a_slice_of_another_size(tmp_path, manifest_path, capsys):
    """An 8x8 slice to a 16x16 model: the message names the configured input,
    not the plan the pass would run in."""
    write_array(tmp_path / "small.tsr", np.ones((8, 8), dtype=np.float32))
    _, _, rc = _inspect_activation(tmp_path, manifest_path, "--manifest", str(manifest_path),
                                   slice_path=tmp_path / "small.tsr")
    assert rc == cli.EXIT_IO
    err = _assert_one_line_error(capsys)
    assert "(1, 1, 8, 8) does not match configured input [N,1,16,16]" in err
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("step_size", ["nan", "inf", "0", "-1"])
def test_inspect_maximize_rejects_a_step_size_that_does_not_climb(tmp_path, capsys, step_size):
    save_model(tmp_path / "m.sfm", build_model(ModelConfig(input_height=16, input_width=16), seed=0))
    assert cli.main(["inspect", "--model", str(tmp_path / "m.sfm"), "--mode", "maximize",
                     "--block", "1", "--channel", "0", "--steps", "2", "--step-size", step_size,
                     "--out", str(tmp_path / "out")]) == cli.EXIT_IO
    assert "step_size must be" in _assert_one_line_error(capsys)
    assert not any((tmp_path / "out").iterdir())


REPORT_TABLES = ("report.md", "aggregate.csv", "folds.csv")

# a summary.json as run writes it: keys sorted, so the aggregate's metrics are
# not in METRIC_NAMES order
SUMMARY = {
    "aggregate": {
        "accuracy": {"mean": 0.8333333333333334, "std": 0.11785113019775792},
        "f1": {"mean": 0.6, "std": 0.2},
        "mcc": {"mean": -0.1, "std": 0.05},
        "precision": {"mean": 0.6666666666666666, "std": 0.4714045207910317},
        "sensitivity": {"mean": 0.5, "std": 0.5},
        "specificity": {"mean": 1.0, "std": 0.0},
    },
    "fold_best_val_accuracy": [0.75, 1.0, 0.7445],
    "granularity": "subject",
    "k": 3,
    "leaked_subjects": [],
    "seed": 5,
}


def _summary_with(**edits):
    return json.dumps({**SUMMARY, **edits})


@pytest.mark.parametrize("summary", [
    '{"aggregate": {',
    '{"aggregate": {}}',
    '{"aggregate": {"accuracy": {"mean": 0.5}}, "fold_best_val_accuracy": [0.5]}',
    '{"aggregate": [], "fold_best_val_accuracy": [0.5]}',
    '{"aggregate": {}, "fold_best_val_accuracy": ["high"]}',
    '[]',
    pytest.param('{"aggregate": {}, "fold_best_val_accuracy": [0.5]}', id="no-metrics"),
    pytest.param(_summary_with(aggregate={k: v for k, v in SUMMARY["aggregate"].items()
                                          if k != "accuracy"}), id="missing-metric"),
    pytest.param(_summary_with(aggregate={**SUMMARY["aggregate"],
                                          "f1": {"mean": "0.5", "std": 0.0}}), id="string-mean"),
    pytest.param(_summary_with(fold_best_val_accuracy=[0.75, True, 0.5]), id="true-accuracy"),
    pytest.param(_summary_with(fold_best_val_accuracy=[]), id="no-folds"),
    pytest.param(_summary_with(k=2), id="k-not-fold-count"),
    pytest.param(None, id="no-summary"),
])
def test_report_corrupt_summary(tmp_path, capsys, summary):
    if summary is not None:
        _write(tmp_path / "summary.json", summary)
    assert cli.main(["report", "--run-dir", str(tmp_path)]) == cli.EXIT_IO
    assert "corrupt or incomplete summary: " in _assert_one_line_error(capsys)
    assert [p.name for p in tmp_path.iterdir()] == ([] if summary is None else ["summary.json"])


@pytest.mark.parametrize("edit, message", [
    ({"k": None}, "missing key 'k'"),
    ({"aggregate": {k: v for k, v in SUMMARY["aggregate"].items() if k != "mcc"}},
     "missing key 'aggregate.mcc'"),
    ({"aggregate": {**SUMMARY["aggregate"], "f1": {"mean": "0.5", "std": 0.0}}},
     "aggregate.f1.mean must be a finite number, got '0.5'"),
    ({"fold_best_val_accuracy": [0.75, True, 0.5]},
     "fold_best_val_accuracy[1] must be a finite number, got True"),
    ({"k": 2}, "k must be >= 2 and equal the 3 values of fold_best_val_accuracy, got 2"),
], ids=["k", "metric", "mean", "accuracy", "fold-count"])
def test_report_names_the_bad_key(tmp_path, capsys, edit, message):
    doc = {k: v for k, v in {**SUMMARY, **edit}.items() if v is not None}
    path = _write(tmp_path / "summary.json", json.dumps(doc))
    assert cli.main(["report", "--run-dir", str(tmp_path)]) == cli.EXIT_IO
    assert _assert_one_line_error(capsys) == (
        f"error: {path}: corrupt or incomplete summary: {message}\n")


def test_report_rewrites_the_tables_run_wrote(tmp_path, manifest_path, capsys):
    """report renders the tables from summary.json byte for byte as run did, and
    summary.json reads back into the RunSummary it was written from."""
    config = _write(tmp_path / "c.json", json.dumps(_config(tmp_path, manifest_path)))
    assert cli.main(["run", "--config", config]) == cli.EXIT_OK
    run_dir = tmp_path / "run"
    tables = {name: (run_dir / name).read_bytes() for name in REPORT_TABLES}
    for name in tables:
        (run_dir / name).unlink()
    capsys.readouterr()
    assert cli.main(["report", "--run-dir", str(run_dir)]) == cli.EXIT_OK
    assert capsys.readouterr().out == tables["report.md"].decode("utf-8")
    assert {name: (run_dir / name).read_bytes() for name in tables} == tables
    text = (run_dir / "summary.json").read_text(encoding="utf-8")
    summary = from_doc(cli.RunSummary, json.loads(text), "summary")
    assert format_json(summary) + "\n" == text


def test_seed_defaults_to_zero(tmp_path):
    """generate and split without --seed write what they write with --seed 0."""
    written = []
    for name, seed in (("omitted", []), ("zero", ["--seed", "0"])):
        root = tmp_path / name
        assert cli.main(["generate", "--out", str(root / "data"), "--subjects-per-class", "3",
                         "--slices", "2", "--height", "8", "--width", "8", *seed]) == cli.EXIT_OK
        assert cli.main(["split", "--manifest", str(root / "data" / "manifest.json"), "--out",
                         str(root / "split.json"), "--k", "2", *seed]) == cli.EXIT_OK
        written.append({p.relative_to(root): p.read_bytes()
                        for p in sorted(root.rglob("*")) if p.is_file()})
    assert len(written[0]) == 2 * 3 * 2 + 2  # 12 slices, the manifest and the plan
    assert written[0] == written[1]


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
    "report.md": "d4fa93bef51463a55ca81365d78112c7490a0f7719531e1b0ef0b341724ec2a4",
    "aggregate.csv": "f4b79b5d7bab598f50539ff40582cf2904c95aa97972a81ab70aca389b7c6bd7",
    "folds.csv": "0c8fe31d29de95e6109006e251e14a776fc7383450140db0b49477a2ca65608c",
}


def test_text_artifacts_keep_their_bytes(tmp_path, manifest_path):
    """Artifacts whose values involve no BLAS, pinned byte for byte: a split plan
    and its audit of the fixture manifest, a fold's metrics.json, history.csv
    and best model written from fixed counts, history rows and initial weights,
    and the tables report writes from the literal SUMMARY."""
    split, audit = tmp_path / "split.json", tmp_path / "audit.json"
    assert cli.main(["split", "--manifest", str(manifest_path), "--out", str(split),
                     "--k", "3", "--seed", "4"]) == cli.EXIT_OK
    assert cli.main(["audit", "--manifest", str(manifest_path), "--split", str(split),
                     "--json-out", str(audit)]) == cli.EXIT_OK
    model = build_model(ModelConfig(input_height=16, input_width=16, channel_plan=(2,) * 9,
                                    hidden_units=4), seed=3)
    history = [training.EpochRecord(epoch, 1e-4 * 0.96 ** (epoch - 1), loss, acc, loss + 0.1, acc)
               for epoch, loss, acc in ((1, 0.7, 0.5), (2, 0.6931471805599453, 2 / 3))]
    result = training.FitResult(final=model, best=model, best_epoch=2, history=history,
                                val_logits=np.zeros(11, dtype=np.float32))
    fold = tmp_path / "fold"
    # the subject vote's counts leave precision and MCC without a denominator
    counts, subject_counts = ConfusionCounts(tp=3, fp=1, tn=5, fn=2), ConfusionCounts(0, 0, 3, 1)
    cli._write_fold_artifacts(fold, result, cli.FoldRecord(
        2, 2 / 3, 0.5318, counts, compute_metrics(counts), subject_counts,
        compute_metrics(subject_counts)))
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    _write(run_dir / "summary.json", json.dumps(SUMMARY))
    assert cli.main(["report", "--run-dir", str(run_dir)]) == cli.EXIT_OK
    files = [split, audit, *(fold / name for name in (
        "metrics.json", "history.csv", "best_model.sfm")),
        *(run_dir / name for name in REPORT_TABLES)]
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
    assert got == TEXT_ARTIFACT_SHA256
