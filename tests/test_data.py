"""Manifest save/load round trip, each rejection path of ``load_manifest``,
and the CLI's exit code on a bad manifest."""

import json

import numpy as np
import pytest

from sliceforge import cli
from sliceforge.data import (
    AugmentConfig,
    DatasetManifest,
    SubjectRecord,
    augment,
    load_manifest,
    save_manifest,
)
from sliceforge.errors import DataError
from sliceforge.rng import TAG_AUGMENT, SplitMixStream
from sliceforge.tensor import write_array


def _subject(sid, cdr, n_slices=2, **kw):
    fields = dict(subject_id=sid, cdr=cdr, label=int(cdr > 0), age=70.5, sex="F", mmse=28,
                  slice_paths=[f"slices/{sid}/s{j}.tsr" for j in range(n_slices)])
    fields.update(kw)
    return SubjectRecord(**fields)


@pytest.fixture
def manifest_path(tmp_path):
    """A saved two-subject manifest whose 6x5 slice files all exist."""
    manifest = DatasetManifest(
        name="tiny", slice_height=6, slice_width=5, intensity_ceiling=200.0,
        subjects=[_subject("nc-0", 0.0), _subject("ad-0", 0.5, n_slices=1, sex="M", mmse=None)],
    )
    for s in manifest.subjects:
        for rel in s.slice_paths:
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            write_array(tmp_path / rel, np.full((6, 5), 100.0, dtype=np.float32))
    path = tmp_path / "manifest.json"
    save_manifest(path, manifest)
    return path


def _edit(path, change):
    doc = json.loads(path.read_text(encoding="utf-8"))
    change(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def test_round_trip(manifest_path):
    loaded = load_manifest(manifest_path)
    assert loaded.root == manifest_path.parent
    assert (loaded.name, loaded.slice_height, loaded.slice_width) == ("tiny", 6, 5)
    assert loaded.intensity_ceiling == 200.0
    assert [s.subject_id for s in loaded.subjects] == ["nc-0", "ad-0"]
    assert loaded.subjects[1] == _subject("ad-0", 0.5, n_slices=1, sex="M", mmse=None)
    assert loaded.slice_keys() == ["nc-0#0", "nc-0#1", "ad-0#0"]
    again = manifest_path.parent / "again.json"
    save_manifest(again, loaded)
    assert again.read_bytes() == manifest_path.read_bytes()


def _set_subject(key, value, i=0):
    def change(doc):
        doc["subjects"][i][key] = value
    return change


def _drop(key):
    def change(doc):
        del doc[key]
    return change


def _set(key, value):
    def change(doc):
        doc[key] = value
    return change


def _duplicate(doc):
    doc["subjects"][1]["subject_id"] = doc["subjects"][0]["subject_id"]


@pytest.mark.parametrize("change, message", [
    (_drop("slice_height"), "missing 'slice_height'"),
    (_set_subject("cdr", "abc"), "malformed manifest"),
    (_set("slice_height", "x"), "malformed manifest"),
    (_set("subjects", 3), "malformed manifest"),
    (_duplicate, "duplicate subject_id"),
    (_set_subject("label", 1), "label/CDR contradiction"),
    (_set_subject("slices", ["slices/nowhere.tsr"]), "missing slice file"),
    (_set("slice_width", 6), "manifest declares"),
], ids=["missing-key", "non-numeric-cdr", "non-numeric-height", "subjects-not-a-list",
        "duplicate-id", "label-cdr", "missing-slice", "dims-mismatch"])
def test_rejections(manifest_path, change, message):
    _edit(manifest_path, change)
    with pytest.raises(DataError, match=message):
        load_manifest(manifest_path)


def test_unreadable_json(manifest_path):
    manifest_path.write_text('{"name": ', encoding="utf-8")
    with pytest.raises(DataError, match="unreadable manifest"):
        load_manifest(manifest_path)


@pytest.mark.parametrize("change", [_set_subject("cdr", "abc"), _set("slice_height", "x")])
def test_cli_bad_manifest_exits_2(manifest_path, tmp_path, capsys, change):
    _edit(manifest_path, change)
    rc = cli.main(["split", "--manifest", str(manifest_path), "--out", str(tmp_path / "s.json"),
                   "--k", "2"])
    assert rc == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_augment_always_scale_normalizes():
    raw = np.full((8, 8), 300.0, dtype=np.float32)
    raw[0, 0] = 51.0
    still = AugmentConfig(width_shift_frac=0.0, height_shift_frac=0.0, horizontal_flip=False)
    out = augment(raw, still, SplitMixStream(0, TAG_AUGMENT, 0, 0), ceiling=255.0)
    assert out.dtype == np.float32
    assert out[0, 0] == np.float32(0.2)
    assert out.max() == 1.0
    with pytest.raises(TypeError):
        AugmentConfig(normalize=False)
