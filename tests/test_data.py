"""Manifest save/load round trip, each rejection path of ``load_manifest``,
the CLI's exit code on a bad manifest, ``load_slice_set``'s normalized
tensor and ``augment`` on normalized slices."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_augment
from sliceforge import cli
from sliceforge.data import (
    AugmentConfig,
    DatasetManifest,
    SliceReader,
    SubjectRecord,
    augment,
    generate_synthetic,
    load_manifest,
    load_slice_set,
    scale_normalize,
)
from sliceforge.errors import ConfigError, DataError
from sliceforge.rng import TAG_AUGMENT, SplitMixStream
from sliceforge.tensor import write_array, write_json


def _subject(sid, cdr, n_slices=2, **kw):
    fields = dict(subject_id=sid, cdr=cdr, label=int(cdr > 0), age=70.5, sex="F", mmse=28,
                  slices=[f"slices/{sid}/s{j}.tsr" for j in range(n_slices)])
    fields.update(kw)
    return SubjectRecord(**fields)


def _raw_slice(k):
    return (np.arange(30, dtype=np.float32) * (5 * (k + 1))).reshape(6, 5)


@pytest.fixture
def manifest_path(tmp_path):
    """A saved two-subject manifest whose 6x5 slice files all exist; slice k
    (in manifest order) holds 5 * (k + 1) * [0, 1, ..., 29], so slices 1 and 2
    rise above the 200 ceiling."""
    manifest = DatasetManifest(
        name="tiny", slice_height=6, slice_width=5, intensity_ceiling=200.0,
        subjects=[_subject("nc-0", 0.0), _subject("ad-0", 0.5, n_slices=1, sex="M", mmse=None)],
    )
    rels = [rel for s in manifest.subjects for rel in s.slices]
    for k, rel in enumerate(rels):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        write_array(tmp_path / rel, _raw_slice(k))
    path = tmp_path / "manifest.json"
    write_json(path, manifest)
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
    write_json(again, loaded)
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
    (_drop("slice_height"), "missing key 'slice_height'"),
    (_set_subject("cdr", "abc"), "malformed manifest"),
    (_set("slice_height", "x"), "malformed manifest"),
    (_set("subjects", 3), "malformed manifest"),
    (_duplicate, "duplicate subject_id"),
    (_set_subject("label", 1), "label/CDR contradiction"),
    (_set_subject("slices", ["slices/nowhere.tsr"]), "missing slice file"),
    (_set("slice_width", 6), "manifest declares"),
    (_set("intensity_ceiling", 0), "positive and finite"),
    (_set("intensity_ceiling", float("nan")), "finite number"),
    (_set("intensity_ceiling", "nan"), "finite number"),
    (_set("intensity_ceiling", float("inf")), "finite number"),
], ids=["missing-key", "non-numeric-cdr", "non-numeric-height", "subjects-not-a-list",
        "duplicate-id", "label-cdr", "missing-slice", "dims-mismatch", "zero-ceiling",
        "nan-ceiling", "nan-string-ceiling", "inf-ceiling"])
def test_rejections(manifest_path, change, message):
    _edit(manifest_path, change)
    with pytest.raises(DataError, match=message):
        load_manifest(manifest_path)


@pytest.mark.parametrize("ceiling", [0.0, -1.0, float("nan"), float("inf")])
def test_scale_normalize_needs_positive_finite_ceiling(ceiling):
    with pytest.raises(ConfigError, match="positive and finite"):
        scale_normalize(np.ones((2, 2), np.float32), ceiling)


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


def test_load_slice_set_by_subject_equals_by_key(manifest_path):
    manifest = load_manifest(manifest_path)
    by_subject = load_slice_set(manifest, ["nc-0", "ad-0"])
    by_key = load_slice_set(manifest, ["nc-0#0", "nc-0#1", "ad-0#0"])
    assert by_subject.x.tobytes() == by_key.x.tobytes()
    assert by_subject.labels.tolist() == by_key.labels.tolist() == [0, 0, 1]
    assert by_subject.slice_keys == by_key.slice_keys == ["nc-0#0", "nc-0#1", "ad-0#0"]
    assert by_subject.subject_ids == by_key.subject_ids == ["nc-0", "nc-0", "ad-0"]


def test_load_slice_set_is_normalized_model_input(manifest_path):
    manifest = load_manifest(manifest_path)
    ds = load_slice_set(manifest, ["ad-0#0", "nc-0#1"])
    assert ds.x.dtype == np.float32 and ds.x.shape == (2, 1, 6, 5)
    for row, k in zip(ds.x, (2, 1)):
        raw = _raw_slice(k)
        np.testing.assert_array_equal(row[0], np.minimum(raw / np.float32(200.0), 1.0))
        # raw values above the ceiling load as exactly 1.0
        assert (row[0][raw > 200.0] == 1.0).all() and (raw > 200.0).any()
    assert 0.0 <= ds.x.min() and ds.x.max() == 1.0


@pytest.mark.parametrize("members, message", [
    (["nc-0#2"], "out of range"),
    (["nc-0#x"], "out of range"),
    (["nobody"], "unknown subject_id"),
    ([], "empty member list"),
    (["nc-0#1", "ad-0#0", "nc-0#1"], "slice nc-0#1 is listed more than once"),
    (["ad-0", "nc-0", "ad-0"], "slice ad-0#0 is listed more than once"),
])
def test_load_slice_set_rejections(manifest_path, members, message):
    with pytest.raises(DataError, match=message):
        load_slice_set(load_manifest(manifest_path), members)


@pytest.mark.parametrize("alias", ["nc-0#01", "nc-0#\u0661"], ids=["leading-zero", "arabic-indic"])
def test_non_canonical_slice_key_is_rejected(manifest_path, alias):
    """Only the canonical index names a slice: int() reads "01" and an
    Arabic-Indic one as 1, so either key would load nc-0#1's file under a
    key the repeat check does not know."""
    with pytest.raises(DataError, match=f"slice {alias}: index .* not canonical"):
        load_slice_set(load_manifest(manifest_path), ["nc-0#1", alias])


def test_load_slice_set_peak_is_its_array(tmp_path):
    """Loading reads each slice straight into the set's one array: no list of
    rows is stacked after the reads."""
    manifest = generate_synthetic(4, 16, 64, 64, seed=2, out_dir=tmp_path)
    tracemalloc.start()
    try:
        ds = load_slice_set(manifest, manifest.slice_keys())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.x.shape == (128, 1, 64, 64)
    assert peak <= 1.1 * ds.x.nbytes


def test_slice_reader_reads_row_ranges_as_loaded(manifest_path):
    manifest = load_manifest(manifest_path)
    keys = ["ad-0#0", "nc-0#1", "nc-0#0"]
    loaded = load_slice_set(manifest, keys)
    reader = load_slice_set(manifest, keys, materialize=False).x
    assert isinstance(reader, SliceReader)
    assert len(reader) == 3 and reader.shape == loaded.x.shape
    assert reader.itemsize == loaded.x.itemsize
    for a, b in ((0, 3), (1, 3), (2, 2), (0, 10)):
        rows = reader[a:b]
        assert rows.dtype == np.float32 and rows.tobytes() == loaded.x[a:b].tobytes()


def test_slice_reader_rejects_wrong_dims(manifest_path):
    manifest = load_manifest(manifest_path)
    write_array(manifest_path.parent / "slices" / "nc-0" / "s1.tsr", np.ones((1, 5), np.float32))
    with pytest.raises(DataError, match=r"slice nc-0#1 \(.*s1\.tsr\): dims \(1, 5\)"):
        load_slice_set(manifest, ["nc-0"])


def test_augment_without_shift_or_flip_returns_input():
    x = np.linspace(0.0, 1.0, 128, dtype=np.float32).reshape(2, 1, 8, 8)
    still = AugmentConfig(width_shift_frac=0.0, height_shift_frac=0.0, horizontal_flip=False)
    out = augment(x, still, SplitMixStream(0, TAG_AUGMENT, 0, np.arange(2)))
    assert out.dtype == np.float32 and out.shape == x.shape
    assert out.tobytes() == x.tobytes()
    with pytest.raises(TypeError):
        AugmentConfig(normalize=False)
    with pytest.raises(DataError, match=r"\[N,C,H,W\]"):
        augment(x[0, 0], still, SplitMixStream(0))


@given(st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=4, unique=True),
       st.integers(1, 9), st.integers(1, 9),
       st.sampled_from([0.0, 0.1, 0.25, 0.5]), st.sampled_from([0.0, 0.2, 0.5]), st.booleans())
@example([3], 6, 8, 0.0, 0.5, False)  # N = 1, no width shift, flip off
@example([5, 1], 7, 9, 0.5, 0.0, True)
@settings(max_examples=60, deadline=None)
def test_augment_matches_per_slice_reference(idx, h, w, width_frac, height_frac, flip):
    cfg = AugmentConfig(width_frac, height_frac, flip)
    x = np.random.default_rng(len(idx) * h * w).uniform(size=(len(idx), 1, h, w))
    x = x.astype(np.float32)
    before = x.copy()
    out = augment(x, cfg, SplitMixStream(7, TAG_AUGMENT, 1, np.array(idx)))
    want = [reference_augment(x[r, 0], cfg, SplitMixStream(7, TAG_AUGMENT, 1, i))
            for r, i in enumerate(idx)]
    assert out.dtype == np.float32 and out.shape == x.shape
    assert out.tobytes() == np.stack(want)[:, None].tobytes()
    assert x.tobytes() == before.tobytes()
