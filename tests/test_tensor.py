import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import tsr1_bytes
from sliceforge import tensor
from sliceforge.data import VALID_CDR, AugmentConfig, DatasetManifest, SubjectRecord
from sliceforge.errors import FormatError, NumericError, ShapeError
from sliceforge.model import ModelConfig, ModelHeader
from sliceforge.splits import Fold, SplitConfig, SplitPlan
from sliceforge.training import TrainConfig


class TestCreate:
    """write_array refuses any array a TSR1 file cannot hold."""

    def test_zero_dim_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            tensor.write_array(tmp_path / "z.tsr", np.zeros((0, 2), dtype=np.float32))

    def test_rank_limit(self, tmp_path):
        with pytest.raises(ShapeError):
            tensor.write_array(tmp_path / "r.tsr", np.zeros((1, 1, 1, 1, 1), dtype=np.float32))

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(NumericError):
            tensor.write_array(tmp_path / "n.tsr", np.array([1.0, float("nan")], dtype=np.float32))


class TestFileFormat:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tsr"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        for read in (tensor.read_array, tensor.read_header):
            with pytest.raises(FormatError, match="bad magic"):
                read(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.tsr"
        tensor.write_array(path, np.array([[1, 2], [3, 4]], dtype=np.float32))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError, match="truncated"):
            tensor.read_array(path)

    def test_rank_out_of_range(self, tmp_path):
        path = tmp_path / "r.tsr"
        path.write_bytes(b"TSR1" + (9).to_bytes(4, "little") + b"\x01\x00\x00\x00" * 9)
        for read in (tensor.read_array, tensor.read_header):
            with pytest.raises(FormatError, match="rank"):
                read(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        path = tmp_path / "n.tsr"
        path.write_bytes(tsr1_bytes(np.array([[1.0, bad]])))
        with pytest.raises(FormatError, match="non-finite"):
            tensor.read_array(path)

    def test_header_probe(self, tmp_path):
        path = tmp_path / "t.tsr"
        tensor.write_array(path, np.ones((3, 4), dtype=np.float32))
        assert tensor.read_header(path) == (3, 4)
        # the header parse is read_array's: a short dim list or a zero dim is malformed
        blob = path.read_bytes()
        for bad, match in ((blob[:10], "truncated dim list"),
                           (blob[:8] + bytes(8), "dims must be >= 1")):
            path.write_bytes(bad)
            with pytest.raises(FormatError, match=match):
                tensor.read_header(path)

    @given(
        dims=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        raw_seed=st.integers(0, 2 ** 31),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random(self, tmp_path_factory, dims, raw_seed):
        rng = np.random.default_rng(raw_seed)
        arr = (rng.normal(size=dims) * 10.0 ** rng.integers(-3, 4)).astype(np.float32)
        path = tmp_path_factory.mktemp("tsr") / "x.tsr"
        tensor.write_array(path, arr)
        back = tensor.read_array(path)
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()
        assert not back.flags.writeable  # a view of the file's bytes, not a copy


class TestPgm:
    def test_valid_p5(self, tmp_path):
        img = np.arange(12, dtype=np.float32).reshape(3, 4)
        path = tmp_path / "x.pgm"
        tensor.write_pgm(path, img)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n4 3\n255\n")
        pixels = blob.split(b"255\n", 1)[1]
        assert len(pixels) == 12
        assert pixels[0] == 0 and pixels[-1] == 255

    def test_constant_image(self, tmp_path):
        path = tmp_path / "c.pgm"
        tensor.write_pgm(path, np.full((2, 2), 7.0))
        pixels = path.read_bytes().split(b"255\n", 1)[1]
        assert pixels == b"\x00" * 4


class TestAtomicWrites:
    """A write that raises partway leaves the old file and no temporary."""

    def test_raise_inside_the_block(self, tmp_path):
        target = tmp_path / "report.md"
        target.write_text("old", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with tensor.atomic_open(target, encoding="utf-8") as fh:
                fh.write("half of the new")
                fh.flush()
                raise RuntimeError("disk full")
        assert target.read_text(encoding="utf-8") == "old"
        assert list(tmp_path.iterdir()) == [target]

    def test_unserialisable_json(self, tmp_path):
        # json.dump has already written "{" when it meets the bad value
        target = tmp_path / "summary.json"
        tensor.write_json(target, {"k": 2})
        with pytest.raises(TypeError):
            tensor.write_json(target, {"a": 1, "b": object()})
        assert target.read_text(encoding="utf-8") == '{\n "k": 2\n}\n'
        assert list(tmp_path.iterdir()) == [target]

    def test_non_finite_json_keeps_old_file(self, tmp_path):
        # strict JSON has no spelling for an infinity
        target = tmp_path / "summary.json"
        tensor.write_json(target, {"x": 1.0})
        with pytest.raises(NumericError, match="cannot write JSON"):
            tensor.write_json(target, {"x": float("inf")})
        assert target.read_text(encoding="utf-8") == '{\n "x": 1.0\n}\n'
        assert list(tmp_path.iterdir()) == [target]

    def test_non_finite_array_keeps_old_file(self, tmp_path):
        target = tmp_path / "a.tsr"
        tensor.write_array(target, np.ones((2, 2), dtype=np.float32))
        with pytest.raises(NumericError):
            tensor.write_array(target, np.full((2, 2), np.nan, dtype=np.float32))
        assert np.array_equal(tensor.read_array(target), np.ones((2, 2), dtype=np.float32))
        assert list(tmp_path.iterdir()) == [target]

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "a.csv"
        target.write_text("old", encoding="utf-8")
        with tensor.atomic_open(target, encoding="utf-8", newline="") as fh:
            fh.write("new\n")
        assert target.read_text(encoding="utf-8") == "new\n"
        assert list(tmp_path.iterdir()) == [target]


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
model_configs = st.builds(
    ModelConfig, input_height=st.integers(1, 512), input_width=st.integers(1, 512),
    input_channels=st.integers(1, 4), channel_plan=st.tuples(*[st.integers(1, 512)] * 9),
    stride_plan=st.tuples(*[st.sampled_from((1, 2))] * 9),
    kernel=st.integers(0, 4).map(lambda k: 2 * k + 1), hidden_units=st.integers(1, 512),
    dropout_rate=st.floats(0.0, 1.0, exclude_max=True), threshold=unit)
split_fields = dict(k=st.integers(2, 100), seed=st.integers(), stratified=st.booleans(),
                    granularity=st.sampled_from(("subject", "slice")))
subjects = st.sampled_from(VALID_CDR).flatmap(lambda cdr: st.builds(
    SubjectRecord, subject_id=st.text(st.characters(blacklist_characters="#"), min_size=1),
    cdr=st.just(cdr), label=st.just(int(cdr > 0)), age=finite, sex=st.sampled_from("MF"),
    slices=st.lists(st.text(), min_size=1), mmse=st.none() | st.integers(0, 30)))
documents = st.one_of(
    model_configs,
    st.builds(TrainConfig, initial_lr=positive, decay_factor=unit | st.just(1.0),
              epochs=st.integers(1, 10 ** 6), batch_size=st.integers(1, 10 ** 6),
              clip_value=positive, clip_norm=positive, seed=st.integers()),
    st.builds(AugmentConfig, width_shift_frac=st.floats(0.0, 0.5),
              height_shift_frac=st.floats(0.0, 0.5), horizontal_flip=st.booleans()),
    st.builds(SplitConfig, **split_fields),
    st.builds(SplitPlan, **split_fields, folds=st.lists(st.builds(
        Fold, train=st.lists(st.text()), val=st.lists(st.text())))),
    st.builds(DatasetManifest, name=st.text(), slice_height=st.integers(1, 10 ** 4),
              slice_width=st.integers(1, 10 ** 4), intensity_ceiling=positive,
              subjects=st.lists(subjects, unique_by=lambda s: s.subject_id)),
    st.builds(ModelHeader, config=model_configs, bn_epsilon=finite, bn_momentum=finite),
)


@given(documents)
@settings(max_examples=300, deadline=None)
def test_from_doc_inverts_format_json(doc):
    """Every document the package reads is built back from its own JSON."""
    assert tensor.from_doc(type(doc), json.loads(tensor.format_json(doc)), "doc") == doc
