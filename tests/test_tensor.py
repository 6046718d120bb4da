import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import tsr1_bytes
from sliceforge import tensor
from sliceforge.errors import FormatError, NumericError, ShapeError


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
