import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from helpers import central_difference, max_rel_err, rewrite_sfm_header, set_sfm_value
from sliceforge import layers
from sliceforge import model as M
from sliceforge import training as T
from sliceforge.errors import ConfigError, FormatError, NumericError
from sliceforge.rng import TAG_DROPOUT, SplitMixStream
from sliceforge.tensor import format_json, json_fields


def small_config(**kw):
    defaults = dict(input_height=16, input_width=16)
    defaults.update(kw)
    return M.ModelConfig(**defaults)


class TestConfig:
    def test_default_plans(self):
        cfg = small_config()
        assert cfg.channel_plan == (8, 8, 16, 16, 32, 32, 64, 64, 128)
        assert cfg.stride_plan == (1, 2, 1, 2, 1, 2, 1, 2, 1)

    def test_short_channel_plan_rejected(self):
        with pytest.raises(ConfigError):
            small_config(channel_plan=(8,) * 8)

    def test_spatial_floor_is_one(self):
        # ceil(H/stride) under "same" padding can never drop below one pixel,
        # so even an all-stride-2 plan on a 2x2 input stays valid
        cfg = M.ModelConfig(input_height=2, input_width=2, stride_plan=(2,) * 9)
        assert cfg.spatial_dims()[-1] == (1, 1)
        model = M.build_model(cfg, seed=0)
        probs, _ = M.forward(model, np.zeros((1, 1, 2, 2), dtype=np.float32), "infer")
        assert probs.shape == (1,)

    def test_json_round_trip(self):
        cfg = small_config(hidden_units=32, dropout_rate=0.25)
        back = M.ModelConfig(**json.loads(format_json(cfg)))
        assert back == cfg


class TestBuild:
    def test_deterministic_from_seed(self):
        a = M.build_model(small_config(), seed=7)
        b = M.build_model(small_config(), seed=7)
        for (_, pa), (_, pb) in zip(a.state_arrays(), b.state_arrays()):
            assert pa.tobytes() == pb.tobytes()

    def test_seed_changes_weights(self):
        a = M.build_model(small_config(), seed=7)
        b = M.build_model(small_config(), seed=8)
        assert a.blocks[0].conv.depthwise.tobytes() != b.blocks[0].conv.depthwise.tobytes()

    def test_output_head_shape(self):
        model = M.build_model(small_config(), seed=1)
        x = np.zeros((3, 1, 16, 16), dtype=np.float32)
        probs, _ = M.forward(model, x, "infer")
        assert probs.shape == (3,)

    def test_parameter_count_formula(self):
        # per block: C_in*k^2 (depthwise) + C_in*C_out (pointwise) + C_out (bias)
        # + 4*C_out (norm); head: hidden and output affine layers
        cfg = small_config()
        model = M.build_model(cfg, seed=0)
        expected = 0
        c_in = 1
        for c_out in cfg.channel_plan:
            expected += c_in * cfg.kernel ** 2 + c_in * c_out + c_out + 4 * c_out
            c_in = c_out
        expected += cfg.hidden_units * c_in + cfg.hidden_units
        expected += cfg.hidden_units + 1
        assert sum(a.size for _, a in model.state_arrays()) == expected
        # hand-computed total for the default single-channel config:
        # blocks 57+176+280+480+816+1472+2656+4992+9408 = 20337,
        # hidden 64*128+64 = 8256, output 64+1 = 65
        assert sum(a.size for _, a in model.state_arrays()) == 28658


class TestForward:
    def test_zero_model_gives_half(self):
        model = M.build_model(small_config(), seed=3)
        for _, arr in model.named_parameters():
            arr[...] = 0.0
        x = np.random.default_rng(0).normal(size=(4, 1, 16, 16)).astype(np.float32)
        probs, _ = M.forward(model, x, "infer")
        np.testing.assert_array_equal(probs, 0.5)

    def test_probs_in_open_interval(self):
        model = M.build_model(small_config(), seed=4)
        x = np.random.default_rng(1).normal(size=(4, 1, 16, 16)).astype(np.float32)
        probs, _ = M.forward(model, x, "infer")
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_infer_deterministic(self):
        model = M.build_model(small_config(), seed=5)
        x = np.random.default_rng(2).normal(size=(2, 1, 16, 16)).astype(np.float32)
        a, _ = M.forward(model, x, "infer")
        b, _ = M.forward(model, x, "infer")
        assert np.array_equal(a, b)

    def test_infer_memory_peak(self):
        """Infer keeps no cache and no full-batch depthwise buffer, so one
        pass peaks near the largest block output (the input is not counted)."""
        cfg = M.ModelConfig(input_height=64, input_width=64)
        model = M.build_model(cfg, seed=6)
        x = np.random.default_rng(3).uniform(size=(16, 1, 64, 64)).astype(np.float32)
        M.forward(model, x, "infer")
        tracemalloc.start()
        try:
            M.forward(model, x, "infer")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        largest = max(16 * c * h * w * 4 for c, (h, w) in zip(cfg.channel_plan, cfg.spatial_dims()))
        assert peak <= 1.75 * largest

    def test_train_step_memory_peak(self):
        """One 64x64 batch-16 train-mode forward plus backward, with the
        float32 logit gradient ``fit`` passes, peaks within 5% of the measured
        9,705,717 B. ``backward`` frees each block's cache once that block is
        done; holding all nine until it returns peaks at 12,204,585 B."""
        cfg = M.ModelConfig(input_height=64, input_width=64, dropout_rate=0.0)
        model = M.build_model(cfg, seed=6)
        x = np.random.default_rng(3).uniform(size=(16, 1, 64, 64)).astype(np.float32)
        y = np.arange(16) % 2

        def step():
            _, caches = M.forward(model, x, "train")
            M.backward(model, caches, T.bce_loss(caches.logits, y)[1].astype(x.dtype))

        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10_200_000

    def test_train_step_gradients_repeat_bitwise(self):
        model = M.build_model(M.ModelConfig(input_height=32, input_width=32), seed=8)
        x = np.random.default_rng(5).uniform(size=(16, 1, 32, 32)).astype(np.float32)
        y = np.arange(16) % 2

        def grads():
            stream = SplitMixStream(0, TAG_DROPOUT, 0, np.arange(len(x)))
            _, caches = M.forward(model, x, "train", stream)
            return M.backward(model, caches, T.bce_loss(caches.logits, y)[1])

        first, second = grads(), grads()
        assert first.keys() == second.keys()
        for name in first:
            assert first[name].tobytes() == second[name].tobytes(), name

    def test_infer_blocks_keep_caches_only_on_request(self):
        # maximize_activation backpropagates through infer-mode blocks
        model = M.build_model(small_config(), seed=7)
        x = np.random.default_rng(4).normal(size=(1, 1, 16, 16)).astype(np.float32)
        _, caches = M._forward_blocks(model, x, "infer", upto=2)
        assert [type(conv) for conv, _ in caches] == [layers.SepConvCache] * 3
        assert M._forward_blocks(model, x, "infer", keep_caches=False)[1] == []

    def test_shape_mismatch(self):
        model = M.build_model(small_config(), seed=5)
        with pytest.raises(Exception):
            M.forward(model, np.zeros((1, 1, 8, 8), dtype=np.float32), "infer")


class TestPredictLabels:
    """The decision rule, probability >= threshold, applied to logits by
    ``training.logit_labels``; logit(p) = log(p / (1 - p))."""

    def test_boundary_is_positive(self):
        assert T.logit_labels(np.array([0.0], np.float32), 0.5).tolist() == [1]

    def test_below_threshold(self):
        assert T.logit_labels(np.array([np.log(0.49 / 0.51)], np.float32), 0.5).tolist() == [0]

    def test_separation(self):
        logits = np.array([np.log(0.1 / 0.9), np.log(0.9 / 0.1)], np.float32)
        assert T.logit_labels(logits, 0.5).tolist() == [0, 1]


class TestSaveLoad:
    def test_round_trip_outputs(self, tmp_path):
        model = M.build_model(small_config(), seed=6)
        x = np.random.default_rng(3).normal(size=(2, 1, 16, 16)).astype(np.float32)
        before, _ = M.forward(model, x, "infer")
        path = tmp_path / "m.sfm"
        M.save_model(path, model)
        loaded = M.load_model(path)
        after, _ = M.forward(loaded, x, "infer")
        assert before.tobytes() == after.tobytes()
        assert loaded.config == model.config

    def test_round_trip_bit_exact_params(self, tmp_path):
        model = M.build_model(small_config(), seed=7)
        path = tmp_path / "m.sfm"
        M.save_model(path, model)
        loaded = M.load_model(path)
        for (na, a), (nb, b) in zip(model.state_arrays(), loaded.state_arrays()):
            assert na == nb
            assert a.tobytes() == b.tobytes()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.sfm"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(FormatError, match="bad magic"):
            M.load_model(path)

    def test_truncated(self, tmp_path):
        model = M.build_model(small_config(), seed=8)
        path = tmp_path / "m.sfm"
        M.save_model(path, model)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            M.load_model(path)

    def test_version_mismatch(self, tmp_path):
        model = M.build_model(small_config(), seed=8)
        path = tmp_path / "m.sfm"
        M.save_model(path, model)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            M.load_model(path)


class TestCorruptModelFile:
    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "m.sfm"
        M.save_model(path, M.build_model(small_config(), seed=8))
        return path

    @pytest.mark.parametrize("key, value", [
        ("bn_epsilon", "abc"),
        ("bn_epsilon", -1),
        ("bn_epsilon", float("nan")),
        ("bn_momentum", 1.5),
    ])
    def test_bad_batchnorm_header(self, saved, key, value):
        rewrite_sfm_header(saved, **{key: value})
        with pytest.raises(FormatError):
            M.load_model(saved)

    def test_record_with_wrong_shape(self, saved):
        # a header that asks for 16 hidden units no longer fits hidden.weight
        header_cfg = json_fields(small_config(hidden_units=16))
        rewrite_sfm_header(saved, config=header_cfg)
        with pytest.raises(FormatError, match="hidden.weight has shape"):
            M.load_model(saved)

    def test_trailing_bytes(self, saved):
        saved.write_bytes(saved.read_bytes() + b"\x00" * 4)
        with pytest.raises(FormatError, match="4 trailing bytes"):
            M.load_model(saved)

    def test_negative_running_var(self, saved):
        model = M.load_model(saved)
        model.blocks[3].norm.running_var[0] = -1.0
        M.save_model(saved, model)
        with pytest.raises(FormatError, match="running_var"):
            M.load_model(saved)


    def test_non_finite_record(self, saved):
        set_sfm_value(saved, M.build_model(small_config(), seed=8), "block4.gamma", float("inf"))
        with pytest.raises(FormatError, match=r"block4\.gamma.*non-finite"):
            M.load_model(saved)

    def test_non_finite_weight_not_saved(self, tmp_path):
        model = M.build_model(small_config(), seed=8)
        model.hidden.weight[0, 0] = np.nan
        path = tmp_path / "nan.sfm"
        with pytest.raises(NumericError, match=r"hidden\.weight"):
            M.save_model(path, model)
        assert not path.exists()


class TestSlotTable:
    def test_sfm1_bytes_golden(self, tmp_path):
        path = tmp_path / "m.sfm"
        M.save_model(path, M.build_model(M.ModelConfig(input_height=16, input_width=16), seed=7))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "e10a813ddbc1005b9e46188b59cc960112c6f41cd27449c66a795254b8555da2"

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        path = tmp_path / "m.sfm"
        M.save_model(path, M.build_model(small_config(), seed=7))

        def refuse(self, *args, **kwargs):
            raise AssertionError("load_model constructed a SplitMixStream")

        monkeypatch.setattr(SplitMixStream, "__init__", refuse)
        loaded = M.load_model(path)
        assert sum(a.size for _, a in loaded.state_arrays()) == 28658

    def test_astype_casts_every_array_and_leaves_source(self):
        model = M.build_model(small_config(), seed=7)
        shadow = model.astype(np.float64)
        assert [n for n, _ in shadow.state_arrays()] == [n for n, _ in model.state_arrays()]
        for (_, a64), (_, a32) in zip(shadow.state_arrays(), model.state_arrays()):
            assert a64.dtype == np.float64
            assert a32.dtype == np.float32
            np.testing.assert_array_equal(a64, a32)

    def test_backward_names_every_parameter(self):
        model = M.build_model(small_config(dropout_rate=0.0), seed=7)
        x = np.random.default_rng(0).uniform(size=(2, 1, 16, 16)).astype(np.float32)
        _, caches = M.forward(model, x, "train")
        grads = M.backward(model, caches, np.full(2, 0.25, dtype=np.float32))
        params = dict(model.named_parameters())
        # backward fills the head first and the blocks last to first
        assert set(grads) == set(params)
        for name, g in grads.items():
            assert g.shape == params[name].shape, name

    def test_table_matches_the_model(self):
        model = M.build_model(small_config(hidden_units=32), seed=2)
        slots = M.slot_table(model.config)
        assert [s.name for s in slots] == [n for n, _ in model.state_arrays()]
        assert [s.shape for s in slots] == [a.shape for _, a in model.state_arrays()]
        assert [s.name for s in slots if s.trainable] == [n for n, _ in model.named_parameters()]
        assert len(slots) == 7 * M.N_BLOCKS + 4


class TestActivations:
    def test_map_shape_tracks_block_dims(self):
        cfg = small_config()
        model = M.build_model(cfg, seed=9)
        x = np.random.default_rng(4).normal(size=(1, 1, 16, 16)).astype(np.float32)
        dims = cfg.spatial_dims()
        for block in (0, 3, 8):
            amap = M.extract_activation(model, x, block, 0)
            assert amap.shape == dims[block]

    def test_channel_bounds(self):
        cfg = small_config()
        model = M.build_model(cfg, seed=9)
        x = np.zeros((1, 1, 16, 16), dtype=np.float32)
        with pytest.raises(ConfigError):
            M.extract_activation(model, x, 0, cfg.channel_plan[0])
        with pytest.raises(ConfigError):
            M.extract_activation(model, x, 99, 0)

    def test_identity_block_passthrough(self):
        # center-delta depthwise, identity pointwise, stats (0,1): block 0 is
        # a scale of the input, so a constant input gives a constant map
        cfg = small_config(channel_plan=(1,) * 9, stride_plan=(1,) * 9)
        model = M.build_model(cfg, seed=10)
        blk = model.blocks[0]
        blk.conv.depthwise[...] = 0.0
        blk.conv.depthwise[0, 0, 1, 1] = 1.0
        blk.conv.pointwise[...] = 1.0
        blk.conv.bias[...] = 0.0
        x = np.full((1, 1, 16, 16), 3.0, dtype=np.float32)
        amap = M.extract_activation(model, x, 0, 0)
        assert np.allclose(amap, amap.flat[0])


class TestMaximize:
    def linear_single_block_model(self):
        # positive pointwise and a large bias keep the ReLU inactive region
        # away, so the objective is linear in the input
        cfg = small_config(channel_plan=(2,) * 9, stride_plan=(1,) * 9, kernel=3)
        model = M.build_model(cfg, seed=11)
        blk = model.blocks[0]
        blk.conv.depthwise[...] = 0.1
        blk.conv.pointwise[...] = 0.2
        blk.conv.bias[...] = 5.0
        return model

    def test_objective_nondecreasing_linear(self):
        model = self.linear_single_block_model()
        _, trace = M.maximize_activation(model, 0, 0, steps=10, step_size=0.1, seed=0)
        assert len(trace) == 11
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_steps_precondition(self):
        model = self.linear_single_block_model()
        with pytest.raises(ConfigError):
            M.maximize_activation(model, 0, 0, steps=0, step_size=0.1, seed=0)

    def test_deterministic(self):
        model = M.build_model(small_config(), seed=12)
        a, ta = M.maximize_activation(model, 2, 1, steps=5, step_size=0.5, seed=3)
        b, tb = M.maximize_activation(model, 2, 1, steps=5, step_size=0.5, seed=3)
        assert a.tobytes() == b.tobytes()
        assert ta == tb
        assert np.all(np.isfinite(a))


class TestWholeModelGradient:
    def test_matches_finite_differences(self):
        # float64 shadow of the full default model on a 2-sample 16x16 batch,
        # dropout disabled; h=1e-5 keeps the probe inside one ReLU region
        cfg = small_config(dropout_rate=0.0)
        model = M.build_model(cfg, seed=7).astype(np.float64)
        rng = np.random.default_rng(3)
        x = rng.normal(0.5, 0.25, size=(2, 1, 16, 16))
        y = np.array([0, 1])

        def loss_value():
            _, caches = M.forward(model, x, "train")
            loss, _ = T.bce_loss(caches.logits, y)
            return loss

        _, caches = M.forward(model, x, "train")
        loss, dlogits = T.bce_loss(caches.logits, y)
        grads = M.backward(model, caches, dlogits)

        check_rng = np.random.default_rng(11)
        worst = 0.0
        for name, p in model.named_parameters():
            flat = p.reshape(-1)
            coords = check_rng.choice(flat.size, size=min(4, flat.size), replace=False)
            for c in coords:
                old = flat[c]
                flat[c] = old + 1e-5
                fp = loss_value()
                flat[c] = old - 1e-5
                fm = loss_value()
                flat[c] = old
                fd = (fp - fm) / 2e-5
                an = grads[name].reshape(-1)[c]
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-6))
        assert worst <= 1e-3
