import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from helpers import (backward_bytes, central_difference, infer_plan_bytes, max_rel_err,
                     rewrite_sfm_header, set_sfm_value, train_cache_bytes)
from sliceforge import layers
from sliceforge import model as M
from sliceforge import training as T
from sliceforge.errors import ConfigError, FormatError, NumericError
from sliceforge.rng import TAG_DROPOUT, SplitMixStream
from sliceforge.tensor import format_json, from_doc, json_fields


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
        back = from_doc(M.ModelConfig, json.loads(format_json(cfg)), "model")
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

    @staticmethod
    def _model_with_running_stats(**kw):
        model = M.build_model(small_config(**kw), seed=5)
        rng = np.random.default_rng(9)
        for blk in model.blocks:
            blk.norm.running_mean[...] = rng.normal(0.0, 0.5, blk.norm.running_mean.shape)
            blk.norm.running_var[...] = rng.uniform(0.2, 2.0, blk.norm.running_var.shape)
        return model

    def test_infer_runs_the_folded_model(self):
        model = self._model_with_running_stats()
        x = np.random.default_rng(2).normal(size=(3, 1, 16, 16)).astype(np.float32)
        fixed = model.folded()
        assert fixed.folded() is fixed
        assert all(blk.norm is None for blk in fixed.blocks)
        a, caches = M.forward(model, x, "infer")
        b, fixed_caches = M.forward(fixed, x, "infer")
        assert a.tobytes() == b.tobytes()
        assert caches.logits.tobytes() == fixed_caches.logits.tobytes()

    def test_infer_ignores_dropout_rate(self):
        # infer mode runs dropout at rate 0, so it needs no stream at any rate
        x = np.random.default_rng(2).normal(size=(3, 1, 16, 16)).astype(np.float32)
        dropped, _ = M.forward(self._model_with_running_stats(dropout_rate=0.9), x, "infer")
        kept, _ = M.forward(self._model_with_running_stats(dropout_rate=0.0), x, "infer")
        assert dropped.tobytes() == kept.tobytes()

    def test_unknown_mode_touches_nothing(self):
        model = self._model_with_running_stats()
        before = [arr.tobytes() for _, arr in model.state_arrays()]
        x = np.random.default_rng(2).normal(size=(3, 1, 16, 16)).astype(np.float32)
        with pytest.raises(ConfigError, match="mode must be 'train' or 'infer'"):
            M.forward(model, x, "eval")
        assert [arr.tobytes() for _, arr in model.state_arrays()] == before

    def test_infer_memory_peak(self):
        """Infer mode keeps no cache and allocates its buffers once, in a plan.
        For two 128x128 slices the plan holds the bytes ``infer_plan_bytes``
        counts from the config (2,369,136 B: no phase planes after block 0's,
        each block writing its output as the next block's planes, and blocks
        1-4 forming channel tiles), plus the cast [W | bias] kernels and its
        views and objects; measured 2,467,576 B. Before channel tiles the
        plan counted 2,986,608 B and measured 3,085,048 B (3,103,720 B before
        infer plans dropped the backward's tap table), against 4,348,656 B
        when every block filled planes of its own. A
        pass in that plan allocates only the head's and the pool's small
        arrays: the head's float64 weights are cast once, by
        ``Model.folded``, where each ``dense`` call cast its weight (65,536 B
        for the hidden layer). At 64x64 a pass measured 36,016 B, below 64
        KiB, against 70,608 B with the per-call cast. At 128x128 the pool's
        float64 mean of 16,384 values takes numpy's 8,192-value cast buffer,
        64 KiB, so a pass measured 68,730 B there; that stays under two
        slices' input."""
        for size, bound in ((128, 2 * 4 * 128 * 128), (64, 64 << 10)):
            cfg = M.ModelConfig(input_height=size, input_width=size)
            fixed = M.build_model(cfg, seed=6).folded()
            x = np.random.default_rng(3).uniform(size=(2, 1, size, size)).astype(np.float32)
            tracemalloc.start()
            try:
                plan = M.plan_blocks(fixed, len(x), x.dtype)
                built = tracemalloc.get_traced_memory()[0]
                M.forward(fixed, x, "infer", plan=plan)
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                M.forward(fixed, x, "infer", plan=plan)
                reuse = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert built <= infer_plan_bytes(cfg, len(x), layers._CHUNK_BYTES) + (128 << 10)
            assert reuse < bound, size

    def test_one_slice_128_plan_tiles_channels(self):
        """At 128x128, one sample's tap stack overflows ``_CHUNK_BYTES`` in
        blocks 1-4, so their forwards run in tiles of 3, 3, 13 and 13
        channels, and the shared store is block 0's one-channel tap stack, 9
        taps of 128 x 130 floats: 599,040 B, where block 2's whole sample
        took 1,216,512 B. ``infer_plan_bytes`` counts the plan's buffers
        exactly: 1,610,392 B for one slice (2,227,864 B before tiles)."""
        cfg = M.ModelConfig(input_height=128, input_width=128)
        plans = M.plan_blocks(M.build_model(cfg, seed=6).folded(), 1, np.float32)
        assert [plan.group for plan in plans] == [1, 3, 3, 13, 13, 32, 32, 64, 64]
        assert plans[0].store.nbytes == 4 * 9 * 128 * 130 == 599_040

        def owner(a):
            return a if a.base is None else owner(a.base)

        buffers = {id(owner(a)): owner(a) for plan in plans
                   for a in (plan.store, plan.acc, plan.out, plan.mask)}
        held = sum(a.nbytes for a in buffers.values()) + plans[0].planes.nbytes
        assert held == infer_plan_bytes(cfg, 1, layers._CHUNK_BYTES) == 1_610_392

    def test_train_step_memory_peak(self):
        """One 64x64 batch-16 train-mode forward plus backward, with the
        float32 logit gradient ``fit`` passes, peaks within the block caches,
        as ``train_cache_bytes`` counts them from the config (7,099,520 B,
        blocks 0 and 1's outputs laid over later blocks' outputs), the
        shared tap stack (``_CHUNK_BYTES``), block 0's ``dx`` (which
        ``backward`` no longer forms; the bound still counts it) and the
        largest chunk temporaries (``backward_bytes``) and 512 KiB:
        9,266,688 B; measured 8,878,195 B. When each block owned its output
        the caches counted 10,006,656 B and the bound 12,173,824 B; the step
        measured 11,885,688 B, with the pointwise gradient's products formed
        one sample at a time; 12,025,352 B with all of them at once, and
        12,075,200 B while block 0 also formed its ``dx``. The forward runs in
        a ``plan_blocks(..., keep=True)`` of its own, and each cache holds its
        plan, so the shared tap stack and accumulator live until the last
        block's backward is done. Each backward's tap stack is a view of that
        shared one, and each block after the first writes its ``dx`` over its
        input planes. With a fresh ``dx`` per block the step measured
        12,426,239 B, which fails here (11,901,599 B before the caches held
        their plans). The caches are laid out as the next block's phase
        planes, so they hold the padding too, and block 0's keeps the input
        planes: compact, they were 7,710,720 B and the step peaked at
        9,744,421 B. ``backward`` frees each block's cache once that block is
        done; holding all nine until it returns peaked at 14,320,737 B."""
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
        dx, chunk = backward_bytes(cfg, len(x), layers._CHUNK_BYTES)
        assert peak <= (train_cache_bytes(cfg, len(x)) + layers._CHUNK_BYTES + dx + chunk
                        + (512 << 10))

    @pytest.mark.parametrize("size", [64, 128])
    def test_train_step_in_a_kept_plan_memory_peak(self, size):
        """``fit`` runs every step of an epoch in one ``plan_blocks(...,
        keep=True)``, so a batch-16 step peaks above that plan only by what a
        backward holds beside it. Each block after the first writes its ``dx``
        over its input planes, its producer's ReLU output, which nothing reads
        after that backward, and block 0 forms no ``dx``: ``backward`` has no
        use for it. Blocks 0 and 1's outputs, laid over later blocks', are
        rebuilt in place, in the plan. So the bound is the largest chunk
        temporaries of any block, as ``backward_bytes`` counts them from the
        config, plus the pooling gradient, plus a slack for the chunk's
        other temporaries (its ReLU mask, the row dots and numpy's iteration
        buffers), one sample's product of the pointwise gradient, the
        batchnorm gradient's float64 arrays, the gradients, the cached arrays
        of the blocks not yet done and the head's arrays. The pooling gradient
        is held through block 8's backward only, its one reader, but at
        128x128 that is where the step peaks. At 64x64: block 5's 573,440 B
        and 131,072 B, with 272 KiB in all 983,040 B; measured 953,623 B, in
        block 8's backward. At 128x128: block 7's 573,440 B and 524,288 B,
        with 160 KiB in all 1,261,568 B; measured 1,225,168 B, in block 8's
        backward. Both had 384 KiB of slack, and measured 1,004,544 B and
        1,322,680 B, while ``batchnorm_backward`` kept P alive through
        ``d_beta``, a view of it, and wrote its conv gradient and
        ``v @ cov`` to fresh arrays, and ``sepconv2d_backward`` held the
        float64 gradients through its chunks. Holding the pooling gradient
        through every block's backward, and the pointwise gradient's products
        of all samples at once, the step measured 1,153,088 B (in block 8's
        backward) and 1,611,231 B (in block 7's). Forming block 0's ``dx``
        (2,138,496 B at 128x128) it measured 3,013,344 B there, and with a
        fresh ``dx`` per block, which the caller took through the producer's
        ReLU, 3,586,585 B and 12,156,337 B. Each fails here."""
        cfg = M.ModelConfig(input_height=size, input_width=size, dropout_rate=0.0)
        model = M.build_model(cfg, seed=6)
        x = np.random.default_rng(3).uniform(size=(16, 1, size, size)).astype(np.float32)
        y = np.arange(16) % 2

        def step():
            _, caches = M.forward(model, x, "train", plan=plan)
            M.backward(model, caches, T.bce_loss(caches.logits, y)[1].astype(x.dtype))

        plan = M.plan_blocks(model, len(x), x.dtype, keep=True)
        step()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        _, chunk = backward_bytes(cfg, len(x), layers._CHUNK_BYTES)
        pool = x.itemsize * len(x) * cfg.channel_plan[-1] * math.prod(cfg.spatial_dims()[-1])
        assert peak <= chunk + pool + {64: 272 << 10, 128: 160 << 10}[size]

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

    def test_float64_logit_gradient_gives_float32_gradients(self):
        """``backward`` casts the logit gradient to the forward's dtype: bce_loss's
        float64 gradient and its float32 cast give the same float32 bits."""
        model = M.build_model(small_config(dropout_rate=0.0), seed=8)
        x = np.random.default_rng(6).uniform(size=(4, 1, 16, 16)).astype(np.float32)
        y = np.arange(4) % 2

        def grads(dtype):
            _, caches = M.forward(model, x, "train")
            return M.backward(model, caches, T.bce_loss(caches.logits, y)[1].astype(dtype))

        wide, narrow = grads(np.float64), grads(np.float32)
        assert wide.keys() == narrow.keys()
        for name in wide:
            assert wide[name].dtype == np.float32, name
            assert wide[name].tobytes() == narrow[name].tobytes(), name

    def test_folded_blocks_cache_exactly_in_keep_plans(self):
        # maximize_activation backpropagates through the folded model's blocks, in
        # keep plans of the model cut after the block it reads
        model = M.build_model(small_config(), seed=7)
        x = np.random.default_rng(4).normal(size=(1, 1, 16, 16)).astype(np.float32)
        fixed = model.folded()
        trunk = M.Model(fixed.config, fixed.blocks[:3], fixed.hidden, fixed.output)
        _, caches = M._forward_blocks(trunk, x, M.plan_blocks(trunk, 1, x.dtype, keep=True))
        assert [type(conv) for conv, _ in caches] == [layers.SepConvCache] * 3
        assert M._forward_blocks(fixed, x, M.plan_blocks(fixed, 1, x.dtype))[1] == []

    def test_train_plan_matches_plans_per_call(self):
        """``fit`` runs every train step in one ``plan_blocks(..., keep=True)``,
        whose padding and ones rows are written once. Three steps in it, the
        second on a smaller batch, each followed by an in-place SGD update,
        give the logits, gradients and parameters, bit for bit, of steps that
        build their plans per call. (The first step's conv gradients are 0:
        the output layer starts at 0.)"""
        rng = np.random.default_rng(5)
        batches = [rng.uniform(size=(n, 1, 16, 16)).astype(np.float32) for n in (4, 3, 4)]
        runs = []
        for keep_plan in (False, True):
            model = M.build_model(small_config(input_height=16, input_width=16), seed=4)
            plan = M.plan_blocks(model, 4, np.float32, keep=True) if keep_plan else None
            steps = []
            for x in batches:
                stream = SplitMixStream(0, TAG_DROPOUT, 0, np.arange(len(x)))
                _, caches = M.forward(model, x, "train", stream, plan=plan)
                grads = M.backward(model, caches,
                                   T.bce_loss(caches.logits, np.arange(len(x)) % 2)[1])
                steps.append([caches.logits.tobytes()] + [grads[k].tobytes() for k in sorted(grads)])
                T.sgd_step(model, grads, 0.5)
            runs.append((steps, [a.tobytes() for _, a in model.state_arrays()]))
        assert runs[0] == runs[1]

    def test_plan_must_match_the_mode(self):
        model = M.build_model(small_config(), seed=5)
        x = np.zeros((2, 1, 16, 16), dtype=np.float32)
        with pytest.raises(ConfigError, match="train mode needs plans built with keep"):
            M.forward(model, x, "train", plan=M.plan_blocks(model.folded(), 2, x.dtype))
        with pytest.raises(ConfigError, match="infer mode needs plans built without keep"):
            M.forward(model, x, "infer", plan=M.plan_blocks(model, 2, x.dtype, keep=True))

    def test_shape_mismatch(self):
        model = M.build_model(small_config(), seed=5)
        with pytest.raises(Exception):
            M.forward(model, np.zeros((1, 1, 8, 8), dtype=np.float32), "infer")


class TestPlaneHandOff:
    """Each block writes its output as the next block's phase planes, so only
    block 0 copies an input onto planes, once per forward: its cache keeps
    them, so only block 0's backward converts, its ``dx`` back to a compact
    map, and only where that ``dx`` is used: ``maximize_activation`` climbs
    it, and a train step's ``backward`` forms none."""

    @staticmethod
    def spy(monkeypatch, model):
        """Block indices of every input-plane fill of the forward, and of
        every plane fill and compact scatter of the backward, in call order.
        A block is known by its depthwise kernel, which a fold shares."""
        index = {id(blk.conv.depthwise): b for b, blk in enumerate(model.blocks)}
        seen = {"fill": [], "backward fill": [], "backward scatter": []}
        now = {}
        sepconv2d, backward = layers.sepconv2d, layers.sepconv2d_backward
        pairs = layers.PlaneLayout.pairs
        to_planes, to_compact = layers.PlaneLayout.to_planes, layers.PlaneLayout.to_compact

        def forward_spy(x, p, *args, **kwargs):
            now.update(block=index[id(p.depthwise)], x=x, backward=False)
            return sepconv2d(x, p, *args, **kwargs)

        def backward_spy(dout, cache, **kwargs):
            now.update(block=index[id(cache.plan.params.depthwise)], x=None, backward=True)
            try:
                return backward(dout, cache, **kwargs)
            finally:
                now["backward"] = False

        def pairs_spy(self, planes, x):
            if x is now.get("x"):
                seen["fill"].append(now["block"])
            return pairs(self, planes, x)

        def count(kind, fn):
            def spied(self, a):
                if now.get("backward"):
                    seen[kind].append(now["block"])
                return fn(self, a)
            return spied

        monkeypatch.setattr(layers, "sepconv2d", forward_spy)
        monkeypatch.setattr(layers, "sepconv2d_backward", backward_spy)
        monkeypatch.setattr(layers.PlaneLayout, "pairs", pairs_spy)
        monkeypatch.setattr(layers.PlaneLayout, "to_planes", count("backward fill", to_planes))
        monkeypatch.setattr(layers.PlaneLayout, "to_compact",
                            count("backward scatter", to_compact))
        return seen

    def test_predict_fills_planes_for_block_0_only(self, monkeypatch):
        model = M.build_model(small_config(input_height=16, input_width=16), seed=4)
        x = np.random.default_rng(2).uniform(size=(10, 1, 16, 16)).astype(np.float32)
        seen = self.spy(monkeypatch, model)
        with pytest.MonkeyPatch.context() as budget:
            budget.setattr(T, "_INFER_BUDGET_BYTES", 3 * 4 * 8 * 16 * 16)  # 3 slices
            T.predict(model, T.SliceSet(x, np.zeros(10, np.int64), [f"s{i}" for i in range(10)],
                                        [f"s{i}#0" for i in range(10)]))
        assert seen == {"fill": [0] * 4, "backward fill": [], "backward scatter": []}

    def test_train_step_converts_at_block_0_only(self, monkeypatch):
        model = M.build_model(small_config(input_height=16, input_width=16), seed=4)
        x = np.random.default_rng(2).uniform(size=(4, 1, 16, 16)).astype(np.float32)
        seen = self.spy(monkeypatch, model)
        _, caches = M.forward(model, x, "train", SplitMixStream(0, TAG_DROPOUT, 0, np.arange(4)))
        M.backward(model, caches, T.bce_loss(caches.logits, np.arange(4) % 2)[1])
        assert seen == {"fill": [0], "backward fill": [], "backward scatter": []}
        # one step and the final objective: two passes, each climbing block 0's dx
        M.maximize_activation(model, 2, 0, steps=1, step_size=0.5, seed=1)
        assert seen == {"fill": [0] * 3, "backward fill": [], "backward scatter": [0, 0]}


class TestOutputOverlay:
    """A keep plan of three or more blocks lays blocks 0 and 1's outputs over
    later blocks' outputs, which are live only while those two are dead, and
    the backward rebuilds each by rerunning its producer's pointwise GEMM
    and ReLU, so every result is the bits of plans whose blocks own their
    outputs."""

    @staticmethod
    def owned_plans(model, n, dtype, keep=True, plan_blocks=M.plan_blocks):
        """``plan_blocks(model, n, dtype, keep=True)``'s plans, each block's
        output in a buffer of its own."""
        plans = [layers.SepConvPlan((n, p.shape[1], p.ins.h, p.ins.w), dtype, blk.conv, True,
                                    p.layout, p.planes_in)
                 for p, blk in zip(plan_blocks(model, n, dtype, keep=True), model.blocks)]
        store, acc = (np.empty(max(p.sizes[i] for p in plans), dtype) for i in (0, 1))
        return [p.bind(store, acc) for p in plans]

    @staticmethod
    def drawn(cfg, seed):
        """A model whose output weight and betas are drawn, so that every
        block gradient is nonzero and each folded conv has a bias."""
        model = M.build_model(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        model.output.weight[...] = rng.normal(0.0, 0.5, size=model.output.weight.shape)
        for blk in model.blocks:
            blk.norm.beta[...] = rng.normal(0.3, 0.1, size=blk.norm.beta.shape)
        return model

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("hw, tile_bytes", [((17, 23), None), ((17, 23), 1 << 11),
                                                ((64, 64), None), ((64, 64), 1 << 13)],
                             ids=["17x23", "17x23-tiles", "64x64", "64x64-tiles"])
    def test_train_steps_match_owned_outputs(self, monkeypatch, kernel, hw, tile_bytes):
        """Three SGD steps, the second on a smaller batch, in one plan, give
        the logits, gradients and parameters of plans that own their outputs,
        bit for bit; with ``tile_bytes`` as ``_CHUNK_BYTES``, some blocks'
        forwards run in tiles of channels."""
        if tile_bytes:
            monkeypatch.setattr(layers, "_CHUNK_BYTES", tile_bytes)
        cfg = M.ModelConfig(input_height=hw[0], input_width=hw[1], kernel=kernel)
        rng = np.random.default_rng(kernel)
        batches = [rng.uniform(size=(n, 1, *hw)).astype(np.float32) for n in (4, 3, 4)]
        runs = []
        for make in (M.plan_blocks, self.owned_plans):
            model = self.drawn(cfg, 9)
            plan = make(model, 4, np.float32, keep=True)
            overlaid = [np.shares_memory(a.out, b.out) for i, a in enumerate(plan)
                        for b in plan[i + 1:]]
            assert overlaid[1] == any(overlaid) == (make is M.plan_blocks)  # block 0's and 2's
            assert any(p.group < p.shape[1] for p in plan) or not tile_bytes
            steps = []
            for x in batches:
                stream = SplitMixStream(0, TAG_DROPOUT, 0, np.arange(len(x)))
                _, caches = M.forward(model, x, "train", stream, plan=plan)
                grads = M.backward(model, caches,
                                   T.bce_loss(caches.logits, np.arange(len(x)) % 2)[1])
                assert all(np.any(grads[f"block{b}.pointwise"]) for b in range(M.N_BLOCKS))
                steps.append([caches.logits.tobytes()] + [grads[k].tobytes() for k in sorted(grads)])
                T.sgd_step(model, grads, 0.5)
            runs.append((steps, [a.tobytes() for _, a in model.state_arrays()]))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("block", [0, 1, 2])
    def test_maximize_matches_owned_outputs(self, monkeypatch, kernel, block):
        """``maximize_activation`` plans the model cut after the block it
        reads: at block 2, three blocks, with block 0's output laid over
        block 2's; at blocks 0 and 1, one or two, with no output laid over
        another. Each gives the image and trace of plans that own their
        outputs, bit for bit."""
        model = self.drawn(M.ModelConfig(input_height=17, input_width=23, kernel=kernel), 13)
        runs = []
        for make in (M.plan_blocks, self.owned_plans):
            monkeypatch.setattr(M, "plan_blocks", make)
            image, trace = M.maximize_activation(model, block, 1, steps=3, step_size=0.5, seed=5)
            runs.append((image.tobytes(), trace))
        assert len(set(runs[0][1])) == 4  # every step moves the objective
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("size", [64, 128])
    def test_keep_plan_holds_train_cache_bytes(self, size):
        """A batch-16 keep plan holds exactly the block caches that
        ``train_cache_bytes`` counts from the config: block 0's input planes,
        every block's ``mid`` and one buffer of outputs, 7,099,520 B at 64x64
        and 24,722,304 B at 128x128 (10,006,656 B and 35,772,288 B when each
        block owned its output). Block 0's output overlays block 2's, and
        block 1's starts past both, so at 64x64 it overlays block 4's; block
        1's overlays neither block 0's, its input, nor block 2's, its
        consumer's output."""
        cfg = M.ModelConfig(input_height=size, input_width=size)
        plans = M.plan_blocks(M.build_model(cfg, seed=6), 16, np.float32, keep=True)

        def owner(a):
            return a if a.base is None else owner(a.base)

        buffers = {id(owner(a)): owner(a) for plan in plans for a in (plan.mid, plan.out)}
        held = sum(a.nbytes for a in buffers.values()) + plans[0].planes.nbytes
        assert held == train_cache_bytes(cfg, 16) == {64: 7_099_520, 128: 24_722_304}[size]
        out = [plan.out for plan in plans]
        assert np.shares_memory(out[0], out[2])
        assert not np.shares_memory(out[0], out[1]) and not np.shares_memory(out[1], out[2])
        if size == 64:
            assert np.shares_memory(out[1], out[4])
        # blocks 2 onwards lie back to back: each of them owns its bytes among them
        assert not any(np.shares_memory(a, b) for i, a in enumerate(out[2:]) for b in out[3 + i:])


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
            assert b.flags.writeable  # SGD and the running statistics write it in place

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

    def test_block_0_peaks_below_a_plan_of_every_block(self):
        """``extract_activation`` and ``maximize_activation`` plan the model
        cut after the block they read, folded, whose output is then compact.
        At block 0 of a 128x128 model they so peak below what a plan of all
        nine blocks holds, counted from the config: an infer plan's buffers
        (``infer_plan_bytes``, 1,610,392 B, with blocks 1-4 forming channel
        tiles; 2,227,864 B before) for ``extract_activation``, measured
        1,402,336 B; the caches of a keep plan (``train_cache_bytes``,
        1,545,144 B, with blocks 0 and 1's outputs laid over later blocks'
        outputs; 2,235,768 B before), plus one chunk's tap stack and the
        objective's gradient of block 0's compact output (524,288 B each),
        for two steps of ``maximize_activation``: 2,593,720 B, measured
        2,524,339 B. Before the overlay the bound held no gradient:
        2,760,056 B. Planning all nine blocks and running the first, they
        measured 2,471,256 B and 3,445,507 B (3,942,512 B before the
        overlay)."""
        cfg = M.ModelConfig(input_height=128, input_width=128)
        model = M.build_model(cfg, seed=6)
        x = np.random.default_rng(3).uniform(size=(1, 1, 128, 128)).astype(np.float32)
        for run, bound in (
                (lambda: M.extract_activation(model, x, 0, 0),
                 infer_plan_bytes(cfg, 1, layers._CHUNK_BYTES)),
                (lambda: M.maximize_activation(model, 0, 0, steps=2, step_size=0.5, seed=1),
                 train_cache_bytes(cfg, 1) + layers._CHUNK_BYTES + cfg.channel_plan[0] * x.nbytes)):
            run()
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound


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

    @pytest.mark.parametrize("block", [0, 4])
    def test_one_plan_matches_plans_per_step(self, monkeypatch, block):
        """Every step runs in one ``plan_blocks(..., keep=True)``, whose padding
        and ones rows are written once: the image and trace match, bit for bit,
        steps that each run in a fresh plan. Block 0's output is laid out as
        block 1's stride-2 planes; block 4 is a middle block. The betas are
        drawn, so each folded conv has a bias for the ones rows to carry."""
        model = M.build_model(small_config(input_height=16, input_width=19), seed=13)
        rng = np.random.default_rng(13)
        for blk in model.blocks:
            blk.norm.beta[...] = rng.normal(0.3, 0.1, size=blk.norm.beta.shape)
        plan_blocks, forward_blocks, built = M.plan_blocks, M._forward_blocks, []

        def counted(*args, **kwargs):
            built.append(args[1:])
            return plan_blocks(*args, **kwargs)

        def fresh(net, x, plan):
            return forward_blocks(net, x, plan_blocks(net, len(x), x.dtype, True))

        with monkeypatch.context() as spy:
            spy.setattr(M, "plan_blocks", counted)
            reused = M.maximize_activation(model, block, 1, steps=4, step_size=0.5, seed=5)
        assert built == [(1, np.float32)]
        assert len(set(reused[1])) == 5  # every step moves the objective
        monkeypatch.setattr(M, "_forward_blocks", fresh)
        per_step = M.maximize_activation(model, block, 1, steps=4, step_size=0.5, seed=5)
        assert reused[0].tobytes() == per_step[0].tobytes()
        assert reused[1] == per_step[1]


class TestWholeModelGradient:
    @pytest.mark.parametrize("kernel", [1, 3])
    def test_matches_finite_differences(self, kernel):
        # float64 shadow of the full default model on a 2-sample 16x16 batch,
        # dropout disabled. The output weight is drawn, so every block's
        # gradient is nonzero (at its zero init they all are 0, and a wrong
        # block gradient would pass). At kernel 1 three phases of each
        # stride-2 block's input have no taps, and their dx, written over the
        # input planes, must be zeroed. h=3e-6: at 1e-5 the probe of block
        # 0's pointwise at kernel 3 steps across a ReLU's kink (0.658 against
        # 0.568), and at 1e-6 the loss's rounding over 2h reads 2.7e-9 where
        # a beta's gradient is 0: 2.7e-3 against the 1e-6 floor. A block's conv bias
        # comes before its batchnorm, which cancels it: its gradient is
        # exactly 0, and its central difference only rounding, so it is held
        # to an absolute bound.
        cfg = small_config(dropout_rate=0.0, kernel=kernel)
        model = M.build_model(cfg, seed=7).astype(np.float64)
        rng = np.random.default_rng(3)
        x = rng.normal(0.5, 0.25, size=(2, 1, 16, 16))
        model.output.weight[...] = rng.normal(size=model.output.weight.shape)
        y = np.array([0, 1])

        def loss_value():
            _, caches = M.forward(model, x, "train")
            loss, _ = T.bce_loss(caches.logits, y)
            return loss

        _, caches = M.forward(model, x, "train")
        loss, dlogits = T.bce_loss(caches.logits, y)
        grads = M.backward(model, caches, dlogits)

        check_rng = np.random.default_rng(11)
        worst, worst_bias = 0.0, 0.0
        for name, p in model.named_parameters():
            flat = p.reshape(-1)
            coords = check_rng.choice(flat.size, size=min(4, flat.size), replace=False)
            for c in coords:
                old = flat[c]
                flat[c] = old + 3e-6
                fp = loss_value()
                flat[c] = old - 3e-6
                fm = loss_value()
                flat[c] = old
                fd = (fp - fm) / 6e-6
                an = grads[name].reshape(-1)[c]
                if name.startswith("block") and name.endswith(".bias"):
                    assert an == 0.0, name
                    worst_bias = max(worst_bias, abs(fd))
                else:
                    worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-6))
        assert worst <= 1e-3
        assert worst_bias <= 1e-7
