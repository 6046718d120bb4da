"""Float32 computation against the float64 shadow of the same model, and the
dtype policy of every layer: float32 in gives float32 out and float32
gradients."""

import numpy as np
import pytest

from helpers import affine_batchnorm
from sliceforge import layers
from sliceforge import model as M
from sliceforge import training as T
from sliceforge.rng import TAG_DROPOUT, SplitMixStream

LOGIT_ATOL = 1e-5
GRAD_REL_TOL = 1e-4
# conv biases feed train-mode batchnorm, so their true gradient is 0; float32
# rounding of the batchnorm input gradient leaves about 1e-5 at block 0, where
# N*H*W = 16384 terms are summed
ZERO_GRAD_ATOL = 1e-4
BATCH = 4


def _run(model, x, labels):
    """Train-mode forward and backward, then an infer-mode forward; also the
    number of block caches the train pass made, counted before ``backward``
    consumes them."""
    stream = SplitMixStream(0, TAG_DROPOUT, 0, np.arange(len(x)))
    _, caches = M.forward(model, x, "train", stream)
    n_block_caches = len(caches.block_caches)
    _, dlogits = T.bce_loss(caches.logits, labels)
    grads = M.backward(model, caches, dlogits.astype(x.dtype))
    probs, infer_caches = M.forward(model, x, "infer")
    return caches, grads, probs, infer_caches, n_block_caches


@pytest.fixture(scope="module")
def shadow_runs():
    # the full default model at 64x64; a nonzero head lets gradients reach
    # every block (the built head is all zeros)
    model32 = M.build_model(M.ModelConfig(input_height=64, input_width=64), seed=3)
    model32.output.weight[...] = np.random.default_rng(1).normal(0.0, 0.5, model32.output.weight.shape)
    model64 = model32.astype(np.float64)
    x32 = np.random.default_rng(2).uniform(size=(BATCH, 1, 64, 64)).astype(np.float32)
    labels = np.array([0, 1] * (BATCH // 2))
    return _run(model32, x32, labels), _run(model64, x32.astype(np.float64), labels)


class TestFloat64Shadow:
    def test_train_logits_agree(self, shadow_runs):
        (c32, _, _, _, _), (c64, _, _, _, _) = shadow_runs
        assert c32.logits.dtype == np.float32
        assert np.abs(c32.logits - c64.logits).max() <= LOGIT_ATOL

    def test_infer_logits_agree(self, shadow_runs):
        (_, _, p32, i32, _), (_, _, _, i64, _) = shadow_runs
        assert p32.dtype == np.float32
        assert np.abs(i32.logits - i64.logits).max() <= LOGIT_ATOL

    def test_gradients_agree(self, shadow_runs):
        (_, g32, _, _, _), (_, g64, _, _, _) = shadow_runs
        assert g32.keys() == g64.keys()
        for name, want in g64.items():
            got = g32[name]
            assert got.dtype == np.float32, name
            if name.endswith(".bias") and name.startswith("block"):
                assert np.abs(got - want).max() <= ZERO_GRAD_ATOL, name
                continue
            norm = np.linalg.norm(want)
            assert norm > 0, f"{name} gets no gradient"
            assert np.linalg.norm(got - want) <= GRAD_REL_TOL * norm, name

    def test_folded_infer_matches_unfolded_reference(self):
        # random running statistics, gamma and beta in every block; the float64
        # reference runs sepconv -> batchnorm from its definition -> ReLU
        model32 = M.build_model(M.ModelConfig(input_height=32, input_width=32), seed=4)
        rng = np.random.default_rng(5)
        for blk in model32.blocks:
            c = blk.norm.gamma.shape
            blk.norm.gamma[...] = rng.uniform(0.5, 1.5, c)
            blk.norm.beta[...] = rng.normal(0.0, 0.2, c)
            blk.norm.running_mean[...] = rng.normal(0.0, 0.5, c)
            blk.norm.running_var[...] = rng.uniform(0.2, 2.0, c)
        model32.output.weight[...] = rng.normal(0.0, 0.5, model32.output.weight.shape)
        x32 = rng.uniform(size=(BATCH, 1, 32, 32)).astype(np.float32)
        _, caches = M.forward(model32, x32, "infer")

        model64 = model32.astype(np.float64)
        out = x32.astype(np.float64)
        for blk in model64.blocks:
            out = np.maximum(affine_batchnorm(layers.sepconv2d(out, blk.conv)[0], blk.norm), 0.0)
        hidden = np.maximum(layers.dense(layers.global_avg_pool(out)[0], model64.hidden)[0], 0.0)
        want = layers.dense(hidden, model64.output)[0][:, 0]
        assert caches.logits.dtype == np.float32
        assert np.abs(want).max() > 0.1  # the stats reach the logits
        assert np.abs(caches.logits - want).max() <= LOGIT_ATOL

    def test_infer_keeps_no_block_caches(self, shadow_runs):
        (c32, _, _, i32, n_train), _ = shadow_runs
        assert n_train == M.N_BLOCKS
        assert c32.block_caches == []  # backward consumed the train pass's caches
        assert i32.block_caches == []


def _f32(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


class TestLayerDtypes:
    def test_sepconv(self):
        rng = np.random.default_rng(0)
        p = layers.SepConvParams(_f32(rng, 3, 1, 3, 3), _f32(rng, 4, 3, 1, 1), _f32(rng, 4), stride=2)
        out, cache = layers.sepconv2d(_f32(rng, 2, 3, 7, 6), p)
        assert out.dtype == np.float32
        grads = layers.sepconv2d_backward(_f32(rng, *out.shape), cache)
        assert [g.dtype for g in grads] == [np.float32] * 4

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_batchnorm(self, mode):
        # batchnorm runs folded into the sepconv before it, in either mode
        rng = np.random.default_rng(1)
        p = layers.BatchNormParams(
            gamma=_f32(rng, 3), beta=_f32(rng, 3),
            running_mean=_f32(rng, 3), running_var=np.ones(3, np.float32),
        )
        x = _f32(rng, 2, 3, 4, 4)
        conv = layers.SepConvParams(_f32(rng, 3, 1, 3, 3), _f32(rng, 3, 3, 1, 1), _f32(rng, 3))
        folded = layers.fold_batchnorm(conv, p)
        assert folded.pointwise.dtype == folded.bias.dtype == np.float32
        out, cache = layers.sepconv2d(x, conv, p, mode)
        grads = layers.sepconv2d_backward(_f32(rng, *out.shape), cache)
        assert out.dtype == np.float32
        assert [g.dtype for g in grads] == [np.float32] * (6 if mode == "train" else 4)
        assert p.running_mean.dtype == p.running_var.dtype == np.float32

    def test_elementwise_and_head(self):
        rng = np.random.default_rng(2)
        x = _f32(rng, 2, 3, 4, 4)
        out, cache = layers.relu(x)
        assert out.dtype == layers.relu_backward(x, cache).dtype == np.float32
        out, cache = layers.global_avg_pool(x)
        assert out.dtype == layers.global_avg_pool_backward(out, cache).dtype == np.float32
        p = layers.DenseParams(weight=_f32(rng, 5, 3), bias=_f32(rng, 5))
        dense_out, cache = layers.dense(out, p)
        assert dense_out.dtype == np.float32
        assert [g.dtype for g in layers.dense_backward(dense_out, cache)] == [np.float32] * 3
        stream = SplitMixStream(0, TAG_DROPOUT, 0, np.arange(2))
        drop_out, cache = layers.dropout(dense_out, 0.5, "train", stream)
        assert drop_out.dtype == layers.dropout_backward(drop_out, cache).dtype == np.float32
        assert layers.sigmoid(drop_out).dtype == np.float32
