import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (affine_batchnorm, batchnorm_train, batchnorm_train_backward,
                     central_difference, max_rel_err, naive_sepconv2d, naive_sepconv2d_backward)
from sliceforge import layers
from sliceforge import model as M
from sliceforge.errors import ConfigError, ShapeError
from sliceforge.rng import SplitMixStream

GRAD_TOL = 1e-4
FD_H = 1e-3
# per-channel reductions: |error| <= REDUCE_TOL[dtype] * sum of |terms|
REDUCE_TOL = {np.float32: 1e-6, np.float64: 1e-12}


def random_sepconv(rng, c_in, c_out, k=3, stride=1):
    return layers.SepConvParams(
        depthwise=rng.normal(size=(c_in, 1, k, k)),
        pointwise=rng.normal(size=(c_out, c_in, 1, 1)),
        bias=rng.normal(size=(c_out,)),
        stride=stride,
    )


class TestSepConv:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        depthwise = np.zeros((2, 1, 3, 3), dtype=np.float32)
        depthwise[:, 0, 1, 1] = 1.0  # center delta
        pointwise = np.eye(2, dtype=np.float32).reshape(2, 2, 1, 1)
        p = layers.SepConvParams(depthwise, pointwise, np.zeros(2, np.float32))
        out, _ = layers.sepconv2d(x, p)
        np.testing.assert_allclose(out, x, rtol=1e-6)

    def test_zero_weights(self):
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        p = layers.SepConvParams(
            np.zeros((1, 1, 3, 3), np.float32),
            np.zeros((1, 1, 1, 1), np.float32),
            np.zeros(1, np.float32),
        )
        out, _ = layers.sepconv2d(x, p)
        assert not out.any()

    def test_channel_mismatch(self):
        rng = np.random.default_rng(0)
        p = random_sepconv(rng, c_in=2, c_out=3)
        with pytest.raises(ShapeError):
            layers.sepconv2d(rng.normal(size=(1, 4, 5, 5)), p)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            layers.SepConvParams(
                np.zeros((1, 1, 2, 2), np.float32),
                np.zeros((1, 1, 1, 1), np.float32),
                np.zeros(1, np.float32),
            )

    @pytest.mark.parametrize("stride", [1, 2], ids=["1-same", "2-same"])
    def test_same_padding_shape(self, stride):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 7, 5))
        p = random_sepconv(rng, 3, 4, stride=stride)
        out, _ = layers.sepconv2d(x, p)
        assert out.shape == (2, 4, -(-7 // stride), -(-5 // stride))

    @pytest.mark.parametrize("case", range(10))
    def test_matches_naive_oracle(self, case):
        rng = np.random.default_rng(100 + case)
        n, c_in, c_out = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
        h, w = rng.integers(3, 7), rng.integers(3, 7)
        stride = int(rng.integers(1, 3))
        x = rng.normal(size=(n, c_in, h, w))
        p = random_sepconv(rng, int(c_in), int(c_out), stride=stride)
        got, _ = layers.sepconv2d(x, p)
        want = naive_sepconv2d(x, p.depthwise, p.pointwise, p.bias, stride)
        assert max_rel_err(got, want) <= 1e-5

    @staticmethod
    def check_gradients(rng, x, p):
        upstream = rng.normal(size=layers.sepconv2d(x, p)[0].shape)

        def loss():
            out, _ = layers.sepconv2d(x, p)
            return float(np.sum(out * upstream))

        _, cache = layers.sepconv2d(x, p)
        dx, d_dw, d_pw, d_b = layers.sepconv2d_backward(upstream, cache)
        assert max_rel_err(dx, central_difference(loss, x, FD_H)) <= GRAD_TOL
        assert max_rel_err(d_dw, central_difference(loss, p.depthwise, FD_H)) <= GRAD_TOL
        assert max_rel_err(d_pw, central_difference(loss, p.pointwise, FD_H)) <= GRAD_TOL
        assert max_rel_err(d_b, central_difference(loss, p.bias, FD_H)) <= GRAD_TOL

    @pytest.mark.parametrize("stride", [1, 2], ids=["1-same", "2-same"])
    def test_gradients(self, stride):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 6, 5))
        self.check_gradients(rng, x, random_sepconv(rng, 3, 2, stride=stride))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradients_k5(self, stride):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 2, 7, 6))
        self.check_gradients(rng, x, random_sepconv(rng, 2, 3, k=5, stride=stride))

    @given(st.sampled_from([1, 3, 5]), st.sampled_from([1, 2]), st.integers(1, 9),
           st.integers(1, 9), st.integers(1, 3), st.integers(1, 5), st.integers(0, 2 ** 32))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_oracle_property(self, k, stride, h, w, c_in, n, seed):
        # every phase-plane geometry, including inputs smaller than the kernel
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c_in, h, w))
        p = random_sepconv(rng, c_in, int(rng.integers(1, 4)), k=k, stride=stride)
        got, _ = layers.sepconv2d(x, p)
        want = naive_sepconv2d(x, p.depthwise, p.pointwise, p.bias, stride)
        assert got.shape == want.shape
        assert max_rel_err(got, want) <= 1e-9

    @given(st.sampled_from([1, 3, 5]), st.sampled_from([1, 2]), st.integers(1, 9),
           st.integers(1, 9), st.integers(1, 3), st.integers(1, 5), st.integers(0, 2 ** 32))
    @example(k=1, stride=2, h=5, w=4, c_in=2, n=2, seed=0)  # three phases without taps
    @example(k=3, stride=2, h=1, w=1, c_in=1, n=1, seed=1)  # phases without input
    @settings(max_examples=60, deadline=None)
    def test_backward_matches_naive_oracle_property(self, k, stride, h, w, c_in, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c_in, h, w))
        p = random_sepconv(rng, c_in, int(rng.integers(1, 4)), k=k, stride=stride)
        out, cache = layers.sepconv2d(x, p)
        dout = rng.normal(size=out.shape)
        got = layers.sepconv2d_backward(dout, cache)
        want = naive_sepconv2d_backward(x, p.depthwise, p.pointwise, dout, stride)
        for name, g, ref in zip(("dx", "d_depthwise", "d_pointwise", "d_bias"), got, want):
            assert g.shape == ref.shape, name
            assert max_rel_err(g, ref) <= 1e-9, name

    @pytest.mark.parametrize("stride", [1, 2])
    def test_chunking_is_invisible(self, stride, monkeypatch):
        """One sample per chunk gives the one-chunk result bit for bit, the
        depthwise gradient too: its float64 sum over samples runs once per
        call, after the last chunk."""
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5, 3, 9, 8))
        p = random_sepconv(rng, 3, 4, stride=stride)
        upstream = rng.normal(size=layers.sepconv2d(x, p)[0].shape)

        def run():
            out, cache = layers.sepconv2d(x, p)
            return (out, cache.mid, *layers.sepconv2d_backward(upstream, cache))

        out, mid, dx, d_dw, d_pw, d_b = run()  # the whole batch is one chunk
        monkeypatch.setattr(layers, "_CHUNK_BYTES", 1)
        out1, mid1, dx1, d_dw1, d_pw1, d_b1 = run()
        for a, b in ((out, out1), (mid, mid1), (dx, dx1), (d_dw, d_dw1), (d_pw, d_pw1),
                     (d_b, d_b1)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("k, stride", [(3, 1), (3, 2), (5, 2), (1, 2)])
    def test_backward_reads_no_stale_tap_stack(self, k, stride):
        """The backward's tap stack is a view of its keep plan's store, where
        the forward left its own tap stack: it writes every slot it reads, so
        a store filled with NaN between the forward and the backward changes
        no bit of the gradients. Kernel 1 is narrower than stride 2, which
        leaves phases without taps."""
        rng = np.random.default_rng(60 + 10 * k + stride)
        x = rng.normal(size=(5, 3, 9, 8)).astype(np.float32)
        p = random_sepconv(rng, 3, 4, k=k, stride=stride)
        norm = layers.BatchNormParams(gamma=np.linspace(0.5, 1.5, 4), beta=np.zeros(4),
                                      running_mean=np.zeros(4), running_var=np.ones(4))
        upstream = rng.normal(size=(5, 4, -(-9 // stride), -(-8 // stride))).astype(np.float32)

        def grads(fill):
            plan = layers.SepConvPlan(x.shape, x.dtype, p, keep=True)
            store = np.empty(plan.sizes[0], x.dtype)
            _, cache = layers.sepconv2d(x, p, norm, plan=plan.bind(store))
            store[...] = fill
            return layers.sepconv2d_backward(upstream, cache)

        for got, ref in zip(grads(np.nan), grads(0.0), strict=True):
            assert np.isfinite(ref).all() and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n, rows", [(5, 2), (7, 3)])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_partial_chunks_match_naive(self, k, stride, n, rows, monkeypatch):
        """Chunks of ``rows`` samples and a last, partial one: the forward
        without a batchnorm (with and without a cache, with and without the
        running statistics folded into the conv) and with one, and the
        backward of each, against the naive oracles, and bit for bit against
        one whole-batch chunk. Kernel 1 at stride 2 has phases without taps.
        A plan fixes both chunk sizes when it is built, so the forward's
        chunks are pinned in plans built at one ``_CHUNK_BYTES`` and the
        backward's in plans built at another."""
        rng = np.random.default_rng(50 + 10 * k + stride + n)
        x = rng.normal(1.0, 1.0, size=(n, 3, 7, 6))
        p = random_sepconv(rng, 3, 4, k=k, stride=stride)

        def norm():
            return layers.BatchNormParams(
                gamma=np.linspace(0.5, 1.5, 4), beta=np.linspace(-1.0, 1.0, 4),
                running_mean=np.linspace(-0.5, 0.5, 4), running_var=np.linspace(0.5, 2.0, 4))

        ho, wq = -(-7 // stride), -(-6 // stride) + (k - 1) // stride

        def chunk_bytes(taps):  # ``rows`` samples of ``taps`` pitched runs per channel
            return rows * x.itemsize * 3 * taps * ho * wq

        upstream = rng.normal(size=(n, 4, -(-7 // stride), -(-6 // stride)))

        def uncached(params):  # in a plan without keep, so without a cache
            return layers.sepconv2d(x, params,
                                    plan=layers.SepConvPlan(x.shape, x.dtype, params).bind())

        def run(plan_bytes):  # every plan built at ``_CHUNK_BYTES = plan_bytes``
            monkeypatch.setattr(layers, "_CHUNK_BYTES", plan_bytes)
            calls = [layers.sepconv2d(x, p), uncached(layers.fold_batchnorm(p, norm())),
                     uncached(p), layers.sepconv2d(x, p, norm())]
            return ([out for out, _ in calls], layers.sepconv2d_backward(upstream, calls[0][1]),
                    layers.sepconv2d_backward(upstream, calls[3][1]))

        whole = run(1 << 30)
        taps = (k * k, len(range(0, k, stride)) ** 2)  # forward, and backward phase (0, 0)
        monkeypatch.setattr(layers, "_CHUNK_BYTES", chunk_bytes(taps[0]))
        assert layers.SepConvPlan(x.shape, x.dtype, p).rows == rows
        monkeypatch.setattr(layers, "_CHUNK_BYTES", chunk_bytes(taps[1]))
        cache, chunks = layers.sepconv2d(x, p)[1], []
        pairs = layers.PlaneLayout.pairs

        def pairs_spy(layout, planes, a):  # once per backward chunk, for dmid's pixels
            if layout is cache.plan.layout:
                chunks.append(len(planes))
            return pairs(layout, planes, a)

        with monkeypatch.context() as spy:
            spy.setattr(layers.PlaneLayout, "pairs", pairs_spy)
            layers.sepconv2d_backward(upstream, cache)
        assert chunks == [min(rows, n - start) for start in range(0, n, rows)]
        (infer, infer_norm, scratch, train), _, _ = run(chunk_bytes(taps[0]))
        _, grads, train_grads = run(chunk_bytes(taps[1]))
        for got, ref in zip((infer, infer_norm, scratch, train, *grads, *train_grads),
                            (*whole[0], *whole[1], *whole[2]), strict=True):
            assert got.tobytes() == ref.tobytes()

        y = naive_sepconv2d(x, p.depthwise, p.pointwise, p.bias, stride)
        z, _, _ = batchnorm_train(y, norm().gamma, norm().beta, norm().epsilon)
        for got, ref in ((infer, y), (scratch, y), (infer_norm, affine_batchnorm(y, norm())),
                         (train, z)):
            assert max_rel_err(got, ref) <= 1e-9
        want = naive_sepconv2d_backward(x, p.depthwise, p.pointwise, upstream, stride)
        for got, ref in zip(grads, want, strict=True):
            assert got.shape == ref.shape and max_rel_err(got, ref) <= 1e-9
        dy, d_gamma, d_beta = batchnorm_train_backward(upstream, y, norm().gamma, norm().epsilon)
        want = (*naive_sepconv2d_backward(x, p.depthwise, p.pointwise, dy, stride), d_gamma, d_beta)
        for i, (got, ref) in enumerate(zip(train_grads, want, strict=True)):
            # the conv bias gradient is 0 by definition: held to the scale of d_beta
            scale = np.abs(d_beta if i == 3 else ref).max()
            assert got.shape == ref.shape and np.abs(got - ref).max() <= 1e-12 * scale

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_channel_tiles_are_invisible(self, k, stride, monkeypatch):
        """Where one sample's tap stack overflows ``_CHUNK_BYTES``, a forward
        chunk is a tile of one sample's channels: at two channels' taps, 5
        channels form groups of 2, 2 and 1. For a compact input and for
        handed planes, in infer plans (without a batchnorm and with the
        running statistics folded in) and in keep plans (without a batchnorm
        and with one on the batch's statistics), the outputs, each cache's
        ``mid`` and the gradients are bit for bit those of the default plans,
        whose one chunk is the whole batch. The backward keeps its sample
        chunks, one sample each here."""
        rng = np.random.default_rng(70 + 10 * k + stride)
        x = np.maximum(rng.normal(size=(3, 5, 9, 7)), 0.0).astype(np.float32)  # a ReLU output
        p = TestPlaneHandOff.params(rng, 5, 4, k, stride, np.float32)
        upstream = rng.normal(size=(3, 4, -(-9 // stride), -(-7 // stride))).astype(np.float32)

        def norm():
            return layers.BatchNormParams(
                gamma=np.linspace(0.5, 1.5, 4), beta=np.linspace(-1.0, 1.0, 4),
                running_mean=np.linspace(-0.5, 0.5, 4), running_var=np.linspace(0.5, 2.0, 4))

        def run():
            got = []
            for planes_in in (False, True):
                def call(params, bn=None, keep=False):
                    plan = layers.SepConvPlan(x.shape, x.dtype, params, keep,
                                              planes_in=planes_in).bind()
                    # fresh planes: a keep plan's backward writes its dx over them
                    return layers.sepconv2d(plan.ins.to_planes(x) if planes_in else x, params,
                                            bn, plan=plan)

                got += [call(params)[0] for params in (p, layers.fold_batchnorm(p, norm()))]
                for bn in (None, norm()):
                    out, cache = call(p, bn, keep=True)
                    got += [out, cache.mid, *layers.sepconv2d_backward(upstream, cache)]
            return got

        whole = run()
        plan = layers.SepConvPlan(x.shape, x.dtype, p)
        assert (plan.rows, plan.group) == (3, 5)
        monkeypatch.setattr(layers, "_CHUNK_BYTES", 2 * x.itemsize * len(plan.taps)
                            * plan.layout.h * plan.ins.wq)
        plan = layers.SepConvPlan(x.shape, x.dtype, p, keep=True)
        assert (plan.rows, plan.group, plan.back_rows) == (1, 2, 1)
        for got, ref in zip(run(), whole, strict=True):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_channel_tiles_leave_a_model_unchanged(self, k, monkeypatch):
        """A 17x23 model's infer logits and train gradients are those of the
        default plans bit for bit when every block's forward runs in
        one-channel tiles, and when block 1's runs in tiles of 3, 3 and 2 of
        its 8 channels. The output weight is drawn, so that the logits differ
        and every gradient but the conv biases', which the batchnorms cancel,
        is nonzero."""
        model = M.build_model(M.ModelConfig(input_height=17, input_width=23, kernel=k,
                                            dropout_rate=0.0), seed=k)
        rng = np.random.default_rng(k)
        model.output.weight[...] = rng.normal(size=model.output.weight.shape)
        x = rng.uniform(size=(3, 1, 17, 23)).astype(np.float32)

        def passes():
            trained = model.copy()  # a train forward updates the running statistics
            _, caches = M.forward(trained, x, "train")
            grads = M.backward(trained, caches, np.linspace(-1.0, 0.5, len(x)))
            return [M.forward(model, x)[1].logits, *grads.values()], grads

        whole, grads = passes()
        assert len(set(whole[0])) == len(x)
        assert {name for name, g in grads.items() if not g.any()} == {
            f"block{b}.bias" for b in range(9)}
        block1 = M.plan_blocks(model, len(x), x.dtype)[1]
        for chunk_bytes in (1, 3 * x.itemsize * len(block1.taps) * block1.layout.h
                            * block1.ins.wq):
            monkeypatch.setattr(layers, "_CHUNK_BYTES", chunk_bytes)
            groups = [plan.group for plan in M.plan_blocks(model, len(x), x.dtype)]
            assert groups[1] == (1 if chunk_bytes == 1 else 3)
            for got, ref in zip(passes()[0], whole, strict=True):
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("block", range(4))
    def test_depthwise_gradient_at_model_shapes(self, block):
        """Float32 d_depthwise of a batch-16 64x64 model's blocks 0-3 (both
        strides) against float64 sums over the same products."""
        cfg = M.ModelConfig(input_height=64, input_width=64)
        p = M.build_model(cfg, seed=block).blocks[block].conv
        c_in = (cfg.input_channels, *cfg.channel_plan)[block]
        h, w = ((64, 64), *cfg.spatial_dims())[block]
        rng = np.random.default_rng(20 + block)
        x = rng.normal(0.3, 1.0, size=(16, c_in, h, w)).astype(np.float32)
        out, cache = layers.sepconv2d(x, p)
        g = rng.normal(size=out.shape).astype(np.float32)
        d_dw = layers.sepconv2d_backward(g, cache)[1]
        assert d_dw.dtype == np.float32

        s, (ho, wo) = p.stride, out.shape[2:]
        dmid = np.einsum("oc,nohw->nchw", p.pointwise[:, :, 0, 0].astype(np.float64),
                         g.astype(np.float64))
        xpad = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (1, 1), (1, 1)))
        for i, j in np.ndindex(3, 3):
            terms = dmid * xpad[:, :, i:i + s * ho:s, j:j + s * wo:s]
            err = np.abs(d_dw[:, 0, i, j] - terms.sum(axis=(0, 2, 3)))
            assert np.all(err <= REDUCE_TOL[np.float32] * np.abs(terms).sum(axis=(0, 2, 3)))

    def test_without_cache(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 2, 6, 6)).astype(np.float32)
        p = random_sepconv(rng, 2, 3, stride=2)
        out, cache = layers.sepconv2d(x, p, plan=layers.SepConvPlan(x.shape, x.dtype, p).bind())
        assert cache is None
        assert out.tobytes() == layers.sepconv2d(x, p)[0].tobytes()

    def test_backward_needs_the_forwards_dtype(self):
        """The backward borrows its plan's tap stack, so a ``dout`` of another
        dtype is a ShapeError, not a gradient rounded to the forward's."""
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2, 2, 6, 6)).astype(np.float32)
        out, cache = layers.sepconv2d(x, random_sepconv(rng, 2, 3))
        with pytest.raises(ShapeError, match="float64 dout for a forward in float32"):
            layers.sepconv2d_backward(out.astype(np.float64), cache)

    @pytest.mark.parametrize("case", ["params", "dtype", "batch", "trailing shape", "norm"])
    def test_plan_that_does_not_fit(self, case):
        """A plan serves its own params, dtype, input shape and up to its batch,
        and a ``norm`` only if it keeps; anything else is a ShapeError."""
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 2, 6, 6))
        p = random_sepconv(rng, 2, 3, stride=2)
        plan = layers.SepConvPlan(x.shape, x.dtype, p).bind()
        for fits in (x, x[:2]):
            assert layers.sepconv2d(fits, p, plan=plan)[1] is None
        norm = layers.BatchNormParams(np.ones(3), np.zeros(3), np.zeros(3), np.ones(3))
        args = {
            "params": (x, layers.SepConvParams(p.depthwise, p.pointwise, p.bias, p.stride)),
            "dtype": (x.astype(np.float32), p),
            "batch": (rng.normal(size=(4, 2, 6, 6)), p),
            "trailing shape": (rng.normal(size=(3, 2, 6, 7)), p),
            "norm": (x, p, norm),
        }[case]
        with pytest.raises(ShapeError, match="does not fit"):
            layers.sepconv2d(*args, plan=plan)

    def test_handed_planes_are_read_once_per_size(self):
        """A plan for handed planes keeps the chunk views of the last planes
        it read for each batch size, so sizes can alternate, and that very
        input again replays them. Other planes of a size are read afresh, and
        each gives the output of a compact input; planes that do not fit are
        a ShapeError."""
        rng = np.random.default_rng(16)
        p = random_sepconv(rng, 2, 3, stride=2)
        ins = layers.PlaneLayout(6, 6, 3, 3, 2)
        plan = layers.SepConvPlan((3, 2, 6, 6), np.float64, p, planes_in=True).bind()
        xs = [rng.normal(size=(n, 2, 6, 6)) for n in (3, 2, 3)]
        handed = [ins.to_planes(x) for x in xs]
        for i in (0, 1, 0, 1, 2):
            out = layers.sepconv2d(handed[i], p, plan=plan)[0]
            want = layers.sepconv2d(xs[i], p, plan=layers.SepConvPlan(
                xs[i].shape, np.float64, p).bind())[0]
            assert out.tobytes() == want.tobytes(), i
        assert plan.batches[3][0] is handed[2] and plan.batches[2][0] is handed[1]
        for misfit in (ins.to_planes(rng.normal(size=(4, 2, 6, 6))), handed[2][..., ::-1]):
            with pytest.raises(ShapeError, match="does not fit"):
                layers.sepconv2d(misfit, p, plan=plan)


def _relu64(a):
    return np.maximum(a, 0.0)


def _c(v):
    return np.asarray(v, dtype=np.float64)[None, :, None, None]


class TestPlaneHandOff:
    """Two blocks as the model chains them: the first writes its output in
    the second's phase planes (``SepConvPlan(layout=...)``), which the second
    reads as its input (``planes_in``), with ReLU between and after. In infer
    mode (shared tap stack and accumulator, as ``model.plan_blocks`` shares
    them), in a pass that keeps its caches (``maximize_activation``'s) and in
    train mode, the outputs and every gradient match the compact naive
    oracles, and every position of a handed plane that holds no pixel (its
    padding, its junk columns, its extra row) reads exactly 0.0. The shared
    and output buffers start as NaN, so a position no chunk writes fails.
    The second block's backward writes its ``dx`` over the handed planes,
    taken through the first block's ReLU, so the chain copies those planes
    before it and hands that ``dx`` to the first block's backward as it is.

    Each result's error is held to a tolerance times the sum of the
    magnitudes of its terms, which the oracles give when run on magnitudes,
    as ``layers``' row rule states it: ``SHADOW_TOL``'s float32 values and
    the float64 1e-9 of the oracle properties above. In train mode
    float32's grow with mean^2 / var per channel: the batch variance comes
    from the Gram matrix of [mid; 1], whose relative error grows so."""

    @staticmethod
    def params(rng, c_in, c_out, k, s, dtype):
        p = random_sepconv(rng, c_in, c_out, k=k, stride=s)
        for name in ("depthwise", "pointwise", "bias"):
            setattr(p, name, getattr(p, name).astype(dtype))
        return p

    @staticmethod
    def check_block(grads, x, p, s, dy, dy_terms, tol, norm=None):
        """``grads`` of one block (its dx and then its parameters') against
        the naive backward of ``dy``; ``dy_terms`` bounds the magnitudes of
        dy's terms. Returns dx's term magnitudes."""
        f64 = [np.abs(a.astype(np.float64)) for a in (p.depthwise, p.pointwise)]
        want = naive_sepconv2d_backward(x, p.depthwise, p.pointwise, dy, s)
        terms = naive_sepconv2d_backward(np.abs(x), *f64, dy_terms, s)
        if norm is not None:
            want, terms = (*want, *norm[0]), (*terms, *norm[1])
        assert len(grads) == len(want)
        for i, (got, ref, scale) in enumerate(zip(grads, want, terms)):
            if got is None:  # not checked here
                continue
            assert got.dtype == grads[-1].dtype and got.shape == ref.shape, i
            assert np.abs(got - ref).max() <= tol * np.abs(scale).max(), i
        return terms[0]

    @staticmethod
    def norm_backward(dz, dz_terms, y, norm):
        """Float64 (dy, dy's term magnitudes, (d_gamma, d_beta), their term
        magnitudes) of train-mode batchnorm, written out from its definition."""
        eps, gamma = norm.epsilon, np.abs(norm.gamma.astype(np.float64))
        dy, d_gamma, d_beta = batchnorm_train_backward(dz, y, norm.gamma, eps)
        mean, var = y.mean(axis=(0, 2, 3)), y.var(axis=(0, 2, 3))
        m = y.size // y.shape[1]
        x_hat = (np.abs(y) + np.abs(_c(mean))) / np.sqrt(_c(var) + eps)  # its terms
        beta_terms = dz_terms.sum(axis=(0, 2, 3))
        gamma_terms = (dz_terms * x_hat).sum(axis=(0, 2, 3))
        dy_terms = _c(gamma / np.sqrt(var + eps)) * (
            dz_terms + _c(beta_terms) / m + x_hat * _c(gamma_terms) / m)
        return dy, dy_terms, (d_gamma, d_beta), (gamma_terms, beta_terms)

    @given(st.sampled_from([1, 3, 5]), st.sampled_from([1, 2]), st.sampled_from([1, 2]),
           st.integers(1, 8), st.integers(1, 8), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.integers(1, 3), st.sampled_from([np.float32, np.float64]),
           st.booleans(), st.integers(0, 2 ** 32))
    @example(k=3, s1=2, s2=2, h=7, w=8, c0=2, c1=3, c2=2, n=3, dtype=np.float64,
             per_sample=True, seed=0)
    @example(k=1, s1=1, s2=2, h=5, w=4, c0=1, c1=2, c2=2, n=2, dtype=np.float32,
             per_sample=False, seed=1)  # three of block 2's phases without taps
    @example(k=1, s1=2, s2=2, h=1, w=8, c0=1, c1=1, c2=1, n=1, dtype=np.float32,
             per_sample=False, seed=182656)  # a depthwise gradient summing to about 0
    @settings(max_examples=60, deadline=None)
    def test_chain_matches_naive(self, k, s1, s2, h, w, c0, c1, c2, n, dtype, per_sample,
                                 seed):
        rng = np.random.default_rng(seed)
        h1, w1 = -(-h // s1), -(-w // s1)
        h2, w2 = -(-h1 // s2), -(-w1 // s2)
        x = rng.normal(1.0, 1.0, size=(n, c0, h, w)).astype(dtype)
        pa, pb = self.params(rng, c0, c1, k, s1, dtype), self.params(rng, c1, c2, k, s2, dtype)
        handed = layers.PlaneLayout(h1, w1, k, k, s2)
        off = handed.to_planes(np.ones((h1, w1))) == 0  # the positions without a pixel
        x64 = x.astype(np.float64)
        ya = naive_sepconv2d(x64, pa.depthwise, pa.pointwise, pa.bias, s1)
        tol = SHADOW_TOL[dtype] if dtype == np.float32 else (1e-9, 1e-9)

        def close(got, ref, terms, tolerance):
            assert got.dtype == dtype and got.shape == ref.shape
            return np.abs(got - ref).max() <= tolerance * terms.max()

        def conv_terms(a, p, s):  # the magnitudes of the terms of each output
            return naive_sepconv2d(a, *(np.abs(t.astype(np.float64)) for t in (
                p.depthwise, p.pointwise, p.bias)), s)

        def norm_terms(y_terms, norm, mean, var):
            return (np.abs(_c(norm.gamma)) * (y_terms + np.abs(_c(mean)))
                    / np.sqrt(_c(var) + norm.epsilon) + np.abs(_c(norm.beta)))

        def chain(norms, plans):
            a, cache_a = layers.sepconv2d(x, pa, norms[0], plan=plans[0])
            a, _ = layers.relu(a, out=a)
            assert a.shape == (n, c1, *handed.shape) and not a[..., off].any()
            out, cache_b = layers.sepconv2d(a, pb, norms[1], plan=plans[1])
            out, relu_b = layers.relu(out, out=out)
            if not plans[0].keep:
                return a, out, None
            assert not cache_a.mid[..., off].any()
            a = a.copy()  # block 2's dx overwrites its input planes
            grads_b = layers.sepconv2d_backward(layers.relu_backward(upstream.copy(), relu_b),
                                                cache_b)
            assert grads_b[0].shape == a.shape
            # block 2's dx is taken through block 1's ReLU already
            grads_a = layers.sepconv2d_backward(grads_b[0], cache_a)
            return a, out, (grads_a, grads_b[1:])

        def keep_plans():
            return (layers.SepConvPlan(shapes[0], dtype, pa, True, layout=handed).bind(),
                    layers.SepConvPlan(shapes[1], dtype, pb, True, planes_in=True).bind())

        upstream = rng.normal(size=(n, c2, h2, w2)).astype(dtype)
        shapes = ((n, c0, h, w), (n, c1, h1, w1))
        norms = [layers.BatchNormParams(
            gamma=rng.uniform(0.5, 1.5, c).astype(dtype), beta=rng.normal(size=c).astype(dtype),
            running_mean=np.zeros(c, dtype), running_var=np.ones(c, dtype)) for c in (c1, c2)]
        old_chunk = layers._CHUNK_BYTES
        if per_sample:
            layers._CHUNK_BYTES = 1
        try:
            # infer: the plans share a NaN-filled tap stack and accumulator
            infer = (layers.SepConvPlan(shapes[0], dtype, pa, layout=handed),
                     layers.SepConvPlan(shapes[1], dtype, pb, planes_in=True))
            sizes = [plan.sizes for plan in infer]
            store, acc, out_a, out_b = (np.full(size, np.nan, dtype=dtype) for size in (
                max(s[0] for s in sizes), max(s[1] for s in sizes), sizes[0][2], sizes[1][2]))
            infer[0].bind(store, acc, out_a)
            infer[1].bind(store, acc, out_b)
            chain((None, None), infer)  # the second pass reuses every buffer
            infer_run = chain((None, None), infer)
            keep_run = chain((None, None), keep_plans())
            # train mode needs two values per channel
            train_run = chain(norms, keep_plans()) if n * h2 * w2 >= 2 else None
        finally:
            layers._CHUNK_BYTES = old_chunk

        aa = _relu64(ya)
        yb = naive_sepconv2d(aa, pb.depthwise, pb.pointwise, pb.bias, s2)
        ya_terms = conv_terms(np.abs(x64), pa, s1)
        for a, out, _ in (infer_run, keep_run):
            assert close(handed.to_compact(a), aa, ya_terms, tol[0])
            assert close(out, _relu64(yb), conv_terms(ya_terms, pb, s2), tol[0])
        grads_a, grads_b = keep_run[2]
        dyb = upstream * (yb > 0)
        dxb_terms = self.check_block((None, *grads_b), aa, pb, s2, dyb, np.abs(dyb), tol[1])
        # block 2's dx is in block 1's planes: it is checked through block 1's gradients
        daa = naive_sepconv2d_backward(aa, pb.depthwise, pb.pointwise, dyb, s2)[0]
        self.check_block(grads_a, x64, pa, s1, daa * (ya > 0), dxb_terms * (ya > 0), tol[1])
        if train_run is None:
            return

        a, out, (grads_a, grads_b) = train_run
        eps = layers.BN_EPSILON
        za, mean_a, var_a = batchnorm_train(ya, norms[0].gamma, norms[0].beta, eps)
        yb = naive_sepconv2d(_relu64(za), pb.depthwise, pb.pointwise, pb.bias, s2)
        zb, mean_b, var_b = batchnorm_train(yb, norms[1].gamma, norms[1].beta, eps)
        amp = 1.0 if dtype == np.float64 else float(
            np.max((mean_a ** 2 + var_a + eps) / (var_a + eps))
            * np.max((mean_b ** 2 + var_b + eps) / (var_b + eps)))
        za_terms = norm_terms(ya_terms, norms[0], mean_a, var_a)
        assert close(handed.to_compact(a), _relu64(za), za_terms, tol[0] * amp)
        assert close(out, _relu64(zb), norm_terms(conv_terms(za_terms, pb, s2), norms[1], mean_b,
                                                  var_b), tol[0] * amp)
        dzb = upstream * (zb > 0)
        dyb, dyb_terms, *norm_b = self.norm_backward(dzb, np.abs(dzb), yb, norms[1])
        dxb_terms = self.check_block((None, *grads_b), _relu64(za), pb, s2, dyb, dyb_terms,
                                     tol[1] * amp, norm_b)
        daa = naive_sepconv2d_backward(_relu64(za), pb.depthwise, pb.pointwise, dyb, s2)[0]
        dya, dya_terms, *norm_a = self.norm_backward(daa * (za > 0), dxb_terms * (za > 0), ya,
                                                     norms[0])
        self.check_block(grads_a, x64, pa, s1, dya, dya_terms, tol[1] * amp, norm_a)


class TestChannelReductions:
    """The row rule of the module docstring: each sample's rows are reduced
    by BLAS products in the array's dtype, the per-sample results are summed
    in float64."""

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 128 * 128),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 3),
           st.floats(-4.0, 4.0), st.integers(0, 2 ** 32))
    # the longest rows, terms nearly all of one sign: one float32 accumulator per row
    # (a sequential sum) errs by 2.5e-6 times the sum of |terms| on this draw
    @example(4, 4, 128 * 128, np.float32, 1, 4.0, 2)
    @settings(max_examples=60, deadline=None)
    def test_sum_and_dot_against_exact_float64(self, n, c, length, dtype, pad, offset, seed):
        rng = np.random.default_rng(seed)
        a = (rng.normal(size=(n, c, length)) + offset).astype(dtype)
        # b is a strided view ending in a row of ones, as [mid; 1] does: its
        # column of the product holds the row sums of a
        b = np.ones((n, c + 1, length + pad), dtype=dtype)[..., pad:]
        b[:, :c] = rng.normal(size=(n, c, length))
        got = layers._row_gram(a, b)
        assert got.dtype == np.float64 and got.shape == (c, c + 1)
        a64, b64 = a.astype(np.float64), b.astype(np.float64)
        for i, j in np.ndindex(c, c + 1):
            terms = a64[:, i] * b64[:, j]
            exact = math.fsum(terms.ravel())
            assert abs(got[i, j] - exact) <= REDUCE_TOL[dtype] * np.abs(terms).sum()


def identity_sepconv(c):
    """Centre depthwise taps, identity pointwise, zero bias: conv output = input."""
    depthwise = np.zeros((c, 1, 3, 3))
    depthwise[:, 0, 1, 1] = 1.0
    return layers.SepConvParams(depthwise, np.eye(c).reshape(c, c, 1, 1), np.zeros(c))


class TestBatchNorm:
    """Batchnorm as a block runs it: folded into the sepconv before it, with
    batch statistics when passed to it (train mode), and with running
    statistics by ``fold_batchnorm`` ahead of the pass (infer mode)."""

    def make_params(self, c, rng=None):
        if rng is None:
            return layers.BatchNormParams(
                gamma=np.ones(c), beta=np.zeros(c),
                running_mean=np.zeros(c), running_var=np.ones(c),
            )
        return layers.BatchNormParams(
            gamma=rng.normal(size=c) + 1.0, beta=rng.normal(size=c),
            running_mean=np.zeros(c), running_var=np.ones(c),
        )

    def test_constant_channel_maps_to_zero(self):
        # a zero pointwise row makes channel 0 of the conv output its bias, a
        # constant, which standardises to 0 and so maps to beta
        rng = np.random.default_rng(2)
        conv = random_sepconv(rng, 2, 2)
        conv.pointwise[0] = 0.0
        x = rng.normal(size=(2, 2, 3, 3))
        p = self.make_params(2)
        out, _ = layers.sepconv2d(x, conv, p)
        np.testing.assert_allclose(out[:, 0], 0.0, atol=1e-12)
        p.beta[0] = 0.7
        out, _ = layers.sepconv2d(x, conv, p)
        np.testing.assert_allclose(out[:, 0], 0.7, atol=1e-12)

    def test_two_point_batch(self):
        # values {-1, +1}: biased variance 1, so outputs are +-1/sqrt(1 + eps)
        x = np.array([-1.0, 1.0]).reshape(2, 1, 1, 1)
        p = self.make_params(1)
        p.epsilon = 1e-3
        out, _ = layers.sepconv2d(x, identity_sepconv(1), p)
        expect = 1.0 / np.sqrt(1.0 + 1e-3)
        np.testing.assert_allclose(out.ravel(), [-expect, expect], rtol=1e-7)

    def test_infer_identity_stats(self):
        # infer mode folds into the conv: stats (0,1) with gamma 1, beta 0 scale
        # the pointwise weights and the bias by 1/sqrt(1 + eps), and nothing else
        rng = np.random.default_rng(3)
        conv = random_sepconv(rng, 2, 3, stride=2)
        p = self.make_params(3)
        folded = layers.fold_batchnorm(conv, p)
        factor = 1.0 / np.sqrt(1.0 + p.epsilon)
        np.testing.assert_allclose(folded.pointwise, conv.pointwise * factor, rtol=1e-15)
        np.testing.assert_allclose(folded.bias, conv.bias * factor, rtol=1e-15)
        assert folded.depthwise is conv.depthwise
        assert folded.stride == 2

    def test_train_standardizes(self):
        rng = np.random.default_rng(4)
        x = rng.normal(2.0, 3.0, size=(4, 3, 5, 5))
        conv = random_sepconv(rng, 3, 3)
        out, _ = layers.sepconv2d(x, conv, self.make_params(3))
        means = out.mean(axis=(0, 2, 3))
        variances = out.var(axis=(0, 2, 3))
        sigma2 = layers.sepconv2d(x, conv)[0].var(axis=(0, 2, 3))
        target = sigma2 / (sigma2 + 1e-3)
        assert np.abs(means).max() <= 1e-5
        assert np.abs(variances - target).max() <= 1e-3

    def test_batch_too_small(self):
        p = self.make_params(2)
        with pytest.raises(ShapeError):
            layers.sepconv2d(np.ones((1, 2, 1, 1)), identity_sepconv(2), p)

    def test_running_stats_ema(self):
        x = np.array([1.0, 3.0]).reshape(2, 1, 1, 1)
        p = self.make_params(1)
        p.momentum = 0.9
        layers.sepconv2d(x, identity_sepconv(1), p)
        # batch mean 2, biased var 1
        np.testing.assert_allclose(p.running_mean, [0.9 * 0 + 0.1 * 2], rtol=1e-6)
        np.testing.assert_allclose(p.running_var, [0.9 * 1 + 0.1 * 1], rtol=1e-6)

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_gradients(self, mode):
        """Train mode: every gradient of the block, batchnorm's included.
        Infer mode: the folded block's dx and d_depthwise against the unfolded
        sepconv -> batchnorm."""
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 4, 3))
        conv = random_sepconv(rng, 3, 3)
        p = self.make_params(3, rng)
        p.running_mean = rng.normal(size=3)
        p.running_var = rng.uniform(0.5, 2.0, size=3)
        upstream = rng.normal(size=x.shape)
        if mode == "infer":
            def loss():
                return float(np.sum(affine_batchnorm(layers.sepconv2d(x, conv)[0], p) * upstream))

            _, cache = layers.sepconv2d(x, layers.fold_batchnorm(conv, p))
            dx, d_dw = layers.sepconv2d_backward(upstream, cache)[:2]
            assert max_rel_err(dx, central_difference(loss, x, FD_H)) <= GRAD_TOL
            assert max_rel_err(d_dw, central_difference(loss, conv.depthwise, FD_H)) <= GRAD_TOL
            return

        def loss():
            out, _ = layers.sepconv2d(x, conv, p)
            return float(np.sum(out * upstream))

        _, cache = layers.sepconv2d(x, conv, p)
        grads = layers.sepconv2d_backward(upstream, cache)
        wrt = (x, conv.depthwise, conv.pointwise, conv.bias, p.gamma, p.beta)
        assert len(grads) == len(wrt)
        for got, arr in zip(grads, wrt):
            assert max_rel_err(got, central_difference(loss, arr, FD_H)) <= GRAD_TOL


# The folded train block against its definition, max |got - ref| / max |ref|
# per array; set before the test first ran. Float32 is held to the float64
# truth of its own rounded inputs: (output and statistics, gradients).
SHADOW_TOL = {np.float64: (1e-12, 1e-12), np.float32: (1e-5, 1e-4)}


class TestFoldedBlockShadow:
    """A train block as the model runs it (sepconv with batchnorm folded in
    from batch statistics, then ReLU) against an unfolded float64 reference
    built from the definition: ``naive_sepconv2d``, then ``batchnorm_train``,
    then ReLU, and the gradients of each step in turn."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("chunk", ["batch", "sample"])
    def test_against_unfolded_definition(self, dtype, stride, chunk, monkeypatch):
        if chunk == "sample":
            monkeypatch.setattr(layers, "_CHUNK_BYTES", 1)
        rng = np.random.default_rng(30 + stride)
        # inputs off zero, so the batch mean is far from the centred spread
        x = rng.normal(1.0, 1.0, size=(4, 3, 7, 6)).astype(dtype)
        conv = random_sepconv(rng, 3, 4, stride=stride)
        for name in ("depthwise", "pointwise", "bias"):
            setattr(conv, name, getattr(conv, name).astype(dtype))
        # zero running statistics: after one step they are (1 - momentum) * batch
        norm = layers.BatchNormParams(
            gamma=rng.uniform(0.5, 1.5, 4).astype(dtype), beta=rng.normal(size=4).astype(dtype),
            running_mean=np.zeros(4, dtype), running_var=np.zeros(4, dtype))
        f64 = [a.astype(np.float64) for a in (x, conv.depthwise, conv.pointwise, conv.bias)]
        y = naive_sepconv2d(*f64, stride)
        z, mean, var = batchnorm_train(y, norm.gamma, norm.beta, norm.epsilon)
        upstream = rng.normal(size=z.shape).astype(dtype)
        dz = upstream * (z > 0)
        dy, d_gamma, d_beta = batchnorm_train_backward(dz, y, norm.gamma, norm.epsilon)
        want = (*naive_sepconv2d_backward(*f64[:3], dy, stride), d_gamma, d_beta)

        out, cache = layers.sepconv2d(x, conv, norm)
        out, relu_cache = layers.relu(out, out=out)
        grads = layers.sepconv2d_backward(layers.relu_backward(upstream.copy(), relu_cache), cache)

        def err(got, ref, scale=None):
            assert got.dtype == dtype and got.shape == ref.shape
            return np.abs(got - ref).max() / np.abs(ref if scale is None else scale).max()

        fwd_tol, grad_tol = SHADOW_TOL[dtype]
        assert err(out, np.maximum(z, 0.0)) <= fwd_tol
        assert err(norm.running_mean, (1 - norm.momentum) * mean) <= fwd_tol
        assert err(norm.running_var, (1 - norm.momentum) * var) <= fwd_tol
        names = ("dx", "d_depthwise", "d_pointwise", "d_bias", "d_gamma", "d_beta")
        assert len(grads) == len(names)
        for name, got, ref in zip(names, grads, want):
            # the conv bias gradient is 0 by definition: held to the scale of d_beta
            scale = d_beta if name == "d_bias" else None
            assert err(got, ref, scale) <= grad_tol, name


class TestRelu:
    def test_definition(self):
        out, _ = layers.relu(np.array([-2.0, 0.0, 3.0]))
        assert out.tolist() == [0.0, 0.0, 3.0]

    def test_all_negative_saturation(self):
        x = -np.ones((2, 2))
        out, cache = layers.relu(x)
        assert not out.any()
        assert not layers.relu_backward(np.ones_like(x), cache).any()

    def test_subgradient_zero_at_zero(self):
        out, cache = layers.relu(np.array([-2.0, 0.0, 3.0]))
        dx = layers.relu_backward(np.array([1.0, 1.0, 1.0]), cache)
        assert dx.tolist() == [0.0, 0.0, 1.0]

    def test_gradient_away_from_kink(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 4))
        x[np.abs(x) < 1e-2] = 0.5  # keep probe points away from the kink
        upstream = rng.normal(size=x.shape)

        def loss():
            out, _ = layers.relu(x)
            return float(np.sum(out * upstream))

        _, cache = layers.relu(x)
        dx = layers.relu_backward(upstream, cache)
        assert max_rel_err(dx, central_difference(loss, x, FD_H)) <= GRAD_TOL

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_in_place(self, dtype):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(3, 4, 5, 5)).astype(dtype)
        x[0, 0, 0, :2] = 0.0  # the kink
        dout = rng.normal(size=x.shape).astype(dtype)
        want = dout * (x > 0)
        _, cache = layers.relu(x)
        dx = layers.relu_backward(dout, cache)
        assert dx is dout
        assert dx.dtype == dtype and dx.tobytes() == want.tobytes()


class TestGlobalAvgPool:
    def test_constant_map(self):
        out, _ = layers.global_avg_pool(np.full((1, 2, 3, 3), 7.0))
        np.testing.assert_allclose(out, 7.0)

    def test_mean_oracle(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
        out, _ = layers.global_avg_pool(x)
        assert out[0, 0] == pytest.approx(2.5)

    def test_gradient_spreads_uniformly(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 3, 4, 5))
        upstream = rng.normal(size=(2, 3))
        _, cache = layers.global_avg_pool(x)
        dx = layers.global_avg_pool_backward(upstream, cache)
        np.testing.assert_allclose(dx, np.broadcast_to(upstream[:, :, None, None] / 20, x.shape))

        def loss():
            out, _ = layers.global_avg_pool(x)
            return float(np.sum(out * upstream))

        assert max_rel_err(dx, central_difference(loss, x, FD_H)) <= GRAD_TOL


class TestDense:
    def test_identity(self):
        x = np.array([[1.0, 2.0]])
        p = layers.DenseParams(weight=np.eye(2), bias=np.zeros(2))
        out, _ = layers.dense(x, p)
        np.testing.assert_allclose(out, x)

    def test_zero_weight_broadcasts_bias(self):
        p = layers.DenseParams(weight=np.zeros((3, 2)), bias=np.array([1.0, 2.0, 3.0]))
        out, _ = layers.dense(np.ones((4, 2)), p)
        np.testing.assert_allclose(out, np.tile([1.0, 2.0, 3.0], (4, 1)))

    def test_dot_product_oracle(self):
        p = layers.DenseParams(weight=np.array([[3.0, 4.0]]), bias=np.array([1.0]))
        out, _ = layers.dense(np.array([[1.0, 2.0]]), p)
        assert out[0, 0] == pytest.approx(12.0)

    def test_dim_mismatch(self):
        p = layers.DenseParams(weight=np.zeros((3, 2)), bias=np.zeros(3))
        with pytest.raises(ShapeError):
            layers.dense(np.ones((1, 4)), p)

    def test_gradients(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 5))
        p = layers.DenseParams(weight=rng.normal(size=(2, 5)), bias=rng.normal(size=2))
        upstream = rng.normal(size=(3, 2))

        def loss():
            out, _ = layers.dense(x, p)
            return float(np.sum(out * upstream))

        _, cache = layers.dense(x, p)
        dx, d_w, d_b = layers.dense_backward(upstream, cache)
        assert max_rel_err(dx, central_difference(loss, x, FD_H)) <= GRAD_TOL
        assert max_rel_err(d_w, central_difference(loss, p.weight, FD_H)) <= GRAD_TOL
        assert max_rel_err(d_b, central_difference(loss, p.bias, FD_H)) <= GRAD_TOL


class TestDropout:
    def test_rate_zero_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out, _ = layers.dropout(x, 0.0)
        assert np.array_equal(out, x)

    def test_bad_rate(self):
        with pytest.raises(ConfigError):
            layers.dropout(np.ones((1, 3)), 1.0, SplitMixStream(0, np.arange(1)))
        with pytest.raises(ConfigError):
            layers.dropout(np.ones((1, 3)), -0.1, SplitMixStream(0, np.arange(1)))

    def test_stream_count_must_match_rows(self):
        for stream in (SplitMixStream(0, np.arange(1)), SplitMixStream(0, np.arange(3)),
                       SplitMixStream(0)):
            with pytest.raises(ShapeError):
                layers.dropout(np.ones((2, 3)), 0.5, stream)

    def test_mean_preserved_monte_carlo(self):
        x = np.ones((10, 10_000))
        out, _ = layers.dropout(x, 0.5, SplitMixStream(99, np.arange(10)))
        assert abs(out.mean() - 1.0) <= 0.01

    def test_per_row_streams(self):
        x = np.ones((3, 50))
        out, _ = layers.dropout(x, 0.5, SplitMixStream(1, np.arange(3)))
        again, _ = layers.dropout(x, 0.5, SplitMixStream(1, np.arange(3)))
        assert np.array_equal(out, again)
        assert not np.array_equal(out[0], out[1])
        # row i's mask is the one its own scalar-keyed stream draws
        for i, row in enumerate(out):
            assert np.array_equal(row, (SplitMixStream(1, i).uniform(50) >= 0.5) * 2.0)

    def test_gradient_with_frozen_mask(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 6))
        upstream = rng.normal(size=x.shape)

        def stream():
            return SplitMixStream(5, np.arange(len(x)))

        def loss():
            out, _ = layers.dropout(x, 0.4, stream())
            return float(np.sum(out * upstream))

        _, cache = layers.dropout(x, 0.4, stream())
        dx = layers.dropout_backward(upstream, cache)
        assert max_rel_err(dx, central_difference(loss, x, FD_H)) <= GRAD_TOL


class TestSigmoid:
    def test_symmetry_point(self):
        out = layers.sigmoid(np.array([0.0]))
        assert out[0] == pytest.approx(0.5)

    def test_extreme_negative_stable(self):
        out = layers.sigmoid(np.array([-100.0, -745.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-30)

    def test_extreme_positive_stable(self):
        out = layers.sigmoid(np.array([100.0, 745.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)

    def test_reflection_identity(self):
        rng = np.random.default_rng(13)
        x = rng.normal(scale=5.0, size=1000)
        pos = layers.sigmoid(x)
        neg = layers.sigmoid(-x)
        assert np.abs(neg - (1.0 - pos)).max() <= 1e-7
