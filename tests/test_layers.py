import numpy as np
import pytest

from helpers import affine_batchnorm, central_difference, max_rel_err, naive_sepconv2d
from sliceforge import layers
from sliceforge.errors import ConfigError, ShapeError
from sliceforge.rng import SplitMixStream

GRAD_TOL = 1e-4
FD_H = 1e-3


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

    @pytest.mark.parametrize("stride", [1, 2], ids=["1-same", "2-same"])
    def test_gradients(self, stride):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 6, 5))
        p = random_sepconv(rng, 3, 2, stride=stride)
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


class TestBatchNorm:
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
        x = np.full((2, 1, 2, 2), 5.0)
        out, _ = layers.batchnorm(x, self.make_params(1))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_two_point_batch(self):
        # values {-1, +1}: biased variance 1, so outputs are +-1/sqrt(1 + eps)
        x = np.array([-1.0, 1.0]).reshape(2, 1, 1, 1)
        p = self.make_params(1)
        p.epsilon = 1e-3
        out, _ = layers.batchnorm(x, p)
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
        out, _ = layers.batchnorm(x, self.make_params(3))
        means = out.mean(axis=(0, 2, 3))
        variances = out.var(axis=(0, 2, 3))
        sigma2 = x.var(axis=(0, 2, 3))
        target = sigma2 / (sigma2 + 1e-3)
        assert np.abs(means).max() <= 1e-5
        assert np.abs(variances - target).max() <= 1e-3

    def test_batch_too_small(self):
        with pytest.raises(ShapeError):
            layers.batchnorm(np.ones((1, 2, 1, 1)), self.make_params(2))

    def test_running_stats_ema(self):
        x = np.array([1.0, 3.0]).reshape(2, 1, 1, 1)
        p = self.make_params(1)
        p.momentum = 0.9
        layers.batchnorm(x, p)
        # batch mean 2, biased var 1
        np.testing.assert_allclose(p.running_mean, [0.9 * 0 + 0.1 * 2], rtol=1e-6)
        np.testing.assert_allclose(p.running_var, [0.9 * 1 + 0.1 * 1], rtol=1e-6)

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_gradients(self, mode):
        """Train mode: batchnorm's own gradients. Infer mode: batchnorm folded
        into the sepconv before it, whose backward must give the dx of the
        unfolded sepconv -> batchnorm."""
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 4, 3))
        p = self.make_params(3, rng)
        p.running_mean = rng.normal(size=3)
        p.running_var = rng.uniform(0.5, 2.0, size=3)
        upstream = rng.normal(size=x.shape)
        if mode == "infer":
            conv = random_sepconv(rng, 3, 3)

            def loss():
                return float(np.sum(affine_batchnorm(layers.sepconv2d(x, conv)[0], p) * upstream))

            _, cache = layers.sepconv2d(x, layers.fold_batchnorm(conv, p))
            dx = layers.sepconv2d_backward(upstream, cache)[0]
            assert max_rel_err(dx, central_difference(loss, x, FD_H)) <= GRAD_TOL
            return

        def loss():
            out, _ = layers.batchnorm(x, p)
            return float(np.sum(out * upstream))

        _, cache = layers.batchnorm(x, p)
        dx, d_gamma, d_beta = layers.batchnorm_backward(upstream, cache)
        assert max_rel_err(dx, central_difference(loss, x, FD_H)) <= GRAD_TOL
        assert max_rel_err(d_gamma, central_difference(loss, p.gamma, FD_H)) <= GRAD_TOL
        assert max_rel_err(d_beta, central_difference(loss, p.beta, FD_H)) <= GRAD_TOL


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
        for mode in ("train", "infer"):
            out, _ = layers.dropout(x, 0.0, mode)
            assert np.array_equal(out, x)

    def test_infer_identity_any_rate(self):
        x = np.arange(6.0).reshape(2, 3)
        out, _ = layers.dropout(x, 0.7, "infer")
        assert np.array_equal(out, x)

    def test_bad_rate(self):
        with pytest.raises(ConfigError):
            layers.dropout(np.ones((1, 3)), 1.0, "train", [SplitMixStream(0)])
        with pytest.raises(ConfigError):
            layers.dropout(np.ones((1, 3)), -0.1, "train", [SplitMixStream(0)])

    def test_stream_count_must_match_rows(self):
        with pytest.raises(ShapeError):
            layers.dropout(np.ones((2, 3)), 0.5, "train", [SplitMixStream(0)])

    def test_mean_preserved_monte_carlo(self):
        x = np.ones((10, 10_000))
        out, _ = layers.dropout(x, 0.5, "train", [SplitMixStream(99, i) for i in range(10)])
        assert abs(out.mean() - 1.0) <= 0.01

    def test_per_row_streams(self):
        x = np.ones((3, 50))
        streams = [SplitMixStream(1, i) for i in range(3)]
        out, _ = layers.dropout(x, 0.5, "train", streams)
        again, _ = layers.dropout(x, 0.5, "train", [SplitMixStream(1, i) for i in range(3)])
        assert np.array_equal(out, again)
        assert not np.array_equal(out[0], out[1])

    def test_gradient_with_frozen_mask(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 6))
        upstream = rng.normal(size=x.shape)

        def streams():
            return [SplitMixStream(5, i) for i in range(len(x))]

        def loss():
            out, _ = layers.dropout(x, 0.4, "train", streams())
            return float(np.sum(out * upstream))

        _, cache = layers.dropout(x, 0.4, "train", streams())
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
