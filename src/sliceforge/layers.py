"""Layer forward and gradient computation on plain ndarrays.

Every layer comes in a pair: ``<layer>(...)`` returns ``(output, cache)`` and
``<layer>_backward(upstream, cache)`` consumes the cache to produce the input
gradient (plus parameter gradients where the layer has parameters). The
sigmoid is the exception: it returns only its output and has no backward,
because the loss is computed on logits and nothing backpropagates through it.

Dtype policy: every output and gradient has the dtype of the array passed in,
so the same code serves float32 training and float64 finite-difference
shadowing. Separable convolution, batch normalization, ReLU and dropout
compute elementwise work and matmuls in that dtype, casting parameters to it;
only their per-channel reductions (batchnorm mean and variance; bias, gamma,
beta and depthwise gradient sums) accumulate in float64. Pooling sums,
the dense layers and the sigmoid compute in float64 and cast back; their
arrays are [N, C] or smaller.

``batchnorm`` is train-only. In infer mode batchnorm is a fixed per-channel
affine map, which ``fold_batchnorm`` folds into the preceding convolution.

Parameter containers are mutated only by the optimizer, with one exception:
batch normalization updates its running statistics during its forward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

BN_EPSILON = 1e-3
# 0.9 keeps running statistics usable within the first few dozen updates;
# 0.99 needs ~100x more steps than a desk-scale run performs.
BN_MOMENTUM = 0.9
# bytes of padded input per batch chunk of sepconv's depthwise stage; with its
# tap and output buffers a chunk stays in a core's L2 across the 9 taps
_CHUNK_BYTES = 1 << 18


@dataclass
class SepConvParams:
    """Depthwise kernel [C_in,1,kH,kW], pointwise [C_out,C_in,1,1], bias [C_out]."""

    depthwise: np.ndarray
    pointwise: np.ndarray
    bias: np.ndarray
    stride: int = 1

    def __post_init__(self):
        kh, kw = self.depthwise.shape[2], self.depthwise.shape[3]
        if kh % 2 == 0 or kw % 2 == 0:
            raise ConfigError(f"kernel dims must be odd, got {kh}x{kw}")
        if self.stride not in (1, 2):
            raise ConfigError(f"stride must be 1 or 2, got {self.stride}")
        if self.pointwise.shape[1] != self.depthwise.shape[0]:
            raise ShapeError(
                f"pointwise expects {self.pointwise.shape[1]} input channels, "
                f"depthwise provides {self.depthwise.shape[0]}"
            )


@dataclass
class BatchNormParams:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = BN_MOMENTUM
    epsilon: float = BN_EPSILON

    def __post_init__(self):
        if not 0.0 < self.momentum < 1.0:
            raise ConfigError(f"momentum must be in (0,1), got {self.momentum}")
        if not 0.0 < self.epsilon < np.inf:
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if np.any(self.running_var < 0):
            raise ConfigError("running_var must be nonnegative")


@dataclass
class DenseParams:
    weight: np.ndarray  # [out, in]
    bias: np.ndarray  # [out]


@dataclass
class SepConvCache:
    x: np.ndarray
    mid: np.ndarray
    params: SepConvParams


@dataclass
class BatchNormCache:
    x: np.ndarray
    mean: np.ndarray  # float64 [C]: batch mean
    inv_std: np.ndarray  # float64 [C]
    gamma: np.ndarray


@dataclass
class ReluCache:
    out: np.ndarray  # the gradient passes where out > 0, i.e. where x > 0


@dataclass
class PoolCache:
    in_shape: tuple


@dataclass
class DenseCache:
    x: np.ndarray
    params: DenseParams


@dataclass
class DropoutCache:
    scaled_mask: np.ndarray | None  # None means identity (infer or rate 0)


def _per_channel(v: np.ndarray, dtype) -> np.ndarray:
    """A [C] vector cast to ``dtype`` and shaped to broadcast over [N,C,H,W]."""
    return v.astype(dtype, copy=False)[None, :, None, None]


def _padded_chunks(x: np.ndarray, ph: int, pw: int):
    """Split the batch of x into chunks small enough to stay in cache while
    the depthwise taps re-read them. Returns the rows per chunk and an
    iterator of (batch slice, chunk zero-padded by (ph, pw)); every chunk is
    a view of one reused buffer."""
    n, c, h, w = x.shape
    rows = max(1, _CHUNK_BYTES // (x.itemsize * c * (h + 2 * ph) * (w + 2 * pw)))
    buf = np.zeros((min(rows, n), c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)

    def chunks():
        for b in range(0, n, rows):
            chunk = buf[:min(rows, n - b)]
            chunk[:, :, ph:ph + h, pw:pw + w] = x[b:b + rows]
            yield slice(b, b + len(chunk)), chunk

    return rows, chunks()


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """Per-channel sum of an [N,C,H,W] array, accumulated in float64."""
    return a.sum(axis=(0, 2, 3), dtype=np.float64)


def sepconv2d(x: np.ndarray, p: SepConvParams):
    """Depthwise spatial convolution then 1x1 pointwise projection plus bias.

    No nonlinearity between the two stages. Padding is "same": symmetric
    zero-padding of floor(k/2), so the output is ceil(H/stride) per side.
    Everything is computed in ``x.dtype`` (parameters are cast to it). Per
    cache-sized batch chunk, the depthwise taps accumulate in place into
    ``mid`` and the pointwise stage is a batched matmul over [N, C_in, H*W].
    """
    if x.ndim != 4:
        raise ShapeError(f"expected [N,C,H,W] input, got shape {x.shape}")
    n, c_in, h, w = x.shape
    if c_in != p.depthwise.shape[0]:
        raise ShapeError(f"input has {c_in} channels, depthwise expects {p.depthwise.shape[0]}")
    kh, kw = p.depthwise.shape[2], p.depthwise.shape[3]
    s = p.stride
    ho, wo, ph, pw = -(-h // s), -(-w // s), kh // 2, kw // 2
    dw = p.depthwise[:, 0].astype(x.dtype, copy=False)
    pw_mat = p.pointwise[:, :, 0, 0].astype(x.dtype, copy=False)
    bias = p.bias.astype(x.dtype, copy=False)[:, None]
    mid = np.zeros((n, c_in, ho, wo), dtype=x.dtype)
    out = np.empty((n, pw_mat.shape[0], ho * wo), dtype=x.dtype)
    rows, chunks = _padded_chunks(x, ph, pw)
    tap = np.empty_like(mid[:rows])
    for b, xb in chunks:
        m, t = mid[b], tap[:len(xb)]
        for i in range(kh):
            for j in range(kw):
                np.multiply(xb[:, :, i:i + s * ho:s, j:j + s * wo:s], dw[:, i, j][None, :, None, None], out=t)
                m += t
        m3 = m.reshape(len(m), c_in, ho * wo)
        if c_in == 1:
            # numpy's matmul does not call BLAS for an outer product (inner dim 1)
            np.multiply(pw_mat, m3, out=out[b])
        else:
            np.matmul(pw_mat, m3, out=out[b])
        out[b] += bias

    cache = SepConvCache(x=x, mid=mid, params=p)
    return out.reshape(n, -1, ho, wo), cache


def sepconv2d_backward(dout: np.ndarray, cache: SepConvCache):
    """Gradients of sepconv2d: returns (dx, d_depthwise, d_pointwise, d_bias).

    The pointwise gradients are batched matmuls over [N, C, H*W] in
    ``dout.dtype``; the bias and depthwise sums accumulate in float64.
    """
    p, x, mid = cache.params, cache.x, cache.mid
    dtype = dout.dtype
    kh, kw = p.depthwise.shape[2], p.depthwise.shape[3]
    s = p.stride
    ph, pw = kh // 2, kw // 2
    n, c_out, ho, wo = dout.shape
    c_in, h, w = x.shape[1:]
    g = dout.reshape(n, c_out, ho * wo)

    d_bias = g.sum(axis=(0, 2), dtype=np.float64)
    d_pw = np.matmul(g, mid.reshape(n, c_in, ho * wo).transpose(0, 2, 1)).sum(axis=0)
    pw_t = p.pointwise[:, :, 0, 0].astype(dtype, copy=False).T
    dw = p.depthwise[:, 0].astype(dtype, copy=False)
    d_dw = np.zeros((c_in, 1, kh, kw), dtype=np.float64)
    dx = np.empty(x.shape, dtype=dtype)
    rows, chunks = _padded_chunks(x, ph, pw)
    dmid, tap = np.empty_like(mid[:rows]), np.empty_like(mid[:rows])
    dxpad = np.empty((len(dmid), c_in, h + 2 * ph, w + 2 * pw), dtype=dtype)
    for b, xb in chunks:
        k = len(xb)
        dm, t, dxb = dmid[:k], tap[:k], dxpad[:k]
        np.matmul(pw_t, g[b], out=dm.reshape(k, c_in, ho * wo))
        dxb.fill(0)
        for i in range(kh):
            for j in range(kw):
                window = (slice(None), slice(None), slice(i, i + s * ho, s), slice(j, j + s * wo, s))
                d_dw[:, 0, i, j] += np.einsum("nchw,nchw->c", dm, xb[window], dtype=np.float64)
                np.multiply(dm, dw[:, i, j][None, :, None, None], out=t)
                dxb[window] += t
        dx[b] = dxb[:, :, ph:ph + h, pw:pw + w]

    return (
        dx,
        d_dw.astype(dtype, copy=False),
        d_pw.reshape(p.pointwise.shape).astype(dtype, copy=False),
        d_bias.astype(dtype, copy=False),
    )


def fold_batchnorm(conv: SepConvParams, norm: BatchNormParams) -> SepConvParams:
    """``conv`` followed by infer-mode batchnorm, as one separable convolution.

    With ``s = gamma / sqrt(running_var + eps)`` the pointwise stage becomes
    ``W' = diag(s) W`` and the bias ``b' = s * (b - running_mean) + beta``,
    computed in float64 and cast to the conv params' dtypes; the depthwise
    kernel is shared, not copied. Callers refold on every pass: the optimizer
    and train-mode batchnorm change the inputs in place.
    """
    s = norm.gamma.astype(np.float64) / np.sqrt(norm.running_var.astype(np.float64) + norm.epsilon)
    pointwise = conv.pointwise.astype(np.float64) * s[:, None, None, None]
    bias = s * (conv.bias.astype(np.float64) - norm.running_mean.astype(np.float64))
    bias += norm.beta.astype(np.float64)
    return SepConvParams(
        depthwise=conv.depthwise,
        pointwise=pointwise.astype(conv.pointwise.dtype),
        bias=bias.astype(conv.bias.dtype),
        stride=conv.stride,
    )


def batchnorm(x: np.ndarray, p: BatchNormParams):
    """Train-mode per-channel standardization with scale/shift.

    Standardizes with batch statistics over N*H*W per channel (biased
    variance) and folds them into the running statistics via
    ``running = momentum * running + (1 - momentum) * batch``. Infer mode
    uses ``fold_batchnorm`` instead.

    The statistics and the per-channel scale ``gamma / sqrt(var + eps)`` and
    shift ``beta - mean * scale`` are float64 [C] vectors; the output
    ``x * scale + shift`` is computed in ``x.dtype``.
    """
    if x.ndim != 4:
        raise ShapeError(f"expected [N,C,H,W] input, got shape {x.shape}")
    n, _, h, w = x.shape
    m = n * h * w
    if m < 2:
        raise ShapeError(f"train-mode batchnorm needs N*H*W >= 2 per channel, got {m}")
    mean = x.mean(axis=(0, 2, 3), dtype=np.float64)
    centered = x - _per_channel(mean, x.dtype)
    var = _channel_sum(np.square(centered, out=centered)) / m
    mom = p.momentum
    p.running_mean[...] = (mom * p.running_mean.astype(np.float64) + (1 - mom) * mean).astype(
        p.running_mean.dtype
    )
    p.running_var[...] = (mom * p.running_var.astype(np.float64) + (1 - mom) * var).astype(
        p.running_var.dtype
    )

    inv_std = 1.0 / np.sqrt(var + p.epsilon)
    scale = p.gamma.astype(np.float64) * inv_std
    out = x * _per_channel(scale, x.dtype)
    out += _per_channel(p.beta.astype(np.float64) - mean * scale, x.dtype)
    return out, BatchNormCache(x=x, mean=mean, inv_std=inv_std, gamma=p.gamma)


def batchnorm_backward(dout: np.ndarray, cache: BatchNormCache):
    """Gradients of train-mode batchnorm: returns (dx, d_gamma, d_beta).

    Elementwise work is in ``dout.dtype``; the gamma and beta sums
    accumulate in float64.
    """
    dtype = dout.dtype
    n, _, h, w = dout.shape
    m = n * h * w
    x_hat = np.subtract(cache.x, _per_channel(cache.mean, dtype), dtype=dtype)
    x_hat *= _per_channel(cache.inv_std, dtype)
    d_beta = _channel_sum(dout)
    d_gamma = _channel_sum(dout * x_hat)
    # dx = scale * (dout - d_beta/m - x_hat * d_gamma/m), reusing x_hat's buffer
    dx = np.multiply(x_hat, _per_channel(d_gamma / m, dtype), out=x_hat)
    np.subtract(dout, dx, out=dx)
    dx -= _per_channel(d_beta / m, dtype)
    dx *= _per_channel(cache.gamma.astype(np.float64) * cache.inv_std, dtype)
    return dx, d_gamma.astype(dtype, copy=False), d_beta.astype(dtype, copy=False)


def relu(x: np.ndarray):
    """max(0, x); the gradient passes only where x > 0 (subgradient 0 at 0)."""
    out = np.maximum(x, x.dtype.type(0))
    return out, ReluCache(out=out)


def relu_backward(dout: np.ndarray, cache: ReluCache):
    return dout * (cache.out > 0)


def global_avg_pool(x: np.ndarray):
    """Mean over the spatial dims: [N,C,H,W] -> [N,C]."""
    if x.ndim != 4:
        raise ShapeError(f"expected [N,C,H,W] input, got shape {x.shape}")
    out = x.mean(axis=(2, 3), dtype=np.float64)
    return out.astype(x.dtype, copy=False), PoolCache(in_shape=x.shape)


def global_avg_pool_backward(dout: np.ndarray, cache: PoolCache):
    n, c, h, w = cache.in_shape
    dx = np.broadcast_to(dout[:, :, None, None], cache.in_shape) / (h * w)
    return dx.astype(dout.dtype, copy=False)


def dense(x: np.ndarray, p: DenseParams):
    """Affine map x @ W.T + b over [N, in] rows."""
    if x.ndim != 2:
        raise ShapeError(f"expected [N,in] input, got shape {x.shape}")
    if x.shape[1] != p.weight.shape[1]:
        raise ShapeError(f"input width {x.shape[1]} != weight in-dim {p.weight.shape[1]}")
    out = np.matmul(x.astype(np.float64, copy=False), p.weight.astype(np.float64, copy=False).T)
    out += p.bias.astype(np.float64, copy=False)
    return out.astype(x.dtype, copy=False), DenseCache(x=x, params=p)


def dense_backward(dout: np.ndarray, cache: DenseCache):
    """Gradients of dense: returns (dx, d_weight, d_bias)."""
    g = dout.astype(np.float64, copy=False)
    x64 = cache.x.astype(np.float64, copy=False)
    w64 = cache.params.weight.astype(np.float64, copy=False)
    dx = np.matmul(g, w64)
    d_w = np.matmul(g.T, x64)
    d_b = g.sum(axis=0)
    dtype = dout.dtype
    return dx.astype(dtype, copy=False), d_w.astype(dtype, copy=False), d_b.astype(dtype, copy=False)


def dropout(x: np.ndarray, rate: float, mode: str = "train", rng=None):
    """Inverted dropout: zero each element with probability ``rate`` and scale
    survivors by 1/(1-rate) so inference is exactly the identity.

    ``rng`` is a sequence of SplitMixStreams, one per row of ``x``, so each
    sample's mask depends only on its own key.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0,1), got {rate}")
    if mode == "infer" or rate == 0.0:
        return x, DropoutCache(scaled_mask=None)
    if mode != "train":
        raise ConfigError(f"mode must be 'train' or 'infer', got {mode!r}")
    if rng is None:
        raise ConfigError("train-mode dropout with rate > 0 needs per-row rng streams")
    if len(rng) != x.shape[0]:
        raise ShapeError(f"{len(rng)} streams for {x.shape[0]} rows")
    u = np.stack([s.uniform(x.shape[1:]) for s in rng])
    scaled_mask = (u >= rate).astype(x.dtype) / x.dtype.type(1.0 - rate)
    return x * scaled_mask, DropoutCache(scaled_mask=scaled_mask)


def dropout_backward(dout: np.ndarray, cache: DropoutCache):
    if cache.scaled_mask is None:
        return dout
    return dout * cache.scaled_mask


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, branch form on the sign of x.

    Returns the output only: there is no cache and no backward (see the
    module docstring)."""
    x64 = x.astype(np.float64, copy=False)
    t = np.exp(-np.abs(x64))
    out = np.where(x64 >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    return out.astype(x.dtype, copy=False)
