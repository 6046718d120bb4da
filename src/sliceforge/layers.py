"""Layer forward and gradient computation on plain ndarrays.

Every layer comes in a pair: ``<layer>(...)`` returns ``(output, cache)`` and
``<layer>_backward(upstream, cache)`` consumes the cache to produce the input
gradient (plus parameter gradients where the layer has parameters). The
sigmoid is the exception: it returns only its output and has no backward,
because the loss is computed on logits and nothing backpropagates through it.

Dtype policy: every output and gradient has the dtype of the array passed in,
so the same code serves float32 training and float64 finite-difference
shadowing. Separable convolution, batch normalization, ReLU and dropout
compute elementwise work and matmuls in that dtype, casting parameters to it.
Their per-channel reductions (batchnorm mean and variance; bias, gamma, beta
and depthwise gradient sums) follow one row rule: each (sample, channel) row
is reduced in the array's dtype, by a pairwise sum (``_channel_sum``) or one
BLAS dot (``_channel_dot``), and the row results are summed in float64. The
tests hold a reduction's error to 1e-6 (float32) or 1e-12 (float64) times the
sum of its absolute terms.
Pooling sums, the dense layers and the sigmoid compute in float64 and cast
back; their arrays are [N, C] or smaller.

Separable convolution copies each cache-sized batch chunk of its zero-padded
input once into s x s stride-phase planes (s the stride): phase (a, b) holds
padded rows a, a+s, ... and columns b, b+s, ..., row pitch wq = wo + (kw-1)//s
for ho x wo outputs, plus one zero row. Depthwise tap (i, j) over all outputs
is the contiguous run [off, off + ho*wq), off = (i//s)*wq + j//s, of phase
(i % s, j % s); columns wo.. of the pitched sums are junk (dropped, or zero).
The forward copies the kh*kw runs of a chunk into a tap stack [rows, C, taps,
ho*wq] and reduces it with one batched matmul against the depthwise kernel
[C, 1, taps]. The backward is the adjoint as a gather, not a scatter: the
input gradient on phase plane (a, b) sums, over the taps with i % s = a and
j % s = b, the pitched ``dmid`` (zero-padded on both sides) shifted by -off;
those shifted runs form the phase's tap stack, whose matmul with the phase's
taps is the ``dx`` plane and whose row dots with the ``x`` plane are the
depthwise gradient. The pointwise stage multiplies [W | bias] with ``mid``
plus one row of ones, so the bias is added inside the GEMM.

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
# bytes of tap stack per batch chunk of sepconv (forward: all kh*kw taps;
# backward: the taps of phase (0, 0), the most of any phase). A chunk holds at
# least one sample; with its phase planes it stays within about a 2 MiB L2 for
# every block of a 128x128 model.
_CHUNK_BYTES = 1 << 19


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


def _phase_planes(x: np.ndarray, kh: int, kw: int, s: int, taps: int):
    """Zeroed phase planes [s, s, rows, C, hq + 1, wq] of ``x`` padded by
    (kh//2, kw//2), laid out as the module docstring says; an iterator copying
    each batch chunk onto them that yields (batch slice, rows); the (phase,
    plane region, input region) triples of that copy. Padding stays zero.
    A chunk holds as many samples as fit ``_CHUNK_BYTES`` of tap stack, that
    is ``taps`` pitched runs of ceil(h/s) rows per channel."""
    n, c, h, w = x.shape
    hq, wq = -(-h // s) + (kh - 1) // s, -(-w // s) + (kw - 1) // s
    rows = max(1, min(n, _CHUNK_BYTES // (x.itemsize * c * taps * -(-h // s) * wq)))
    planes = np.zeros((s, s, rows, c, hq + 1, wq), dtype=x.dtype)

    def axis(a, pad, size):  # plane row u of phase a holds input row s*u + a - pad
        u0 = (pad - a + s - 1) // s
        r0 = s * u0 + a - pad
        return slice(u0, u0 + len(range(r0, size, s))), slice(r0, size, s)

    regions = [((a, b), *zip(axis(a, kh // 2, h), axis(b, kw // 2, w)))
               for a in range(s) for b in range(s)]

    def chunks():
        for start in range(0, n, rows):
            k = min(rows, n - start)
            for (a, b), (us, vs), (rs, cs) in regions:
                planes[a, b, :k, :, us, vs] = x[start:start + k, :, rs, cs]
            yield slice(start, start + k), k

    return planes, chunks(), regions


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """Float64 [C] sums of an [N,C,...] array: a pairwise sum per (sample,
    channel) row in ``a.dtype``, then the N rows of each channel in float64."""
    n, c = a.shape[:2]
    return a.reshape(n, c, -1).sum(axis=2).sum(axis=0, dtype=np.float64)


def _channel_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Float64 [C] sums of ``a * b`` over an [N,C,...] pair: one BLAS dot per
    (sample, channel) row in the arrays' dtype, then the rows in float64.
    No [N,C,...] product is made; rows may be strided views."""
    n, c = a.shape[:2]
    rows = np.matmul(a.reshape(n, c, 1, -1), b.reshape(n, c, -1, 1))
    return rows.reshape(n, c).sum(axis=0, dtype=np.float64)


def sepconv2d(x: np.ndarray, p: SepConvParams, keep_cache: bool = True):
    """Depthwise spatial convolution then 1x1 pointwise projection plus bias.

    No nonlinearity between the two stages. Padding is "same": symmetric
    zero-padding of floor(k/2), so the output is ceil(H/stride) per side.
    Everything is computed in ``x.dtype`` (parameters are cast to it). Per
    cache-sized batch chunk, the depthwise stage is one batched matmul over a
    tap stack and the pointwise stage one of [W | bias] with ``mid`` plus a
    row of ones (see the module docstring). With ``keep_cache`` false,
    ``mid`` is chunk-sized scratch and the returned cache is None.
    """
    if x.ndim != 4:
        raise ShapeError(f"expected [N,C,H,W] input, got shape {x.shape}")
    n, c_in, h, w = x.shape
    if c_in != p.depthwise.shape[0]:
        raise ShapeError(f"input has {c_in} channels, depthwise expects {p.depthwise.shape[0]}")
    kh, kw = p.depthwise.shape[2], p.depthwise.shape[3]
    s = p.stride
    ho, wo = -(-h // s), -(-w // s)
    dw = p.depthwise.astype(x.dtype, copy=False).reshape(c_in, 1, kh * kw)
    pw_bias = np.concatenate([p.pointwise[:, :, 0, 0], p.bias[:, None]], axis=1).astype(
        x.dtype, copy=False)
    planes, chunks, _ = _phase_planes(x, kh, kw, s, kh * kw)
    rows, wq = planes.shape[2], planes.shape[-1]
    flat = planes.reshape(s, s, rows, c_in, -1)
    run = ho * wq
    stack = np.empty((rows, c_in, kh * kw, run), dtype=x.dtype)
    acc = np.empty((rows, c_in, 1, run), dtype=x.dtype)
    # channel c_in of mid is the ones row that carries the bias through the GEMM
    mid = np.empty((n if keep_cache else rows, c_in + 1, ho, wo), dtype=x.dtype)
    mid[:, c_in] = 1
    out = np.empty((n, pw_bias.shape[0], ho * wo), dtype=x.dtype)
    for b, k in chunks:
        for q, (i, j) in enumerate(np.ndindex(kh, kw)):
            off = (i // s) * wq + j // s  # tap (i, j) over every output row
            stack[:k, :, q] = flat[i % s, j % s, :k, :, off:off + run]
        np.matmul(dw, stack[:k], out=acc[:k])
        m = mid[b] if keep_cache else mid[:k]
        m[:, :c_in] = acc[:k].reshape(k, c_in, ho, wq)[..., :wo]
        np.matmul(pw_bias, m.reshape(k, c_in + 1, ho * wo), out=out[b])

    cache = SepConvCache(x=x, mid=mid[:, :c_in], params=p) if keep_cache else None
    return out.reshape(n, -1, ho, wo), cache


def sepconv2d_backward(dout: np.ndarray, cache: SepConvCache):
    """Gradients of sepconv2d: returns (dx, d_depthwise, d_pointwise, d_bias).

    The pointwise gradients are batched matmuls over [N, C, H*W] in
    ``dout.dtype``; the bias and depthwise sums follow the module's row rule.
    Per chunk, ``dx`` and the depthwise gradient come from one tap stack per
    stride phase, gathered from ``dmid`` pitched like the forward's
    accumulator (zero junk columns) and zero-padded on both sides, as the
    module docstring says; a phase without taps gets zeros.
    """
    p, x, mid = cache.params, cache.x, cache.mid
    dtype = dout.dtype
    kh, kw = p.depthwise.shape[2], p.depthwise.shape[3]
    s = p.stride
    n, c_out, ho, wo = dout.shape
    c_in = x.shape[1]
    g = dout.reshape(n, c_out, ho * wo)

    d_bias = _channel_sum(g)
    d_pw = np.matmul(g, mid.reshape(n, c_in, ho * wo).transpose(0, 2, 1)).sum(axis=0)
    pw_t = p.pointwise[:, :, 0, 0].astype(dtype, copy=False).T
    dw = p.depthwise[:, 0].astype(dtype, copy=False)
    d_dw = np.zeros((c_in, kh, kw), dtype=np.float64)
    dx = np.empty(x.shape, dtype=dtype)
    most = len(range(0, kh, s)) * len(range(0, kw, s))  # phase (0, 0) has the most taps
    planes, chunks, regions = _phase_planes(x, kh, kw, s, most)
    rows, wq = planes.shape[2], planes.shape[-1]
    flat = planes.reshape(s, s, rows, c_in, -1)
    run = ho * wq
    pre = ((kh - 1) // s) * wq + (kw - 1) // s  # the largest tap offset
    dmid = np.empty((rows, c_in, ho * wo), dtype=dtype)
    # dmid pitched and zero-padded: under tap offset off, the plane run
    # [u0, u0 + length) meets dm_pad[pre - off + u0:][:length]
    dm_pad = np.zeros((rows, c_in, pre + flat.shape[-1]), dtype=dtype)
    dm_valid = dm_pad[:, :, pre:pre + run].reshape(rows, c_in, ho, wq)[..., :wo]
    stack_buf = np.empty(rows * c_in * most * run, dtype=dtype)
    dplane_buf = np.empty(rows * c_in * run, dtype=dtype)
    for b, k in chunks:
        np.matmul(pw_t, g[b], out=dmid[:k])
        dm_valid[:k] = dmid[:k].reshape(k, c_in, ho, wo)
        for (a, c), (us, vs), (rs, cs) in regions:
            taps = dw[:, a::s, c::s]  # tap (ii, jj) of the phase is (a + s*ii, c + s*jj)
            if not taps.size:
                dx[b, :, rs, cs] = 0
                continue
            ni, nj = taps.shape[1:]
            u0, length = us.start * wq, (us.stop - us.start) * wq
            stack = stack_buf[:k * c_in * ni * nj * length].reshape(k, c_in, ni * nj, length)
            for q, (ii, jj) in enumerate(np.ndindex(ni, nj)):
                start = pre - ii * wq - jj + u0
                stack[:, :, q] = dm_pad[:k, :, start:start + length]
            dplane = dplane_buf[:k * c_in * length].reshape(k, c_in, 1, length)
            np.matmul(taps.reshape(c_in, 1, ni * nj), stack, out=dplane)
            dx[b, :, rs, cs] = dplane.reshape(k, c_in, -1, wq)[..., vs]
            row_dots = np.matmul(stack, flat[a, c, :k, :, u0:u0 + length, None])
            d_dw[:, a::s, c::s] += row_dots.reshape(k, c_in, ni, nj).sum(axis=0, dtype=np.float64)

    return (
        dx,
        d_dw[:, None].astype(dtype, copy=False),
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

    The mean is a ``_channel_sum`` over m = N*H*W and the variance a
    ``_channel_dot`` of the centred input with itself (the module's row rule);
    both, and the scale ``gamma / sqrt(var + eps)``, are float64 [C] vectors.
    The output ``(x - mean) * scale + beta`` is computed in ``x.dtype`` in the
    centred buffer, the only full-size array made.
    """
    if x.ndim != 4:
        raise ShapeError(f"expected [N,C,H,W] input, got shape {x.shape}")
    n, _, h, w = x.shape
    m = n * h * w
    if m < 2:
        raise ShapeError(f"train-mode batchnorm needs N*H*W >= 2 per channel, got {m}")
    mean = _channel_sum(x) / m
    out = np.subtract(x, _per_channel(mean, x.dtype))
    var = _channel_dot(out, out) / m
    mom = p.momentum
    p.running_mean[...] = (mom * p.running_mean.astype(np.float64) + (1 - mom) * mean).astype(
        p.running_mean.dtype
    )
    p.running_var[...] = (mom * p.running_var.astype(np.float64) + (1 - mom) * var).astype(
        p.running_var.dtype
    )

    inv_std = 1.0 / np.sqrt(var + p.epsilon)
    out *= _per_channel(p.gamma.astype(np.float64) * inv_std, x.dtype)
    out += _per_channel(p.beta, x.dtype)
    return out, BatchNormCache(x=x, mean=mean, inv_std=inv_std, gamma=p.gamma)


def batchnorm_backward(dout: np.ndarray, cache: BatchNormCache):
    """Gradients of train-mode batchnorm: returns (dx, d_gamma, d_beta).

    Elementwise work is in ``dout.dtype``; ``d_beta`` is a ``_channel_sum``
    of ``dout`` and ``d_gamma`` a ``_channel_dot`` of ``dout`` with x_hat.
    """
    dtype = dout.dtype
    n, _, h, w = dout.shape
    m = n * h * w
    x_hat = np.subtract(cache.x, _per_channel(cache.mean, dtype), dtype=dtype)
    x_hat *= _per_channel(cache.inv_std, dtype)
    d_beta = _channel_sum(dout)
    d_gamma = _channel_dot(dout, x_hat)
    # dx = scale * (dout - d_beta/m - x_hat * d_gamma/m), reusing x_hat's buffer
    dx = np.multiply(x_hat, _per_channel(d_gamma / m, dtype), out=x_hat)
    np.subtract(dout, dx, out=dx)
    dx -= _per_channel(d_beta / m, dtype)
    dx *= _per_channel(cache.gamma.astype(np.float64) * cache.inv_std, dtype)
    return dx, d_gamma.astype(dtype, copy=False), d_beta.astype(dtype, copy=False)


def relu(x: np.ndarray, out: np.ndarray | None = None):
    """max(0, x), written to ``out`` when given (``out=x`` runs in place); the
    gradient passes only where x > 0 (subgradient 0 at 0)."""
    out = np.maximum(x, x.dtype.type(0), out=out)
    return out, ReluCache(out=out)


def relu_backward(dout: np.ndarray, cache: ReluCache):
    """``dout`` where x > 0, else 0, multiplied into ``dout`` in place and
    returned. Every caller passes a fresh gradient it does not reuse: a
    sepconv or dense input gradient, or the pooling or dropout gradient."""
    return np.multiply(dout, cache.out > 0, out=dout)


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
