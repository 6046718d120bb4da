"""Layer forward and gradient computation on plain ndarrays.

Every layer comes in a pair: ``<layer>(...)`` returns ``(output, cache)`` and
``<layer>_backward(upstream, cache)`` consumes the cache to produce the input
gradient (plus parameter gradients where the layer has parameters). The
sigmoid is the exception: it returns only its output and has no backward,
because the loss is computed on logits and nothing backpropagates through it.

Dtype policy: every output and gradient has the dtype of the array passed in,
so the same code serves float32 training and float64 finite-difference
shadowing. Separable convolution, ReLU and dropout compute elementwise work
and matmuls in that dtype, casting parameters to it. Their reductions (the
Gram matrix of ``mid``, the pointwise, bias and depthwise gradients) follow
one row rule: each sample's rows are reduced by BLAS products in the array's
dtype (``_row_gram``), and the per-sample results are summed in float64. The
tests hold a reduction's error to 1e-6 (float32) or 1e-12 (float64) times the
sum of its absolute terms. Batchnorm works on those float64 sums only.
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

A block's batchnorm is folded into the pointwise stage of the sepconv
before it (``fold_batchnorm``), with the running statistics in infer mode and
in train mode with the batch statistics, which ``batchnorm`` computes from the
Gram matrix of [mid; 1]; no block makes its pre-norm output.

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
    mid: np.ndarray  # [N, C_in + 1, H', W']: the depthwise output, then a channel of ones
    params: SepConvParams
    weights: np.ndarray  # [C_out, C_in + 1]: the [W | bias] the pointwise GEMM used
    norm: BatchNormCache | None  # the batchnorm folded in with batch statistics


@dataclass
class BatchNormCache:
    weights: np.ndarray  # float64 [C, K]: the conv's unfolded [W | bias]
    gram: np.ndarray  # float64 [K, K]: sum of [mid; 1][mid; 1]^T over the batch
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


def _row_gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Float64 [A, B] sum over samples of a_n b_n^T for [N, A, L] and [N, B, L]
    arrays: one BLAS product per sample in the arrays' dtype, then the N
    products in float64. A row of ones in ``b`` makes a column of row sums."""
    return np.matmul(a, b.transpose(0, 2, 1)).sum(axis=0, dtype=np.float64)


def _gemm_weights(p: SepConvParams, dtype) -> np.ndarray:
    """[W | bias] of the pointwise stage, [C_out, C_in + 1] in ``dtype``."""
    return np.concatenate([p.pointwise[:, :, 0, 0], p.bias[:, None]], axis=1).astype(
        dtype, copy=False)


def sepconv2d(x: np.ndarray, p: SepConvParams, norm: BatchNormParams | None = None,
              mode: str = "infer", keep_cache: bool = True):
    """Depthwise spatial convolution then 1x1 pointwise projection plus bias,
    then the batchnorm ``norm`` if given, folded into the pointwise stage.

    No nonlinearity between the two stages. Padding is "same": symmetric
    zero-padding of floor(k/2), so the output is ceil(H/stride) per side.
    Everything is computed in ``x.dtype`` (parameters are cast to it). Per
    cache-sized batch chunk, the depthwise stage is one batched matmul over a
    tap stack and the pointwise stage one of [W | bias] with ``mid`` plus a
    row of ones (see the module docstring). Infer mode folds ``norm``'s
    running statistics in first; train mode keeps the whole ``mid``, folds in
    the statistics ``batchnorm`` takes from it, then runs the pointwise stage.
    With ``keep_cache`` false (infer mode) ``mid`` is chunk-sized scratch and
    the returned cache is None.
    """
    if x.ndim != 4:
        raise ShapeError(f"expected [N,C,H,W] input, got shape {x.shape}")
    n, c_in, h, w = x.shape
    if c_in != p.depthwise.shape[0]:
        raise ShapeError(f"input has {c_in} channels, depthwise expects {p.depthwise.shape[0]}")
    if mode not in ("train", "infer"):
        raise ConfigError(f"mode must be 'train' or 'infer', got {mode!r}")
    if norm is not None and mode == "infer":
        p, norm = fold_batchnorm(p, norm), None
    kh, kw = p.depthwise.shape[2], p.depthwise.shape[3]
    s = p.stride
    ho, wo = -(-h // s), -(-w // s)
    dw = p.depthwise.astype(x.dtype, copy=False).reshape(c_in, 1, kh * kw)
    weights = _gemm_weights(p, x.dtype)
    planes, chunks, _ = _phase_planes(x, kh, kw, s, kh * kw)
    rows, wq = planes.shape[2], planes.shape[-1]
    flat = planes.reshape(s, s, rows, c_in, -1)
    run = ho * wq
    stack = np.empty((rows, c_in, kh * kw, run), dtype=x.dtype)
    acc = np.empty((rows, c_in, 1, run), dtype=x.dtype)
    # channel c_in of mid is the ones row that carries the bias through the GEMM
    full = keep_cache or norm is not None
    mid = np.empty((n if full else rows, c_in + 1, ho, wo), dtype=x.dtype)
    mid[:, c_in] = 1
    mid3 = mid.reshape(len(mid), c_in + 1, ho * wo)
    out = np.empty((n, weights.shape[0], ho * wo), dtype=x.dtype)
    for b, k in chunks:
        for q, (i, j) in enumerate(np.ndindex(kh, kw)):
            off = (i // s) * wq + j // s  # tap (i, j) over every output row
            stack[:k, :, q] = flat[i % s, j % s, :k, :, off:off + run]
        np.matmul(dw, stack[:k], out=acc[:k])
        m = mid[b] if full else mid[:k]
        m[:, :c_in] = acc[:k].reshape(k, c_in, ho, wq)[..., :wo]
        if norm is None:
            np.matmul(weights, mid3[b] if full else mid3[:k], out=out[b])
    bn_cache = None
    if norm is not None:
        folded, bn_cache = batchnorm(_row_gram(mid3, mid3), p, norm)
        weights = _gemm_weights(folded, x.dtype)
        np.matmul(weights, mid3, out=out)

    cache = SepConvCache(x, mid, p, weights, bn_cache) if keep_cache else None
    return out.reshape(n, -1, ho, wo), cache


def sepconv2d_backward(dout: np.ndarray, cache: SepConvCache):
    """Gradients of sepconv2d: returns (dx, d_depthwise, d_pointwise, d_bias),
    then (d_gamma, d_beta) if a batchnorm was folded in with batch statistics.

    P = sum dout [mid; 1]^T is the gradient of [W | bias], or what
    ``batchnorm_backward`` turns into the gradients and the correction A of
    ``dmid = W'^T dout + A [mid; 1]`` (W' the weights the forward used; A = 0
    without batch statistics). Per chunk, ``dx`` and the depthwise gradient
    come from one tap stack per stride phase, gathered from ``dmid`` pitched
    like the forward's accumulator (zero junk columns) and zero-padded on
    both sides, as the module docstring says; a phase without taps gets zeros.
    """
    p, x, mid = cache.params, cache.x, cache.mid
    dtype = dout.dtype
    kh, kw = p.depthwise.shape[2], p.depthwise.shape[3]
    s = p.stride
    n, c_out, ho, wo = dout.shape
    c_in = x.shape[1]
    g = dout.reshape(n, c_out, ho * wo)
    mid3 = mid.reshape(n, c_in + 1, ho * wo)

    d_weights, d_norm = _row_gram(g, mid3), ()
    corr = np.zeros((c_in, c_in + 1))
    if cache.norm is not None:
        d_weights, corr, *d_norm = batchnorm_backward(d_weights, cache.norm)
    pw_t = cache.weights[:, :c_in].astype(dtype, copy=False).T
    corr = corr.astype(dtype, copy=False)
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
    dfix = np.empty((rows, c_in, ho * wo), dtype=dtype)
    # dmid pitched and zero-padded: under tap offset off, the plane run
    # [u0, u0 + length) meets dm_pad[pre - off + u0:][:length]
    dm_pad = np.zeros((rows, c_in, pre + flat.shape[-1]), dtype=dtype)
    dm_valid = dm_pad[:, :, pre:pre + run].reshape(rows, c_in, ho, wq)[..., :wo]
    stack_buf = np.empty(rows * c_in * most * run, dtype=dtype)
    dplane_buf = np.empty(rows * c_in * run, dtype=dtype)
    for b, k in chunks:
        np.matmul(pw_t, g[b], out=dmid[:k])
        np.matmul(corr, mid3[b], out=dfix[:k])
        np.add(dmid[:k].reshape(k, c_in, ho, wo), dfix[:k].reshape(k, c_in, ho, wo),
               out=dm_valid[:k])
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
            # for one tap numpy's matmul leaves BLAS for a loop 6x slower than multiply
            product = np.multiply if ni * nj == 1 else np.matmul
            product(taps.reshape(c_in, 1, ni * nj), stack, out=dplane)
            dx[b, :, rs, cs] = dplane.reshape(k, c_in, -1, wq)[..., vs]
            row_dots = np.matmul(stack, flat[a, c, :k, :, u0:u0 + length, None])
            d_dw[:, a::s, c::s] += row_dots.reshape(k, c_in, ni, nj).sum(axis=0, dtype=np.float64)

    return (
        dx,
        d_dw[:, None].astype(dtype, copy=False),
        d_weights[:, :c_in].reshape(p.pointwise.shape).astype(dtype),
        d_weights[:, c_in].astype(dtype),
        *(d.astype(dtype) for d in d_norm),
    )


def fold_batchnorm(conv: SepConvParams, norm: BatchNormParams, mean=None,
                   var=None) -> SepConvParams:
    """``conv`` followed by batchnorm, as one separable convolution.

    The statistics ``mean`` and ``var`` (float64 [C]) are the running
    statistics unless given; ``batchnorm`` passes the batch's. With
    ``s = gamma / sqrt(var + eps)`` the pointwise stage becomes ``W' = diag(s) W``
    and the bias ``b' = s * (b - mean) + beta``, computed in float64 and cast
    to the conv params' dtypes; the depthwise kernel is shared, not copied.
    Callers refold on every pass: the optimizer and train-mode batchnorm
    change the inputs in place.
    """
    if mean is None:
        mean, var = norm.running_mean, norm.running_var
    s = norm.gamma.astype(np.float64) / np.sqrt(var.astype(np.float64) + norm.epsilon)
    pointwise = conv.pointwise.astype(np.float64) * s[:, None, None, None]
    bias = s * (conv.bias.astype(np.float64) - mean.astype(np.float64))
    bias += norm.beta.astype(np.float64)
    return SepConvParams(
        depthwise=conv.depthwise,
        pointwise=pointwise.astype(conv.pointwise.dtype),
        bias=bias.astype(conv.bias.dtype),
        stride=conv.stride,
    )


def batchnorm(gram: np.ndarray, conv: SepConvParams, norm: BatchNormParams):
    """Train-mode batchnorm of the conv output y = V [mid; 1], V = [W | bias]:
    returns (``conv`` with the batch statistics folded in, the cache).

    ``gram`` is the float64 sum of [mid; 1][mid; 1]^T over the batch's
    m = N*H*W pixels, so m is its last entry and its last column over m is
    the mean g of [mid; 1]. Channel c has batch mean V_c g and biased
    variance V_c C V_c^T, C = gram / m - g g^T, all in float64. They update
    the running statistics, ``running = momentum * running + (1 - momentum)
    * batch``. No [N,C,H,W] array is made.
    """
    m = gram[-1, -1]
    if m < 2:
        raise ShapeError(f"train-mode batchnorm needs N*H*W >= 2 per channel, got {m:g}")
    v = _gemm_weights(conv, np.float64)
    g = gram[:, -1] / m
    mean = v @ g
    var = np.maximum(np.sum((v @ (gram / m - np.outer(g, g))) * v, axis=1), 0.0)
    for running, batch in ((norm.running_mean, mean), (norm.running_var, var)):
        running[...] = norm.momentum * running.astype(np.float64) + (1 - norm.momentum) * batch
    inv_std = 1.0 / np.sqrt(var + norm.epsilon)
    cache = BatchNormCache(weights=v, gram=gram, mean=mean, inv_std=inv_std, gamma=norm.gamma)
    return fold_batchnorm(conv, norm, mean, var), cache


def batchnorm_backward(d_weights: np.ndarray, cache: BatchNormCache):
    """Gradients through train-mode batchnorm and the conv folded with it.

    ``d_weights`` is P = sum dout [mid; 1]^T (float64 [C, K]) for the
    gradient ``dout`` of the normalised output; V, g, C and m are as in
    ``batchnorm``. As x_hat = inv_std * (y - mean) is linear in [mid; 1],
    d_beta = P[:, -1] and d_gamma = inv_std * (rowsum(V * P) - mean * d_beta).
    With s = gamma * inv_std and t = d_gamma * inv_std, y's gradient
    dy = s * (dout - d_beta / m - x_hat * d_gamma / m) gives the conv gradient
    s * (P - d_beta g^T - t V C), and ``mid``'s W^T dy = W'^T dout + A [mid; 1]
    with A = -W^T diag(s t / m) V plus W^T (s (t mean - d_beta) / m) in its
    last column. Returns float64 (conv gradient, A, d_gamma, d_beta).
    """
    v, mean, inv_std = cache.weights, cache.mean, cache.inv_std
    m = cache.gram[-1, -1]
    g = cache.gram[:, -1] / m
    d_beta = d_weights[:, -1]
    d_gamma = inv_std * (np.sum(v * d_weights, axis=1) - mean * d_beta)
    s, t = cache.gamma.astype(np.float64) * inv_std, d_gamma * inv_std
    cov = cache.gram / m - np.outer(g, g)
    d_conv = s[:, None] * (d_weights - np.outer(d_beta, g) - t[:, None] * (v @ cov))
    w_t = v[:, :-1].T
    corr = -(w_t * (s * t / m)) @ v
    corr[:, -1] += w_t @ (s * (t * mean - d_beta) / m)
    return d_conv, corr, d_gamma, d_beta


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

    ``rng`` is one batch stream with a row per row of ``x`` (a SplitMixStream
    keyed by the batch's sample indices), so each sample's mask depends only on
    its own key.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0,1), got {rate}")
    if mode == "infer" or rate == 0.0:
        return x, DropoutCache(scaled_mask=None)
    if mode != "train":
        raise ConfigError(f"mode must be 'train' or 'infer', got {mode!r}")
    if rng is None:
        raise ConfigError("train-mode dropout with rate > 0 needs a batch rng stream")
    u = rng.uniform(x.shape[1:])
    if u.shape != x.shape:
        raise ShapeError(f"stream draws of shape {u.shape} for input of shape {x.shape}")
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
