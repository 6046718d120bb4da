"""Layer forward and gradient computation on plain ndarrays.

Every layer comes in a pair: ``<layer>(...)`` returns ``(output, cache)`` and
``<layer>_backward(upstream, cache)`` consumes the cache to produce the input
gradient (plus parameter gradients where the layer has parameters). A cache
that holds one value is that bare value: ReLU's output, the pooled input's
shape, dropout's scaled mask; one that holds several is a dataclass. The
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

The views every chunk works on (tap stack slot and phase-plane run of each
tap, plane regions, in the backward each phase's gathers and its plane, ``dx``
and ``x`` views) are built once per chunk size, so a chunk issues only copies
and products. What a reduction needs per sample (the Gram matrix of [mid; 1]
for a batchnorm, the depthwise row dots in the backward) is written per chunk
into an [N, ...] buffer and summed in float64 once per call, so chunking
changes no bit of any result.

The forward takes every buffer and view from a ``SepConvPlan``. There is one
infer path: ``model.plan_infer`` builds a plan per block once for a whole
``predict``, so every micro-batch reuses the blocks' phase planes (zeroed
once; only their interiors are rewritten), one tap stack and accumulator
shared by all blocks, and two output buffers that alternate by block. The
chunk-sized ``mid`` lives in the tap stack's storage, which is dead once the
depthwise products are formed. A call given no plan builds its own; with a
cache or a batchnorm on the batch's statistics (train mode,
``maximize_activation``) that plan holds a whole-batch ``mid`` and output,
which the cache keeps.

A block's batchnorm is folded into the pointwise stage of the sepconv before
it (``fold_batchnorm``), so no block makes its pre-norm output: by
``sepconv2d`` given a ``norm``, with the batch statistics ``batchnorm`` takes
from the Gram matrix of [mid; 1], or ahead of a pass by ``model.Model.folded``,
with the running statistics. No layer takes a train or infer mode.

Parameter containers are mutated only by the optimizer, with one exception:
batch normalization updates its running statistics during its forward.
"""

from __future__ import annotations

import functools
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
class DenseCache:
    x: np.ndarray
    params: DenseParams


def _chunk_rows(n: int, sample_bytes: int) -> int:
    """Samples per chunk: as many of ``n`` as fit ``_CHUNK_BYTES`` of tap stack
    at ``sample_bytes`` each, one at least."""
    return max(1, min(n, _CHUNK_BYTES // sample_bytes))


def _phase_planes(shape: tuple, dtype, kh: int, kw: int, s: int, taps: int):
    """Zeroed phase planes [s, s, rows, C, hq + 1, wq] for [n, C, h, w] inputs
    of ``dtype`` padded by (kh//2, kw//2), laid out as the module docstring
    says; the (phase, plane region, input region) triples of each chunk's copy
    onto them; and ``chunks(x, views)``, which copies each batch chunk of an
    input ``x`` of n rows or fewer onto the planes and yields (batch slice,
    ``views(k)``) for its k rows. Only the regions are written, so the padding
    stays zero for every call that shares the planes. A chunk holds as many
    samples as fit ``_CHUNK_BYTES`` of tap stack, that is ``taps`` pitched runs
    of ceil(h/s) rows per channel. The regions a chunk of k rows fills are
    built once per k; ``views`` should be cached the same way."""
    n, c, h, w = shape
    hq, wq = -(-h // s) + (kh - 1) // s, -(-w // s) + (kw - 1) // s
    rows = _chunk_rows(n, np.dtype(dtype).itemsize * c * taps * -(-h // s) * wq)
    planes = np.zeros((s, s, rows, c, hq + 1, wq), dtype=dtype)

    def axis(a, pad, size):  # plane row u of phase a holds input row s*u + a - pad
        u0 = (pad - a + s - 1) // s
        r0 = s * u0 + a - pad
        return slice(u0, u0 + len(range(r0, size, s))), slice(r0, size, s)

    regions = [((a, b), *zip(axis(a, kh // 2, h), axis(b, kw // 2, w)))
               for a in range(s) for b in range(s)]

    @functools.cache
    def fills(k):
        return [(planes[a, b, :k, :, us, vs], rs, cs) for (a, b), (us, vs), (rs, cs) in regions]

    def chunks(x, views):
        for start in range(0, len(x), rows):
            k = min(rows, len(x) - start)
            batch = slice(start, start + k)
            for dst, rs, cs in fills(k):
                dst[...] = x[batch, :, rs, cs]
            yield batch, views(k)

    return planes, regions, chunks


def _row_gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Float64 [A, B] sum over samples of a_n b_n^T for [N, A, L] and [N, B, L]
    arrays: one BLAS product per sample in the arrays' dtype, then the N
    products in float64. A row of ones in ``b`` makes a column of row sums."""
    return np.matmul(a, b.transpose(0, 2, 1)).sum(axis=0, dtype=np.float64)


def _gemm_weights(p: SepConvParams, dtype) -> np.ndarray:
    """[W | bias] of the pointwise stage, [C_out, C_in + 1] in ``dtype``."""
    return np.concatenate([p.pointwise[:, :, 0, 0], p.bias[:, None]], axis=1).astype(
        dtype, copy=False)


def sepconv_sizes(shape: tuple, dtype, p: SepConvParams, keep: bool = False):
    """Elements of the flat buffers a ``SepConvPlan`` of ``p`` over [n, C_in,
    h, w] inputs of ``dtype`` takes: (tap stack, which holds a chunk's ``mid``
    unless ``keep``; accumulator; output [n, C_out, ho, wo])."""
    n, c_in, h, w = shape
    kh, kw = p.depthwise.shape[2], p.depthwise.shape[3]
    s, taps = p.stride, kh * kw
    ho, wo = -(-h // s), -(-w // s)
    run = ho * (wo + (kw - 1) // s)
    rows = _chunk_rows(n, np.dtype(dtype).itemsize * c_in * taps * run)
    stack = rows * c_in * taps * run
    return (stack if keep else max(stack, rows * (c_in + 1) * ho * wo), rows * c_in * run,
            n * p.pointwise.shape[0] * ho * wo)


class SepConvPlan:
    """Every buffer and chunk view ``sepconv2d`` uses for ``p`` over inputs
    of ``dtype`` and shape ``shape`` = [n, C_in, h, w], or fewer rows: zeroed
    phase planes whose padding stays zero, the tap stack, the accumulator,
    ``mid``, the output [n, C_out, ho * wo] and the cast kernels. A chunk's
    views are built once per chunk size.

    Infer mode (not ``keep``) keeps a chunk's ``mid`` in the tap stack's
    storage, which is dead once the depthwise products are formed, so each
    chunk rewrites the ones row. With ``keep`` (a cache, or a batchnorm on the
    batch's statistics) ``mid`` is the whole batch's and has its own storage.
    ``buffers`` are flat (tap stack, accumulator, output) arrays at least
    ``sepconv_sizes`` long, which plans run one after another may share;
    without them the plan allocates its own.
    """

    def __init__(self, shape: tuple, dtype, p: SepConvParams, keep: bool = False,
                 buffers: tuple | None = None):
        n, c_in, h, w = shape
        kh, kw = p.depthwise.shape[2], p.depthwise.shape[3]
        s, taps = p.stride, kh * kw
        ho, wo = -(-h // s), -(-w // s)
        self.shape, self.dtype, self.params = tuple(shape), np.dtype(dtype), p
        self.depthwise = p.depthwise.astype(dtype, copy=False).reshape(c_in, 1, taps)
        self.weights = _gemm_weights(p, dtype)
        planes, _, chunks = _phase_planes(shape, dtype, kh, kw, s, taps)
        rows, wq = planes.shape[2], planes.shape[-1]
        flat = planes.reshape(s, s, rows, c_in, -1)
        run = ho * wq
        store, acc, out = buffers or [np.empty(size, dtype) for size in
                                      sepconv_sizes(shape, dtype, p, keep)]
        stack = store[:rows * c_in * taps * run].reshape(rows, c_in, taps, run)
        acc = acc[:rows * c_in * run].reshape(rows, c_in, 1, run)
        # channel c_in of mid is the ones row that carries the bias through the GEMM
        if keep:
            mid = np.empty((n, c_in + 1, ho, wo), dtype=dtype)
            mid[:, c_in] = 1
        else:
            mid = store[:rows * (c_in + 1) * ho * wo].reshape(rows, c_in + 1, ho, wo)
        self.mid, self.mid3 = mid, mid.reshape(len(mid), c_in + 1, ho * wo)
        self.out = out[:n * p.pointwise.shape[0] * ho * wo].reshape(n, -1, ho * wo)
        # tap (i, j) over every output row: its stack slot, its phase, its run offset
        runs = [(i * kw + j, i % s, j % s, (i // s) * wq + j // s)
                for i in range(kh) for j in range(kw)]
        mid3 = self.mid3

        @functools.cache
        def views(k):  # the copies, the products' operands, and the chunk's mid
            copies = [(stack[:k, :, q], flat[a, b, :k, :, off:off + run])
                      for q, a, b, off in runs]
            return (copies, stack[:k], acc[:k], acc[:k].reshape(k, c_in, ho, wq)[..., :wo],
                    mid[:k], mid3[:k])

        self.chunks = functools.partial(chunks, views=views)


def sepconv2d(x: np.ndarray, p: SepConvParams, norm: BatchNormParams | None = None,
              keep_cache: bool = True, plan: SepConvPlan | None = None):
    """Depthwise spatial convolution then 1x1 pointwise projection plus bias,
    then the batchnorm ``norm`` on the batch's statistics if given, folded in.

    No nonlinearity between the two stages. Padding is "same": symmetric
    zero-padding of floor(k/2), so the output is ceil(H/stride) per side.
    Everything is computed in ``x.dtype`` (parameters are cast to it). Per
    cache-sized batch chunk, the depthwise stage is one batched matmul over a
    tap stack and the pointwise stage one of [W | bias] with ``mid`` plus a
    row of ones (see the module docstring). With a ``norm`` the whole ``mid``
    is kept, and the pointwise stage runs once ``batchnorm`` has folded in the
    statistics of its chunks' Gram matrices and updated ``norm``'s running
    statistics. Running statistics are folded into ``p`` by the caller.
    Without ``keep_cache`` the returned cache is None.

    Every buffer comes from ``plan``, a ``SepConvPlan`` of ``p`` for inputs
    like ``x``, or from one built for this call. A given plan serves the
    infer path only (no ``keep_cache``, no ``norm``), and the output is a view
    of its buffer, valid until the plan's next use.
    """
    if x.ndim != 4:
        raise ShapeError(f"expected [N,C,H,W] input, got shape {x.shape}")
    n, c_in, h, w = x.shape
    if c_in != p.depthwise.shape[0]:
        raise ShapeError(f"input has {c_in} channels, depthwise expects {p.depthwise.shape[0]}")
    keep = keep_cache or norm is not None
    if plan is None:
        plan = SepConvPlan(x.shape, x.dtype, p, keep)
    elif keep or plan.params is not p or plan.dtype != x.dtype or not (
            n <= plan.shape[0] and x.shape[1:] == plan.shape[1:]):
        raise ShapeError(f"a plan for up to {plan.shape} {plan.dtype} inputs without a cache "
                         f"does not fit these params and a {x.shape} {x.dtype} input")
    weights, mid, mid3, out = plan.weights, plan.mid, plan.mid3, plan.out[:n]
    # each sample's Gram matrix of [mid; 1], formed while its chunk is in cache
    gram = None if norm is None else np.empty((n, c_in + 1, c_in + 1), dtype=x.dtype)
    for b, (copies, stk, ac, valid, m, m3) in plan.chunks(x):
        for dst, src in copies:
            dst[...] = src
        np.matmul(plan.depthwise, stk, out=ac)
        if keep:
            m, m3 = mid[b], mid3[b]
        else:
            m[:, c_in] = 1
        m[:, :c_in] = valid
        if norm is not None:
            np.matmul(m3, m3.transpose(0, 2, 1), out=gram[b])
        else:
            np.matmul(weights, m3, out=out[b])
    bn_cache = None
    if norm is not None:
        folded, bn_cache = batchnorm(gram.sum(axis=0, dtype=np.float64), p, norm)
        weights = _gemm_weights(folded, x.dtype)
        np.matmul(weights, mid3, out=out)

    cache = SepConvCache(x, mid, p, weights, bn_cache) if keep_cache else None
    return out.reshape(n, -1, *mid.shape[2:]), cache


def sepconv2d_backward(dout: np.ndarray, cache: SepConvCache):
    """Gradients of sepconv2d: returns (dx, d_depthwise, d_pointwise, d_bias),
    then (d_gamma, d_beta) if a batchnorm was folded in with batch statistics.

    P = sum dout [mid; 1]^T is the gradient of [W | bias], or what
    ``batchnorm_backward`` turns into the gradients and the correction A of
    ``dmid = W'^T dout + A [mid; 1]`` (W' the weights the forward used; A = 0
    without batch statistics). Per chunk, ``dx`` and the depthwise row dots
    come from one tap stack per stride phase, gathered from ``dmid`` pitched
    like the forward's accumulator (zero junk columns) and zero-padded on
    both sides, as the module docstring says; a phase without taps gets zeros.
    Each sample's row dots are kept and summed once, after the last chunk.
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
    # a phase without taps (a kernel narrower than the stride) keeps a zero dx
    dx = (np.zeros if min(kh, kw) < s else np.empty)(x.shape, dtype=dtype)
    most = len(range(0, kh, s)) * len(range(0, kw, s))  # phase (0, 0) has the most taps
    planes, regions, chunks = _phase_planes(x.shape, x.dtype, kh, kw, s, most)
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
    # each sample's depthwise row dots, grouped by phase: slot t holds tap tap_ids[t] = i*kw + j
    dots = np.empty((n, c_in, kh * kw, 1), dtype=dtype)
    tap_ids = [i * kw + j for (a, c), _, _ in regions
               for i in range(a, kh, s) for j in range(c, kw, s)]

    @functools.cache
    def views(k):  # dmid's, then per phase with taps: gathers, operands, dx, dots slot
        per_phase, t0 = [], 0
        for (a, c), (us, vs), (rs, cs) in regions:
            taps = dw[:, a::s, c::s]  # tap (ii, jj) of the phase is (a + s*ii, c + s*jj)
            ni, nj = taps.shape[1:]
            if not taps.size:
                continue
            u0, length = us.start * wq, (us.stop - us.start) * wq
            stack = stack_buf[:k * c_in * ni * nj * length].reshape(k, c_in, ni * nj, length)
            dplane = dplane_buf[:k * c_in * length].reshape(k, c_in, 1, length)
            starts = [pre - ii * wq - jj + u0 for ii in range(ni) for jj in range(nj)]
            per_phase.append((
                [(stack[:, :, q], dm_pad[:k, :, t:t + length]) for q, t in enumerate(starts)],
                # for one tap numpy's matmul leaves BLAS for a loop 6x slower than multiply
                np.multiply if ni * nj == 1 else np.matmul,
                taps.reshape(c_in, 1, ni * nj), stack, dplane,
                flat[a, c, :k, :, u0:u0 + length, None],
                dplane.reshape(k, c_in, -1, wq)[..., vs], (slice(None), slice(None), rs, cs),
                slice(t0, t0 + ni * nj)))
            t0 += ni * nj
        return (dmid[:k], dfix[:k], dmid[:k].reshape(k, c_in, ho, wo),
                dfix[:k].reshape(k, c_in, ho, wo), dm_valid[:k], per_phase)

    for b, (dm, df, dm4, df4, valid, per_phase) in chunks(x, views):
        np.matmul(pw_t, g[b], out=dm)
        np.matmul(corr, mid3[b], out=df)
        np.add(dm4, df4, out=valid)
        dx_b, dots_b = dx[b], dots[b]
        for gathers, product, taps, stack, dplane, plane, dsrc, region, slot in per_phase:
            for dst, src in gathers:
                dst[...] = src
            product(taps, stack, out=dplane)
            dx_b[region] = dsrc
            np.matmul(stack, plane, out=dots_b[:, :, slot])
    d_dw = np.empty((c_in, kh * kw))
    d_dw[:, tap_ids] = dots.sum(axis=0, dtype=np.float64)[..., 0]

    return (
        dx,
        d_dw.reshape(p.depthwise.shape).astype(dtype, copy=False),
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
    Train-mode batchnorm refolds the batch's statistics on every pass. The
    running statistics are folded only by ``Model.folded``, once per
    ``predict``, ``maximize_activation`` or ``extract_activation`` call.
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
    """max(0, x), written to ``out`` when given (``out=x`` runs in place), and
    ``out`` again as the cache: the gradient passes where out > 0, i.e. x > 0."""
    out = np.maximum(x, x.dtype.type(0), out=out)
    return out, out


def relu_backward(dout: np.ndarray, out: np.ndarray):
    """``dout`` where x > 0, else 0, multiplied into ``dout`` in place and
    returned. Every caller passes a fresh gradient it does not reuse: a
    sepconv or dense input gradient, or the pooling or dropout gradient."""
    return np.multiply(dout, out > 0, out=dout)


def global_avg_pool(x: np.ndarray):
    """Mean over the spatial dims: [N,C,H,W] -> [N,C]. The cache is ``x.shape``."""
    if x.ndim != 4:
        raise ShapeError(f"expected [N,C,H,W] input, got shape {x.shape}")
    out = x.mean(axis=(2, 3), dtype=np.float64)
    return out.astype(x.dtype, copy=False), x.shape


def global_avg_pool_backward(dout: np.ndarray, in_shape: tuple):
    n, c, h, w = in_shape
    dx = np.broadcast_to(dout[:, :, None, None], in_shape) / (h * w)
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


def dropout(x: np.ndarray, rate: float, rng=None):
    """Inverted dropout: zero each element with probability ``rate`` and scale
    survivors by 1/(1-rate); at rate 0 (inference) it is the identity.

    ``rng`` is one batch stream with a row per row of ``x`` (a SplitMixStream
    keyed by the batch's sample indices), so each sample's mask depends only on
    its own key. The cache is the scaled mask, or None at rate 0.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0,1), got {rate}")
    if rate == 0.0:
        return x, None
    if rng is None:
        raise ConfigError("dropout with rate > 0 needs a batch rng stream")
    u = rng.uniform(x.shape[1:])
    if u.shape != x.shape:
        raise ShapeError(f"stream draws of shape {u.shape} for input of shape {x.shape}")
    scaled_mask = (u >= rate).astype(x.dtype) / x.dtype.type(1.0 - rate)
    return x * scaled_mask, scaled_mask


def dropout_backward(dout: np.ndarray, scaled_mask: np.ndarray | None):
    return dout if scaled_mask is None else dout * scaled_mask


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, branch form on the sign of x.

    Returns the output only: there is no cache and no backward (see the
    module docstring)."""
    x64 = x.astype(np.float64, copy=False)
    t = np.exp(-np.abs(x64))
    out = np.where(x64 >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    return out.astype(x.dtype, copy=False)
