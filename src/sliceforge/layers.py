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

Separable convolution reads its input as s x s stride-phase planes (s the
stride, ``PlaneLayout``): phase (a, b) holds the zero-padded rows a, a+s, ...
and columns b, b+s, ..., row pitch wq = wo + (kw-1)//s for ho x wo outputs,
plus one zero row. Depthwise tap (i, j) over all outputs is the contiguous run
[off, off + ho*wq), off = (i//s)*wq + j//s, of phase (i % s, j % s). Per
cache-sized batch chunk the forward copies the kh*kw runs into a tap stack
[rows, C, taps, ho*wq], one strided copy per phase (the phase's runs, as
one overlapping view of the plane, onto its taps' slots), and reduces it
with one batched matmul against the kernel [C, 1, taps] into the chunk's
accumulator. Where one sample's tap stack overflows ``_CHUNK_BYTES`` a chunk
is one sample, and its channels are tiled: each group of as many channels as
fit gets its own tap copies and matmul, into its channels of the
accumulator. A depthwise filter acts on each channel alone, so the tiles
form the same products, bit for bit. Once every group is done the chunk
copies the pixels of these pitched sums (columns wo.. are junk) into
``mid``, laid out as the next block's input planes (the last block's
compact) and 0 elsewhere. The pointwise stage multiplies [W | bias]
with ``mid`` and a row of ones that is 0 off the pixels too, so the bias is
added inside the GEMM, the output is already the next block's planes, and
ReLU keeps their padding 0: only a compact input (block 0's) is copied onto
planes. The backward is the adjoint as a gather, not a scatter: the pixels of
``dmid``, pitched like the sums and zero-padded on both sides, shifted by
-off over the taps of phase (a, b), form its tap stack, whose matmul with the
phase's taps is the ``dx`` plane and whose row dots with the ``x`` plane are
the depthwise gradient. ``dx`` is in the input's layout, and its padding
carries no gradient. Handed planes are the producer's ReLU output, which
nothing reads after this backward, so ``dx`` overwrites them, taken through
that ReLU: per band, the row dots and the mask x > 0 are read from ``x``
before the product is written over it, and a phase without taps is zeroed.
Only a compact input (block 0's) gets a fresh ``dx``, copied back compact,
and only if the caller asks for it (``input_grad``): a train step does not.
The backward reads the tap table (each phase's band of pixel rows, tap ids
and shifts) of the plan its forward ran in, which works it out once, when it
is built.

Every buffer and chunk view comes from a ``SepConvPlan``, which keeps a
batch's chunk views per batch size, so a call issues only copies and
products. Past block 0 a block's input is its producer's output view, one
per batch size: the plan checks it and makes the copy pairs of every chunk
from it once, and a call that gets that very view again checks nothing.
What a reduction needs per sample (the Gram matrix
of [mid; 1] for a batchnorm, the depthwise row dots) is written per chunk into
an [N, ...] buffer and summed in float64 once per call, so chunking changes no
bit of any result. Every model pass runs in the plans ``model.plan_blocks``
builds, one per block, once for all the batches of a ``predict``, a ``fit``
or a ``maximize_activation``: the blocks share one tap stack and
accumulator. An infer plan alternates between two output buffers and keeps a
chunk's ``mid`` in the tap stack's storage, dead once the depthwise products
are formed. A plan that keeps a cache (train mode, ``maximize_activation``)
has a whole-batch ``mid`` and output of its own, and the input's planes: a
compact input is copied onto them once, by the forward, and only its ``dx``
is copied back. Its padding and ones row are written once, so a keep plan
reused for many batches rewrites only their pixels. Its cache holds the plan,
and so these and the shared tap stack, which each backward borrows: the
pass's forwards are done by then.

A block's batchnorm is folded into the pointwise stage of the sepconv before
it (``fold_batchnorm``), so no block makes its pre-norm output: by
``sepconv2d`` given a ``norm``, with the batch statistics ``batchnorm`` takes
from the Gram matrix of [mid; 1], or ahead of a pass by ``model.Model.folded``,
with the running statistics. No layer takes a train or infer mode.

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
# bytes of tap stack per chunk of sepconv. Forward: all kh*kw taps of as many
# samples as fit or, where one sample does not, of as many of its channels as
# fit (a tile), one channel of one sample at least. Backward: the taps of phase
# (0, 0), the most of any phase, of as many samples as fit, one at least. With
# its phase planes a chunk stays within about a 2 MiB L2 for every block of a
# 128x128 model.
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
    x: np.ndarray  # the input in its phase planes
    mid: np.ndarray  # [N, C_in + 1, *plan.layout.shape]: the depthwise output, then the ones row
    weights: np.ndarray  # [C_out, C_in + 1]: the [W | bias] the pointwise GEMM used
    norm: BatchNormCache | None  # the batchnorm folded in with batch statistics
    plan: SepConvPlan  # the bound keep plan the forward ran in


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


def _per_chunk(n: int, each: int) -> int:
    """As many of ``n`` samples, or of one sample's ``n`` channels, as fit
    ``_CHUNK_BYTES`` of tap stack at ``each`` bytes each, one at least."""
    return max(1, min(n, _CHUNK_BYTES // each))


class PlaneLayout:
    """[h, w] maps as the s x s stride-phase planes a consumer of stride ``s``
    and a ``kh`` x ``kw`` kernel reads (compact with the defaults): per
    channel one [s*s*rows, wq] array of ``shape``, phase (a, b) its rows
    (a*s + b)*rows onwards. ``regions`` pair each phase's (index, (rows,
    columns)) with the pixels of the map it holds."""

    def __init__(self, h: int, w: int, kh: int = 1, kw: int = 1, s: int = 1):
        self.h, self.w, self.s = h, w, s
        self.wq = -(-w // s) + (kw - 1) // s
        # the extra zero row holds the overrun, (kw - 1) // s, of the last tap's run
        rows = -(-h // s) + (kh - 1) // s + ((kw - 1) // s > 0)
        self.shape = (s * s * rows, self.wq)
        self.size = s * s * rows * self.wq

        def axis(a, pad, size):  # plane row u of phase a holds input row s*u + a - pad
            u0 = (pad - a + s - 1) // s
            r0 = s * u0 + a - pad
            return slice(u0, u0 + len(range(r0, size, s))), slice(r0, size, s)

        self.regions = [(a * s + b, *zip(axis(a, kh // 2, h), axis(b, kw // 2, w)))
                        for a in range(s) for b in range(s)]

    def pairs(self, planes: np.ndarray, x: np.ndarray) -> list:
        """(view of ``planes`` [..., *shape], view of compact [..., h, w] ``x``)
        over the pixels of each phase."""
        p = planes.reshape(*planes.shape[:-2], self.s * self.s, -1, self.wq)
        return [(p[..., ph, us, vs], x[..., rs, cs]) for ph, (us, vs), (rs, cs) in self.regions]

    def to_planes(self, x: np.ndarray) -> np.ndarray:
        """Compact [..., h, w] ``x`` in this layout, 0 at every other position."""
        planes = np.zeros((*x.shape[:-2], *self.shape), dtype=x.dtype)
        for dst, src in self.pairs(planes, x):
            dst[...] = src
        return planes

    def to_compact(self, planes: np.ndarray) -> np.ndarray:
        """The [..., h, w] maps held by ``planes`` [..., *shape]."""
        x = np.empty((*planes.shape[:-2], self.h, self.w), dtype=planes.dtype)
        for src, dst in self.pairs(planes, x):
            dst[...] = src
        return x


def _row_gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Float64 [A, B] sum over samples of a_n b_n^T for [N, A, L] and [N, B, L]
    arrays: one BLAS product per sample in the arrays' dtype, added into the
    float64 sum in sample order, as ``sum(axis=0, dtype=float64)`` adds an
    [N, A, B] stack of them, with one product held at a time. A row of ones
    in ``b`` makes a column of row sums."""
    product = np.matmul(a[0], b[0].T)
    total = product.astype(np.float64)
    for an, bn in zip(a[1:], b[1:]):
        total += np.matmul(an, bn.T, out=product)
    return total


def _gemm_weights(p: SepConvParams, dtype) -> np.ndarray:
    """[W | bias] of the pointwise stage, [C_out, C_in + 1] in ``dtype``."""
    return np.concatenate([p.pointwise[:, :, 0, 0], p.bias[:, None]], axis=1).astype(
        dtype, copy=False)


class SepConvPlan:
    """Every buffer and chunk view ``sepconv2d`` uses for ``p`` over up to n
    inputs of ``dtype``, ``shape`` = [n, C_in, h, w].
    The input arrives in its phase planes ``ins`` if ``planes_in``, else
    compact, to be copied onto the plan's zeroed planes. ``mid`` and the
    output are in ``layout`` (compact if None). A forward chunk is ``rows``
    samples or, where one sample's tap stack overflows ``_CHUNK_BYTES``, one
    sample in tiles of ``group`` channels, the last maybe fewer, which the
    plan's tap stack holds in turn; the backward's chunks are ``back_rows``
    samples. Without ``keep``, ``mid`` lives in the tap stack's storage, so
    each chunk writes all of it, after its last tile. With ``keep`` it is
    the whole batch's, zeroed with its ones row set once, and each chunk
    writes its pixels only; ``sepconv2d`` then returns a cache.
    Building a plan checks the input shape against ``p`` and works out its
    geometry and ``sizes``, the elements of its flat (tap stack,
    accumulator, output) buffers; ``bind`` attaches them, and ``read``
    checks an input and keeps its chunk views per batch size. A keep plan's
    geometry includes the backward's: its chunk rows (``back_rows``) and tap
    table (``phases``, ``tap_ids``, ``pre``), and its tap stack,
    ``sizes[0]``, holds the larger of the forward's and the backward's,
    which borrows it. ``weights``, the [W | bias], and ``depthwise``, the
    [C_in, 1, taps] kernel, of calls without a ``norm`` (a folded model's
    fixed convs) are cast once, when the plan is built."""

    def __init__(self, shape: tuple, dtype, p: SepConvParams, keep: bool = False,
                 layout: PlaneLayout | None = None, planes_in: bool = False):
        if len(shape) != 4:
            raise ShapeError(f"expected [N,C,H,W] input, got shape {tuple(shape)}")
        n, c_in, h, w = shape
        if c_in != p.depthwise.shape[0]:
            raise ShapeError(f"input has {c_in} channels, depthwise expects {p.depthwise.shape[0]}")
        kh, kw = p.depthwise.shape[2], p.depthwise.shape[3]
        s = p.stride
        self.ins = ins = PlaneLayout(h, w, kh, kw, s)
        self.layout = layout = layout or PlaneLayout(-(-h // s), -(-w // s))
        self.shape = (n, c_in, *(ins.shape if planes_in else (h, w)))
        self.dtype, self.params, self.keep, self.planes_in = np.dtype(dtype), p, keep, planes_in
        self.weights = _gemm_weights(p, dtype)
        self.depthwise = p.depthwise.astype(dtype, copy=False).reshape(c_in, 1, -1)
        # tap (i, j) over every output row: its phase and its run's offset in the phase
        run = layout.h * ins.wq
        self.taps = [((i % s) * s + j % s, (i // s) * ins.wq + j // s)
                     for i in range(kh) for j in range(kw)]
        channel = self.dtype.itemsize * len(self.taps) * run  # one channel's tap stack
        self.rows = rows = _per_chunk(n, c_in * channel)
        self.group = group = _per_chunk(c_in, channel)
        stack = rows * group * len(self.taps) * run
        # without keep, a chunk's mid lives in the tap stack's storage
        self.sizes = (max(stack, rows * (c_in + 1) * layout.size), rows * c_in * run,
                      n * p.pointwise.shape[0] * layout.size)
        if not keep:
            return
        # the backward's tap table, per phase with taps: the phase, its band of
        # rows with pixels, its tap ids, their slots in the depthwise row dots,
        # which group the taps by phase (``tap_ids``), and their dm_pad starts
        self.pre = pre = self.taps[-1][1]  # the largest tap offset
        self.phases, self.tap_ids = [], []
        for ph, (us, _), _ in ins.regions:
            ids = [q for q, tap in enumerate(self.taps) if tap[0] == ph]
            band = slice(us.start * ins.wq, us.stop * ins.wq)
            if ids:  # a kernel narrower than the stride leaves a phase without taps
                slot = slice(len(self.tap_ids), len(self.tap_ids) + len(ids))
                self.phases.append((ph, band, ids, slot,
                                    [pre - self.taps[q][1] + band.start for q in ids]))
                self.tap_ids += ids
        most = max(len(ids) for _, _, ids, _, _ in self.phases)  # phase (0, 0)'s
        self.back_rows = _per_chunk(n, self.dtype.itemsize * c_in * most * run)
        # mid is the batch's own, and the backward's tap stack lives in the storage
        self.sizes = (max(stack, self.back_rows * c_in * most * run), *self.sizes[1:])

    def bind(self, store=None, acc=None, out=None) -> SepConvPlan:
        """Attach the flat (tap stack, accumulator, output) buffers, each at
        least ``sizes`` long, which plans run one after another may share;
        allocate any that is None, and ``mid`` and the input planes if the
        plan has its own. Returns the plan."""
        store, acc, out = (np.empty(size, self.dtype) if buf is None else buf
                           for buf, size in zip((store, acc, out), self.sizes))
        self.store = store  # the backward's tap stack too, in a keep plan
        (n, c_in), rows, layout, ins = self.shape[:2], self.rows, self.layout, self.ins
        taps, run, dtype = len(self.taps), layout.h * ins.wq, self.dtype
        self.stack = store[:rows * self.group * taps * run].reshape(rows, self.group, taps, run)
        self.acc = acc[:rows * c_in * run].reshape(rows, c_in, 1, run)
        # mid's last row carries the bias through the GEMM: 1 at each pixel, else 0
        self.mask = layout.to_planes(np.ones((layout.h, layout.w), dtype))
        if self.keep:
            self.mid = np.zeros((n, c_in + 1, *layout.shape), dtype=dtype)
            self.mid[:, c_in] = self.mask
        else:
            self.mid = store[:rows * (c_in + 1) * layout.size].reshape(rows, c_in + 1,
                                                                        *layout.shape)
        self.out = out[:n * len(self.weights) * layout.size].reshape(n, -1, *layout.shape)
        self.planes = None if self.planes_in else np.zeros((n, c_in, *ins.shape), dtype=dtype)
        self.batches = {}  # n: read's (input planes, chunk views, output) for n inputs
        return self

    def read(self, x: np.ndarray) -> tuple:
        """(input planes, chunk views, output) of the input ``x`` of n, checked
        to fit the plan, and kept in ``batches`` under n, so that a forward of
        that very input again issues only copies and products. A compact ``x``
        is copied onto the plan's own planes, whose views are made once per
        n; handed planes' views are made from ``x``, and so once per n when
        ``x`` is the producer's output view. ShapeError unless ``x`` fits."""
        if x.dtype != self.dtype or len(x) > self.shape[0] or x.shape[1:] != self.shape[1:] or (
                self.planes_in and not x.flags.c_contiguous):
            raise self.misfit(x)
        n = len(x)
        if self.planes_in or n not in self.batches:
            self.batches[n] = self._views(x if self.planes_in else self.planes[:n])
        got = self.batches[n]
        if not self.planes_in:
            for dst, pixels in self.ins.pairs(got[0], x):
                dst[...] = pixels
        return got

    def _views(self, src: np.ndarray) -> tuple:
        """``read``'s (src, chunk views, output) for the input planes
        ``src`` of n inputs. Per chunk the views are: its rows; per tile of
        ``group`` channels (one tile of all of them unless one sample
        overflows the tap stack), its channels, its tap copies, one per
        phase with taps, a strided view of the tap stack's slots of that
        phase and the matching overlapping view of its runs in ``src``, and
        its tap stack and its channels of the accumulator; without keep the
        zeros and the ones row of ``mid`` (else None); the (mid pixels,
        accumulator pixels) copies; ``mid`` and the output as [rows,
        channels, pixels]."""
        n, c_in, rows, group, layout, ins, mid = len(src), self.shape[1], self.rows, self.group, \
            self.layout, self.ins, self.mid
        kh, kw, s, item = *self.params.depthwise.shape[2:], ins.s, self.dtype.itemsize
        phases = src.reshape(n, c_in, s * s, -1)
        slots = self.stack.reshape(rows, group, kh, kw, -1)  # slot i * kw + j: tap (i, j)
        # tap (i, j) = (s*u + a, s*v + b) reads phase (a, b) from u * wq + v on
        grids = [(a, b, len(range(a, kh, s)), len(range(b, kw, s)))
                 for a in range(s) for b in range(s)]
        out, chunks = self.out[:n], []
        for start in range(0, n, rows):
            k = min(rows, n - start)
            r = slice(start, start + k)
            m = mid[r] if self.keep else mid[:k]
            valid = self.acc[:k].reshape(k, c_in, layout.h, ins.wq)[..., :layout.w]
            groups = []
            for c0 in range(0, c_in, group):
                g, copies = min(group, c_in - c0), []
                for a, b, nu, nv in grids:
                    if nu and nv:  # a kernel narrower than the stride leaves a phase without taps
                        runs = np.ndarray((k, g, nu, nv, layout.h * ins.wq), self.dtype, phases,
                                          start * phases.strides[0] + c0 * phases.strides[1]
                                          + (a * s + b) * phases.strides[2],
                                          (*phases.strides[:2], ins.wq * item, item, item))
                        copies.append((slots[:k, :g, a::s, b::s], runs))
                groups.append((slice(c0, c0 + g), copies, self.stack[:k, :g],
                               self.acc[:k, c0:c0 + g]))
            chunks.append((r, groups, None if self.keep else (m[:, :c_in], m[:, c_in]),
                           layout.pairs(m[:, :c_in], valid), m.reshape(k, c_in + 1, -1),
                           out[r].reshape(k, len(self.weights), -1)))
        return src, chunks, out

    def misfit(self, x: np.ndarray) -> ShapeError:
        return ShapeError(f"a plan for up to {self.shape} {self.dtype} inputs (keep={self.keep}) "
                          f"does not fit these params and a {x.shape} {x.dtype} input")


def sepconv2d(x: np.ndarray, p: SepConvParams, norm: BatchNormParams | None = None,
              plan: SepConvPlan | None = None):
    """Depthwise spatial convolution then 1x1 pointwise projection plus bias,
    then the batchnorm ``norm`` on the batch's statistics if given, folded in.

    No nonlinearity between the two stages. Padding is "same": symmetric
    zero-padding of floor(k/2), so the output is ceil(H/stride) per side.
    Everything is computed in ``x.dtype`` (parameters are cast to it), per
    cache-sized chunk or tile as the module docstring says. With a ``norm`` the
    pointwise stage runs once ``batchnorm`` has folded in the statistics of
    the chunks' Gram matrices and updated ``norm``'s running statistics.
    Running statistics are folded into ``p`` by the caller.

    Buffers and layouts come from ``plan``, a bound ``SepConvPlan`` of ``p``
    for inputs like ``x``, or from a keep plan built for this call, compact
    in and out. ``x`` is [n, C_in, h, w], or [n, C_in, *plan.ins.shape] if
    the plan says so; the output, [n, C_out, *plan.layout.shape] and 0 off
    its pixels, is the plan's one view of its buffer for n inputs, valid
    until its consumer's backward, which writes its ``dx`` there, or the
    plan's next use. Handed planes that the plan has read for their n (the
    producer's output view, once per n) are not checked again. The cache is None
    unless the plan keeps, and then it too keeps views of the plan's ``mid``
    and planes. A ``norm`` needs a keep plan.
    """
    if x.ndim != 4:
        raise ShapeError(f"expected [N,C,H,W] input, got shape {x.shape}")
    if plan is None:
        plan = SepConvPlan(x.shape, x.dtype, p, keep=True).bind()
    if plan.params is not p or (norm is not None and not plan.keep):
        raise plan.misfit(x)
    n, c_in = x.shape[:2]
    planes, chunks, out = plan.batches.get(n, (None, None, None))
    if planes is not x:  # a compact input, or handed planes not read before
        planes, chunks, out = plan.read(x)
    weights, depthwise, gram = plan.weights, plan.depthwise, None
    if norm is not None:  # trained params: cast per call
        depthwise = p.depthwise.astype(x.dtype, copy=False).reshape(depthwise.shape)
        # each sample's Gram matrix of [mid; 1], formed while its chunk is in cache
        gram = np.empty((n, c_in + 1, c_in + 1), dtype=x.dtype)
    for r, groups, blank, fills, m3, out3 in chunks:
        for c, copies, stk, ac in groups:
            for dst, taps in copies:
                dst[...] = taps
            np.matmul(depthwise[c], stk, out=ac)
        if blank is not None:  # the tap copies overwrote mid's zeros and ones row
            blank[0][...] = 0
            blank[1][...] = plan.mask
        for dst, pixels in fills:
            dst[...] = pixels
        if norm is not None:
            np.matmul(m3, m3.transpose(0, 2, 1), out=gram[r])
        else:
            np.matmul(weights, m3, out=out3)
    if not plan.keep:
        return out, None
    mid, bn_cache = plan.mid[:n], None
    if norm is not None:
        folded, bn_cache = batchnorm(gram.sum(axis=0, dtype=np.float64), p, norm)
        weights = _gemm_weights(folded, x.dtype)
        np.matmul(weights, mid.reshape(n, c_in + 1, -1), out=out.reshape(n, len(weights), -1))
    return out, SepConvCache(planes, mid, weights, bn_cache, plan)


def sepconv2d_backward(dout: np.ndarray, cache: SepConvCache, input_grad: bool = True):
    """Gradients of sepconv2d: returns (dx, d_depthwise, d_pointwise, d_bias),
    then (d_gamma, d_beta) if a batchnorm was folded in with batch statistics.
    ``dout`` and ``dx`` are laid out like the forward's output and input, and
    ``dout`` must have the forward's dtype. An input that arrived in phase
    planes must be a ReLU output that nothing reads after this call: ``dx``
    is written over it and is the gradient of that ReLU's input, 0 where the
    ReLU output is not > 0. A compact input's ``dx`` is fresh, with no ReLU.
    Without ``input_grad`` no ``dx`` is formed, the input is left as it is,
    and dx is None: the parameter gradients are the same bits.

    P = sum dout [mid; 1]^T is the gradient of [W | bias], or what
    ``batchnorm_backward`` turns into the gradients and the correction A of
    ``dmid = W'^T dout + A [mid; 1]`` (W' the weights the forward used; A = 0
    without batch statistics). Per chunk of the plan's ``back_rows``, ``dx``
    on the rows of each phase that hold pixels, and the depthwise row dots,
    come from one tap stack gathered from the pitched pixels of ``dmid``, as
    the module docstring says and the plan's tap table places them; every
    other position of ``dx``, and a phase without taps, is 0. The tap stack
    is a view of the plan's: the pass's forwards, its only other users, are
    done by then. So the call allocates only its chunk temporaries (the
    ``dmid`` pair and ``dm_pad``), the row dots and, for a compact input's
    ``input_grad``, ``dx``.
    """
    plan, x, mid = cache.plan, cache.x, cache.mid
    if dout.dtype != plan.dtype:  # the tap stack it borrows is in the plan's dtype
        raise ShapeError(f"a {dout.dtype} dout for a forward in {plan.dtype}")
    p, ins, layout = plan.params, plan.ins, plan.layout
    s, dtype = p.stride, dout.dtype
    n, c_out = dout.shape[:2]
    c_in = x.shape[1]
    g = dout.reshape(n, c_out, -1)
    mid3 = mid.reshape(n, c_in + 1, -1)

    d_weights, d_norm = _row_gram(g, mid3), ()
    corr = np.zeros((c_in, c_in + 1))
    if cache.norm is not None:
        d_weights, corr, *d_norm = batchnorm_backward(d_weights, cache.norm)
    pw_t = cache.weights[:, :c_in].astype(dtype, copy=False).T
    corr = corr.astype(dtype, copy=False)
    dw = p.depthwise.astype(dtype, copy=False).reshape(c_in, 1, -1)
    # each phase's taps, made C-contiguous: on a fancy index's result numpy's matmul leaves BLAS
    kernels = [np.ascontiguousarray(dw[:, :, ids]) if input_grad else None
               for _, _, ids, _, _ in plan.phases]
    ho, wo, wq, plane = layout.h, layout.w, ins.wq, ins.size // (s * s)
    rows, pre = plan.back_rows, plan.pre
    dmid = np.empty((2, rows, c_in, *layout.shape), dtype=dtype)  # W'^T dout, A [mid; 1]
    # dmid pitched and zero-padded: under tap offset off, phase-plane position
    # u meets dm_pad[pre - off + u]
    dm_pad = np.zeros((rows, c_in, pre + plane), dtype=dtype)
    dm_valid = dm_pad[:, :, pre:pre + ho * wq].reshape(rows, c_in, ho, wq)[..., :wo]
    xs = x.reshape(n, c_in, s * s, plane)
    # handed planes are the producer's ReLU output, read by nothing after this:
    # dx, through that ReLU, overwrites them. Their rows without pixels are 0
    # already; a phase without taps (a kernel narrower than the stride) is
    # zeroed. A compact input's planes are the plan's, whose padding no
    # forward rewrites, so it gets a fresh dx.
    handed = plan.planes is None
    dx = None if not input_grad else xs if handed else np.zeros_like(xs)
    if handed and input_grad:
        for ph in {*range(s * s)} - {ph for ph, *_ in plan.phases}:
            dx[:, :, ph] = 0
    # each sample's depthwise row dots, grouped by phase: slot t holds tap plan.tap_ids[t]
    dots = np.empty((n, c_in, len(plan.tap_ids), 1), dtype=dtype)

    for start in range(0, n, rows):
        k = min(rows, n - start)
        b = slice(start, start + k)
        dm, df = dmid[:, :k]
        np.matmul(pw_t, g[b], out=dm.reshape(k, c_in, -1))
        np.matmul(corr, mid3[b], out=df.reshape(k, c_in, -1))
        dm += df  # whole, then its pixels: 2-2.5x faster than adding the pixels of each
        for pixels, valid in layout.pairs(dm, dm_valid[:k]):
            valid[...] = pixels
        for (ph, band, ids, slot, starts), taps in zip(plan.phases, kernels):
            length = band.stop - band.start
            stk = plan.store[:k * c_in * len(ids) * length].reshape(k, c_in, len(ids), length)
            for q, t in enumerate(starts):
                stk[:, :, q] = dm_pad[:k, :, t:t + length]
            np.matmul(stk, xs[b, :, ph, band, None], out=dots[b, :, slot])
            if dx is None:
                continue
            dst = dx[b, :, ph, None, band]
            live = dst > 0 if handed else None  # where the producer's ReLU passed x
            # for one tap numpy's matmul leaves BLAS for a loop 6x slower than multiply
            product = np.multiply if len(ids) == 1 else np.matmul
            product(taps, stk, out=dst)
            if handed:
                np.multiply(dst, live, out=dst)
    d_dw = np.empty((c_in, len(plan.tap_ids)))
    d_dw[:, plan.tap_ids] = dots.sum(axis=0, dtype=np.float64)[..., 0]
    if dx is not None:
        dx = dx.reshape(n, c_in, *ins.shape)
        dx = dx if handed else ins.to_compact(dx)  # a compact input's dx goes back compact

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
    returned. Its callers pass gradients they do not reuse: the hidden
    layer's, and the last conv block's (the pooling gradient, or the one
    ``maximize_activation`` makes). The ReLU of a block that feeds another
    is taken by the consumer's ``sepconv2d_backward``."""
    return np.multiply(dout, out > 0, out=dout)


def global_avg_pool(x: np.ndarray):
    """Mean over the spatial dims: [N,C,H,W] -> [N,C]. The cache is ``x.shape``."""
    if x.ndim != 4:
        raise ShapeError(f"expected [N,C,H,W] input, got shape {x.shape}")
    # the float64 sum over the count, as ``x.mean`` computes it, without its Python wrapper
    out = np.add.reduce(x, axis=(2, 3), dtype=np.float64) / (x.shape[2] * x.shape[3])
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
    out = np.where(x64 >= 0, 1.0, t) / (1.0 + t)  # 1 / (1 + t) or t / (1 + t)
    return out.astype(x.dtype, copy=False)
