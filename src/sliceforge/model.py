"""The 9-block separable-conv CNN: construction, forward/backward,
serialization ("SFM1" files) and feature introspection.

Per-sample path: (sepconv -> batchnorm -> ReLU) x 9, global average pool,
dense -> ReLU -> dropout, dense to one unit, sigmoid. The decision rule is
probability >= threshold for the positive class. Each block is one
``layers.sepconv2d`` with its batchnorm folded into the pointwise stage, then
a ReLU applied in place. Between blocks the activations are laid out as the
next block's stride-phase planes (``layers.PlaneLayout``), in train and infer
mode alike; only the input and the last block's output are compact. Only
``forward`` reads the mode: train mode folds in the batch's statistics; infer
mode runs ``Model.folded``, whose convs hold the running statistics, and
dropout at rate 0. Every pass, in either mode and in the feature
introspection, runs in the sepconv buffers of a ``plan_blocks`` plan (with
``keep`` where the pass keeps caches), which a caller may build once for many
batches.

The slot table (``BLOCK_SLOTS``, then ``HEAD_SLOTS``) lists every array of
the model and so defines the SFM1 record order: for each block b = 0..8
``block{b}.depthwise``, ``.pointwise``, ``.bias``, ``.gamma``, ``.beta``,
``.running_mean`` and ``.running_var``, then ``hidden.weight``,
``hidden.bias``, ``output.weight`` and ``output.bias``.
"""

from __future__ import annotations

import copy
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import layers
from .errors import ConfigError, FormatError, NumericError, ShapeError, check_real
from .layers import BatchNormParams, DenseParams, SepConvParams
from .rng import TAG_INIT, TAG_MAXIMIZE, SplitMixStream
from .tensor import _decode_array, _encode_array, atomic_open, from_doc, json_fields

MODEL_MAGIC = b"SFM1"
MODEL_VERSION = 1

DEFAULT_CHANNEL_PLAN = (8, 8, 16, 16, 32, 32, 64, 64, 128)
DEFAULT_STRIDE_PLAN = (1, 2, 1, 2, 1, 2, 1, 2, 1)
N_BLOCKS = 9

# The slot table, in SFM1 record order: rows (owner, attribute, trainable,
# shape, init). The owner is a field of Block (rows repeat per block, named
# "block{b}.<attribute>") or of Model ("<owner>.<attribute>"). Shapes use the
# block's c_in and c_out (the head's c_in is the last c_out), k (kernel),
# kk = k*k and hidden (units). init is a fill value or (stream, fan_in, fan_out)
# of a fan-scaled uniform draw. A layer's backward returns its gradients in the
# order of its trainable rows.
BLOCK_SLOTS = (
    ("conv", "depthwise", True, ("c_in", 1, "k", "k"), (0, "kk", "kk")),
    ("conv", "pointwise", True, ("c_out", "c_in", 1, 1), (1, "c_in", "c_out")),
    ("conv", "bias", True, ("c_out",), 0.0),
    ("norm", "gamma", True, ("c_out",), 1.0),
    ("norm", "beta", True, ("c_out",), 0.0),
    ("norm", "running_mean", False, ("c_out",), 0.0),
    ("norm", "running_var", False, ("c_out",), 1.0),
)
HEAD_SLOTS = (
    ("hidden", "weight", True, ("hidden", "c_in"), (0, "c_in", "hidden")),
    ("hidden", "bias", True, ("hidden",), 0.0),
    # the single-unit classifier starts at zero so every probability is exactly
    # 0.5 and the first gradient step already points along the class contrast;
    # fan-scaled noise here only adds a random offset to undo
    ("output", "weight", True, (1, "hidden"), 0.0),
    ("output", "bias", True, (1,), 0.0),
)


def check_threshold(threshold) -> None:
    """Raise ConfigError unless the decision threshold is a number in (0, 1)."""
    check_real("threshold", threshold)
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"threshold must be in (0,1), got {threshold}")


@dataclass
class ModelConfig:
    input_height: int
    input_width: int
    input_channels: int = 1
    channel_plan: tuple[int, ...] = DEFAULT_CHANNEL_PLAN
    stride_plan: tuple[int, ...] = DEFAULT_STRIDE_PLAN
    kernel: int = 3
    hidden_units: int = 64
    dropout_rate: float = 0.5
    threshold: float = 0.5

    def __post_init__(self):
        if len(self.channel_plan) != N_BLOCKS:
            raise ConfigError(f"channel_plan must have {N_BLOCKS} entries, got {len(self.channel_plan)}")
        if len(self.stride_plan) != N_BLOCKS:
            raise ConfigError(f"stride_plan must have {N_BLOCKS} entries, got {len(self.stride_plan)}")
        if any(c < 1 for c in self.channel_plan):
            raise ConfigError("channel_plan entries must be positive")
        if any(s not in (1, 2) for s in self.stride_plan):
            raise ConfigError("stride_plan entries must be 1 or 2")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError(f"kernel must be odd and positive, got {self.kernel}")
        for name in ("input_height", "input_width", "input_channels", "hidden_units"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0,1), got {self.dropout_rate}")
        check_threshold(self.threshold)

    def spatial_dims(self):
        """Spatial size after each block under "same" padding."""
        h, w = self.input_height, self.input_width
        dims = []
        for s in self.stride_plan:
            h = (h + s - 1) // s
            w = (w + s - 1) // s
            dims.append((h, w))
        return dims


class Slot(NamedTuple):
    """One row of the slot table for one block (``block`` None: the head)."""

    name: str
    block: int | None
    owner: str
    attr: str
    trainable: bool
    shape: tuple
    init: object


def slot_table(config: ModelConfig) -> list:
    """Every array of a model with this config, in SFM1 record order."""
    channels = (config.input_channels, *config.channel_plan)
    sizes = {"k": config.kernel, "kk": config.kernel ** 2, "hidden": config.hidden_units}
    groups = [(f"block{b}", b, BLOCK_SLOTS, dict(sizes, c_in=c_in, c_out=c_out))
              for b, (c_in, c_out) in enumerate(zip(channels, channels[1:]))]
    groups.append((None, None, HEAD_SLOTS, dict(sizes, c_in=channels[-1])))
    return [
        Slot(f"{prefix or owner}.{attr}", b, owner, attr, trainable,
             tuple(dims.get(d, d) for d in shape),
             tuple(dims.get(d, d) for d in init) if isinstance(init, tuple) else init)
        for prefix, b, rows, dims in groups
        for owner, attr, trainable, shape, init in rows
    ]


def _grad_names(owner: str, prefix: str | None = None) -> list:
    """Slot names of ``owner``'s gradients, in the order its layer's backward
    returns them; ``prefix`` is the block's, and the owner's for the head."""
    return [f"{prefix or owner}.{attr}" for o, attr, trainable, _, _ in BLOCK_SLOTS + HEAD_SLOTS
            if o == owner and trainable]


@dataclass
class ModelHeader:
    """The JSON header of an SFM1 file: the config and the batchnorm constants."""

    config: ModelConfig
    bn_epsilon: float = layers.BN_EPSILON
    bn_momentum: float = layers.BN_MOMENTUM


@dataclass
class Block:
    conv: SepConvParams
    norm: BatchNormParams | None  # None: folded into ``conv`` (``Model.folded``)


@dataclass
class Model:
    config: ModelConfig
    blocks: list
    hidden: DenseParams
    output: DenseParams

    def slots(self) -> list:
        """(slot, the params object that holds its array), in SFM1 record order."""
        return [(s, getattr(self if s.block is None else self.blocks[s.block], s.owner))
                for s in slot_table(self.config)]

    def named_parameters(self):
        """Trainable parameter arrays in SFM1 record order."""
        return [(s.name, getattr(owner, s.attr)) for s, owner in self.slots() if s.trainable]

    def state_arrays(self):
        """All persisted arrays (trainable plus running stats), in SFM1 record order."""
        return [(s.name, getattr(owner, s.attr)) for s, owner in self.slots()]

    def copy(self) -> "Model":
        return copy.deepcopy(self)

    def folded(self) -> "Model":
        """This model for infer-mode passes, and the only fold of the running
        statistics: each block's batchnorm folded into its conv, its ``norm``
        None. A folded model is its own fold, so ``forward`` refolds nothing
        after ``predict``'s one fold: a model's blocks are folded all
        together, so its first block tells. Shares the depthwise kernels; the
        head's arrays are cast to the float64 that ``layers.dense`` computes
        in, exactly, once for every pass."""
        if self.blocks[0].norm is None:
            return self
        blocks = [Block(layers.fold_batchnorm(b.conv, b.norm), None) for b in self.blocks]
        head = [DenseParams(d.weight.astype(np.float64), d.bias.astype(np.float64))
                for d in (self.hidden, self.output)]
        return Model(self.config, blocks, *head)

    def astype(self, dtype) -> "Model":
        """Clone with every array cast to ``dtype`` (float64 shadow for checks)."""
        clone = self.copy()
        for s, owner in clone.slots():
            setattr(owner, s.attr, getattr(owner, s.attr).astype(dtype))
        return clone


def _assemble(config: ModelConfig, take, **bn) -> Model:
    """A model holding ``take(slot)`` for every slot, built through the params
    constructors, which validate it; ``bn`` goes to every BatchNormParams."""
    parts = {}
    for slot in slot_table(config):
        parts.setdefault((slot.block, slot.owner), {})[slot.attr] = take(slot)
    blocks = [
        Block(conv=SepConvParams(**parts[b, "conv"], stride=stride),
              norm=BatchNormParams(**parts[b, "norm"], **bn))
        for b, stride in enumerate(config.stride_plan)
    ]
    return Model(config=config, blocks=blocks, hidden=DenseParams(**parts[None, "hidden"]),
                 output=DenseParams(**parts[None, "output"]))


def build_model(config: ModelConfig, seed: int) -> Model:
    """Deterministic init from the slot table: a fill, or a fan-scaled uniform
    draw from SplitMixStream(seed, TAG_INIT, block, stream), the head being
    block N_BLOCKS."""
    def init(slot):
        if not isinstance(slot.init, tuple):
            return np.full(slot.shape, slot.init, dtype=np.float32)
        stream, fan_in, fan_out = slot.init
        key = N_BLOCKS if slot.block is None else slot.block
        uniform = SplitMixStream(seed, TAG_INIT, key, stream).uniform(slot.shape)
        return ((uniform * 2.0 - 1.0) * np.sqrt(6.0 / (fan_in + fan_out))).astype(np.float32)

    return _assemble(config, init)


@dataclass
class ForwardCaches:
    # per block: (conv_cache, ReLU output); batchnorm's is conv_cache.norm. Blocks 0
    # and 1's ReLU outputs hold later blocks' outputs until ``backward`` rebuilds them
    block_caches: list
    pool_cache: tuple  # the last block output's shape
    hidden_cache: layers.DenseCache
    hidden_relu_cache: np.ndarray  # the hidden ReLU's output
    dropout_cache: np.ndarray | None  # the scaled mask; None at rate 0
    output_cache: layers.DenseCache
    logits: np.ndarray


def plan_blocks(model: Model, n: int, dtype, keep: bool = False) -> list:
    """The bound ``layers.SepConvPlan`` of each block of ``model`` for batches
    of up to ``n`` inputs of ``dtype``, built once for every batch they run,
    and the only source of a pass's sepconv buffers. Block b > 0 takes its
    input in its own phase planes, which block b - 1 writes as its output, so
    only block 0 copies its (compact) input onto planes of its own. A plan
    returns one output view per batch size, so its consumer's plan makes its
    chunk views of that view once, and checks it by identity on every later
    batch of that size (``layers.SepConvPlan.read``). The last
    block's output is compact, for pooling, or for ``extract_activation`` and
    ``maximize_activation``, which plan the folded model cut after the block
    they read. All share one tap stack and one accumulator, which in a keep
    plan also holds each backward's tap stack. The tap stack is the largest
    chunk's: a block whose one sample overflows ``layers._CHUNK_BYTES`` runs
    its forward in tiles of that sample's channels, so at 128x128 and one
    slice it is block 0's one channel (blocks 1-4 tile theirs).

    Without ``keep``, the infer plans of a folded ``model``: block b writes
    output buffer b % 2, so a block never writes the buffer it reads. With
    ``keep``, plans whose passes keep their caches (train mode, or
    ``maximize_activation``): each block has a whole-batch ``mid`` of its
    own, whose padding and ones row are written once, and the outputs share
    one buffer. Those of blocks 2 onwards lie back to back from its start.
    Block 0's output lies at its start too, over block 2's, and block 1's
    past the larger of block 0's and block 2's, over block 3's or later
    ones where they reach it. Each of the two is read by its consumer's
    forward and then not until its consumer's backward, and the blocks it
    lies under are done with their outputs before that backward, which
    rebuilds it first (``_backward_blocks``). So between the forward of
    block 2 (for block 0) or block 3 (for block 1) and the backward, the
    outputs of blocks 0 and 1 hold other blocks' outputs, and so do their
    ReLU caches and their consumers' ``cache.x``. A plan of one or two
    blocks lays no output over another. A block's cache holds its plan,
    and its views of these are valid until the plans' next use; the
    backward writes each block's ``dx`` over its producer's output."""
    cfg = model.config
    dims = [(cfg.input_height, cfg.input_width), *cfg.spatial_dims()]
    layouts = [layers.PlaneLayout(*hw, *blk.conv.depthwise.shape[2:], blk.conv.stride)
               for hw, blk in zip(dims[1:], model.blocks[1:])]
    plans = [layers.SepConvPlan((n, blk.conv.depthwise.shape[0], *hw), dtype, blk.conv, keep,
                                layout, planes_in=b > 0)
             for b, (hw, blk, layout) in enumerate(zip(dims, model.blocks, [*layouts, None]))]
    store, acc = (np.empty(max(plan.sizes[i] for plan in plans), dtype) for i in (0, 1))
    sizes = [plan.sizes[2] for plan in plans]
    if keep:  # blocks 2.. back to back; block 0 at 0, block 1 past blocks 0 and 2
        starts = [0, max(sizes[:1] + sizes[2:3]), *np.cumsum([0, *sizes[2:-1]])][:len(plans)]
        shared = np.empty(max(a + size for a, size in zip(starts, sizes)), dtype)
        outs = [shared[a:] for a in starts]
    else:  # block b writes buffer b % 2
        pair = [np.empty(max(sizes[parity::2], default=0), dtype) for parity in (0, 1)]
        outs = [pair[b % 2] for b in range(len(plans))]
    return [plan.bind(store, acc, out) for plan, out in zip(plans, outs)]


def _forward_blocks(model: Model, x: np.ndarray, plan: list):
    """Run the conv stack on the compact batch ``x``, block b in ``plan[b]``
    (``plan_blocks`` of ``model``). The output is compact, as the last
    block's plan lays it out.

    A block is one ``layers.sepconv2d`` given the block's ``norm`` (folded in
    on the batch's statistics; None in ``Model.folded``, whose convs hold the
    running statistics), then ReLU in place on the fresh output. Each block
    keeps its cache exactly when its plan keeps: with ``plan_blocks(...,
    keep=True)`` each cache holds its plan and views of its buffers, and
    without ``keep`` the returned cache list is empty. In a keep plan of
    three or more blocks, the forward of block 2 writes over block 0's
    output, and that of block 3 or a later one over block 1's, so those
    outputs, their ReLU caches and their consumers' ``cache.x`` hold other
    blocks' outputs until ``_backward_blocks`` rebuilds them.
    """
    caches = []
    out = x
    for blk, blk_plan in zip(model.blocks, plan, strict=True):
        out, conv_cache = layers.sepconv2d(out, blk.conv, blk.norm, plan=blk_plan)
        out, relu_cache = layers.relu(out, out=out)
        if blk_plan.keep:
            caches.append((conv_cache, relu_cache))
    return out, caches


def _backward_blocks(dout: np.ndarray, caches: list, grads: dict | None = None):
    """Backprop ``dout``, the gradient of the last block's ReLU output,
    through cached conv blocks; fills ``grads`` when given, which needs
    train-mode caches (a block of ``Model.folded`` is a conv with fixed
    folded weights and yields no batchnorm gradients). Returns the input's
    gradient, compact, when no ``grads`` are asked for
    (``maximize_activation`` climbs it); a pass that fills ``grads`` has no
    use for it, so block 0 forms none and None is returned.

    Only the last block's ReLU is taken here, on ``dout`` in place. Each
    other block's ReLU is taken by its consumer's
    ``layers.sepconv2d_backward``, which writes its ``dx`` over that block's
    output, so the plan's outputs hold gradients until the next forward
    rewrites them. Blocks 0 and 1's outputs hold other blocks' outputs from
    the forward of block 2 (for block 0) or block 3 (for block 1) on
    (``plan_blocks``), so before the backward of block 2, and again before
    block 1's, the producer's output is rebuilt: its forward's pointwise
    GEMM, ``cache.weights`` times its kept ``mid``, reruns into it, then its
    ReLU, which gives the forward's bits. Consumes ``caches``: each block's
    cache is popped off the list, so its ``mid`` and its batchnorm cache are
    freed once that block's backward is done (the outputs' one buffer with
    the last), and the list is empty on return. It consumes ``dout`` too,
    which the last block's backward alone reads: a caller that hands it
    over without a reference of its own (``backward``'s pooling gradient)
    has it freed after that backward.
    """
    g = layers.relu_backward(dout, caches[-1][1])
    del dout  # g is dout: the last block's backward is its only reader
    for b in range(len(caches) - 1, -1, -1):
        conv_cache, _ = caches.pop()
        if b in (1, 2):  # the input planes held later outputs: rerun the producer's GEMM
            prev, x = caches[-1]
            np.matmul(prev.weights, prev.mid.reshape(*prev.mid.shape[:2], -1),
                      out=x.reshape(*x.shape[:2], -1))
            layers.relu(x, out=x)
        g, *d_block = layers.sepconv2d_backward(g, conv_cache, input_grad=b > 0 or grads is None)
        if grads is not None:
            names = _grad_names("conv", f"block{b}") + _grad_names("norm", f"block{b}")
            grads.update(zip(names, d_block, strict=True))
    return g


def _check_input(cfg: ModelConfig, batch: np.ndarray) -> None:
    """Raise ShapeError unless ``batch`` is [N, C, H, W] with ``cfg``'s input C, H and W."""
    if batch.ndim != 4 or batch.shape[1:] != (cfg.input_channels, cfg.input_height,
                                              cfg.input_width):
        raise ShapeError(
            f"batch shape {batch.shape} does not match configured input "
            f"[N,{cfg.input_channels},{cfg.input_height},{cfg.input_width}]"
        )


def forward(model: Model, batch: np.ndarray, mode: str = "infer", dropout_rng=None,
            plan: list | None = None):
    """Per-sample probabilities in (0,1) plus the caches for the gradient pass.

    ``mode`` ("train" or "infer") is read here only. Train mode runs each
    block's batchnorm on the batch's statistics, updating its running
    statistics, and dropout at the configured rate, which needs
    ``dropout_rng`` (one batch stream with a row per sample) when positive;
    its blocks run in ``plan`` (``plan_blocks(model, ..., keep=True)``), and
    their caches are valid until its next use or ``backward``, which
    consumes them; blocks 0 and 1's ReLU caches and their consumers'
    ``cache.x`` hold later blocks' outputs until ``backward`` rebuilds them
    (``_forward_blocks``). Infer mode runs
    ``model.folded()`` in ``plan`` (``plan_blocks`` of that folded model)
    with no per-block caches, so ``backward`` needs a train-mode pass, and
    dropout at rate 0. Either mode builds a ``plan`` for this call if None.
    """
    if mode not in ("train", "infer"):
        raise ConfigError(f"mode must be 'train' or 'infer', got {mode!r}")
    train = mode == "train"
    if plan is not None and plan[0].keep != train:  # plan_blocks keeps in all blocks or none
        raise ConfigError(f"{mode} mode needs plans built {'with' if train else 'without'} keep")
    cfg = model.config
    _check_input(cfg, batch)
    net = model if train else model.folded()
    if plan is None:
        plan = plan_blocks(net, len(batch), batch.dtype, keep=train)
    out, block_caches = _forward_blocks(net, batch, plan)
    out, pool_cache = layers.global_avg_pool(out)
    out, hidden_cache = layers.dense(out, net.hidden)
    out, hidden_relu_cache = layers.relu(out)
    out, dropout_cache = layers.dropout(out, cfg.dropout_rate if train else 0.0, dropout_rng)
    logits2d, output_cache = layers.dense(out, net.output)
    logits = logits2d[:, 0]
    # a logit of +-inf has a finite probability, 1 or 0, so check the logits
    if not np.isfinite(logits).all():
        raise NumericError("forward pass produced non-finite logits")
    caches = ForwardCaches(
        block_caches=block_caches,
        pool_cache=pool_cache,
        hidden_cache=hidden_cache,
        hidden_relu_cache=hidden_relu_cache,
        dropout_cache=dropout_cache,
        output_cache=output_cache,
        logits=logits,
    )
    return layers.sigmoid(logits), caches


def backward(model: Model, caches: ForwardCaches, dlogits: np.ndarray) -> dict:
    """Parameter gradients for a loss whose gradient w.r.t. the logits is given,
    cast to the forward's dtype (a float64 one would run every block in float64).

    Consumes ``caches.block_caches`` (see ``_backward_blocks``): the list is
    empty on return, so a caller that keeps ``caches`` keeps no block arrays.
    """
    dlogits = dlogits.astype(caches.logits.dtype, copy=False)
    g, *d_output = layers.dense_backward(dlogits[:, None], caches.output_cache)
    grads = dict(zip(_grad_names("output"), d_output, strict=True))
    g = layers.dropout_backward(g, caches.dropout_cache)
    g = layers.relu_backward(g, caches.hidden_relu_cache)
    g, *d_hidden = layers.dense_backward(g, caches.hidden_cache)
    grads.update(zip(_grad_names("hidden"), d_hidden, strict=True))
    # handed on, not kept: only the last block's backward reads the pooling gradient
    _backward_blocks(layers.global_avg_pool_backward(g, caches.pool_cache), caches.block_caches,
                     grads)
    return grads


def save_model(path, model: Model) -> None:
    """SFM1 file: magic, u32 version, length-prefixed config JSON, TSR1 records."""
    norm = model.blocks[0].norm
    header = ModelHeader(model.config, norm.epsilon, norm.momentum)
    payload = json.dumps(header, sort_keys=True, default=json_fields).encode("utf-8")
    # encoded before the file is opened: a non-finite array leaves no file behind
    records = [_encode_array(arr, f"{path}[{name}]") for name, arr in model.state_arrays()]
    with atomic_open(path, "wb") as fh:
        fh.write(MODEL_MAGIC + struct.pack("<II", MODEL_VERSION, len(payload)) + payload)
        fh.writelines(records)


def load_model(path) -> Model:
    """Read an SFM1 file into a model whose array shapes come from its config."""
    blob = Path(path).read_bytes()
    if len(blob) < 12:
        raise FormatError(f"{path}: truncated header")
    if blob[:4] != MODEL_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != MODEL_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    (json_len,) = struct.unpack_from("<I", blob, 8)
    if len(blob) < 12 + json_len:
        raise FormatError(f"{path}: truncated config section")
    try:
        doc = json.loads(blob[12:12 + json_len].decode("utf-8"))
        header = from_doc(ModelHeader, doc, "SFM1 header")
    except ValueError as exc:
        raise FormatError(f"{path}: bad config section: {exc}") from exc

    offset = 12 + json_len

    def decode(slot):
        nonlocal offset
        arr, offset = _decode_array(blob, f"{path}[{slot.name}]", offset)
        if arr.shape != slot.shape:
            raise FormatError(f"{path}: {slot.name} has shape {arr.shape}, expected {slot.shape}")
        return arr.copy()  # writable: SGD and the running statistics update it in place

    try:
        model = _assemble(header.config, decode, epsilon=header.bn_epsilon,
                          momentum=header.bn_momentum)
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes")
    return model


def extract_activation(model: Model, image: np.ndarray, block_index: int, channel: int) -> np.ndarray:
    """Post-ReLU feature map [H',W'] of one block/channel on a single input,
    from the model cut after that block and folded: the block is then the
    last, so its output is compact."""
    _check_block_channel(model, block_index, channel)
    if image.ndim != 4 or image.shape[0] != 1:
        raise ShapeError(f"expected a [1,C,H,W] input, got shape {image.shape}")
    _check_input(model.config, image)
    trunk = Model(model.config, model.blocks[:block_index + 1], model.hidden, model.output).folded()
    out, _ = _forward_blocks(trunk, image, plan_blocks(trunk, 1, image.dtype))
    return out[0, channel].copy()


def _check_block_channel(model: Model, block_index: int, channel: int) -> None:
    if not 0 <= block_index < len(model.blocks):
        raise ConfigError(f"block index {block_index} outside 0..{len(model.blocks) - 1}")
    width = model.config.channel_plan[block_index]
    if not 0 <= channel < width:
        raise ConfigError(f"channel {channel} outside 0..{width - 1} for block {block_index}")


def maximize_activation(
    model: Model,
    block_index: int,
    channel: int,
    steps: int,
    step_size: float,
    seed: int,
):
    """Gradient ascent on the mean post-ReLU activation of one channel.

    Climbs from a seeded random image by RMS-normalized steps of ``step_size`` > 0.
    Every step runs the same weights, so the model cut after the block (as
    in ``extract_activation``) is folded and planned once.
    Returns (final image [1,C,H,W], objective trace of length steps+1).
    """
    _check_block_channel(model, block_index, channel)
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    check_real("step_size", step_size)
    if step_size <= 0:
        raise ConfigError(f"step_size must be positive, got {step_size}")
    cfg = model.config
    stream = SplitMixStream(seed, TAG_MAXIMIZE, block_index, channel)
    x = (stream.normal((1, cfg.input_channels, cfg.input_height, cfg.input_width)) * 0.1 + 0.5).astype(
        np.float32
    )

    trunk = Model(cfg, model.blocks[:block_index + 1], model.hidden, model.output).folded()
    plan = plan_blocks(trunk, 1, x.dtype, keep=True)  # for every step

    def objective_and_grad(img):
        out, caches = _forward_blocks(trunk, img, plan)
        value = float(out[0, channel].mean(dtype=np.float64))
        dout = np.zeros_like(out)
        dout[0, channel] = 1.0 / out[0, channel].size
        return value, _backward_blocks(dout, caches)

    trace = []
    for _ in range(steps):
        value, dx = objective_and_grad(x)
        if not np.isfinite(value):
            raise NumericError(
                f"activation maximization diverged at step {len(trace)} "
                f"(block {block_index}, channel {channel})"
            )
        trace.append(value)
        rms = float(np.sqrt(np.mean(dx.astype(np.float64) ** 2)))
        if rms > 1e-12:
            x = (x + step_size * (dx / rms)).astype(np.float32)
    final_value, _ = objective_and_grad(x)
    if not np.isfinite(final_value):
        raise NumericError("activation maximization produced a non-finite objective")
    trace.append(final_value)
    if not np.all(np.isfinite(x)):
        raise NumericError("activation maximization produced non-finite pixels")
    return x, trace
