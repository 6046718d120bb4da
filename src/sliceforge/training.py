"""Loss, gradient clipping, the SGD/step-decay recipe, the epoch loop and
evaluation.

The recipe: binary cross-entropy on logits, plain SGD, learning rate decayed
by a fixed factor every epoch, and two-stage clipping (elementwise clamp,
then a rescale of the global L2 norm across all parameter gradients).

Slice sets arrive already normalized (``data.SliceReader`` scales each slice
as it reads it), so training only copies and augments batch rows and
evaluation forwards row ranges of ``SliceSet.x``.

Evaluation has one inference pass: ``predict`` runs a slice set through the
model in infer mode and returns its logits. A fixed byte budget, not the
caller, sizes its micro-batches: each holds as many slices as keep the largest
block output within the budget, small enough that the next block reads it
from cache. ``predict`` folds the batchnorms and builds one plan
(``model.plan_blocks``) for that micro-batch size: block 0's input phase
planes, the only ones, since each block writes its output as the next block's
planes; one shared tap stack and accumulator; and two alternating output
buffers. Each micro-batch runs in the plan, so none allocates a block buffer,
and each block's chunk views are made once per micro-batch size, so a forward
replays only copies and products. The budget is then one slice at 128x128
(four at 64x64) without the allocator's cost or much per-call cost. When ``x`` is a
``SliceReader`` (``sliceforge evaluate``), each micro-batch is read from disk
as it is forwarded, so the peak is the plan plus one micro-batch's input and
does not grow with the set. A slice's infer logit depends on that slice
alone, so the budget never changes a logit.
Loss, accuracy, slice-level confusion counts and the subject vote are pure
functions of those logits, so the logits ``fit`` computed for the best
epoch's history row serve again for the final fold metrics.

The history's train columns need no pass of their own. As in Keras's fit
history, ``train_loss`` and ``train_acc`` are the epoch's
batch-size-weighted means over the train-mode forwards the steps already
make: with augmentation and dropout, each batch taken before its SGD update.
Only the validation columns come from an infer-mode pass.

``fit`` runs the train steps of an epoch in one train plan
(``model.plan_blocks(..., keep=True)``), built once per epoch: its buffers
are the block caches, so a step neither allocates them nor rewrites their
padding, and ``backward`` consumes one step's caches before the next step
reuses the buffers. The plan is dropped before the epoch's validation pass,
so that pass's infer plan never sits beside it.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import layers
from . import model as model_mod
from .data import SliceSet, augment
from .data import scale_normalize  # noqa: F401  (unused; benchmarks/tracer.py patches this name)
from .errors import ConfigError, DataError, NumericError, ShapeError
from .metrics import ConfusionCounts
from .model import Model, check_threshold, forward
from .rng import TAG_AUGMENT, TAG_DROPOUT, TAG_SHUFFLE, SplitMixStream
from .tensor import atomic_open


@dataclass
class TrainConfig:
    initial_lr: float = 1e-4
    decay_factor: float = 0.96
    epochs: int = 30
    batch_size: int = 16
    clip_value: float = 0.5
    clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("initial_lr", "epochs", "batch_size", "clip_value", "clip_norm"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ConfigError(f"decay_factor must be in (0,1], got {self.decay_factor}")


@dataclass
class EpochRecord:
    epoch: int  # 1-based
    lr: float
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


HISTORY_HEADER = tuple(f.name for f in fields(EpochRecord))


def write_history(path, history: list[EpochRecord]) -> None:
    """history.csv: the EpochRecord field names, then a row per epoch, by ``csv.writer``."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_HEADER)
        # repr keeps every float's exact value; an int's repr is its str
        writer.writerows(map(repr, astuple(r)) for r in history)


def bce_loss(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy computed in logit space.

    loss = mean(softplus(z) - y*z); the gradient w.r.t. each logit is
    (sigmoid(z) - y) / N.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    if y.shape != z.shape:
        raise ShapeError(f"labels shape {y.shape} != logits shape {z.shape}")
    if not np.all((y == 0) | (y == 1)):
        raise DataError("labels must be 0 or 1")
    y = y.astype(np.float64)
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    loss = float(np.mean(softplus - y * z))
    return loss, (layers.sigmoid(z) - y) / z.size


def clip_gradients(grads: dict, clip_value: float, clip_norm: float) -> dict:
    """Clamp each element to [-clip_value, clip_value], then rescale so the
    global L2 norm over all tensors does not exceed clip_norm."""
    clipped = {name: np.clip(g, -clip_value, clip_value) for name, g in grads.items()}
    sq = sum(float(np.sum(g.astype(np.float64) ** 2)) for g in clipped.values())
    norm = float(np.sqrt(sq))
    if norm > clip_norm:
        scale = clip_norm / norm
        clipped = {name: g * g.dtype.type(scale) for name, g in clipped.items()}
    return clipped


def lr_for_epoch(config: TrainConfig, epoch: int) -> float:
    """Step decay: initial_lr * decay_factor ** epoch (epoch is 0-based)."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return config.initial_lr * config.decay_factor ** epoch


def sgd_step(model: Model, grads: dict, lr: float) -> None:
    """Plain SGD, no momentum: w <- w - lr * g for every trainable tensor."""
    for name, param in model.named_parameters():
        g = grads[name]
        if g.shape != param.shape:
            raise ShapeError(f"gradient for {name} has shape {g.shape}, param {param.shape}")
        param -= (lr * g).astype(param.dtype, copy=False)


@dataclass
class FitResult:
    """``fit``'s models and history; the best epoch's row is ``history[best_epoch - 1]``."""

    final: Model
    best: Model
    best_epoch: int  # 1-based
    history: list[EpochRecord]  # one row per epoch, every value finite
    val_logits: np.ndarray  # infer-mode logits of ``best`` over the validation set


def _batched(indices, size):
    for start in range(0, len(indices), size):
        yield indices[start:start + size]


# Bytes of the largest block output per infer micro-batch. predict runs every
# micro-batch in one plan, whose blocks make their chunk views once per
# micro-batch size, so a smaller budget costs no allocation, only the Python
# calls of one more forward: about 0.12 ms for nine blocks and the head, against
# 0.20 ms when each call made its own views.
# Sweep, 128 slices, one BLAS thread, 2-vCPU Xeon: median ms of 60
# interleaved predicts in one process / tracemalloc peak MiB of a predict /
# median ms of 24 interleaved whole `evaluate` children / their VmHWM MB. The
# 64x64 row predates channel tiles, which form none at 64x64; the 128x128 row
# is re-measured with them (before them, children in the same rotation read
# 266/264/270/262 ms at 34.0/34.0/35.0/36.8 MB):
#            256K                512K                1M                  2M
#   64x64    28.0/1.07/195/32.2  27.4/1.67/190/32.4  26.7/2.47/196/33.4  27.2/4.09/194/35.2
#   128x128  84.1/1.89/264/33.2  83.5/1.89/269/33.2  81.2/2.62/260/34.2  81.6/4.13/266/36.0
# Before tiles, interleaved with that sweep, the 2 MiB budget with per-call
# views (before plans kept their views) took 204 ms at 35.6 MB (64x64) and 270
# ms at 36.1 MB (128x128). 512 KiB (one slice at 128x128, four at 64x64) was no
# slower than that: faster in 17 of 24 rounds at 64x64, and 12 of 24 at
# 128x128, where 256K runs the same one-slice plan, so a few ms is noise. Below
# 512K only the 64x64 plan shrinks, and there it gets slower for 0.2 MB: 256K
# was faster than 512K in 13 of 60 predicts and 7 of 24 `evaluate` children
# (12 of 24 in a second run). So 512K is kept: it is no slower than the budget
# it replaced, and the smaller budget that changes a plan is slower than it.
_INFER_BUDGET_BYTES = 1 << 19


def micro_batch(config: model_mod.ModelConfig, itemsize: int) -> int:
    """Slices per ``predict`` micro-batch of ``itemsize``-byte values: as many
    (one at least) as keep the largest block output within _INFER_BUDGET_BYTES."""
    largest = max(c * h * w for c, (h, w) in zip(config.channel_plan, config.spatial_dims()))
    return max(1, _INFER_BUDGET_BYTES // (largest * itemsize))


def predict(model: Model, dataset: SliceSet) -> np.ndarray:
    """Infer-mode logits for every slice of ``dataset``, in dataset order.

    Runs micro-batches of ``micro_batch`` slices, each taken as
    ``dataset.x[b:b + step]``: a view of an array, or, from a
    ``SliceReader``, the only rows of the set in memory. Infer mode uses the
    running statistics and no dropout,
    and every kernel computes a slice's output from that slice alone, so a
    logit does not depend on the micro-batch. The batchnorms are folded into
    their convs and the head is cast to float64 (``Model.folded``), and the
    buffers planned for the first, largest micro-batch (``model.plan_blocks``),
    once per call: every micro-batch runs in the same plan, each block's
    output written as the next block's phase planes.
    """
    if len(dataset) == 0:
        raise DataError("cannot evaluate an empty dataset")
    step = micro_batch(model.config, dataset.x.itemsize)
    fixed, plan, chunks = model.folded(), None, []
    for b in range(0, len(dataset), step):
        x = dataset.x[b:b + step]
        if plan is None:  # the first micro-batch is the largest
            plan = model_mod.plan_blocks(fixed, len(x), x.dtype)
        try:
            _, caches = forward(fixed, x, "infer", plan=plan)
        except NumericError as exc:
            keys = dataset.slice_keys[b:b + step]
            raise NumericError(f"{exc} in slices {keys[0]} to {keys[-1]}") from exc
        chunks.append(caches.logits)
    return np.concatenate(chunks)


def logit_labels(logits: np.ndarray, threshold: float) -> np.ndarray:
    """0/1 predictions: label 1 iff sigmoid(logit) >= threshold.

    Uses the forward pass's own float32 sigmoid, which rounds logits within
    about 3e-8 of 0 to exactly 0.5; ``logits >= 0`` would disagree there.
    """
    return (layers.sigmoid(logits) >= threshold).astype(np.int64)


def score(logits: np.ndarray, labels, threshold: float) -> tuple[ConfusionCounts, float]:
    """Slice-level confusion counts and mean loss of infer-mode logits."""
    loss, _ = bce_loss(logits, labels)
    return ConfusionCounts.from_pairs(labels, logit_labels(logits, threshold)), loss


def _eval_pass(model: Model, dataset: SliceSet):
    """Infer-mode logits over a whole slice set, with their mean loss and accuracy."""
    logits = predict(model, dataset)
    counts, loss = score(logits, dataset.labels, model.config.threshold)
    return logits, loss, (counts.tp + counts.tn) / counts.total


def fit(model: Model, train_set: SliceSet, val_set: SliceSet, config: TrainConfig,
        aug=None) -> FitResult:
    """Run the epoch loop and return the final model, the best-validation
    snapshot (ties broken by earliest epoch), the per-epoch history and the
    validation logits of the best epoch.

    Per epoch: seeded shuffle, batches (last partial batch kept), train-mode
    forward with augmentation in the epoch's one train plan, loss, backprop,
    two-stage clip, SGD step; then, with that plan dropped, one infer-mode
    pass over the validation set. The history row's train loss
    and accuracy are the batch-size-weighted means of the train-mode losses
    and predictions, each batch's taken before its update, so they include
    augmentation and dropout. The validation pass of the best epoch ran on
    exactly the weights snapshotted into ``best``, so its logits are returned
    as ``val_logits`` and equal ``predict(best, val_set)``. Raises
    NumericError naming the epoch and batch if a forward pass or a loss goes
    non-finite, and naming the epoch if a history value does.

    Each batch takes one augmentation stream and one dropout stream, each keyed
    ``(seed, tag, epoch, idx)`` by the batch's sample indices ``idx``, so a
    sample's randomness depends on its index and epoch, not on its batch.
    """
    if len(train_set) == 0 or len(val_set) == 0:
        raise DataError("train and validation sets must be nonempty")
    if config.batch_size > len(train_set):
        raise ConfigError(
            f"batch_size {config.batch_size} exceeds train set size {len(train_set)}"
        )
    overlap = set(train_set.slice_keys) & set(val_set.slice_keys)
    if overlap:
        raise DataError(f"train and validation sets share {len(overlap)} slices")

    history = []
    best_acc = -1.0  # every val_acc is >= 0, so epoch 1 sets each best_* value
    n = len(train_set)

    for epoch in range(config.epochs):
        lr = lr_for_epoch(config, epoch)
        # the epoch's steps run in these buffers; backward consumes a step's caches first
        plan = model_mod.plan_blocks(model, config.batch_size, train_set.x.dtype, keep=True)
        order = SplitMixStream(config.seed, TAG_SHUFFLE, epoch).permutation(n)
        loss_sum, correct = 0.0, 0
        for batch_no, idx in enumerate(_batched(order, config.batch_size)):
            x = train_set.x[idx]
            if aug is not None:
                x = augment(x, aug, SplitMixStream(config.seed, TAG_AUGMENT, epoch, idx))
            y = train_set.labels[idx]
            dropout_rng = SplitMixStream(config.seed, TAG_DROPOUT, epoch, idx)
            where = f"at epoch {epoch + 1}, batch {batch_no + 1}"
            try:
                _, caches = forward(model, x, "train", dropout_rng, plan=plan)
            except NumericError as exc:
                raise NumericError(f"{exc} {where}") from exc
            loss, dlogits = bce_loss(caches.logits, y)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss {where}")
            loss_sum += loss * len(idx)
            correct += int(np.sum(logit_labels(caches.logits, model.config.threshold) == y))
            grads = model_mod.backward(model, caches, dlogits)
            grads = clip_gradients(grads, config.clip_value, config.clip_norm)
            sgd_step(model, grads, lr)
        del plan  # the validation pass runs without the train plan beside it

        try:
            val_logits, val_loss, val_acc = _eval_pass(model, val_set)
        except NumericError as exc:
            # infer mode has no batch statistics to renormalise diverged weights,
            # so this pass is often the first to overflow
            raise NumericError(f"{exc}, history pass of epoch {epoch + 1}") from exc
        history.append(EpochRecord(epoch + 1, lr, loss_sum / n, correct / n, val_loss, val_acc))
        if not np.all(np.isfinite(astuple(history[-1]))):
            raise NumericError(f"non-finite history value at epoch {epoch + 1}")
        if val_acc > best_acc:
            best_acc = val_acc
            best_epoch = epoch + 1
            best_model = model.copy()
            best_logits = val_logits

    return FitResult(final=model, best=best_model, best_epoch=best_epoch, history=history,
                     val_logits=best_logits)


def evaluate(model: Model, dataset: SliceSet,
             threshold: float | None = None) -> tuple[ConfusionCounts, float]:
    """Slice-level confusion counts and mean loss of ``predict(model, dataset)``.

    Over a set whose ``x`` is a ``SliceReader`` the peak memory is one
    micro-batch of ``predict``, however many slices the set holds.
    """
    if threshold is None:
        threshold = model.config.threshold
    check_threshold(threshold)
    return score(predict(model, dataset), dataset.labels, threshold)


def evaluate_subject_vote(dataset: SliceSet, pred) -> ConfusionCounts:
    """Subject-level confusion via majority vote over each subject's slices.

    ``pred[i]`` is the 0/1 prediction for slice ``i`` of ``dataset``; a
    subject's slices need not be contiguous. Vote ties go to the positive
    class, mirroring the >= threshold rule.
    """
    pred = np.asarray(pred)
    if pred.shape != (len(dataset),):
        raise ShapeError(f"predictions shape {pred.shape} does not match {len(dataset)} slices")
    votes: dict[str, list] = {}
    truth: dict[str, int] = {}
    for sid, label, p in zip(dataset.subject_ids, dataset.labels, pred):
        votes.setdefault(sid, []).append(int(p))
        truth[sid] = int(label)
    voted = [1 if 2 * sum(v) >= len(v) else 0 for v in votes.values()]
    return ConfusionCounts.from_pairs([truth[sid] for sid in votes], voted)
