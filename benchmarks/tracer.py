"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``sliceforge`` modules from outside
the package: it replaces the names that callers actually look up (``cli``
imports ``fit`` by name, ``training`` reaches ``backward`` through
``model_mod.backward``, ``model`` reaches its layers through ``layers.<fn>``,
and so on) and restores every original on ``restore()``. Nothing under
``src/`` is modified.

Each call becomes a span ``[name_id, start, end, parent, a0, a1]`` kept in
memory; ``a0``/``a1`` carry per-span facts (batch size and mode of a forward
pass, block index and FLOPs of a separable convolution, bytes read, ...).
Spans are written out once, when the traced command ends.

Run as a script it traces one ``sliceforge`` command in this process::

    python3 benchmarks/tracer.py SPANS.npz -- run --config cfg.json ...
"""

from __future__ import annotations

import sys
import time

import numpy as np

# counters of a forward/backward pass context that number the sepconv2d and
# batchnorm calls, whose spans carry the block index in a0
CONV_SLOT, NORM_SLOT = 0, 1

FORWARD_LAYERS = ("sepconv2d", "batchnorm", "relu", "global_avg_pool", "dense", "dropout",
                  "sigmoid")
BACKWARD_LAYERS = ("sepconv2d_backward", "batchnorm_backward", "relu_backward",
                   "global_avg_pool_backward", "dense_backward", "dropout_backward")
RNG_DRAWS = ("raw", "uniform", "normal", "randint", "bernoulli", "permutation",
             "choice_weighted")
# relative tolerance inside which clip_gradients' rescale decision is recomputed
# exactly from its input instead of read off the output norm
_CLIP_BAND = 1e-4


def sepconv_flops(x_shape, depthwise_shape, pointwise_shape, out_shape) -> float:
    """Multiply-adds (x2) of the depthwise and pointwise stages plus the bias add."""
    n, c_in = x_shape[0], x_shape[1]
    kh, kw = depthwise_shape[2], depthwise_shape[3]
    c_out = pointwise_shape[0]
    ho, wo = out_shape[2], out_shape[3]
    return float(2 * n * c_in * ho * wo * kh * kw + 2 * n * c_out * c_in * ho * wo
                 + n * c_out * ho * wo)


def _clip_rescaled(grads: dict, clip_value: float, clip_norm: float, clipped: dict) -> int:
    """1 when clip_gradients rescaled the global norm, judged without re-running
    it except when the output norm sits within rounding of ``clip_norm``."""
    out_sq = sum(float(np.vdot(g.ravel(), g.ravel())) for g in clipped.values())
    if out_sq ** 0.5 < clip_norm * (1.0 - _CLIP_BAND):
        return 0
    sq = sum(float(np.sum(np.clip(g, -clip_value, clip_value).astype(np.float64) ** 2))
             for g in grads.values())
    return int(sq ** 0.5 > clip_norm)


class Tracer:
    """Records spans around wrapped callables; ``install`` patches sliceforge."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack = [-1]
        # one entry per open forward/backward pass: [next conv, next norm, blocks, is_backward]
        self._passes: list[list] = []
        self._in_rng = [False]
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, post=None):
        """``fn`` inside a span; ``post(rec, args, kwargs, result)`` fills a0/a1."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1], 0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                post(rec, args, kwargs, result)
            return result

        return traced

    def wrap_pass(self, name: str, fn, backward: bool):
        """model.forward / model.backward: opens the context that numbers the
        blocks by call order (a Model.copy() deep-copies params, so ids won't do)."""
        passes = self._passes

        def post(rec, args, kwargs, result):
            if backward:
                rec[4] = args[2].shape[0]
            else:
                rec[4] = args[1].shape[0]
                mode = args[2] if len(args) > 2 else kwargs.get("mode", "infer")
                rec[5] = 1.0 if mode == "train" else 0.0

        inner = self.wrap(name, fn, post)

        def traced(*args, **kwargs):
            passes.append([0, 0, len(args[0].blocks), backward])
            try:
                return inner(*args, **kwargs)
            finally:
                passes.pop()

        return traced

    def wrap_block_layer(self, name: str, fn, slot: int, flops: bool = False):
        passes = self._passes

        def post(rec, args, kwargs, result):
            if passes:
                ctx = passes[-1]
                i = ctx[slot]
                ctx[slot] = i + 1
                rec[4] = ctx[2] - 1 - i if ctx[3] else i
            else:
                rec[4] = -1
            if flops:
                p = args[1]
                rec[5] = sepconv_flops(args[0].shape, p.depthwise.shape, p.pointwise.shape,
                                       result[0].shape)

        return self.wrap(name, fn, post)

    def wrap_rng(self, name: str, fn):
        """Only the outermost draw gets a span (draws call each other)."""
        flag = self._in_rng
        inner = self.wrap(name, fn)

        def traced(*args, **kwargs):
            if flag[0]:
                return fn(*args, **kwargs)
            flag[0] = True
            try:
                return inner(*args, **kwargs)
            finally:
                flag[0] = False

        return traced

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every patched name back, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        from sliceforge import cli, data, layers, model, rng, splits, training

        def n_rows(rec, args, kwargs, result):
            rec[4] = len(result)

        def dataset_rows(rec, args, kwargs, result):
            rec[4] = len(args[1])

        def tsr_bytes(rec, args, kwargs, result):
            rec[5] = float(8 + 4 * result.ndim + 4 * result.size)

        def rescaled(rec, args, kwargs, result):
            rec[4] = _clip_rescaled(args[0], args[1], args[2], result)

        w = self.wrap
        # cli looks these up in its own namespace
        for attr, name, post in (
            ("load_manifest", "data.load_manifest", None),
            ("load_slice_set", "data.load_slice_set", n_rows),
            ("load_model", "model.load_model", None),
            ("generate_synthetic", "data.generate_synthetic", None),
            ("kfold_split", "splits.kfold_split", None),
            ("audit_split", "splits.audit_split", None),
            ("fit", "training.fit", None),
            ("evaluate", "training.evaluate", dataset_rows),
            ("evaluate_subject_vote", "training.evaluate_subject_vote", dataset_rows),
            ("save_model", "model.save_model", None),
            ("_write_fold_artifacts", "cli.write_fold_artifacts", None),
            ("_write_report_files", "cli.write_report_files", None),
            ("_json_dump", "cli.json_dump", None),
        ):
            self.patch(cli, attr, w(name, getattr(cli, attr), post))
        self.patch(splits.SplitPlan, "save", w("splits.SplitPlan.save", splits.SplitPlan.save))

        # training imports forward/augment/scale_normalize by name, backward via model_mod
        self.patch(training, "forward", self.wrap_pass("model.forward", training.forward, False))
        self.patch(model, "backward", self.wrap_pass("model.backward", model.backward, True))
        self.patch(model.Model, "copy", w("model.Model.copy", model.Model.copy))
        self.patch(training, "augment", w("data.augment", training.augment))
        self.patch(training, "scale_normalize", w("data.scale_normalize", training.scale_normalize))
        self.patch(training, "_eval_pass", w("training.history_eval", training._eval_pass))
        self.patch(training, "bce_loss", w("training.bce_loss", training.bce_loss))
        self.patch(training, "clip_gradients",
                   w("training.clip_gradients", training.clip_gradients, rescaled))
        self.patch(training, "sgd_step", w("training.sgd_step", training.sgd_step))

        # data calls these by name; augment calls scale_normalize inside data
        self.patch(data, "read_array", w("tensor.read_array", data.read_array, tsr_bytes))
        self.patch(data, "read_header", w("tensor.read_header", data.read_header))
        self.patch(data, "scale_normalize", w("data.scale_normalize", data.scale_normalize))

        # model reaches every layer through the layers module
        for fn_name in FORWARD_LAYERS + BACKWARD_LAYERS:
            fn = getattr(layers, fn_name)
            name = f"layers.{fn_name}"
            if fn_name.startswith("sepconv2d"):
                wrapper = self.wrap_block_layer(name, fn, CONV_SLOT, flops=fn_name == "sepconv2d")
            elif fn_name.startswith("batchnorm"):
                wrapper = self.wrap_block_layer(name, fn, NORM_SLOT)
            else:
                wrapper = w(name, fn)
            self.patch(layers, fn_name, wrapper)

        # class attributes, so every import site sees them
        stream = rng.SplitMixStream
        self.patch(stream, "__init__", w("rng.SplitMixStream.__init__", stream.__init__))
        for draw in RNG_DRAWS:
            self.patch(stream, draw, self.wrap_rng(f"rng.SplitMixStream.{draw}", getattr(stream, draw)))

    def span_array(self) -> np.ndarray:
        """Spans as an [n, 6] float64 array; times relative to the first span."""
        arr = np.array(self.spans, dtype=np.float64).reshape(-1, 6)
        if len(arr):
            origin = arr[0, 1]
            arr[:, 1:3] -= origin
        return arr

    def dump(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), spans=self.span_array())


def load_spans(path):
    """(names, spans) as written by ``Tracer.dump``."""
    with np.load(path) as doc:
        return [str(n) for n in doc["names"]], doc["spans"]


def traced_main(argv) -> int:
    """Trace ``cli.main(argv)`` under a root span named ``cli.main``."""
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.npz -- <sliceforge arguments>", file=sys.stderr)
        return 2
    out, command = argv[0], argv[2:]
    from sliceforge import cli

    tracer = Tracer()
    tracer.install()
    try:
        rc = tracer.wrap("cli.main", cli.main)(command)
    finally:
        tracer.restore()
    tracer.dump(out)
    return rc


if __name__ == "__main__":
    sys.exit(traced_main(sys.argv[1:]))
