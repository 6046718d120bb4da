"""Shared test utilities: finite-difference oracles and naive reference
implementations, kept independent of the library's gradient/conv code paths."""

import json
import math
import struct

import numpy as np


def central_difference(f, x, h=1e-3):
    """Gradient of scalar f() w.r.t. every element of x, by central differences.

    Mutates x in place during probing and restores it. f must re-read x.
    """
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        old = x[i]
        x[i] = old + h
        fp = f()
        x[i] = old - h
        fm = f()
        x[i] = old
        grad[i] = (fp - fm) / (2.0 * h)
        it.iternext()
    return grad


def max_rel_err(analytic, numeric, floor=1e-6):
    """Worst elementwise |a-n| / max(|a|, |n|, floor)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float((np.abs(a - n) / denom).max())


def naive_sepconv2d(x, depthwise, pointwise, bias, stride):
    """Direct-summation separable convolution with "same" zero-padding of
    floor(k/2): six explicit nested loops."""
    n, c_in, h, w = x.shape
    c_out = pointwise.shape[0]
    kh, kw = depthwise.shape[2], depthwise.shape[3]
    ph, pw = kh // 2, kw // 2
    ho = -(-h // stride)
    wo = -(-w // stride)
    xp = np.zeros((n, c_in, h + 2 * ph, w + 2 * pw), dtype=np.float64)
    xp[:, :, ph:ph + h, pw:pw + w] = x

    mid = np.zeros((n, c_in, ho, wo), dtype=np.float64)
    for b in range(n):
        for c in range(c_in):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for u in range(kh):
                        for v in range(kw):
                            acc += depthwise[c, 0, u, v] * xp[b, c, i * stride + u, j * stride + v]
                    mid[b, c, i, j] = acc
    out = np.zeros((n, c_out, ho, wo), dtype=np.float64)
    for b in range(n):
        for o in range(c_out):
            for i in range(ho):
                for j in range(wo):
                    acc = bias[o]
                    for c in range(c_in):
                        acc += pointwise[o, c, 0, 0] * mid[b, c, i, j]
                    out[b, o, i, j] = acc
    return out


def naive_sepconv2d_backward(x, depthwise, pointwise, dout, stride):
    """Float64 gradients (dx, d_depthwise, d_pointwise, d_bias) of
    ``naive_sepconv2d`` for upstream ``dout``, by explicit loops over the
    definition: every output element (b, o, i, j) passes ``dout`` back through
    the pointwise weights to the depthwise output, and every depthwise output
    (b, c, i, j) through each of its kh*kw taps to the padded input."""
    n, c_in, h, w = x.shape
    c_out, ho, wo = dout.shape[1:]
    kh, kw = depthwise.shape[2], depthwise.shape[3]
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((n, c_in, h + 2 * ph, w + 2 * pw), dtype=np.float64)
    xp[:, :, ph:ph + h, pw:pw + w] = x
    dxp = np.zeros_like(xp)
    d_dw = np.zeros(depthwise.shape, dtype=np.float64)
    d_pw = np.zeros(pointwise.shape, dtype=np.float64)
    d_b = np.zeros(c_out, dtype=np.float64)
    for b in range(n):
        for i in range(ho):
            for j in range(wo):
                window = xp[b, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                for c in range(c_in):
                    mid = 0.0
                    dmid = 0.0
                    for u in range(kh):
                        for v in range(kw):
                            mid += depthwise[c, 0, u, v] * window[c, u, v]
                    for o in range(c_out):
                        d_pw[o, c, 0, 0] += dout[b, o, i, j] * mid
                        dmid += pointwise[o, c, 0, 0] * dout[b, o, i, j]
                    for u in range(kh):
                        for v in range(kw):
                            d_dw[c, 0, u, v] += dmid * window[c, u, v]
                            dxp[b, c, i * stride + u, j * stride + v] += dmid * depthwise[c, 0, u, v]
                for o in range(c_out):
                    d_b[o] += dout[b, o, i, j]
    return dxp[:, :, ph:ph + h, pw:pw + w], d_dw, d_pw, d_b


def affine_batchnorm(y, norm):
    """Infer-mode batchnorm of [N,C,H,W] ``y`` in float64, written out from
    its definition (running statistics, no folding)."""
    def c(v):
        return np.asarray(v, dtype=np.float64)[None, :, None, None]

    return (np.asarray(y, dtype=np.float64) - c(norm.running_mean)) / np.sqrt(
        c(norm.running_var) + norm.epsilon) * c(norm.gamma) + c(norm.beta)


def batchnorm_train(y, gamma, beta, eps):
    """Train-mode batchnorm of [N,C,H,W] ``y`` in float64, from its
    definition: per channel the batch mean and biased variance over N*H*W,
    then gamma * (y - mean) / sqrt(var + eps) + beta. Returns (output, mean, var)."""
    def c(v):
        return np.asarray(v, dtype=np.float64)[None, :, None, None]

    y = np.asarray(y, dtype=np.float64)
    mean = y.mean(axis=(0, 2, 3))
    var = ((y - c(mean)) ** 2).mean(axis=(0, 2, 3))
    return (y - c(mean)) / np.sqrt(c(var) + eps) * c(gamma) + c(beta), mean, var


def batchnorm_train_backward(dout, y, gamma, eps):
    """Float64 gradients (dy, d_gamma, d_beta) of ``batchnorm_train`` for
    upstream ``dout``: the chain rule through x_hat, the batch variance and
    the batch mean in turn (Ioffe & Szegedy, arXiv:1502.03167, section 3)."""
    def c(v):
        return np.asarray(v, dtype=np.float64)[None, :, None, None]

    def total(a):
        return a.sum(axis=(0, 2, 3))

    dout, y = np.asarray(dout, dtype=np.float64), np.asarray(y, dtype=np.float64)
    m = y.size // y.shape[1]
    mean = y.mean(axis=(0, 2, 3))
    centred = y - c(mean)
    var = (centred ** 2).mean(axis=(0, 2, 3))
    inv_std = 1.0 / np.sqrt(var + eps)
    d_xhat = dout * c(gamma)
    d_var = total(d_xhat * centred) * -0.5 * inv_std ** 3
    d_mean = -total(d_xhat) * inv_std + d_var * total(-2.0 * centred) / m
    dy = d_xhat * c(inv_std) + c(d_var) * 2.0 * centred / m + c(d_mean) / m
    return dy, total(dout * centred * c(inv_std)), total(dout)


def metrics_from_pairs(labels, preds):
    """Brute-force metric recomputation from raw (label, prediction) pairs,
    written independently of the library implementation."""
    import math

    labels = list(labels)
    preds = list(preds)
    tp = sum(1 for y, p in zip(labels, preds) if y == 1 and p == 1)
    fp = sum(1 for y, p in zip(labels, preds) if y == 0 and p == 1)
    tn = sum(1 for y, p in zip(labels, preds) if y == 0 and p == 0)
    fn = sum(1 for y, p in zip(labels, preds) if y == 1 and p == 0)
    total = len(labels)

    def safe(num, den):
        return num / den if den else 0.0

    out = {
        "tp": tp, "fp": fp, "tn": tn, "fn": fn,
        "accuracy": (tp + tn) / total,
        "sensitivity": safe(tp, tp + fn),
        "specificity": safe(tn, tn + fp),
        "precision": safe(tp, tp + fp),
        "f1": safe(2 * tp, 2 * tp + fp + fn),
    }
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    out["mcc"] = (tp * tn - fp * fn) / math.sqrt(denom) if denom else 0.0
    return out


def pairs_for_counts(tp, fp, tn, fn):
    """Expand a confusion table into explicit label/prediction lists."""
    labels = [1] * tp + [0] * fp + [0] * tn + [1] * fn
    preds = [1] * tp + [1] * fp + [0] * tn + [0] * fn
    return labels, preds


def plane_elements(h, w, k=1, s=1):
    """Elements per channel of the phase planes a consumer of stride ``s``
    and kernel ``k`` reads an [h, w] map from (compact with the defaults):
    s x s planes of ceil(h/s) + (k-1)//s rows, plus one zero row when
    (k-1)//s > 0, by ceil(w/s) + (k-1)//s columns."""
    extra = (k - 1) // s
    return s * s * (-(-h // s) + extra + (extra > 0)) * (-(-w // s) + extra)


def block_output_elements(cfg):
    """Per block, the elements per channel of its output: block b + 1's input
    planes, the last block's compact map."""
    dims = cfg.spatial_dims()
    return [plane_elements(*dims[b], cfg.kernel, cfg.stride_plan[b + 1]) for b in range(8)] + [
        plane_elements(*dims[8])]


def infer_plan_bytes(cfg, n, chunk_bytes, itemsize=4):
    """Bytes of the buffers an infer plan holds for batches of ``n`` inputs
    of a model with config ``cfg``, from the config alone: block 0's input
    phase planes [n, C_in, ...], the only ones; the largest tap stack (which
    also holds a chunk's [mid; 1]) and accumulator of any block; the largest
    output of the even and of the odd blocks; and each block's ones row of
    ``mid``. Outputs and ``mid`` are in the next block's planes, the last
    block's compact. A chunk holds ``rows`` samples, as many as fit
    ``chunk_bytes`` of tap stack, one at least; where one sample does not
    fit, its tap stack is one sample's ``group`` channels, as many as fit,
    one at least."""
    channels = (cfg.input_channels, *cfg.channel_plan)
    dims = [(cfg.input_height, cfg.input_width), *cfg.spatial_dims()]
    k = cfg.kernel
    sizes = block_output_elements(cfg)
    planes = n * channels[0] * plane_elements(*dims[0], k, cfg.stride_plan[0])
    stacks, accs, outs = [], [], ([], [])
    for b, s in enumerate(cfg.stride_plan):
        c_in, c_out, (h, w) = channels[b], channels[b + 1], dims[b]
        ho, wq = -(-h // s), -(-w // s) + (k - 1) // s
        channel = k * k * ho * wq  # one channel's tap stack
        rows = max(1, min(n, chunk_bytes // (itemsize * c_in * channel)))
        group = max(1, min(c_in, chunk_bytes // (itemsize * channel)))
        stacks.append(max(rows * group * channel, rows * (c_in + 1) * sizes[b]))
        accs.append(rows * c_in * ho * wq)
        outs[b % 2].append(n * c_out * sizes[b])
    return itemsize * (planes + max(stacks) + max(accs) + max(outs[0]) + max(outs[1])
                       + sum(sizes))


def train_cache_bytes(cfg, n, itemsize=4):
    """Bytes of the block caches a train-mode forward of ``n`` inputs keeps,
    from the config alone: per block its [mid; 1] (C_in + 1 channels) and
    its ReLU'd output (C_out channels), in the next block's planes or, for
    the last block, compact. A block's input is its producer's output, or,
    for block 0, the phase planes its plan copies the batch onto."""
    channels = (cfg.input_channels, *cfg.channel_plan)
    planes = channels[0] * plane_elements(cfg.input_height, cfg.input_width, cfg.kernel,
                                          cfg.stride_plan[0])
    return itemsize * n * (planes + sum((channels[b] + 1 + channels[b + 1]) * size
                                        for b, size in enumerate(block_output_elements(cfg))))


def backward_bytes(cfg, n, chunk_bytes, itemsize=4):
    """Bytes a train step's backward of ``n`` inputs allocates beside the
    caches, from the config alone: (block 0's ``dx``, its input phase planes
    and then the compact map, the only ``dx`` not written over its input;
    the largest chunk temporaries of any block, the ``dmid`` pair [2, rows,
    C_in, ...] in the next block's planes, the last block's compact, and
    ``dm_pad`` [rows, C_in, pre + plane], pre the largest tap offset). A
    chunk holds as many samples as fit ``chunk_bytes`` of the tap stack of
    phase (0, 0), which has the most taps, one at least."""
    channels = (cfg.input_channels, *cfg.channel_plan)
    dims = [(cfg.input_height, cfg.input_width), *cfg.spatial_dims()]
    k = cfg.kernel
    (h, w), chunks = dims[0], []
    dx = n * channels[0] * (plane_elements(h, w, k, cfg.stride_plan[0]) + h * w)
    for b, (s, size) in enumerate(zip(cfg.stride_plan, block_output_elements(cfg))):
        (h, w), c_in, extra = dims[b], channels[b], (k - 1) // s
        wq = -(-w // s) + extra
        stack = itemsize * c_in * (-(-k // s)) ** 2 * -(-h // s) * wq  # phase (0, 0)'s, per sample
        rows = max(1, min(n, chunk_bytes // stack))
        plane = plane_elements(h, w, k, s) // (s * s)
        chunks.append(rows * c_in * (2 * size + extra * wq + extra + plane))
    return itemsize * dx, itemsize * max(chunks)


def nan_loss_eval_pass(eval_pass):
    """``training._eval_pass`` with the mean loss it returns replaced by NaN."""
    def patched(model, dataset):
        logits, _, acc = eval_pass(model, dataset)
        return logits, math.nan, acc
    return patched


def rewrite_sfm_header(path, **changes):
    """Replace keys of a saved model's JSON header, keeping its records."""
    blob = path.read_bytes()
    (json_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + json_len])
    header.update(changes)
    payload = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(payload)) + payload + blob[12 + json_len:])


def tsr1_bytes(arr):
    """A TSR1 file's bytes, written without the codec's finiteness check."""
    arr = np.asarray(arr, dtype="<f4")
    return b"TSR1" + struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape) + arr.tobytes()


def set_sfm_value(path, model, name, value):
    """Overwrite the first element of record ``name`` of a model saved from
    ``model``, bypassing the codec's finiteness check."""
    blob = bytearray(path.read_bytes())
    (json_len,) = struct.unpack_from("<I", blob, 8)
    offset = 12 + json_len
    for record, arr in model.state_arrays():
        if record == name:
            struct.pack_into("<f", blob, offset + 8 + 4 * arr.ndim, value)
            path.write_bytes(bytes(blob))
            return
        offset += 8 + 4 * arr.ndim + 4 * arr.size
    raise KeyError(name)


def reference_augment(slice2d, cfg, stream):
    """One [H,W] slice augmented from the definition, drawing from its own
    scalar-keyed stream in the order width shift dx, height shift dy, flip:
    out[y, x] = in[y - dy, x - dx], zero outside the frame, by explicit loops,
    then a left-right mirror if the flip came up."""
    h, w = slice2d.shape
    max_dx = math.floor(cfg.width_shift_frac * w)
    max_dy = math.floor(cfg.height_shift_frac * h)
    dx = stream.randint(-max_dx, max_dx) if max_dx else 0
    dy = stream.randint(-max_dy, max_dy) if max_dy else 0
    out = np.zeros_like(slice2d)
    for y in range(h):
        for x in range(w):
            if 0 <= y - dy < h and 0 <= x - dx < w:
                out[y, x] = slice2d[y - dy, x - dx]
    if cfg.horizontal_flip and stream.bernoulli(0.5):
        out = out[:, ::-1]
    return out
