"""Shared test utilities: finite-difference oracles and naive reference
implementations, kept independent of the library's gradient/conv code paths."""

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


def naive_sepconv2d(x, depthwise, pointwise, bias, stride, padding):
    """Direct-summation separable convolution: six explicit nested loops."""
    n, c_in, h, w = x.shape
    c_out = pointwise.shape[0]
    kh, kw = depthwise.shape[2], depthwise.shape[3]
    if padding == "same":
        ph, pw = kh // 2, kw // 2
        ho = -(-h // stride)
        wo = -(-w // stride)
    else:
        ph = pw = 0
        ho = (h - kh) // stride + 1
        wo = (w - kw) // stride + 1
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
