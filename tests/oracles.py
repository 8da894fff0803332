"""Independent reference implementations the test suite checks against.

Everything here is deliberately naive (nested loops, explicit matrices,
finite differences) and shares no code with the library kernels.
"""

from __future__ import annotations

import numpy as np


def conv2d_naive(x, w, b, stride=1, padding=0):
    """Six-nested-loop cross-correlation."""
    n, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, co, oh, ow), dtype=np.float64)
    for bi in range(n):
        for o in range(co):
            for y in range(oh):
                for xw in range(ow):
                    acc = 0.0
                    for i in range(ci):
                        for a in range(kh):
                            for bb in range(kw):
                                acc += xp[bi, i, y * stride + a, xw * stride + bb] * w[o, i, a, bb]
                    out[bi, o, y, xw] = acc + b[o]
    return out


def conv2d_matrix(w, in_shape, stride, padding):
    """Dense matrix of the conv2d linear map (bias excluded) on flattened tensors."""
    n, ci, h, wd = in_shape
    assert n == 1
    co, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    m = np.zeros((co * oh * ow, ci * h * wd))
    for o in range(co):
        for y in range(oh):
            for x in range(ow):
                row = (o * oh + y) * ow + x
                for i in range(ci):
                    for a in range(kh):
                        for bb in range(kw):
                            yy = y * stride + a - padding
                            xx = x * stride + bb - padding
                            if 0 <= yy < h and 0 <= xx < wd:
                                m[row, (i * h + yy) * wd + xx] += w[o, i, a, bb]
    return m, (1, co, oh, ow)


def maxpool_naive(x):
    """Windowed max with explicit loops; first max in row-major scan wins."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2), dtype=x.dtype)
    idx = np.zeros((n, c, h // 2, w // 2), dtype=np.int64)
    for bi in range(n):
        for ch in range(c):
            for y in range(h // 2):
                for xw in range(w // 2):
                    best, best_k = None, 0
                    for k, (a, bb) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
                        v = x[bi, ch, 2 * y + a, 2 * xw + bb]
                        if best is None or v > best:
                            best, best_k = v, k
                    out[bi, ch, y, xw] = best
                    idx[bi, ch, y, xw] = best_k
    return out, idx


def maxpool2x2_reference(x):
    """2x2 max pooling by reshape, argmax and take_along_axis (the library's
    earlier formulation): pooled values and int8 window indices, ties to the
    first position in row-major window order."""
    n, c, h, w = x.shape
    flat = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
        n, c, h // 2, w // 2, 4
    )
    idx = flat.argmax(axis=-1).astype(np.int8)
    out = np.take_along_axis(flat, idx[..., None].astype(np.int64), axis=-1)[..., 0]
    return np.ascontiguousarray(out), idx


def maxpool2x2_backward_reference(idx, grad_out):
    """Backward of maxpool2x2_reference: one-hot window scatter of grad_out."""
    n, c, oh, ow = grad_out.shape
    scatter = (idx[..., None] == np.arange(4, dtype=np.int8)) * grad_out[..., None]
    return np.ascontiguousarray(
        scatter.reshape(n, c, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, 2 * oh, 2 * ow)
    )


def finite_diff_grad(f, x, eps=1e-3):
    """Central finite differences of scalar f at every coordinate of x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def rel_err(a, b, floor=1e-6):
    """Worst-case elementwise relative error with an absolute floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def dilate_naive(mask, radius, fire=1, water=2):
    """Chebyshev dilation of fire labels over land, by exhaustive scan."""
    h, w = mask.shape
    out = mask.copy()
    for r in range(h):
        for c in range(w):
            if mask[r, c] == water or mask[r, c] == fire:
                continue
            done = False
            for rr in range(max(0, r - radius), min(h, r + radius + 1)):
                for cc in range(max(0, c - radius), min(w, c + radius + 1)):
                    if mask[rr, cc] == fire:
                        out[r, c] = fire
                        done = True
                        break
                if done:
                    break
    return out


def classify_tiles_naive(mask, tile=32, fire=1, water=2):
    """Per-tile class by brute-force pixel count; out-of-bounds counts as water."""
    h, w = mask.shape
    out = {}
    for r in range(0, h, tile):
        for c in range(0, w, tile):
            n_fire = n_water = n_total = 0
            for rr in range(r, r + tile):
                for cc in range(c, c + tile):
                    n_total += 1
                    if rr >= h or cc >= w:
                        n_water += 1
                    elif mask[rr, cc] == fire:
                        n_fire += 1
                    elif mask[rr, cc] == water:
                        n_water += 1
            if n_fire > 0:
                out[(r, c)] = "fire"
            elif n_water == n_total:
                out[(r, c)] = "water"
            else:
                out[(r, c)] = "no-fire"
    return out


def confusion_naive(pred, truth):
    """Per-pixel loop over TP/FN/TN/FP, skipping ignore pixels."""
    tp = fn = tn = fp = 0
    for p, t in zip(pred.reshape(-1), truth.reshape(-1)):
        if t == 2:
            continue
        if t == 1 and p == 1:
            tp += 1
        elif t == 1:
            fn += 1
        elif p == 1:
            fp += 1
        else:
            tn += 1
    return tp, fn, tn, fp


def early_stop_naive(trace, patience, max_epochs):
    """Direct transcription of the stopping rule.

    Walk the per-epoch metric values; stop once the metric has not strictly
    improved for `patience` consecutive epochs (or the trace/max_epochs runs
    out). Returns (epochs_run, best_epoch), 1-based, earliest best on ties.
    """
    best = float("-inf")
    best_epoch = 0
    stale = 0
    run = 0
    for epoch, value in enumerate(trace[:max_epochs], start=1):
        run = epoch
        if value > best:
            best = value
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break
    return run, best_epoch
