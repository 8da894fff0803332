"""Independent reference implementations the test suite checks against.

Everything here is deliberately naive (nested loops, explicit matrices,
finite differences) and shares no code with the library kernels.
"""

from __future__ import annotations

import csv
import re
from dataclasses import replace
from pathlib import Path

import numpy as np

from fireseg import synthetic
from fireseg.formats import PALETTE, FormatError, checkpoint_metrics_path


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


# contagion neighborhoods of the planted fire rule, in its factor order:
# every offset at Chebyshev distance 1, then every one at distance 2
FIRE_NEIGH1 = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]
FIRE_NEIGH2 = [
    (dr, dc) for dr in range(-2, 3) for dc in range(-2, 3) if max(abs(dr), abs(dc)) == 2
]


def draw_labels_dense(rule, features, land, rng):
    """One label draw with every uniform drawn: a seed raster, then a full
    contagion raster per offset, each read at every pixel."""
    q = rule.seed_probability(features, land)
    seeds = land & (rng.random(q.shape) < q)
    h, w = q.shape
    sp = np.pad(seeds, 2)  # seeds[r + dr, c + dc] is sp[2 + dr + r, 2 + dc + c]
    fire = seeds.copy()
    for (dr, dc), p in [(o, rule.spread_p1) for o in FIRE_NEIGH1] + [
        (o, rule.spread_p2) for o in FIRE_NEIGH2
    ]:
        fire |= sp[2 + dr : 2 + dr + h, 2 + dc : 2 + dc + w] & (rng.random(q.shape) < p)
    return fire & land


def fire_marginal_dense(rule, features, land):
    """The planted rule's exact fire marginal as one full product over every pixel.

    q = sigmoid(gain * (score - bias)) on land, 0 on water and off the raster;
    P(burn) = 1 - (1 - q) * prod over neighbors (1 - p * q[neighbor]). The
    products run on a flat row-major copy of q with a 2-wide zero border and
    a spare row, where neighbor (dr, dc) is a contiguous slice; the columns
    past the raster width are cut at the end.
    """
    fa = features[rule.channel_a].astype(np.float64)
    fb = features[rule.channel_b].astype(np.float64)
    fc = features[rule.channel_c].astype(np.float64)
    score = rule.coef_a * fa + rule.coef_b * fb * fc + rule.coef_c * fc * fc
    q = np.where(land, 1.0 / (1.0 + np.exp(-rule.gain * (score - rule.bias))), 0.0)
    h, w = q.shape
    row, span = w + 4, h * (w + 4)
    qp = np.zeros((h + 5, row))
    qp[2 : h + 2, 2 : w + 2] = q
    qp = qp.ravel()
    no_fire = 1.0 - qp[2 * row + 2 : 2 * row + 2 + span]
    f1 = 1.0 - rule.spread_p1 * qp
    f2 = 1.0 - rule.spread_p2 * qp
    for (dr, dc), f in [(o, f1) for o in FIRE_NEIGH1] + [(o, f2) for o in FIRE_NEIGH2]:
        off = (dr + 2) * row + dc + 2
        no_fire *= f[off : off + span]
    return np.where(land, 1.0 - no_fire.reshape(h, row)[:, :w], 0.0)


def expected_rate_dense(rule, stacks, land, bias):
    """The dense marginal's mean over every land pixel of every day, summed day by day."""
    r = replace(rule, bias=bias)
    total = sum(float(fire_marginal_dense(r, s, land)[land].sum()) for s in stacks)
    return total / (len(stacks) * int(land.sum()))


def calibrate_bias_dense(rule, stacks, land, target):
    """Bisect the bias on expected_rate_dense from [-30, 60].

    Stops once a step would leave both bounds where they are.
    """
    def rate(bias):
        return expected_rate_dense(rule, stacks, land, bias)

    lo, hi = -30.0, 60.0
    assert rate(lo) >= target >= rate(hi)
    while True:
        mid = 0.5 * (lo + hi)
        step = (mid, hi) if rate(mid) >= target else (lo, mid)
        if step == (lo, hi):
            return 0.5 * (lo + hi)
        lo, hi = step


def calibrate_bias_bisection(rule, stacks, land, target):
    """Bisect the bias on synthetic._expected_rate from [-30, 60], one evaluation per step.

    Checks the top of the range first and the bottom only when the lower
    bound never moved; stops once a step would leave both bounds where they
    are, or after 80 steps.
    """
    expected_rate = synthetic._expected_rate(rule, stacks, land)
    outside = "fire-rate target outside the calibratable range"
    if not target >= expected_rate(60.0):
        raise RuntimeError(outside)
    lo, hi = -30.0, 60.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        step = (mid, hi) if expected_rate(mid) >= target else (lo, mid)
        if step == (lo, hi):
            break
        lo, hi = step
    if lo == -30.0 and not expected_rate(lo) >= target:
        raise RuntimeError(outside)
    return 0.5 * (lo + hi)


def box1d_padded(a, radius, axis):
    """Running mean of width 2r + 1 along axis, edges repeated: np.pad, then a cumsum difference."""
    pad = [(0, 0)] * a.ndim
    pad[axis] = (radius + 1, radius)
    p = np.pad(a, pad, mode="edge")
    c = np.cumsum(p, axis=axis, dtype=np.float64)
    hi = [slice(None)] * a.ndim
    lo = [slice(None)] * a.ndim
    hi[axis] = slice(2 * radius + 1, None)
    lo[axis] = slice(0, a.shape[axis])
    return (c[tuple(hi)] - c[tuple(lo)]) / (2 * radius + 1)


def smooth_field_padded(rng, h, w, radius):
    """Standardized separable box blur (applied twice) of white noise, one fresh array per step."""
    field = rng.standard_normal((h, w))
    for _ in range(2):
        field = box1d_padded(box1d_padded(field, radius, 0), radius, 1)
    return (field - field.mean()) / field.std()


def param_count(config):
    """The U-Net's parameter count in closed form."""
    f, c = config.init_features, config.in_channels
    return 6809 * f * f + 9 * c * f + 94 * f + 2


def read_checkpoint_metrics(path):
    """The metrics row of a checkpoint's sidecar, by column; a header-only sidecar is a FormatError."""
    sidecar = checkpoint_metrics_path(path)
    with open(sidecar, newline="") as f:
        row = next(csv.DictReader(f), None)
    if row is None:
        raise FormatError(f"{sidecar}: no metrics row under the header")
    return {k: float(v) for k, v in row.items()}


def read_ppm(path):
    """The [H, W, 3] image of a binary PPM with max value 255; anything else is a FormatError naming path."""
    raw = Path(path).read_bytes()
    # magic, decimal width, height and maxval, then one whitespace byte; the
    # digit bound keeps int() within its string-length limit
    header = re.match(rb"P6\s+(\d{1,9})\s+(\d{1,9})\s+(\d{1,9})\s", raw)
    if header is None:
        raise FormatError(f"{path}: not a binary PPM (bad magic or header)")
    w, h, maxval = map(int, header.groups())
    if maxval != 255:
        raise FormatError(f"{path}: unsupported max value {maxval}")
    data = np.frombuffer(raw, np.uint8, offset=header.end())
    if data.size != h * w * 3:
        raise FormatError(f"{path}: payload size mismatch")
    return data.reshape(h, w, 3)


def render_prediction_masks(pred, truth):
    """Prediction panel with error overlay, one boolean-mask assignment per color."""
    rgb = np.zeros(truth.shape + (3,), np.uint8)
    fire = truth == 1
    land = truth != 2
    predf = pred.astype(bool)
    rgb[land & ~fire & ~predf] = PALETTE["no_fire"]
    rgb[fire & predf] = PALETTE["fire"]
    rgb[truth == 2] = PALETTE["water"]
    rgb[land & ~fire & predf] = PALETTE["false_positive"]
    rgb[fire & ~predf] = PALETTE["false_negative"]
    return rgb


def render_panels_masks(truth, pred):
    """Ground truth | prediction panels split by a 2-pixel white gutter, panel by panel."""
    left = render_prediction_masks(truth == 1, truth)
    right = render_prediction_masks(pred, truth)
    gap = np.full((truth.shape[0], 2, 3), PALETTE["gutter"], np.uint8)
    return np.concatenate([left, gap, right], axis=1)
