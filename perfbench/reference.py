"""Independent float64 reference of the network, loss and optimiser step.

The benchmark's correctness checks compare fireseg's outputs with these,
so a kernel that is wrong but deterministic still fails a run. Nothing
here calls fireseg code: the network is written out from the
architecture in `fireseg.unet`'s docstring, as direct per-tap
correlations instead of im2col, and every parameter is read from
`UNetParams.kernels` by layer name.

Each `check_*` function returns the failures it found, one line each.
"""

from __future__ import annotations

import numpy as np

DEPTH = 4


def conv3x3(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Zero-padded 3x3 cross-correlation, one tap at a time."""
    n, _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.broadcast_to(b[None, :, None, None], (n, w.shape[0], h, wd)).copy()
    for dy in range(3):
        for dx in range(3):
            out += np.einsum("nchw,oc->nohw", xp[:, :, dy : dy + h, dx : dx + wd], w[:, :, dy, dx])
    return out


def conv1x1(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0]) + b[None, :, None, None]


def up2x2(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2x2 stride-2 transposed conv: out[2y+a, 2x+b] = bias + sum_i x[i, y, x] w[o, i, a, b]."""
    n, _, h, wd = x.shape
    out = np.empty((n, w.shape[0], 2 * h, 2 * wd))
    for a in range(2):
        for c in range(2):
            out[:, :, a::2, c::2] = np.einsum("nihw,oi->nohw", x, w[:, :, a, c]) + b[None, :, None, None]
    return out


def maxpool(x: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def weights(params) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Layer name -> (weights, bias) in float64."""
    return {
        name: (k.weights.astype(np.float64), k.bias.astype(np.float64))
        for name, k in params.kernels.items()
    }


def forward(ws: dict[str, tuple[np.ndarray, np.ndarray]], x: np.ndarray) -> np.ndarray:
    """Logits [N, 2, H, W] of the encoder-decoder network, in float64."""
    x = x.astype(np.float64)
    skips = []
    for i in range(1, DEPTH + 1):
        x = relu(conv3x3(x, *ws[f"enc{i}_conv1"]))
        x = relu(conv3x3(x, *ws[f"enc{i}_conv2"]))
        skips.append(x)
        x = maxpool(x)
    x = relu(conv3x3(x, *ws["bottleneck_conv1"]))
    x = relu(conv3x3(x, *ws["bottleneck_conv2"]))
    for i in range(DEPTH, 0, -1):
        up = up2x2(x, *ws[f"dec{i}_up"])
        x = relu(conv3x3(np.concatenate([skips[i - 1], up], axis=1), *ws[f"dec{i}_conv"]))
    return conv1x1(x, *ws["head"])


def weighted_ce(logits: np.ndarray, target: np.ndarray, class_weights) -> tuple[float, np.ndarray]:
    """Mean over non-water pixels of w[label] * -log softmax[label], and its gradient."""
    z = logits.astype(np.float64)
    counted = target != 2
    label = np.where(counted, target, 0)
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p_true = np.where(label == 1, p[:, 1], p[:, 0])
    wpix = np.where(label == 1, class_weights[1], class_weights[0]) * counted
    n = counted.sum()
    loss = float(-(wpix * np.log(p_true)).sum() / n)
    onehot = np.stack([label == 0, label == 1], axis=1)
    return loss, wpix[:, None] * (p - onehot) / n


def _close(got, want, rtol: float) -> bool:
    got, want = np.asarray(got, np.float64), np.asarray(want, np.float64)
    return bool(np.all(np.isfinite(got))) and float(np.abs(got - want).max()) <= rtol * max(
        float(np.abs(want).max()), 1e-12
    )


def check_forward(U, params, x: np.ndarray, rtol: float = 1e-3) -> list[str]:
    """fireseg `U.forward` logits against the reference on the same batch."""
    got, _ = U.forward(params, x)
    if _close(got, forward(weights(params), x), rtol):
        return []
    return [f"unet.forward logits differ from the float64 reference by more than {rtol} of their scale"]


def check_train_step(U, K, params, x: np.ndarray, target: np.ndarray, seed: int) -> list[str]:
    """One train step through fireseg's public API against the reference.

    - `K.weighted_ce_loss`: value and gradient against `weighted_ce`;
    - `U.backward`: for every layer, the gradient along a random direction
      of its weights and bias against a central difference of the
      reference forward, of the objective sum(logits * g) with the loss
      gradient g held fixed;
    - `K.adam_step`: the first update from a zero state against the
      bias-corrected Adam formula.
    """
    failures = []
    class_weights = (1.0, 4.0)
    logits, cache = U.forward(params, x, training=True)
    loss = K.weighted_ce_loss(logits, target, class_weights)
    ref_loss, ref_grad = weighted_ce(logits, target, class_weights)
    if not (_close(loss.loss, ref_loss, 1e-5) and _close(loss.grad_logits, ref_grad, 1e-4)):
        failures.append("kernels.weighted_ce_loss differs from the reference loss or its gradient")
    g = loss.grad_logits.astype(np.float64)
    grads = U.backward(params, cache, loss.grad_logits)

    ws = weights(params)
    rng = np.random.default_rng(seed)
    eps = 1e-6
    for j, name in enumerate(params.kernels):
        w, b = ws[name]
        dw, db = rng.standard_normal(w.shape), rng.standard_normal(b.shape)
        analytic = float((grads[2 * j] * dw).sum() + (grads[2 * j + 1] * db).sum())
        scale = float(np.abs(grads[2 * j] * dw).sum() + np.abs(grads[2 * j + 1] * db).sum())
        plus, minus = dict(ws), dict(ws)
        plus[name] = (w + eps * dw, b + eps * db)
        minus[name] = (w - eps * dw, b - eps * db)
        numeric = float(((forward(plus, x) - forward(minus, x)) * g).sum() / (2 * eps))
        if not np.isfinite(analytic) or abs(analytic - numeric) > 1e-3 * max(scale, 1e-12):
            failures.append(
                f"unet.backward gradient of {name} along a random direction is {analytic:.6g}, "
                f"a central difference of the reference gives {numeric:.6g}"
            )

    tensors = params.tensors()
    lr = 1e-3
    stepped, _ = K.adam_step(tensors, grads, K.AdamState.zeros_like(tensors), lr=lr, t=1)
    for p, gr, new in zip(tensors, grads, stepped):
        gr = gr.astype(np.float64)
        # t=1 from zero moments: m_hat = g, v_hat = g^2
        want = p - lr * gr / (np.abs(gr) + 1e-8)
        if not _close(new - p, want - p, 1e-3):
            failures.append("kernels.adam_step differs from the bias-corrected Adam update")
            break
    return failures
