"""Dense-tensor kernels for the segmentation network.

Tensors are plain numpy arrays (float32 in the pipeline; the kernels are
dtype-preserving so tests may push float64 through the same code paths).
All ops are pure functions: forward kernels take inputs and parameters,
backward kernels take the same inputs plus the output gradient, nothing
is hidden in layer objects. Reductions run through numpy's sequential
loops / single-threaded BLAS in a fixed order, so identical inputs give
bitwise-identical outputs.

Convolution uses the cross-correlation convention (no kernel flip) and
shift-and-accumulate GEMMs (Anderson et al. 2017, arXiv:1709.03395), with
no column matrix: the input is copied once into a zero-padded channel-major
buffer xf[C, N*H2*W2], where kernel tap (a, b) is the column offset
a*W2 + b. Forward and both backward products take one GEMM per tap, in
row-major (a, b) order, on the slice of xf (or of grad_out placed on the
same padded grid) at that offset.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Tensor dimensions do not line up; message names the offending axes."""


class ConfigError(ValueError):
    """Unsupported kernel configuration (stride/padding combination)."""


# Extra finite-ness assertions after every kernel; cheap insurance for tests,
# off by default in production runs.
_strict = os.environ.get("FIRESEG_DEBUG", "") not in ("", "0")


def set_strict_checks(enabled: bool) -> None:
    global _strict
    _strict = bool(enabled)


def _checked(arr: np.ndarray) -> np.ndarray:
    if _strict and not np.all(np.isfinite(arr)):
        raise FloatingPointError("kernel produced non-finite values")
    return arr


@dataclass(frozen=True)
class ConvKernel:
    """Learnable convolution parameters.

    weights: [out_channels, in_channels, kh, kw], bias: [out_channels].
    The same container serves 3x3 convs, the 1x1 head and the 2x2
    stride-2 transposed convs.
    """

    weights: np.ndarray
    bias: np.ndarray
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.weights.ndim != 4:
            raise ShapeError(f"weights must be 4-d [out,in,kh,kw], got {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match out_channels {self.weights.shape[0]}"
            )
        if self.stride < 1 or self.padding < 0:
            raise ConfigError(f"invalid stride={self.stride} padding={self.padding}")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]


def _require_nchw(x: np.ndarray, name: str) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{name} must be 4-d [N,C,H,W], got shape {x.shape}")


def _shift_setup(x: np.ndarray, k: ConvKernel) -> tuple[np.ndarray, list, int]:
    """(xf, taps, span): taps are ([Co, Ci] matrix W[:, :, a, b], offset a*W2 + b)
    in row-major order; a window may start at padded-grid columns [0, span)."""
    n, c, h, w = x.shape
    _, _, kh, kw = k.weights.shape
    p = k.padding
    dtype = np.result_type(x, k.weights)
    xf = np.zeros((c, n, h + 2 * p, w + 2 * p), dtype)
    xf[:, :, p : p + h, p : p + w] = x.transpose(1, 0, 2, 3)
    wt = np.ascontiguousarray(k.weights.transpose(2, 3, 0, 1), dtype=dtype)
    taps = [(wt[a, b], a * (w + 2 * p) + b) for a in range(kh) for b in range(kw)]
    return xf.reshape(c, -1), taps, max(xf[0].size - taps[-1][1], 0)


def conv2d_forward(x: np.ndarray, k: ConvKernel) -> np.ndarray:
    """2-d cross-correlation of an [N,Cin,H,W] batch with bias (a strided NCHW view)."""
    _require_nchw(x, "input")
    co, ci, kh, kw = k.weights.shape
    n, c, h, w = x.shape
    if c != ci:
        raise ShapeError(f"input channel axis has {c} channels, kernel expects {ci}")
    h2, w2 = h + 2 * k.padding, w + 2 * k.padding
    if h2 < kh or w2 < kw:
        raise ShapeError(f"spatial axes {h}x{w} (padding {k.padding}) smaller than kernel {kh}x{kw}")
    xf, taps, span = _shift_setup(x, k)
    out = np.zeros((co, xf.shape[1]), xf.dtype)
    tmp = np.empty((co, span), xf.dtype)
    for wab, off in taps:
        out[:, :span] += np.matmul(wab, xf[:, off : off + span], out=tmp)
    out += k.bias[:, None]
    out = out.reshape(co, n, h2, w2)[:, :, : h2 - kh + 1 : k.stride, : w2 - kw + 1 : k.stride]
    return _checked(out.transpose(1, 0, 2, 3))


def conv2d_backward(
    x: np.ndarray, k: ConvKernel, grad_out: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients (d_input, d_weights, d_bias) of a stride-1 conv2d.

    With input_grad=False the d_input products are skipped and d_input is
    None (the network input needs no gradient); d_weights and d_bias are
    the same bits either way.
    """
    if k.stride != 1:
        raise ConfigError("conv2d_backward supports stride 1 only")
    co, ci, kh, kw = k.weights.shape
    n, c, h, w = x.shape
    p = k.padding
    expect = (n, co, h + 2 * p - kh + 1, w + 2 * p - kw + 1)
    if grad_out.shape != expect:
        raise ShapeError(f"grad_output shape {grad_out.shape} does not match forward output {expect}")

    xf, taps, span = _shift_setup(x, k)
    g = np.zeros((co, n, h + 2 * p, w + 2 * p), xf.dtype)  # column q: window starting at q
    g[:, :, : expect[2], : expect[3]] = grad_out.transpose(1, 0, 2, 3)
    g = g.reshape(co, -1)[:, :span]
    d_weights = np.empty((kh, kw, co, ci), xf.dtype)
    for t, (wab, off) in enumerate(taps):
        np.matmul(g, xf[:, off : off + span].T, out=d_weights[divmod(t, kw)])
    d_bias = grad_out.sum(axis=(0, 2, 3), dtype=np.float64).astype(x.dtype)
    d_weights = _checked(np.ascontiguousarray(d_weights.transpose(2, 3, 0, 1)))
    if not input_grad:
        return None, d_weights, d_bias
    dxf = np.zeros_like(xf)
    tmp = np.empty((ci, span), xf.dtype)
    for wab, off in taps:
        dxf[:, off : off + span] += np.matmul(wab.T, g, out=tmp)
    d_input = dxf.reshape(ci, n, h + 2 * p, w + 2 * p)[:, :, p : p + h, p : p + w].transpose(1, 0, 2, 3)
    return _checked(np.ascontiguousarray(d_input)), d_weights, d_bias


def conv_transpose2d_forward(x: np.ndarray, k: ConvKernel) -> np.ndarray:
    """Stride-2 transposed convolution with a 2x2 kernel: exact 2x upsampling."""
    _require_nchw(x, "input")
    co, ci, kh, kw = k.weights.shape
    if k.stride != 2 or k.padding != 0 or (kh, kw) != (2, 2):
        raise ConfigError("transposed conv supports stride=2, padding=0, 2x2 kernels only")
    n, c, h, w = x.shape
    if c != ci:
        raise ShapeError(f"input channel axis has {c} channels, kernel expects {ci}")
    # out[n,o,2y+a,2x+b] = bias[o] + sum_i x[n,i,y,x] * W[o,i,a,b]
    t = np.tensordot(x, k.weights, axes=([1], [1]))  # (N,H,W,Co,2,2)
    out = t.transpose(0, 3, 1, 4, 2, 5).reshape(n, co, 2 * h, 2 * w).copy()
    out += k.bias[None, :, None, None]
    return _checked(out)


def conv_transpose2d_backward(
    x: np.ndarray, k: ConvKernel, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_input, d_weights, d_bias) of the 2x2 stride-2 transposed conv."""
    co, ci, _, _ = k.weights.shape
    n, c, h, w = x.shape
    if grad_out.shape != (n, co, 2 * h, 2 * w):
        raise ShapeError(
            f"grad_output shape {grad_out.shape} does not match forward output {(n, co, 2*h, 2*w)}"
        )
    g6 = grad_out.reshape(n, co, h, 2, w, 2).transpose(0, 2, 4, 1, 3, 5)  # (N,H,W,Co,2,2)
    d_input = np.tensordot(g6, k.weights, axes=([3, 4, 5], [0, 2, 3])).transpose(0, 3, 1, 2)
    d_weights = np.tensordot(
        g6, x, axes=([0, 1, 2], [0, 2, 3])
    ).transpose(0, 3, 1, 2)  # (Co,2,2,Ci) -> (Co,Ci,2,2)
    d_bias = grad_out.sum(axis=(0, 2, 3), dtype=np.float64).astype(x.dtype)
    return (
        _checked(np.ascontiguousarray(d_input)),
        _checked(np.ascontiguousarray(d_weights)),
        d_bias,
    )


def maxpool2x2_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 max pooling.

    Returns the pooled tensor and window-local argmax indices (0..3 in
    row-major window order; ties go to the first position scanned), which
    the backward pass uses to route gradients deterministically.
    """
    _require_nchw(x, "input")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"spatial axes must be even for 2x2 pooling, got {h}x{w}")
    flat = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
        n, c, h // 2, w // 2, 4
    )
    idx = flat.argmax(axis=-1).astype(np.int8)
    out = np.take_along_axis(flat, idx[..., None].astype(np.int64), axis=-1)[..., 0]
    return _checked(np.ascontiguousarray(out)), idx


def maxpool2x2_backward(idx: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Route each pooled gradient back to its argmax source position."""
    if idx.shape != grad_out.shape:
        raise ShapeError(f"argmax indices {idx.shape} do not match grad_output {grad_out.shape}")
    n, c, oh, ow = grad_out.shape
    scatter = (idx[..., None] == np.arange(4, dtype=np.int8)) * grad_out[..., None]
    return np.ascontiguousarray(
        scatter.reshape(n, c, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, 2 * oh, 2 * ow)
    )


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Pass gradient where input > 0; subgradient 0 at exactly 0."""
    if x.shape != grad_out.shape:
        raise ShapeError(f"input {x.shape} and grad_output {grad_out.shape} differ")
    return np.where(x > 0, grad_out, 0).astype(grad_out.dtype, copy=False)


def concat_channels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Concatenate two NCHW tensors along the channel axis."""
    _require_nchw(a, "first input")
    _require_nchw(b, "second input")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"batch/spatial axes differ: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=1)


def split_channels(grad_out: np.ndarray, ca: int) -> tuple[np.ndarray, np.ndarray]:
    """Backward of concat_channels: split grad at the first input's channel count."""
    if not 0 <= ca <= grad_out.shape[1]:
        raise ShapeError(f"split point {ca} outside channel axis of size {grad_out.shape[1]}")
    return (
        np.ascontiguousarray(grad_out[:, :ca]),
        np.ascontiguousarray(grad_out[:, ca:]),
    )


def softmax2(logits: np.ndarray) -> np.ndarray:
    """Per-pixel softmax over the 2-class channel axis, max-subtracted."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


IGNORE_LABEL = 2  # water / invalid pixels: no loss, no gradient, no metrics


@dataclass(frozen=True)
class LossResult:
    loss: float
    grad_logits: np.ndarray
    counted: int  # non-ignored pixels; 0 flags a fully-ignored batch


def weighted_ce_loss(
    logits: np.ndarray, target: np.ndarray, class_weights: tuple[float, float]
) -> LossResult:
    """Class-weighted cross-entropy over non-ignored pixels.

    loss = mean over counted pixels of w[label] * (-log softmax[label]);
    pixels labeled 2 contribute nothing. The gradient is d loss / d logits
    for minimization. Accumulation runs in float64.
    """
    _require_nchw(logits, "logits")
    n, nc, h, w = logits.shape
    if nc != 2:
        raise ShapeError(f"logits must have 2 class channels, got {nc}")
    if target.shape != (n, h, w):
        raise ShapeError(f"target shape {target.shape} does not match logits {(n, h, w)}")
    w0, w1 = float(class_weights[0]), float(class_weights[1])
    if w0 <= 0 or w1 <= 0:
        raise ValueError(f"class weights must be positive, got {(w0, w1)}")
    if target.min() < 0 or target.max() > 2:
        raise ValueError("target labels must be in {0,1,2}")

    valid = target != IGNORE_LABEL
    counted = int(valid.sum())
    if counted == 0:
        return LossResult(0.0, np.zeros_like(logits), 0)

    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    esum = e.sum(axis=1)  # (N,H,W)
    lse = np.log(esum)
    cls = np.where(valid, target, 0).astype(np.int64)
    logp = np.take_along_axis(z, cls[:, None], axis=1)[:, 0] - lse
    wpix = np.where(cls == 1, w1, w0) * valid
    loss = float(-np.sum(wpix * logp, dtype=np.float64) / counted)

    probs = e / esum[:, None]  # softmax2(logits), without a second exp
    onehot = cls[:, None] == np.arange(2).reshape(1, 2, 1, 1)
    grad = (wpix[:, None] * (probs - onehot) / counted).astype(logits.dtype)
    return LossResult(loss, _checked(grad), counted)


@dataclass
class AdamState:
    """First/second moment estimates, one pair per parameter tensor."""

    m: list[np.ndarray]
    v: list[np.ndarray]

    @classmethod
    def zeros_like(cls, params: list[np.ndarray]) -> "AdamState":
        return cls([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
    t: int,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update; t is the 1-based step count."""
    if t < 1:
        raise ValueError("Adam step count t must be >= 1")
    if not (len(params) == len(grads) == len(state.m) == len(state.v)):
        raise ShapeError("params, grads and optimizer state lengths differ")
    new_params, new_m, new_v = [], [], []
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeError(f"parameter {p.shape} and gradient {g.shape} differ")
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * np.square(g)
        update = (lr / c1) * m / (np.sqrt(v / c2) + eps)
        new_params.append(_checked((p - update).astype(p.dtype, copy=False)))
        new_m.append(m.astype(p.dtype, copy=False))
        new_v.append(v.astype(p.dtype, copy=False))
    return new_params, AdamState(new_m, new_v)
