"""Dense-tensor kernels for the segmentation network.

Tensors are plain numpy arrays (float32 in the pipeline; the kernels are
dtype-preserving so tests may push float64 through the same code paths).
All ops are pure functions: forward kernels take inputs and parameters,
backward kernels take the same inputs plus the output gradient, nothing
is hidden in layer objects. Reductions run through numpy's sequential
loops / single-threaded BLAS in a fixed order, so identical inputs give
bitwise-identical outputs.

Convolution uses the cross-correlation convention (no kernel flip) and one
routine, a valid-window im2col GEMM (Chellapilla et al. 2006). The input is
copied once into a zero-padded channel-major buffer xp[C, N, H2, W2]. A
column matrix holds one row per (a, b, c), in that order (row
(a*kw + b)*C + c, tap-major like the weights reshaped from [Co, kh, kw, C]),
and one column per valid output position (image, i, j); no padding
position is ever a column. The batch is walked in blocks of whole images
whose columns fit BLOCK_BYTES, about a core's L2 cache: each block is
filled by one copy of a strided view of xp and read back by its GEMM while
it is still cached (the blocking argument of Goto & van de Geijn 2008).
Each block takes one GEMM with K = kh*kw*C, written straight into a
channel-major output [Co, N, Ho, Wo].

Every conv2d kernel has odd sides and pads by (kh // 2, kw // 2), so its
output keeps the input's spatial shape: 3x3 convs pad by 1, the 1x1 head
by 0. The backward rebuilds the same column blocks: d_weights accumulates
grad_block @ col_block.T block by block, and d_input is the same routine
applied to grad_out, padded by the same (kh // 2, kw // 2) and never
cropped, with the spatially flipped, in/out-transposed kernel.

Max pooling works on the four quarter views x[:, :, r::2, s::2] of the
2x2 windows, with no per-window argmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided


class ShapeError(ValueError):
    """Tensor dimensions do not line up; message names the offending axes."""


class ConfigError(ValueError):
    """Unsupported network configuration or input."""


# Extra finite-ness assertions after every kernel; cheap insurance for tests,
# off in production runs.
_strict = False


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
    stride-2 transposed convs; the kernel shape says which.
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weights.ndim != 4:
            raise ShapeError(f"weights must be 4-d [out,in,kh,kw], got {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match out_channels {self.weights.shape[0]}"
            )

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]


# Bytes of one column block: whole images, sized to stay in a core's L2 cache.
BLOCK_BYTES = 1 << 19


def _require_nchw(x: np.ndarray, name: str) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{name} must be 4-d [N,C,H,W], got shape {x.shape}")


def _require_conv_input(x: np.ndarray, k: ConvKernel) -> None:
    """x is an [N,C,H,W] batch with k's input channel count (forward and backward)."""
    _require_nchw(x, "input")
    if x.shape[1] != k.in_channels:
        raise ShapeError(f"input channel axis has {x.shape[1]} channels, kernel expects {k.in_channels}")


def _require_2x2(k: ConvKernel) -> None:
    if k.weights.shape[2:] != (2, 2):
        raise ShapeError("transposed conv takes 2x2 kernels, got {}x{}".format(*k.weights.shape[2:]))


def _same_padding(x: np.ndarray, w: np.ndarray) -> tuple[int, int]:
    """The shape-preserving padding (kh // 2, kw // 2) of an odd-sided kernel w over x."""
    _, _, kh, kw = w.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"kernel {kh}x{kw} has an even side; conv2d needs odd sides")
    if x.shape[2] == 0 or x.shape[3] == 0:
        raise ShapeError(f"spatial axes {x.shape[2]}x{x.shape[3]} are empty")
    return kh // 2, kw // 2


def _pad_channel_major(t: np.ndarray, ph: int, pw: int, dtype) -> np.ndarray:
    """t[N, C, H, W] as a channel-major buffer [C, N, H + 2ph, W + 2pw],
    zero-padded by ph rows and pw columns on each side."""
    n, c, h, w = t.shape
    out = np.zeros((c, n, h + 2 * ph, w + 2 * pw), dtype)
    out[:, :, ph : ph + h, pw : pw + w] = t.transpose(1, 0, 2, 3)
    return out


def _columns(xp: np.ndarray, kh: int, kw: int):
    """Column blocks of a padded channel-major xp[C, N, H2, W2], whole images at a time.

    Yields (lo, hi, col) with col[(a*kw + b)*C + c, q - lo] = xp[c, image, i + a, j + b]
    for the valid output positions q = image*Ho*Wo + i*Wo + j in [lo, hi). All
    blocks share one buffer of at most BLOCK_BYTES (or one image, if larger).
    """
    c, n, h2, w2 = xp.shape
    ho, wo = h2 - kh + 1, w2 - kw + 1
    per_image = kh * kw * c * ho * wo * xp.itemsize
    nb = max(1, min(n, BLOCK_BYTES // per_image))
    buf = np.empty((kh, kw, c, nb, ho, wo), xp.dtype)
    sc, sn, sh, sw = xp.strides
    for s in range(0, n, nb):
        m = min(nb, n - s)
        # one copy of the strided view [a, b, c, image, i, j] = xp[c, s + image, i + a, j + b]
        buf[:, :, :, :m] = as_strided(xp[:, s:], (kh, kw, c, m, ho, wo), (sh, sw, sc, sn, sh, sw))
        yield s * ho * wo, (s + m) * ho * wo, buf.reshape(-1, nb * ho * wo)[:, : m * ho * wo]


def _correlate(xp: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Valid-window cross-correlation of xp[Ci, N, H2, W2] with w[Co, Ci, kh, kw]:
    out[Co, N, Ho, Wo], one GEMM per column block."""
    co, _, kh, kw = w.shape
    _, n, h2, w2 = xp.shape
    wm = np.ascontiguousarray(w.transpose(0, 2, 3, 1), dtype=xp.dtype).reshape(co, -1)
    out = np.empty((co, n, h2 - kh + 1, w2 - kw + 1), xp.dtype)
    flat = out.reshape(co, -1)
    for lo, hi, col in _columns(xp, kh, kw):
        np.matmul(wm, col, out=flat[:, lo:hi])
    return out


def conv2d_forward(x: np.ndarray, k: ConvKernel) -> np.ndarray:
    """Shape-preserving 2-d cross-correlation of an [N,Cin,H,W] batch with bias
    (a strided NCHW view)."""
    _require_conv_input(x, k)
    ph, pw = _same_padding(x, k.weights)
    out = _correlate(_pad_channel_major(x, ph, pw, np.result_type(x, k.weights)), k.weights)
    out += k.bias[:, None, None, None]
    return _checked(out.transpose(1, 0, 2, 3))


def conv2d_backward(
    x: np.ndarray, k: ConvKernel, grad_out: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients (d_input, d_weights, d_bias) of conv2d_forward.

    With input_grad=False the d_input correlation is skipped and d_input is
    None (the network input needs no gradient); d_weights and d_bias are
    the same bits either way.
    """
    _require_conv_input(x, k)
    co, ci, kh, kw = k.weights.shape
    n, _, h, w = x.shape
    if grad_out.shape != (n, co, h, w):
        raise ShapeError(
            f"grad_output shape {grad_out.shape} does not match forward output {(n, co, h, w)}"
        )
    ph, pw = _same_padding(x, k.weights)

    dtype = np.result_type(x, k.weights)
    g = _pad_channel_major(grad_out, 0, 0, dtype).reshape(co, -1)
    d_weights = np.zeros((co, kh * kw * ci), dtype)
    for lo, hi, col in _columns(_pad_channel_major(x, ph, pw, dtype), kh, kw):
        d_weights += g[:, lo:hi] @ col.T
    d_bias = grad_out.sum(axis=(0, 2, 3), dtype=np.float64).astype(x.dtype)
    d_weights = _checked(np.ascontiguousarray(d_weights.reshape(co, kh, kw, ci).transpose(0, 3, 1, 2)))
    if not input_grad:
        return None, d_weights, d_bias
    gp = _pad_channel_major(grad_out, ph, pw, dtype)
    d_input = _correlate(gp, k.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return _checked(np.ascontiguousarray(d_input.transpose(1, 0, 2, 3))), d_weights, d_bias


def conv_transpose2d_forward(x: np.ndarray, k: ConvKernel) -> np.ndarray:
    """Stride-2 transposed convolution with a 2x2 kernel: exact 2x upsampling."""
    _require_2x2(k)
    _require_conv_input(x, k)
    co = k.out_channels
    n, _, h, w = x.shape
    # out[n,o,2y+a,2x+b] = bias[o] + sum_i x[n,i,y,x] * W[o,i,a,b]
    t = np.tensordot(x, k.weights, axes=([1], [1]))  # (N,H,W,Co,2,2)
    # the reshape of the transposed t copies it (t is a temporary either way)
    out = t.transpose(0, 3, 1, 4, 2, 5).reshape(n, co, 2 * h, 2 * w)
    out += k.bias[None, :, None, None]
    return _checked(out)


def conv_transpose2d_backward(
    x: np.ndarray, k: ConvKernel, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_input, d_weights, d_bias) of the 2x2 stride-2 transposed conv."""
    _require_2x2(k)
    _require_conv_input(x, k)
    co = k.out_channels
    n, _, h, w = x.shape
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
    # quarter t = 2r + s, copied once: the passes below run far faster on
    # contiguous data than on the strided views
    q = np.stack([x[:, :, r::2, s::2] for r in (0, 1) for s in (0, 1)])
    top = np.maximum(np.maximum(q[0], q[1]), np.maximum(q[2], q[3]))
    bits = q.view(f"u{q.itemsize}")
    out = np.zeros(top.shape, bits.dtype)
    idx = np.zeros(top.shape, np.int8)
    # the output takes the bits of the first quarter equal to the max: np.maximum
    # may return either of -0.0 and 0.0, the first one scanned must win
    pending = np.ones(top.shape, bool)  # no earlier quarter equal to the max yet
    for t in range(4):
        first = (q[t] == top) & pending
        pending ^= first
        out |= bits[t] * first
        idx |= np.int8(t) * first
    return _checked(out.view(q.dtype)), idx


def maxpool2x2_backward(idx: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Route each pooled gradient back to its argmax source position."""
    if idx.shape != grad_out.shape:
        raise ShapeError(f"argmax indices {idx.shape} do not match grad_output {grad_out.shape}")
    n, c, oh, ow = grad_out.shape
    out = np.empty((n, c, 2 * oh, 2 * ow), grad_out.dtype)
    for t in range(4):
        np.multiply(idx == t, grad_out, out=out[:, :, t // 2 :: 2, t % 2 :: 2])
    return out


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Pass gradient where input > 0; subgradient 0 at exactly 0."""
    if x.shape != grad_out.shape:
        raise ShapeError(f"input {x.shape} and grad_output {grad_out.shape} differ")
    # a bit select, the bits of np.where(x > 0, grad_out, 0): AND with all ones or with 0
    word = np.dtype(f"i{grad_out.itemsize}")
    return (grad_out.view(word) & -(x > 0).astype(word)).view(grad_out.dtype)


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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState, lr: float, t: int
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update (Kingma & Ba defaults); t is the 1-based step count."""
    if t < 1:
        raise ValueError("Adam step count t must be >= 1")
    if not (len(params) == len(grads) == len(state.m) == len(state.v)):
        raise ShapeError("params, grads and optimizer state lengths differ")
    new_params, new_m, new_v = [], [], []
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeError(f"parameter {p.shape} and gradient {g.shape} differ")
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * np.square(g)
        update = (lr / c1) * m / (np.sqrt(v / c2) + ADAM_EPS)
        new_params.append(_checked((p - update).astype(p.dtype, copy=False)))
        new_m.append(m.astype(p.dtype, copy=False))
        new_v.append(v.astype(p.dtype, copy=False))
    return new_params, AdamState(new_m, new_v)
