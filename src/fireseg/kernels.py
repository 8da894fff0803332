"""Dense-tensor kernels for the segmentation network.

Tensors are plain numpy arrays (float32 in the pipeline; the kernels are
dtype-preserving so tests may push float64 through the same code paths).
All ops are pure functions: forward kernels take inputs and parameters,
backward kernels take the same inputs plus the output gradient, nothing
is hidden in layer objects. Reductions run through numpy's sequential
loops / single-threaded BLAS in a fixed order, so identical inputs give
bitwise-identical outputs.

Activations keep the logical shape [N, C, H, W], but the kernels work in
and return channels-last memory, [N, H, W, C] bytes behind that shape
(PyTorch's channels_last): one layer's output feeds the next as it is.

Convolution is cross-correlation as one valid-window im2col GEMM
(Chellapilla et al. 2006) on the input copied into a zero-padded
xp[N, H2, W2, C]. A column block has a row per output position (image,
i, j) and a column per tap and channel, (a*kw + b)*C + c: kh runs of
kw*C values of xp, each copied as one element. Blocks of whole images
fit BLOCK_BYTES, about a core's L2 cache, and are read by their GEMM
while still cached (Goto & van de Geijn 2008): col @ W[kh*kw*Ci, Co]
writes straight into the rows of the [N, Ho, Wo, Co] output. Odd kernel
sides pad by (kh // 2, kw // 2), so the output keeps the input's spatial
shape. A narrow conv (Co <= 16, kw > 1, even Wo) puts two output pixels in
a row (image, i, j/2): kh runs of (kw+1)*C values at column step 2, times
W'[kh*(kw+1)*Ci, 2*Co], zero where a pixel's taps end. Its N = 2*Co fills
more of a BLAS register tile and the fill copies 2/3 of the bytes; from
Co = 32 on, N is wide enough and the zero taps cost more than they save.
The backward fills the padded grad_out's columns once per block for two
GEMMs: d_input = col @ W_flip (the flipped, in/out-transposed kernel), and
d_weights, taps flipped, sums x_rows.T @ col over the unpadded input rows
(2*ph = kh - 1, so grad_out's windows are the forward's seen from x).
The 2x2 stride-2 transposed conv is one GEMM
x[N*H*W, Ci] @ W[Ci, 4*Co] and an interleave in runs of 2*Co values. Max
pooling works on the four quarter views x[:, r::2, s::2, :] of the 2x2
windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Tensor dimensions do not line up; message names the offending axes."""


class ConfigError(ValueError):
    """Unsupported network configuration or input."""


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


def _nhwc(t: np.ndarray, ph: int = 0, pw: int = 0, dtype=None) -> np.ndarray:
    """The C-contiguous [N, H + 2ph, W + 2pw, C] bytes of an NCHW-shaped t, zero-padded
    on each side (no copy if t is channels-last and unpadded)."""
    if ph == pw == 0:
        return np.ascontiguousarray(t.transpose(0, 2, 3, 1), dtype)
    n, c, h, w = t.shape
    out = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype)
    out[:, ph : ph + h, pw : pw + w] = t.transpose(0, 2, 3, 1)
    return out


def _nchw(t: np.ndarray) -> np.ndarray:
    return t.transpose(0, 3, 1, 2)  # an [N, H, W, C] buffer as NCHW


def channels_last(t: np.ndarray) -> np.ndarray:
    """t with its shape and values, stored [N, H, W, C] (no copy if it already is)."""
    return _nchw(_nhwc(t))


def _columns(xp: np.ndarray, kh: int, taps: int, step: int = 1):
    """Column blocks of a padded xp[N, H2, W2, C], whole images at a time: yields
    (lo, hi, col), col[r - lo, (a*taps + b)*C + c] = xp[image, i + a, step*j + b, c]
    for the rows r = image*Ho*Wo + i*Wo + j in [lo, hi), in one shared buffer."""
    n, h2, w2, c = xp.shape
    ho, wo = h2 - kh + 1, (w2 - taps) // step + 1
    if kh == taps == 1:
        yield 0, n * ho * wo, xp.reshape(-1, c)
        return
    per_image = ho * wo * kh * taps * c * xp.itemsize
    nb = max(1, min(n, BLOCK_BYTES // per_image))
    buf = np.empty((nb, ho, wo, kh, taps * c), xp.dtype)
    # a run of taps*C values, the taps b of one row a, copied as one element
    run = np.dtype((np.void, taps * c * xp.itemsize))
    sn, sh, sw, _ = xp.strides
    runs = np.ndarray((n, ho, wo, kh), run, xp, 0, (sn, sh, step * sw, sh))  # runs[image, i, j, a]
    for s in range(0, n, nb):
        m = min(nb, n - s)
        buf[:m].view(run)[..., 0] = runs[s : s + m]
        yield s * ho * wo, (s + m) * ho * wo, buf[:m].reshape(m * ho * wo, -1)


def _correlate(xp: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Valid-window cross-correlation of xp[N, H2, W2, Ci] with w[Co, Ci, kh, kw]:
    out[N, Ho, Wo, Co], one GEMM per column block, p output pixels per row."""
    co, ci, kh, kw = w.shape
    n, h2, w2, _ = xp.shape
    ho, wo = h2 - kh + 1, w2 - kw + 1
    p = 2 if co <= 16 and kw > 1 and wo % 2 == 0 else 1
    # wm[(a, b', c), (q, o)] = w[o, c, a, b' - q]: pixel q of a row reads taps q..q+kw-1
    wm = np.zeros((kh, kw + p - 1, ci, p, co), xp.dtype)
    for q in range(p):
        wm[:, q : q + kw, :, q] = w.transpose(2, 3, 1, 0)
    wm = wm.reshape(-1, p * co)
    out = np.empty((n, ho, wo, co), xp.dtype)
    rows = out.reshape(-1, p * co)  # rows[(image, i, j/p), (q, o)] = out[image, i, j + q, o]
    for lo, hi, col in _columns(xp, kh, kw + p - 1, p):
        np.matmul(col, wm, out=rows[lo:hi])
    return out


def _channel_sums(t: np.ndarray, n: int, c: int, dtype) -> np.ndarray:
    """Float64 sums per channel of a channels-last t of n images, over the images first."""
    per_image = t.reshape(max(n, 1), -1).sum(axis=0, dtype=np.float64)  # long contiguous passes
    return per_image.reshape(-1, c).sum(axis=0).astype(dtype)


def conv2d_forward(x: np.ndarray, k: ConvKernel) -> np.ndarray:
    """Shape-preserving 2-d cross-correlation of an [N,Cin,H,W] batch with bias."""
    _require_conv_input(x, k)
    ph, pw = _same_padding(x, k.weights)
    out = _correlate(_nhwc(x, ph, pw, np.result_type(x, k.weights)), k.weights)
    out += k.bias
    return _nchw(out)


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
    x_rows = _nhwc(x, dtype=dtype).reshape(-1, ci)
    # w_flip[(a', b', o), c] = w[o, c, kh-1-a', kw-1-b']; d_flip[c, (a', b', o)] is its gradient
    w_flip = np.asarray(k.weights[:, :, ::-1, ::-1].transpose(2, 3, 0, 1), dtype).reshape(-1, ci)
    d_input = np.empty((n, h, w, ci), dtype) if input_grad else None
    d_flip = np.zeros((ci, kh * kw * co), dtype)
    for lo, hi, col in _columns(_nhwc(grad_out, ph, pw, dtype), kh, kw):
        if input_grad:
            np.matmul(col, w_flip, out=d_input.reshape(-1, ci)[lo:hi])
        d_flip += x_rows[lo:hi].T @ col
    d_weights = d_flip.reshape(ci, kh, kw, co)[:, ::-1, ::-1].transpose(3, 0, 1, 2).copy()
    d_bias = _channel_sums(_nhwc(grad_out, dtype=dtype), n, co, x.dtype)
    return (None if d_input is None else _nchw(d_input)), d_weights, d_bias


def _taps(k: ConvKernel, dtype) -> np.ndarray:
    """2x2 kernel weights[o, i, a, b] as the matrix W[i, (a*2 + b)*Co + o]."""
    return np.ascontiguousarray(k.weights.transpose(1, 2, 3, 0), dtype).reshape(k.in_channels, -1)


def conv_transpose2d_forward(x: np.ndarray, k: ConvKernel) -> np.ndarray:
    """Stride-2 transposed convolution with a 2x2 kernel: exact 2x upsampling."""
    _require_2x2(k)
    _require_conv_input(x, k)
    n, ci, h, w = x.shape
    co = k.out_channels
    dtype = np.result_type(x, k.weights)
    # t[(image, y, x), (a, b, o)] = sum_i x[image, i, y, x] * W[o, i, a, b]
    t = (_nhwc(x, dtype=dtype).reshape(-1, ci) @ _taps(k, dtype)).reshape(n, h, w, 2, 2 * co)
    out = np.empty((n, 2 * h, 2 * w, co), dtype)
    # out[image, 2y + a, 2x + b, o] = t + bias[o], moved in runs of (b, o)
    np.add(t.transpose(0, 1, 3, 2, 4), np.tile(k.bias, 2), out=out.reshape(n, h, 2, w, 2 * co))
    return _nchw(out)


def conv_transpose2d_backward(
    x: np.ndarray, k: ConvKernel, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_input, d_weights, d_bias) of the 2x2 stride-2 transposed conv."""
    _require_2x2(k)
    _require_conv_input(x, k)
    n, ci, h, w = x.shape
    co = k.out_channels
    dtype = np.result_type(x, k.weights)
    # g[(image, y, x), (a, b, o)] = grad_out[image, o, 2y + a, 2x + b], the forward's t
    g = _nhwc(grad_out, dtype=dtype).reshape(n, h, 2, w, 2 * co).transpose(0, 1, 3, 2, 4)
    g = np.ascontiguousarray(g).reshape(-1, 4 * co)
    d_input = (g @ _taps(k, dtype).T).reshape(n, h, w, ci)
    d_weights = (_nhwc(x, dtype=dtype).reshape(-1, ci).T @ g).reshape(ci, 2, 2, co)
    d_weights = np.ascontiguousarray(d_weights.transpose(3, 0, 1, 2))
    return _nchw(d_input), d_weights, _channel_sums(g, n, co, x.dtype)


def maxpool2x2_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 max pooling.

    Returns the pooled tensor and window-local argmax indices (0..3 in
    row-major window order; ties and NaNs go to the first position scanned),
    which the backward pass uses to route gradients deterministically.
    """
    _require_nchw(x, "input")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"spatial axes must be even for 2x2 pooling, got {h}x{w}")
    # quarter t = 2r + s, copied once: the passes below run far faster on
    # contiguous data than on the strided views
    v = x.transpose(0, 2, 3, 1)
    q = np.stack([v[:, r::2, s::2] for r in (0, 1) for s in (0, 1)])
    top = np.maximum(np.maximum(q[0], q[1]), np.maximum(q[2], q[3]))
    bits = q.view(f"u{q.itemsize}")
    out = np.zeros(top.shape, bits.dtype)
    idx = np.zeros(top.shape, np.int8)
    # the output takes the bits of the first quarter equal to the max (np.maximum may
    # return either of -0.0 and 0.0) or, in a window holding NaN, of its first NaN
    pending = np.ones(top.shape, bool)  # no earlier quarter equal to the max yet
    for t in range(4):
        first = ((q[t] == top) | (q[t] != q[t])) & pending
        pending ^= first
        out |= bits[t] * first
        idx |= np.int8(t) * first
    return _nchw(out.view(q.dtype)), _nchw(idx)


def maxpool2x2_backward(idx: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Route each pooled gradient back to its argmax source position."""
    n, c, oh, ow = grad_out.shape
    out = np.empty((n, 2 * oh, 2 * ow, c), grad_out.dtype)
    idx, grad_out = _nhwc(idx), _nhwc(grad_out)
    for t in range(4):
        np.multiply(idx == t, grad_out, out=out[:, t // 2 :: 2, t % 2 :: 2])
    return _nchw(out)


def relu_forward(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0), into out if given (out=x runs in place)."""
    return np.maximum(x, 0, out=out)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Pass gradient where x > 0, subgradient 0 at exactly 0. x may be the ReLU's
    input or its output: x > 0 is the same mask on both, -0.0 and NaN included."""
    # a bit select, the bits of np.where(x > 0, grad_out, 0): AND with all ones or with 0
    word = np.dtype(f"i{grad_out.itemsize}")
    return (grad_out.view(word) & -(x > 0).astype(word)).view(grad_out.dtype)


def concat_channels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Concatenate two NCHW tensors along the channel axis (into a channels-last buffer)."""
    _require_nchw(a, "first input")
    _require_nchw(b, "second input")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"batch/spatial axes differ: {a.shape} vs {b.shape}")
    n, ca, h, w = a.shape
    out = np.empty((n, h, w, ca + b.shape[1]), np.result_type(a, b))
    out[..., :ca], out[..., ca:] = a.transpose(0, 2, 3, 1), b.transpose(0, 2, 3, 1)
    return _nchw(out)


def split_channels(grad_out: np.ndarray, ca: int) -> tuple[np.ndarray, np.ndarray]:
    """Backward of concat_channels: two views of grad split at the first input's channels."""
    return grad_out[:, :ca], grad_out[:, ca:]


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
        return LossResult(0.0, np.zeros_like(logits))

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
    return LossResult(loss, grad)


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
        new_params.append((p - update).astype(p.dtype, copy=False))
        new_m.append(m.astype(p.dtype, copy=False))
        new_v.append(v.astype(p.dtype, copy=False))
    return new_params, AdamState(new_m, new_v)
