"""Symmetric encoder-decoder segmentation network over 32x32 tiles.

Architecture (IF = init_features, widths mirror across the bottleneck):

  encoder block i (i=1..4):  [3x3 conv -> ReLU] x2 at width IF*2^(i-1),
                             save pre-pool activation as skip, 2x2 maxpool
                             (spatial 32 -> 16 -> 8 -> 4 -> 2)
  bottleneck:                [3x3 conv -> ReLU] x2 at width IF*16, 2x2 grid
  decoder block i (i=4..1):  2x2 stride-2 transposed conv halving channels,
                             concat with skip i, one 3x3 conv -> ReLU
  head:                      1x1 conv to 2 logits

Each conv pads by half its kernel side, (kh // 2, kw // 2), which follows
from the kernel shape: the 3x3 convs pad by 1 so a 32x32 tile maps to a
32x32 mask, and the 1x1 head pads by 0. Depth (4) and class count (2) are
constants, not settings; UNC1 checkpoints still record both and the reader
refuses any other value. Parameter count is a closed form of (IF, in_channels):

  params(f, c) = 6809*f^2 + 9*c*f + 94*f + 2

(9cf from the stem conv, 6809 f^2 from the remaining conv/transposed-conv
weights, 92f + 2f head weights + biases; asserted in the test suite.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    ConfigError,
    ConvKernel,
    ShapeError,
    concat_channels,
    conv2d_backward,
    conv2d_forward,
    conv_transpose2d_backward,
    conv_transpose2d_forward,
    maxpool2x2_backward,
    maxpool2x2_forward,
    relu_backward,
    relu_forward,
    softmax2,
    split_channels,
)

DEPTH = 4
NUM_CLASSES = 2


@dataclass(frozen=True)
class UNetConfig:
    in_channels: int
    init_features: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.in_channels < 1 or self.init_features < 1:
            raise ConfigError("in_channels and init_features must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")


def layer_shapes(config: UNetConfig) -> list[tuple[str, tuple[int, ...], tuple[int, ...]]]:
    """The full (name, weight shape, bias shape) inventory, in topology order."""
    f, c = config.init_features, config.in_channels
    inv: list[tuple[str, tuple[int, ...], tuple[int, ...]]] = []
    prev = c
    for i in range(1, 5):
        width = f * 2 ** (i - 1)
        inv.append((f"enc{i}_conv1", (width, prev, 3, 3), (width,)))
        inv.append((f"enc{i}_conv2", (width, width, 3, 3), (width,)))
        prev = width
    wide = f * 16
    inv.append(("bottleneck_conv1", (wide, prev, 3, 3), (wide,)))
    inv.append(("bottleneck_conv2", (wide, wide, 3, 3), (wide,)))
    prev = wide
    for i in range(4, 0, -1):
        width = f * 2 ** (i - 1)
        inv.append((f"dec{i}_up", (width, prev, 2, 2), (width,)))
        inv.append((f"dec{i}_conv", (width, 2 * width, 3, 3), (width,)))
        prev = width
    inv.append(("head", (NUM_CLASSES, f, 1, 1), (NUM_CLASSES,)))
    return inv


def param_count(config: UNetConfig) -> int:
    f, c = config.init_features, config.in_channels
    return 6809 * f * f + 9 * c * f + 94 * f + 2


@dataclass
class UNetParams:
    """All learnable kernels, keyed by the layer_shapes inventory order."""

    config: UNetConfig
    kernels: dict[str, ConvKernel]

    def __post_init__(self):
        expected = layer_shapes(self.config)
        names = [name for name, _, _ in expected]
        if list(self.kernels) != names:
            raise ShapeError("kernel inventory does not match the architecture layer list")
        for name, wshape, bshape in expected:
            k = self.kernels[name]
            if k.weights.shape != wshape or k.bias.shape != bshape:
                raise ShapeError(
                    f"layer {name}: got weights {k.weights.shape} bias {k.bias.shape}, "
                    f"expected {wshape} / {bshape}"
                )

    def tensors(self) -> list[np.ndarray]:
        """Flat [w1, b1, w2, b2, ...] view in topology order (Adam/checkpoint order)."""
        out: list[np.ndarray] = []
        for k in self.kernels.values():
            out.append(k.weights)
            out.append(k.bias)
        return out

    @classmethod
    def from_tensors(cls, config: UNetConfig, tensors: list[np.ndarray]) -> "UNetParams":
        """Pair flat [w1, b1, w2, b2, ...] tensors with config's layers, in topology order."""
        names = [name for name, _, _ in layer_shapes(config)]
        if len(tensors) != 2 * len(names):
            raise ShapeError(f"expected {2 * len(names)} tensors, got {len(tensors)}")
        pairs = zip(names, tensors[::2], tensors[1::2])
        return cls(config, {name: ConvKernel(w, b) for name, w, b in pairs})

    def with_tensors(self, tensors: list[np.ndarray]) -> "UNetParams":
        """Rebuild with replaced parameter tensors (same topology)."""
        return UNetParams.from_tensors(self.config, tensors)


def init_params(config: UNetConfig) -> UNetParams:
    """Fan-in-scaled Gaussian weights (std = sqrt(2/fan_in)), zero biases.

    Fully determined by config.seed: layers are drawn in topology order
    from a single PCG64 stream.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    kernels = {}
    for name, wshape, bshape in layer_shapes(config):
        fan_in = wshape[1] * wshape[2] * wshape[3]
        std = np.sqrt(2.0 / fan_in)
        w = (rng.standard_normal(wshape) * std).astype(np.float32)
        b = np.zeros(bshape, dtype=np.float32)
        kernels[name] = ConvKernel(w, b)
    return UNetParams(config, kernels)


def forward(
    params: UNetParams, batch: np.ndarray, training: bool = False
) -> tuple[np.ndarray, dict | None]:
    """Run the network; returns (logits [N,2,H,W], activation cache).

    The cache (only built when training=True) holds every intermediate the
    backward pass needs; inference passes get None back.
    """
    if batch.ndim != 4 or batch.shape[1] != params.config.in_channels:
        raise ConfigError(
            f"batch shape {batch.shape} does not provide {params.config.in_channels} channels"
        )
    ks = params.kernels
    cache: dict | None = {"enc": [], "dec": []} if training else None

    x = batch
    skips = []
    for i in range(1, 5):
        k1, k2 = ks[f"enc{i}_conv1"], ks[f"enc{i}_conv2"]
        a = conv2d_forward(x, k1)
        r1 = relu_forward(a)
        b = conv2d_forward(r1, k2)
        r2 = relu_forward(b)
        pooled, idx = maxpool2x2_forward(r2)
        if cache is not None:
            cache["enc"].append((x, a, r1, b, idx))
        skips.append(r2)
        x = pooled

    kb1, kb2 = ks["bottleneck_conv1"], ks["bottleneck_conv2"]
    a = conv2d_forward(x, kb1)
    r1 = relu_forward(a)
    b = conv2d_forward(r1, kb2)
    if cache is not None:
        cache["bottleneck"] = (x, a, r1, b)
    x = relu_forward(b)

    for i in range(4, 0, -1):
        ku, kc = ks[f"dec{i}_up"], ks[f"dec{i}_conv"]
        up = conv_transpose2d_forward(x, ku)
        skip = skips[i - 1]
        cat = concat_channels(skip, up)
        c = conv2d_forward(cat, kc)
        if cache is not None:
            cache["dec"].append((x, skip.shape[1], cat, c))
        x = relu_forward(c)

    if cache is not None:
        cache["head_in"] = x
    logits = conv2d_forward(x, ks["head"])
    return logits, cache


def backward(params: UNetParams, cache: dict, grad_logits: np.ndarray) -> list[np.ndarray]:
    """Gradients for every parameter tensor, aligned with UNetParams.tensors().

    Composes the kernel backward passes in reverse topology order; each
    encoder skip tensor sums the gradient coming through the decoder concat
    with the one coming up through the pooled path.
    """
    ks = params.kernels
    grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    g, dw, db = conv2d_backward(cache["head_in"], ks["head"], grad_logits)
    grads["head"] = (dw, db)

    skip_grads: dict[int, np.ndarray] = {}
    for j, i in enumerate(range(1, 5)):  # cache["dec"] holds blocks 4..1
        up_in, ca, cat, pre = cache["dec"][3 - j]
        g = relu_backward(pre, g)
        d_cat, dw, db = conv2d_backward(cat, ks[f"dec{i}_conv"], g)
        grads[f"dec{i}_conv"] = (dw, db)
        d_skip, d_up = split_channels(d_cat, ca)
        skip_grads[i] = d_skip
        g, dw, db = conv_transpose2d_backward(up_in, ks[f"dec{i}_up"], d_up)
        grads[f"dec{i}_up"] = (dw, db)

    x_in, a, r1, b = cache["bottleneck"]
    g = relu_backward(b, g)
    g, dw, db = conv2d_backward(r1, ks["bottleneck_conv2"], g)
    grads["bottleneck_conv2"] = (dw, db)
    g = relu_backward(a, g)
    g, dw, db = conv2d_backward(x_in, ks["bottleneck_conv1"], g)
    grads["bottleneck_conv1"] = (dw, db)

    for i in range(4, 0, -1):
        x_in, a, r1, b, idx = cache["enc"][i - 1]
        g = maxpool2x2_backward(idx, g) + skip_grads[i]
        g = relu_backward(b, g)
        g, dw, db = conv2d_backward(r1, ks[f"enc{i}_conv2"], g)
        grads[f"enc{i}_conv2"] = (dw, db)
        g = relu_backward(a, g)
        # the network input (block 1) needs no gradient
        g, dw, db = conv2d_backward(x_in, ks[f"enc{i}_conv1"], g, input_grad=i > 1)
        grads[f"enc{i}_conv1"] = (dw, db)

    flat: list[np.ndarray] = []
    for name in ks:
        dw, db = grads[name]
        flat.append(dw)
        flat.append(db)
    return flat


def predict_mask(logits: np.ndarray, threshold: float) -> np.ndarray:
    """Per-pixel labels: fire (1) where softmax fire-probability >= threshold."""
    if logits.ndim != 4 or logits.shape[1] != 2:
        raise ShapeError(f"logits must be [N,2,H,W], got {logits.shape}")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be a probability, got {threshold}")
    fire_prob = softmax2(logits)[:, 1]
    return (fire_prob >= threshold).astype(np.uint8)
