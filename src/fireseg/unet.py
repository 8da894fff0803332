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
constants, not settings; UNC1 checkpoints record both and the reader
refuses any other value. Parameter count is a closed form of (IF, in_channels):

  params(f, c) = 6809*f^2 + 9*c*f + 94*f + 2

(9cf from the stem conv, 6809 f^2 from the remaining conv/transposed-conv
weights, 92f + 2f head weights + biases; asserted in the test suite.)

Activations are channels-last behind their NCHW shapes (see kernels). A
training forward pass returns a cache keyed by layer name (see forward);
backward walks the same names in reverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    ConfigError,
    ConvKernel,
    ShapeError,
    channels_last,
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
    init_features: int
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
        return [t for k in self.kernels.values() for t in (k.weights, k.bias)]

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

    The batch is made channels-last once, here, like every activation after
    it (see kernels); the logits come back C-contiguous. The cache (only
    built when training=True) is keyed by layer name and holds what the
    backward pass needs: each 3x3 conv maps to (its input, its post-ReLU
    output), enc{i}_pool to the pool's argmax indices, dec{i}_up to the
    transposed conv's input and head to the head's input. Inputs are earlier
    layers' tensors, not copies. Inference passes get None back.
    """
    if batch.ndim != 4 or batch.shape[1] != params.config.in_channels:
        raise ConfigError(
            f"batch shape {batch.shape} does not provide {params.config.in_channels} channels"
        )
    ks = params.kernels
    cache: dict | None = {} if training else None

    def conv_relu(name: str, x: np.ndarray) -> np.ndarray:
        y = conv2d_forward(x, ks[name])
        relu_forward(y, out=y)
        if cache is not None:
            cache[name] = (x, y)
        return y

    x = channels_last(batch)
    skips = []
    for i in range(1, 5):
        skip = conv_relu(f"enc{i}_conv2", conv_relu(f"enc{i}_conv1", x))
        x, idx = maxpool2x2_forward(skip)
        if cache is not None:
            cache[f"enc{i}_pool"] = idx
        skips.append(skip)
    x = conv_relu("bottleneck_conv2", conv_relu("bottleneck_conv1", x))

    for i in range(4, 0, -1):
        if cache is not None:
            cache[f"dec{i}_up"] = x
        up = conv_transpose2d_forward(x, ks[f"dec{i}_up"])
        x = conv_relu(f"dec{i}_conv", concat_channels(skips.pop(), up))

    if cache is not None:
        cache["head"] = x
    return np.ascontiguousarray(conv2d_forward(x, ks["head"])), cache  # faster loss and mask


def backward(params: UNetParams, cache: dict, grad_logits: np.ndarray) -> list[np.ndarray]:
    """Gradients for every parameter tensor, aligned with UNetParams.tensors().

    Composes the kernel backward passes in reverse topology order; each
    encoder skip tensor sums the gradient coming through the decoder concat
    with the one coming up through the pooled path.
    """
    ks = params.kernels
    g, dw, db = conv2d_backward(cache["head"], ks["head"], grad_logits)
    grads = {"head": (dw, db)}

    skip_grads: dict[int, np.ndarray] = {}
    for i in range(1, 5):
        x, y = cache[f"dec{i}_conv"]
        g = relu_backward(y, g)
        g, dw, db = conv2d_backward(x, ks[f"dec{i}_conv"], g)
        grads[f"dec{i}_conv"] = (dw, db)
        up = ks[f"dec{i}_up"]
        skip_grads[i], g = split_channels(g, up.out_channels)
        g, dw, db = conv_transpose2d_backward(cache[f"dec{i}_up"], up, g)
        grads[f"dec{i}_up"] = (dw, db)

    for i in range(5, 0, -1):  # block 5 is the bottleneck, which has no pool
        block = f"enc{i}" if i < 5 else "bottleneck"
        if i < 5:
            g = maxpool2x2_backward(cache[f"enc{i}_pool"], g) + skip_grads.pop(i)
        for name in (f"{block}_conv2", f"{block}_conv1"):
            x, y = cache[name]
            g = relu_backward(y, g)
            # the network input (enc1_conv1's input) needs no gradient
            g, dw, db = conv2d_backward(x, ks[name], g, input_grad=name != "enc1_conv1")
            grads[name] = (dw, db)

    return [t for name in ks for t in grads[name]]


def predict_mask(logits: np.ndarray, threshold: float) -> np.ndarray:
    """Per-pixel labels: fire (1) where softmax fire-probability >= threshold."""
    if logits.ndim != 4 or logits.shape[1] != 2:
        raise ShapeError(f"logits must be [N,2,H,W], got {logits.shape}")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be a probability, got {threshold}")
    fire_prob = softmax2(logits)[:, 1]
    return (fire_prob >= threshold).astype(np.uint8)
