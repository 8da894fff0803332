"""Computed operation and byte counts for the network's convolution layers.

Every figure here is derived from weight and activation shapes alone, so
it repeats exactly and is labelled "computed": it is not a measurement.

FLOPs count one multiply and one add per multiply-accumulate and leave
out the bias add. They do not depend on the algorithm: the backward pass
is d_input plus d_weights, each the same size as the forward product.
The im2col bytes follow the seed kernels (`fireseg.kernels._im2col`):
a 3x3 or 1x1 conv builds one column matrix forward, and two backward (the
input again for d_weights, and grad_out padded by k-1 for d_input). The
2x2 stride-2 transposed convs use `tensordot` and build none.
"""

from __future__ import annotations

from dataclasses import dataclass

TILE = 32
ITEMSIZE = 4  # float32


@dataclass(frozen=True)
class LayerModel:
    name: str
    transposed: bool
    weight_shape: tuple[int, int, int, int]
    in_hw: int  # input side length on a 32x32 tile

    def flops(self, batch: int) -> tuple[int, int]:
        """(forward, backward) FLOPs for one call on `batch` tiles."""
        return conv_flops(self.transposed, batch, self.in_hw, self.in_hw, self.weight_shape)

    def im2col_bytes(self, batch: int) -> tuple[int, int]:
        """(forward, backward) bytes of im2col column matrices for one call."""
        return im2col_bytes(self.transposed, batch, self.in_hw, self.in_hw, self.weight_shape)


def conv_flops(
    transposed: bool, n: int, h: int, w: int, wshape: tuple[int, ...]
) -> tuple[int, int]:
    """(forward, backward) FLOPs of one conv call on an [n, ci, h, w] input."""
    co, ci, kh, kw = wshape
    if transposed:
        # every input pixel scatters a co x kh x kw patch
        fwd = 2 * n * h * w * ci * co * kh * kw
    else:
        pad = (kh - 1) // 2
        oh, ow = h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
        fwd = 2 * n * oh * ow * co * ci * kh * kw
    return fwd, 2 * fwd


def im2col_bytes(
    transposed: bool, n: int, h: int, w: int, wshape: tuple[int, ...]
) -> tuple[int, int]:
    """(forward, backward) im2col bytes of one conv call on an [n, ci, h, w] input."""
    if transposed:
        return 0, 0
    co, ci, kh, kw = wshape
    pad = (kh - 1) // 2
    oh, ow = h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
    col = n * oh * ow * ci * kh * kw * ITEMSIZE
    col2 = n * (oh + kh - 1) * (ow + kw - 1) * co * kh * kw * ITEMSIZE
    return col, col + col2


def _input_side(name: str) -> int:
    if name == "head":
        return TILE
    if name.startswith("bottleneck"):
        return TILE >> 4
    level = int(name[3])
    if name.endswith("_up"):
        return TILE >> level  # upsamples from the level below
    return TILE >> (level - 1)


def layer_models(layer_shapes: list[tuple[str, tuple[int, ...], tuple[int, ...]]]) -> list[LayerModel]:
    """One model per entry of `fireseg.unet.layer_shapes(config)`."""
    return [
        LayerModel(name, name.endswith("_up"), tuple(wshape), _input_side(name))
        for name, wshape, _ in layer_shapes
    ]


def per_step(models: list[LayerModel], batch: int) -> tuple[float, float]:
    """(GFLOP, im2col MB) of one train step (forward + backward) on `batch` tiles."""
    flop = sum(sum(m.flops(batch)) for m in models)
    col = sum(sum(m.im2col_bytes(batch)) for m in models)
    return flop / 1e9, col / 1e6
