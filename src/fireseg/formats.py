"""All persistent file formats.

Binary formats are little-endian with 4-byte magics:

  FSK1 feature stack: magic, u32 C, H, W; C x (u32 length + UTF-8 channel
       name); C*H*W float32 values, channel-major then row-major.
  MSK1 label mask: magic, u32 H, W; H*W bytes valued 0/1/2.
  UNC1 checkpoint: magic, u32 in_channels, init_features, depth,
       num_classes, u64 seed, u32 tensor count; per tensor u32 ndim,
       u32 dims..., float32 data. Tensors appear in topology order. Depth
       and num_classes are the architecture's constants (4 and 2); the
       reader refuses any other value. A sidecar CSV next to the file
       stores the validation metrics.

Tile manifests and metric tables are CSV. Every writer is atomic
(write to a temp file in the same directory, then rename).
"""

from __future__ import annotations

import csv
import json
import os
import re
import struct
import threading
from contextlib import contextmanager
from dataclasses import asdict
from datetime import date
from pathlib import Path

import numpy as np

from .data import (
    FIRE,
    Channel,
    FeatureSchema,
    GridDay,
    ScalingParams,
    TileSet,
    TileSpec,
)
from .kernels import ConfigError, ShapeError
from .unet import DEPTH, NUM_CLASSES, UNetConfig, UNetParams, layer_shapes

MAGIC_STACK = b"FSK1"
MAGIC_MASK = b"MSK1"
MAGIC_CHECKPOINT = b"UNC1"

MANIFEST_HEADER = ["day_id", "row_off", "col_off", "tile_class", "provenance"]

# prediction rendering palette (RGB)
PALETTE = {
    "no_fire": (0, 0, 0),
    "fire": (220, 40, 30),
    "water": (40, 80, 200),
    "false_positive": (255, 150, 30),
    "false_negative": (230, 40, 230),
    "gutter": (255, 255, 255),
}


class FormatError(ValueError):
    """A file does not parse as the format it claims to be."""


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write through a temp file in the target directory, then rename.

    The temp name carries the process and thread id, so concurrent writers
    of one path never share a temp file (a thread writes one file at a
    time); a failed write or rename removes it.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: Path, payload: str) -> None:
    atomic_write_bytes(path, payload.encode("utf-8"))


def _read_exact(f, n: int, what: str) -> bytes:
    # a header may claim any size: compare it with the bytes the file still
    # holds before read() allocates it
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise FormatError(f"{f.name}: truncated file while reading {what}")
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"{f.name}: truncated file while reading {what}")
    return buf


# ---------------------------------------------------------------------------
# feature stacks and masks


def write_stack(path: Path, names: list[str], features: np.ndarray) -> None:
    if features.ndim != 3 or features.shape[0] != len(names):
        raise FormatError(f"stack shape {features.shape} does not match {len(names)} channel names")
    c, h, w = features.shape
    parts = [MAGIC_STACK, struct.pack("<III", c, h, w)]
    for name in names:
        raw = name.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    parts.append(np.ascontiguousarray(features, dtype="<f4").tobytes())
    atomic_write_bytes(path, b"".join(parts))


def read_stack(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != MAGIC_STACK:
            raise FormatError(f"{path}: not a feature stack (bad magic)")
        c, h, w = struct.unpack("<III", _read_exact(f, 12, "dimensions"))
        if c == 0:
            raise FormatError(f"{path}: feature stack declares zero channels")
        names = []
        for _ in range(c):
            (n,) = struct.unpack("<I", _read_exact(f, 4, "name length"))
            names.append(_read_exact(f, n, "channel name").decode("utf-8"))
        data = np.frombuffer(_read_exact(f, 4 * c * h * w, "float payload"), dtype="<f4")
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")
    features = data.reshape(c, h, w).astype(np.float32)
    if not np.all(np.isfinite(features)):
        raise FormatError(f"{path}: stack contains non-finite values")
    return names, features


def write_mask(path: Path, mask: np.ndarray) -> None:
    if mask.ndim != 2:
        raise FormatError(f"mask must be 2-d, got shape {mask.shape}")
    if mask.size and (mask.min() < 0 or mask.max() > 2):
        raise FormatError("mask values must be in {0,1,2}")
    h, w = mask.shape
    payload = MAGIC_MASK + struct.pack("<II", h, w) + mask.astype(np.uint8).tobytes()
    atomic_write_bytes(path, payload)


def read_mask(path: Path) -> np.ndarray:
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != MAGIC_MASK:
            raise FormatError(f"{path}: not a mask file (bad magic)")
        h, w = struct.unpack("<II", _read_exact(f, 8, "dimensions"))
        data = np.frombuffer(_read_exact(f, h * w, "mask payload"), dtype=np.uint8)
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")
    mask = data.reshape(h, w).copy()
    if mask.size and mask.max() > 2:
        raise FormatError(f"{path}: mask holds values outside {{0,1,2}}")
    return mask


def day_paths(directory: Path, day_id: date) -> tuple[Path, Path]:
    stem = day_id.isoformat()
    return Path(directory) / f"{stem}.fsk", Path(directory) / f"{stem}.msk"


def write_day(directory: Path, day: GridDay, names: list[str]) -> None:
    stack_path, mask_path = day_paths(directory, day.day_id)
    write_stack(stack_path, names, day.features)
    write_mask(mask_path, day.mask)


def read_day(directory: Path, day_id: date) -> tuple[GridDay, list[str]]:
    stack_path, mask_path = day_paths(directory, day_id)
    names, features = read_stack(stack_path)
    mask = read_mask(mask_path)
    return GridDay(day_id, features, mask), names


# ---------------------------------------------------------------------------
# schema / scaling / splits (JSON sidecars)


@contextmanager
def _json_document(path: Path):
    """The parsed JSON file at path. Whatever the document's shape, a failure
    to read it, inside the with block too, is a FormatError naming the file."""
    try:
        yield json.loads(Path(path).read_text())
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: unexpected content ({type(exc).__name__}: {exc})") from None


def _typed(value, *kinds):
    """value, if its type is one of kinds (so a JSON boolean is no number)."""
    if type(value) not in kinds:
        raise TypeError(f"expected {' or '.join(k.__name__ for k in kinds)}, got {value!r}")
    return value


def _write_json(path: Path, doc) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def write_schema(path: Path, schema: FeatureSchema) -> None:
    _write_json(path, asdict(schema))


def read_schema(path: Path) -> FeatureSchema:
    with _json_document(path) as doc:
        channels = []
        for entry in _typed(doc["channels"], list):
            categories = tuple(_typed(c, str) for c in _typed(entry.get("categories", []), list))
            # Channel rejects an unknown kind
            channels.append(Channel(_typed(entry["name"], str), entry["kind"], categories))
        return FeatureSchema(tuple(channels))


def write_scaling(path: Path, params: ScalingParams) -> None:
    doc = {
        "channels": [
            {"index": i, "name": n, "min": lo, "max": hi}
            for i, n, lo, hi in zip(params.indices, params.names, params.mins, params.maxs)
        ]
    }
    _write_json(path, doc)


def read_scaling(path: Path) -> ScalingParams:
    with _json_document(path) as doc:
        rows = _typed(doc["channels"], list)
        return ScalingParams(
            tuple(_typed(r["index"], int) for r in rows),
            tuple(_typed(r["name"], str) for r in rows),
            tuple(float(_typed(r["min"], float, int)) for r in rows),
            tuple(float(_typed(r["max"], float, int)) for r in rows),
        )


def write_splits(path: Path, train_val: list[date], holdout: list[date]) -> None:
    doc = {
        "train_val": [d.isoformat() for d in train_val],
        "holdout": [d.isoformat() for d in holdout],
    }
    _write_json(path, doc)


def read_splits(path: Path) -> tuple[list[date], list[date]]:
    with _json_document(path) as doc:
        return (
            [date.fromisoformat(s) for s in _typed(doc["train_val"], list)],
            [date.fromisoformat(s) for s in _typed(doc["holdout"], list)],
        )


def write_rule(path: Path, rule) -> None:
    """Planted-rule ground truth (generator output, consumed by evaluation tools)."""
    _write_json(path, asdict(rule))


def read_rule(path: Path):
    from .synthetic import PlantedRule

    with _json_document(path) as doc:
        return PlantedRule(
            channel_a=_typed(doc["channel_a"], int),
            channel_b=_typed(doc["channel_b"], int),
            channel_c=_typed(doc["channel_c"], int),
            coef_a=float(_typed(doc["coef_a"], float, int)),
            coef_b=float(_typed(doc["coef_b"], float, int)),
            coef_c=float(_typed(doc["coef_c"], float, int)),
            gain=float(_typed(doc["gain"], float, int)),
            bias=float(_typed(doc["bias"], float, int)),
            spread_p1=float(_typed(doc["spread_p1"], float, int)),
            spread_p2=float(_typed(doc["spread_p2"], float, int)),
            static_channels=tuple(_typed(c, int) for c in _typed(doc["static_channels"], list)),
            dynamic_channels=tuple(_typed(c, int) for c in _typed(doc["dynamic_channels"], list)),
            deterministic_level=_typed(doc.get("deterministic_level"), float, int, type(None)),
        )


# ---------------------------------------------------------------------------
# tile manifests


def write_manifest(path: Path, tileset: TileSet) -> None:
    rows = [[s.day_id.isoformat(), str(s.row_off), str(s.col_off), s.tile_class, tileset.provenance]
            for s in tileset.specs]
    write_csv(path, MANIFEST_HEADER, rows)


def read_manifest(path: Path) -> TileSet:
    specs = []
    provenances = set()
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        try:
            if reader.fieldnames != MANIFEST_HEADER:
                raise FormatError(f"{path}: manifest header {reader.fieldnames} != {MANIFEST_HEADER}")
            for row in reader:
                if None in row or None in row.values():  # surplus or missing fields
                    raise FormatError(
                        f"{path}: line {reader.line_num} does not hold {len(MANIFEST_HEADER)} fields"
                    )
                specs.append(
                    TileSpec(
                        date.fromisoformat(row["day_id"]),
                        int(row["row_off"]),
                        int(row["col_off"]),
                        row["tile_class"],
                    )
                )
                provenances.add(row["provenance"])
        except FormatError:
            raise
        except (csv.Error, ValueError) as exc:  # a bad date, offset, class or encoding
            raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(provenances) != 1:
        raise FormatError(f"{path}: manifest mixes provenances {sorted(provenances)}")
    try:
        return TileSet(tuple(specs), provenances.pop())
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# checkpoints


def write_checkpoint(path: Path, params: UNetParams, metrics: dict[str, float] | None = None) -> None:
    cfg = params.config
    parts = [
        MAGIC_CHECKPOINT,
        struct.pack("<IIIIQ", cfg.in_channels, cfg.init_features, DEPTH, NUM_CLASSES, cfg.seed),
    ]
    tensors = params.tensors()
    parts.append(struct.pack("<I", len(tensors)))
    for t in tensors:
        parts.append(struct.pack("<I", t.ndim))
        parts.append(struct.pack(f"<{t.ndim}I", *t.shape))
        parts.append(np.ascontiguousarray(t, dtype="<f4").tobytes())
    atomic_write_bytes(path, b"".join(parts))
    if metrics is not None:
        row = [repr(float(v)) for v in metrics.values()]
        write_csv(checkpoint_metrics_path(path), list(metrics), [row])


def checkpoint_metrics_path(path: Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".metrics.csv")


def read_checkpoint(path: Path) -> UNetParams:
    try:
        with open(path, "rb") as f:
            if _read_exact(f, 4, "magic") != MAGIC_CHECKPOINT:
                raise FormatError(f"{path}: not a checkpoint (bad magic)")
            in_ch, feats, depth, classes, seed = struct.unpack(
                "<IIIIQ", _read_exact(f, 24, "network configuration")
            )
            if (depth, classes) != (DEPTH, NUM_CLASSES):
                raise FormatError(
                    f"{path}: network of depth {depth} with {classes} classes; "
                    f"the architecture has depth {DEPTH} with {NUM_CLASSES} classes"
                )
            config = UNetConfig(in_channels=in_ch, init_features=feats, seed=seed)
            # checked before any payload is read: the count bounds the allocation
            expected = 2 * len(layer_shapes(config))
            (count,) = struct.unpack("<I", _read_exact(f, 4, "tensor count"))
            if count != expected:
                raise FormatError(f"{path}: {count} tensors, the architecture has {expected}")
            tensors = []
            for i in range(count):
                (ndim,) = struct.unpack("<I", _read_exact(f, 4, "tensor rank"))
                shape = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, "tensor shape"))
                size = int(np.prod(shape))
                data = np.frombuffer(_read_exact(f, 4 * size, f"tensor {i} payload"), dtype="<f4")
                tensors.append(data.reshape(shape).astype(np.float32))
            if f.read(1):
                raise FormatError(f"{path}: trailing bytes after payload")
        # UNetParams checks every shape against the configured architecture
        return UNetParams.from_tensors(config, tensors)
    except (ConfigError, ShapeError) as exc:  # a header the architecture refuses
        raise FormatError(f"{path}: {exc}") from None


def read_checkpoint_metrics(path: Path) -> dict[str, float]:
    with open(checkpoint_metrics_path(path), newline="") as f:
        reader = csv.DictReader(f)
        row = next(reader)
    return {k: float(v) for k, v in row.items()}


# ---------------------------------------------------------------------------
# metric tables

# the order of metrics.Scores.values(); each table has the rounded columns, then
# the same at full precision, as metric_row writes them
SCORE_COLUMNS = ["sensitivity", "specificity", "sh1", "sh2"]
SCORE_CELLS = [*SCORE_COLUMNS, *[c + "_full" for c in SCORE_COLUMNS]]
COUNT_COLUMNS = ["tp", "fn", "tn", "fp"]  # ConfusionCounts fields
VALIDATION_COLUMNS = ["tr", "fire_buffer", "buffer_radius", "init_features", "es_metric",
                      "fold", "epoch", *SCORE_CELLS]
HOLDOUT_COLUMNS = ["checkpoint", "holdout_days", "tiles", *SCORE_CELLS, *COUNT_COLUMNS]


def metric_row(prefix: list, values: tuple[float, ...]) -> list[str]:
    """The prefix cells, then each value at 4 decimals, then each at full precision."""
    return [str(v) for v in prefix] + [f"{v:.4f}" for v in values] + [repr(float(v)) for v in values]


def write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    for row in rows:
        if len(row) != len(header):
            raise FormatError(f"row width {len(row)} != header width {len(header)}")
    lines = [",".join(header)] + [",".join(row) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# prediction rendering (binary PPM)


def render_prediction(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Prediction panel with error overlay: orange FP, magenta FN."""
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


def render_panels(truth: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Side-by-side ground truth | prediction image, split by a 2-pixel gutter."""
    left = render_prediction(truth == FIRE, truth)  # a perfect prediction shows no overlay
    right = render_prediction(pred, truth)
    gap = np.full((truth.shape[0], 2, 3), PALETTE["gutter"], np.uint8)
    return np.concatenate([left, gap, right], axis=1)


def write_ppm(path: Path, rgb: np.ndarray) -> None:
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise FormatError(f"expected [H,W,3] uint8 image, got {rgb.shape} {rgb.dtype}")
    h, w = rgb.shape[:2]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + rgb.tobytes())


def read_ppm(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    # magic, decimal width, height and maxval, then one whitespace byte; the
    # digit bound keeps int() within its string-length limit
    header = re.match(rb"P6\s+(\d{1,9})\s+(\d{1,9})\s+(\d{1,9})\s", raw)
    if header is None:
        raise FormatError(f"{path}: not a binary PPM (bad magic or header)")
    w, h, maxval = map(int, header.groups())
    if maxval != 255:
        raise FormatError(f"{path}: unsupported max value {maxval}")
    data = np.frombuffer(raw[header.end() :], np.uint8)
    if data.size != h * w * 3:
        raise FormatError(f"{path}: payload size mismatch")
    return data.reshape(h, w, 3).copy()
