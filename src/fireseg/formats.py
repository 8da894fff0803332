"""All persistent file formats.

Binary formats are little-endian with 4-byte magics:

  FSK1 feature stack: magic, u32 C, H, W; C x (u32 length + UTF-8 channel
       name); C*H*W float32 values, channel-major then row-major.
  MSK1 label mask: magic, u32 H, W; H*W bytes valued 0/1/2.
  UNC1 checkpoint: magic, u32 in_channels, init_features, depth,
       num_classes, u64 seed, u32 tensor count; per tensor u32 ndim,
       u32 dims..., float32 data. Tensors appear in topology order. Depth
       and num_classes are the architecture's constants (4 and 2); the
       reader refuses any other value. The configuration fixes every
       tensor's shape, so the file's size follows from its header; each
       tensor's stored rank and dims are checked against the architecture,
       not trusted. A sidecar CSV next to the file stores the validation
       metrics.

Each binary reader checks the payload size its header implies against the
file before allocating, then reads every array once; a failed check is a
FormatError naming the file.

Tile manifests and metric tables are CSV. `evaluate.json` is the record
of an `evaluate` run: the threshold, the fireseg source digest, the
numpy/BLAS/CPU identity, the checkpoint's sha256 and, per holdout day, the
sha256 of its prepared stack and mask and of the mask evaluate wrote. It
holds no path outside the data and output directories and no time, so two
runs on equal inputs write equal records. Every writer is atomic
(write to a temp file in the same directory, then rename). A binary
writer writes its header bytes, then each array straight from the array's
buffer: no payload is copied unless it first needs converting to its
stored little-endian type or a contiguous layout.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
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
    NonFiniteError,
    ScalingParams,
    TileSet,
    TileSpec,
)
from .kernels import ConfigError, ShapeError
from .metrics import pixel_code
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
# a render pixel's color, row metrics.pixel_code(truth, pred); row 6 is the gutter
_RENDER_COLORS = np.array([PALETTE[name] for name in (
    "no_fire", "false_positive",  # truth no-fire
    "false_negative", "fire",     # truth fire
    "water", "water",             # truth water
    "gutter",
)], np.uint8)
_GUTTER = len(_RENDER_COLORS) - 1

EVALUATE_RECORD = "evaluate.json"
_DIGEST_CHUNK = 1 << 20


class FormatError(ValueError):
    """A file does not parse as the format it claims to be."""


def atomic_write_bytes(path: Path, *buffers) -> None:
    """Write the buffers, in order, through a temp file in the target directory, then rename.

    Each buffer is written as it is, so an array's memoryview is not copied.
    The temp name carries the process and thread id, so concurrent writers
    of one path never share a temp file (a thread writes one file at a
    time); a failed write or rename removes it.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.writelines(buffers)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: Path, payload: str) -> None:
    atomic_write_bytes(path, payload.encode("utf-8"))


def _read_exact(f, n: int, what: str) -> bytes:
    # a header may claim any size: compare it with the bytes the file still
    # holds before read() allocates it
    if n > os.fstat(f.fileno()).st_size - f.tell() or len(buf := f.read(n)) != n:
        raise FormatError(f"{f.name}: truncated file while reading {what}")
    return buf


def _check_payload(f, n: int, what: str) -> None:
    """Refuse the open file f unless exactly n bytes follow its position."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if left < n:
        raise FormatError(f"{f.name}: truncated file while reading {what}")
    if left > n:
        raise FormatError(f"{f.name}: trailing bytes after payload")


def _payload(array: np.ndarray, dtype: str) -> memoryview:
    """array's values as a C-contiguous buffer of dtype; copied only if array is not one already."""
    return memoryview(np.ascontiguousarray(array, dtype=dtype))


def _read_array(f, shape: tuple[int, ...], dtype: str, what: str) -> np.ndarray:
    """The next array of f, whose size _check_payload passed, read once into the array returned."""
    data = np.empty(shape, dtype)
    if f.readinto(data) != data.nbytes:  # the file shrank since the check
        raise FormatError(f"{f.name}: truncated file while reading {what}")
    return data.astype(data.dtype.newbyteorder("="), copy=False)


# ---------------------------------------------------------------------------
# feature stacks and masks


def write_stack(path: Path, names: list[str], features: np.ndarray) -> None:
    parts = [MAGIC_STACK, struct.pack("<III", *features.shape)]
    for name in names:
        raw = name.encode("utf-8")
        parts += [struct.pack("<I", len(raw)), raw]
    atomic_write_bytes(path, *parts, _payload(features, "<f4"))


def _stack_header(f) -> tuple[list[str], tuple[int, int, int]]:
    """Channel names and (C, H, W) of the open stack file f, left at its checked payload."""
    if _read_exact(f, 4, "magic") != MAGIC_STACK:
        raise FormatError(f"{f.name}: not a feature stack (bad magic)")
    c, h, w = struct.unpack("<III", _read_exact(f, 12, "dimensions"))
    if c == 0:
        raise FormatError(f"{f.name}: feature stack declares zero channels")
    names = []
    for _ in range(c):
        (n,) = struct.unpack("<I", _read_exact(f, 4, "name length"))
        try:
            names.append(_read_exact(f, n, "channel name").decode("utf-8"))
        except UnicodeDecodeError:
            raise FormatError(f"{f.name}: channel name is not UTF-8") from None
    _check_payload(f, 4 * c * h * w, "float payload")
    return names, (c, h, w)


def _read_features(path: Path) -> tuple[list[str], np.ndarray]:
    """A stack's channel names and float32 features; the values are not judged."""
    with open(path, "rb") as f:
        names, shape = _stack_header(f)
        return names, _read_array(f, shape, "<f4", "float payload")


def _non_finite(path: Path) -> FormatError:
    return FormatError(f"{path}: stack contains non-finite values")


def read_stack(path: Path) -> tuple[list[str], np.ndarray]:
    names, features = _read_features(path)
    if not np.all(np.isfinite(features)):
        raise _non_finite(path)
    return names, features


def write_mask(path: Path, mask: np.ndarray) -> None:
    if mask.size and (mask.min() < 0 or mask.max() > 2):
        raise FormatError("mask values must be in {0,1,2}")
    atomic_write_bytes(path, MAGIC_MASK + struct.pack("<II", *mask.shape), _payload(mask, "u1"))


def _mask_header(f) -> tuple[int, int]:
    """(H, W) of the open mask file f, left at its checked payload."""
    if _read_exact(f, 4, "magic") != MAGIC_MASK:
        raise FormatError(f"{f.name}: not a mask file (bad magic)")
    h, w = struct.unpack("<II", _read_exact(f, 8, "dimensions"))
    _check_payload(f, h * w, "mask payload")
    return h, w


def read_mask(path: Path) -> np.ndarray:
    with open(path, "rb") as f:
        mask = _read_array(f, _mask_header(f), "u1", "mask payload")
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


def check_day(directory: Path, day_id: date) -> list[str]:
    """Parse the headers of a day's stack and mask, which check each file's size, and their grids;
    return the stack's channel names.

    Reads no payload, so a truncated, overlong or misshapen file fails before
    a caller writes anything; a non-finite value only fails in read_day.
    """
    stack_path, mask_path = day_paths(directory, day_id)
    with open(stack_path, "rb") as f:
        names, (_, h, w) = _stack_header(f)
    with open(mask_path, "rb") as f:
        if (mask_grid := _mask_header(f)) != (h, w):  # GridDay's refusal, before any payload
            raise FormatError(f"{mask_path}: mask {mask_grid} does not match feature grid {(h, w)}")
    return names


def read_day(directory: Path, day_id: date) -> tuple[GridDay, list[str]]:
    """A day's stack and mask. GridDay's check is the one scan of the features."""
    stack_path, mask_path = day_paths(directory, day_id)
    names, features = _read_features(stack_path)
    mask = read_mask(mask_path)
    try:
        return GridDay(day_id, features, mask), names
    except NonFiniteError:
        raise _non_finite(stack_path) from None
    except ShapeError as exc:  # the stack's and the mask's grids differ
        raise FormatError(f"{mask_path}: {exc}") from None


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
    """The train-val and holdout days; each list must be non-empty, and no day may appear twice."""
    with _json_document(path) as doc:
        splits = {key: [date.fromisoformat(s) for s in _typed(doc[key], list)]
                  for key in ("train_val", "holdout")}
    for key, days in splits.items():
        if not days:
            raise FormatError(f"{path}: {key} lists no day")
    train_val, holdout = splits.values()
    seen = set()
    for day in train_val + holdout:
        if day in seen:
            where = "in both train_val and holdout" if day in train_val and day in holdout else "twice"
            raise FormatError(f"{path}: day {day} is listed {where}")
        seen.add(day)
    return train_val, holdout


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
        )


# ---------------------------------------------------------------------------
# run records


def file_sha256(path: Path) -> str:
    """The sha256 hex digest of the file at path, read in fixed 1 MiB chunks."""
    digest = hashlib.sha256()
    chunk = bytearray(_DIGEST_CHUNK)
    view = memoryview(chunk)
    with open(path, "rb") as f:
        while n := f.readinto(chunk):
            digest.update(view[:n])
    return digest.hexdigest()


def blas_identity() -> tuple[str, str, str]:
    """The BLAS build (name and version, OpenBLAS configuration) and the CPU model.

    The CPU is part of the identity because a DYNAMIC_ARCH OpenBLAS picks
    its kernels from the CPU at run time, and other kernels round differently.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy before 1.25 reports no build dict
        blas = {}
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"{blas.get('name')} {blas.get('version')}", blas.get("openblas configuration", ""), cpu


@functools.cache
def _source_digest() -> str:
    """sha256 of one `<sha256> <name>` line per *.py file of this package, in name order."""
    files = sorted(Path(__file__).parent.glob("*.py"))
    return hashlib.sha256("".join(f"{file_sha256(p)} {p.name}\n" for p in files).encode()).hexdigest()


def _record_header(threshold: float, checkpoint_sha256: str) -> dict:
    blas, blas_config, cpu = blas_identity()
    return {"threshold": threshold, "fireseg": _source_digest(), "numpy": np.__version__,
            "blas": blas, "blas_config": blas_config, "cpu": cpu, "checkpoint": checkpoint_sha256}


def write_evaluate_record(path: Path, threshold: float, checkpoint_sha256: str,
                          days: dict[str, dict[str, str]]) -> None:
    """evaluate.json: the header, then day id -> {relative path: sha256} of the day's files."""
    _write_json(path, {**_record_header(threshold, checkpoint_sha256), "days": days})


def read_evaluate_record(path: Path, threshold: float, checkpoint_sha256: str) -> dict:
    """The day digests of the record at path, if it was written at this threshold,
    for this checkpoint, by this fireseg source, numpy, BLAS and CPU; else {}.

    A record that is missing or does not parse is no error: it is not used.
    """
    try:
        doc = json.loads(Path(path).read_bytes())
    except (OSError, ValueError):
        return {}
    if type(doc) is not dict or type(days := doc.pop("days", None)) is not dict:
        return {}
    return days if doc == _record_header(threshold, checkpoint_sha256) else {}


# ---------------------------------------------------------------------------
# tile manifests


def write_manifest(path: Path, tileset: TileSet) -> None:
    rows = [[s.day_id.isoformat(), str(s.row_off), str(s.col_off), s.tile_class, tileset.provenance]
            for s in tileset.specs]
    write_csv(path, MANIFEST_HEADER, rows)


def read_manifest(path: Path) -> TileSet:
    specs: dict[TileSpec, None] = {}  # in file order
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
                spec = TileSpec(
                    date.fromisoformat(row["day_id"]),
                    int(row["row_off"]),
                    int(row["col_off"]),
                    row["tile_class"],
                )
                if spec in specs:  # a repeated train row would weigh its tile twice
                    raise FormatError(f"{path}: line {reader.line_num}: tile listed twice")
                specs[spec] = None
                provenances.add(row["provenance"])
        except FormatError:
            raise
        except (csv.Error, ValueError) as exc:  # a bad date, offset, class or encoding
            raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if not specs:
        raise FormatError(f"{path}: manifest lists no tile")
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
        parts += [struct.pack(f"<I{t.ndim}I", t.ndim, *t.shape), _payload(t, "<f4")]
    atomic_write_bytes(path, *parts)
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
            header = _read_exact(f, 24, "network configuration")
            in_ch, feats, depth, classes, seed = struct.unpack("<IIIIQ", header)
            if (depth, classes) != (DEPTH, NUM_CLASSES):
                raise FormatError(f"{path}: network of depth {depth} with {classes} classes; the "
                                  f"architecture has depth {DEPTH} with {NUM_CLASSES} classes")
            config = UNetConfig(in_channels=in_ch, init_features=feats, seed=seed)
            # the architecture fixes every tensor's shape, and with them the file's size
            shapes = [s for _, wshape, bshape in layer_shapes(config) for s in (wshape, bshape)]
            (count,) = struct.unpack("<I", _read_exact(f, 4, "tensor count"))
            if count != len(shapes):
                raise FormatError(f"{path}: {count} tensors, the architecture has {len(shapes)}")
            _check_payload(f, sum(4 * (1 + len(s) + math.prod(s)) for s in shapes), "tensor payload")
            tensors = []
            for i, shape in enumerate(shapes):
                if f.read(4 + 4 * len(shape)) != struct.pack(f"<I{len(shape)}I", len(shape), *shape):
                    raise FormatError(f"{path}: tensor {i} is not in the architecture's shape {shape}")
                tensors.append(_read_array(f, shape, "<f4", f"tensor {i} payload"))
                if not np.all(np.isfinite(tensors[-1])):
                    raise FormatError(f"{path}: tensor {i} contains non-finite values")
        return UNetParams.from_tensors(config, tensors)
    except ConfigError as exc:  # a configuration the architecture refuses
        raise FormatError(f"{path}: {exc}") from None


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
    lines = [",".join(row) for row in [header, *rows]]
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# prediction rendering (binary PPM)


def render_panels(truth: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Side-by-side ground truth | prediction image, split by a 2-pixel gutter.

    truth holds mask values {0,1,2}. The prediction panel overlays false
    positives orange and false negatives magenta; the truth panel is the
    prediction panel of a perfect prediction, so it shows no overlay. The
    image is one lookup of _RENDER_COLORS.
    """
    h, w = truth.shape
    rows = np.empty((h, 2 * w + 2), np.uint8)
    rows[:, :w] = pixel_code(truth, truth == FIRE)
    rows[:, w : w + 2] = _GUTTER
    rows[:, w + 2 :] = pixel_code(truth, pred)
    return _RENDER_COLORS.take(rows, axis=0)


def write_ppm(path: Path, rgb: np.ndarray) -> None:
    h, w = rgb.shape[:2]
    atomic_write_bytes(path, f"P6\n{w} {h}\n255\n".encode("ascii"), _payload(rgb, "u1"))

