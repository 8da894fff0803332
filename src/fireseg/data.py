"""Per-day raster preparation and 32x32 tile management.

A day is a [C,H,W] float32 feature stack plus an [H,W] tri-valued mask
(0 no-fire, 1 fire, 2 water/invalid). Days are normalized and one-hot
encoded, cut into non-overlapping 32x32 tiles, classified by mask
content, and sampled into train/validation tile sets. Holdout days are
tiled but never sampled and never augmented; the provenance field on
TileSet enforces that downstream.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from datetime import date

import numpy as np

from .kernels import IGNORE_LABEL, ShapeError

NO_FIRE, FIRE, WATER = 0, 1, IGNORE_LABEL  # water pixels carry the loss's ignore label
TILE_SIDE = 32

NUMERIC = "numeric"
CATEGORICAL = "categorical"

FIRE_TILE = "fire"
NO_FIRE_TILE = "no-fire"
WATER_TILE = "water"

SAMPLED = "sampled"
HOLDOUT = "holdout"

GROUPINGS = ("by-tile", "by-day")  # kfold_split: one tile or one day per group


@dataclass(frozen=True)
class Channel:
    name: str
    kind: str = NUMERIC
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValueError(f"channel kind must be numeric or categorical, got {self.kind!r}")
        if self.kind == CATEGORICAL and not self.categories:
            raise ValueError(f"categorical channel {self.name!r} declares no categories")
        if self.kind == NUMERIC and self.categories:
            raise ValueError(f"numeric channel {self.name!r} must not declare categories")
        for i, category in enumerate(self.categories):
            if category in self.categories[:i]:
                raise ValueError(f"categorical channel {self.name!r} declares {category!r} twice")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered raw channel descriptors; categoricals expand on encoding."""

    channels: tuple[Channel, ...]

    def __post_init__(self):
        names = [c.name for c in self.channels]
        if len(set(names)) != len(names):
            raise ValueError("channel names must be unique")

    def encoded_names(self) -> list[str]:
        out: list[str] = []
        for ch in self.channels:
            if ch.kind == NUMERIC:
                out.append(ch.name)
            else:
                out.extend(f"{ch.name}={cat}" for cat in ch.categories)
        return out

    @property
    def encoded_count(self) -> int:
        return len(self.encoded_names())


class NonFiniteError(ValueError):
    """A feature stack holds a NaN or an infinity."""


@dataclass(frozen=True)
class GridDay:
    """One day's feature stack [C,H,W] and label mask [H,W] in {0,1,2}."""

    day_id: date
    features: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        if self.features.dtype != np.float32:
            raise ValueError(f"features must be float32, got {self.features.dtype}")
        # a plane at a time: a mask of the whole stack would hold a quarter of its bytes
        if not all(np.isfinite(plane).all() for plane in self.features):
            raise NonFiniteError("features contain non-finite values")
        if self.mask.shape != self.features.shape[1:]:
            raise ShapeError(
                f"mask {self.mask.shape} does not match feature grid {self.features.shape[1:]}"
            )
        if self.mask.size and (self.mask.min() < 0 or self.mask.max() > 2):
            raise ValueError("mask values must be in {0,1,2}")

    @property
    def height(self) -> int:
        return self.features.shape[1]

    @property
    def width(self) -> int:
        return self.features.shape[2]


@dataclass(frozen=True)
class ScalingParams:
    """Per numeric channel min/max observed on the fitting (train-val) days."""

    indices: tuple[int, ...]  # raster channel positions of the numeric channels
    names: tuple[str, ...]
    mins: tuple[float, ...]
    maxs: tuple[float, ...]

    def __post_init__(self):
        for name, lo, hi in zip(self.names, self.mins, self.maxs):
            if hi < lo:
                raise ValueError(f"channel {name!r}: max {hi} < min {lo}")

    def degenerate_channels(self) -> list[str]:
        return [n for n, lo, hi in zip(self.names, self.mins, self.maxs) if lo == hi]


def fit_scaling(days: Iterable[GridDay], schema: FeatureSchema) -> ScalingParams:
    """Min/max per numeric channel over all non-water pixels of the fitting days.

    Call this on the train-validation days only; the returned params are then
    applied unchanged to holdout data. days is iterated once, so a stream of
    days is held one at a time; min and max do not depend on the days' order.
    """
    idx = [i for i, ch in enumerate(schema.channels) if ch.kind == NUMERIC]
    names = [schema.channels[i].name for i in idx]
    mins = np.full(len(idx), np.inf)
    maxs = np.full(len(idx), -np.inf)
    count = 0
    for count, day in enumerate(days, 1):
        land = day.mask != WATER
        # a day without land leaves both bounds as they are
        planes = [day.features[i] for i in idx]
        mins = np.minimum(mins, [p.min(where=land, initial=np.inf) for p in planes])
        maxs = np.maximum(maxs, [p.max(where=land, initial=-np.inf) for p in planes])
    if not count:
        raise ValueError("cannot fit scaling on an empty set of days")
    if np.isinf(mins).any():
        raise ValueError("fitting days contain no land pixels")
    params = ScalingParams(tuple(idx), tuple(names), tuple(map(float, mins)), tuple(map(float, maxs)))
    degenerate = params.degenerate_channels()
    if degenerate:
        warnings.warn(f"constant numeric channels (min == max): {degenerate}", stacklevel=2)
    return params


def apply_scaling(day: GridDay, params: ScalingParams) -> GridDay:
    """Map numeric channels to (x - min)/(max - min), clamped to [0, 1].

    Out-of-range values (holdout data beyond the fitted range) clamp to the
    boundary; constant channels map to 0 everywhere.
    """
    feats = day.features.copy()
    for i, lo, hi in zip(params.indices, params.mins, params.maxs):
        if hi == lo:
            feats[i] = 0.0
        else:
            feats[i] = np.clip((feats[i] - lo) / (hi - lo), 0.0, 1.0)
    return GridDay(day.day_id, feats, day.mask)


def one_hot_encode(day: GridDay, schema: FeatureSchema) -> tuple[GridDay, int]:
    """Expand categorical channels into one indicator channel per category.

    Category codes are the integer index into the channel's category list;
    codes outside that range (unseen at fit time) produce an all-zero row.
    Returns the encoded day and the number of unknown-category pixels.
    """
    out: list[np.ndarray] = []
    unknown = 0
    for i, ch in enumerate(schema.channels):
        plane = day.features[i]
        if ch.kind == NUMERIC:
            out.append(plane)
            continue
        codes = np.rint(plane).astype(np.int64)
        known = (codes >= 0) & (codes < len(ch.categories))
        unknown += int((~known).sum())
        for code in range(len(ch.categories)):
            out.append(((codes == code) & known).astype(np.float32))
    encoded = GridDay(day.day_id, np.ascontiguousarray(np.stack(out), dtype=np.float32), day.mask)
    if unknown:
        warnings.warn(f"day {day.day_id}: {unknown} pixels carry unknown category codes", stacklevel=2)
    return encoded, unknown


@dataclass(frozen=True)
class TileSpec:
    """One 32x32 tile: its day, top-left offset, and mask-derived class."""

    day_id: date
    row_off: int
    col_off: int
    tile_class: str

    def __post_init__(self):
        if self.row_off < 0 or self.col_off < 0:
            raise ValueError("tile offsets must be non-negative")
        if self.tile_class not in (FIRE_TILE, NO_FIRE_TILE, WATER_TILE):
            raise ValueError(f"unknown tile class {self.tile_class!r}")


@dataclass(frozen=True)
class TileSet:
    """A dataset manifest: tile references plus how they were selected.

    provenance == "holdout" promises the set holds every land tile of its
    days, untouched by sampling; sample_tileset refuses such inputs.
    """

    specs: tuple[TileSpec, ...]
    provenance: str

    def __post_init__(self):
        if self.provenance not in (SAMPLED, HOLDOUT):
            raise ValueError(f"unknown provenance {self.provenance!r}")

    def fire_count(self) -> int:
        return sum(1 for s in self.specs if s.tile_class == FIRE_TILE)


def extract_tiles(day: GridDay) -> list[TileSpec]:
    """Cut a day into tiles and classify each by its mask content.

    fire: contains at least one fire pixel; water: covered exclusively by
    water; no-fire: land present but no fire. Rasters whose extent is not a
    multiple of the tile side are conceptually padded at right/bottom with
    water pixels, so edge tiles classify (and later materialize) as if that
    padding existed.
    """
    rows, cols = -(-day.height // TILE_SIDE), -(-day.width // TILE_SIDE)
    padded = np.full((rows * TILE_SIDE, cols * TILE_SIDE), WATER, day.mask.dtype)
    padded[: day.height, : day.width] = day.mask
    tiles = padded.reshape(rows, TILE_SIDE, cols, TILE_SIDE)
    # reduce over a tile's rows first: numpy's per-row cost dominates a 32-wide reduction
    water = np.where((tiles == WATER).all(axis=1).all(axis=-1), WATER_TILE, NO_FIRE_TILE)
    classes = np.where((tiles == FIRE).any(axis=1).any(axis=-1), FIRE_TILE, water).tolist()
    return [TileSpec(day.day_id, r * TILE_SIDE, c * TILE_SIDE, classes[r][c])
            for r in range(rows) for c in range(cols)]


def sample_tileset(tiles: list[TileSpec] | TileSet, tile_ratio: float, seed: int) -> TileSet:
    """Keep all fire tiles, drop water tiles, sample no-fire tiles.

    round(tile_ratio * fire_count) no-fire tiles are drawn uniformly
    without replacement (all of them, with a warning, if fewer exist).
    Deterministic in seed.
    """
    if isinstance(tiles, TileSet):
        if tiles.provenance == HOLDOUT:
            raise ValueError("refusing to sample a holdout tile set")
        tiles = list(tiles.specs)
    if not 0 <= tile_ratio < math.inf:
        raise ValueError(f"tile ratio must be finite and non-negative, got {tile_ratio}")
    fire = [t for t in tiles if t.tile_class == FIRE_TILE]
    no_fire = [t for t in tiles if t.tile_class == NO_FIRE_TILE]
    if not fire:
        raise ValueError("no fire tiles available; a sampled training set would be degenerate")
    want = int(round(tile_ratio * len(fire)))
    if want > len(no_fire):
        warnings.warn(
            f"requested {want} no-fire tiles but only {len(no_fire)} exist; keeping all",
            stacklevel=2,
        )
        chosen = no_fire
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        picked = rng.choice(len(no_fire), size=want, replace=False)
        chosen = [no_fire[i] for i in sorted(picked)]
    return TileSet(tuple(fire + chosen), SAMPLED)


def holdout_tileset(days: list[GridDay]) -> TileSet:
    """Every land tile of the given days, in raster order, never sampled."""
    specs = []
    for day in days:
        specs.extend(t for t in extract_tiles(day) if t.tile_class != WATER_TILE)
    return TileSet(tuple(specs), HOLDOUT)


def apply_fire_buffer(mask: np.ndarray, radius: int) -> np.ndarray:
    """Dilate fire labels onto land neighbors within Chebyshev distance radius.

    mask is one [H, W] mask or a [..., H, W] stack of them, each dilated on
    its own. Water pixels are never relabeled. The input is the original mask,
    so the operation is a pure function of it (re-running from the original
    with the same radius gives the same result). Rows, then columns, are
    dilated, each up to its length - 1, the farthest any two pixels lie apart.
    """
    if mask.ndim < 2:
        raise ShapeError(f"mask must be [..., H, W], got shape {mask.shape}")
    reach = mask == FIRE
    for axis in (-1, -2):
        seen, reach = reach, reach.copy()
        a, b = np.moveaxis(reach, axis, 0), np.moveaxis(seen, axis, 0)  # views: |= writes reach
        for s in range(1, min(radius, len(a) - 1) + 1):
            a[s:] |= b[:-s]
            a[:-s] |= b[s:]
    out = mask.copy()
    out[reach & (mask != WATER)] = FIRE
    return out


def kfold_split(
    tileset: TileSet, k: int, seed: int, grouping: str
) -> list[tuple[TileSpec, ...]]:
    """Partition a tile set into k folds with balanced group counts.

    by-tile treats each tile as a group; by-day keeps all tiles of one day
    in the same fold. Groups containing fire tiles are dealt round-robin
    first so every fold sees fire; if that is impossible the split errors
    and suggests lowering k.
    """
    if grouping == "by-tile":
        groups = [(spec,) for spec in tileset.specs]
    else:
        by_day: dict[date, list[TileSpec]] = {}
        for spec in tileset.specs:
            by_day.setdefault(spec.day_id, []).append(spec)
        groups = [tuple(by_day[d]) for d in sorted(by_day)]

    has_fire = [any(s.tile_class == FIRE_TILE for s in g) for g in groups]
    fire_groups = [g for g, f in zip(groups, has_fire) if f]
    rest_groups = [g for g, f in zip(groups, has_fire) if not f]
    if len(fire_groups) < k:
        raise ValueError(
            f"only {len(fire_groups)} fire-bearing {grouping} groups for k={k} folds; lower k"
        )

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    fire_order = [fire_groups[i] for i in rng.permutation(len(fire_groups))]
    rest_order = [rest_groups[i] for i in rng.permutation(len(rest_groups))] if rest_groups else []

    folds: list[list[tuple[TileSpec, ...]]] = [[] for _ in range(k)]
    for i, g in enumerate(fire_order):
        folds[i % k].append(g)
    for g in rest_order:
        target = min(range(k), key=lambda j: len(folds[j]))
        folds[target].append(g)

    out = []
    for fold in folds:
        specs = [s for g in fold for s in g]
        specs.sort(key=lambda s: (s.day_id, s.row_off, s.col_off))
        out.append(tuple(specs))
    return out


def materialize_batch(
    specs: list[TileSpec] | tuple[TileSpec, ...],
    days: Mapping[date, GridDay],
) -> tuple[np.ndarray, np.ndarray]:
    """Slice feature/mask tiles at the recorded offsets, bit-exact.

    Tiles reaching past the raster edge are padded with zero features and
    water labels, matching the padding rule used at extraction time. Each
    day is looked up once, in the order of its first spec, and dropped once
    its tiles are cut, so `days` may read a day from disk when it is looked up.
    """
    by_day: dict[date, list[int]] = {}
    for n, spec in enumerate(specs):
        by_day.setdefault(spec.day_id, []).append(n)
    feats = masks = None
    for day_id, ns in by_day.items():
        day = days.get(day_id)
        if day is None:
            raise KeyError(f"day {day_id} not present in the day store")
        if feats is None:
            feats = np.zeros((len(specs), day.features.shape[0], TILE_SIDE, TILE_SIDE), np.float32)
            masks = np.full((len(specs), TILE_SIDE, TILE_SIDE), WATER, dtype=np.uint8)
        for n in ns:
            r, c = specs[n].row_off, specs[n].col_off
            rows = min(TILE_SIDE, day.height - r)
            cols = min(TILE_SIDE, day.width - c)
            feats[n, :, :rows, :cols] = day.features[:, r : r + rows, c : c + cols]
            masks[n, :rows, :cols] = day.mask[r : r + rows, c : c + cols]
        del day  # a day read on lookup is dropped before the next is read
    return feats, masks
