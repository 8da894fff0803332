"""k-fold training with Adam, early stopping on the shybrid score.

Each fold trains on the remaining folds' tiles and validates on its own,
stopping once the monitored score has not strictly improved for `patience`
epochs (ties do not reset the counter) and keeping the checkpoint of the
best epoch (earliest on ties). Fold scores are the checkpoint metrics,
averaged arithmetically across folds.

Fire-buffer augmentation happens here, on materialized tile masks, per the
configured mode; holdout evaluation never samples, never buffers, and
scores every land tile of the holdout days.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from datetime import date

import numpy as np

from . import data as D
from . import unet as U
from .kernels import AdamState, adam_step, weighted_ce_loss
from .metrics import ConfusionCounts, Scores, confusion

BUFFER_OFF = "off"
BUFFER_TRAIN = "train"
BUFFER_TRAIN_VAL = "train+val"

# early-stopping scores, each named after the metric attribute it reads
ES_METRICS = ("sh1", "sh2")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    max_epochs: int = 45
    patience: int = 10
    folds: int = 3
    es_metric: str = "sh2"
    tile_ratio: float = 4.0
    fire_buffer: str = BUFFER_OFF
    buffer_radius: int = 1
    init_features: int = 8
    batch_size: int = 32
    seed: int = 0
    threshold: float = 0.5
    grouping: str = "by-tile"

    def __post_init__(self):
        if self.patience < 1 or self.patience >= self.max_epochs:
            raise ValueError("need 1 <= patience < max_epochs")
        if self.folds < 2:
            raise ValueError("need at least 2 folds")
        if self.es_metric not in ES_METRICS:
            raise ValueError(f"es_metric must be one of {sorted(ES_METRICS)}")
        if self.fire_buffer not in (BUFFER_OFF, BUFFER_TRAIN, BUFFER_TRAIN_VAL):
            raise ValueError(f"unknown fire_buffer mode {self.fire_buffer!r}")
        if not 0 < self.lr < np.inf or self.batch_size < 1 or self.buffer_radius < 0:
            raise ValueError("invalid lr / batch_size / buffer_radius")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be a probability")
        if self.grouping not in D.GROUPINGS:
            raise ValueError(f"unknown grouping {self.grouping!r}")


@dataclass(frozen=True)
class EpochMetrics(Scores):
    epoch: int
    train_loss: float


@dataclass(frozen=True)
class Checkpoint(EpochMetrics):
    """The best epoch's metrics and a snapshot of its parameters."""

    params: U.UNetParams


@dataclass
class FoldResult:
    fold_index: int
    best: Checkpoint
    trace: list[EpochMetrics]

    @property
    def stopped_epoch(self) -> int:
        return self.trace[-1].epoch


def stopping_point(scores: Sequence[float], patience: int) -> tuple[int, bool]:
    """(best epoch, stop) for the monitored scores of the epochs run so far.

    The best epoch is the earliest maximum, 1-based, so a tie is no
    improvement. Training stops once `patience` epochs have passed since it.
    """
    best_epoch = 1 + int(np.argmax(scores))
    return best_epoch, len(scores) - best_epoch >= patience


def run_stopping_rule(trace: list[float], patience: int, max_epochs: int) -> tuple[int, int]:
    """Replay stopping_point over a recorded metric trace, epoch by epoch.

    Returns (epochs run, selected epoch), both 1-based: what train_fold
    does with the same scores.
    """
    run = best = 0
    for run in range(1, min(len(trace), max_epochs) + 1):
        best, stop = stopping_point(trace[:run], patience)
        if stop:
            break
    return run, best


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def compute_class_weights(masks: np.ndarray) -> tuple[float, float]:
    """Inverse pixel-frequency weights over non-water pixels.

    w_c = N_nonwater / (2 * N_c), so a balanced mask gives (1, 1). Both
    classes must be present.
    """
    n0 = int(np.sum(masks == D.NO_FIRE))
    n1 = int(np.sum(masks == D.FIRE))
    if n0 == 0 or n1 == 0:
        raise ValueError(f"both classes must appear in the train masks (no-fire={n0}, fire={n1})")
    total = n0 + n1
    return total / (2.0 * n0), total / (2.0 * n1)


def predict_tiles(
    params: U.UNetParams,
    specs: Sequence[D.TileSpec],
    days: dict[date, D.GridDay],
    threshold: float,
    batch_size: int,
) -> Iterator[tuple[Sequence[D.TileSpec], np.ndarray, np.ndarray]]:
    """Predict tile masks in batches of at most batch_size tiles, in spec order.

    Yields (batch specs, predicted masks, true masks) per batch. Validation,
    holdout scoring and day prediction all run this one loop.
    """
    for lo in range(0, len(specs), batch_size):
        chunk = specs[lo : lo + batch_size]
        feats, masks = D.materialize_batch(chunk, days)
        logits, _ = U.forward(params, feats)
        yield chunk, U.predict_mask(logits, threshold), masks


@np.errstate(over="ignore", invalid="ignore")
def train_fold(
    train_specs,
    val_specs,
    days: dict[date, D.GridDay],
    config: TrainConfig,
    fold_index: int = 0,
) -> FoldResult:
    """Train on one fold split and return its best checkpoint and trace.

    numpy's overflow and invalid-value warnings are off here: the finite
    check after each epoch is the one report of a diverged fold.
    """
    val_specs = list(val_specs)
    if not any(s.tile_class == D.FIRE_TILE for s in val_specs):
        raise ValueError(f"fold {fold_index}: validation sensitivity undefined (no fire tiles)")
    tr_feats, tr_masks = D.materialize_batch(list(train_specs), days)
    if config.fire_buffer in (BUFFER_TRAIN, BUFFER_TRAIN_VAL):
        tr_masks = D.apply_fire_buffer(tr_masks, config.buffer_radius)

    class_weights = compute_class_weights(tr_masks)
    net_config = U.UNetConfig(
        in_channels=tr_feats.shape[1],
        init_features=config.init_features,
        seed=_derived_seed(config.seed, fold_index, 0),
    )
    params = U.init_params(net_config)
    state = AdamState.zeros_like(params.tensors())
    trace: list[EpochMetrics] = []
    n = tr_feats.shape[0]
    step = 0

    for epoch in range(1, config.max_epochs + 1):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, fold_index, epoch]))
        order = rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for lo in range(0, n, config.batch_size):
            sel = order[lo : lo + config.batch_size]
            logits, cache = U.forward(params, tr_feats[sel], training=True)
            res = weighted_ce_loss(logits, tr_masks[sel], class_weights)
            grads = U.backward(params, cache, res.grad_logits)
            step += 1
            tensors, state = adam_step(params.tensors(), grads, state, lr=config.lr, t=step)
            params = params.with_tensors(tensors)
            epoch_loss += res.loss
            batches += 1
        if not all(np.isfinite(t).all() for t in params.tensors()):
            raise ValueError(
                f"fold {fold_index}: parameters not finite after epoch {epoch}; training diverged"
            )

        counts = ConfusionCounts()
        scored = predict_tiles(params, val_specs, days, config.threshold, config.batch_size)
        for _, pred, masks in scored:
            if config.fire_buffer == BUFFER_TRAIN_VAL:
                masks = D.apply_fire_buffer(masks, config.buffer_radius)
            counts = counts + confusion(pred, masks)
        em = EpochMetrics.of(counts, epoch=epoch, train_loss=epoch_loss / max(batches, 1))
        if em is None:
            raise ValueError(f"fold {fold_index}: validation metrics undefined at epoch {epoch}")
        trace.append(em)
        scores = [m.score(config.es_metric) for m in trace]
        best_epoch, stop = stopping_point(scores, config.patience)
        if best_epoch == epoch:
            best_params = params  # adam_step builds new arrays, so later steps leave it alone
        if stop:
            break

    best = Checkpoint(**vars(trace[best_epoch - 1]), params=best_params)
    return FoldResult(fold_index, best, trace)


@dataclass
class CrossValResult:
    folds: list[FoldResult]
    means: tuple[float, ...]  # Scores.values() of the best checkpoints, each averaged across folds


def cross_validate(
    tileset: D.TileSet, days: dict[date, D.GridDay], config: TrainConfig
) -> CrossValResult:
    """Rotate each fold as validation, training on the rest; average scores."""
    folds = D.kfold_split(tileset, config.folds, config.seed, config.grouping)
    results = []
    for i in range(config.folds):
        val = folds[i]
        train = [s for j, f in enumerate(folds) if j != i for s in f]
        results.append(train_fold(train, val, days, config, fold_index=i))
    # each mean averages the folds' own values: 2*mean(sens) + mean(spec) is
    # not bitwise mean(2*sens + spec)
    per_score = zip(*(r.best.values() for r in results))
    return CrossValResult(results, tuple(float(np.mean(column)) for column in per_score))


@dataclass(frozen=True)
class HoldoutResult(Scores):
    counts: ConfusionCounts
    tiles: int


def evaluate_holdout(
    params: U.UNetParams,
    holdout_days: list[D.GridDay],
    config: TrainConfig,
) -> HoldoutResult:
    """Pixel metrics over every land tile of the holdout days.

    The days must already carry the training-time scaling/encoding. No
    sampling and no fire buffer are applied here, ever.
    """
    tileset = D.holdout_tileset(holdout_days)
    store = {day.day_id: day for day in holdout_days}
    scored = predict_tiles(params, tileset.specs, store, config.threshold, config.batch_size)
    counts = sum((confusion(pred, masks) for _, pred, masks in scored), ConfusionCounts())
    result = HoldoutResult.of(counts, counts=counts, tiles=len(tileset.specs))
    if result is None:
        raise ValueError("holdout metrics undefined (a class is absent from the holdout days)")
    return result


def predict_day(
    params: U.UNetParams, day: D.GridDay, threshold: float = TrainConfig.threshold
) -> np.ndarray:
    """Predict a full day raster by tiling, then stitch tiles back together."""
    out = np.zeros((day.height, day.width), np.uint8)
    specs = D.extract_tiles(day)
    scored = predict_tiles(params, specs, {day.day_id: day}, threshold, TrainConfig.batch_size)
    for chunk, pred, _ in scored:
        for n, s in enumerate(chunk):
            # the slice stops at the raster edge, dropping an edge tile's padding
            window = out[s.row_off : s.row_off + D.TILE_SIDE, s.col_off : s.col_off + D.TILE_SIDE]
            window[...] = pred[n, : window.shape[0], : window.shape[1]]
    return out
