"""k-fold training with Adam, early stopping on the shybrid score.

Each fold trains on the remaining folds' tiles and validates on its own,
stopping once the monitored score has not strictly improved for `patience`
epochs (ties do not reset the counter) and keeping the checkpoint of the
best epoch (earliest on ties). Fold scores are the checkpoint metrics,
averaged arithmetically across folds.

The sampled tiles are cut once into one array that every fold indexes.
Fire-buffer augmentation happens here, on a copy of those tile masks, per
the configured mode; holdout evaluation never samples, never buffers, and
scores every land tile of the holdout days.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
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

# tiles per inference forward (predict_tiles); not the training batch_size, since a
# tile's logits depend in their last bits on its batch and a mask must not move with it
PREDICT_BATCH = 32


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
        if self.init_features < 1:
            raise ValueError(f"init_features must be at least 1, got {self.init_features}")
        if not 0 <= self.tile_ratio < np.inf:  # named by its config key, as prepare reports it
            raise ValueError(f"config key tr={self.tile_ratio}: "
                             "the tile ratio must be finite and non-negative")
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


def stopping_point(scores: Sequence[float], patience: int, max_epochs: int) -> tuple[int, bool]:
    """(best epoch, stop) for the monitored scores of the epochs run so far.

    The best epoch is the earliest maximum, 1-based, so a tie is no
    improvement. Training stops once `patience` epochs have passed since it,
    or after `max_epochs`; Fold.settle and run_stopping_rule both call it.
    """
    best_epoch = 1 + int(np.argmax(scores))
    return best_epoch, len(scores) - best_epoch >= patience or len(scores) >= max_epochs


def run_stopping_rule(trace: list[float], patience: int, max_epochs: int) -> tuple[int, int]:
    """Replay stopping_point over a recorded metric trace, epoch by epoch.

    Returns (epochs run, selected epoch), both 1-based: what train_fold
    does with the same scores (max_epochs >= 1, as TrainConfig holds it).
    """
    run = best = 0
    for run in range(1, len(trace) + 1):
        best, stop = stopping_point(trace[:run], patience, max_epochs)
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


@dataclass(frozen=True)
class FoldState:
    """A fold after `epoch` epochs and `step` Adam steps; best is None before the first settle."""

    epoch: int
    step: int
    params: U.UNetParams
    adam: AdamState
    trace: tuple[EpochMetrics, ...]
    best: Checkpoint | None
    done: bool


class Fold:
    """One fold's fixed inputs and its current state, which each Adam step replaces.

    feats [T, C, 32, 32] and masks [T, 32, 32] are the sample's tiles, which
    every fold shares and none writes; `train` and `val` index them.

    Memory: beyond the shared tiles, a buffered copy of the masks, one step and
    4-6 parameter sizes (the parameters, Adam's two moments, the best checkpoint,
    the gradients and Adam's new arrays). No earlier state outlives a step, whose
    activations and gradients die before the next forward or validation.
    """

    def __init__(self, feats: np.ndarray, masks: np.ndarray, train: np.ndarray,
                 val: np.ndarray, config: TrainConfig, fold_index: int = 0):
        if not (masks[val] == D.FIRE).any():
            raise ValueError(f"fold {fold_index}: validation sensitivity undefined (no fire tiles)")
        self.feats, self.train, self.val, self.config, self.index = feats, train, val, config, fold_index
        self.buffered = masks
        if config.fire_buffer != BUFFER_OFF:
            self.buffered = D.apply_fire_buffer(masks, config.buffer_radius)
        self.val_masks = self.buffered if config.fire_buffer == BUFFER_TRAIN_VAL else masks
        self.class_weights = compute_class_weights(self.buffered[train])
        seed = _derived_seed(config.seed, fold_index, 0)
        params = U.init_params(U.UNetConfig(feats.shape[1], config.init_features, seed))
        self.state = FoldState(0, 0, params, AdamState.zeros_like(params.tensors()), (), None, False)

    def _step(self, batch: np.ndarray) -> float:
        """One Adam step on the tiles that `batch` indexes; replaces the state, returns the loss.

        The forward cache, logits, loss result and gradients are this frame's
        locals, so none of them outlives the step. The batch is selected in the
        forward call, whose own channels-last copy is what the cache keeps, so
        the selected copy dies when forward returns.
        """
        s = self.state
        logits, cache = U.forward(s.params, self.feats[batch], training=True)
        res = weighted_ce_loss(logits, self.buffered[batch], self.class_weights)
        grads = U.backward(s.params, cache, res.grad_logits)
        loss = res.loss
        del logits, cache, res  # Adam's new arrays need not sit on top of the activations
        tensors, adam = adam_step(s.params.tensors(), grads, s.adam, lr=self.config.lr, t=s.step + 1)
        self.state = replace(s, step=s.step + 1, params=s.params.with_tensors(tensors), adam=adam)
        return loss

    @np.errstate(over="ignore", invalid="ignore")
    def train_epoch(self) -> float:
        """Shuffle, step through the next epoch and check the parameters are finite; the mean loss.

        numpy's overflow and invalid warnings are off: the finite check reports a diverged fold.
        """
        epoch, size = self.state.epoch + 1, self.config.batch_size
        rng = np.random.default_rng(np.random.SeedSequence([self.config.seed, self.index, epoch]))
        order = rng.permutation(len(self.train))
        loss, batches = 0.0, range(0, len(self.train), size)
        for lo in batches:
            loss += self._step(self.train[order[lo : lo + size]])
        self.state = replace(self.state, epoch=epoch)
        if not all(np.isfinite(t).all() for t in self.state.params.tensors()):
            raise ValueError(
                f"fold {self.index}: parameters not finite after epoch {epoch}; training diverged"
            )
        return loss / len(batches)  # compute_class_weights refused an empty train

    @np.errstate(over="ignore", invalid="ignore")
    def settle(self, loss: float) -> None:
        """Validate the epoch just trained, trace it, keep it if best, and decide the stop."""
        s, config = self.state, self.config
        pred = predict_tiles(s.params, len(self.val), lambda at: self.feats[self.val[at]],
                             config.threshold)
        em = EpochMetrics.of(confusion(pred, self.val_masks[self.val]), epoch=s.epoch, train_loss=loss)
        if em is None:
            raise ValueError(f"fold {self.index}: validation metrics undefined at epoch {s.epoch}")
        trace = s.trace + (em,)
        best_epoch, done = stopping_point([m.score(config.es_metric) for m in trace],
                                          config.patience, config.max_epochs)
        # adam_step builds new arrays, so later steps leave the best params alone
        best = Checkpoint(**vars(em), params=s.params) if best_epoch == s.epoch else s.best
        self.state = replace(s, trace=trace, best=best, done=done)


def train_fold(
    feats: np.ndarray,
    masks: np.ndarray,
    train: np.ndarray,
    val: np.ndarray,
    config: TrainConfig,
    fold_index: int = 0,
) -> FoldResult:
    """Train on the tiles `train` indexes, validate on those `val` indexes (see Fold)."""
    fold = Fold(feats, masks, train, val, config, fold_index)
    while not fold.state.done:
        fold.settle(fold.train_epoch())
    return FoldResult(fold_index, fold.state.best, list(fold.state.trace))


@dataclass
class CrossValResult:
    folds: list[FoldResult]
    means: tuple[float, ...]  # Scores.values() of the best checkpoints, each averaged across folds


def cross_validate(
    tileset: D.TileSet, days: Mapping[date, D.GridDay], config: TrainConfig
) -> CrossValResult:
    """Rotate each fold as validation, training on the rest; average scores.

    The folds are split from the specs, so a failed split reads no day; then
    the sample's tiles are cut once, and a fold is an index array into them.
    Memory: the sample's tiles, plus one day of `days` while they are cut,
    then one fold (see train_fold) and each finished fold's best checkpoint.
    """
    row = {spec: n for n, spec in enumerate(tileset.specs)}
    folds = [np.array([row[s] for s in fold], np.intp)
             for fold in D.kfold_split(tileset, config.folds, config.seed, config.grouping)]
    feats, masks = D.materialize_batch(tileset.specs, days)
    results = []
    for i, val in enumerate(folds):
        train = np.concatenate([f for j, f in enumerate(folds) if j != i])
        results.append(train_fold(feats, masks, train, val, config, fold_index=i))
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
    holdout_days: Iterable[D.GridDay],
    config: TrainConfig,
    *,
    on_mask: Callable[[D.GridDay, np.ndarray], None] | None = None,
) -> HoldoutResult:
    """Pixel metrics of predict_day's masks, summed over the holdout days in order.

    The days carry the training-time scaling/encoding. Each is read once, so
    a generator is held one day at a time. No sampling, no fire buffer, ever.
    on_mask, if given, receives each day and its mask once the day is scored,
    before the next day is drawn.
    """
    counts, tiles, day_ids = ConfusionCounts(), 0, []
    for day in holdout_days:
        pred = predict_day(params, day, config.threshold)
        counts = counts + confusion(pred, day.mask)
        tiles += len(D.holdout_tileset([day]).specs)
        day_ids.append(day.day_id)
        if on_mask is not None:
            on_mask(day, pred)
    result = HoldoutResult.of(counts, counts=counts, tiles=tiles)
    if result is None:
        absent = "fire" if counts.actual_fire == 0 else "no-fire"
        raise ValueError(f"holdout metrics undefined: holdout days {day_ids[0]}..{day_ids[-1]} "
                         f"hold no {absent} pixel")
    return result


def predict_tiles(params: U.UNetParams, n: int, cut: Callable[[slice], np.ndarray],
                  threshold: float) -> np.ndarray:
    """Masks [n, 32, 32] of n tiles, PREDICT_BATCH per forward; cut(at) gives slice at's tiles."""
    masks = np.empty((n, D.TILE_SIDE, D.TILE_SIDE), np.uint8)
    for lo in range(0, n, PREDICT_BATCH):
        logits, _ = U.forward(params, cut(slice(lo, lo + PREDICT_BATCH)))
        masks[lo : lo + PREDICT_BATCH] = U.predict_mask(logits, threshold)
    return masks


def predict_day(params: U.UNetParams, day: D.GridDay, threshold: float) -> np.ndarray:
    """Predict a full day raster by tiling, then stitch tiles back together."""
    out = np.zeros((day.height, day.width), np.uint8)
    specs, days = D.extract_tiles(day), {day.day_id: day}
    pred = predict_tiles(  # a day's tiles are never all cut
        params, len(specs), lambda at: D.materialize_batch(specs[at], days)[0], threshold)
    for s, tile in zip(specs, pred):
        # the slice stops at the raster edge, dropping an edge tile's padding
        window = out[s.row_off : s.row_off + D.TILE_SIDE, s.col_off : s.col_off + D.TILE_SIDE]
        window[...] = tile[: window.shape[0], : window.shape[1]]
    return out
