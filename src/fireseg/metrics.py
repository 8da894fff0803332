"""Pixel-level confusion accounting and the selection scores built on it.

Ratios with empty denominators come back as None rather than a silent 0,
so model selection can recognize (and reject) degenerate validation folds.
Scores is the one record of a pooled score: the epoch trace, the kept
checkpoint, the holdout result and the Bayes reference points all extend
it, and every report writes its (sens, spec, sh1, sh2) from values().
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import IGNORE_LABEL, ShapeError


@dataclass(frozen=True)
class ConfusionCounts:
    """TP/FN/TN/FP pixel tallies; water/ignored pixels never enter them."""

    tp: int = 0
    fn: int = 0
    tn: int = 0
    fp: int = 0

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.fn + other.fn, self.tn + other.tn, self.fp + other.fp
        )

    @property
    def actual_fire(self) -> int:
        return self.tp + self.fn

    @property
    def actual_no_fire(self) -> int:
        return self.tn + self.fp


def pixel_code(truth: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """uint8 2 * truth + (pred != 0): 0 TN, 1 FP, 2 FN, 3 TP, 4-5 water; a render's palette row."""
    return 2 * truth.astype(np.uint8) + (pred != 0)


def confusion(pred_mask: np.ndarray, true_mask: np.ndarray) -> ConfusionCounts:
    """Count pixel outcomes, skipping pixels whose true label is ignore (2)."""
    if pred_mask.shape != true_mask.shape:
        raise ShapeError(f"prediction {pred_mask.shape} and truth {true_mask.shape} differ")
    if true_mask.size and (true_mask.min() < 0 or true_mask.max() > IGNORE_LABEL):
        raise ValueError("true mask labels must be in {0,1,2}")
    tn, fp, fn, tp = np.bincount(pixel_code(true_mask, pred_mask).ravel(), minlength=6)[:4].tolist()
    return ConfusionCounts(tp=tp, fn=fn, tn=tn, fp=fp)


def sensitivity(c: ConfusionCounts) -> float | None:
    """Recall of the fire class; None when there are no actual fire pixels."""
    if c.actual_fire == 0:
        return None
    return c.tp / c.actual_fire


def specificity(c: ConfusionCounts) -> float | None:
    """Recall of the no-fire class; None when there are no actual no-fire pixels."""
    if c.actual_no_fire == 0:
        return None
    return c.tn / c.actual_no_fire


def shybrid(l: float, sens: float, spec: float) -> float:
    """Model-selection score l * sensitivity + specificity.

    l = 1 balances the two recalls, l = 2 favors sensitivity.
    """
    if sens is None or spec is None:
        raise ValueError("shybrid is undefined for degenerate sensitivity/specificity")
    return l * sens + spec


@dataclass(frozen=True)
class Scores:
    """Pooled sensitivity and specificity; sh1 and sh2 follow from them."""

    sens: float
    spec: float

    @classmethod
    def of(cls, counts: ConfusionCounts, /, **fields) -> Scores | None:
        """cls(sens, spec, **fields) from pooled counts; None when either class is absent."""
        sens, spec = sensitivity(counts), specificity(counts)
        return None if sens is None or spec is None else cls(sens, spec, **fields)

    @property
    def sh1(self) -> float:
        return shybrid(1, self.sens, self.spec)

    @property
    def sh2(self) -> float:
        return shybrid(2, self.sens, self.spec)

    def score(self, name: str) -> float:  # name is "sh1" or "sh2"
        return getattr(self, name)

    def values(self) -> tuple[float, float, float, float]:
        """(sens, spec, sh1, sh2), the order of formats.SCORE_COLUMNS."""
        return self.sens, self.spec, self.sh1, self.sh2


def format_scores(values: tuple[float, ...]) -> str:
    """The `sens=... spec=... sh1=... sh2=...` text of a values() tuple, 4 decimals."""
    return " ".join(f"{name}={v:.4f}" for name, v in zip(("sens", "spec", "sh1", "sh2"), values))
