"""Deterministic synthetic dataset with a planted, spatially clustered fire rule.

Numeric channels are standardized smoothed-noise fields: some static across
days (terrain-like), some drawn per day (weather-like). One categorical
channel bins a static field into land-cover codes, and a static water mask
comes from thresholding another smoothed field.

Fire labels follow a two-stage generative rule over three designated
channels: per-pixel seed ignition with probability sigmoid(gain * (score -
bias)), then independent contagion to Chebyshev-1 and -2 neighbors with
decaying probabilities. Because every ignition/contagion event is
independent, the exact per-pixel fire marginal is a closed-form product,
which both the bias calibration and the reference (ceiling) predictor use.
Calibration bisects the bias against the exact expected rate: it computes
the bias-independent score once per day and stops the bisection at its
fixed point (where a step no longer moves either bound).

The rule description is returned next to the dataset so tests can evaluate
that ceiling; it is not part of the schema the model sees.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date, timedelta

import numpy as np

from .data import CATEGORICAL, FIRE, NO_FIRE, WATER, Channel, FeatureSchema, GridDay
from .metrics import ConfusionCounts, Scores, confusion

BASE_DAY = date(2021, 6, 1)

# contagion neighborhoods: all offsets at Chebyshev distance exactly 1 and 2
_NEIGH1 = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]
_NEIGH2 = [
    (dr, dc)
    for dr in range(-2, 3)
    for dc in range(-2, 3)
    if max(abs(dr), abs(dc)) == 2
]


@dataclass(frozen=True)
class SynthConfig:
    height: int = 128
    width: int = 128
    days: int = 30
    numeric_channels: int = 8
    categories: int = 4
    target_fire_rate: float = 1e-3
    water_fraction: float = 0.15
    seed: int = 0
    blur_radius: int = 9
    deterministic_labels: bool = False  # threshold the marginal instead of sampling

    def __post_init__(self):
        if not 0.0 < self.target_fire_rate <= 0.05:
            raise ValueError("target_fire_rate must lie in (0, 0.05]")
        if self.height < 64 or self.width < 64:
            raise ValueError("raster must be at least 64x64")
        if self.numeric_channels < 3:
            raise ValueError("the planted rule needs at least 3 numeric channels")
        if self.categories < 2 or self.days < 1:
            raise ValueError("need >= 2 categories and >= 1 day")
        if not 0.0 <= self.water_fraction < 0.9:
            raise ValueError("water_fraction must lie in [0, 0.9)")
        if self.blur_radius < 0:
            raise ValueError("blur_radius must be >= 0")


@dataclass(frozen=True)
class PlantedRule:
    """Ground truth of the generative fire process (kept out of the schema)."""

    channel_a: int  # dynamic driver
    channel_b: int  # dynamic driver
    channel_c: int  # static driver
    coef_a: float
    coef_b: float
    coef_c: float
    gain: float
    bias: float
    spread_p1: float
    spread_p2: float
    static_channels: tuple[int, ...]
    dynamic_channels: tuple[int, ...]
    deterministic_level: float | None = None  # marginal threshold when labels are noiseless

    def score(self, features: np.ndarray) -> np.ndarray:
        fa = features[self.channel_a].astype(np.float64)
        fb = features[self.channel_b].astype(np.float64)
        fc = features[self.channel_c].astype(np.float64)
        return self.coef_a * fa + self.coef_b * fb * fc + self.coef_c * fc * fc

    def seed_probability(self, features: np.ndarray, land: np.ndarray) -> np.ndarray:
        return self._seed_from_score(self.score(features), land)

    def _seed_from_score(self, score: np.ndarray, land: np.ndarray) -> np.ndarray:
        q = 1.0 / (1.0 + np.exp(-self.gain * (score - self.bias)))
        return np.where(land, q, 0.0)

    def fire_marginal(self, features: np.ndarray, land: np.ndarray) -> np.ndarray:
        """Exact P(pixel burns): independent seed + contagion events."""
        return self._spread(self.seed_probability(features, land), land)

    def _spread(self, q: np.ndarray, land: np.ndarray) -> np.ndarray:
        """1 - P(no seed) * prod over neighbors (1 - p * q[neighbor]), q zero off-grid.

        The products run on a flat row-major copy of q with a 2-wide zero
        border (and a spare row), where neighbor (dr, dc) is a contiguous
        slice; the garbage columns past the raster width are cut at the end.
        """
        h, w = q.shape
        row, span = w + 4, h * (w + 4)
        qp = _pad2(q).ravel()
        no_fire = 1.0 - qp[2 * row + 2 : 2 * row + 2 + span]
        f1 = 1.0 - self.spread_p1 * qp
        f2 = 1.0 - self.spread_p2 * qp
        for (dr, dc), f in [(o, f1) for o in _NEIGH1] + [(o, f2) for o in _NEIGH2]:
            off = (dr + 2) * row + dc + 2
            no_fire *= f[off : off + span]
        return np.where(land, 1.0 - no_fire.reshape(h, row)[:, :w], 0.0)


def _pad2(a: np.ndarray) -> np.ndarray:
    """a on a 2-wide zero border plus one spare bottom row: shape (h + 5, w + 4)."""
    h, w = a.shape
    out = np.zeros((h + 5, w + 4), a.dtype)
    out[2 : h + 2, 2 : w + 2] = a
    return out


def _box1d(a: np.ndarray, radius: int, axis: int) -> np.ndarray:
    pad = [(0, 0)] * a.ndim
    pad[axis] = (radius + 1, radius)
    p = np.pad(a, pad, mode="edge")
    c = np.cumsum(p, axis=axis, dtype=np.float64)
    hi = [slice(None)] * a.ndim
    lo = [slice(None)] * a.ndim
    hi[axis] = slice(2 * radius + 1, None)
    lo[axis] = slice(0, a.shape[axis])
    return (c[tuple(hi)] - c[tuple(lo)]) / (2 * radius + 1)


def _smooth_field(rng: np.random.Generator, h: int, w: int, radius: int) -> np.ndarray:
    """Standardized separable box-blur (applied twice) of white noise."""
    field = rng.standard_normal((h, w))
    for _ in range(2):
        field = _box1d(_box1d(field, radius, 0), radius, 1)
    return (field - field.mean()) / field.std()


def _child_rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


# fixed tags for the per-purpose seed streams
_TAG_STATIC, _TAG_WATER, _TAG_LANDCOVER, _TAG_DYNAMIC, _TAG_LABELS = range(5)


def _draw_labels(
    rule: PlantedRule, features: np.ndarray, land: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    q = rule.seed_probability(features, land)
    seeds = land & (rng.random(q.shape) < q)
    h, w = q.shape
    sp = _pad2(seeds)  # seeds[r + dr, c + dc] is sp[2 + dr + r, 2 + dc + c]
    fire = seeds.copy()
    for (dr, dc), p in [(o, rule.spread_p1) for o in _NEIGH1] + [
        (o, rule.spread_p2) for o in _NEIGH2
    ]:
        fire |= sp[2 + dr : 2 + dr + h, 2 + dc : 2 + dc + w] & (rng.random(q.shape) < p)
    return fire & land


def generate_dataset(
    config: SynthConfig,
) -> tuple[list[GridDay], FeatureSchema, PlantedRule]:
    """Build the full synthetic dataset, bitwise-deterministic in config.seed.

    The dataset-wide fire rate is calibrated to target_fire_rate: the rule
    bias is solved against the exact expected rate, then the realized draw is
    rejected and redrawn (bounded retries) until it lands within +-20%.
    """
    h, w, seed = config.height, config.width, config.seed
    dynamic = tuple(i for i in range(config.numeric_channels) if i % 2 == 0)
    static = tuple(i for i in range(config.numeric_channels) if i % 2 == 1)

    static_fields = {
        i: _smooth_field(_child_rng(seed, _TAG_STATIC, i), h, w, config.blur_radius)
        for i in static
    }
    water_field = _smooth_field(_child_rng(seed, _TAG_WATER), h, w, config.blur_radius)
    if config.water_fraction > 0:
        water = water_field < np.quantile(water_field, config.water_fraction)
    else:
        water = np.zeros((h, w), dtype=bool)
    land = ~water

    lc_field = _smooth_field(_child_rng(seed, _TAG_LANDCOVER), h, w, config.blur_radius)
    edges = np.quantile(lc_field, np.linspace(0, 1, config.categories + 1)[1:-1])
    landcover = np.searchsorted(edges, lc_field.reshape(-1)).reshape(h, w).astype(np.float32)

    channels: list[Channel] = []
    for i in range(config.numeric_channels):
        if i in static:
            channels.append(Channel(f"terrain_{i:02d}"))
        else:
            channels.append(Channel(f"weather_{i:02d}"))
    channels.append(
        Channel("landcover", CATEGORICAL, tuple(f"lc{k}" for k in range(config.categories)))
    )
    schema = FeatureSchema(tuple(channels))

    # feature stacks first: the rule score needs them for calibration
    stacks = []
    for d in range(config.days):
        stack = np.zeros((config.numeric_channels + 1, h, w), dtype=np.float32)
        for i in range(config.numeric_channels):
            if i in static:
                stack[i] = static_fields[i].astype(np.float32)
            else:
                stack[i] = _smooth_field(
                    _child_rng(seed, _TAG_DYNAMIC, d, i), h, w, config.blur_radius
                ).astype(np.float32)
        stack[-1] = landcover
        stacks.append(stack)

    rule = PlantedRule(
        channel_a=dynamic[0],
        channel_b=dynamic[1] if len(dynamic) > 1 else dynamic[0],
        channel_c=static[0],
        coef_a=1.2,
        coef_b=0.9,
        coef_c=0.6,
        gain=4.0,
        bias=0.0,
        spread_p1=0.35,
        spread_p2=0.08,
        static_channels=static,
        dynamic_channels=dynamic,
    )
    rule = replace(rule, bias=_calibrate_bias(rule, stacks, land, config.target_fire_rate))

    level = None
    if config.deterministic_labels:
        marginals = np.concatenate(
            [rule.fire_marginal(s, land)[land] for s in stacks]
        )
        level = float(np.quantile(marginals, 1.0 - config.target_fire_rate))
        rule = replace(rule, deterministic_level=level)

    days: list[GridDay] = []
    lo = 0.8 * config.target_fire_rate
    hi = 1.2 * config.target_fire_rate
    for attempt in range(8):
        masks = []
        for d, stack in enumerate(stacks):
            if config.deterministic_labels:
                fire = land & (rule.fire_marginal(stack, land) >= level)
            else:
                fire = _draw_labels(rule, stack, land, _child_rng(seed, _TAG_LABELS, d, attempt))
            mask = np.full((h, w), NO_FIRE, dtype=np.uint8)
            mask[water] = WATER
            mask[fire] = FIRE
            masks.append(mask)
        achieved = sum(int((m == FIRE).sum()) for m in masks) / (config.days * int(land.sum()))
        if config.deterministic_labels or lo <= achieved <= hi:
            break
    else:
        raise RuntimeError(
            f"fire-rate calibration failed: achieved {achieved:.2e}, "
            f"target {config.target_fire_rate:.2e} +-20%"
        )

    for d, (stack, mask) in enumerate(zip(stacks, masks)):
        days.append(GridDay(BASE_DAY + timedelta(days=d), stack, mask))
    return days, schema, rule


def _calibrate_bias(
    rule: PlantedRule, stacks: list[np.ndarray], land: np.ndarray, target: float
) -> float:
    """Bisect the rule bias so the exact expected fire rate hits the target."""
    scores = [rule.score(s) for s in stacks]  # independent of the bias

    def expected_rate(bias: float) -> float:
        r = replace(rule, bias=bias)
        marginals = (r._spread(r._seed_from_score(sc, land), land) for sc in scores)
        return sum(float(m[land].sum()) for m in marginals) / (len(stacks) * int(land.sum()))

    lo, hi = -30.0, 60.0
    if not expected_rate(lo) >= target >= expected_rate(hi):
        raise RuntimeError("fire-rate target outside the calibratable range")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        step = (mid, hi) if expected_rate(mid) >= target else (lo, mid)
        if step == (lo, hi):
            break  # fixed point: every later step would repeat this one
        lo, hi = step
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ReferencePoint(Scores):
    tau: float


def bayes_reference(
    days: list[GridDay], rule: PlantedRule, taus: list[float] | None = None
) -> list[ReferencePoint]:
    """Evaluate the planted rule's own fire marginal as a predictor.

    This is the ceiling a trained model is compared against: no model can
    systematically beat thresholded true marginals on labels drawn from them.
    """
    if taus is None:
        taus = [i / 20 for i in range(1, 20)]
    marginals = [rule.fire_marginal(day.features, day.mask != WATER) for day in days]
    out = []
    for tau in taus:
        pooled = (confusion((m >= tau).astype(np.uint8), day.mask) for day, m in zip(days, marginals))
        point = ReferencePoint.of(sum(pooled, ConfusionCounts()), tau=tau)
        if point is not None:
            out.append(point)
    if not out:
        raise ValueError("reference evaluation degenerate: no defined operating points")
    return out


def best_reference(points: list[ReferencePoint], es_metric: str = "sh2") -> ReferencePoint:
    return max(points, key=lambda p: p.score(es_metric))
