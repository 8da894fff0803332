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
1 - (1 - q) * prod over neighbors (1 - p * q[neighbor]), which both the bias
calibration and the reference (ceiling) predictor use.

The product is only computed where it can be nonzero. If a pixel's seed
probability q is at most 2**-55, its factors 1 - q and 1 - p * q round to
exactly 1.0 for every 0 <= p <= 1. A pixel is cold when its score lies more
than 40 / gain below the bias: then q <= exp(-40) ~ 2**-57.7, far enough
under 2**-55 that exp's rounding cannot cross it. So a land pixel with no
hot pixel within Chebyshev distance 2 gets the marginal 0.0 that the full
product gives it, and the product runs, with the same factors in the same
order, only at the others; they are found by comparing each land pixel's
highest land score within distance 2 with the cutoff. Calibration returns
the bias that bisecting [-30, 60] against the exact expected rate settles
on at its fixed point (where a step no longer moves either bound), from
about a quarter of its rate evaluations (see _calibrate_bias). The rate
sums each day over all its land pixels (so numpy's pairwise summation sees
the array the full product gives). A day keeps the active set of the last
pass that scanned all its land pixels (the pixels whose highest score
reaches the cutoff, ascending, with their scores and highest scores) while
that set holds at most an eighth of its land. A later pass whose cutoff is
no lower filters the kept set by highest score instead of scanning: the
same pixels in the same order with the same scores, since a score does not
depend on the bias. The search steps the cutoff down until a step first
raises the lower bound; every later probe lies inside the bracket that step
left, above its cutoff, so a day whose set was kept there scans no more. A
day computes the highest scores of all its land pixels when it scans and
drops them once it keeps a set, so no day holds one value per pixel beyond
its scan, unless its active set is too large to keep.

Label draws read only the uniforms they use. A contagion uniform matters
only at a pixel whose neighbor at that offset is a seed; the generator's
stream gives one 64-bit output per double, so the draw skips the others
with the bit generator's jump-ahead and the labels keep the bits of drawing
every contagion raster in full.

The rule reads two dynamic channels and one static one, so generation
builds those channels of every day first, calibrates the bias and draws the
labels on them, and only then builds each full day, when it is consumed.

The rule description is returned next to the dataset so tests can evaluate
that ceiling; it is not part of the schema the model sees.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from datetime import date, timedelta
from functools import cache, reduce

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

    @property
    def channels(self) -> tuple[int, int, int]:
        """The channels score reads."""
        return self.channel_a, self.channel_b, self.channel_c

    def score(self, features) -> np.ndarray:
        """The rule's score per pixel; features[i] is channel i's plane (a [C, ...] stack
        or a dict holding at least the rule's channels)."""
        fa = features[self.channel_a].astype(np.float64)
        fb = features[self.channel_b].astype(np.float64)
        fc = features[self.channel_c].astype(np.float64)
        return self.coef_a * fa + self.coef_b * fb * fc + self.coef_c * fc * fc

    def seed_probability(self, features, land: np.ndarray) -> np.ndarray:
        return np.where(land, self._seed(self.score(features)), 0.0)

    def _seed(self, score: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.gain * (score - self.bias)))

    def fire_marginal(self, features, land: np.ndarray) -> np.ndarray:
        """Exact P(pixel burns): independent seed + contagion events."""
        raster = _Raster(land)
        reach = _reach(self.score(features), land)
        self._burn(raster, *_scan(self, raster, features, reach))
        out = np.zeros(land.shape)
        out[land] = raster.burn
        return out

    def _cutoff(self) -> float:
        """Score below which a pixel is cold (see the module docstring).

        Without a positive gain, a numeric bias and spread probabilities in
        [0, 1] it is -inf: every pixel counts as hot.
        """
        probabilities = all(0 <= p <= 1 for p in (self.spread_p1, self.spread_p2))
        if self.gain > 0 and not np.isnan(self.bias) and probabilities:
            return self.bias - _COLD / self.gain
        return -np.inf

    def _burn(self, raster: _Raster, act: np.ndarray, score: np.ndarray) -> None:
        """P(burn) = 1 - (1 - q) * prod over neighbors (1 - p * q[neighbor]) into raster.burn.

        act holds, ascending, the land indices that a hot pixel reaches (see
        _scan) and score the rule's score at each. Only they get the product;
        every other entry of raster.burn stays 0.0, and the caller resets act's.
        """
        cut = self._cutoff()
        hot = ~(score < cut)  # NaN is hot; hot pixels are active, reach counts their own score
        at_hot = raster.pos[act[hot]]
        q = self._seed(score[hot])
        own, near, far = raster.factors
        own[at_hot] = 1.0 - q
        near[at_hot] = 1.0 - self.spread_p1 * q
        far[at_hot] = 1.0 - self.spread_p2 * q
        for lo in range(0, act.size, _BLOCK):
            block = act[lo : lo + _BLOCK]
            factors = raster.factors.ravel()[raster.pos[block] + raster.offsets]
            # numpy reduces a leading axis row by row: ((f0 * f1) * f2) ..., the full order
            raster.burn[block] = 1.0 - np.multiply.reduce(factors, axis=0)
        own[at_hot] = near[at_hot] = far[at_hot] = 1.0


_COLD = 40.0  # gain * (bias - score) beyond which a pixel is cold
_BLOCK = 1024  # active pixels per gather: bounds the [25, block] temporaries


class _Raster:
    """Flat bordered grids of one land mask, for the marginal product.

    flat[k] is the row-major pixel index of the k-th land pixel and pos[k]
    its index on a grid with a 2-wide border, where neighbor (dr, dc) is
    dr * (w + 4) + dc away. factors holds three such grids, of 1 - q,
    1 - spread_p1 * q and 1 - spread_p2 * q: 1.0 outside the hot pixels an
    evaluation sets. offsets picks, from the flattened factors, the pixel's
    own factor and then its neighbors' in _NEIGH1 + _NEIGH2 order. burn
    holds P(burn) per land pixel.
    """

    def __init__(self, land: np.ndarray):
        h, w = land.shape
        row, size = w + 4, (h + 4) * (w + 4)
        self.flat = np.flatnonzero(land)
        self.pos = ((np.arange(2, h + 2)[:, None] * row) + np.arange(2, w + 2))[land]
        self.factors = np.ones((3, size))
        self.burn = np.zeros(self.flat.size)
        self.offsets = np.array(
            [0]
            + [size + dr * row + dc for dr, dc in _NEIGH1]
            + [2 * size + dr * row + dc for dr, dc in _NEIGH2]
        )[:, None]


def _reach(score: np.ndarray, land: np.ndarray) -> np.ndarray:
    """Each land pixel's highest land score within Chebyshev distance 2 (NaN counts as inf)."""
    h, w = land.shape
    grid = np.full((h + 4, w + 4), -np.inf)
    grid[2 : h + 2, 2 : w + 2] = np.where(land, score, -np.inf)
    grid[np.isnan(grid)] = np.inf  # a NaN score spreads NaN to every pixel it reaches
    rows = reduce(np.maximum, [grid[:, c : c + w] for c in range(5)])
    return reduce(np.maximum, [rows[r : r + h] for r in range(5)])[land]


def _scan(rule: PlantedRule, raster: _Raster, features, reach: np.ndarray):
    """The land indices whose reach is at least rule's cutoff, ascending, and the rule's score at each.

    features[i] is the day's [H, W] plane of channel i, for each of the
    rule's channels; reach holds each land pixel's highest land score within
    Chebyshev distance 2.
    """
    act = np.flatnonzero(reach >= rule._cutoff())
    pixels = raster.flat[act]
    return act, rule.score({i: features[i].reshape(-1)[pixels] for i in rule.channels})


class _Smoother:
    """Standardized separable box blurs (applied twice) of white noise, h x w.

    One instance holds the float64 buffers all fields of a dataset reuse: an
    edge-padded copy per axis and the field. Each blur pass pads the field's
    edges, takes a cumulative sum along the axis and divides the window
    differences by 2r + 1, the operations of np.pad(mode="edge") and
    np.cumsum in the same order.
    """

    def __init__(self, h: int, w: int, radius: int):
        self.radius = radius
        self.rows = np.empty((h + 2 * radius + 1, w))
        self.cols = np.empty((h, w + 2 * radius + 1))
        self.field = np.empty((h, w))

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        r, field = self.radius, self.field
        rng.standard_normal(out=field)
        for _ in range(2):
            # a column pass is a row pass on the transposed views
            for pad, a in ((self.rows, field), (self.cols.T, field.T)):
                n = len(a)
                pad[: r + 1] = a[0]
                pad[r + 1 : r + 1 + n] = a
                pad[r + 1 + n :] = a[-1]
                np.cumsum(pad, axis=0, out=pad)
                np.subtract(pad[2 * r + 1 :], pad[:n], out=a)
                a /= 2 * r + 1
        return (field - field.mean()) / field.std()


def _child_rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


# fixed tags for the per-purpose seed streams
_TAG_STATIC, _TAG_WATER, _TAG_LANDCOVER, _TAG_DYNAMIC, _TAG_LABELS = range(5)


_GAP = 512  # unread uniforms worth one advance() rather than drawing them


def _draw_labels(rule: PlantedRule, features, land: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One label draw: a raster of seed uniforms, then one of contagion uniforms per offset.

    Pixel j burns from offset k = (dr, dc) when pixel j + (dr, dc) is a seed
    and contagion raster k's uniform at j is below k's spread probability.
    Only those uniforms are read. Each double is one 64-bit output of rng's
    stream, so raster k's uniform at j is output (k + 1) * H * W + j: the
    needed ones are drawn in spans, jumping with advance() over gaps of more
    than _GAP, and rng ends where drawing every raster in full leaves it.
    """
    q = rule.seed_probability(features, land)
    h, w = q.shape
    n = h * w
    fire = land & (rng.random(q.shape) < q)  # the seeds
    r, c = np.divmod(np.flatnonzero(fire), w)
    offsets = _NEIGH1 + _NEIGH2
    at = []  # ascending stream positions of the uniforms read
    for k, (dr, dc) in enumerate(offsets):
        inside = (r >= dr) & (r < h + dr) & (c >= dc) & (c < w + dc)
        at.append((k + 1) * n + (r[inside] - dr) * w + (c[inside] - dc))
    at = np.concatenate(at)
    u, end = np.empty(at.size), n  # the stream stands at output `end`
    cuts = [0, *(np.flatnonzero(np.diff(at) > _GAP) + 1), at.size] if at.size else []
    for lo, hi in zip(cuts, cuts[1:]):
        rng.bit_generator.advance(int(at[lo]) - end)
        end = int(at[hi - 1]) + 1
        u[lo:hi] = rng.random(end - int(at[lo]))[at[lo:hi] - at[lo]]
    rng.bit_generator.advance((len(offsets) + 1) * n - end)
    p = np.where(at < (len(_NEIGH1) + 1) * n, rule.spread_p1, rule.spread_p2)
    fire.reshape(-1)[at[u < p] % n] = True
    return fire & land


def stream_dataset(
    config: SynthConfig,
) -> tuple[Iterator[GridDay], FeatureSchema, PlantedRule]:
    """The synthetic dataset, bitwise-deterministic in config.seed, its days built as they are drawn.

    The dataset-wide fire rate is calibrated to target_fire_rate: the rule
    bias is solved against the exact expected rate, then the realized draw is
    rejected and redrawn (bounded retries) until it lands within +-20%. Both
    run on the rule's channels alone, before the first day is drawn: each
    day's two dynamic rule channels and the shared static one. A day's other
    dynamic fields are smoothed when the day is drawn, each field once.

    Memory: until the last day is drawn, every day's two rule channels and
    mask, the static fields and the smoothing workspace (a fixed few
    rasters); while the calibration runs, each day also keeps a small active
    set: at most an eighth of its land, 24 bytes a pixel. The reach of every
    land pixel (one float64 each) is held by the day being scanned and by a
    day whose active set is too large to keep. The label draws hold one
    day's seeds and the uniforms they read. That is two float32 channels,
    one mask and at most 3 bytes per pixel per day while every day keeps
    its set (as at the default fire rate); a day whose set is too large
    holds 8 bytes per land pixel instead. A full day is held only by
    whoever draws it.
    """
    h, w, seed = config.height, config.width, config.seed
    dynamic = tuple(i for i in range(config.numeric_channels) if i % 2 == 0)
    static = tuple(i for i in range(config.numeric_channels) if i % 2 == 1)

    smooth = _Smoother(h, w, config.blur_radius)
    static_fields = {i: smooth(_child_rng(seed, _TAG_STATIC, i)).astype(np.float32) for i in static}
    water_field = smooth(_child_rng(seed, _TAG_WATER))
    water = water_field < np.quantile(water_field, config.water_fraction)  # none at fraction 0
    land = ~water

    lc_field = smooth(_child_rng(seed, _TAG_LANDCOVER))
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

    rule = PlantedRule(
        channel_a=dynamic[0],
        channel_b=dynamic[1],
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

    def field(d: int, i: int) -> np.ndarray:
        """Day d's channel i; a dynamic field is smoothed on every call."""
        if i in static:
            return static_fields[i]
        return smooth(_child_rng(seed, _TAG_DYNAMIC, d, i)).astype(np.float32)

    # the rule's channels of every day first: calibration and labels read only them
    scored = [{i: field(d, i) for i in rule.channels} for d in range(config.days)]
    rule = replace(rule, bias=_calibrate_bias(rule, scored, land, config.target_fire_rate))

    def as_mask(fire: np.ndarray) -> np.ndarray:
        mask = np.full((h, w), NO_FIRE, dtype=np.uint8)
        mask[water] = WATER
        mask[fire] = FIRE
        return mask

    lo = 0.8 * config.target_fire_rate
    hi = 1.2 * config.target_fire_rate
    for attempt in range(8):
        masks = [as_mask(_draw_labels(rule, p, land, _child_rng(seed, _TAG_LABELS, d, attempt)))
                 for d, p in enumerate(scored)]
        achieved = sum(int((m == FIRE).sum()) for m in masks) / (config.days * int(land.sum()))
        if lo <= achieved <= hi:
            break
    else:
        raise RuntimeError(
            f"fire-rate calibration failed: achieved {achieved:.2e}, "
            f"target {config.target_fire_rate:.2e} +-20%"
        )

    def full_days() -> Iterator[GridDay]:
        for d, (planes, mask) in enumerate(zip(scored, masks)):
            stack = np.empty((config.numeric_channels + 1, h, w), dtype=np.float32)
            for i in range(config.numeric_channels):
                stack[i] = planes[i] if i in planes else field(d, i)
            stack[-1] = landcover
            yield GridDay(BASE_DAY + timedelta(days=d), stack, mask)

    return full_days(), schema, rule


def generate_dataset(
    config: SynthConfig,
) -> tuple[list[GridDay], FeatureSchema, PlantedRule]:
    """stream_dataset's dataset with every day built: all days are held at once."""
    days, schema, rule = stream_dataset(config)
    return list(days), schema, rule


def _expected_rate(rule: PlantedRule, stacks: list, land: np.ndarray):
    """expected_rate(bias): the exact fire marginal's mean over every land pixel of every day.

    stacks[d][i] is day d's plane of channel i, for each of the rule's
    channels. Each day keeps a small active set of its last full scan (see
    the module docstring) with the reach of its pixels; a day computes the
    reach of all its land pixels when it scans, and holds it only while it
    keeps no set.
    """
    raster = _Raster(land)
    small = raster.flat.size // 8
    # per day: its planes, the reach of each land pixel while it keeps no set,
    # and the kept (cutoff, land indices, scores, reach at those), if any
    days = [[s, None, None] for s in stacks]

    def expected_rate(bias: float) -> float:
        r = replace(rule, bias=bias)
        cut = r._cutoff()
        total = 0
        for day in days:
            features, reach, kept = day
            if kept is not None and cut >= kept[0]:
                _, act, score, near = kept
                inside = near >= cut
                act, score = act[inside], score[inside]
            else:
                if reach is None:
                    reach = _reach(rule.score(features), land)
                act, score = _scan(r, raster, features, reach)
                if act.size <= small:
                    day[1:] = None, (cut, act, score, reach[act])
                else:
                    day[1:] = reach, None
            r._burn(raster, act, score)
            total += float(raster.burn.sum())  # all land pixels, in raster order
            raster.burn[act] = 0.0
        return total / (len(stacks) * int(land.sum()))

    return expected_rate


def _calibrate_bias(rule: PlantedRule, stacks: list, land: np.ndarray, target: float) -> float:
    """The bias bisecting [-30, 60] against the exact expected rate settles on, from fewer rates.

    Bisect to a bracket under 0.5 wide, close it to adjacent doubles by
    Anderson-Bjorck regula falsi on the log rate, then replay the bisection.
    The rate does not increase with the bias, so only replayed midpoints
    inside the bracket need a rate, and a range check needs one only at a
    bound that never moved off -30 or 60 (at -30 every land pixel is active).
    """
    rate = cache(_expected_rate(rule, stacks, land))

    def gap(bias: float) -> float:  # log(rate / target): near linear in the bias
        ratio = rate(bias) / target
        return math.log(ratio) if ratio > 0 else -math.inf

    def damping(f_new: float, f_old: float) -> float:  # Anderson-Bjorck's, for an end kept twice
        m = 1.0 - f_new / f_old if f_old else 0.0
        return m if m > 0 else 0.5

    a, b = -30.0, 60.0
    while b - a >= 0.5:
        mid = 0.5 * (a + b)
        a, b = (mid, b) if rate(mid) >= target else (a, mid)
    a, b = (a if a > -30.0 else -math.inf), (b if b < 60.0 else math.inf)  # unevaluated: no bound
    if math.isfinite(b - a):
        fa, fb, side = gap(a), gap(b), 0
        while math.nextafter(a, b) < b:
            x = b - fb * (b - a) / (fb - fa)  # NaN when a gap is -inf
            x = 0.5 * (a + b) if math.isnan(x) else x
            x = min(max(x, math.nextafter(a, b)), math.nextafter(b, a))
            fx = gap(x)
            if rate(x) >= target:
                fb *= damping(fx, fa) if side == 1 else 1.0
                a, fa, side = x, fx, 1
            else:
                fa *= damping(fx, fb) if side == -1 else 1.0
                b, fb, side = x, fx, -1
    lo, hi = -30.0, 60.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        step = (mid, hi) if (rate(mid) >= target if a < mid < b else mid <= a) else (lo, mid)
        if step == (lo, hi):
            break  # fixed point: every later step would repeat this one
        lo, hi = step
    if hi == 60.0 and not target >= rate(hi) or lo == -30.0 and not rate(lo) >= target:
        raise RuntimeError("fire-rate target outside the calibratable range")
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ReferencePoint(Scores):
    tau: float


# the thresholds bayes_reference scores the fire marginal at: 0.05, 0.10, ..., 0.95
REFERENCE_TAUS = tuple(i / 20 for i in range(1, 20))


def bayes_reference(days: list[GridDay], rule: PlantedRule) -> list[ReferencePoint]:
    """Evaluate the planted rule's own fire marginal as a predictor, at each of REFERENCE_TAUS.

    This is the ceiling a trained model is compared against: no model can
    systematically beat thresholded true marginals on labels drawn from them.
    """
    marginals = [rule.fire_marginal(day.features, day.mask != WATER) for day in days]
    out = []
    for tau in REFERENCE_TAUS:
        pooled = (confusion((m >= tau).astype(np.uint8), day.mask) for day, m in zip(days, marginals))
        point = ReferencePoint.of(sum(pooled, ConfusionCounts()), tau=tau)
        if point is not None:
            out.append(point)
    if not out:
        raise ValueError("reference evaluation degenerate: no defined operating points")
    return out


def best_reference(points: list[ReferencePoint], es_metric: str) -> ReferencePoint:
    return max(points, key=lambda p: p.score(es_metric))
