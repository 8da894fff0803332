import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    calibrate_bias_bisection,
    calibrate_bias_dense,
    draw_labels_dense,
    expected_rate_dense,
    fire_marginal_dense,
    smooth_field_padded,
)

from fireseg import data as D
from fireseg import synthetic
from fireseg.synthetic import (
    PlantedRule,
    SynthConfig,
    SynthConfig as SC,
    _calibrate_bias,
    _draw_labels,
    _expected_rate,
    bayes_reference,
    best_reference,
    generate_dataset,
    stream_dataset,
)


@pytest.fixture(scope="module")
def full_dataset():
    cfg = SynthConfig(days=30, seed=13)
    return cfg, *generate_dataset(cfg)


def fire_rate(days):
    land = days[0].mask != D.WATER
    return sum(int((d.mask == D.FIRE).sum()) for d in days) / (len(days) * int(land.sum()))


class TestGeneration:
    def test_same_seed_bitwise_identical(self):
        cfg = SynthConfig(height=64, width=64, days=3, seed=4, target_fire_rate=5e-3)
        days_a, schema_a, rule_a = generate_dataset(cfg)
        days_b, schema_b, rule_b = generate_dataset(cfg)
        assert schema_a == schema_b and rule_a == rule_b
        for a, b in zip(days_a, days_b):
            assert a.day_id == b.day_id
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.mask, b.mask)

    @pytest.mark.parametrize(
        "extra, bias_hex, digest",
        [
            (
                dict(days=3, seed=4),
                "0x1.83b9b38711a10p+4",
                "b13615c32c37f4459f6c790b9c6201d08174bd140cac7bdb5ab07a76016b5925",
            ),
            (  # no water: the pixels that can burn reach the raster edge
                dict(days=3, seed=8, water_fraction=0.0),
                "0x1.b50ee6fa30176p+3",
                "5aaa958669846ffbe4b9926fdd8759d782b6082c035d74771b663648c4f305cb",
            ),
            (  # non-square: a row/column stride mix-up shows here
                dict(days=3, seed=9, width=96),
                "0x1.96b57f9423952p+3",
                "e497616a54e5cc51f00f960329ca9565a0bcde9aac7d3e077daf45364f9ddfa1",
            ),
        ],
    )
    def test_generated_bytes_are_pinned(self, extra, bias_hex, digest):
        # golden values: any change to a generated bit (calibration, marginal,
        # label draws) must show here, not only in a downstream benchmark
        cfg = SynthConfig(**{"height": 64, "width": 64, "target_fire_rate": 5e-3, **extra})
        days, _, rule = generate_dataset(cfg)
        sha = hashlib.sha256()
        for day in days:
            sha.update(day.features.tobytes())
            sha.update(day.mask.tobytes())
        assert rule.bias.hex() == bias_hex
        assert sha.hexdigest() == digest

    def test_achieved_rate_within_20_percent(self, full_dataset):
        cfg, days, schema, rule = full_dataset
        rate = fire_rate(days)
        assert 0.8 * cfg.target_fire_rate <= rate <= 1.2 * cfg.target_fire_rate

    def test_water_never_burns(self, full_dataset):
        _, days, _, _ = full_dataset
        water = days[0].mask == D.WATER
        for day in days:
            assert not np.any(day.mask[water] == D.FIRE)

    def test_water_mask_static_and_near_requested_fraction(self, full_dataset):
        cfg, days, _, _ = full_dataset
        water0 = days[0].mask == D.WATER
        for day in days[1:]:
            assert np.array_equal(day.mask == D.WATER, water0)
        frac = water0.mean()
        assert abs(frac - cfg.water_fraction) < 0.02

    def test_static_channels_identical_dynamic_differ(self, full_dataset):
        _, days, schema, rule = full_dataset
        for i in rule.static_channels:
            assert np.array_equal(days[0].features[i], days[7].features[i])
        for i in rule.dynamic_channels:
            assert not np.array_equal(days[0].features[i], days[7].features[i])
        # the categorical channel is static land cover
        assert np.array_equal(days[0].features[-1], days[3].features[-1])

    def test_schema_matches_stack_layout(self, full_dataset):
        cfg, days, schema, _ = full_dataset
        assert len(schema.channels) == cfg.numeric_channels + 1
        assert days[0].features.shape[0] == len(schema.channels)
        kinds = [ch.kind for ch in schema.channels]
        assert kinds.count(D.CATEGORICAL) == 1
        assert schema.encoded_count == cfg.numeric_channels + cfg.categories

    def test_fire_pixels_cluster_tighter_than_uniform(self, full_dataset):
        _, days, _, _ = full_dataset

        def mean_nn(points):
            if len(points) < 2:
                return None
            pts = np.asarray(points, float)
            d2 = ((pts[:, None] - pts[None]) ** 2).sum(-1)
            np.fill_diagonal(d2, np.inf)
            return float(np.sqrt(d2.min(1)).mean())

        rng = np.random.default_rng(0)
        clustered, uniform = [], []
        for day in days:
            fire = np.argwhere(day.mask == D.FIRE)
            got = mean_nn(fire)
            if got is None:
                continue
            land = np.argwhere(day.mask != D.WATER)
            scatter = land[rng.choice(len(land), size=len(fire), replace=False)]
            clustered.append(got)
            uniform.append(mean_nn(scatter))
        assert len(clustered) >= 5
        assert np.mean(clustered) < np.mean(uniform)

    def test_calibration_failure_reports_achieved_rate(self):
        cfg = SynthConfig(
            height=64, width=64, days=1, seed=2, target_fire_rate=1e-7, water_fraction=0.0
        )
        with pytest.raises(RuntimeError, match="calibration failed"):
            generate_dataset(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SC(target_fire_rate=0.2)
        with pytest.raises(ValueError):
            SC(height=32)
        with pytest.raises(ValueError):
            SC(numeric_channels=2)

    def test_negative_blur_radius_is_refused(self):
        # the smoothing buffers would otherwise fail deep inside generation, naming no setting
        with pytest.raises(ValueError, match="blur_radius"):
            SC(blur_radius=-2)


class TestBayesReference:
    def test_noiseless_rule_is_a_perfect_predictor(self):
        # labels that are the marginal thresholded at a grid tau: at that tau
        # the reference predicts every pixel right
        cfg = SynthConfig(height=64, width=64, days=4, seed=6, target_fire_rate=5e-3)
        drawn, _, rule = generate_dataset(cfg)
        tau = 0.5
        days = []
        for day in drawn:
            land = day.mask != D.WATER
            fire = land & (rule.fire_marginal(day.features, land) >= tau)
            mask = np.where(land, np.where(fire, D.FIRE, D.NO_FIRE), D.WATER).astype(np.uint8)
            days.append(replace(day, mask=mask))
        assert sum(int((d.mask == D.FIRE).sum()) for d in days) > 0
        [point] = [p for p in bayes_reference(days, rule) if p.tau == tau]
        assert point.sens == 1.0 and point.spec == 1.0

    def test_noisy_ceiling_defined_and_imperfect(self, full_dataset):
        _, days, _, rule = full_dataset
        pts = bayes_reference(days[-8:], rule)
        best = best_reference(pts, "sh2")
        assert 0.0 < best.sens <= 1.0 and 0.0 < best.spec <= 1.0
        assert best.sh2 <= 3.0
        assert best.sh2 == max(p.sh2 for p in pts)

    def test_points_equal_a_per_tau_loop(self, full_dataset):
        # bayes_reference computes each day's marginal once; the points must
        # be the bits of recomputing it for every threshold
        from fireseg.metrics import confusion, sensitivity, shybrid, specificity

        _, days, _, rule = full_dataset
        days = days[-4:]
        taus = [i / 20 for i in range(1, 20)]
        expected = []
        for tau in taus:
            counts = None
            for day in days:
                marg = rule.fire_marginal(day.features, day.mask != D.WATER)
                c = confusion((marg >= tau).astype(np.uint8), day.mask)
                counts = c if counts is None else counts + c
            sens, spec = sensitivity(counts), specificity(counts)
            if sens is not None and spec is not None:
                expected.append((tau, sens, spec, shybrid(1, sens, spec), shybrid(2, sens, spec)))
        got = [(p.tau, p.sens, p.spec, p.sh1, p.sh2) for p in bayes_reference(days, rule)]
        assert got == expected

    def test_marginal_is_exact_for_a_nailed_down_rule(self):
        # hand-checkable case: one seed pixel with probability ~1, spread p1 only
        rule = PlantedRule(
            channel_a=0, channel_b=0, channel_c=1, coef_a=1.0, coef_b=0.0, coef_c=0.0,
            gain=50.0, bias=0.0, spread_p1=0.5, spread_p2=0.0,
            static_channels=(1,), dynamic_channels=(0,),
        )
        feats = np.zeros((2, 5, 5), np.float32)
        feats[0] = -5.0
        feats[0, 2, 2] = 5.0  # lone hot pixel
        land = np.ones((5, 5), bool)
        marg = rule.fire_marginal(feats, land)
        assert marg[2, 2] == pytest.approx(1.0, abs=1e-6)
        assert marg[2, 3] == pytest.approx(0.5, abs=1e-6)  # one neighbor at p1
        assert marg[0, 0] == pytest.approx(0.0, abs=1e-6)

    def test_monte_carlo_agrees_with_marginal(self):
        # empirical fire frequency over many label draws matches the closed form
        from fireseg.synthetic import _draw_labels

        rule = PlantedRule(
            channel_a=0, channel_b=0, channel_c=1, coef_a=1.0, coef_b=0.0, coef_c=0.0,
            gain=2.0, bias=1.0, spread_p1=0.4, spread_p2=0.1,
            static_channels=(1,), dynamic_channels=(0,),
        )
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((2, 16, 16)).astype(np.float32)
        land = np.ones((16, 16), bool)
        marg = rule.fire_marginal(feats, land)
        hits = np.zeros((16, 16))
        n = 3000
        for i in range(n):
            hits += _draw_labels(rule, feats, land, np.random.default_rng(1000 + i))
        freq = hits / n
        # standard error is ~0.009 at p=0.5; allow 5 sigma
        assert np.max(np.abs(freq - marg)) < 0.05


RULE = PlantedRule(
    channel_a=0, channel_b=2, channel_c=1, coef_a=1.2, coef_b=0.9, coef_c=0.6,
    gain=4.0, bias=0.0, spread_p1=0.35, spread_p2=0.08,
    static_channels=(1,), dynamic_channels=(0, 2),
)


def random_day(seed, h=40, w=56, water=0.2):
    """Three standard-normal channels and a land mask with scattered water and a lake."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((3, h, w)).astype(np.float32)
    land = rng.random((h, w)) >= water
    land[h // 3 : h // 2, w // 4 : w // 2] = False
    return features, land


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSparseMarginal:
    """fire_marginal computes only pixels that can burn; the bits must be the full product's."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("bias, hot", [(-30.0, "all"), (14.0, "some"), (60.0, "none")])
    def test_equals_dense_product(self, seed, bias, hot):
        features, land = random_day(seed)
        rule = replace(RULE, bias=bias)
        got = rule.fire_marginal(features, land)
        want = fire_marginal_dense(rule, features, land)
        assert same_bits(got, want)
        q = rule.seed_probability(features, land)[land]
        n_hot = int((q > 2.0**-55).sum())
        assert {"all": n_hot == q.size, "some": 0 < n_hot < q.size, "none": n_hot == 0}[hot]

    def test_gain_spread_and_shape_variants(self):
        features, land = random_day(3, h=33, w=70, water=0.0)
        for rule in (replace(RULE, gain=2.5, spread_p1=0.5, bias=12.0),
                     replace(RULE, gain=50.0, spread_p2=0.0, bias=8.0),
                     replace(RULE, gain=-4.0, bias=3.0)):  # no cutoff: every pixel is hot
            want = fire_marginal_dense(rule, features, land)
            assert same_bits(rule.fire_marginal(features, land), want)

    def test_nan_feature_reaches_the_same_pixels(self):
        features, land = random_day(4)
        land[20, 30] = True
        features[RULE.channel_a, 20, 30] = np.nan
        rule = replace(RULE, bias=14.0)
        got = rule.fire_marginal(features, land)
        want = fire_marginal_dense(rule, features, land)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.isnan(got).sum() == land[18:23, 28:33].sum()  # its land within distance 2
        assert same_bits(np.nan_to_num(got), np.nan_to_num(want))

    @pytest.mark.parametrize("case", ["generated", "generated seed 11", "generated seed 12",
                                      "non-square dry", "gain 2.5, p1 0.5"])
    def test_calibrated_bias_equals_dense_bisection(self, case):
        if case == "gain 2.5, p1 0.5":
            rule = replace(RULE, gain=2.5, spread_p1=0.5)
            days = [random_day(10 + d, h=48, w=64) for d in range(3)]
            stacks, land, target = [f for f, _ in days], days[0][1], 2e-3
        else:
            seed = int(case.split()[-1]) if "seed" in case else 4
            cfg = (SynthConfig(height=64, width=64, days=3, seed=seed, target_fire_rate=5e-3)
                   if case.startswith("generated") else
                   SynthConfig(height=64, width=96, days=2, seed=9, water_fraction=0.0))
            generated, _, rule = generate_dataset(cfg)
            stacks = [d.features for d in generated]
            land, target = generated[0].mask != D.WATER, cfg.target_fire_rate
        got = _calibrate_bias(rule, stacks, land, target)
        assert got.hex() == calibrate_bias_dense(rule, stacks, land, target).hex()

    def test_calibration_never_evaluates_the_lowest_bias(self, monkeypatch):
        # at bias -30 every land pixel is active: the costliest evaluation, and
        # a bisection step that raised the lower bound already shows the range holds
        biases = []

        def recording(*args):
            rate = _expected_rate(*args)
            return lambda bias: biases.append(bias) or rate(bias)

        monkeypatch.setattr(synthetic, "_expected_rate", recording)
        generate_dataset(SynthConfig(height=64, width=64, days=3, seed=4, target_fire_rate=5e-3))
        assert len(biases) > 10 and -30.0 not in biases

    def test_calibration_never_evaluates_the_highest_bias(self, monkeypatch):
        # a step that lowered the upper bound already showed the rate at 60 is
        # under the target, so the range check there has nothing to add
        biases = []

        def recording(*args):
            rate = _expected_rate(*args)
            return lambda bias: biases.append(bias) or rate(bias)

        monkeypatch.setattr(synthetic, "_expected_rate", recording)
        generate_dataset(SynthConfig(height=64, width=64, days=3, seed=4, target_fire_rate=5e-3))
        assert len(biases) > 10 and 60.0 not in biases

    def test_full_land_scan_runs_only_below_the_kept_cutoff(self, monkeypatch):
        # a day scans all its land pixels only when it keeps no active set (it
        # had none yet, or the last held over an eighth of its land) or the
        # cutoff falls below the kept set's; every other pass filters that set.
        # Before the sets were kept, this calibration scanned 171 times (3 days
        # x 57 passes); now it scans 3 times.
        cutoffs, scans = [], []
        scan, expected_rate = synthetic._scan, synthetic._expected_rate

        def scanning(rule, raster, features, reach):
            act, score = scan(rule, raster, features, reach)
            scans.append((id(features), rule._cutoff(), act.size))  # a day is its planes
            return act, score

        def recording(rule, stacks, land):
            rate = expected_rate(rule, stacks, land)
            return lambda bias: cutoffs.append(replace(rule, bias=bias)._cutoff()) or rate(bias)

        monkeypatch.setattr(synthetic, "_scan", scanning)
        monkeypatch.setattr(synthetic, "_expected_rate", recording)
        days, _, _ = generate_dataset(
            SynthConfig(height=64, width=64, days=3, seed=4, target_fire_rate=5e-3))
        small = int((days[0].mask != D.WATER).sum()) // 8
        keys = [key for key, _, _ in scans[:3]]
        kept = [None] * 3
        recorded = iter(scans)
        for cut in cutoffs:
            for d in range(3):
                if kept[d] is None or cut < kept[d]:
                    key, scan_cut, size = next(recorded)
                    assert (key, scan_cut) == (keys[d], cut)
                    kept[d] = cut if size <= small else None
        assert next(recorded, None) is None
        assert (len(cutoffs), len(scans)) == (14, 3)

    def test_target_above_the_rate_at_the_lowest_bias_refused(self):
        days = [random_day(30 + d) for d in range(2)]
        stacks, land = [f for f, _ in days], days[0][1]
        with pytest.raises(RuntimeError, match="outside the calibratable range"):
            _calibrate_bias(RULE, stacks, land, 1.5)

    def test_target_below_the_rate_at_the_highest_bias_refused(self):
        # at gain 0.25 every land pixel is hot even at bias 60
        rule = replace(RULE, gain=0.25)
        days = [random_day(30 + d) for d in range(2)]
        stacks, land = [f for f, _ in days], days[0][1]
        assert _expected_rate(rule, stacks, land)(60.0) > 1e-12
        with pytest.raises(RuntimeError, match="fire-rate target outside the calibratable range"):
            _calibrate_bias(rule, stacks, land, 1e-12)

    def test_expected_rate_equals_dense_mean(self):
        # each day's sum runs over every land pixel, zeros included, so numpy's
        # pairwise summation sees the array the dense marginal gives
        days = [random_day(20 + d, h=64, w=80) for d in range(3)]
        stacks, land = [f for f, _ in days], days[0][1]
        rate = _expected_rate(RULE, stacks, land)
        for bias in np.linspace(-30.0, 60.0, 46):
            assert rate(bias).hex() == expected_rate_dense(RULE, stacks, land, bias).hex()

    @pytest.mark.parametrize("p", [0.0, RULE.spread_p2, RULE.spread_p1, 1.0])
    def test_cold_pixels_leave_every_factor_exactly_one(self, p):
        # the premise the sparse product rests on, at the bound and one ulp under it
        for q in (2.0**-55, np.nextafter(2.0**-55, 0.0)):
            assert 1.0 - p * q == 1.0
            assert 1.0 - q == 1.0
        # and the cutoff keeps q six times under that bound
        rule = replace(RULE, bias=3.0)
        below = np.nextafter(rule._cutoff(), -np.inf)
        assert rule._seed(np.array([below]))[0] * 6 <= 2.0**-55

    def test_calibration_memory_grows_by_a_day_at_a_time(self):
        # per day the calibration may keep a few rasters, never all days at once
        h = w = 64
        rng = np.random.default_rng(5)
        stacks = [rng.standard_normal((3, h, w)).astype(np.float32) for _ in range(24)]
        land = np.ones((h, w), bool)
        land[10:20, 5:40] = False

        def peak(days):
            tracemalloc.start()
            try:
                _calibrate_bias(RULE, stacks[:days], land, 2e-3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(24) - peak(8) <= 16 * 3 * h * w * 8


class _Calibrating(Exception):
    """Raised in place of the calibration, carrying its arguments."""


@pytest.fixture(scope="module")
def calibration_grid():
    """Each grid config with the (rule, stacks, land, target) its generation calibrates on."""
    def stop(*args):
        raise _Calibrating(args)

    grid = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthetic, "_calibrate_bias", stop)
        for seed in range(1, 7):
            for h, w in ((64, 64), (96, 96), (64, 96)):
                for target in (1e-3, 5e-3, 1e-2, 0.05):
                    config = SynthConfig(height=h, width=w, days=3, seed=seed, target_fire_rate=target)
                    with pytest.raises(_Calibrating) as caught:
                        stream_dataset(config)
                    grid.append((config, caught.value.args[0]))
    return grid


class TestCalibrationSearch:
    """_calibrate_bias returns the bisection's bias bit for bit from fewer rate evaluations."""

    def test_equals_the_bisection_in_fewer_evaluations(self, calibration_grid, monkeypatch):
        biases = []

        def counting(*args):
            rate = _expected_rate(*args)
            return lambda bias: biases.append(bias) or rate(bias)

        monkeypatch.setattr(synthetic, "_expected_rate", counting)
        searched, bisected = [], []
        for config, args in calibration_grid:
            found = []
            for calibrate in (_calibrate_bias, calibrate_bias_bisection):
                biases.clear()
                found.append((calibrate(*args), len(biases)))
            (bias, n), (want, n_want) = found
            assert bias.hex() == want.hex(), config
            assert n <= n_want, config
            searched.append(n)
            bisected.append(n_want)
        assert np.median(searched) <= np.median(bisected) / 2

    def test_rate_does_not_increase_around_the_calibrated_bias(self, calibration_grid):
        # the replay takes a midpoint's side from the bracket's ends: sound only
        # while the computed rate does not increase with the bias, ulp by ulp
        for config, (rule, stacks, land, target) in calibration_grid:
            bias = _calibrate_bias(rule, stacks, land, target)
            below, above = [bias], [bias]
            for _ in range(8):
                below.append(float(np.nextafter(below[-1], -np.inf)))
                above.append(float(np.nextafter(above[-1], np.inf)))
            rate = _expected_rate(rule, stacks, land)
            rates = [rate(b) for b in below[:0:-1] + above]
            assert np.all(np.diff(rates) <= 0), config


class _CountingPCG64(np.random.PCG64):
    """PCG64 that records every advance() delta."""

    def __init__(self, *tags):
        super().__init__(np.random.SeedSequence(list(tags)))
        self.advances = []

    def advance(self, delta):
        self.advances.append(delta)
        return super().advance(delta)


def lone_seeds(h, w, pixels):
    """Features whose seed probability is 1.0 at pixels and 0.0 elsewhere under SURE."""
    features = np.full((3, h, w), -5.0, np.float32)
    for r, c in pixels:
        features[SURE.channel_a, r, c] = 5.0
    return features


# one channel decides: q = sigmoid(50 * score) is 1.0 at score 5 and 0.0 at -5
SURE = replace(RULE, coef_a=1.0, coef_b=0.0, coef_c=0.0, gain=50.0, bias=0.0)


class TestSkippedDraws:
    """_draw_labels reads only the uniforms a seed can use; its masks and the
    stream it leaves must be those of drawing every contagion raster."""

    @staticmethod
    def assert_same_draw(rule, features, land, tags=(7, 1)):
        dense, skipped = _CountingPCG64(*tags), _CountingPCG64(*tags)
        want = draw_labels_dense(rule, features, land, np.random.Generator(dense))
        got = _draw_labels(rule, features, land, np.random.Generator(skipped))
        assert same_bits(got, want)
        # the premise: each double is one 64-bit output, so the stream ends
        # where 25 full rasters leave it
        assert skipped.state == dense.state
        return got, skipped.advances

    @pytest.mark.parametrize("target", [1e-3, 1e-2, 0.05])
    def test_equals_dense_draws_at_calibrated_rates(self, target):
        days = [random_day(40 + d, h=64, w=80) for d in range(3)]
        stacks, land = [f for f, _ in days], days[0][1]
        rule = replace(RULE, bias=_calibrate_bias(RULE, stacks, land, target))
        burnt = 0
        for d, features in enumerate(stacks):
            for attempt in range(4):
                got, _ = self.assert_same_draw(rule, features, land, (3, d, attempt))
                burnt += int(got.sum())
        assert burnt > 0

    @pytest.mark.parametrize("water", [False, True])
    def test_seeds_on_edges_and_corners(self, water):
        h, w = 64, 72
        pixels = [(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1), (0, 30), (40, 0),
                  (h - 1, 20), (10, w - 1), (1, 1), (h - 2, w - 2)]
        features = lone_seeds(h, w, pixels)
        land = np.ones((h, w), bool)
        if water:
            land[:, : w // 2] = False  # the left seeds fall in water and never ignite
        for spread in (SURE, replace(SURE, spread_p1=0.9, spread_p2=0.7)):
            got, _ = self.assert_same_draw(spread, features, land)
            assert all(got[r, c] == land[r, c] for r, c in pixels)

    def test_day_without_a_seed(self):
        features = lone_seeds(64, 64, [])
        got, advances = self.assert_same_draw(SURE, features, np.ones((64, 64), bool))
        assert not got.any() and advances == [24 * 64 * 64]  # one jump over every raster

    @pytest.mark.parametrize("p1, p2", [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)])
    def test_spread_probabilities_zero_and_one(self, p1, p2):
        features, land = random_day(50, h=64, w=64)
        rule = replace(RULE, bias=1.0, spread_p1=p1, spread_p2=p2)
        got, _ = self.assert_same_draw(rule, features, land)
        seeds = draw_labels_dense(replace(rule, spread_p1=0.0, spread_p2=0.0), features, land,
                                  np.random.Generator(_CountingPCG64(7, 1)))
        assert seeds.any()
        if p1 == p2 == 0.0:
            assert same_bits(got, seeds)

    @pytest.mark.parametrize("apart, spans", [(synthetic._GAP, 24), (synthetic._GAP + 1, 48)])
    def test_targets_a_gap_apart(self, apart, spans):
        # two interior seeds: at every offset their targets lie `apart` outputs
        # apart, one span up to _GAP and two spans past it
        h = w = 64
        first = 20 * w + 10
        pixels = [divmod(first, w), divmod(first + apart, w)]
        got, advances = self.assert_same_draw(SURE, lone_seeds(h, w, pixels), np.ones((h, w), bool))
        assert len(advances) == spans + 1  # one jump before each span and one to the end
        assert all(got[r, c] for r, c in pixels)


class TestSmoother:
    @pytest.mark.parametrize("radius", [0, 1, 9])
    def test_equals_padded_cumsum_oracle(self, radius):
        # one workspace serves every field of a dataset: each field must come
        # out as a fresh array, untouched by the ones drawn after it
        smooth = synthetic._Smoother(64, 97, radius)
        got = [smooth(np.random.default_rng(tag)) for tag in range(3)]
        for tag, field in enumerate(got):
            want = smooth_field_padded(np.random.default_rng(tag), 64, 97, radius)
            assert same_bits(field, want)
