import hashlib

import numpy as np
import pytest

from fireseg import data as D
from fireseg.synthetic import (
    PlantedRule,
    SynthConfig,
    SynthConfig as SC,
    bayes_reference,
    best_reference,
    generate_dataset,
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
        "extra, bias_hex, level, digest",
        [
            (
                dict(days=3, seed=4),
                "0x1.83b9b38711a10p+4",
                None,
                "b13615c32c37f4459f6c790b9c6201d08174bd140cac7bdb5ab07a76016b5925",
            ),
            (
                dict(days=4, seed=6, deterministic_labels=True),
                "0x1.dcb24c166ebe0p+2",
                0.3660280407358429,
                "0897a519984e249e094e55e3498565503675251201711f84d6e090a0313f0c4e",
            ),
        ],
    )
    def test_generated_bytes_are_pinned(self, extra, bias_hex, level, digest):
        # golden values: any change to a generated bit (calibration, marginal,
        # label draws) must show here, not only in a downstream benchmark
        cfg = SynthConfig(height=64, width=64, target_fire_rate=5e-3, **extra)
        days, _, rule = generate_dataset(cfg)
        sha = hashlib.sha256()
        for day in days:
            sha.update(day.features.tobytes())
            sha.update(day.mask.tobytes())
        assert rule.bias.hex() == bias_hex
        assert rule.deterministic_level == level
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
        assert schema.raw_count == cfg.numeric_channels + 1
        assert days[0].features.shape[0] == schema.raw_count
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
        # np.pad would otherwise fail deep inside generation, naming no setting
        with pytest.raises(ValueError, match="blur_radius"):
            SC(blur_radius=-2)


class TestBayesReference:
    def test_noiseless_rule_is_a_perfect_predictor(self):
        cfg = SynthConfig(
            height=64, width=64, days=4, seed=6, target_fire_rate=5e-3, deterministic_labels=True
        )
        days, _, rule = generate_dataset(cfg)
        assert rule.deterministic_level is not None
        pts = bayes_reference(days, rule, taus=[rule.deterministic_level])
        assert pts[0].sens == 1.0 and pts[0].spec == 1.0

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
        got = [(p.tau, p.sens, p.spec, p.sh1, p.sh2) for p in bayes_reference(days, rule, taus)]
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
