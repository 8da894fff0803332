from datetime import date

import numpy as np
import pytest

from fireseg import data as D
from fireseg.kernels import ShapeError

from oracles import classify_tiles_naive, dilate_naive


def make_day(mask, channels=2, day=date(2021, 6, 1), rng=None, features=None):
    mask = np.asarray(mask, np.uint8)
    if features is None:
        rng = rng or np.random.default_rng(0)
        features = rng.standard_normal((channels,) + mask.shape).astype(np.float32)
    return D.GridDay(day, features, mask)


class TestScaling:
    def test_min_max_basic(self):
        schema = D.FeatureSchema((D.Channel("a"),))
        feats = np.array([[[2.0, 4.0, 6.0]]], np.float32)
        day = D.GridDay(date(2021, 6, 1), feats, np.zeros((1, 3), np.uint8))
        params = D.fit_scaling([day], schema)
        assert params.mins == (2.0,) and params.maxs == (6.0,)
        scaled = D.apply_scaling(day, params)
        assert np.allclose(scaled.features[0], [0.0, 0.5, 1.0])

    def test_constant_channel_flagged_and_maps_to_zero(self):
        schema = D.FeatureSchema((D.Channel("a"),))
        feats = np.full((1, 2, 2), 3.0, np.float32)
        day = D.GridDay(date(2021, 6, 1), feats, np.zeros((2, 2), np.uint8))
        with pytest.warns(UserWarning, match="constant"):
            params = D.fit_scaling([day], schema)
        assert params.degenerate_channels() == ["a"]
        assert not D.apply_scaling(day, params).features.any()

    def test_out_of_range_clamps(self):
        schema = D.FeatureSchema((D.Channel("a"),))
        params = D.ScalingParams((0,), ("a",), (2.0,), (6.0,))
        day = D.GridDay(date(2021, 6, 2), np.array([[[8.0, 0.0]]], np.float32), np.zeros((1, 2), np.uint8))
        scaled = D.apply_scaling(day, params)
        assert np.allclose(scaled.features[0], [1.0, 0.0])

    def test_identity_params_are_noop_in_range(self):
        schema = D.FeatureSchema((D.Channel("a"),))
        params = D.ScalingParams((0,), ("a",), (0.0,), (1.0,))
        feats = np.array([[[0.0, 0.25, 1.0]]], np.float32)
        day = D.GridDay(date(2021, 6, 1), feats, np.zeros((1, 3), np.uint8))
        once = D.apply_scaling(day, params)
        twice = D.apply_scaling(once, params)
        assert np.array_equal(once.features, feats)
        assert np.array_equal(twice.features, feats)

    def test_water_pixels_excluded_from_fit(self):
        schema = D.FeatureSchema((D.Channel("a"),))
        feats = np.array([[[0.0, 1.0, 100.0]]], np.float32)
        mask = np.array([[0, 0, 2]], np.uint8)  # the 100 sits on water
        params = D.fit_scaling([D.GridDay(date(2021, 6, 1), feats, mask)], schema)
        assert params.maxs == (1.0,)

    def test_multi_day_matches_brute_force(self):
        rng = np.random.default_rng(1)
        schema = D.FeatureSchema((D.Channel("a"), D.Channel("b")))
        days = []
        for i in range(4):
            feats = rng.standard_normal((2, 8, 8)).astype(np.float32) * (i + 1)
            mask = rng.integers(0, 3, (8, 8)).astype(np.uint8)
            days.append(D.GridDay(date(2021, 6, 1 + i), feats, mask))
        params = D.fit_scaling(days, schema)
        for c in range(2):
            vals = [
                float(v)
                for day in days
                for v in day.features[c][day.mask != 2].reshape(-1)
            ]
            assert params.mins[c] == min(vals)
            assert params.maxs[c] == max(vals)

    def test_empty_fitting_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            D.fit_scaling([], D.FeatureSchema((D.Channel("a"),)))


class TestOneHot:
    schema = D.FeatureSchema(
        (D.Channel("t"), D.Channel("lc", D.CATEGORICAL, ("forest", "urban", "farm")))
    )

    def test_basic_expansion(self):
        feats = np.stack(
            [np.zeros((1, 3), np.float32), np.array([[0.0, 1.0, 2.0]], np.float32)]
        )
        day = D.GridDay(date(2021, 6, 1), feats, np.zeros((1, 3), np.uint8))
        enc, unknown = D.one_hot_encode(day, self.schema)
        assert unknown == 0
        assert enc.features.shape[0] == self.schema.encoded_count == 4
        assert np.array_equal(enc.features[1:, 0, 1], [0.0, 1.0, 0.0])

    def test_rows_sum_to_one_or_zero_for_unknown(self):
        feats = np.stack(
            [np.zeros((1, 4), np.float32), np.array([[0.0, 2.0, 7.0, -1.0]], np.float32)]
        )
        day = D.GridDay(date(2021, 6, 1), feats, np.zeros((1, 4), np.uint8))
        with pytest.warns(UserWarning, match="unknown"):
            enc, unknown = D.one_hot_encode(day, self.schema)
        sums = enc.features[1:].sum(axis=0)
        assert unknown == 2
        assert np.allclose(sums[0, :2], 1.0) and np.allclose(sums[0, 2:], 0.0)

    def test_channel_count_matches_schema_arithmetic(self):
        rng = np.random.default_rng(2)
        schema = D.FeatureSchema(
            (
                D.Channel("n1"),
                D.Channel("c1", D.CATEGORICAL, ("a", "b")),
                D.Channel("n2"),
                D.Channel("c2", D.CATEGORICAL, ("x", "y", "z", "w")),
            )
        )
        feats = rng.integers(0, 2, (4, 5, 5)).astype(np.float32)
        day = D.GridDay(date(2021, 6, 1), feats, np.zeros((5, 5), np.uint8))
        enc, _ = D.one_hot_encode(day, schema)
        assert enc.features.shape[0] == 2 + 2 + 4 == schema.encoded_count
        assert schema.encoded_names() == ["n1", "c1=a", "c1=b", "n2", "c2=x", "c2=y", "c2=z", "c2=w"]


class TestExtractTiles:
    def test_single_fire_pixel_classification(self):
        mask = np.zeros((64, 64), np.uint8)
        mask[5, 5] = D.FIRE
        mask[40:, 40:] = D.WATER  # bottom-right tile fully... not fully water
        day = make_day(mask, channels=1)
        specs = D.extract_tiles(day)
        classes = {(s.row_off, s.col_off): s.tile_class for s in specs}
        assert len(specs) == 4
        assert classes[(0, 0)] == D.FIRE_TILE
        assert classes[(0, 32)] == D.NO_FIRE_TILE
        assert classes[(32, 0)] == D.NO_FIRE_TILE
        assert classes[(32, 32)] == D.NO_FIRE_TILE  # has land in its top-left corner

    def test_all_water_day(self):
        day = make_day(np.full((64, 32), D.WATER, np.uint8), channels=1)
        assert all(s.tile_class == D.WATER_TILE for s in D.extract_tiles(day))

    def test_ragged_edges_pad_as_water(self):
        mask = np.full((40, 40), D.WATER, np.uint8)
        mask[:32, :32] = D.NO_FIRE
        day = make_day(mask, channels=1)
        classes = {(s.row_off, s.col_off): s.tile_class for s in D.extract_tiles(day)}
        assert len(classes) == 4
        assert classes[(0, 0)] == D.NO_FIRE_TILE
        assert classes[(0, 32)] == D.WATER_TILE
        assert classes[(32, 0)] == D.WATER_TILE
        assert classes[(32, 32)] == D.WATER_TILE

    def test_random_masks_match_naive_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            mask = rng.choice(
                [D.NO_FIRE, D.FIRE, D.WATER], size=(96, 96), p=[0.6, 0.002, 0.398]
            ).astype(np.uint8)
            day = make_day(mask, channels=1, rng=rng)
            got = {(s.row_off, s.col_off): s.tile_class for s in D.extract_tiles(day)}
            assert got == classify_tiles_naive(mask), f"trial {trial}"

    def test_partition_covers_every_land_pixel_once(self):
        rng = np.random.default_rng(4)
        mask = rng.integers(0, 3, (70, 100)).astype(np.uint8)
        day = make_day(mask, channels=1, rng=rng)
        seen = np.zeros_like(mask, dtype=int)
        for s in D.extract_tiles(day):
            r, c = s.row_off, s.col_off
            seen[r : r + 32, c : c + 32] += 1
        assert np.all(seen == 1)


class TestSampleTileset:
    def make_specs(self, n_fire, n_nofire, n_water=5):
        d = date(2021, 6, 1)
        specs = []
        for i in range(n_fire):
            specs.append(D.TileSpec(d, 0, 32 * i, D.FIRE_TILE))
        for i in range(n_nofire):
            specs.append(D.TileSpec(d, 32, 32 * i, D.NO_FIRE_TILE))
        for i in range(n_water):
            specs.append(D.TileSpec(d, 64, 32 * i, D.WATER_TILE))
        return specs

    def test_ratio_four(self):
        ts = D.sample_tileset(self.make_specs(10, 100), tile_ratio=4, seed=1)
        assert ts.fire_count() == 10
        assert len(ts.specs) == 50
        assert all(s.tile_class != D.WATER_TILE for s in ts.specs)

    def test_ratio_zero_keeps_fire_only(self):
        ts = D.sample_tileset(self.make_specs(3, 50), tile_ratio=0, seed=1)
        assert len(ts.specs) == 3

    def test_deterministic_in_seed(self):
        specs = self.make_specs(5, 60)
        a = D.sample_tileset(specs, 2.5, seed=42)
        b = D.sample_tileset(specs, 2.5, seed=42)
        c = D.sample_tileset(specs, 2.5, seed=43)
        assert a.specs == b.specs
        assert len(a.specs) == 5 + round(2.5 * 5)
        assert a.specs != c.specs  # different seed, different draw (overwhelmingly)

    def test_insufficient_no_fire_tiles_warns(self):
        with pytest.warns(UserWarning, match="keeping all"):
            ts = D.sample_tileset(self.make_specs(10, 3), tile_ratio=4, seed=0)
        assert len(ts.specs) == 13

    def test_no_fire_tiles_at_all_errors(self):
        with pytest.raises(ValueError, match="degenerate"):
            D.sample_tileset(self.make_specs(0, 10), tile_ratio=1, seed=0)

    def test_refuses_holdout_input(self):
        holdout = D.TileSet(tuple(self.make_specs(2, 2, 0)), D.HOLDOUT)
        with pytest.raises(ValueError, match="holdout"):
            D.sample_tileset(holdout, 1, seed=0)


class TestFireBuffer:
    def test_radius_one_eight_neighborhood(self):
        mask = np.zeros((5, 5), np.uint8)
        mask[2, 2] = D.FIRE
        out = D.apply_fire_buffer(mask, 1)
        assert (out == D.FIRE).sum() == 9
        assert np.all(out[1:4, 1:4] == D.FIRE)

    def test_radius_zero_is_identity(self):
        rng = np.random.default_rng(5)
        mask = rng.integers(0, 3, (10, 10)).astype(np.uint8)
        assert np.array_equal(D.apply_fire_buffer(mask, 0), mask)

    def test_water_never_relabeled(self):
        mask = np.array([[1, 2], [2, 0]], np.uint8)
        out = D.apply_fire_buffer(mask, 1)
        assert out[0, 1] == D.WATER and out[1, 0] == D.WATER
        assert out[1, 1] == D.FIRE

    def test_matches_naive_dilation(self):
        rng = np.random.default_rng(6)
        for radius in (0, 1, 2):
            for _ in range(20):
                mask = rng.choice([0, 1, 2], size=(16, 16), p=[0.8, 0.05, 0.15]).astype(np.uint8)
                got = D.apply_fire_buffer(mask, radius)
                assert np.array_equal(got, dilate_naive(mask, radius))
                assert (got == D.FIRE).sum() >= (mask == D.FIRE).sum()

    def test_stack_equals_per_mask_calls(self):
        rng = np.random.default_rng(8)
        stack = rng.choice([0, 1, 2], size=(6, 12, 12), p=[0.8, 0.05, 0.15]).astype(np.uint8)
        for radius in (0, 1, 2):
            want = np.stack([D.apply_fire_buffer(m, radius) for m in stack])
            got = D.apply_fire_buffer(stack, radius)
            assert got.dtype == stack.dtype and np.array_equal(got, want), radius
            nested = D.apply_fire_buffer(stack.reshape(2, 3, 12, 12), radius)
            assert np.array_equal(nested.reshape(stack.shape), want), radius

    def test_one_dimensional_mask_refused(self):
        with pytest.raises(ShapeError):
            D.apply_fire_buffer(np.array([0, 1, 0], np.uint8), 1)


class TestKFold:
    def specs_for_days(self, tiles_per_day, n_days, fire_rows=(0,)):
        specs = []
        for d in range(n_days):
            for t in range(tiles_per_day):
                cls = D.FIRE_TILE if t in fire_rows else D.NO_FIRE_TILE
                specs.append(D.TileSpec(date(2021, 6, 1 + d), 32 * t, 0, cls))
        return D.TileSet(tuple(specs), D.SAMPLED)

    def test_nine_tiles_three_folds(self):
        ts = self.specs_for_days(3, 3, fire_rows=(0, 1, 2))
        folds = D.kfold_split(ts, k=3, seed=0, grouping="by-tile")
        assert sorted(len(f) for f in folds) == [3, 3, 3]
        all_specs = [s for f in folds for s in f]
        assert sorted(all_specs, key=str) == sorted(ts.specs, key=str)

    def test_every_fold_gets_fire(self):
        ts = self.specs_for_days(8, 4)
        for k in (2, 3, 4):
            folds = D.kfold_split(ts, k=k, seed=7)
            for f in folds:
                assert any(s.tile_class == D.FIRE_TILE for s in f)

    def test_too_few_fire_groups_errors_with_guidance(self):
        ts = self.specs_for_days(4, 2)  # 2 fire tiles only
        with pytest.raises(ValueError, match="lower k"):
            D.kfold_split(ts, k=3, seed=0)

    def test_by_day_grouping_never_splits_a_day(self):
        rng = np.random.default_rng(8)
        for trial in range(50):
            n_days = int(rng.integers(6, 12))
            ts = self.specs_for_days(int(rng.integers(2, 6)), n_days)
            folds = D.kfold_split(ts, k=3, seed=int(rng.integers(1 << 30)), grouping="by-day")
            day_fold = {}
            for i, fold in enumerate(folds):
                for s in fold:
                    assert day_fold.setdefault(s.day_id, i) == i, f"trial {trial}"

    def test_group_counts_balanced_within_one(self):
        ts = self.specs_for_days(5, 7)
        folds = D.kfold_split(ts, k=3, seed=1, grouping="by-day")
        day_counts = [len({s.day_id for s in f}) for f in folds]
        assert max(day_counts) - min(day_counts) <= 1

    def test_partition_is_disjoint_and_complete(self):
        ts = self.specs_for_days(6, 5)
        folds = D.kfold_split(ts, k=4, seed=3)
        flat = [s for f in folds for s in f]
        assert len(flat) == len(ts.specs)
        assert len(set(flat)) == len(flat)


class TestMaterialize:
    def test_round_trips_raster_content_bitwise(self):
        rng = np.random.default_rng(9)
        mask = rng.integers(0, 3, (64, 96)).astype(np.uint8)
        day = make_day(mask, channels=3, rng=rng)
        specs = D.extract_tiles(day)
        feats, masks = D.materialize_batch(specs, {day.day_id: day})
        stitched_f = np.zeros_like(day.features)
        stitched_m = np.zeros_like(day.mask)
        for n, s in enumerate(specs):
            stitched_f[:, s.row_off : s.row_off + 32, s.col_off : s.col_off + 32] = feats[n]
            stitched_m[s.row_off : s.row_off + 32, s.col_off : s.col_off + 32] = masks[n]
        assert np.array_equal(stitched_f, day.features)
        assert np.array_equal(stitched_m, day.mask)

    def test_edge_tiles_pad_with_water_and_zero(self):
        rng = np.random.default_rng(10)
        mask = np.zeros((40, 40), np.uint8)
        day = make_day(mask, channels=1, rng=rng)
        specs = [s for s in D.extract_tiles(day) if s.row_off == 32 and s.col_off == 32]
        feats, masks = D.materialize_batch(specs, {day.day_id: day})
        assert np.array_equal(feats[0, 0, :8, :8], day.features[0, 32:, 32:])
        assert not feats[0, 0, 8:, :].any() and not feats[0, 0, :, 8:].any()
        assert np.all(masks[0, 8:, :] == D.WATER) and np.all(masks[0, :, 8:] == D.WATER)
        assert np.array_equal(masks[0, :8, :8], mask[32:, 32:])

    def test_missing_day_raises(self):
        spec = D.TileSpec(date(2021, 6, 9), 0, 0, D.NO_FIRE_TILE)
        with pytest.raises(KeyError):
            D.materialize_batch([spec], {})


class TestGridDayValidation:
    def test_rejects_non_finite_features(self):
        feats = np.zeros((1, 2, 2), np.float32)
        feats[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            D.GridDay(date(2021, 6, 1), feats, np.zeros((2, 2), np.uint8))

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError, match="float32"):
            D.GridDay(date(2021, 6, 1), np.zeros((1, 2, 2)), np.zeros((2, 2), np.uint8))

    def test_rejects_bad_mask_values(self):
        with pytest.raises(ValueError, match="mask"):
            D.GridDay(
                date(2021, 6, 1), np.zeros((1, 2, 2), np.float32), np.full((2, 2), 5, np.uint8)
            )
