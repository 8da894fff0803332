from datetime import date

import numpy as np
import pytest

from fireseg import data as D
from fireseg import training as T
from fireseg import unet as U
from fireseg.metrics import ConfusionCounts, confusion
from fireseg.synthetic import SynthConfig, generate_dataset

from oracles import early_stop_naive


class TestClassWeights:
    def test_inverse_frequency_arithmetic(self):
        masks = np.zeros((1, 1000), np.uint8)
        masks[0, :100] = D.FIRE
        w0, w1 = T.compute_class_weights(masks)
        assert w0 == pytest.approx(1000 / 1800)
        assert w1 == pytest.approx(5.0)
        assert w1 / w0 == pytest.approx(9.0)  # inverse of the 1:9 class ratio

    def test_balanced_gives_unit_weights(self):
        masks = np.array([[0, 1], [1, 0]], np.uint8)
        assert T.compute_class_weights(masks) == (1.0, 1.0)

    def test_water_excluded(self):
        masks = np.array([[0, 1, 2, 2]], np.uint8)
        assert T.compute_class_weights(masks) == (1.0, 1.0)

    def test_weights_follow_buffered_masks(self):
        mask = np.zeros((8, 8), np.uint8)
        mask[4, 4] = D.FIRE
        buffered = D.apply_fire_buffer(mask, 1)
        w0a, w1a = T.compute_class_weights(mask[None])
        w0b, w1b = T.compute_class_weights(buffered[None])
        n1 = int((buffered == D.FIRE).sum())
        assert n1 == 9
        assert w1b == pytest.approx(64 / (2 * n1))
        assert w1b < w1a  # augmentation reduced the imbalance

    def test_absent_class_errors(self):
        with pytest.raises(ValueError, match="both classes"):
            T.compute_class_weights(np.zeros((2, 2), np.uint8))


class TestStoppingRule:
    def test_plateau_after_peak(self):
        assert T.run_stopping_rule([1.00, 1.10, 1.05, 1.08], patience=2, max_epochs=45) == (4, 2)

    def test_strictly_increasing_runs_to_the_end(self):
        trace = [1.0 + 0.01 * i for i in range(45)]
        assert T.run_stopping_rule(trace, patience=10, max_epochs=45) == (45, 45)

    def test_tie_counts_as_no_improvement_and_keeps_earliest(self):
        assert T.run_stopping_rule([1.0, 1.0], patience=1, max_epochs=45) == (2, 1)

    def test_update_reports_improvement_and_stop(self):
        stopper = T.EarlyStopping(patience=2)
        assert stopper.update(1, 1.0) == (True, False)
        assert stopper.update(2, 1.0) == (False, False)  # a tie is no improvement
        assert stopper.update(3, 0.5) == (False, True)
        assert stopper.best_epoch == 1

    def test_matches_direct_rule_on_random_traces(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = int(rng.integers(1, 60))
            trace = list(np.round(rng.random(n) * 2, 3))
            patience = int(rng.integers(1, 8))
            max_epochs = int(rng.integers(1, 60))
            got = T.run_stopping_rule(trace, patience, max_epochs)
            assert got == early_stop_naive(trace, patience, max_epochs), f"trial {trial}"

    def test_never_selects_a_dominated_epoch(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            trace = list(rng.random(20))
            run, best = T.run_stopping_rule(trace, patience=3, max_epochs=20)
            assert trace[best - 1] == max(trace[:run])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            T.TrainConfig(patience=45, max_epochs=45)
        with pytest.raises(ValueError):
            T.TrainConfig(folds=1)
        with pytest.raises(ValueError):
            T.TrainConfig(es_metric="auc")
        with pytest.raises(ValueError, match="bogus"):
            T.TrainConfig(grouping="bogus")


@pytest.fixture(scope="module")
def tiny_setup():
    """Small encoded synthetic dataset plus a sampled tileset."""
    cfg = SynthConfig(
        height=64, width=64, days=6, numeric_channels=4, categories=2,
        target_fire_rate=0.01, water_fraction=0.1, seed=21, blur_radius=5,
    )
    days, schema, rule = generate_dataset(cfg)
    scaling = D.fit_scaling(days, schema)
    encoded = [D.one_hot_encode(D.apply_scaling(d, scaling), schema)[0] for d in days]
    store = {d.day_id: d for d in encoded}
    tiles = []
    for d in encoded:
        tiles.extend(D.extract_tiles(d))
    tileset = D.sample_tileset(tiles, tile_ratio=1.5, seed=3)
    return store, tileset, encoded


def tiny_config(**kw):
    base = dict(
        max_epochs=4, patience=2, folds=2, es_metric="sh2", tile_ratio=1.5,
        init_features=2, batch_size=8, seed=5,
    )
    base.update(kw)
    return T.TrainConfig(**base)


class TestTrainFold:
    def test_trace_consistent_with_stopping_rule(self, tiny_setup):
        store, tileset, _ = tiny_setup
        folds = D.kfold_split(tileset, 2, seed=5)
        config = tiny_config()
        result = T.train_fold(folds[1], folds[0], store, config, fold_index=0)
        scores = [m.score(config.es_metric) for m in result.trace]
        run, best = T.run_stopping_rule(scores, config.patience, config.max_epochs)
        assert result.stopped_epoch == run == len(result.trace)
        assert result.best.epoch == best

    def test_checkpoint_metrics_recomputable(self, tiny_setup):
        store, tileset, _ = tiny_setup
        folds = D.kfold_split(tileset, 2, seed=5)
        config = tiny_config(fire_buffer="train")
        result = T.train_fold(folds[1], folds[0], store, config, fold_index=0)
        counts = ConfusionCounts()
        for _, pred, masks in T.predict_tiles(result.best.params, folds[0], store, config.threshold, 8):
            counts = counts + confusion(pred, masks)
        sens = counts.tp / (counts.tp + counts.fn)
        spec = counts.tn / (counts.tn + counts.fp)
        assert abs(sens - result.best.sens) < 1e-6
        assert abs(spec - result.best.spec) < 1e-6

    def test_validation_without_fire_errors_with_fold_name(self, tiny_setup):
        store, tileset, _ = tiny_setup
        no_fire_val = [s for s in tileset.specs if s.tile_class == D.NO_FIRE_TILE][:4]
        train = [s for s in tileset.specs if s.tile_class == D.FIRE_TILE]
        with pytest.raises(ValueError, match="fold 7"):
            T.train_fold(train, no_fire_val, store, tiny_config(), fold_index=7)

    def test_diverged_parameters_stop_the_fold(self, tiny_setup):
        store, tileset, _ = tiny_setup
        folds = D.kfold_split(tileset, 2, seed=5)
        with np.errstate(all="ignore"), pytest.raises(ValueError) as info:
            T.train_fold(folds[1], folds[0], store, tiny_config(lr=1e30), fold_index=1)
        assert str(info.value) == "fold 1: parameters not finite after epoch 1; training diverged"

    def test_fire_buffer_train_and_val_changes_validation_labels(self, tiny_setup):
        store, tileset, _ = tiny_setup
        folds = D.kfold_split(tileset, 2, seed=5)
        a = T.train_fold(folds[1], folds[0], store, tiny_config(fire_buffer="off"), 0)
        b = T.train_fold(folds[1], folds[0], store, tiny_config(fire_buffer="train+val"), 0)
        # buffered validation has more fire pixels, so the confusion base differs
        assert a.trace[0].sens != b.trace[0].sens or a.trace[0].spec != b.trace[0].spec


class TestCrossValidate:
    def test_emits_k_fold_results_and_arithmetic_mean(self, tiny_setup):
        store, tileset, _ = tiny_setup
        config = tiny_config(folds=2)
        cv = T.cross_validate(tileset, store, config)
        assert len(cv.folds) == 2
        assert cv.mean_sens == pytest.approx(np.mean([r.best.sens for r in cv.folds]))
        assert cv.mean_sh2 == pytest.approx(np.mean([r.best.sh2 for r in cv.folds]))

    def test_bitwise_reproducible_under_fixed_seed(self, tiny_setup):
        store, tileset, _ = tiny_setup
        config = tiny_config(folds=2, max_epochs=3)
        a = T.cross_validate(tileset, store, config)
        b = T.cross_validate(tileset, store, config)
        for ra, rb in zip(a.folds, b.folds):
            assert ra.trace == rb.trace
            for ta, tb in zip(ra.best.params.tensors(), rb.best.params.tensors()):
                assert np.array_equal(ta, tb)


class TestEvaluateHoldout:
    def test_perfect_predictor_scores_ones(self, tiny_setup, monkeypatch):
        # the first feature channel is rigged to carry the label; forward is
        # stubbed to read it out, so prediction == truth on every land pixel
        store, tileset, encoded = tiny_setup
        days = []
        for day in encoded[:2]:
            feats = day.features.copy()
            feats[0] = np.where(day.mask == D.FIRE, 10.0, -10.0)
            days.append(D.GridDay(day.day_id, feats, day.mask))

        def oracle_forward(params, batch, training=False):
            logits = np.zeros((batch.shape[0], 2, batch.shape[2], batch.shape[3]), np.float32)
            logits[:, 1] = batch[:, 0]
            return logits, None

        monkeypatch.setattr(T.U, "forward", oracle_forward)
        params = U.init_params(U.UNetConfig(in_channels=days[0].features.shape[0], init_features=2))
        result = T.evaluate_holdout(params, days, tiny_config())
        assert result.sens == 1.0 and result.spec == 1.0

    def test_all_no_fire_predictor(self, tiny_setup):
        store, tileset, encoded = tiny_setup
        days = encoded[:2]
        params = U.init_params(
            U.UNetConfig(in_channels=days[0].features.shape[0], init_features=2, seed=1)
        )
        # zero every weight, then bias the head towards the no-fire logit
        tensors = [np.zeros_like(t) for t in params.tensors()]
        tensors[-1] = np.array([5.0, -5.0], np.float32)
        params = params.with_tensors(tensors)
        result = T.evaluate_holdout(params, days, tiny_config())
        assert result.sens == 0.0 and result.spec == 1.0

    def test_tile_metrics_equal_stitched_day_metrics(self, tiny_setup):
        from fireseg.metrics import ConfusionCounts, confusion

        store, tileset, encoded = tiny_setup
        days = encoded[:3]
        params = U.init_params(
            U.UNetConfig(in_channels=days[0].features.shape[0], init_features=2, seed=9)
        )
        config = tiny_config()
        tiled = T.evaluate_holdout(params, days, config)
        stitched = ConfusionCounts()
        for day in days:
            pred = T.predict_day(params, day, config.threshold)
            stitched = stitched + confusion(pred, day.mask)
        assert stitched == tiled.counts

    def test_refuses_sampled_manifest_semantics(self, tiny_setup):
        store, tileset, _ = tiny_setup
        with pytest.raises(ValueError, match="holdout"):
            D.sample_tileset(D.TileSet(tileset.specs, D.HOLDOUT), 1.0, seed=0)


class TestPredictDay:
    def test_stitched_mask_equals_oracle_raster(self, monkeypatch):
        # 200x200 is 7x7 = 49 tiles: one full batch of 32, a partial batch of
        # 17, and edge tiles that keep 8 of their 32 rows or columns
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((3, 200, 200)).astype(np.float32)
        day = D.GridDay(date(2021, 7, 1), feats, rng.integers(0, 3, (200, 200)).astype(np.uint8))
        sizes = []

        def oracle_forward(params, batch, training=False):
            # per pixel: the fire logit is the first feature channel
            sizes.append(batch.shape[0])
            logits = np.zeros((batch.shape[0], 2) + batch.shape[2:], np.float32)
            logits[:, 1] = batch[:, 0]
            return logits, None

        monkeypatch.setattr(T.U, "forward", oracle_forward)
        params = U.init_params(U.UNetConfig(in_channels=3, init_features=2))
        pred = T.predict_day(params, day, threshold=0.6)
        assert sizes == [32, 17]
        full = oracle_forward(params, feats[None])[0]
        assert np.array_equal(pred, U.predict_mask(full, 0.6)[0])

    def test_predict_tiles_keeps_spec_order_and_ends_with_partial_batch(self, tiny_setup):
        store, tileset, _ = tiny_setup
        specs = tileset.specs[:11]
        params = U.init_params(
            U.UNetConfig(in_channels=store[specs[0].day_id].features.shape[0], init_features=2)
        )
        batches = list(T.predict_tiles(params, specs, store, 0.5, 4))
        assert [len(chunk) for chunk, _, _ in batches] == [4, 4, 3]
        assert tuple(s for chunk, _, _ in batches for s in chunk) == specs
        _, masks = D.materialize_batch(specs, store)
        assert np.array_equal(np.concatenate([m for _, _, m in batches]), masks)
        assert all(pred.shape == m.shape for _, pred, m in batches)
