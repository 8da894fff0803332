import tracemalloc
from datetime import date

import numpy as np
import pytest

from fireseg import data as D
from fireseg import training as T
from fireseg import unet as U
from fireseg.kernels import weighted_ce_loss
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

    def test_stopping_point_reports_best_epoch_and_stop(self):
        assert T.stopping_point([1.0], patience=2, max_epochs=45) == (1, False)
        # a tie is no improvement
        assert T.stopping_point([1.0, 1.0], patience=2, max_epochs=45) == (1, False)
        assert T.stopping_point([1.0, 1.0, 0.5], patience=2, max_epochs=45) == (1, True)
        assert T.stopping_point([1.0, 1.0, 1.5], patience=2, max_epochs=45) == (3, False)
        assert T.stopping_point([1.0, 1.0, 1.5], patience=2, max_epochs=3) == (3, True)

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
        for lr in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lr"):
                T.TrainConfig(lr=lr)


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


def fold_arrays(store, tileset, k=2, seed=5):
    """The sample's tiles and its k folds' index arrays, as cross_validate builds them."""
    feats, masks = D.materialize_batch(tileset.specs, store)
    row = {spec: n for n, spec in enumerate(tileset.specs)}
    folds = [np.array([row[s] for s in fold]) for fold in D.kfold_split(tileset, k, seed=seed, grouping="by-tile")]
    return feats, masks, folds


class TestTrainFold:
    def test_trace_consistent_with_stopping_rule(self, tiny_setup):
        store, tileset, _ = tiny_setup
        feats, masks, folds = fold_arrays(store, tileset)
        config = tiny_config()
        result = T.train_fold(feats, masks, folds[1], folds[0], config, fold_index=0)
        scores = [m.score(config.es_metric) for m in result.trace]
        run, best = T.run_stopping_rule(scores, config.patience, config.max_epochs)
        assert result.stopped_epoch == run == len(result.trace)
        assert result.best.epoch == best

    def test_checkpoint_metrics_recomputable(self, tiny_setup):
        store, tileset, _ = tiny_setup
        feats, masks, folds = fold_arrays(store, tileset)
        config = tiny_config(fire_buffer="train")
        result = T.train_fold(feats, masks, folds[1], folds[0], config, fold_index=0)
        # validation forwards PREDICT_BATCH tiles at a time, whatever the batch_size
        counts = ConfusionCounts()
        for lo in range(0, len(folds[0]), T.PREDICT_BATCH):
            rows = folds[0][lo : lo + T.PREDICT_BATCH]
            logits, _ = U.forward(result.best.params, feats[rows])
            counts = counts + confusion(U.predict_mask(logits, config.threshold), masks[rows])
        assert counts.tp / (counts.tp + counts.fn) == result.best.sens
        assert counts.tn / (counts.tn + counts.fp) == result.best.spec

    def test_validation_forwards_predict_batch_tiles_whatever_the_batch_size(
        self, tiny_setup, monkeypatch
    ):
        # 70 validation tiles go through the network as 32 + 32 + 6 every
        # epoch, while the training steps take 8 tiles each
        store, _, encoded = tiny_setup
        specs = [spec for day in encoded for spec in D.extract_tiles(day)] * 4
        feats, masks = D.materialize_batch(specs, store)
        inference, steps = [], []
        forward = U.forward

        def recording(params, batch, training=False):
            (steps if training else inference).append(len(batch))
            return forward(params, batch, training)

        monkeypatch.setattr(T.U, "forward", recording)
        config = tiny_config(batch_size=8, max_epochs=2, patience=1)
        result = T.train_fold(feats, masks, np.arange(len(specs)), np.arange(70), config)
        assert inference == [32, 32, 6] * len(result.trace)
        assert steps == [8] * 12 * len(result.trace)

    def test_validation_without_fire_errors_with_fold_name(self, tiny_setup):
        store, tileset, _ = tiny_setup
        no_fire_val = [s for s in tileset.specs if s.tile_class == D.NO_FIRE_TILE][:4]
        train = [s for s in tileset.specs if s.tile_class == D.FIRE_TILE]
        feats, masks = D.materialize_batch(train + no_fire_val, store)
        rows = np.arange(len(train) + len(no_fire_val))
        with pytest.raises(ValueError, match="fold 7"):
            T.train_fold(feats, masks, rows[: len(train)], rows[len(train) :], tiny_config(),
                         fold_index=7)

    def test_validation_without_no_fire_errors_with_fold_and_epoch(self, tiny_setup):
        # a validation fold whose every land pixel is fire has no specificity
        store, tileset, _ = tiny_setup
        feats, masks, folds = fold_arrays(store, tileset)
        masks[folds[0]] = np.where(masks[folds[0]] == D.WATER, D.WATER, D.FIRE)
        with pytest.raises(ValueError, match="^fold 3: validation metrics undefined at epoch 1$"):
            T.train_fold(feats, masks, folds[1], folds[0], tiny_config(), fold_index=3)

    def test_diverged_parameters_stop_the_fold(self, tiny_setup):
        store, tileset, _ = tiny_setup
        feats, masks, folds = fold_arrays(store, tileset)
        with np.errstate(all="ignore"), pytest.raises(ValueError) as info:
            T.train_fold(feats, masks, folds[1], folds[0], tiny_config(lr=1e30), fold_index=1)
        assert str(info.value) == "fold 1: parameters not finite after epoch 1; training diverged"

    def test_fire_buffer_train_and_val_changes_validation_labels(self, tiny_setup):
        store, tileset, _ = tiny_setup
        feats, masks, folds = fold_arrays(store, tileset)
        a = T.train_fold(feats, masks, folds[1], folds[0], tiny_config(fire_buffer="off"), 0)
        b = T.train_fold(feats, masks, folds[1], folds[0], tiny_config(fire_buffer="train+val"), 0)
        # buffered validation has more fire pixels, so the confusion base differs
        assert a.trace[0].sens != b.trace[0].sens or a.trace[0].spec != b.trace[0].spec

    def test_the_shared_masks_are_left_as_they_are(self, tiny_setup):
        store, tileset, _ = tiny_setup
        feats, masks, folds = fold_arrays(store, tileset)
        before = feats.copy(), masks.copy()
        T.train_fold(feats, masks, folds[1], folds[0], tiny_config(fire_buffer="train+val"), 0)
        assert np.array_equal(feats, before[0]) and np.array_equal(masks, before[1])


class TestFoldState:
    @pytest.mark.parametrize("kept_after", [2, 5])
    def test_a_fresh_fold_continued_from_a_kept_state_ends_as_train_fold(
        self, tiny_setup, kept_after
    ):
        # this fold stops at epoch 7 with its best at 4: a state kept after
        # epoch 2 has a best that moves later, one kept after epoch 5 its last
        store, tileset, _ = tiny_setup
        feats, masks, folds = fold_arrays(store, tileset)
        config = tiny_config(max_epochs=12, patience=3, lr=0.01, seed=2)
        whole = T.train_fold(feats, masks, folds[1], folds[0], config)
        assert (whole.stopped_epoch, whole.best.epoch) == (7, 4)
        first = T.Fold(feats, masks, folds[1], folds[0], config)
        while first.state.epoch < kept_after:
            first.settle(first.train_epoch())
        kept = first.state
        assert (len(kept.trace), kept.done) == (kept_after, False)
        fold = T.Fold(feats, masks, folds[1], folds[0], config)
        fold.state = kept
        while not fold.state.done:
            fold.settle(fold.train_epoch())
        best, want = fold.state.best, whole.best
        assert fold.state.trace == tuple(whole.trace)
        assert (best.epoch, best.values(), best.train_loss) == \
            (want.epoch, want.values(), want.train_loss)
        for got, expected in zip(best.params.tensors(), want.params.tensors(), strict=True):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


class TestCrossValidate:
    def test_emits_k_fold_results_and_arithmetic_mean(self, tiny_setup):
        store, tileset, _ = tiny_setup
        config = tiny_config(folds=2)
        cv = T.cross_validate(tileset, store, config)
        assert len(cv.folds) == 2
        assert cv.means[0] == pytest.approx(np.mean([r.best.sens for r in cv.folds]))
        assert cv.means[3] == pytest.approx(np.mean([r.best.sh2 for r in cv.folds]))

    def test_bitwise_reproducible_under_fixed_seed(self, tiny_setup):
        store, tileset, _ = tiny_setup
        config = tiny_config(folds=2, max_epochs=3)
        a = T.cross_validate(tileset, store, config)
        b = T.cross_validate(tileset, store, config)
        for ra, rb in zip(a.folds, b.folds):
            assert ra.trace == rb.trace
            for ta, tb in zip(ra.best.params.tensors(), rb.best.params.tensors()):
                assert np.array_equal(ta, tb)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _fold_peaks(tiny_setup, init_features, batch_size):
    """Traced (fold peak, one step's peak), and the bytes of the shared tiles,
    one parameter size and one tile's features.

    Each tile is listed four times, so that a copy of the fold's 96 train
    tiles would exceed the first test's bound too.
    """
    store, tileset, encoded = tiny_setup
    specs = [spec for day in encoded for spec in D.extract_tiles(day)] * 4
    assert len(specs) == 96
    train = np.arange(len(specs))
    val = np.array([specs.index(s) for s in tileset.specs])  # its fire makes scores defined
    config = tiny_config(init_features=init_features, batch_size=batch_size, max_epochs=3,
                         patience=2)
    feats, masks = D.materialize_batch(specs, store)
    params = U.init_params(U.UNetConfig(in_channels=feats.shape[1], init_features=init_features))
    batch_feats, batch_masks = feats[:batch_size].copy(), masks[:batch_size].copy()

    def one_step():
        logits, cache = U.forward(params, batch_feats, training=True)
        res = weighted_ce_loss(logits, batch_masks, (1.0, 1.0))
        U.backward(params, cache, res.grad_logits)

    step = _traced_peak(one_step)
    fold = _traced_peak(
        lambda: T.train_fold(*D.materialize_batch(specs, store), train, val, config)
    )
    size = sum(t.nbytes for t in params.tensors())
    return fold, step, feats.nbytes + masks.nbytes, size, feats[0].nbytes


class TestTrainFoldMemory:
    @pytest.mark.parametrize("batch_size", [8, 24])
    def test_peak_is_the_folds_arrays_plus_one_step(self, tiny_setup, batch_size):
        # a step's activations and gradients are gone before the next
        # forward, so the sample's tiles and a fold over them hold the shared
        # arrays, about 4-5 parameter sizes (params, Adam's moments, the best
        # checkpoint, Adam's new arrays) and one step; two live steps would
        # exceed this, and so would a copy of the fold's train tiles
        fold, step, shared, params, tile = _fold_peaks(tiny_setup, 4, batch_size)
        arrays = shared + 5 * params
        assert fold <= arrays + 1.2 * step, (fold, arrays, step, (fold - arrays) / step)
        train_copy = 96 * tile  # what feats[train] would take
        assert train_copy > arrays + 1.2 * step - fold, (train_copy, fold, arrays, step)

    def test_no_earlier_state_outlives_a_step_where_parameters_dominate(self, tiny_setup):
        # at 16 features a parameter size (6.98 MB) is 40 % of a step, and the
        # peak holds the shared arrays, one step and 5.6 parameter sizes:
        # params, Adam's moments, the best checkpoint, the gradients and Adam's
        # new arrays, built tensor by tensor. An epoch's state kept while the
        # next one trains adds its params and moments, about 2 sizes more
        fold, step, shared, params, _ = _fold_peaks(tiny_setup, 16, 8)
        sizes = (fold - shared - step) / params
        assert fold <= shared + step + 6 * params, (fold, shared, step, sizes)


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

    def test_counts_are_predict_days_masks_whatever_the_batch(self, monkeypatch):
        # a 160x160 day has 25 tiles, 21 of them land: no day's tile count is
        # a multiple of 32, and the stub's fire logit flips sign between a batch
        # of 32 tiles (fire) and one of 25 or 31 (no fire)
        rng = np.random.default_rng(8)
        days = []
        for i in range(3):
            mask = rng.integers(0, 2, (160, 160)).astype(np.uint8)
            mask[:64, :64] = D.WATER
            feats = rng.standard_normal((3, 160, 160)).astype(np.float32)
            days.append(D.GridDay(date(2021, 7, 1 + i), feats, mask))
        assert [len(D.holdout_tileset([day]).specs) for day in days] == [21, 21, 21]

        def batch_dependent_forward(params, batch, training=False):
            logits = np.zeros((batch.shape[0], 2) + batch.shape[2:], np.float32)
            logits[:, 1] = 1e-6 * (batch.shape[0] - 28)
            return logits, None

        monkeypatch.setattr(T.U, "forward", batch_dependent_forward)
        params = U.init_params(U.UNetConfig(in_channels=3, init_features=2))
        config = T.TrainConfig()
        stitched = ConfusionCounts()
        for day in days:
            stitched = stitched + confusion(T.predict_day(params, day, config.threshold), day.mask)
        result = T.evaluate_holdout(params, days, config)
        assert result.counts == stitched
        assert result.tiles == 63
        # any iterable of days will do: each day is read once
        assert T.evaluate_holdout(params, iter(days), config) == result

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
