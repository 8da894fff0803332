import numpy as np
import pytest

from fireseg.formats import SCORE_COLUMNS
from fireseg.metrics import (
    ConfusionCounts,
    Scores,
    confusion,
    format_scores,
    pixel_code,
    sensitivity,
    shybrid,
    specificity,
)

from oracles import confusion_naive

# Recorded validation results (sens, spec, sh1, sh2) whose hybrid scores the
# implementation must reproduce from the printed recall pairs; two evaluation
# periods per configuration row. Printed at 4 decimals, so recomputation must
# land within +-0.0002.
REFERENCE_SCORE_ROWS = [
    (0.8379, 0.7007, 1.5386, 2.3765),
    (0.8564, 0.6768, 1.5332, 2.3896),
    (0.7976, 0.7379, 1.5356, 2.3332),
    (0.7993, 0.7288, 1.5281, 2.3275),
    (0.8450, 0.6999, 1.5449, 2.3899),
    (0.8344, 0.7023, 1.5366, 2.3710),
    (0.8652, 0.6856, 1.5508, 2.4160),
    (0.8203, 0.7153, 1.5356, 2.3559),
    (0.9033, 0.7866, 1.6899, 2.5933),
    (0.9090, 0.7855, 1.6945, 2.6035),
    (0.9069, 0.7746, 1.6815, 2.5884),
    (0.8823, 0.8060, 1.6883, 2.5706),
    (0.9114, 0.7769, 1.6883, 2.5997),
    (0.9196, 0.7878, 1.7074, 2.6270),
    (0.9171, 0.7734, 1.6905, 2.6075),
    (0.9208, 0.7784, 1.6992, 2.6200),
    (0.8980, 0.6168, 1.5148, 2.4129),
    (0.9393, 0.5256, 1.4649, 2.4041),
    (0.8866, 0.6234, 1.5100, 2.3966),
    (0.8663, 0.6610, 1.5273, 2.3936),
    (0.9375, 0.5719, 1.5093, 2.4468),
    (0.9106, 0.6039, 1.5145, 2.4251),
    (0.9371, 0.5456, 1.4827, 2.4198),
    (0.9478, 0.5354, 1.4832, 2.4309),
    (0.9396, 0.7242, 1.6638, 2.6033),
    (0.9308, 0.7463, 1.6772, 2.6080),
    (0.9444, 0.7316, 1.6760, 2.6204),
    (0.9474, 0.7210, 1.6684, 2.6157),
    (0.9566, 0.7224, 1.6791, 2.6357),
    (0.9441, 0.7513, 1.6954, 2.6394),
    (0.9567, 0.7229, 1.6796, 2.6363),
    (0.9445, 0.7431, 1.6876, 2.6321),
]


class TestConfusion:
    def test_perfect_prediction(self):
        truth = np.array([[0, 1, 2], [1, 0, 2]], np.uint8)
        pred = np.where(truth == 1, 1, 0).astype(np.uint8)
        c = confusion(pred, truth)
        assert c.fn == 0 and c.fp == 0
        assert c.tp == 2 and c.tn == 2

    def test_partial_hits(self):
        truth = np.zeros((4, 4), np.uint8)
        truth[0, :4] = 1
        pred = np.zeros((4, 4), np.uint8)
        pred[0, :3] = 1
        c = confusion(pred, truth)
        assert c.tp == 3 and c.fn == 1
        assert sensitivity(c) == 0.75

    def test_random_pairs_match_naive_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            truth = rng.integers(0, 3, (32, 32)).astype(np.uint8)
            pred = rng.integers(0, 2, (32, 32)).astype(np.uint8)
            c = confusion(pred, truth)
            assert (c.tp, c.fn, c.tn, c.fp) == confusion_naive(pred, truth)

    def test_ignored_pixels_never_counted(self):
        truth = np.full((8, 8), 2, np.uint8)
        c = confusion(np.ones((8, 8), np.uint8), truth)
        assert (c.tp, c.fn, c.tn, c.fp) == (0, 0, 0, 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(Exception):
            confusion(np.zeros((2, 2), np.uint8), np.zeros((3, 2), np.uint8))

    def test_batches_and_dtypes_match_naive_loop(self):
        # a [N, H, W] batch as validation scores it; truth of any integer
        # type; every nonzero prediction byte counts as fire
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 3, (32, 32, 32))
        fire = rng.random(truth.shape) < 0.4
        want = confusion_naive(fire.astype(np.uint8), truth)
        for pred in (fire, fire.astype(np.uint8), np.where(fire, rng.choice([2, 255], truth.shape), 0)):
            for t in (truth, truth.astype(np.uint8)):
                c = confusion(pred, t)
                assert (c.tp, c.fn, c.tn, c.fp) == want

    def test_labels_outside_the_code_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            confusion(np.zeros((2, 2), np.uint8), np.full((2, 2), 3, np.uint8))

    def test_pixel_code_names_each_outcome(self):
        truth = np.array([0, 0, 1, 1, 2, 2], np.int64)
        code = pixel_code(truth, np.array([0, 7, 0, 1, 0, 1], np.uint8))
        assert code.dtype == np.uint8 and code.tolist() == [0, 1, 2, 3, 4, 5]  # TN FP FN TP water

    def test_counts_additive_across_disjoint_sets(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 3, (64, 64)).astype(np.uint8)
        pred = rng.integers(0, 2, (64, 64)).astype(np.uint8)
        whole = confusion(pred, truth)
        parts = ConfusionCounts()
        for r in range(0, 64, 16):
            for c in range(0, 64, 16):
                parts = parts + confusion(pred[r : r + 16, c : c + 16], truth[r : r + 16, c : c + 16])
        assert parts == whole


class TestRatios:
    def test_sensitivity_basic(self):
        assert sensitivity(ConfusionCounts(tp=3, fn=1)) == 0.75

    def test_specificity_basic(self):
        assert specificity(ConfusionCounts(tn=7, fp=3)) == 0.7

    def test_undefined_marker_not_silent_zero(self):
        assert sensitivity(ConfusionCounts(tn=5, fp=5)) is None
        assert specificity(ConfusionCounts(tp=5, fn=5)) is None

    def test_bounds_when_defined(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            c = ConfusionCounts(*(int(v) for v in rng.integers(1, 100, 4)))
            assert 0.0 <= sensitivity(c) <= 1.0
            assert 0.0 <= specificity(c) <= 1.0

    def test_aggregation_equals_single_pass(self):
        rng = np.random.default_rng(3)
        truths = [rng.integers(0, 3, (32, 32)).astype(np.uint8) for _ in range(6)]
        preds = [rng.integers(0, 2, (32, 32)).astype(np.uint8) for _ in range(6)]
        pooled = ConfusionCounts()
        for p, t in zip(preds, truths):
            pooled = pooled + confusion(p, t)
        single = confusion(np.concatenate(preds), np.concatenate(truths))
        assert pooled == single
        assert sensitivity(pooled) == sensitivity(single)


class TestShybrid:
    def test_exact_linear_form(self):
        assert shybrid(1, 0.8379, 0.7007) == pytest.approx(1.5386, abs=1e-12)
        assert shybrid(2, 0.8379, 0.7007) == pytest.approx(2.3765, abs=1e-12)
        assert shybrid(1, 0.9033, 0.7866) == pytest.approx(1.6899, abs=1e-12)

    def test_perfect_classifier(self):
        assert shybrid(1, 1.0, 1.0) == 2.0
        assert shybrid(2, 1.0, 1.0) == 3.0

    def test_reference_rows_within_rounding(self):
        for sens, spec, sh1, sh2 in REFERENCE_SCORE_ROWS:
            assert abs(shybrid(1, sens, spec) - sh1) <= 0.0002
            assert abs(shybrid(2, sens, spec) - sh2) <= 0.0002

    def test_strictly_increasing_in_each_argument(self):
        base = shybrid(2, 0.5, 0.5)
        assert shybrid(2, 0.6, 0.5) > base
        assert shybrid(2, 0.5, 0.6) > base

    def test_argmax_stable_under_reordering(self):
        rng = np.random.default_rng(4)
        cands = [(float(s), float(p)) for s, p in rng.random((20, 2))]
        for l in (1.0, 2.0):
            scores = [shybrid(l, s, p) for s, p in cands]
            best = cands[int(np.argmax(scores))]
            order = rng.permutation(len(cands))
            shuffled = [cands[i] for i in order]
            best2 = shuffled[int(np.argmax([shybrid(l, s, p) for s, p in shuffled]))]
            assert best == best2

    def test_undefined_inputs_rejected(self):
        with pytest.raises(ValueError):
            shybrid(2, None, 0.5)


class TestScores:
    def test_of_is_none_without_fire_pixels(self):
        assert Scores.of(ConfusionCounts(tn=5, fp=5)) is None

    def test_of_is_none_without_no_fire_pixels(self):
        assert Scores.of(ConfusionCounts(tp=5, fn=5)) is None

    def test_of_pools_the_recalls(self):
        c = ConfusionCounts(tp=3, fn=1, tn=7, fp=3)
        assert Scores.of(c) == Scores(sensitivity(c), specificity(c))

    def test_hybrids_are_bitwise_shybrid(self):
        rng = np.random.default_rng(5)
        for sens, spec in rng.random((50, 2)):
            s = Scores(float(sens), float(spec))
            assert s.sh1 == shybrid(1, s.sens, s.spec)
            assert s.sh2 == shybrid(2, s.sens, s.spec)
            assert (s.score("sh1"), s.score("sh2")) == (s.sh1, s.sh2)

    def test_values_have_the_score_column_order(self):
        s = Scores(0.8379, 0.7007)
        assert dict(zip(SCORE_COLUMNS, s.values())) == {
            "sensitivity": s.sens, "specificity": s.spec, "sh1": s.sh1, "sh2": s.sh2
        }

    def test_format_scores(self):
        assert format_scores(Scores(1.0, 0.5).values()) == "sens=1.0000 spec=0.5000 sh1=1.5000 sh2=2.5000"
