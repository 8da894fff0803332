"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The synthetic end-to-end criteria drive the installed CLI in
subprocesses, exactly as a user would.
"""

import subprocess
import sys
import time
from datetime import date

import numpy as np
import pytest

from fireseg import data as D
from fireseg import formats as F
from fireseg import kernels as K
from fireseg import training as T
from fireseg.metrics import shybrid
from fireseg.synthetic import bayes_reference, best_reference

from oracles import (
    classify_tiles_naive,
    dilate_naive,
    early_stop_naive,
    finite_diff_grad,
    rel_err,
)
from test_metrics import REFERENCE_SCORE_ROWS
from test_unet import run_e2e_gradcheck

SEED = "7"
GEN_ARGS = ["--days", "30", "--holdout-days", "10", "--height", "128", "--width", "128",
            "--target-fire-rate", "0.001", "--seed", SEED]
TRAIN_ARGS = ["--tr", "4", "--fire-buffer", "train", "--buffer-radius", "1",
              "--init-features", "8", "--folds", "3", "--es-metric", "sh2",
              "--max-epochs", "45", "--patience", "10", "--seed", SEED, "--threads", "1"]


def _passed(line: str) -> None:
    print(f"\nACCEPTANCE {line}", flush=True)


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "fireseg.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"{args[0]} failed: {proc.stderr}"
    return proc


def run_pipeline(root, tr="4"):
    """generate -> prepare -> train -> evaluate; returns (ds, run) dirs."""
    ds, run = root / "ds", root / "run"
    run_cli("generate", "--out", ds, *GEN_ARGS)
    run_cli("prepare", "--data", ds, "--out", ds, "--tr", tr, "--seed", SEED, "--threads", "1")
    args = list(TRAIN_ARGS)
    args[args.index("--tr") + 1] = tr
    run_cli("train", "--data", ds, "--out", run, *args)
    run_cli("evaluate", "--data", ds, "--out", run, run / "best.unc", "--seed", SEED)
    return ds, run


def read_holdout_metrics(run):
    lines = (run / "holdout.csv").read_text().strip().splitlines()
    cols = {name: i for i, name in enumerate(F.HOLDOUT_COLUMNS)}
    row = lines[1].split(",")
    return float(row[cols["sensitivity_full"]]), float(row[cols["specificity_full"]])


@pytest.fixture(scope="module")
def main_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_a")
    t0 = time.perf_counter()
    ds, run = run_pipeline(root)
    return ds, run, time.perf_counter() - t0


def test_criterion_1_validation_table_arithmetic():
    """Recompute sh1/sh2 from every recorded (sens, spec) pair."""
    assert len(REFERENCE_SCORE_ROWS) == 32  # 16 configuration rows x 2 periods
    worst = 0.0
    for sens, spec, sh1, sh2 in REFERENCE_SCORE_ROWS:
        worst = max(worst, abs(shybrid(1, sens, spec) - sh1), abs(shybrid(2, sens, spec) - sh2))
        assert abs(shybrid(1, sens, spec) - sh1) <= 0.0002
        assert abs(shybrid(2, sens, spec) - sh2) <= 0.0002
    _passed(f"1 validation-table arithmetic: PASS (32 pairs, worst deviation {worst:.5f})")


def test_criterion_2_gradient_correctness():
    """Every backward kernel and the end-to-end network against central FD."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    eps = 1e-3
    tol = 1e-3

    def check(name, analytic, f, arg):
        fd = finite_diff_grad(f, arg, eps=eps)
        err = rel_err(analytic, fd)
        assert err <= tol, f"{name}: relative error {err:.2e} > {tol}"
        return arg.size, err

    coords = 0
    worst = 0.0

    # conv2d
    x = rng.standard_normal((1, 2, 6, 6))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    k = K.ConvKernel(w, b)
    r = rng.standard_normal((1, 3, 6, 6))
    gi, gw, gb = K.conv2d_backward(x, k, r)
    for name, an, f, arg in [
        ("conv2d/input", gi, lambda v: float(np.sum(r * K.conv2d_forward(v, k))), x),
        ("conv2d/weights", gw,
         lambda v: float(np.sum(r * K.conv2d_forward(x, K.ConvKernel(v, b)))), w),
        ("conv2d/bias", gb,
         lambda v: float(np.sum(r * K.conv2d_forward(x, K.ConvKernel(w, v)))), b),
    ]:
        n, err = check(name, an, f, arg)
        coords += n
        worst = max(worst, err)

    # transposed conv
    x = rng.standard_normal((1, 2, 3, 3))
    w = rng.standard_normal((2, 2, 2, 2))
    b = rng.standard_normal(2)
    k = K.ConvKernel(w, b)
    r = rng.standard_normal((1, 2, 6, 6))
    gi, gw, gb = K.conv_transpose2d_backward(x, k, r)
    for name, an, f, arg in [
        ("convT/input", gi, lambda v: float(np.sum(r * K.conv_transpose2d_forward(v, k))), x),
        ("convT/weights", gw,
         lambda v: float(np.sum(r * K.conv_transpose2d_forward(x, K.ConvKernel(v, b)))), w),
        ("convT/bias", gb,
         lambda v: float(np.sum(r * K.conv_transpose2d_forward(x, K.ConvKernel(w, v)))), b),
    ]:
        n, err = check(name, an, f, arg)
        coords += n
        worst = max(worst, err)

    # maxpool (windows with distinct entries stay off ties under +-eps)
    x = rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8)
    r = rng.standard_normal((1, 1, 4, 4))
    _, idx = K.maxpool2x2_forward(x)
    n, err = check("maxpool/input", K.maxpool2x2_backward(idx, r),
                   lambda v: float(np.sum(r * K.maxpool2x2_forward(v)[0])), x)
    coords += n
    worst = max(worst, err)

    # relu (inputs bounded away from the kink)
    x = rng.standard_normal((1, 3, 4, 4))
    x = np.where(np.abs(x) < 1e-2, 0.3, x)
    r = rng.standard_normal(x.shape)
    n, err = check("relu/input", K.relu_backward(x, r),
                   lambda v: float(np.sum(r * K.relu_forward(v))), x)
    coords += n
    worst = max(worst, err)

    # concat backward (split)
    a = rng.standard_normal((1, 2, 3, 3))
    bb = rng.standard_normal((1, 3, 3, 3))
    r = rng.standard_normal((1, 5, 3, 3))
    ga, gb2 = K.split_channels(r, 2)
    n, err = check("concat/first", ga,
                   lambda v: float(np.sum(r * K.concat_channels(v, bb))), a)
    coords += n
    worst = max(worst, err)
    n, err = check("concat/second", gb2,
                   lambda v: float(np.sum(r * K.concat_channels(a, v))), bb)
    coords += n
    worst = max(worst, err)

    # weighted cross-entropy
    logits = rng.standard_normal((1, 2, 4, 4))
    target = rng.integers(0, 3, (1, 4, 4)).astype(np.uint8)
    target[0, 0, 0] = 0
    target[0, 0, 1] = 1
    res = K.weighted_ce_loss(logits, target, (0.5, 3.0))
    n, err = check("loss/logits", res.grad_logits,
                   lambda v: K.weighted_ce_loss(v, target, (0.5, 3.0)).loss, logits)
    coords += n
    worst = max(worst, err)

    checked, e2e_worst = run_e2e_gradcheck(n_coords=100, eps=eps, tol=1e-2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"gradient criterion took {elapsed:.0f}s (budget 120s)"
    _passed(
        f"2 gradient correctness: PASS (kernels: {coords} coords, worst {worst:.2e}; "
        f"end-to-end: {checked} coords, worst {e2e_worst:.2e}; {elapsed:.0f}s)"
    )


def random_trivalued_mask(rng):
    """96x96 masks that actually exercise all three tile classes."""
    mask = rng.choice([0, 2], size=(96, 96), p=[0.7, 0.3]).astype(np.uint8)
    for r in range(0, 96, 32):
        for c in range(0, 96, 32):
            u = rng.random()
            if u < 0.25:
                mask[r : r + 32, c : c + 32] = 2  # all-water tile
            elif u < 0.6:
                for _ in range(int(rng.integers(1, 6))):
                    mask[r + rng.integers(32), c + rng.integers(32)] = 1
    return mask


def test_criterion_3_tiling_sampling_oracle():
    """Tile classification, sampling counts and dilation vs brute force."""
    import warnings

    rng = np.random.default_rng(7)
    for trial in range(100):
        mask = random_trivalued_mask(rng)
        day = D.GridDay(date(2021, 6, 1), np.zeros((1, 96, 96), np.float32), mask)
        got = {(s.row_off, s.col_off): s.tile_class for s in D.extract_tiles(day)}
        assert got == classify_tiles_naive(mask), f"tiling trial {trial}"

        specs = D.extract_tiles(day)
        n_fire = sum(1 for s in specs if s.tile_class == D.FIRE_TILE)
        n_nofire = sum(1 for s in specs if s.tile_class == D.NO_FIRE_TILE)
        if n_fire == 0:
            continue
        tr = float(rng.choice([0, 1, 2.5, 4]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # short-supply no-fire draws
            ts = D.sample_tileset(specs, tr, seed=trial)
            again = D.sample_tileset(specs, tr, seed=trial)
        want = min(int(round(tr * n_fire)), n_nofire)
        assert ts.fire_count() == n_fire
        assert len(ts.specs) == n_fire + want
        assert all(s.tile_class != D.WATER_TILE for s in ts.specs)
        assert set(ts.specs) <= set(specs)
        assert again.specs == ts.specs

    for radius in (0, 1, 2):
        for trial in range(30):
            mask = rng.choice([0, 1, 2], size=(20, 20), p=[0.7, 0.08, 0.22]).astype(np.uint8)
            assert np.array_equal(
                D.apply_fire_buffer(mask, radius), dilate_naive(mask, radius)
            ), f"dilation radius {radius} trial {trial}"
    _passed("3 tiling/sampling/dilation oracles: PASS (100 masks, radii 0-2 exact)")


def test_criterion_4_early_stopping_rule():
    """The stopping component against an independent transcription of the rule."""
    rng = np.random.default_rng(11)
    for trial in range(50):
        n = int(rng.integers(1, 60))
        trace = list(np.round(rng.random(n) * 3, 3))
        if rng.random() < 0.3:  # force plateaus so ties get exercised
            trace = [round(v, 1) for v in trace]
        patience = int(rng.integers(1, 10))
        max_epochs = int(rng.integers(1, 60))
        got = T.run_stopping_rule(trace, patience, max_epochs)
        want = early_stop_naive(trace, patience, max_epochs)
        assert got == want, f"trial {trial}: {got} != {want}"
    _passed("4 early-stopping rule: PASS (50 random traces, exact agreement)")


def test_criterion_5_synthetic_end_to_end(main_run, tmp_path_factory):
    """Trained model recovers the planted signal on the untouched holdout."""
    ds, run, elapsed = main_run
    assert elapsed <= 900, f"pipeline took {elapsed:.0f}s (budget 900s)"

    sens, spec = read_holdout_metrics(run)
    model_sh2 = shybrid(2, sens, spec)

    _, holdout_ids = F.read_splits(ds / "splits.json")
    rule = F.read_rule(ds / "rule.json")
    holdout_days = [F.read_day(ds / "raw", d)[0] for d in holdout_ids]
    ceiling = best_reference(bayes_reference(holdout_days, rule), "sh2")

    assert sens >= 0.80, f"holdout sensitivity {sens:.4f} < 0.80"
    assert spec >= 0.70, f"holdout specificity {spec:.4f} < 0.70"
    assert model_sh2 >= 0.85 * ceiling.sh2, (
        f"model sh2 {model_sh2:.4f} < 85% of reference ceiling {ceiling.sh2:.4f}"
    )
    # the ceiling must dominate the trained model (small statistical slack)
    assert model_sh2 <= ceiling.sh2 + 0.05

    # tile-ratio comparison emitted as a report, not a gate
    root = tmp_path_factory.mktemp("acceptance_tr1")
    ds1, run1 = root / "ds", root / "run"
    run_cli("generate", "--out", ds1, *GEN_ARGS)
    run_cli("prepare", "--data", ds1, "--out", ds1, "--tr", "1", "--seed", SEED)
    args = list(TRAIN_ARGS)
    args[args.index("--tr") + 1] = "1"
    run_cli("train", "--data", ds1, "--out", run1, *args)
    run_cli("evaluate", "--data", ds1, "--out", run1, run1 / "best.unc", "--seed", SEED)
    sens1, spec1 = read_holdout_metrics(run1)
    sh2_tr1 = shybrid(2, sens1, spec1)
    verdict = "TR=4 beats TR=1" if model_sh2 > sh2_tr1 else "TR=1 beats TR=4 this draw"
    _passed(
        f"5 synthetic end-to-end: PASS (sens {sens:.4f} >= 0.80, spec {spec:.4f} >= 0.70, "
        f"sh2 {model_sh2:.4f} = {model_sh2/ceiling.sh2:.1%} of ceiling {ceiling.sh2:.4f}, "
        f"{elapsed:.0f}s; report: {verdict}: sh2 {model_sh2:.4f} vs {sh2_tr1:.4f})"
    )


def test_criterion_6_holdout_purity(main_run, monkeypatch):
    """No holdout tile crosses the sampling/augmentation code paths."""
    ds, run, _ = main_run
    _, holdout_ids = F.read_splits(ds / "splits.json")
    days = [F.read_day(ds / "prepared", d)[0] for d in holdout_ids]
    params = F.read_checkpoint(run / "best.unc")

    calls = {"sample": 0, "buffer": 0}
    orig_sample = D.sample_tileset
    orig_buffer = D.apply_fire_buffer

    def counting_sample(*a, **k):
        calls["sample"] += 1
        return orig_sample(*a, **k)

    def counting_buffer(*a, **k):
        calls["buffer"] += 1
        return orig_buffer(*a, **k)

    monkeypatch.setattr(D, "sample_tileset", counting_sample)
    monkeypatch.setattr(D, "apply_fire_buffer", counting_buffer)

    config = T.TrainConfig(seed=int(SEED), fire_buffer="train", buffer_radius=1)
    tiled = T.evaluate_holdout(params, days, config)
    assert calls == {"sample": 0, "buffer": 0}, f"holdout touched forbidden paths: {calls}"

    holdout_set = D.holdout_tileset(days)
    with pytest.raises(ValueError, match="holdout"):
        D.sample_tileset(holdout_set, 4.0, seed=0)

    from fireseg.metrics import ConfusionCounts, confusion

    stitched = ConfusionCounts()
    for day in days:
        pred = T.predict_day(params, day, config.threshold)
        stitched = stitched + confusion(pred, day.mask)
    assert stitched == tiled.counts, "tile metrics != stitched full-day metrics"
    _passed(
        f"6 holdout purity: PASS (0 sampling/augmentation calls; tile counts == stitched "
        f"counts: tp={stitched.tp} fn={stitched.fn} tn={stitched.tn} fp={stitched.fp})"
    )


def test_criterion_7_bitwise_reproducibility(main_run, tmp_path_factory):
    """A second identical pipeline run reproduces every artifact bitwise."""
    ds_a, run_a, _ = main_run
    root = tmp_path_factory.mktemp("acceptance_b")
    ds_b, run_b = run_pipeline(root)

    compared = 0
    for name in sorted(p.name for p in run_a.iterdir()):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), \
            f"{name} differs between identical runs"
        compared += 1
    for rel in ["scaling.json", "train_val_tiles.csv", "holdout_tiles.csv", "schema.json",
                "rule.json", "splits.json"]:
        assert (ds_a / rel).read_bytes() == (ds_b / rel).read_bytes(), rel
        compared += 1
    for p in sorted((ds_a / "prepared").iterdir()):
        assert p.read_bytes() == (ds_b / "prepared" / p.name).read_bytes(), p.name
        compared += 1
    _passed(f"7 bitwise reproducibility: PASS ({compared} artifacts identical across runs)")
