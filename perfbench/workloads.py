"""The three benchmark workloads: set-up, one measured pipeline iteration, checks.

Each workload drives fireseg only through module attributes
(`T.cross_validate`, `cli.main`, ...), never through names bound here,
so the tracer's wrappers see every call in a traced run.

A workload's `setup()` builds its inputs and returns the stage timings it
took; `iteration()` runs the measured phase once and returns its timings
and counts; `finish()` runs the correctness checks over all iterations
and returns the failures, one line each. The checks compare outputs
between iterations, and against values that do not come from the code
under test: the float64 network in `reference.py`, and the artefact
digest of the seed code on a fixed ingest input.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import time
from datetime import date
from pathlib import Path

import numpy as np

import reference
from fireseg import cli
from fireseg import data as D
from fireseg import formats as F
from fireseg import kernels as K
from fireseg import metrics as M
from fireseg import synthetic as S
from fireseg import training as T
from fireseg import unet as U

CHANNELS = 12  # encoded channels of the synthetic schema: 8 numeric + 4 land-cover codes


def run_cli(*argv) -> str:
    """Run one CLI command in-process; return its stdout, raise on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"fireseg {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(Path(path).name.encode())
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _land_pixels(days) -> int:
    return sum(int((day.mask != D.WATER).sum()) for day in days)


def _differs(name: str, values: list) -> list[str]:
    if any(v != values[0] for v in values[1:]):
        return [f"{name} differs between iterations of the same inputs"]
    return []


class Train:
    """Acceptance dataset in memory; cross-validated training, then holdout scoring.

    The dataset is always the acceptance draw (data seed 7): across data
    seeds the fire-tile count, and with it the train work, ranges from 15
    to 29 tiles. The workload seed drives what the training sees instead:
    the no-fire tile sample, the fold split, the weight init and the
    shuffles. Every fold stops at epoch 2 (patience 1 cannot trigger
    earlier), so each iteration does the same number of steps.

    At two epochs the holdout scores of correct code are too low and too
    seed-dependent to gate (seed 12 predicts nearly every pixel as fire),
    so the check is a train step of the best checkpoint through the
    public API, against the float64 reference.
    """

    name = "train"
    DATA_SEED = 7
    EPOCHS = 2
    CHECK_TILES = 4

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.config = T.TrainConfig(
            max_epochs=self.EPOCHS, patience=self.EPOCHS - 1, folds=3, es_metric="sh2", tile_ratio=4.0,
            fire_buffer=T.BUFFER_TRAIN, buffer_radius=1, init_features=8, batch_size=32,
            seed=seed,
        )

    def setup(self) -> dict:
        t0 = time.perf_counter()
        days, schema, rule = S.generate_dataset(
            S.SynthConfig(height=128, width=128, days=40, target_fire_rate=1e-3, seed=self.DATA_SEED)
        )
        t1 = time.perf_counter()
        scaling = D.fit_scaling(days[:30], schema)
        encoded = [D.one_hot_encode(D.apply_scaling(day, scaling), schema)[0] for day in days]
        tiles = [t for day in encoded[:30] for t in D.extract_tiles(day)]
        self.tileset = D.sample_tileset(tiles, self.config.tile_ratio, self.seed)
        t2 = time.perf_counter()
        self.store = {day.day_id: day for day in encoded[:30]}
        self.holdout = encoded[30:]
        self.raw_holdout, self.rule = days[30:], rule
        folds = D.kfold_split(self.tileset, self.config.folds, self.config.seed, self.config.grouping)
        self.fold_train_tiles = [len(self.tileset.specs) - len(f) for f in folds]
        return {"stage.generate_s": t1 - t0, "stage.prepare_s": t2 - t1}

    def iteration(self) -> dict:
        t0 = time.perf_counter()
        cv = T.cross_validate(self.tileset, self.store, self.config)
        t1 = time.perf_counter()
        best = max(cv.folds, key=lambda r: r.best.sh2)
        result = T.evaluate_holdout(best.best.params, self.holdout, self.config)
        t2 = time.perf_counter()
        trained = sum(r.stopped_epoch * n for r, n in zip(cv.folds, self.fold_train_tiles))
        epochs = sum(r.stopped_epoch for r in cv.folds)
        params = hashlib.sha256(b"".join(t.tobytes() for t in best.best.params.tensors()))
        return {
            "wall_s": t2 - t0,
            "stage.train_s": t1 - t0,
            "stage.evaluate_s": t2 - t1,
            "train_tiles_per_s": trained / (t1 - t0),
            "infer_tiles_per_s": result.tiles / (t2 - t1),
            "holdout_sens": result.sens,
            "holdout_spec": result.spec,
            "holdout_sh2": result.sh2,
            "training.epochs": epochs,
            "training.wasted_epoch_ratio": sum(r.stopped_epoch - r.best.epoch for r in cv.folds) / epochs,
            "_outputs": (params.hexdigest(), result.counts),
            "_params": best.best.params,
        }

    def finish(self, iterations: list[dict]) -> list[str]:
        ceiling = S.best_reference(S.bayes_reference(self.raw_holdout, self.rule), "sh2").sh2
        for it in iterations:
            it["holdout_sh2_ratio"] = it["holdout_sh2"] / ceiling
        failures = _differs("best checkpoint or holdout counts", [it["_outputs"] for it in iterations])
        counts = iterations[0]["_outputs"][1]
        land = _land_pixels(self.holdout)
        if counts.tp + counts.fn + counts.tn + counts.fp != land:
            failures.append(f"holdout confusion counts sum to {counts.tp + counts.fn + counts.tn + counts.fp}, land pixels {land}")
        # the holdout tiles with the most fire pixels, so both classes carry loss
        feats, masks = D.materialize_batch(list(D.holdout_tileset(self.holdout).specs),
                                           {day.day_id: day for day in self.holdout})
        pick = np.argsort(-(masks == D.FIRE).sum(axis=(1, 2)), kind="stable")[: self.CHECK_TILES]
        params = iterations[0]["_params"]
        failures += reference.check_forward(U, params, feats[pick])
        failures += reference.check_train_step(U, K, params, feats[pick], masks[pick], self.seed)
        return failures


class Holdout:
    """A large prepared holdout scored and predicted through the CLI.

    256x256 days have 64 tiles each; 8 holdout days give about 500 land
    tiles for `evaluate` and 512 tiles for `predict`. Two train-val days
    are enough for `prepare` to fit scaling and sample a train manifest.
    The checkpoint is an untrained network drawn from the workload seed:
    inference cost does not depend on the weights.
    """

    name = "holdout"
    GRID, TRAIN_DAYS, HOLDOUT_DAYS = 256, 2, 8

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.ds, self.run, self.ckpt = work / "ds", work / "run", work / "net.unc"

    def setup(self) -> dict:
        shutil.rmtree(self.ds, ignore_errors=True)
        t0 = time.perf_counter()
        run_cli("generate", "--out", self.ds, "--days", self.TRAIN_DAYS,
                "--holdout-days", self.HOLDOUT_DAYS, "--height", self.GRID, "--width", self.GRID,
                "--seed", self.seed, "--threads", 1)
        t1 = time.perf_counter()
        run_cli("prepare", "--data", self.ds, "--out", self.ds, "--tr", 4, "--seed", self.seed,
                "--threads", 1)
        t2 = time.perf_counter()
        channels = F.read_schema(self.ds / "schema.json").encoded_count
        net = U.UNetConfig(in_channels=channels, init_features=8, seed=self.seed)
        self.params = U.init_params(net)
        F.write_checkpoint(self.ckpt, self.params)
        self.day_ids = [d.isoformat() for d in F.read_splits(self.ds / "splits.json")[1]]
        self.land_tiles = len(F.read_manifest(self.ds / "holdout_tiles.csv").specs)
        side = -(-self.GRID // D.TILE_SIDE)
        self.predict_tiles = len(self.day_ids) * side * side
        return {"stage.generate_s": t1 - t0, "stage.prepare_s": t2 - t1}

    def iteration(self) -> dict:
        shutil.rmtree(self.run, ignore_errors=True)
        t0 = time.perf_counter()
        run_cli("evaluate", "--data", self.ds, "--out", self.run, self.ckpt, "--seed", self.seed,
                "--threads", 1)
        t1 = time.perf_counter()
        run_cli("predict", "--data", self.ds, "--out", self.run, self.ckpt, *self.day_ids,
                "--render", "--threads", 1)
        t2 = time.perf_counter()
        return {
            "wall_s": t2 - t0,
            "stage.evaluate_s": t1 - t0,
            "stage.predict_s": t2 - t1,
            "infer_tiles_per_s": (self.land_tiles + self.predict_tiles) / (t2 - t0),
            "_outputs": digest_files(self.run.iterdir()),
        }

    def finish(self, iterations: list[dict]) -> list[str]:
        failures = _differs("evaluate/predict outputs", [it["_outputs"] for it in iterations])
        header, row = (self.run / "holdout.csv").read_text().splitlines()[:2]
        fields = dict(zip(header.split(","), row.split(",")))
        prepared = [F.read_day(self.ds / "prepared", date.fromisoformat(d))[0] for d in self.day_ids]
        stitched = M.ConfusionCounts()
        for day_id, day in zip(self.day_ids, prepared):
            stitched = stitched + M.confusion(F.read_mask(self.run / f"pred_{day_id}.msk"), day.mask)
        land = _land_pixels(prepared)
        total = stitched.tp + stitched.fn + stitched.tn + stitched.fp
        if total != land:
            failures.append(f"stitched confusion counts sum to {total}, land pixels {land}")
        if int(fields["tiles"]) != self.land_tiles:
            failures.append(f"evaluate scored {fields['tiles']} tiles, manifest has {self.land_tiles}")
        # evaluate reports pooled recalls only: equal to the last bit, they mean equal
        # confusion counts, which a tiling, batching or stitching mismatch would break
        if (M.sensitivity(stitched), M.specificity(stitched)) != (
            float(fields["sensitivity_full"]), float(fields["specificity_full"])
        ):
            failures.append("evaluate's tile predictions differ from predict's stitched days")
        failures += self._check_against_reference(prepared[0])
        return failures

    def _check_against_reference(self, day) -> list[str]:
        """predict's stitched mask of one day against the float64 reference network.

        Pixels whose reference logits are within 1e-3 of a tie are left
        out: float32 rounding may put them on either side of the threshold.
        """
        side = D.TILE_SIDE
        tiles = np.stack([
            day.features[:, r : r + side, c : c + side]
            for r in range(0, self.GRID, side) for c in range(0, self.GRID, side)
        ])
        logits = reference.forward(reference.weights(self.params), tiles)
        margin = logits[:, 1] - logits[:, 0]
        per_row = self.GRID // side
        stitched = margin.reshape(per_row, per_row, side, side).transpose(0, 2, 1, 3).reshape(self.GRID, self.GRID)
        pred = F.read_mask(self.run / f"pred_{day.day_id.isoformat()}.msk")
        clear = np.abs(stitched) > 1e-3
        wrong = int(((pred == 1) != (stitched >= 0))[clear].sum())
        if wrong:
            return [f"predict's mask of {day.day_id} differs from the float64 reference network on {wrong} pixels"]
        return []


class Ingest:
    """Synthetic generation and preparation through the CLI, written to disk.

    Set-up runs the same pipeline on a fixed input (seed 7, 128x128, 6
    train-val + 2 holdout days) and checks its artefacts against the
    digest the seed code gave for it, so a change to what `generate` or
    `prepare` write fails the run whatever the workload seed. It also
    pays imports and first-call costs before timing.
    """

    name = "ingest"
    GRID, TRAIN_DAYS, HOLDOUT_DAYS = 192, 20, 4
    FIXED = dict(seed=7, grid=128, train_days=6, holdout_days=2)
    FIXED_DIGEST = "f5c665984b35cd52c43fc2194b3ef070426d52451404b7939c61d3879ca39ba8"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.ds = work / "ds"

    @staticmethod
    def _pipeline(ds: Path, seed: int, grid: int, train_days: int, holdout_days: int) -> tuple[float, float]:
        shutil.rmtree(ds, ignore_errors=True)
        t0 = time.perf_counter()
        run_cli("generate", "--out", ds, "--days", train_days, "--holdout-days", holdout_days,
                "--height", grid, "--width", grid, "--seed", seed, "--threads", 1)
        t1 = time.perf_counter()
        run_cli("prepare", "--data", ds, "--out", ds, "--tr", 4, "--seed", seed, "--threads", 1)
        t2 = time.perf_counter()
        return t1 - t0, t2 - t1

    @staticmethod
    def _digest(ds: Path) -> str:
        return digest_files(list((ds / "prepared").iterdir()) + [
            ds / name for name in ("scaling.json", "train_val_tiles.csv", "holdout_tiles.csv")
        ])

    def setup(self) -> dict:
        fixed = self.work / "fixed"
        self._pipeline(fixed, **self.FIXED)
        digest = self._digest(fixed)
        shutil.rmtree(fixed)
        if digest != self.FIXED_DIGEST:
            raise RuntimeError(f"prepared artefacts of the fixed input have digest {digest}, "
                               f"the seed code gave {self.FIXED_DIGEST}")
        return {}

    def iteration(self) -> dict:
        generate, prepare = self._pipeline(
            self.ds, self.seed, self.GRID, self.TRAIN_DAYS, self.HOLDOUT_DAYS)
        return {
            "wall_s": generate + prepare,
            "stage.generate_s": generate,
            "stage.prepare_s": prepare,
            "_outputs": self._digest(self.ds),
        }

    def finish(self, iterations: list[dict]) -> list[str]:
        return _differs("prepared artefact digests", [it["_outputs"] for it in iterations])


WORKLOADS = {w.name: w for w in (Train, Holdout, Ingest)}
