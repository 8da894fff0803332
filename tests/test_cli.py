import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fireseg import cli as C
from fireseg import formats as F
from fireseg import metrics as M
from fireseg import synthetic as S
from fireseg import training as T


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "fireseg.cli", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


class TestConfigFile:
    def test_parse_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nseed = 9\ntr=4\nes_metric=sh1\n")
        assert C.parse_config_file(path) == {"seed": "9", "tr": "4", "es_metric": "sh1"}

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=1\nbogus_key=2\n")
        with pytest.raises(C.CliError, match=r"run\.cfg:2.*bogus_key"):
            C.parse_config_file(path)

    def test_malformed_line_names_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=1\njust words\n")
        with pytest.raises(C.CliError, match=r"run\.cfg:2"):
            C.parse_config_file(path)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=1\ntr=4\n")
        args = C.build_parser().parse_args(["prepare", "--config", str(path), "--tr", "2"])
        cfg = C.resolve(args)
        assert cfg["tr"] == "2.0"
        assert cfg["seed"] == "1"

    def test_train_config_casting(self):
        cfg = {"lr": "0.01", "folds": "4", "es_metric": "sh1", "fire_buffer": "train"}
        tc = C.train_config(cfg)
        assert tc.lr == 0.01 and tc.folds == 4
        assert tc.es_metric == "sh1" and tc.fire_buffer == "train"


class TestConfigSurface:
    def test_known_keys(self):
        assert C.KNOWN_KEYS == {
            "data_dir", "out_dir", "seed", "threads",
            "height", "width", "days", "holdout_days", "numeric_channels", "categories",
            "target_fire_rate", "water_fraction", "blur_radius",
            "lr", "max_epochs", "patience", "folds", "es_metric", "tr", "fire_buffer",
            "buffer_radius", "init_features", "batch_size", "threshold", "grouping",
        }

    def test_train_config_defaults_are_the_dataclass_defaults(self):
        assert C.train_config({}) == T.TrainConfig()

    def test_float_for_an_int_key_is_one_line_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("height=4.5\n")
        assert C.main(["generate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        errors = capsys.readouterr().err.strip().splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: config key height='4.5'")

    def test_generate_defaults_are_the_dataclass_defaults(self, tmp_path, monkeypatch):
        class Generated(Exception):
            pass

        def record(config):
            raise Generated(config)

        monkeypatch.setattr(C.S, "generate_dataset", record)
        with pytest.raises(Generated) as caught:
            C.main(["generate", "--out", str(tmp_path)])
        # `days` counts train days (30) and `holdout_days` adds 10
        assert caught.value.args[0] == S.SynthConfig(days=40)

    def test_readme_table_matches_keys_and_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Configuration keys\n", 1)[1].split("\n## ", 1)[0]
        table = {}
        for line in section.splitlines():
            if line.startswith("| `"):
                key, default = (cell.strip().strip("`") for cell in line.split("|")[1:3])
                table[key] = default
        assert set(table) == C.KNOWN_KEYS
        for cls in (T.TrainConfig, S.SynthConfig):
            for f in dataclasses.fields(cls):
                key = "tr" if f.name == "tile_ratio" else f.name
                if key in table:
                    assert table[key] == str(f.default), key


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end run shared by the assertions below."""
    root = tmp_path_factory.mktemp("pipeline")
    ds, run = root / "ds", root / "run"
    common = ["--seed", "3"]
    steps = [
        ["generate", "--out", ds, "--days", "8", "--holdout-days", "4", "--height", "64",
         "--width", "64", "--target-fire-rate", "0.006", *common],
        ["prepare", "--data", ds, "--out", ds, "--tr", "2", *common],
        ["train", "--data", ds, "--out", run, "--tr", "2", "--init-features", "2",
         "--max-epochs", "4", "--patience", "2", "--folds", "2", "--fire-buffer", "train",
         *common],
        ["evaluate", "--data", ds, "--out", run, run / "best.unc", *common],
        ["predict", "--data", ds, "--out", run, run / "best.unc", "2021-06-09", "--render",
         *common],
    ]
    for step in steps:
        proc = run_cli(*step)
        assert proc.returncode == 0, f"{step[0]} failed: {proc.stderr}"
    return ds, run


class TestPipeline:
    def test_dataset_files_present(self, pipeline):
        ds, _ = pipeline
        for name in ["schema.json", "rule.json", "splits.json", "scaling.json",
                     "train_val_tiles.csv", "holdout_tiles.csv"]:
            assert (ds / name).is_file(), name
        assert len(list((ds / "raw").glob("*.fsk"))) == 12
        assert len(list((ds / "prepared").glob("*.fsk"))) == 12

    def test_validation_csv_has_k_plus_one_rows(self, pipeline):
        _, run = pipeline
        lines = (run / "validation.csv").read_text().strip().splitlines()
        assert lines[0] == ",".join(F.VALIDATION_COLUMNS)
        assert len(lines) == 1 + 2 + 1  # header + k folds + mean
        assert lines[-1].split(",")[5] == "mean"

    def test_mean_row_is_arithmetic_mean(self, pipeline):
        _, run = pipeline
        lines = (run / "validation.csv").read_text().strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        cols = {name: i for i, name in enumerate(F.VALIDATION_COLUMNS)}
        sens = [float(r[cols["sensitivity_full"]]) for r in rows[:-1]]
        assert float(rows[-1][cols["sensitivity_full"]]) == pytest.approx(np.mean(sens))

    def test_rounded_and_full_columns_agree(self, pipeline):
        _, run = pipeline
        lines = (run / "validation.csv").read_text().strip().splitlines()
        cols = {name: i for i, name in enumerate(F.VALIDATION_COLUMNS)}
        for line in lines[1:]:
            row = line.split(",")
            for short, full in [("sensitivity", "sensitivity_full"), ("sh2", "sh2_full")]:
                assert float(row[cols[short]]) == pytest.approx(
                    float(row[cols[full]]), abs=5e-5
                )

    def test_checkpoints_and_traces_written(self, pipeline):
        _, run = pipeline
        for name in ["fold_0.unc", "fold_1.unc", "best.unc", "trace_fold_0.csv",
                     "trace_fold_1.csv", "holdout.csv"]:
            assert (run / name).is_file(), name
        params = F.read_checkpoint(run / "best.unc")
        assert params.config.init_features == 2
        metrics = F.read_checkpoint_metrics(run / "best.unc")
        assert {"fold", "epoch", "sensitivity", "specificity", "sh1", "sh2"} <= set(metrics)

    def test_report_headers_are_pinned(self, pipeline):
        _, run = pipeline
        scores = "sensitivity,specificity,sh1,sh2"
        full = "sensitivity_full,specificity_full,sh1_full,sh2_full"
        first_line = {name: (run / name).read_text().splitlines()[0]
                      for name in ["validation.csv", "trace_fold_0.csv", "holdout.csv"]}
        assert first_line == {
            "validation.csv": "tr,fire_buffer,buffer_radius,init_features,es_metric,fold,epoch,"
                              f"{scores},{full}",
            "trace_fold_0.csv": f"epoch,train_loss,{scores}",
            "holdout.csv": f"checkpoint,holdout_days,tiles,{scores},{full},tp,fn,tn,fp",
        }
        metrics = F.read_checkpoint_metrics(run / "best.unc")
        assert list(metrics) == ["fold", "epoch", "sensitivity", "specificity", "sh1", "sh2"]

    def test_best_checkpoint_metrics_are_its_fold_row(self, pipeline):
        _, run = pipeline
        metrics = F.read_checkpoint_metrics(run / "best.unc")
        header, *rows = (run / "validation.csv").read_text().strip().splitlines()
        table = [dict(zip(header.split(","), row.split(","))) for row in rows]
        (fold,) = [r for r in table if r["fold"] == str(int(metrics["fold"]))]
        assert float(fold["epoch"]) == metrics["epoch"]
        for name in ["sensitivity", "specificity", "sh1", "sh2"]:
            assert float(fold[f"{name}_full"]) == metrics[name], name

    def test_holdout_csv_shape(self, pipeline):
        _, run = pipeline
        lines = (run / "holdout.csv").read_text().strip().splitlines()
        assert lines[0] == ",".join(F.HOLDOUT_COLUMNS)
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[1] == "2021-06-09..2021-06-12"
        cells = dict(zip(F.HOLDOUT_COLUMNS, row))
        counts = M.ConfusionCounts(*(int(cells[c]) for c in F.COUNT_COLUMNS))
        assert M.Scores.of(counts).values() == tuple(float(cells[c + "_full"]) for c in F.SCORE_COLUMNS)

    def test_predictions_and_render(self, pipeline):
        ds, run = pipeline
        pred = F.read_mask(run / "pred_2021-06-09.msk")
        assert pred.shape == (64, 64)
        assert set(np.unique(pred)) <= {0, 1}
        img = F.read_ppm(run / "render_2021-06-09.ppm")
        assert img.shape == (64, 64 * 2 + 2, 3)

    def test_no_temp_droppings(self, pipeline):
        ds, run = pipeline
        leftovers = list(ds.rglob("*.tmp")) + list(run.rglob("*.tmp"))
        assert leftovers == []


class TestDeterminism:
    def test_generate_twice_bitwise_identical(self, tmp_path):
        args = ["--days", "2", "--holdout-days", "1", "--height", "64", "--width", "64",
                "--seed", "11", "--target-fire-rate", "0.01"]
        for out in ("a", "b"):
            proc = run_cli("generate", "--out", tmp_path / out, *args)
            assert proc.returncode == 0, proc.stderr
        files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        assert files
        for rel in files:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel

    def test_threads_do_not_change_prepare_output(self, tmp_path):
        gen = ["generate", "--out", tmp_path / "ds", "--days", "3", "--holdout-days", "1",
               "--height", "64", "--width", "64", "--seed", "2", "--target-fire-rate", "0.01"]
        assert run_cli(*gen).returncode == 0
        for out, threads in [("p1", "1"), ("p4", "4")]:
            proc = run_cli("prepare", "--data", tmp_path / "ds", "--out", tmp_path / out,
                           "--tr", "1", "--seed", "2", "--threads", threads)
            assert proc.returncode == 0, proc.stderr
        for rel in ["scaling.json", "train_val_tiles.csv", "holdout_tiles.csv"]:
            assert (tmp_path / "p1" / rel).read_bytes() == (tmp_path / "p4" / rel).read_bytes()
        for p in sorted((tmp_path / "p1" / "prepared").iterdir()):
            q = tmp_path / "p4" / "prepared" / p.name
            assert p.read_bytes() == q.read_bytes(), p.name

    def test_threads_do_not_change_predict_output(self, pipeline, tmp_path):
        # predict is where conv kernels run concurrently, one thread per day
        ds, run = pipeline
        days = ["2021-06-09", "2021-06-10", "2021-06-11", "2021-06-12"]
        for out, threads in [("t1", "1"), ("t2", "2")]:
            proc = run_cli("predict", "--data", ds, "--out", tmp_path / out, run / "best.unc",
                           *days, "--seed", "3", "--threads", threads)
            assert proc.returncode == 0, proc.stderr
        masks = sorted(p.name for p in (tmp_path / "t1").glob("pred_*.msk"))
        assert masks == [f"pred_{day}.msk" for day in days]
        for name in masks:
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes(), name


class TestErrorContract:
    def test_missing_data_dir_is_one_line_error(self, tmp_path):
        proc = run_cli("prepare", "--data", tmp_path / "nope", "--out", tmp_path)
        assert proc.returncode == 1
        errors = proc.stderr.strip().splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("error: ")

    def test_missing_checkpoint(self, tmp_path):
        proc = run_cli("evaluate", "--data", tmp_path, "--out", tmp_path, tmp_path / "x.unc")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")

    def test_bad_config_file_line_number_in_message(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=1\nwhat_is_this=2\n")
        proc = run_cli("generate", "--config", cfg, "--out", tmp_path)
        assert proc.returncode == 1
        assert "c.cfg:2" in proc.stderr

    def test_hostile_mask_header_is_one_line_error(self, tmp_path):
        import struct

        proc = run_cli("generate", "--out", tmp_path, "--days", "2", "--holdout-days", "1",
                       "--height", "64", "--width", "64", "--seed", "5",
                       "--target-fire-rate", "0.01")
        assert proc.returncode == 0, proc.stderr
        # a 12-byte mask whose header claims 2^20 x 2^20 pixels
        mask = sorted((tmp_path / "raw").glob("*.msk"))[0]
        mask.write_bytes(F.MAGIC_MASK + struct.pack("<II", 1 << 20, 1 << 20))
        proc = run_cli("prepare", "--data", tmp_path, "--out", tmp_path, "--tr", "1")
        assert proc.returncode == 1
        errors = proc.stderr.strip().splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("error: ") and "truncated" in errors[0]

    def test_bad_checkpoint_header_names_the_file(self, pipeline, tmp_path):
        ds, run = pipeline
        bad = tmp_path / "bad.unc"
        raw = bytearray((run / "best.unc").read_bytes())
        raw[4:8] = bytes(4)  # in_channels = 0
        bad.write_bytes(bytes(raw))
        proc = run_cli("evaluate", "--data", ds, "--out", tmp_path, bad)
        assert proc.returncode == 1
        errors = proc.stderr.strip().splitlines()
        assert len(errors) == 1 and errors[0].startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("days, holdout_days", [(6, -2), (6, 0), (-2, 6), (0, 2)])
    def test_generate_refuses_an_empty_split(self, tmp_path, days, holdout_days):
        proc = run_cli("generate", "--out", tmp_path, "--days", days, "--holdout-days",
                       holdout_days, "--height", "64", "--width", "64")
        assert proc.returncode == 1
        errors = proc.stderr.strip().splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: ")
        assert not (tmp_path / "raw").exists()

    def test_evaluate_refuses_an_unknown_grouping(self, pipeline, tmp_path):
        ds, run = pipeline
        cfg = tmp_path / "c.cfg"
        cfg.write_text("grouping=bogus\n")
        proc = run_cli("evaluate", "--config", cfg, "--data", ds, "--out", tmp_path, run / "best.unc")
        assert proc.returncode == 1
        assert proc.stderr.strip().splitlines() == ["error: unknown grouping 'bogus'"]
        assert not (tmp_path / "holdout.csv").exists()

    def test_diverged_training_is_one_line_error(self, tmp_path):
        ds, run = tmp_path / "ds", tmp_path / "run"
        for step in (
            ["generate", "--out", ds, "--days", "6", "--holdout-days", "2", "--height", "64",
             "--width", "64", "--target-fire-rate", "0.006", "--seed", "3"],
            ["prepare", "--data", ds, "--out", ds, "--tr", "2", "--seed", "3"],
        ):
            proc = run_cli(*step)
            assert proc.returncode == 0, f"{step[0]} failed: {proc.stderr}"
        proc = run_cli("train", "--data", ds, "--out", run, "--tr", "2", "--lr", "1e30",
                       "--max-epochs", "3", "--patience", "1", "--folds", "2",
                       "--init-features", "2", "--seed", "3")
        assert proc.returncode == 1
        # the one stderr line: no numpy overflow warning precedes it
        [error] = proc.stderr.splitlines()
        assert error.startswith("error: fold 0: parameters not finite after epoch ")
        assert error.endswith("; training diverged")
        assert not (run / "validation.csv").exists()

    @pytest.mark.parametrize("command, manifest, other", [
        ("train", "train_val_tiles.csv", "holdout_tiles.csv"),
        ("evaluate", "holdout_tiles.csv", "train_val_tiles.csv"),
    ])
    def test_manifest_of_the_wrong_provenance_names_the_file(self, pipeline, tmp_path, command,
                                                             manifest, other):
        ds, run = pipeline
        data = tmp_path / "ds"
        data.mkdir()
        (data / manifest).write_bytes((ds / other).read_bytes())
        checkpoint = [run / "best.unc"] if command == "evaluate" else []
        proc = run_cli(command, "--data", data, "--out", tmp_path / "run", *checkpoint)
        assert proc.returncode == 1
        [error] = proc.stderr.splitlines()
        assert error.startswith(f"error: {data / manifest}: ")

    def test_invalid_day_id(self, tmp_path):
        proc = run_cli("predict", "--data", tmp_path, "--out", tmp_path,
                       tmp_path / "x.unc", "not-a-date")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
