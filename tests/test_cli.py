import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from oracles import read_checkpoint_metrics, read_ppm

import fireseg
from fireseg import cli as C
from fireseg import data as D
from fireseg import formats as F
from fireseg import metrics as M
from fireseg import synthetic as S
from fireseg import training as T
from fireseg import unet as U


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

    def test_a_key_set_twice_names_line(self, tmp_path):
        # the last value would win silently
        path = tmp_path / "run.cfg"
        path.write_text("seed=1\nseed=2\n")
        code, errors = _main_quietly(["generate", "--config", path, "--out", tmp_path / "ds"])
        assert (code, errors) == (1, [f"error: {path}:2: key 'seed' set twice"])
        assert not (tmp_path / "ds").exists()

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

    def test_every_flag_sets_a_known_key(self):
        # each command's parser takes the flags of its COMMANDS keys and SHARED_KEYS, no other
        [commands] = [a.choices for a in C.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
        for command, (_, keys) in C.COMMANDS.items():
            flags = {a.dest for a in commands[command]._actions if a.option_strings}
            assert flags - {"help", "config", "render"} == set(keys) | set(C.SHARED_KEYS), command
            assert set(keys) | set(C.SHARED_KEYS) <= C.KNOWN_KEYS, command

    def test_every_config_field_is_a_key(self):
        # a field no key sets would be a setting only Python callers reach
        keys = {"tr" if f.name == "tile_ratio" else f.name
                for cls in (T.TrainConfig, S.SynthConfig) for f in dataclasses.fields(cls)}
        assert keys <= C.KNOWN_KEYS

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

        monkeypatch.setattr(C.S, "stream_dataset", record)
        with pytest.raises(Generated) as caught:
            C.main(["generate", "--out", str(tmp_path)])
        # `days` counts train days (30) and `holdout_days` adds 10
        assert caught.value.args[0] == S.SynthConfig(days=40)

    def test_readme_quickstart_commands_parse(self):
        # each `fireseg ...` command of the Quickstart, its continued lines joined
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Quickstart\n", 1)[1].split("\n## ", 1)[0]
        lines = section.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("fireseg ")]
        assert [argv[0] for argv in commands] == list(C.COMMANDS)
        parser = C.build_parser()
        for argv in commands:
            parser.parse_args(argv)  # an unknown flag or a bad value raises CliError

    def test_readme_table_matches_keys_and_defaults(self):
        table = _readme_table()
        assert set(table) == C.KNOWN_KEYS
        assert {key: table[key][0] for key in C.DEFAULTS} == {k: str(v) for k, v in C.DEFAULTS.items()}
        # DEFAULTS keeps the last dataclass's default of a key both declare
        train, synth = (C._field_keys(cls) for cls in (T.TrainConfig, S.SynthConfig))
        shared = train.keys() & synth.keys()
        assert "seed" in shared
        for key in shared:
            assert train[key].default == synth[key].default, key


def _readme_table() -> dict[str, tuple[str, str]]:
    """Key -> its (default, read by) cells in the README, notes in parentheses and backticks dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration keys\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            key, default, read_by = (re.sub(r"\([^)]*\)", "", cell).strip().strip("`")
                                     for cell in line.split("|")[1:4])
            table[key] = (default, read_by)
    return table


def _readme_readers() -> dict[str, set[str]]:
    """Key -> the commands the README's "read by" column names."""
    readers = {}
    for key, (_, read_by) in _readme_table().items():
        names = {name.strip() for name in read_by.split(",")}
        readers[key] = set(C.COMMANDS) if names == {"all commands"} else names
    return readers


class TestKeyRecord:
    def test_each_command_reads_the_keys_of_its_flags_and_readme_row(self, tmp_path, monkeypatch):
        # every key a command reads goes through _get, but the two
        # directories, which are read with cfg.get
        reads: dict[str, set[str]] = {}
        command = None
        get = C._get
        monkeypatch.setattr(C, "_get", lambda cfg, key: reads[command].add(key) or get(cfg, key))

        class Recorded(dict):
            def get(self, key, default=None):
                reads[command].add(key)
                return super().get(key, default)

        ds, run = tmp_path / "ds", tmp_path / "run"
        runs = {
            "generate": C.cmd_generate,
            "prepare": C.cmd_prepare,
            "train": C.cmd_train,
            "evaluate": lambda cfg: C.cmd_evaluate(cfg, run / "best.unc"),
            "predict": lambda cfg: C.cmd_predict(cfg, run / "best.unc", ["2021-06-05"], False),
        }
        values = {"out_dir": ds, "days": 4, "holdout_days": 1, "height": 64, "width": 64,
                  "target_fire_rate": 0.006, "seed": 3, "data_dir": ds, "tr": 2,
                  "max_epochs": 2, "patience": 1, "folds": 2, "init_features": 2}
        for command, fn in runs.items():
            reads[command] = set()
            if command == "train":
                values["out_dir"] = run
            assert fn(Recorded({k: str(v) for k, v in values.items()})) == 0
        assert set(reads) == set(C.COMMANDS)

        readers = _readme_readers()
        for command, keys in reads.items():
            assert keys == {k for k, names in readers.items() if command in names}, command
        # every key a command reads has its flag; the flags a command takes
        # without reading their keys are the ones the README gives reasons for
        flags = {c: set(keys) | set(C.SHARED_KEYS) for c, (_, keys) in C.COMMANDS.items()}
        file_only = {c: keys - flags[c] for c, keys in reads.items()}
        assert file_only == {c: set() for c in C.COMMANDS}
        ignored = {c: flags[c] - keys for c, keys in reads.items() if flags[c] - keys}
        assert ignored == {"train": {"threads"}, "evaluate": {"seed", "threads"}}


HOLDOUT_DAYS = ["2021-06-09", "2021-06-10", "2021-06-11", "2021-06-12"]


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
        ["predict", "--data", ds, "--out", run, run / "best.unc", *HOLDOUT_DAYS, "--render"],
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
        metrics = read_checkpoint_metrics(run / "best.unc")
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
        metrics = read_checkpoint_metrics(run / "best.unc")
        assert list(metrics) == ["fold", "epoch", "sensitivity", "specificity", "sh1", "sh2"]

    def test_best_checkpoint_metrics_are_its_fold_row(self, pipeline):
        _, run = pipeline
        metrics = read_checkpoint_metrics(run / "best.unc")
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
        checkpoint = hashlib.sha256((run / "best.unc").read_bytes()).hexdigest()
        assert row[0] == checkpoint == json.loads((run / "evaluate.json").read_text())["checkpoint"]
        assert row[1] == "2021-06-09..2021-06-12"
        cells = dict(zip(F.HOLDOUT_COLUMNS, row))
        counts = M.ConfusionCounts(*(int(cells[c]) for c in F.COUNT_COLUMNS))
        assert M.Scores.of(counts).values() == tuple(float(cells[c + "_full"]) for c in F.SCORE_COLUMNS)

    def test_predictions_and_render(self, pipeline):
        ds, run = pipeline
        pred = F.read_mask(run / "pred_2021-06-09.msk")
        assert pred.shape == (64, 64)
        assert set(np.unique(pred)) <= {0, 1}
        img = read_ppm(run / "render_2021-06-09.ppm")
        assert img.shape == (64, 64 * 2 + 2, 3)

    def test_evaluate_reads_only_the_threshold(self, pipeline, tmp_path):
        # training keys that TrainConfig would refuse do not reach evaluate
        ds, run = pipeline
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lr=-1\npatience=0\ngrouping=bogus\nes_metric=bogus\n")
        proc = run_cli("evaluate", "--config", cfg, "--data", ds, "--out", tmp_path,
                       run / "best.unc", "--seed", "3")
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "holdout.csv").read_bytes() == (run / "holdout.csv").read_bytes()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_refuses_a_threshold_outside_zero_to_one(self, pipeline, tmp_path, command):
        # before anything is made or read: the output directory never appears
        ds, run = pipeline
        cfg, out = tmp_path / "c.cfg", tmp_path / "out"
        cfg.write_text("threshold=1.5\n")
        days = HOLDOUT_DAYS[:1] if command == "predict" else []
        proc = run_cli(command, "--config", cfg, "--data", ds, "--out", out, run / "best.unc", *days)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: threshold must be a probability"]
        assert not out.exists()

    def test_no_temp_droppings(self, pipeline):
        ds, run = pipeline
        leftovers = list(ds.rglob("*.tmp")) + list(run.rglob("*.tmp"))
        assert leftovers == []


# sha256 of what the pipeline fixture computes, per BLAS identity: a change
# meant to keep outputs must keep this digest, and one that moves bits
# records its new digest here
PIPELINE_DIGESTS = {
    ("scipy-openblas 0.3.31.188.0",
     "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64",
     "Intel(R) Xeon(R) Processor"):
        "d59cebb653ccced9b268867747fc349c914e01612230d453abe2ca83f1ef0308",
}


class TestPipelinePin:
    def test_outputs_match_the_recorded_digest(self, pipeline):
        _, run = pipeline
        files = ["best.unc", "trace_fold_0.csv", "trace_fold_1.csv", "validation.csv",
                 *(f"pred_{day}.msk" for day in HOLDOUT_DAYS)]
        digest = hashlib.sha256()
        for name in files:
            digest.update(name.encode() + b"\0" + (run / name).read_bytes())
        # holdout.csv less its first column, the checkpoint's sha256, which
        # best.unc's bytes above already fix
        rows = (run / "holdout.csv").read_text().splitlines()
        digest.update(b"holdout.csv\0" + "\n".join(r.split(",", 1)[1] for r in rows).encode())
        identity = F.blas_identity()
        if identity not in PIPELINE_DIGESTS:
            pytest.skip(f"no pipeline digest recorded for BLAS identity {identity}")
        assert digest.hexdigest() == PIPELINE_DIGESTS[identity]


def _count_forwards(monkeypatch) -> list[int]:
    """A one-item list counting the unet.forward calls from here on."""
    calls = [0]
    forward = U.forward

    def counting(*args, **kwargs):
        calls[0] += 1
        return forward(*args, **kwargs)

    monkeypatch.setattr(U, "forward", counting)
    return calls


def _outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("pred_*.msk")) + sorted(out.glob("render_*"))}


@pytest.fixture
def evaluated(pipeline, tmp_path):
    """A copy of the pipeline's dataset, evaluated in process into a fresh directory."""
    ds, run = pipeline
    data, out = tmp_path / "ds", tmp_path / "run"
    shutil.copytree(ds, data)
    assert C.main(["evaluate", "--data", str(data), "--out", str(out), str(run / "best.unc")]) == 0
    return data, out, run / "best.unc"


class TestEvaluateRecord:
    def test_record_holds_the_digests_of_what_evaluate_read_and_wrote(self, evaluated):
        data, out, checkpoint = evaluated
        record = json.loads((out / "evaluate.json").read_text())
        blas, blas_config, cpu = F.blas_identity()
        sha = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()  # noqa: E731
        sources = sorted(Path(fireseg.__file__).parent.glob("*.py"))
        source = hashlib.sha256("".join(f"{sha(p)} {p.name}\n" for p in sources).encode()).hexdigest()
        assert record == {
            "threshold": 0.5, "fireseg": source, "numpy": np.__version__,
            "blas": blas, "blas_config": blas_config, "cpu": cpu, "checkpoint": sha(checkpoint),
            "days": {day: {f"prepared/{day}.fsk": sha(data / "prepared" / f"{day}.fsk"),
                           f"prepared/{day}.msk": sha(data / "prepared" / f"{day}.msk"),
                           f"pred_{day}.msk": sha(out / f"pred_{day}.msk")}
                     for day in HOLDOUT_DAYS},
        }

    def test_two_runs_into_different_directories_write_equal_records(self, evaluated, tmp_path):
        data, out, checkpoint = evaluated
        other = tmp_path / "elsewhere"
        shutil.copytree(data, other / "ds")
        assert C.main(["evaluate", "--data", str(other / "ds"), "--out", str(other / "run"),
                       str(checkpoint)]) == 0
        assert (other / "run" / "evaluate.json").read_bytes() == (out / "evaluate.json").read_bytes()

    def test_a_refused_stale_manifest_leaves_no_new_record(self, evaluated, tmp_path, capsys):
        data, out, checkpoint = evaluated
        manifest = data / "holdout_tiles.csv"
        lines = manifest.read_text().splitlines()
        lines.remove(next(line for line in lines if line.startswith(HOLDOUT_DAYS[1])))
        manifest.write_text("\n".join(lines) + "\n")
        record = (out / "evaluate.json").read_bytes()
        for target in (out, tmp_path / "fresh"):
            assert C.main(["evaluate", "--data", str(data), "--out", str(target), str(checkpoint),
                           "--threshold", "0.25"]) == 1
            assert capsys.readouterr().err.startswith(f"error: {manifest}: ")
        assert (out / "evaluate.json").read_bytes() == record
        # the first day was scored, and its mask written, before the second was refused
        assert sorted(p.name for p in (tmp_path / "fresh").iterdir()) == [f"pred_{HOLDOUT_DAYS[0]}.msk"]


def _other_checkpoint(data, out, checkpoint):
    net = F.read_checkpoint(checkpoint).config
    other = out / "other.unc"
    F.write_checkpoint(other, U.init_params(dataclasses.replace(net, seed=net.seed + 1)))
    return ["--data", data, "--out", out, other], HOLDOUT_DAYS


def _flip_last_stack_value(data, out, checkpoint):
    stack = data / "prepared" / f"{HOLDOUT_DAYS[2]}.fsk"
    raw = bytearray(stack.read_bytes())
    raw[-4] ^= 0x01  # the low mantissa bit of the last value, which stays finite
    stack.write_bytes(raw)
    return ["--data", data, "--out", out, checkpoint], HOLDOUT_DAYS[2:3]


def _flip_a_truth_pixel(data, out, checkpoint):
    mask = data / "prepared" / f"{HOLDOUT_DAYS[1]}.msk"
    raw = bytearray(mask.read_bytes())
    raw[raw.index(0, 12)] = 1  # the first no-fire pixel after the 12 header bytes is fire
    mask.write_bytes(raw)
    return ["--data", data, "--out", out, checkpoint], HOLDOUT_DAYS[1:2]


def _overwrite_a_pred_mask(data, out, checkpoint):
    pred = out / f"pred_{HOLDOUT_DAYS[3]}.msk"
    F.write_mask(pred, 1 - F.read_mask(pred))
    return ["--data", data, "--out", out, checkpoint], HOLDOUT_DAYS[3:]


def _edit_record(edit):
    def spoil(data, out, checkpoint):
        path = out / "evaluate.json"
        path.write_bytes(edit(path.read_bytes()))
        return ["--data", data, "--out", out, checkpoint], HOLDOUT_DAYS
    return spoil


def _recorded(key, value):
    return _edit_record(lambda raw: json.dumps({**json.loads(raw), key: value}).encode())


def _remove_record(data, out, checkpoint):
    (out / "evaluate.json").unlink()
    return ["--data", data, "--out", out, checkpoint], HOLDOUT_DAYS


def _other_threshold(data, out, checkpoint):
    return ["--data", data, "--out", out, checkpoint, "--threshold", "0.3"], HOLDOUT_DAYS


class TestPredictKeepsEvaluateMasks:
    def test_holdout_days_go_through_no_network(self, evaluated, tmp_path, monkeypatch):
        data, out, checkpoint = evaluated
        calls = _count_forwards(monkeypatch)
        assert C.main(["predict", "--data", str(data), "--out", str(out), str(checkpoint),
                       *HOLDOUT_DAYS, "--render"]) == 0
        assert calls == [0]
        fresh = tmp_path / "fresh"
        assert C.main(["predict", "--data", str(data), "--out", str(fresh), str(checkpoint),
                       *HOLDOUT_DAYS, "--render"]) == 0
        assert calls[0] > 0
        assert _outputs(out) == _outputs(fresh)
        # a train day has no mask in the record
        calls[0] = 0
        assert C.main(["predict", "--data", str(data), "--out", str(out), str(checkpoint),
                       "2021-06-01"]) == 0
        assert calls[0] > 0

    def test_a_record_written_by_other_source_keeps_no_mask(self, evaluated, tmp_path):
        # a copy of the package one comment line apart writes the same masks,
        # but its predict trusts no record the original's evaluate wrote
        data, out, checkpoint = evaluated
        package = tmp_path / "src" / "fireseg"
        shutil.copytree(Path(fireseg.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(package / "metrics.py", "a") as f:
            f.write("# one more line\n")
        masks = _outputs(out)
        proc = subprocess.run(
            [sys.executable, "-m", "fireseg.cli", "predict", "--data", data, "--out", out,
             checkpoint, *HOLDOUT_DAYS],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(package.parent)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"predicted {len(HOLDOUT_DAYS)} day(s) into {out}\n"  # none kept
        assert _outputs(out) == masks

    @pytest.mark.parametrize("spoil", [
        _other_checkpoint, _other_threshold, _flip_last_stack_value, _flip_a_truth_pixel,
        _overwrite_a_pred_mask, _remove_record,
        _edit_record(lambda raw: raw[: len(raw) // 2]),
        _edit_record(lambda raw: b"[]"),
        *(_recorded(key, "other") for key in ("fireseg", "numpy", "blas", "blas_config", "cpu")),
    ], ids=["checkpoint", "threshold", "stack-byte", "truth-byte", "pred-mask", "no-record",
            "truncated-record", "not-a-record", "fireseg", "numpy", "blas", "blas-config", "cpu"])
    def test_a_mismatch_runs_the_network_again(self, evaluated, tmp_path, monkeypatch, spoil):
        data, out, checkpoint = evaluated
        args, predicted = spoil(data, out, checkpoint)
        calls = _count_forwards(monkeypatch)

        def predict(*args) -> int:
            calls[0] = 0
            assert C.main([str(a) for a in ("predict", *args, "--render")]) == 0
            return calls[0]

        fresh = tmp_path / "fresh"
        fresh_args = [fresh if a == out else a for a in args]
        assert predict(*args, *HOLDOUT_DAYS) == predict(*fresh_args, *predicted) > 0
        shutil.rmtree(fresh)
        predict(*fresh_args, *HOLDOUT_DAYS)
        assert _outputs(out) == _outputs(fresh)


class TestMapDays:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_draws_at_most_threads_items_ahead_in_order(self, threads):
        # generate and prepare hand _map_days a stream of days: drawing one is
        # holding one, so the stream may run at most `threads` items ahead
        lock = threading.Lock()
        drawn, done, ahead = [0], [0], []

        def items():
            for i in range(12):
                with lock:
                    drawn[0] += 1
                    ahead.append(drawn[0] - done[0])
                yield i

        def square(i):
            time.sleep(0.002 * (i % 3))  # items finish out of order
            with lock:
                done[0] += 1
            return i * i

        assert C._map_days(square, items(), threads) == [i * i for i in range(12)]
        assert len(ahead) == 12 and max(ahead) <= threads, ahead


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

    def test_threads_do_not_change_generate_output(self, tmp_path):
        args = ["--days", "3", "--holdout-days", "2", "--height", "64", "--width", "64",
                "--seed", "2", "--target-fire-rate", "0.01"]
        for out, threads in [("g1", "1"), ("g2", "2")]:
            proc = run_cli("generate", "--out", tmp_path / out, *args, "--threads", threads)
            assert proc.returncode == 0, proc.stderr
        files = sorted(p.relative_to(tmp_path / "g1") for p in (tmp_path / "g1").rglob("*") if p.is_file())
        assert len(files) == 3 + 2 * 5
        for rel in files:
            assert (tmp_path / "g1" / rel).read_bytes() == (tmp_path / "g2" / rel).read_bytes(), rel

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
        days = HOLDOUT_DAYS
        for out, threads in [("t1", "1"), ("t2", "2")]:
            proc = run_cli("predict", "--data", ds, "--out", tmp_path / out, run / "best.unc",
                           *days, "--threads", threads)
            assert proc.returncode == 0, proc.stderr
        masks = sorted(p.name for p in (tmp_path / "t1").glob("pred_*.msk"))
        assert masks == [f"pred_{day}.msk" for day in days]
        for name in masks:
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes(), name


def _meet_in_pairs(monkeypatch, module, name):
    """Make the callers of module.name meet in pairs after each call, each
    holding the call's arguments and result until its partner arrives.

    At two workers both then hold that transient at once in every run, so a
    tracemalloc peak does not depend on how the threads interleave. A run
    must make an even number of calls; a caller left without a partner fails
    with BrokenBarrierError after the timeout.
    """
    barrier = threading.Barrier(2, timeout=60)
    call = getattr(module, name)

    def paired(*args, **kwargs):
        result = call(*args, **kwargs)
        barrier.wait()
        return result

    monkeypatch.setattr(module, name, paired)


class TestGenerateMemory:
    @staticmethod
    def peak(tmp_path, train_days, threads, rate):
        cfg = {"out_dir": str(tmp_path / f"ds{train_days}"), "days": str(train_days),
               "holdout_days": "2", "height": "96", "width": "96", "seed": "5",
               "target_fire_rate": rate, "threads": str(threads)}
        tracemalloc.start()
        try:
            assert C.cmd_generate(cfg) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_grows_by_the_rule_channels_of_a_day_per_day(self, tmp_path, monkeypatch, threads):
        # generate holds every day's two dynamic rule channels and its mask;
        # full days stream. At this rate most calibration passes find over an
        # eighth of each day's land active, so every day also holds one
        # float64 reach value per pixel while the bias is calibrated
        self.peak(tmp_path, 1, threads, "0.01")  # first-call allocations are not per-day growth
        if threads == 2:  # the 6 and 14 days are written by two workers holding a day each
            _meet_in_pairs(monkeypatch, F, "write_day")
        growth = self.peak(tmp_path, 12, threads, "0.01") - self.peak(tmp_path, 4, threads, "0.01")
        per_day = (2 * 4 + 1 + 8) * 96 * 96
        assert growth <= 1.1 * per_day * (12 - 4), (growth, per_day)

    def test_sparse_calibration_holds_no_reach_per_day(self, tmp_path, monkeypatch):
        # at the default rate every pass keeps each day's active set, so a day
        # holds its rule channels, its mask and its kept set: 24 bytes per pixel
        # of the set, and no reach value per pixel beyond the day being scanned
        scans = []
        scan = S._scan

        def recording(rule, raster, features, reach):
            act, score = scan(rule, raster, features, reach)
            scans.append((act.size, raster.flat.size // 8))
            return act, score

        monkeypatch.setattr(S, "_scan", recording)
        self.peak(tmp_path, 1, 1, "0.001")
        growth = self.peak(tmp_path, 12, 1, "0.001") - self.peak(tmp_path, 4, 1, "0.001")
        assert all(size <= small for size, small in scans)  # no pass keeps a reach
        per_day = (2 * 4 + 1) * 96 * 96 + 24 * max(size for size, _ in scans)
        assert growth <= 1.1 * per_day * (12 - 4), (growth, per_day)


class TestPrepareMemory:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_does_not_grow_with_the_train_days(self, tmp_path, monkeypatch, threads):
        # prepare reads the raw days twice, one day per worker at a time; at two
        # workers both hold a raw, a scaled and an encoded day at once in every
        # run (the 6 and 14 days of pass 2 pair up)
        if threads == 2:
            _meet_in_pairs(monkeypatch, C.D, "one_hot_encode")

        def peak(train_days):
            ds = tmp_path / f"ds{train_days}"
            gen = ["generate", "--out", ds, "--days", train_days, "--holdout-days", 2,
                   "--height", 96, "--width", 96, "--seed", 5, "--target-fire-rate", 0.01]
            assert C.main([str(a) for a in gen]) == 0
            tracemalloc.start()
            try:
                cfg = {"data_dir": str(ds), "tr": "1", "seed": "5", "threads": str(threads)}
                assert C.cmd_prepare(cfg) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        growth = peak(12) - peak(4)
        _, holdout_ids = F.read_splits(tmp_path / "ds4" / "splits.json")
        day, _ = F.read_day(tmp_path / "ds4" / "raw", holdout_ids[0])
        raw_day = day.features.nbytes + day.mask.nbytes
        assert growth <= 0.25 * raw_day * (12 - 4), (growth, raw_day)


class TestEvaluatePredictMemory:
    def test_peak_holds_one_prepared_day_per_worker(self, tmp_path):
        # evaluate and predict read each prepared day when they reach it, so
        # more holdout days leave their peaks where they were
        def peaks(holdout_days):
            ds, run = tmp_path / f"ds{holdout_days}", tmp_path / f"run{holdout_days}"
            for args in (
                ["generate", "--out", ds, "--days", 2, "--holdout-days", holdout_days,
                 "--height", 96, "--width", 96, "--seed", 5, "--target-fire-rate", 0.01],
                ["prepare", "--data", ds, "--out", ds, "--tr", 1, "--seed", 5],
            ):
                assert C.main([str(a) for a in args]) == 0
            channels = F.read_schema(ds / "schema.json").encoded_count
            checkpoint = ds / "net.unc"
            net = U.UNetConfig(in_channels=channels, init_features=2)
            F.write_checkpoint(checkpoint, U.init_params(net))
            day_ids = [d.isoformat() for d in F.read_splits(ds / "splits.json")[1]]
            cfg = {"data_dir": str(ds), "out_dir": str(run)}
            commands = {"evaluate": lambda: C.cmd_evaluate(cfg, checkpoint),
                        "predict": lambda: C.cmd_predict(cfg, checkpoint, day_ids, render=True)}
            result = {}
            for name, command in commands.items():
                tracemalloc.start()
                try:
                    assert command() == 0
                    result[name] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            day, _ = F.read_day(ds / "prepared", date.fromisoformat(day_ids[0]))
            return result, day.features.nbytes + day.mask.nbytes

        (few, prepared_day), (many, _) = peaks(2), peaks(6)
        for name in ("evaluate", "predict"):
            assert many[name] - few[name] <= 0.25 * prepared_day, (name, few, many, prepared_day)


class TestTrainDays:
    def test_cross_validate_is_the_same_from_disk_and_from_memory(self, pipeline):
        # train hands cross_validate a mapping that reads each day on lookup
        ds, _ = pipeline
        tileset, days = C._load_manifest(ds, "train_val_tiles.csv", D.SAMPLED)
        store = {day_id: F.read_day(ds / "prepared", day_id)[0] for day_id in days}
        config = T.TrainConfig(init_features=2, max_epochs=3, patience=1, folds=2,
                               fire_buffer="train", seed=3)
        disk, memory = T.cross_validate(tileset, days, config), T.cross_validate(tileset, store, config)
        assert disk.means == memory.means
        for a, b in zip(disk.folds, memory.folds, strict=True):
            assert a.trace == b.trace and a.best.epoch == b.best.epoch
            for ta, tb in zip(a.best.params.tensors(), b.best.params.tensors(), strict=True):
                assert np.array_equal(ta, tb)

    def test_train_reads_a_dataset_prepared_into_another_directory(self, pipeline, tmp_path):
        # prepare writes the split next to the manifests it checks
        ds, _ = pipeline
        other = tmp_path / "prepared_ds"
        assert C.main(["prepare", "--data", str(ds), "--out", str(other), "--tr", "2",
                       "--seed", "3"]) == 0
        assert (other / "splits.json").read_bytes() == (ds / "splits.json").read_bytes()
        assert C.main(["train", "--data", str(other), "--out", str(tmp_path / "run"),
                       "--init-features", "2", "--max-epochs", "2", "--patience", "1",
                       "--folds", "2", "--seed", "3"]) == 0


class TestTrainMemory:
    def test_peak_holds_the_sample_and_one_prepared_day(self, tmp_path):
        # twelve sampled tiles on 4 train days, then on 12: train cuts the
        # tiles one day at a time and keeps no day, so the 8 more days it
        # reads leave its peak where it was
        ds = tmp_path / "ds"
        for args in (
            ["generate", "--out", ds, "--days", 12, "--holdout-days", 1, "--height", 96,
             "--width", 96, "--seed", 5, "--target-fire-rate", 0.01],
            ["prepare", "--data", ds, "--out", ds, "--tr", 1, "--seed", 5],
        ):
            assert C.main([str(a) for a in args]) == 0
        train_ids, _ = F.read_splits(ds / "splits.json")
        land = {}
        for day_id in train_ids:
            day, _ = F.read_day(ds / "prepared", day_id)
            # fire tiles first, so the few days carry fire for both folds
            land[day_id] = sorted(D.holdout_tileset([day]).specs, key=lambda s: s.tile_class)

        def peak(day_ids, per_day):
            specs = tuple(spec for d in day_ids for spec in land[d][:per_day])
            assert len(specs) == 12
            F.write_manifest(ds / "train_val_tiles.csv", D.TileSet(specs, D.SAMPLED))
            cfg = {"data_dir": str(ds), "out_dir": str(tmp_path / "run"), "init_features": "2",
                   "max_epochs": "2", "patience": "1", "folds": "2", "seed": "5"}
            tracemalloc.start()
            try:
                assert C.cmd_train(cfg) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(train_ids[:4], 3)  # first-call allocations are not per-day growth
        few, many = peak(train_ids[:4], 3), peak(train_ids, 1)
        prepared_day = day.features.nbytes + day.mask.nbytes
        assert many - few <= 0.25 * prepared_day, (few, many, prepared_day)


def _edited_copy(pipeline, tmp_path, name, edit):
    """A copy of the pipeline's dataset whose file `name` holds edit(its lines)."""
    ds, _ = pipeline
    data = tmp_path / "ds"
    shutil.copytree(ds, data)
    path = data / name
    path.write_text("\n".join(edit(data, path.read_text().splitlines())) + "\n")
    return data, path


def _first_fire_row(lines):
    return next(n for n, line in enumerate(lines) if ",fire," in line)


def _offset_off_the_grid(data, lines):
    n = _first_fire_row(lines)
    day, row, rest = lines[n].split(",", 2)
    lines[n] = f"{day},{int(row) + 1},{rest}"
    return lines


def _fire_relabelled(data, lines):
    n = _first_fire_row(lines)
    lines[n] = lines[n].replace(",fire,", ",no-fire,")
    return lines


def _moved_to_a_day_without_that_fire(data, lines):
    # to the first other train day whose tile at those offsets holds no fire
    n = _first_fire_row(lines)
    day, row, col, _ = lines[n].split(",", 3)
    for other in F.read_splits(data / "splits.json")[0]:
        tiles = D.extract_tiles(F.read_day(data / "prepared", other)[0])
        if other.isoformat() != day and any(
            (t.row_off, t.col_off, t.tile_class) == (int(row), int(col), D.NO_FIRE_TILE)
            for t in tiles
        ):
            lines[n] = f"{other.isoformat()},{row},{col},fire,sampled"
            return lines
    raise AssertionError("no train day lacks that fire tile")


def _main_quietly(args) -> tuple[int, list[str]]:
    """cli.main(args) in process: its exit status and its stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = C.main([str(a) for a in args])
    return code, err.getvalue().splitlines()


def _header_bytes(path: Path) -> range:
    """The header of a FSK1 stack, MSK1 mask or UNC1 checkpoint (with its first tensor's shape)."""
    raw = path.read_bytes()
    if raw[:4] == F.MAGIC_STACK:
        end = 16
        for _ in range(struct.unpack_from("<I", raw, 4)[0]):  # a length, then the name
            end += 4 + struct.unpack_from("<I", raw, end)[0]
        return range(end)
    return range(12 if raw[:4] == F.MAGIC_MASK else 36)


class TestFlipSweep:
    def test_each_single_byte_flip_exits_0_or_names_a_file(self, tmp_path):
        # every byte of the text inputs and every header byte of one binary
        # input of each kind, XORed with 0x01, one at a time, through the
        # command that reads it: each run exits 0 or ends in one error line
        # naming a file
        ds, run = tmp_path / "ds", tmp_path / "run"
        train = ["--init-features", 2, "--max-epochs", 2, "--patience", 1, "--folds", 2, "--seed", 3]
        for step in (
            ["generate", "--out", ds, "--days", 2, "--holdout-days", 1, "--height", 64, "--width", 64,
             "--numeric-channels", 3, "--categories", 2, "--target-fire-rate", 0.02, "--seed", 3],
            ["prepare", "--data", ds, "--out", ds, "--tr", 1, "--seed", 3],
            ["train", "--data", ds, "--out", run, *train],
            ["evaluate", "--data", ds, "--out", run, run / "best.unc"],
        ):
            assert _main_quietly(step) == (0, []), step[0]
        shutil.copytree(run, tmp_path / "predicted")
        (t, _), (h,) = F.read_splits(ds / "splits.json")
        prepare = ["prepare", "--data", ds, "--out", tmp_path / "prepared", "--tr", 1, "--seed", 3]
        train = ["train", "--data", ds, "--out", tmp_path / "trained", *train]
        evaluate = ["evaluate", "--data", ds, "--out", tmp_path / "evaluated", run / "best.unc"]
        predict = ["predict", "--data", ds, "--out", tmp_path / "predicted", run / "best.unc", h]
        every_byte = lambda path: range(path.stat().st_size)  # noqa: E731
        sweep = [
            (prepare, ds / "schema.json", every_byte), (prepare, ds / "splits.json", every_byte),
            (prepare, ds / "raw" / f"{t}.fsk", _header_bytes),
            (prepare, ds / "raw" / f"{t}.msk", _header_bytes),
            (train, ds / "train_val_tiles.csv", every_byte), (train, ds / "splits.json", every_byte),
            (train, ds / "prepared" / f"{t}.fsk", _header_bytes),
            (train, ds / "prepared" / f"{t}.msk", _header_bytes),
            (evaluate, ds / "holdout_tiles.csv", every_byte), (evaluate, ds / "splits.json", every_byte),
            (evaluate, run / "best.unc", _header_bytes),
            (evaluate, ds / "prepared" / f"{h}.fsk", _header_bytes),
            (evaluate, ds / "prepared" / f"{h}.msk", _header_bytes),
            (predict, run / "evaluate.json", every_byte),
        ]
        broken, accepted = [], {}
        for args, path, where in sweep:
            clean = path.read_bytes()
            for i in where(path):
                path.write_bytes(clean[:i] + bytes([clean[i] ^ 0x01]) + clean[i + 1 :])
                try:
                    code, err = _main_quietly(args)
                finally:
                    path.write_bytes(clean)
                if code == 0:
                    accepted[args[0], path.name] = accepted.get((args[0], path.name), 0) + 1
                elif code != 1 or len(err) != 1 or not err[0].startswith("error: ") \
                        or str(tmp_path) not in err[0]:
                    broken.append((args[0], path.name, i, code, err))
        assert not broken
        # a raw stack whose header took a flip is refused, its names by schema.json's
        assert ("prepare", f"{t}.fsk") not in accepted, accepted
        # a flipped manifest byte names no other day of the same split here,
        # so a manifest that took a flip would be trained or scored on silently
        assert not {key for key in accepted if key[1].endswith("_tiles.csv")}, accepted

_GENERATE = ["generate", "--days", 2, "--holdout-days", 1, "--height", 64, "--width", 64]


def _sampled_as_holdout(ds, run, tmp_path):
    data = tmp_path / "ds"
    data.mkdir()
    shutil.copy(ds / "train_val_tiles.csv", data / "holdout_tiles.csv")
    return (["evaluate", "--data", data, run / "best.unc"],
            f"{data / 'holdout_tiles.csv'}: manifest carries sampled provenance, not holdout", [])


def _holdout_without_fire(ds, run, tmp_path):
    # every fire pixel of the holdout days relabelled no-fire, the manifest re-tiled to match
    data = tmp_path / "ds"
    shutil.copytree(ds, data)
    days = []
    for day_id in HOLDOUT_DAYS:
        day = F.read_day(data / "prepared", date.fromisoformat(day_id))[0]
        F.write_mask(data / "prepared" / f"{day_id}.msk", np.where(day.mask == D.FIRE, D.NO_FIRE, day.mask))
        days.append(F.read_day(data / "prepared", day.day_id)[0])
    F.write_manifest(data / "holdout_tiles.csv", D.holdout_tileset(days))
    # scores undefined after the last day: its masks stay, as the README says, and no record
    return (["evaluate", "--data", data, run / "best.unc"],
            "holdout metrics undefined (a class is absent from the holdout days)",
            [f"pred_{day_id}.msk" for day_id in HOLDOUT_DAYS])


def _schema_edited(edit, message):
    """A refusal case: prepare on a data directory whose schema.json channels took edit;
    message is formatted with the edited channel entries."""
    def case(ds, run, tmp_path):
        data = tmp_path / "ds"
        data.mkdir()
        doc = json.loads((ds / "schema.json").read_text())
        edit(doc["channels"])
        (data / "schema.json").write_text(json.dumps(doc))
        reason = message.format(*doc["channels"])
        return (["prepare", "--data", data],
                f"{data / 'schema.json'}: unexpected content (ValueError: {reason})", [])
    return case


def _raw_stack_short_of_a_channel(ds, run, tmp_path):
    # the channel-name rule refuses another channel count too, before scaling reads a day
    data = tmp_path / "ds"
    shutil.copytree(ds / "raw", data / "raw")
    for name in ("schema.json", "splits.json"):
        shutil.copy(ds / name, data)
    stack = data / "raw" / f"{HOLDOUT_DAYS[-1]}.fsk"
    names, features = F.read_stack(stack)
    F.write_stack(stack, names[:-1], features[:-1])
    return (["prepare", "--data", data, "--tr", 2],
            f"{stack}: channel names differ from those of {data / 'schema.json'}", [])


# every refusal a user can reach that no other in-process test runs: (ds, run, tmp_path) ->
# (the command's arguments but --out, its one error line, the files it leaves under --out)
REFUSALS = {
    "bad-value": lambda ds, *_: (["train", "--data", ds, "--folds", "x"],
                                 "argument --folds: invalid int value: 'x'", []),
    "categories": lambda *_: ([*_GENERATE, "--categories", 1], "need >= 2 categories and >= 1 day", []),
    "water-fraction": lambda *_: ([*_GENERATE, "--water-fraction", 0.95],
                                  "water_fraction must lie in [0, 0.9)", []),
    "holdout-days": lambda *_: ([*_GENERATE, "--holdout-days", 0],
                                "need at least 1 train-val and 1 holdout day, got 2 and 0", []),
    "seed": lambda ds, *_: (["prepare", "--data", ds, "--seed", -1],
                            "config key seed=-1: must be at least 0", []),
    "threads": lambda ds, run, _: (["predict", "--data", ds, "--threads", 0, run / "best.unc",
                                    HOLDOUT_DAYS[0]], "config key threads=0: must be at least 1", []),
    "fire-buffer": lambda ds, *_: (["train", "--data", ds, "--fire-buffer", "bogus"],
                                   "unknown fire_buffer mode 'bogus'", []),
    "day-id": lambda ds, run, _: (["predict", "--data", ds, run / "best.unc", "2021-13-01"],
                                  "invalid day id '2021-13-01': month must be in 1..12", []),
    "day-named-twice": lambda ds, run, _: (["predict", "--data", ds, run / "best.unc", *HOLDOUT_DAYS[:2],
                                            HOLDOUT_DAYS[0]], f"day {HOLDOUT_DAYS[0]} is named twice", []),
    "numeric-categories": _schema_edited(lambda channels: channels[0].update(categories=["a"]),
                                         "numeric channel {0[name]!r} must not declare categories"),
    "names-twice": _schema_edited(lambda channels: channels[1].update(name=channels[0]["name"]),
                                  "channel names must be unique"),
    "raw-stack-short": _raw_stack_short_of_a_channel,
    "sampled-manifest": _sampled_as_holdout,
    "holdout-undefined": _holdout_without_fire,
}


class TestErrorContract:
    @pytest.mark.parametrize("case", REFUSALS)
    def test_a_refusal_is_one_line_naming_its_input(self, pipeline, tmp_path, case):
        (command, *rest), error, left = REFUSALS[case](*pipeline, tmp_path)
        out = tmp_path / "run"
        assert _main_quietly([command, "--out", out, *rest]) == (1, [f"error: {error}"])
        assert sorted(path.name for path in out.rglob("*")) == left

    @pytest.mark.parametrize("args, message", [
        (["train", "--folds", "x"], "argument --folds: invalid int value: 'x'"),
        (["prepare", "--threshold", "0.5"], "unrecognized arguments: --threshold 0.5"),
        ([], "the following arguments are required: command"),
        (["train", "--fire-buffer", "bogus"], "unknown fire_buffer mode 'bogus'"),
        (["generate"], "unrecognized arguments: --data "),
        (["predict", "best.unc", HOLDOUT_DAYS[0], "--seed", "1"], "unrecognized arguments: --seed 1"),
    ], ids=["bad-value", "unknown-flag", "no-command", "bad-choice", "generate-data", "predict-seed"])
    def test_usage_error_is_one_line(self, pipeline, tmp_path, args, message):
        ds, _ = pipeline
        dirs = ["--data", ds, "--out", tmp_path / "run"] if args else []
        proc = run_cli(*args, *dirs)
        assert proc.returncode == 1
        [error] = proc.stderr.splitlines()
        assert error.startswith("error: ") and message in error
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("tr", ["inf", "nan", "-1"])
    def test_prepare_refuses_a_bad_tile_ratio_before_writing(self, pipeline, tmp_path, tr):
        ds, _ = pipeline
        out = tmp_path / "prepared_ds"
        proc = run_cli("prepare", "--data", ds, "--out", out, "--tr", tr)
        assert proc.returncode == 1
        [error] = proc.stderr.splitlines()
        assert error.startswith(f"error: config key tr={float(tr)}: ")
        assert not (out / "scaling.json").exists() and not (out / "prepared").exists()

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_thread_count_below_one_is_refused_before_writing(self, tmp_path, threads):
        out = tmp_path / "ds"
        proc = run_cli("generate", "--out", out, "--days", "2", "--holdout-days", "1",
                       "--height", "64", "--width", "64", "--threads", threads)
        assert proc.returncode == 1
        [error] = proc.stderr.splitlines()
        assert error == f"error: config key threads={threads}: must be at least 1"
        assert not out.exists()

    def test_stale_holdout_manifest_names_the_file_and_the_first_day(self, pipeline, tmp_path):
        ds, run = pipeline
        data = tmp_path / "ds"
        shutil.copytree(ds, data)
        manifest = data / "holdout_tiles.csv"
        lines = manifest.read_text().splitlines()
        # drop one tile of the second and of the third holdout day
        for day in HOLDOUT_DAYS[1:3]:
            lines.remove(next(line for line in lines if line.startswith(day)))
        manifest.write_text("\n".join(lines) + "\n")
        proc = run_cli("evaluate", "--data", data, "--out", tmp_path / "run", run / "best.unc")
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"error: {manifest}: does not match prepared holdout day 2021-06-10; re-run prepare"
        ]
        assert not (tmp_path / "run" / "holdout.csv").exists()

    @pytest.mark.parametrize("edit", [_offset_off_the_grid, _fire_relabelled,
                                      _moved_to_a_day_without_that_fire],
                             ids=["offset-32-to-33", "fire-to-no-fire", "moved-to-another-day"])
    def test_train_refuses_a_row_its_day_does_not_hold(self, pipeline, tmp_path, capsys, edit):
        data, manifest = _edited_copy(pipeline, tmp_path, "train_val_tiles.csv", edit)
        # the error names the day of the edited row
        day = next(line for line in manifest.read_text().splitlines()
                   if line not in (pipeline[0] / manifest.name).read_text().splitlines())[:10]
        out = tmp_path / "run"
        assert C.main(["train", "--data", str(data), "--out", str(out), "--init-features", "2",
                       "--max-epochs", "2", "--patience", "1", "--folds", "2"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {manifest}: does not match prepared train_val day {day}; re-run prepare"
        ]
        assert not (out / "best.unc").exists()

    def test_train_refuses_a_holdout_day(self, pipeline, tmp_path, capsys):
        # a holdout tile in the sample would leak the holdout into training;
        # it is a land tile of its day, with its class, so only the split
        # tells it apart
        ds, _ = pipeline
        holdout_row = (ds / "holdout_tiles.csv").read_text().splitlines()[1]
        moved = holdout_row.rsplit(",", 1)[0] + ",sampled"
        data, manifest = _edited_copy(pipeline, tmp_path, "train_val_tiles.csv",
                                      lambda data, lines: lines[:-1] + [moved])
        out = tmp_path / "run"
        assert C.main(["train", "--data", str(data), "--out", str(out), "--init-features", "2",
                       "--max-epochs", "2", "--patience", "1", "--folds", "2"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {manifest}: day {HOLDOUT_DAYS[0]} is not a train_val day of {data / 'splits.json'}"
        ]
        assert not (out / "best.unc").exists()

    def test_evaluate_refuses_a_train_day(self, pipeline, tmp_path, capsys):
        # every land tile of a train day, listed as holdout, passes the
        # land-tile check; only the split tells it apart
        ds, run = pipeline
        train_day = F.read_day(ds / "prepared", date(2021, 6, 1))[0]
        rows = [f"{s.day_id.isoformat()},{s.row_off},{s.col_off},{s.tile_class},holdout"
                for s in D.holdout_tileset([train_day]).specs]
        data, manifest = _edited_copy(pipeline, tmp_path, "holdout_tiles.csv",
                                      lambda data, lines: lines + rows)
        out = tmp_path / "run"
        assert C.main(["evaluate", "--data", str(data), "--out", str(out), str(run / "best.unc")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {manifest}: day 2021-06-01 is not a holdout day of {data / 'splits.json'}"
        ]
        assert not (out / "holdout.csv").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda tv, ho: (tv + tv[:1], ho), "day 2021-06-01 is listed twice"),
        (lambda tv, ho: (tv, ho + tv[:1]), "day 2021-06-01 is listed in both train_val and holdout"),
        (lambda tv, ho: (tv, []), "holdout lists no day"),
    ], ids=["twice", "in-both", "empty"])
    def test_prepare_refuses_overlapping_splits(self, pipeline, tmp_path, capsys, edit, message):
        # a day in both lists would be trained on and then scored as holdout
        ds, _ = pipeline
        data = tmp_path / "ds"
        shutil.copytree(ds / "raw", data / "raw")
        shutil.copy(ds / "schema.json", data)
        splits = data / "splits.json"
        F.write_splits(splits, *edit(*F.read_splits(ds / "splits.json")))
        assert C.main(["prepare", "--data", str(data), "--out", str(data), "--tr", "2"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {splits}: {message}"]
        assert not (data / "scaling.json").exists()

    def test_prepare_refuses_a_category_declared_twice(self, pipeline, tmp_path, capsys):
        ds, _ = pipeline
        data = tmp_path / "ds"
        shutil.copytree(ds / "raw", data / "raw")
        shutil.copy(ds / "splits.json", data)
        doc = json.loads((ds / "schema.json").read_text())
        (channel,) = [c for c in doc["channels"] if c["kind"] == "categorical"]
        assert channel["categories"] == ["lc0", "lc1", "lc2", "lc3"]
        channel["categories"] = ["lc0", "lc1", "lc1", "lc3"]
        schema = data / "schema.json"
        schema.write_text(json.dumps(doc))
        assert C.main(["prepare", "--data", str(data), "--out", str(data), "--tr", "2"]) == 1
        [error] = capsys.readouterr().err.splitlines()
        assert error.startswith(f"error: {schema}: ") and "'lc1' twice" in error
        assert not (data / "scaling.json").exists()

    def test_missing_data_dir_is_one_line_error(self, tmp_path):
        assert _main_quietly(["prepare", "--data", tmp_path / "nope", "--out", tmp_path]) == (
            1, [f"error: data directory {tmp_path / 'nope'} does not exist"])

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

    @pytest.mark.parametrize("offset, patch", [
        (32, bytes([4 ^ 0x10])),  # the first tensor's rank, flipped from 4 to 20
        (36, struct.pack("<4I", *[65536] * 4)),  # its dims, whose numpy product wraps to 0
    ], ids=["rank-flip", "huge-dims"])
    def test_first_tensor_header_names_the_file(self, pipeline, tmp_path, capsys, offset, patch):
        ds, run = pipeline
        bad = tmp_path / "bad.unc"
        raw = bytearray((run / "best.unc").read_bytes())
        assert raw[32] == 4  # a weight's rank
        raw[offset : offset + len(patch)] = patch
        bad.write_bytes(bytes(raw))
        assert C.main(["evaluate", "--data", str(ds), "--out", str(tmp_path), str(bad)]) == 1
        [error] = capsys.readouterr().err.splitlines()
        assert error.startswith(f"error: {bad}: ")

    def test_non_finite_checkpoint_names_the_file(self, pipeline, tmp_path):
        ds, run = pipeline
        bad = tmp_path / "nan.unc"
        raw = bytearray((run / "best.unc").read_bytes())
        raw[-4:] = struct.pack("<f", float("nan"))  # the last value of the last tensor
        bad.write_bytes(bytes(raw))
        code, err = _main_quietly(["evaluate", "--data", ds, "--out", tmp_path, bad])
        assert code == 1 and len(err) == 1
        assert err[0].startswith(f"error: {bad}: tensor ") and "non-finite" in err[0]
        assert not (tmp_path / "holdout.csv").exists()

    @pytest.mark.parametrize("days, holdout_days", [(6, -2), (6, 0), (-2, 6), (0, 2)])
    def test_generate_refuses_an_empty_split(self, tmp_path, days, holdout_days):
        proc = run_cli("generate", "--out", tmp_path, "--days", days, "--holdout-days",
                       holdout_days, "--height", "64", "--width", "64")
        assert proc.returncode == 1
        errors = proc.stderr.strip().splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: ")
        assert not (tmp_path / "raw").exists()

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

    def test_predict_refuses_a_missing_day_before_writing(self, pipeline, tmp_path):
        ds, run = pipeline
        proc = run_cli("predict", "--data", ds, "--out", tmp_path, run / "best.unc",
                       HOLDOUT_DAYS[0], "2030-01-01")
        assert proc.returncode == 1
        [error] = proc.stderr.splitlines()
        assert error == f"error: prepared day {ds / 'prepared' / '2030-01-01.fsk'} does not exist"
        assert list(tmp_path.glob("pred_*")) == []

    @pytest.mark.parametrize("suffix, edit, message", [
        (".fsk", lambda raw: raw[:-1], "truncated file while reading float payload"),
        (".msk", lambda raw: raw + b"z", "trailing bytes after payload"),
    ], ids=["truncated-stack", "overlong-mask"])
    def test_predict_refuses_a_corrupt_later_day_before_writing(self, pipeline, tmp_path,
                                                                 suffix, edit, message):
        ds, run = pipeline
        data = tmp_path / "ds"
        shutil.copytree(ds / "prepared", data / "prepared")
        bad = data / "prepared" / (HOLDOUT_DAYS[1] + suffix)
        bad.write_bytes(edit(bad.read_bytes()))
        out = tmp_path / "run"
        proc = run_cli("predict", "--data", data, "--out", out, run / "best.unc", *HOLDOUT_DAYS[:2])
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: {bad}: {message}"]
        assert list(out.glob("pred_*")) == []

    @pytest.mark.parametrize("spoil", ["truncated-stack", "renamed-stack", "mask-off-grid"])
    def test_train_refuses_a_bad_last_day_before_reading_any(self, pipeline, tmp_path, monkeypatch,
                                                             spoil):
        # train checks the headers of every day its manifest names before it
        # reads the payload of the first
        ds, _ = pipeline
        data = tmp_path / "ds"
        shutil.copytree(ds, data)
        days = sorted({spec.day_id for spec in F.read_manifest(data / "train_val_tiles.csv").specs})
        (first, _), (stack, mask) = (F.day_paths(data / "prepared", day) for day in (days[0], days[-1]))
        if spoil == "truncated-stack":
            stack.write_bytes(stack.read_bytes()[:-1])
            message = f"{stack}: truncated file while reading float payload"
        elif spoil == "renamed-stack":
            names, features = F.read_stack(stack)
            F.write_stack(stack, [names[0] + "x", *names[1:]], features)
            message = f"{stack}: channel names differ from those of {first}"
        else:
            F.write_mask(mask, np.zeros((64, 32), np.uint8))
            message = f"{mask}: mask (64, 32) does not match feature grid (64, 64)"
        reads = []
        read_day = F.read_day
        monkeypatch.setattr(F, "read_day", lambda *a: reads.append(a) or read_day(*a))
        out = tmp_path / "run"
        assert _main_quietly(["train", "--data", data, "--out", out, "--init-features", 2,
                              "--max-epochs", 2, "--patience", 1, "--folds", 2]) == (1, [f"error: {message}"])
        assert reads == [] and list(out.glob("*")) == []

    def test_a_checkpoint_under_a_comma_path_scores_to_the_same_bytes(self, pipeline, tmp_path):
        # no output names a path, so where the checkpoint lives changes no byte
        ds, run = pipeline
        out = tmp_path / "a,b"
        out.mkdir()
        shutil.copy(run / "best.unc", out / "best.unc")
        assert _main_quietly(["evaluate", "--data", ds, "--out", out, out / "best.unc"]) == (0, [])
        for name in ["holdout.csv", "evaluate.json"]:
            assert (out / name).read_bytes() == (run / name).read_bytes(), name

    def test_invalid_day_id(self, pipeline, tmp_path):
        # a real checkpoint, so the day ids are what predict refuses
        ds, run = pipeline
        out = tmp_path / "run"
        for arg, reason in [("not-a-date", "Invalid isoformat string"),
                            ("2021-13-01", "month must be in 1..12")]:
            code, err = _main_quietly(["predict", "--data", ds, "--out", out, run / "best.unc",
                                       HOLDOUT_DAYS[0], arg])
            assert code == 1 and len(err) == 1, err
            assert err[0].startswith(f"error: invalid day id '{arg}': ") and reason in err[0]
        assert list(out.glob("*")) == []

    def test_evaluate_refuses_a_holdout_day_its_manifest_leaves_out(self, pipeline, tmp_path, capsys):
        # evaluate scores every holdout day of splits.json, not only the days
        # its manifest names, so a day whose rows are gone is not skipped
        _, run = pipeline
        left_out = HOLDOUT_DAYS[1]
        data, manifest = _edited_copy(pipeline, tmp_path, "holdout_tiles.csv",
                                      lambda data, lines: [x for x in lines if not x.startswith(left_out)])
        out = tmp_path / "run"
        assert C.main(["evaluate", "--data", str(data), "--out", str(out), str(run / "best.unc")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {manifest}: does not match prepared holdout day {left_out}; re-run prepare"
        ]
        assert not (out / "holdout.csv").exists()

    def test_a_holdout_day_without_land_needs_no_rows(self, pipeline, tmp_path):
        _, run = pipeline
        water = HOLDOUT_DAYS[1]
        data, _ = _edited_copy(pipeline, tmp_path, "holdout_tiles.csv",
                               lambda data, lines: [x for x in lines if not x.startswith(water)])
        F.write_mask(data / "prepared" / f"{water}.msk", np.full((64, 64), D.WATER, np.uint8))
        out = tmp_path / "run"
        assert _main_quietly(["evaluate", "--data", data, "--out", out, run / "best.unc"]) == (0, [])
        [(_, days, tiles, *_)] = [r.split(",") for r in (out / "holdout.csv").read_text().splitlines()[1:]]
        assert days == "2021-06-09..2021-06-12"
        assert int(tiles) == len(F.read_manifest(data / "holdout_tiles.csv").specs) == 12

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_a_mask_off_its_stacks_grid_names_the_mask(self, pipeline, tmp_path, capsys, command):
        ds, run = pipeline
        data = tmp_path / "ds"
        shutil.copytree(ds, data)
        mask = data / "prepared" / f"{HOLDOUT_DAYS[0]}.msk"
        F.write_mask(mask, np.zeros((64, 32), np.uint8))
        out = tmp_path / "run"
        days = HOLDOUT_DAYS if command == "predict" else []
        assert C.main([command, "--data", str(data), "--out", str(out), str(run / "best.unc"), *days]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {mask}: mask (64, 32) does not match feature grid (64, 64)"
        ]
        assert list(out.glob("pred_*")) == [] and not (out / "holdout.csv").exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_a_checkpoint_of_other_input_channels_names_both_files(self, pipeline, tmp_path,
                                                                   capsys, command):
        ds, _ = pipeline
        checkpoint = tmp_path / "five.unc"
        F.write_checkpoint(checkpoint, U.init_params(U.UNetConfig(in_channels=5, init_features=2)))
        out = tmp_path / "run"
        days = HOLDOUT_DAYS if command == "predict" else []
        assert C.main([command, "--data", str(ds), "--out", str(out), str(checkpoint), *days]) == 1
        stack = ds / "prepared" / f"{HOLDOUT_DAYS[0]}.fsk"
        assert capsys.readouterr().err.splitlines() == [
            f"error: {checkpoint}: checkpoint takes 5 input channels, {stack} holds 12"
        ]
        assert list(out.glob("pred_*")) == [] and not (out / "holdout.csv").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
    def test_a_stack_whose_channel_names_differ_names_both_stacks(self, pipeline, tmp_path,
                                                                  capsys, command):
        ds, run = pipeline
        data = tmp_path / "ds"
        shutil.copytree(ds, data)
        if command == "train":  # train reads its days in the order of their first manifest row
            specs = F.read_manifest(data / "train_val_tiles.csv").specs
            read = list(dict.fromkeys(spec.day_id for spec in specs))
        else:
            read = [date.fromisoformat(day) for day in HOLDOUT_DAYS]
        first, renamed = (data / "prepared" / f"{read[i].isoformat()}.fsk" for i in (0, -1))
        names, features = F.read_stack(renamed)
        F.write_stack(renamed, [names[0] + "x", *names[1:]], features)
        out = tmp_path / "run"
        args = {"train": ["--folds", "2", "--max-epochs", "2", "--patience", "1"],
                "evaluate": [str(run / "best.unc")],
                "predict": [str(run / "best.unc"), *HOLDOUT_DAYS]}[command]
        assert C.main([command, "--data", str(data), "--out", str(out), *args]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {renamed}: channel names differ from those of {first}"
        ]
        # evaluate, like predict, checks every day's names before it writes a mask
        assert list(out.glob("*")) == []

    def test_prepare_refuses_a_raw_stack_named_off_the_schema(self, pipeline, tmp_path, capsys):
        ds, _ = pipeline
        data = tmp_path / "ds"
        shutil.copytree(ds / "raw", data / "raw")
        for name in ("schema.json", "splits.json"):
            shutil.copy(ds / name, data)
        renamed = data / "raw" / f"{HOLDOUT_DAYS[-1]}.fsk"  # the last day prepare reads
        names, features = F.read_stack(renamed)
        F.write_stack(renamed, [*names[:-1], names[-1] + "x"], features)
        out = tmp_path / "prepared_ds"
        assert C.main(["prepare", "--data", str(data), "--out", str(out), "--tr", "2"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {renamed}: channel names differ from those of {data / 'schema.json'}"
        ]
        assert list(out.rglob("*")) == []

    def test_a_setting_too_large_to_allocate_is_one_line(self, tmp_path):
        # 10^7 x 10^7 float64 planes: numpy refuses the allocation at once
        out = tmp_path / "ds"
        proc = run_cli("generate", "--out", out, "--height", 10_000_000, "--width", 10_000_000,
                       "--days", 1, "--holdout-days", 1)
        assert proc.returncode == 1
        [error] = proc.stderr.splitlines()
        assert error.startswith("error: out of memory: ") and "TiB" in error
        assert not out.exists()

    def test_a_warning_is_one_line(self, tmp_path):
        ds = tmp_path / "ds"
        assert _main_quietly(["generate", "--out", ds, "--days", 4, "--holdout-days", 2,
                              "--height", 64, "--width", 64, "--seed", 3]) == (0, [])
        proc = run_cli("prepare", "--data", ds, "--out", ds, "--tr", 40, "--seed", 3)
        assert proc.returncode == 0, proc.stderr
        [warning] = proc.stderr.splitlines()
        assert re.fullmatch(r"warning: requested \d+ no-fire tiles but only \d+ exist; keeping all",
                            warning)

    @pytest.mark.parametrize("setting, message", [
        (["--folds", "40"], "fire-bearing by-tile groups for k=40 folds"),
        (["--init-features", "0"], "init_features must be at least 1"),
        (["--tr", "-3"], "config key tr=-3.0: the tile ratio must be finite and non-negative"),
        (["--grouping", "bogus"], "unknown grouping 'bogus'"),
        (["--threshold", "2"], "threshold must be a probability"),
        # kfold_split and apply_fire_buffer take these values only through TrainConfig
        (["--folds", "1"], "need at least 2 folds"),
        (["--buffer-radius", "-1"], "invalid lr / batch_size / buffer_radius"),
    ], ids=["folds", "init-features", "tr", "grouping", "threshold", "one-fold", "buffer-radius"])
    def test_bad_training_settings_fail_before_any_day_is_read(self, pipeline, tmp_path, monkeypatch,
                                                               setting, message):
        ds, _ = pipeline
        reads = []
        read_day = F.read_day
        monkeypatch.setattr(F, "read_day", lambda *a: reads.append(a) or read_day(*a))
        out = tmp_path / "run"
        code, err = _main_quietly(["train", "--data", ds, "--out", out, "--max-epochs", 2,
                                   "--patience", 1, *setting])
        assert code == 1 and len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert reads == []
        assert not (out / "validation.csv").exists()
