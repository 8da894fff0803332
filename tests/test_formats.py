import hashlib
import json
import re
import threading
import tracemalloc
from datetime import date

import numpy as np
import pytest
from oracles import read_checkpoint_metrics, read_ppm, render_panels_masks

from fireseg import data as D
from fireseg import formats as F
from fireseg.synthetic import PlantedRule, SynthConfig, generate_dataset
from fireseg.unet import UNetConfig, init_params


def _traced_peak(read):
    """read()'s result and the peak of the memory it allocated (tracemalloc)."""
    tracemalloc.start()
    try:
        got = read()
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStackFormat:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        names = ["weather_00", "terrain_01", "landcover"]
        feats = rng.standard_normal((3, 5, 7)).astype(np.float32)
        path = tmp_path / "day.fsk"
        F.write_stack(path, names, feats)
        names2, feats2 = F.read_stack(path)
        assert names2 == names
        assert feats2.dtype == np.float32
        assert np.array_equal(feats2, feats)

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "x.fsk"
        F.write_stack(path, ["a"], np.zeros((1, 2, 2), np.float32))
        assert [p.name for p in tmp_path.iterdir()] == ["x.fsk"]

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        path = tmp_path / "x.fsk"
        F.write_stack(path, ["a"], np.zeros((1, 2, 2), np.float32))
        F.write_stack(path, ["a"], np.ones((1, 2, 2), np.float32))
        _, feats = F.read_stack(path)
        assert feats.max() == 1.0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.fsk"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(F.FormatError, match="magic"):
            F.read_stack(path)

    def test_a_file_that_shrank_since_its_size_check_is_refused(self, tmp_path):
        # a reader checks the payload size first; a file cut after that check still fails
        path = tmp_path / "x.fsk"
        path.write_bytes(bytes(7))
        with open(path, "rb") as f, pytest.raises(F.FormatError, match="truncated file while reading x"):
            F._read_array(f, (2,), "<f4", "x")

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "x.fsk"
        F.write_stack(path, ["a"], np.zeros((1, 4, 4), np.float32))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(F.FormatError, match="truncated"):
            F.read_stack(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "x.fsk"
        F.write_stack(path, ["a"], np.zeros((1, 2, 2), np.float32))
        path.write_bytes(path.read_bytes() + b"z")
        with pytest.raises(F.FormatError, match="trailing"):
            F.read_stack(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "x.fsk"
        bad = np.zeros((1, 2, 2), np.float32)
        bad[0, 0, 0] = np.nan
        # bypass the writer guard by writing raw bytes
        import struct

        payload = F.MAGIC_STACK + struct.pack("<III", 1, 2, 2)
        payload += struct.pack("<I", 1) + b"a" + bad.tobytes()
        path.write_bytes(payload)
        with pytest.raises(F.FormatError, match="non-finite"):
            F.read_stack(path)

    def test_huge_dimensions_rejected_before_allocating(self, tmp_path):
        import struct

        path = tmp_path / "x.fsk"
        header = F.MAGIC_STACK + struct.pack("<III", 1, 1 << 20, 1 << 20)
        path.write_bytes(header + struct.pack("<I", 1) + b"a")
        with pytest.raises(F.FormatError, match="truncated"):
            F.read_stack(path)

    def test_non_utf8_channel_name_names_the_file(self, tmp_path):
        day = date(2021, 6, 1)
        F.write_day(tmp_path, D.GridDay(day, np.zeros((1, 2, 2), np.float32),
                                        np.zeros((2, 2), np.uint8)), ["a"])
        path, _ = F.day_paths(tmp_path, day)
        raw = bytearray(path.read_bytes())
        assert raw[16:21] == b"\x01\x00\x00\x00a"  # the name's length, then its one byte
        raw[20] = 0xFF  # never valid UTF-8
        path.write_bytes(bytes(raw))
        for read in (lambda: F.read_stack(path), lambda: F.check_day(tmp_path, day),
                     lambda: F.read_day(tmp_path, day)):
            with pytest.raises(F.FormatError) as info:
                read()
            assert str(info.value) == f"{path}: channel name is not UTF-8"

    def test_zero_channels_rejected(self, tmp_path):
        import struct

        path = tmp_path / "x.fsk"
        path.write_bytes(F.MAGIC_STACK + struct.pack("<III", 0, 1 << 20, 1 << 20))
        with pytest.raises(F.FormatError, match="zero channels"):
            F.read_stack(path)


class TestAtomicWrite:
    def test_concurrent_writers_of_one_path_do_not_collide(self, tmp_path, monkeypatch):
        # a second thread writes the same path (predict --threads 2 D D) and
        # finishes between this write's temp file and its rename
        path = tmp_path / "day.msk"
        real_replace = F.os.replace
        first = threading.current_thread()
        renamed = []

        def replace(src, dst):
            if threading.current_thread() is first:
                other = threading.Thread(target=F.atomic_write_bytes, args=(path, b"second"))
                other.start()
                other.join(timeout=30)
                assert not other.is_alive()
            real_replace(src, dst)
            renamed.append(src)

        monkeypatch.setattr(F.os, "replace", replace)
        F.atomic_write_bytes(path, b"first")
        assert path.read_bytes() == b"first"
        assert len(set(renamed)) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["day.msk"]

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def replace(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr(F.os, "replace", replace)
        with pytest.raises(OSError, match="disk went away"):
            F.atomic_write_bytes(tmp_path / "x.fsk", b"payload")
        assert list(tmp_path.iterdir()) == []

    def test_file_mode_follows_umask(self, tmp_path):
        path = tmp_path / "x.json"
        F.atomic_write_text(path, "{}\n")
        plain = tmp_path / "plain"
        plain.write_text("{}\n")
        assert path.stat().st_mode == plain.stat().st_mode


class TestMaskFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        mask = rng.integers(0, 3, (9, 6)).astype(np.uint8)
        path = tmp_path / "m.msk"
        F.write_mask(path, mask)
        assert np.array_equal(F.read_mask(path), mask)

    def test_out_of_range_values_rejected(self, tmp_path):
        with pytest.raises(F.FormatError):
            F.write_mask(tmp_path / "m.msk", np.full((2, 2), 7, np.uint8))

    def test_huge_dimensions_rejected_before_allocating(self, tmp_path):
        import struct

        path = tmp_path / "m.msk"
        path.write_bytes(F.MAGIC_MASK + struct.pack("<II", 1 << 20, 1 << 20))
        with pytest.raises(F.FormatError, match="truncated"):
            F.read_mask(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.msk"
        F.write_mask(path, np.zeros((2, 2), np.uint8))
        path.write_bytes(path.read_bytes() + b"z")
        with pytest.raises(F.FormatError, match="trailing"):
            F.read_mask(path)


class TestCheckDay:
    def write(self, tmp_path):
        day = D.GridDay(date(2021, 6, 1), np.zeros((2, 3, 4), np.float32), np.zeros((3, 4), np.uint8))
        F.write_day(tmp_path, day, ["a", "b"])
        return F.day_paths(tmp_path, day.day_id)

    def test_whole_day_passes_and_no_payload_is_judged(self, tmp_path):
        stack, _ = self.write(tmp_path)
        raw = bytearray(stack.read_bytes())
        raw[-4:] = np.float32(np.nan).tobytes()  # only read_day looks at the values
        stack.write_bytes(bytes(raw))
        F.check_day(tmp_path, date(2021, 6, 1))
        with pytest.raises(F.FormatError, match="non-finite"):
            F.read_day(tmp_path, date(2021, 6, 1))

    def test_read_day_names_a_mask_off_its_stacks_grid(self, tmp_path):
        # 32x128 pixels are as many bytes as the stack's 64x64 grid: only the grids differ
        day = D.GridDay(date(2021, 6, 1), np.zeros((2, 64, 64), np.float32), np.zeros((64, 64), np.uint8))
        F.write_day(tmp_path, day, ["a", "b"])
        _, mask = F.day_paths(tmp_path, day.day_id)
        F.write_mask(mask, np.zeros((32, 128), np.uint8))
        with pytest.raises(F.FormatError) as caught:
            F.read_day(tmp_path, day.day_id)
        assert str(caught.value) == f"{mask}: mask (32, 128) does not match feature grid (64, 64)"

    def test_read_day_scans_the_features_once(self, tmp_path, monkeypatch):
        self.write(tmp_path)
        scanned = []
        isfinite = np.isfinite

        def counting(x, *args, **kwargs):
            scanned.append(np.shape(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        F.read_day(tmp_path, date(2021, 6, 1))
        assert scanned == [(3, 4), (3, 4)]  # each channel's plane once

    def test_read_day_holds_the_payload_once(self, tmp_path):
        rng = np.random.default_rng(0)
        day = D.GridDay(date(2021, 6, 1), rng.random((9, 96, 96), dtype=np.float32),
                        rng.integers(0, 3, (96, 96), dtype=np.uint8))
        F.write_day(tmp_path, day, [f"c{i}" for i in range(9)])
        (got, _), peak = _traced_peak(lambda: F.read_day(tmp_path, day.day_id))
        assert np.array_equal(got.features, day.features) and np.array_equal(got.mask, day.mask)
        assert peak <= 1.2 * (day.features.nbytes + day.mask.nbytes), peak

    def test_write_day_copies_no_payload(self, tmp_path):
        # the writers pass each array's buffer to the file as it is
        rng = np.random.default_rng(0)
        day = D.GridDay(date(2021, 6, 1), rng.random((9, 96, 96), dtype=np.float32),
                        rng.integers(0, 3, (96, 96), dtype=np.uint8))
        names = [f"c{i}" for i in range(9)]
        _, peak = _traced_peak(lambda: F.write_day(tmp_path, day, names))
        got, _ = F.read_day(tmp_path, day.day_id)
        assert np.array_equal(got.features, day.features) and np.array_equal(got.mask, day.mask)
        assert peak <= 0.2 * (day.features.nbytes + day.mask.nbytes), peak

    def test_read_mask_holds_the_payload_once(self, tmp_path):
        mask = np.random.default_rng(0).integers(0, 3, (256, 256), dtype=np.uint8)
        F.write_mask(tmp_path / "m.msk", mask)
        got, peak = _traced_peak(lambda: F.read_mask(tmp_path / "m.msk"))
        assert np.array_equal(got, mask)
        assert peak <= 1.2 * mask.nbytes, peak

    def test_read_checkpoint_holds_the_parameters_once(self, tmp_path):
        params = init_params(UNetConfig(in_channels=12, init_features=8, seed=0))
        F.write_checkpoint(tmp_path / "net.unc", params)
        got, peak = _traced_peak(lambda: F.read_checkpoint(tmp_path / "net.unc"))
        assert all(np.array_equal(a, b) for a, b in zip(got.tensors(), params.tensors()))
        assert peak <= 1.2 * sum(t.nbytes for t in params.tensors()), peak

    def test_non_finite_read_day_error_names_only_the_stack(self, tmp_path):
        stack, _ = self.write(tmp_path)
        raw = bytearray(stack.read_bytes())
        raw[-4:] = np.float32(np.inf).tobytes()
        stack.write_bytes(bytes(raw))
        with pytest.raises(F.FormatError) as info:
            F.read_day(tmp_path, date(2021, 6, 1))
        assert str(info.value) == f"{stack}: stack contains non-finite values"

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw[:-1], "truncated file while reading"),
        (lambda raw: raw + b"z", "trailing bytes after payload"),
        (lambda raw: raw[:6], "truncated file while reading dimensions"),
        (lambda raw: b"NOPE" + raw[4:], "bad magic"),
    ], ids=["truncated", "trailing", "short-header", "magic"])
    def test_bad_file_named(self, tmp_path, which, edit, message):
        path = self.write(tmp_path)[which]
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(F.FormatError, match=message) as caught:
            F.check_day(tmp_path, date(2021, 6, 1))
        assert str(caught.value).startswith(f"{path}: ")


class TestManifest:
    def test_round_trip(self, tmp_path):
        specs = (
            D.TileSpec(date(2021, 6, 1), 0, 0, D.FIRE_TILE),
            D.TileSpec(date(2021, 6, 1), 0, 32, D.NO_FIRE_TILE),
            D.TileSpec(date(2021, 6, 2), 32, 0, D.NO_FIRE_TILE),
        )
        ts = D.TileSet(specs, D.SAMPLED)
        path = tmp_path / "tiles.csv"
        F.write_manifest(path, ts)
        assert F.read_manifest(path) == ts

    def test_header_checked(self, tmp_path):
        path = tmp_path / "tiles.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(F.FormatError, match="header"):
            F.read_manifest(path)

    def test_a_manifest_without_rows_says_so(self, tmp_path):
        path = tmp_path / "tiles.csv"
        path.write_text("day_id,row_off,col_off,tile_class,provenance\n")
        with pytest.raises(F.FormatError) as info:
            F.read_manifest(path)
        assert str(info.value) == f"{path}: manifest lists no tile"

    def test_mixed_provenance_rejected(self, tmp_path):
        path = tmp_path / "tiles.csv"
        path.write_text(
            "day_id,row_off,col_off,tile_class,provenance\n"
            "2021-06-01,0,0,fire,sampled\n"
            "2021-06-01,0,32,no-fire,holdout\n"
        )
        with pytest.raises(F.FormatError, match="provenance"):
            F.read_manifest(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "tiles.csv"
        path.write_text(
            "day_id,row_off,col_off,tile_class,provenance\n"
            "2021-06-01,0,0,fire,sampled\n"
            "2021-06-01,0,32,no-fire\n"
        )
        with pytest.raises(F.FormatError, match="line 3"):
            F.read_manifest(path)

    @pytest.mark.parametrize(
        "row",
        ["2021-06-01,x,0,fire,sampled", "2021-06-01,0,3.5,fire,sampled", "2021-6-1,0,0,fire,sampled",
         "2021-06-01,-32,0,fire,sampled", "2021-06-01,0,0,smoke,sampled"],
    )
    def test_bad_field_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "tiles.csv"
        header = "day_id,row_off,col_off,tile_class,provenance"
        path.write_text(f"{header}\n2021-06-01,0,32,no-fire,sampled\n{row}\n")
        with pytest.raises(F.FormatError, match=r"tiles\.csv: line 3: "):
            F.read_manifest(path)

    def test_a_tile_listed_twice_names_file_and_line(self, tmp_path):
        # a repeated train row would weigh its tile twice in training
        path = tmp_path / "tiles.csv"
        path.write_text(
            "day_id,row_off,col_off,tile_class,provenance\n"
            "2021-06-01,0,0,fire,sampled\n"
            "2021-06-01,0,32,no-fire,sampled\n"
            "2021-06-01,0,0,fire,sampled\n"
        )
        with pytest.raises(F.FormatError) as caught:
            F.read_manifest(path)
        assert str(caught.value) == f"{path}: line 4: tile listed twice"

    def test_unknown_provenance_names_file(self, tmp_path):
        path = tmp_path / "tiles.csv"
        path.write_text("day_id,row_off,col_off,tile_class,provenance\n2021-06-01,0,0,fire,guessed\n")
        with pytest.raises(F.FormatError, match=r"tiles\.csv: unknown provenance"):
            F.read_manifest(path)

    def test_carriage_return_inside_a_field_rejected(self, tmp_path):
        path = tmp_path / "tiles.csv"
        path.write_bytes(
            b"day_id,row_off,col_off,tile_class,provenance\n"
            b"2021-06-01,0,0,fi\rre,sampled\n"
        )
        with pytest.raises(F.FormatError, match="line"):
            F.read_manifest(path)


class TestWriteCsv:
    def test_plain_cells_keep_their_bytes(self, tmp_path):
        path = tmp_path / "table.csv"
        F.write_csv(path, ["day_id", "tile_class"], [["2021-06-01", "no-fire"], ["", "0.5"]])
        assert path.read_bytes() == b"day_id,tile_class\n2021-06-01,no-fire\n,0.5\n"


class TestCheckpoint:
    def test_round_trip_bitwise_with_sidecar(self, tmp_path):
        params = init_params(UNetConfig(in_channels=5, init_features=2, seed=77))
        path = tmp_path / "net.unc"
        metrics = {"fold": 1, "epoch": 12, "sensitivity": 0.875, "specificity": 0.75,
                   "sh1": 1.625, "sh2": 2.5}
        F.write_checkpoint(path, params, metrics)
        back = F.read_checkpoint(path)
        assert back.config == params.config
        for a, b in zip(back.tensors(), params.tensors()):
            assert np.array_equal(a, b)
        assert read_checkpoint_metrics(path) == metrics

    def test_header_only_metrics_sidecar_names_the_file(self, tmp_path):
        path = tmp_path / "net.unc"
        F.write_checkpoint(path, init_params(UNetConfig(in_channels=3, init_features=2, seed=0)),
                           {"fold": 0, "epoch": 1})
        sidecar = F.checkpoint_metrics_path(path)
        sidecar.write_text("fold,epoch\n")
        with pytest.raises(F.FormatError, match=re.escape(str(sidecar))):
            read_checkpoint_metrics(path)

    def test_corrupt_tensor_shapes_rejected(self, tmp_path):
        params = init_params(UNetConfig(in_channels=3, init_features=2, seed=0))
        path = tmp_path / "net.unc"
        F.write_checkpoint(path, params)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")  # claim 99 input channels
        path.write_bytes(bytes(raw))
        with pytest.raises(Exception):
            F.read_checkpoint(path)

    @pytest.mark.parametrize("offset", [12, 16])  # the depth field, then the class count
    def test_other_depth_or_class_count_rejected(self, tmp_path, offset):
        params = init_params(UNetConfig(in_channels=3, init_features=2, seed=0))
        path = tmp_path / "net.unc"
        F.write_checkpoint(path, params)
        raw = bytearray(path.read_bytes())
        raw[offset : offset + 4] = (3).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(F.FormatError) as exc:
            F.read_checkpoint(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("offset", [4, 8])  # in_channels, then init_features
    def test_zero_channel_or_feature_count_names_the_file(self, tmp_path, offset):
        params = init_params(UNetConfig(in_channels=3, init_features=2, seed=0))
        path = tmp_path / "net.unc"
        F.write_checkpoint(path, params)
        raw = bytearray(path.read_bytes())
        raw[offset : offset + 4] = bytes(4)
        path.write_bytes(bytes(raw))
        with pytest.raises(F.FormatError) as exc:
            F.read_checkpoint(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_huge_tensor_shape_rejected_before_allocating(self, tmp_path):
        params = init_params(UNetConfig(in_channels=3, init_features=2, seed=0))
        path = tmp_path / "net.unc"
        F.write_checkpoint(path, params)
        raw = bytearray(path.read_bytes())
        # first tensor: rank at byte 32, then its dims; claim 2^20 x 2^20 x kh x kw
        raw[36:44] = (1 << 20).to_bytes(4, "little") * 2
        path.write_bytes(bytes(raw))

        def refused():
            with pytest.raises(F.FormatError, match=r"tensor 0 is not in the architecture's shape"):
                F.read_checkpoint(path)

        _, peak = _traced_peak(refused)
        assert peak < len(raw) + (1 << 20), peak  # the claimed tensor would be 36 TiB


class TestJsonSidecars:
    def test_schema_round_trip(self, tmp_path):
        schema = D.FeatureSchema(
            (D.Channel("a"), D.Channel("lc", D.CATEGORICAL, ("x", "y")))
        )
        path = tmp_path / "schema.json"
        F.write_schema(path, schema)
        assert F.read_schema(path) == schema

    def test_scaling_round_trip(self, tmp_path):
        params = D.ScalingParams((0, 2), ("a", "b"), (0.0, -1.5), (1.0, 2.5))
        path = tmp_path / "scaling.json"
        F.write_scaling(path, params)
        assert F.read_scaling(path) == params

    def test_splits_round_trip(self, tmp_path):
        tv = [date(2021, 6, 1), date(2021, 6, 2)]
        ho = [date(2021, 6, 3)]
        path = tmp_path / "splits.json"
        F.write_splits(path, tv, ho)
        assert F.read_splits(path) == (tv, ho)

    def test_rule_round_trip(self, tmp_path):
        rule = PlantedRule(
            channel_a=0, channel_b=2, channel_c=1, coef_a=1.2, coef_b=0.9, coef_c=0.6,
            gain=4.0, bias=17.25, spread_p1=0.35, spread_p2=0.08,
            static_channels=(1, 3), dynamic_channels=(0, 2),
        )
        path = tmp_path / "rule.json"
        F.write_rule(path, rule)
        assert F.read_rule(path) == rule
        # a rule.json from when labels could be the thresholded marginal
        # carries "deterministic_level": null; it reads as the same rule
        path.write_text(json.dumps({**json.loads(path.read_text()), "deterministic_level": None}))
        assert F.read_rule(path) == rule

    def test_generated_sidecar_bytes_are_pinned(self, tmp_path):
        # the digests of the manifests and prepared days do not cover these two files
        _, schema, rule = generate_dataset(SynthConfig(height=64, width=64, days=2, seed=5))
        F.write_schema(tmp_path / "schema.json", schema)
        F.write_rule(tmp_path / "rule.json", rule)
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("schema.json", "rule.json")}
        assert digests == {
            "schema.json": "d40bf0bbce0cdc29cce7e0acf00835d3db4082b1ff3e4f86040a6793458d70c5",
            "rule.json": "d8637eed324951503e351fc2e7342804caa3995b4f6284eedc1a19112e3582b6",
        }

    def test_rule_refuses_a_number_of_the_wrong_kind(self, tmp_path):
        # int() would turn 2.7 into channel 2 and true into a gain of 1.0
        rule = PlantedRule(
            channel_a=0, channel_b=2, channel_c=1, coef_a=1.2, coef_b=0.9, coef_c=0.6,
            gain=4.0, bias=17.25, spread_p1=0.35, spread_p2=0.08,
            static_channels=(1, 3), dynamic_channels=(0, 2),
        )
        path = tmp_path / "rule.json"
        F.write_rule(path, rule)
        valid = json.loads(path.read_text())
        for key, value in (("channel_a", 2.7), ("gain", True), ("static_channels", [1.9, 3])):
            path.write_text(json.dumps({**valid, key: value}))
            with pytest.raises(F.FormatError, match="rule.json"):
                F.read_rule(path)


class TestEvaluateRecord:
    @pytest.mark.parametrize("size", [0, 1, F._DIGEST_CHUNK, 2 * F._DIGEST_CHUNK + 7])
    def test_file_sha256_is_the_sha256_of_the_bytes(self, tmp_path, size):
        path = tmp_path / "blob"
        path.write_bytes(np.random.default_rng(size).integers(0, 256, size, np.uint8).tobytes())
        assert F.file_sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_round_trip_needs_the_same_threshold_and_checkpoint(self, tmp_path):
        path = tmp_path / F.EVALUATE_RECORD
        days = {"2021-06-09": {"pred_2021-06-09.msk": "ab" * 32}}
        F.write_evaluate_record(path, 0.5, "cd" * 32, days)
        assert F.read_evaluate_record(path, 0.5, "cd" * 32) == days
        assert F.read_evaluate_record(path, 0.25, "cd" * 32) == {}
        assert F.read_evaluate_record(path, 0.5, "ef" * 32) == {}

    @pytest.mark.parametrize("payload", [b"", b"\xff\xfe", b"{", b"[]", b"{}", b'{"days": []}', b"null"])
    def test_what_is_not_a_record_is_not_used(self, tmp_path, payload):
        path = tmp_path / F.EVALUATE_RECORD
        path.write_bytes(payload)
        assert F.read_evaluate_record(path, 0.5, "cd" * 32) == {}
        assert F.read_evaluate_record(tmp_path / "missing.json", 0.5, "cd" * 32) == {}


class TestRendering:
    def test_palette_applied(self):
        truth = np.array([[0, 1], [2, 1]], np.uint8)
        pred = np.array([[1, 1], [0, 0]], np.uint8)
        img = F.render_panels(truth, pred)
        assert img.shape == (2, 6, 3)
        # left panel: ground truth colors
        assert tuple(img[0, 0]) == F.PALETTE["no_fire"]
        assert tuple(img[0, 1]) == F.PALETTE["fire"]
        assert tuple(img[1, 0]) == F.PALETTE["water"]
        # two gutter columns
        assert tuple(img[0, 2]) == tuple(img[1, 3]) == F.PALETTE["gutter"]
        # right panel: overlay classes
        assert tuple(img[0, 4]) == F.PALETTE["false_positive"]
        assert tuple(img[0, 5]) == F.PALETTE["fire"]  # true positive
        assert tuple(img[1, 4]) == F.PALETTE["water"]
        assert tuple(img[1, 5]) == F.PALETTE["false_negative"]

    @pytest.mark.parametrize("shape", [(1, 1), (7, 11), (256, 256)])
    def test_table_lookup_matches_the_mask_assignments(self, shape):
        # every (truth, pred) pair appears, on a pred of 0/1 and on one holding
        # other nonzero bytes, which count as fire
        rng = np.random.default_rng(shape[1])
        truth = rng.integers(0, 3, shape).astype(np.uint8)
        for pred in (rng.integers(0, 2, shape).astype(np.uint8),
                     rng.choice(np.array([0, 2, 255], np.uint8), shape)):
            if truth.size > 6:
                assert {(t, p != 0) for t, p in zip(truth.flat, pred.flat)} == {
                    (t, p) for t in range(3) for p in (False, True)}
            img = F.render_panels(truth, pred)
            assert img.dtype == np.uint8
            assert img.tobytes() == render_panels_masks(truth, pred).tobytes()

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (7, 11, 3)).astype(np.uint8)
        path = tmp_path / "img.ppm"
        F.write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)
        header = path.read_bytes()[:15]
        assert header.startswith(b"P6\n11 7\n255\n")
