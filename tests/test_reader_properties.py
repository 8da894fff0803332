"""Property tests of the file readers: a truncated or single-byte-corrupted
file may only fail the way the CLI reports as one `error:` line.

Every reader gets valid bytes from the matching writer, then each example
cuts the file short or XORs one byte. The reader may accept the result (a
flipped float is still a float) or raise one of cli.REPORTED_ERRORS, of
which FormatError is one; MemoryError, IndexError, TypeError, struct.error
and the like break the contract. The binary readers and the manifest
reader are held to more: they may only raise a FormatError that names the
file. Examples are derandomized, so the suite stays deterministic.

The JSON sidecars also get every valid JSON document of the wrong shape
that replacing one value by a value of another type makes: the reader
accepts it or raises a FormatError naming the file.
"""

import json
from datetime import date

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import read_ppm

from fireseg import data as D
from fireseg import formats as F
from fireseg.cli import REPORTED_ERRORS
from fireseg.synthetic import PlantedRule
from fireseg.unet import UNetConfig, init_params

PROPERTY = settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _write_fsk(path):
    feats = np.random.default_rng(0).standard_normal((3, 4, 5)).astype(np.float32)
    F.write_stack(path, ["weather_00", "terrain_01", "landcover"], feats)


def _write_msk(path):
    F.write_mask(path, np.random.default_rng(1).integers(0, 3, (6, 7)).astype(np.uint8))


def _write_unc(path):
    F.write_checkpoint(path, init_params(UNetConfig(in_channels=2, init_features=1, seed=3)))


def _write_manifest(path):
    specs = (
        D.TileSpec(date(2021, 6, 1), 0, 0, D.FIRE_TILE),
        D.TileSpec(date(2021, 6, 1), 0, 32, D.NO_FIRE_TILE),
        D.TileSpec(date(2021, 6, 2), 32, 64, D.NO_FIRE_TILE),
    )
    F.write_manifest(path, D.TileSet(specs, D.SAMPLED))


def _write_schema(path):
    channels = (
        D.Channel("weather_00"),
        D.Channel("landcover", D.CATEGORICAL, ("forest", "grass", "urban")),
        D.Channel("terrain_01"),
    )
    F.write_schema(path, D.FeatureSchema(channels))


def _write_scaling(path):
    F.write_scaling(path, D.ScalingParams((0, 2), ("weather_00", "terrain_01"), (-1.5, 0.0), (2.5, 3.0)))


def _write_splits(path):
    F.write_splits(path, [date(2021, 6, 1), date(2021, 6, 2)], [date(2021, 6, 3)])


def _write_rule(path):
    rule = PlantedRule(
        channel_a=0, channel_b=2, channel_c=1, coef_a=1.2, coef_b=0.9, coef_c=0.6,
        gain=4.0, bias=17.25, spread_p1=0.35, spread_p2=0.08,
        static_channels=(1, 3), dynamic_channels=(0, 2),
    )
    F.write_rule(path, rule)


def _write_ppm(path):
    F.write_ppm(path, np.random.default_rng(2).integers(0, 256, (3, 4, 3)).astype(np.uint8))


JSON_SIDECARS = {
    "schema": (_write_schema, F.read_schema),
    "scaling": (_write_scaling, F.read_scaling),
    "splits": (_write_splits, F.read_splits),
    "rule": (_write_rule, F.read_rule),
}

READERS = {
    "fsk1": (_write_fsk, F.read_stack),
    "msk1": (_write_msk, F.read_mask),
    "unc1": (_write_unc, F.read_checkpoint),
    "manifest": (_write_manifest, F.read_manifest),
    "ppm": (_write_ppm, read_ppm),
    **JSON_SIDECARS,
}


# readers whose every failure is a FormatError naming the file
NAMING_READERS = {"fsk1", "msk1", "unc1", "manifest"}


@pytest.fixture(params=sorted(READERS))
def reader(request, tmp_path):
    write, read = READERS[request.param]
    path = tmp_path / f"valid.{request.param}"
    write(path)
    read(path)  # the unmodified file parses
    return path, path.read_bytes(), read, request.param in NAMING_READERS


def _read_corrupt(reader, payload):
    path, _, read, naming = reader
    path.write_bytes(payload)
    try:
        read(path)
    except F.FormatError as exc:
        assert not naming or str(path) in str(exc)
    except REPORTED_ERRORS:
        if naming:
            raise


@PROPERTY
@given(data=st.data())
def test_truncated_file_fails_cleanly(reader, data):
    valid = reader[1]
    _read_corrupt(reader, valid[: data.draw(st.integers(0, len(valid) - 1), label="length")])


@PROPERTY
@given(data=st.data(), xor=st.integers(1, 255))
def test_flipped_byte_fails_cleanly(reader, data, xor):
    corrupt = bytearray(reader[1])
    corrupt[data.draw(st.integers(0, len(corrupt) - 1), label="offset")] ^= xor
    _read_corrupt(reader, bytes(corrupt))


@pytest.mark.parametrize("offset", range(4, 32))
def test_every_checkpoint_header_byte_flip_fails_cleanly(tmp_path, offset):
    # the configuration and tensor count sit in bytes 4..31; a flipped byte
    # there can claim a huge network, which must be refused before any
    # parameter tensor is allocated
    path = tmp_path / "net.unc"
    _write_unc(path)
    valid = path.read_bytes()
    for xor in (0x01, 0x80, 0xFF):
        corrupt = bytearray(valid)
        corrupt[offset] ^= xor
        _read_corrupt((path, valid, F.read_checkpoint, False), bytes(corrupt))


PPM_HEADERS = {
    "magic-only": b"P6",
    "non-numeric-width": b"P6\nx 4",
    "cut-before-maxval": b"P6\n4 3\n",
    "non-numeric-maxval": b"P6\n4 3\n2x5\n",
    "overlong-width": b"P6\n" + b"9" * 5000 + b" 4\n255\n",  # past int()'s digit limit
}


@pytest.mark.parametrize("header", PPM_HEADERS.values(), ids=PPM_HEADERS)
def test_cut_or_non_numeric_ppm_header_names_the_file(tmp_path, header):
    path = tmp_path / "panel.ppm"
    path.write_bytes(header)
    with pytest.raises(F.FormatError, match="panel.ppm"):
        read_ppm(path)


# one value of each JSON type; a boolean, an integer and a float each count
# as their own type, since the readers tell them apart
JSON_VALUES = (None, True, 7, 2.5, "text", [], {}, [1], {"key": 1})


def _retyped(doc, where="$"):
    """(where, copy of doc) for each value of doc, doc itself included,
    replaced by each JSON value of another type."""
    for value in JSON_VALUES:
        if type(value) is not type(doc):
            yield where, value
    if isinstance(doc, (list, dict)):
        for key in range(len(doc)) if isinstance(doc, list) else list(doc):
            for inner_where, inner in _retyped(doc[key], f"{where}[{key!r}]"):
                copy = doc.copy()
                copy[key] = inner
                yield inner_where, copy


@pytest.mark.parametrize("name", sorted(JSON_SIDECARS))
def test_retyped_json_value_fails_cleanly(tmp_path, name):
    write, read = JSON_SIDECARS[name]
    path = tmp_path / f"{name}.json"
    write(path)
    cases = list(_retyped(json.loads(path.read_text())))
    assert len(cases) > len(JSON_VALUES)  # reached below the document root
    for where, doc in cases:
        path.write_text(json.dumps(doc))
        try:
            read(path)
        except F.FormatError as exc:
            assert str(path) in str(exc), where
        except Exception as exc:  # any other exception breaks the contract
            pytest.fail(f"{name}: {where} retyped to {doc!r}: {exc!r}")
