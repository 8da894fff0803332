"""Property tests of the file readers: a truncated or single-byte-corrupted
file may only fail the way the CLI reports as one `error:` line.

Every reader gets valid bytes from the matching writer, then each example
cuts the file short or XORs one byte. The reader may accept the result (a
flipped float is still a float) or raise one of cli.REPORTED_ERRORS, of
which FormatError is one; MemoryError, IndexError, TypeError, struct.error
and the like break the contract. Examples are derandomized, so the suite
stays deterministic.
"""

from datetime import date

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fireseg import data as D
from fireseg import formats as F
from fireseg.cli import REPORTED_ERRORS
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
    F.write_manifest(path, D.TileSet(specs, D.SAMPLED, seed=4, tile_ratio=2.0))


def _write_schema(path):
    channels = (
        D.Channel("weather_00"),
        D.Channel("landcover", D.CATEGORICAL, ("forest", "grass", "urban")),
        D.Channel("terrain_01"),
    )
    F.write_schema(path, D.FeatureSchema(channels))


READERS = {
    "fsk1": (_write_fsk, F.read_stack),
    "msk1": (_write_msk, F.read_mask),
    "unc1": (_write_unc, F.read_checkpoint),
    "manifest": (_write_manifest, F.read_manifest),
    "schema": (_write_schema, F.read_schema),
}


@pytest.fixture(params=sorted(READERS))
def reader(request, tmp_path):
    write, read = READERS[request.param]
    path = tmp_path / f"valid.{request.param}"
    write(path)
    read(path)  # the unmodified file parses
    return path, path.read_bytes(), read


def _read_corrupt(reader, payload):
    path, _, read = reader
    path.write_bytes(payload)
    try:
        read(path)
    except REPORTED_ERRORS:
        pass


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
        _read_corrupt((path, valid, F.read_checkpoint), bytes(corrupt))
