"""Binary field-file format: bit-exact round trips and failure modes."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkplump.fieldio import (
    MAGIC,
    FieldFileError,
    MagicMismatchError,
    TruncatedFileError,
    VersionMismatchError,
    load_field,
    save_field,
)
from fkplump.grid import RealField, SpectralGrid
from oracles import peak_n2

_GRID_16 = SpectralGrid(nx=16, ny=16, lx=4.0, ly=4.0)
_FIELD_16 = RealField(_GRID_16, np.random.default_rng(16).standard_normal(_GRID_16.shape))
_HEADER_BYTES = 56
_FILE_BYTES = _HEADER_BYTES + 8 * 16 * 16


def _load_bytes(path, raw):
    """load_field on raw bytes; a ValueError subclass is the only failure allowed."""
    path.write_bytes(raw)
    try:
        loaded = load_field(path)
    except ValueError:
        return
    assert np.array_equal(loaded.field.values, _FIELD_16.values)


@pytest.fixture(scope="module")
def fkpl_16(tmp_path_factory):
    """A scratch path and the bytes of a valid 16^2 field file."""
    path = tmp_path_factory.mktemp("fkpl") / "field.fkpl"
    save_field(path, _FIELD_16, alpha=1.7, c=2.0)
    return path, path.read_bytes()


@pytest.fixture()
def sample(tmp_path, rng, small_grid):
    field = RealField(small_grid, rng.standard_normal(small_grid.shape))
    path = tmp_path / "field.fkpl"
    save_field(path, field, alpha=1.7, c=2.0)
    return path, field


class TestSave:
    @pytest.mark.parametrize(
        "alpha, c",
        [(np.nan, 1.0), (-1.0, 1.0), (0.0, 1.0), (2.0, np.inf), (2.0, 0.0)],
    )
    def test_rejects_bad_parameters(self, tmp_path, alpha, c):
        path = tmp_path / "field.fkpl"
        with pytest.raises(ValueError, match="alpha|c must"):
            save_field(path, _FIELD_16, alpha=alpha, c=c)
        assert not path.exists()


class TestRoundTrip:
    def test_values_bit_exact(self, sample):
        path, field = sample
        loaded = load_field(path)
        assert np.array_equal(loaded.field.values, field.values)
        assert loaded.field.grid == field.grid

    def test_metadata(self, sample):
        path, _ = sample
        loaded = load_field(path)
        assert loaded.alpha == 1.7
        assert loaded.c == 2.0

    def test_twice_saved_files_identical(self, tmp_path, sample):
        path, field = sample
        other = tmp_path / "again.fkpl"
        save_field(other, field, alpha=1.7, c=2.0)
        assert other.read_bytes() == path.read_bytes()

    def test_hand_built_file_loads_bit_exactly(self, tmp_path):
        # a v1 file written byte by byte, sigma -1.0 at byte 48, is what save_field writes
        hand = tmp_path / "hand.fkpl"
        header = struct.pack("<4sIII5d", b"FKPL", 1, 16, 16, 4.0, 4.0, 1.7, 2.0, -1.0)
        hand.write_bytes(header + _FIELD_16.values.astype("<f8").tobytes())
        loaded = load_field(hand)
        assert np.array_equal(loaded.field.values, _FIELD_16.values)
        assert (loaded.field.grid, loaded.alpha, loaded.c) == (_GRID_16, 1.7, 2.0)
        saved = tmp_path / "saved.fkpl"
        save_field(saved, _FIELD_16, alpha=1.7, c=2.0)
        assert saved.read_bytes() == hand.read_bytes()



class TestMemory:
    """save_field writes the values' own buffer; load_field's field is a view of the bytes read."""

    @pytest.fixture()
    def grid_512(self):
        return SpectralGrid(nx=512, ny=512, lx=128.0, ly=128.0)

    def test_save_holds_no_copy(self, tmp_path, rng, grid_512):
        # tobytes() and header + payload were two n^2 copies (2.0 n^2)
        field = RealField(grid_512, rng.standard_normal(grid_512.shape))
        path = tmp_path / "field.fkpl"
        _, peak = peak_n2(grid_512, lambda: save_field(path, field, alpha=2.0, c=1.0))
        assert peak <= 0.05
        assert path.read_bytes()[_HEADER_BYTES:] == field.values.astype("<f8").tobytes()

    def test_load_holds_one_field(self, tmp_path, rng, grid_512):
        # the bytes read and a read-only view of them (2.13 n^2 with a copy)
        field = RealField(grid_512, rng.standard_normal(grid_512.shape))
        path = tmp_path / "field.fkpl"
        save_field(path, field, alpha=2.0, c=1.0)
        loaded, peak = peak_n2(grid_512, lambda: load_field(path))
        assert peak <= 1.1
        assert np.array_equal(loaded.field.values, field.values)
        assert not loaded.field.values.flags.writeable


class TestFailureModes:
    def test_header_only_file(self, tmp_path, sample):
        path, _ = sample
        clipped = tmp_path / "clipped.fkpl"
        clipped.write_bytes(path.read_bytes()[:56])
        with pytest.raises(TruncatedFileError):
            load_field(clipped)

    def test_short_header(self, tmp_path):
        stub = tmp_path / "stub.fkpl"
        stub.write_bytes(b"FKPL\x01")
        with pytest.raises(TruncatedFileError, match="byte"):
            load_field(stub)

    def test_truncated_payload(self, tmp_path, sample):
        path, _ = sample
        clipped = tmp_path / "partial.fkpl"
        clipped.write_bytes(path.read_bytes()[:-17])
        with pytest.raises(TruncatedFileError):
            load_field(clipped)

    def test_magic_mismatch(self, tmp_path, sample):
        path, _ = sample
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        bad = tmp_path / "bad_magic.fkpl"
        bad.write_bytes(bytes(raw))
        with pytest.raises(MagicMismatchError):
            load_field(bad)

    def test_version_mismatch(self, tmp_path, sample):
        path, _ = sample
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        bad = tmp_path / "bad_version.fkpl"
        bad.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            load_field(bad)

    @pytest.mark.parametrize("sigma", [1.0, -1.5, 0.5, np.nan])
    def test_sigma_other_than_minus_one(self, tmp_path, fkpl_16, sigma):
        # fKP-II (+1) has no lumps, and the other values name no equation
        _, raw = fkpl_16
        bad = tmp_path / "sigma.fkpl"
        bad.write_bytes(raw[:48] + struct.pack("<d", sigma) + raw[56:])
        with pytest.raises(FieldFileError, match="byte 48"):
            load_field(bad)

    def test_errors_are_distinct_types(self):
        assert MagicMismatchError is not VersionMismatchError
        assert not issubclass(MagicMismatchError, VersionMismatchError)
        assert not issubclass(TruncatedFileError, MagicMismatchError)

    def test_magic_constant(self):
        assert MAGIC == b"FKPL"


class TestCorruptedFiles:
    @settings(max_examples=100, deadline=None)
    @given(cut=st.integers(0, _FILE_BYTES))
    def test_truncation_loads_exactly_or_is_a_value_error(self, fkpl_16, cut):
        path, raw = fkpl_16
        _load_bytes(path, raw[:cut])

    @settings(max_examples=200, deadline=None)
    @given(offset=st.integers(0, _HEADER_BYTES - 1), byte=st.integers(0, 255))
    def test_header_byte_loads_exactly_or_is_a_value_error(self, fkpl_16, offset, byte):
        path, raw = fkpl_16
        corrupted = bytearray(raw)
        corrupted[offset] = byte
        _load_bytes(path, bytes(corrupted))
