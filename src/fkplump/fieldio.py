"""Bit-exact binary persistence of real fields.

Layout (little-endian throughout):

    bytes 0..3    magic "FKPL"
    bytes 4..7    u32 format version (currently 1)
    bytes 8..11   u32 nx
    bytes 12..15  u32 ny
    bytes 16..55  f64 lx, ly, alpha, c, sigma
    bytes 56..    nx*ny f64 field values, row-major

The header carries the physical parameters so an analysis run needs no
side channel.  Loading reproduces the saved values bit for bit.  sigma
is the sign of the equation, always -1 (fKP-I): fKP-II (+1) has no lumps
in the energy space, so load_field rejects any other value.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import RealField, SpectralGrid
from .symbols import SymbolParams

MAGIC = b"FKPL"
VERSION = 1
SIGMA = -1.0
_HEADER = struct.Struct("<4sIII5d")


class FieldFileError(ValueError):
    """Base class for field-file format problems."""


class MagicMismatchError(FieldFileError):
    pass


class VersionMismatchError(FieldFileError):
    pass


class TruncatedFileError(FieldFileError):
    pass


@dataclass(frozen=True)
class LoadedField:
    """A field together with the physical parameters stored beside it."""

    field: RealField
    alpha: float
    c: float


def save_field(path: str | Path, field: RealField, alpha: float, c: float) -> None:
    """Write a field and its parameters; see the module docstring for layout.

    Raises
    ------
    ValueError
        Unless alpha and c are finite and positive (SymbolParams); nothing
        is written then.
    """
    SymbolParams(alpha=alpha, c=c)
    grid = field.grid
    header = _HEADER.pack(MAGIC, VERSION, grid.nx, grid.ny, grid.lx, grid.ly, alpha, c, SIGMA)
    # the values' own buffer, not a bytes copy of them
    payload = memoryview(np.ascontiguousarray(field.values, dtype="<f8")).cast("B")
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)


def load_field(path: str | Path) -> LoadedField:
    """Read a field file, verifying magic, version, sigma and length.

    Raises
    ------
    MagicMismatchError, VersionMismatchError, TruncatedFileError
        Distinct errors for the three failure modes, each naming the byte
        offset at which parsing failed.
    FieldFileError
        If sigma (byte 48) is not -1: the file is not of fKP-I.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise TruncatedFileError(
            f"file ends at byte {len(raw)}, before the {_HEADER.size}-byte header"
        )
    magic, version, nx, ny, lx, ly, alpha, c, sigma = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise MagicMismatchError(f"bad magic {magic!r} at byte 0, expected {MAGIC!r}")
    if version != VERSION:
        raise VersionMismatchError(
            f"unsupported format version {version} at byte 4, expected {VERSION}"
        )
    if sigma != SIGMA:
        raise FieldFileError(
            f"sigma = {sigma!r} at byte 48, expected {SIGMA} (fKP-I; fKP-II has no lumps)"
        )
    expected = _HEADER.size + 8 * nx * ny
    if len(raw) != expected:
        raise TruncatedFileError(
            f"file ends at byte {len(raw)}, expected {expected} "
            f"({nx}x{ny} float64 values after byte {_HEADER.size})"
        )
    grid = SpectralGrid(nx=nx, ny=ny, lx=lx, ly=ly)
    # a read-only view of the immutable bytes, which the field keeps alive
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(nx, ny)
    return LoadedField(field=RealField._adopt(grid, values), alpha=alpha, c=c)
