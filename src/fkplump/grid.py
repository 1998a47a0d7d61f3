"""Periodic 2D computational domain and its real discrete Fourier transforms.

The domain is [-lx, lx) x [-ly, ly) sampled on an nx-by-ny lattice (both
powers of two).  Fields are stored as (nx, ny) arrays in C order, index
[i, j] holding the sample at (x_i, y_j).  The transform convention is the
plain unnormalized DFT forward and 1/(nx*ny) on the inverse; physical
wavenumbers are xi1 = pi*k/lx for signed index k in {-nx/2, ..., nx/2-1}
(and likewise in y), stored in FFT order.

Every field is real, so every spectrum is stored on the rfft2 half-lattice
(nx, ny/2 + 1): the columns k2 = 0, ..., ny/2, whose xi2 values are
SpectralGrid.xi2_half.  The other columns are conjugates of stored modes,
so a sum over the full lattice is a half-lattice sum with the column
weights SpectralGrid.column_weights: 1 on k2 = 0 and ny/2, 2 elsewhere.

A field that is even in x and in y is held by its quarter, the nodes
x, y >= 0 (indices n/2, ..., n - 1 and then 0, the node x = lx = -lx):
(nx/2 + 1, ny/2 + 1) values.  Its type-1 cosine transform dct1 is the
rfft2 of the whole field on the rows k1 = 0, ..., nx/2, up to the sign
(-1)^(k1 + k2) of the shift to x = 0; the other rows repeat these.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as _sfft

class InvalidFieldError(ValueError):
    """Field samples contain non-finite values."""


class GridMismatchError(ValueError):
    """Two objects that must share a grid do not."""


def fft_workers() -> int:
    """Number of FFT worker threads, capped by the FKP_THREADS env var.

    Defaults to 1 so that runs are deterministic unless the user opts in.
    """
    raw = os.environ.get("FKP_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        return 1
    return max(1, workers)


# fft2 and ifft2 are not used by the package; perfbench/run.py imports them.
def fft2(values: np.ndarray) -> np.ndarray:
    """Unnormalized forward 2D DFT of a raw array."""
    return _sfft.fft2(values, workers=fft_workers())


def ifft2(coeffs: np.ndarray) -> np.ndarray:
    """Inverse 2D DFT (1/(nx*ny) normalization) of a raw array."""
    return _sfft.ifft2(coeffs, workers=fft_workers())


def rfft2(values: np.ndarray) -> np.ndarray:
    """Unnormalized forward 2D DFT of a real array, on the half-lattice."""
    return _sfft.rfft2(values, workers=fft_workers())


def irfft2(
    coeffs: np.ndarray, shape: tuple[int, int], overwrite_x: bool = False
) -> np.ndarray:
    """Real inverse 2D DFT (1/(nx*ny) normalization) of half-lattice coefficients.

    The x pass (complex) runs before the y pass (real), as in scipy's
    irfft2, to the same bits.  With overwrite_x it runs in place in coeffs,
    which are then left undefined, instead of on a copy.
    """
    half = _sfft.ifft(coeffs, n=shape[0], axis=0, overwrite_x=overwrite_x, workers=fft_workers())
    return _sfft.irfft(half, n=shape[1], axis=1, workers=fft_workers())


def dct1(values: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    """Unnormalized type-1 DCT along both axes of an even-even quarter.

    With overwrite_x it runs in place in values, to the same bits.
    """
    return _sfft.dctn(values, type=1, overwrite_x=overwrite_x, workers=fft_workers())


def idct1(coeffs: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    """Inverse of dct1.  With overwrite_x, coeffs may be used as scratch."""
    return _sfft.idctn(coeffs, type=1, overwrite_x=overwrite_x, workers=fft_workers())


def multiplicities(n: int) -> np.ndarray:
    """How often each of the modes k = 0, ..., n/2 occurs among the n signed ones: 1, 2, ..., 2, 1."""
    w = np.full(n // 2 + 1, 2.0)
    w[[0, -1]] = 1.0
    return w


def _sup(values: np.ndarray) -> float:
    """max |values| without an n^2 temporary; nan if any value is nan, and +0.0
    (not np.maximum(0.0, -0.0) = -0.0) if every value is a zero."""
    return abs(float(np.maximum(values.max(), -values.min())))


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic computational domain with its dual wavenumber lattice.

    Parameters
    ----------
    nx, ny : int
        Node counts in x and y; powers of two, at least 8.
    lx, ly : float
        Domain half-widths; the domain is [-lx, lx) x [-ly, ly).

    Coordinates and wavenumbers are generated on demand (and cached) so the
    grid carries no mutable state.
    """

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self) -> None:
        for name, n in (("nx", self.nx), ("ny", self.ny)):
            if not isinstance(n, (int, np.integer)) or n < 8 or not _is_power_of_two(int(n)):
                raise ValueError(f"{name} must be a power of two >= 8, got {n!r}")
        for name, n, l in (("lx", self.nx, self.lx), ("ly", self.ny, self.ly)):
            # the node spacing 2*l/n must not overflow; a Python float does so silently
            if not (l > 0 and math.isfinite(2.0 * float(l))):
                raise ValueError(f"{name} must be positive and 2*{name} finite, got {l!r}")
            # x^2 + y^2 and xi1^2 + xi2^2 must be finite: the nodes reach l
            # and the wavenumbers pi*n/(2l)
            edge, nyquist = float(l), math.pi * int(n) / (2.0 * float(l))
            if not math.isfinite(2.0 * max(edge * edge, nyquist * nyquist)):
                raise ValueError(f"{name} must keep x^2 + y^2 and xi1^2 + xi2^2 finite, got {l!r}")

    @property
    def dx(self) -> float:
        return 2.0 * self.lx / self.nx

    @property
    def dy(self) -> float:
        return 2.0 * self.ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @cached_property
    def x(self) -> np.ndarray:
        """Node coordinates in x: x_j = -lx + j*dx."""
        x = -self.lx + self.dx * np.arange(self.nx)
        x.setflags(write=False)
        return x

    @cached_property
    def y(self) -> np.ndarray:
        y = -self.ly + self.dy * np.arange(self.ny)
        y.setflags(write=False)
        return y

    @cached_property
    def xi1(self) -> np.ndarray:
        """Signed physical wavenumbers in x, FFT order (spacing pi/lx)."""
        xi = 2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.dx)
        xi.setflags(write=False)
        return xi

    @cached_property
    def xi2(self) -> np.ndarray:
        xi = 2.0 * np.pi * np.fft.fftfreq(self.ny, d=self.dy)
        xi.setflags(write=False)
        return xi

    @cached_property
    def xi2_half(self) -> np.ndarray:
        """xi2 on the half-lattice columns k2 = 0, ..., ny/2 (the last one negative)."""
        return self.xi2[: self.ny // 2 + 1]

    @cached_property
    def column_weights(self) -> np.ndarray:
        """Multiplicity of each half-lattice column in the full lattice: 1, 2, ..., 2, 1."""
        w = multiplicities(self.ny)
        w.setflags(write=False)
        return w


def _frozen_array(values, dtype, shape, what: str) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RealField:
    """Real-space samples of a field on a SpectralGrid."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_array(self.values, np.float64, self.grid.shape, "values")
        if not np.all(np.isfinite(arr)):
            raise InvalidFieldError("field values must all be finite")
        object.__setattr__(self, "values", arr)

    def max_abs(self) -> float:
        return _sup(self.values)
