"""Periodic 2D computational domain and its discrete Fourier transforms.

The domain is [-lx, lx) x [-ly, ly) sampled on an nx-by-ny lattice (both
powers of two).  Fields are stored as (nx, ny) arrays in C order, index
[i, j] holding the sample at (x_i, y_j).  The transform convention is the
plain unnormalized DFT forward and 1/(nx*ny) on the inverse; physical
wavenumbers are xi1 = pi*k/lx for signed index k in {-nx/2, ..., nx/2-1}
(and likewise in y), stored in FFT order.

The solver uses the rfft2 half-lattice of a real field, the first ny/2 + 1
columns (k2 = 0, ..., ny/2); the others are conjugates of stored modes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as _sfft

#: Relative tolerance for conjugate-symmetry and imaginary-residue checks.
SYMMETRY_RTOL = 1e-10


class InvalidFieldError(ValueError):
    """Field samples contain non-finite values."""


class SpectralSymmetryError(ValueError):
    """Fourier coefficients are not conjugate-symmetric within tolerance."""


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
        for name, l in (("lx", self.lx), ("ly", self.ly)):
            if not np.isfinite(l) or l <= 0:
                raise ValueError(f"{name} must be positive and finite, got {l!r}")

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

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """2D coordinate meshes (X, Y) with indexing matching field storage."""
        return np.meshgrid(self.x, self.y, indexing="ij")


def wavenumbers(grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    """Signed physical wavenumbers (xi1, xi2) in transform order."""
    return grid.xi1, grid.xi2


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
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class SpectralField:
    """Discrete Fourier coefficients of a field on a SpectralGrid."""

    grid: SpectralGrid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_array(self.coeffs, np.complex128, self.grid.shape, "coeffs")
        if not np.all(np.isfinite(arr)):
            raise InvalidFieldError("coefficients must all be finite")
        object.__setattr__(self, "coeffs", arr)

    def conjugate_symmetry_defect(self) -> float:
        """Max deviation from coeff(-k1,-k2) == conj(coeff(k1,k2)), relative."""
        c = self.coeffs
        scale = float(np.max(np.abs(c)))
        if scale == 0.0:
            return 0.0
        reflected = np.roll(c[::-1, ::-1], (1, 1), axis=(0, 1))
        return float(np.max(np.abs(c - np.conj(reflected)))) / scale


def forward_transform(f: RealField) -> SpectralField:
    """Unnormalized discrete Fourier coefficients of a real field.

    The inverse applied to the result reproduces the field to roundoff
    (see inverse_transform).
    """
    return SpectralField(f.grid, fft2(f.values))


def inverse_transform(g: SpectralField) -> RealField:
    """Real-space samples from Fourier coefficients.

    Requires conjugate symmetry within SYMMETRY_RTOL; the imaginary residue
    of the inverse transform is checked against the same tolerance and then
    discarded.

    Raises
    ------
    SpectralSymmetryError
        If the coefficients (or the resulting imaginary residue) violate the
        symmetry tolerance.
    """
    defect = g.conjugate_symmetry_defect()
    if defect > SYMMETRY_RTOL:
        raise SpectralSymmetryError(
            f"coefficients violate conjugate symmetry: defect {defect:.3e} > {SYMMETRY_RTOL:.1e}"
        )
    z = ifft2(g.coeffs)
    scale = float(np.max(np.abs(z)))
    if scale > 0.0:
        residue = float(np.max(np.abs(z.imag))) / scale
        if residue > SYMMETRY_RTOL:
            raise SpectralSymmetryError(
                f"imaginary residue {residue:.3e} exceeds {SYMMETRY_RTOL:.1e}"
            )
    return RealField(g.grid, z.real)
