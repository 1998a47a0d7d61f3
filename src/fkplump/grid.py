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
(-1)^(k1 + k2) of the shift to x = 0; the other rows repeat these.  Every
slice of the mirror map (node j and node n - j) is taken here:
quarter_nodes, fold_quarter and its adjoint on a matrix's columns
fold_columns, unfold_quarter and RealField.reflection_defects.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as _sfft

class InvalidFieldError(ValueError):
    """Field samples contain non-finite values."""


class GridMismatchError(ValueError):
    """Two objects that must share a grid do not."""


class DomainRangeError(ValueError):
    """A requested coordinate lies outside the available domain."""


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


#: Size of the row blocks in which the solver sums M's pairings, forms the
#: residual's spectrum and updates the mixed spectrum, and in which the
#: closed-form arrays of reference are filled, so that their temporaries
#: stay in cache instead of taking full arrays.  Blocks are counted in
#: complex rows, so a block of real rows (a quarter spectrum, a closed
#: form) holds 256 KiB.  Whole-array sums are slower on the half-lattice
#: (9.6 ms per call against 7.8 ms at 1024^2), and they change the
#: summation order, to which the layout comparison test is sensitive: its
#: 256^2, alpha = 1.5 iter_error then moves by 1.8e-6 relative, past its
#: 1e-6 bound.
BLOCK_BYTES = 1 << 19


#: numpy's ufunc buffer, in elements, in the solver's row-block loops.  A
#: ufunc that broadcasts a row or column factor over a block, or casts a
#: real operand to complex, takes buffers of up to numpy's default 8192
#: elements (63 to 129 KiB, 0.03 to 0.06 n^2 at 512^2) on top of the block
#: tiles; at 512 elements they take at most 10 KiB, at the same speed.  A
#: buffer only chunks the work, so elementwise results keep their bits.
UFUNC_BUFFER = 512


@contextmanager
def small_ufunc_buffers() -> Iterator[None]:
    """numpy's ufunc buffer at UFUNC_BUFFER elements inside the block (or the
    decorated function), and as before after it."""
    old = np.setbufsize(UFUNC_BUFFER)
    try:
        yield
    finally:
        np.setbufsize(old)


def row_blocks(rows: int, columns: int) -> list[slice]:
    """Slices of whole rows of a (rows, columns) array, each about BLOCK_BYTES of complex rows."""
    block = max(1, BLOCK_BYTES // (16 * columns))
    return [slice(i, i + block) for i in range(0, rows, block)]


def _sup(values: np.ndarray) -> float:
    """max |values| without an n^2 temporary; nan if any value is nan, and +0.0
    (not np.maximum(0.0, -0.0) = -0.0) if every value is a zero."""
    return abs(float(np.maximum(values.max(), -values.min())))


def _sup_of_difference(a: np.ndarray, b: np.ndarray) -> float:
    """_sup(a - b), formed in whole-row blocks of one tile (about half of
    BLOCK_BYTES for real rows), not as an a-sized temporary.  The max of the
    blocks' sups is the sup of the whole, bit for bit."""
    blocks = row_blocks(*a.shape)
    tile = np.empty(a[blocks[0]].shape)
    return max(_sup(np.subtract(a[s], b[s], out=tile[: len(a[s])])) for s in blocks)


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


def _frozen_array(values, dtype, shape, what: str, copy: bool = True) -> np.ndarray:
    """values as a read-only array of dtype and shape; without copy, values
    itself where it already has the dtype."""
    arr = np.array(values, dtype=dtype, copy=True if copy else None)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


#: A field is even-even when both reflection defects are at most this,
#: relative to its peak: the solver then runs on the quarter, and residual
#: and rescale_solution read the quarter too.  The gaussian and exact seeds
#: measure at most 1.9e-15 on grids from 8^2 to 2048^2.
EVEN_EVEN_TOL = 1e-13


def quarter_nodes(n: int) -> np.ndarray:
    """Indices of the quarter's nodes along an axis of n nodes: n/2, ..., n - 1 and then 0."""
    return (n // 2 + np.arange(n // 2 + 1)) % n


def fold_quarter(values: np.ndarray) -> np.ndarray:
    """A new array of the quarter x, y >= 0 of n^2 values (the nodes quarter_nodes),
    copied as four strided slices."""
    hx, hy = values.shape[0] // 2, values.shape[1] // 2
    quarter = np.empty((hx + 1, hy + 1), values.dtype)
    quarter[:hx, :hy] = values[hx:, hy:]
    quarter[:hx, hy] = values[hx:, 0]
    quarter[hx, :hy] = values[0, hy:]
    quarter[hx, hy] = values[0, 0]
    return quarter


def fold_columns(matrix: np.ndarray) -> np.ndarray:
    """The columns of matrix summed onto the quarter's nodes, the adjoint of
    unfold_quarter along them: matrix @ v = fold_columns(matrix) @ q for the
    even v whose quarter is q, as node n/2 + k and its mirror n/2 - k hold q[k]."""
    n = matrix.shape[1]
    folded = matrix[:, quarter_nodes(n)]
    folded[:, 1 : n // 2] += matrix[:, n // 2 - 1 : 0 : -1]
    return folded


def unfold_quarter(values: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """A new array of the even-even field of the given n^2 shape whose quarter is values.

    Node n/2 + k and its mirror n/2 - k read quarter entry k; node 0 reads
    the last.  Each quadrant of the field is one strided slice copy.
    """
    hx, hy = shape[0] // 2, shape[1] // 2
    field = np.empty(shape, values.dtype)
    field[hx:, hy:] = values[:hx, :hy]
    field[hx:, :hy] = values[:hx, hy:0:-1]
    field[:hx, hy:] = values[hx:0:-1, :hy]
    field[:hx, :hy] = values[hx:0:-1, hy:0:-1]
    return field


@dataclass(frozen=True)
class RealField:
    """Real-space samples of a field on a SpectralGrid.

    The values are a read-only copy of the array given.  The sup norm, the
    reflection defects and the rfft2 half-spectrum are computed on first
    use and kept, so every caller of a field shares them; the spectrum
    then holds as many bytes as the values.
    """

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self._own(self.values, copy=True)

    @classmethod
    def _adopt(cls, grid: SpectralGrid, values: np.ndarray) -> RealField:
        """A field over values itself, not a copy: for a float64 array that
        its maker hands over and never writes again."""
        field = cls.__new__(cls)
        object.__setattr__(field, "grid", grid)
        field._own(values, copy=False)
        return field

    def _own(self, values, copy: bool) -> None:
        arr = _frozen_array(values, np.float64, self.grid.shape, "values", copy)
        object.__setattr__(self, "values", arr)
        if not math.isfinite(self.max_abs()):  # _sup is nan or inf unless every value is finite
            raise InvalidFieldError("field values must all be finite")

    @cached_property
    def _peak(self) -> float:
        return _sup(self.values)

    def max_abs(self) -> float:
        return self._peak

    @cached_property
    def reflection_defects(self) -> tuple[float, float]:
        """sup|v(x, y) - v(-x, y)| and sup|v(x, y) - v(x, -y)|, relative to sup|v|.

        The lattice maps onto itself under periodic reflection (node j pairs
        with node n - j mod n; nodes 0 and n/2 are their own mirrors), so the
        comparison is exact, with no interpolation.  Both are 0 for a zero field.
        """
        v, scale = self.values, self.max_abs()
        if scale == 0.0:
            return 0.0, 0.0
        hx, hy = v.shape[0] // 2, v.shape[1] // 2
        return (_sup_of_difference(v[1:hx], v[:hx:-1]) / scale,
                _sup_of_difference(v[:, 1:hy], v[:, :hy:-1]) / scale)

    @cached_property
    def is_even_even(self) -> bool:
        """Whether both reflection defects are at most EVEN_EVEN_TOL."""
        return max(self.reflection_defects) <= EVEN_EVEN_TOL

    @cached_property
    def spectrum(self) -> np.ndarray:
        """rfft2 of the values, read-only."""
        coeffs = rfft2(self.values)
        coeffs.setflags(write=False)
        return coeffs
