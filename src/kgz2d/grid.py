"""
Periodic spectral grid for the square box [-L, L)^2 and the differential
calculus built on it: Laplacian, first derivatives, weighted Parseval sums,
band-limited fields packed to the 2/3 dealias box (packing dealiases), and
the binary field-dump format.

The box emulates R^2: both the wave and the Klein-Gordon operator propagate
at speed <= 1, so runs that keep t_max + data_radius < L never see their own
wrap-around inside the observation window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "FieldPair",
    "make_grid",
    "laplacian",
    "partial",
    "l2_norm",
    "h_norm",
    "write_field",
    "read_field",
]


@dataclass(frozen=True)
class Grid:
    """Square periodic grid: n points per axis on [-L, L), spacing h = 2L/n.

    Wavenumbers are the angular frequencies pi*j/L for j in the symmetric
    integer range [-n/2, n/2), stored in FFT order.  All derived arrays are
    precomputed once; instances are immutable and safe to share.
    """

    n: int
    length: float

    h: float = field(init=False, compare=False)
    cell_area: float = field(init=False, compare=False)
    xs: np.ndarray = field(init=False, repr=False, compare=False)
    k1: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"points_per_axis must be even and >= 8, got {self.n}")
        if not self.length > 0:
            raise ValueError(f"box half-width must be positive, got {self.length}")
        h = 2.0 * self.length / self.n
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "cell_area", h * h)
        object.__setattr__(self, "xs", -self.length + h * np.arange(self.n))
        # 2*pi*fftfreq(n, d=h) == pi*j/L for j in [-n/2, n/2), FFT ordered
        object.__setattr__(self, "k1", 2.0 * np.pi * np.fft.fftfreq(self.n, d=h))

    # -- cached spectral machinery (built lazily, stored on the instance) --

    def _build(self):
        kx = self.k1[:, None]                       # (n, 1), axis 0 = x1
        kr = self.k1[: self.n // 2 + 1].copy()      # rfft frequencies along x2
        kr[-1] = abs(self.k1[self.n // 2])          # Nyquist, positive sign
        ky = kr[None, :]                            # (1, n//2+1)
        k_sq = kx**2 + ky**2
        kmax = np.pi / self.h
        # first-derivative multipliers: Nyquist zeroed (sign-ambiguous mode)
        d1 = 1j * np.where(np.abs(kx) < kmax - 1e-12, kx, 0.0) + 0.0 * ky
        d2 = 1j * np.where(np.abs(ky) < kmax - 1e-12, ky, 0.0) + 0.0 * kx
        # |d1|^2 + |d2|^2: the Parseval weight of |grad u|^2, which is k_sq
        # except on the Nyquist row and column
        grad_sq = d1.imag**2 + d2.imag**2
        cut = (2.0 / 3.0) * kmax
        mask = (np.abs(kx) <= cut + 1e-12) & (np.abs(ky) <= cut + 1e-12)
        # the mask is a product of a row and a column cut: its box is the
        # rows it keeps (two blocks, FFT order) by its leading columns
        rows = np.flatnonzero(mask[:, 0])
        cols = int(np.count_nonzero(mask[0]))
        X1, X2 = np.meshgrid(self.xs, self.xs, indexing="ij")
        cache = {
            "k_sq": k_sq, "d1": d1, "d2": d2, "grad_sq": grad_sq,
            "dealias_mask": mask,
            "box": (rows, cols), "box_k_sq": k_sq[rows, :cols],
            "X1": X1, "X2": X2, "R": np.sqrt(X1**2 + X2**2),
        }
        object.__setattr__(self, "_cache", cache)
        return cache

    @property
    def spectral(self) -> dict:
        return getattr(self, "_cache", None) or self._build()

    @property
    def X1(self) -> np.ndarray:
        return self.spectral["X1"]

    @property
    def X2(self) -> np.ndarray:
        return self.spectral["X2"]

    @property
    def R(self) -> np.ndarray:
        return self.spectral["R"]

    @property
    def radial_unit(self) -> tuple[np.ndarray, np.ndarray]:
        """(X1, X2) / sqrt(R^2 + h^2), the radial direction regularised at
        the origin; built on first use and kept."""
        cache = self.spectral
        if "radial_unit" not in cache:
            r_reg = np.sqrt(self.R**2 + self.h**2)
            cache["radial_unit"] = (self.X1 / r_reg, self.X2 / r_reg)
        return cache["radial_unit"]

    def rfft(self, values: np.ndarray) -> np.ndarray:
        return np.fft.rfft2(values, axes=(-2, -1))

    def irfft(self, hat: np.ndarray) -> np.ndarray:
        return np.fft.irfft2(hat, s=(self.n, self.n), axes=(-2, -1))

    # A band-limited field is packed as its rfft coefficients inside the 2/3
    # dealias box: a bare (components, rows, cols) complex array, the box's
    # rows in FFT order by its leading columns, about 0.45 of a physical
    # plane in bytes.  Packing drops every mode outside the box, i.e.
    # dealiases.  rfft2 and irfft2 are two passes of 1D transforms, one
    # along each axis; the box keeps only the leading columns, so the pass
    # along axis -2 runs over those columns alone.  Each lane is the same 1D
    # transform as in the whole-plane path, so the results are bit-identical
    # to the box of rfft(.) and to irfft(unpack(.)).

    def box_rfft(self, values: np.ndarray) -> np.ndarray:
        """The packed dealias-box coefficients of physical values."""
        rows, cols = self.spectral["box"]
        # rows outermost in memory, as the fancy index leaves them for parseval
        return np.fft.fft(np.fft.rfft(values)[..., :cols], axis=-2)[..., rows, :]

    def box_irfft(self, box: np.ndarray) -> np.ndarray:
        """The physical field of packed dealias-box coefficients."""
        rows, cols = self.spectral["box"]
        columns = np.zeros(box.shape[:-2] + (self.n, cols), dtype=complex)
        columns[..., rows, :] = box
        return np.fft.irfft(np.fft.ifft(columns, axis=-2, out=columns), self.n)

    def unpack(self, box: np.ndarray) -> np.ndarray:
        """The half spectrum of packed coefficients, zero outside the box."""
        rows, cols = self.spectral["box"]
        hat = np.zeros(box.shape[:-2] + (self.n, self.n // 2 + 1), dtype=complex)
        hat[..., rows, :cols] = box
        return hat

    def parseval(self, hat: np.ndarray, weight=1.0) -> float:
        """Weighted Parseval sum: sum over modes of weight |u_hat|^2, summed
        over components and normalised so that weight 1 gives the grid
        integral of |u|^2.

        hat is a half spectrum: either the whole rfft output, or one packed
        to the dealias box (box_rfft); weight broadcasts against it.
        Every column stands for itself and its conjugate mirror
        (multiplicity 2) except the zero and Nyquist columns, which are
        their own mirrors (multiplicity 1); the box holds no Nyquist
        column.  The weight must be even in k, as every |multiplier|^2 is.
        """
        full = hat.shape[-2:] == self.spectral["k_sq"].shape
        if not full and hat.shape[-2:] != self.spectral["box_k_sq"].shape:
            raise ValueError(f"{hat.shape} is neither a half spectrum nor "
                             f"a dealias box for n={self.n}")
        dens = weight * (hat.real**2 + hat.imag**2)
        nyquist = np.sum(dens[..., -1]) if full else 0.0
        total = (np.sum(dens[..., 0]) + nyquist
                 + 2.0 * np.sum(dens[..., 1:-1 if full else None]))
        return float(total * self.cell_area / self.n**2)

    def hs_norm(self, hat: np.ndarray, s: float) -> float:
        """Spectral Sobolev norm: the Parseval sum of hat with weight
        (1+|k|^2)^s, square-rooted; s = 0 gives the grid L^2 norm."""
        if s < 0:
            raise ValueError(f"Sobolev index must be >= 0, got {s}")
        full = hat.shape[-2:] == self.spectral["k_sq"].shape
        k_sq = self.spectral["k_sq" if full else "box_k_sq"]
        return math.sqrt(self.parseval(hat, (1.0 + k_sq) ** s))


def make_grid(points_per_axis: int, length: float) -> Grid:
    """Build a grid; rejects odd or tiny sizes and nonpositive boxes."""
    return Grid(points_per_axis, float(length))


@dataclass(frozen=True, eq=False)
class Field:
    """Real scalar (1 component) or R^2-valued (2 components) grid samples.

    values has shape (components, n, n) with axes (component, x1, x2).
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim == 2:
            v = v[None]
        if v.ndim != 3 or v.shape[1:] != (self.grid.n, self.grid.n):
            raise ValueError(f"bad field shape {v.shape} for n={self.grid.n}")
        if v.shape[0] not in (1, 2):
            raise ValueError(f"component count must be 1 or 2, got {v.shape[0]}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def components(self) -> int:
        return self.values.shape[0]

    def __sub__(self, other: "Field") -> "Field":
        return Field(self.grid, self.values - other.values)

    def magnitude(self) -> np.ndarray:
        """Pointwise Euclidean norm over components, shape (n, n)."""
        if self.components == 1:
            return np.abs(self.values[0])
        return np.sqrt(self.values[0] ** 2 + self.values[1] ** 2)


@dataclass(frozen=True, eq=False)
class FieldPair:
    """A field together with its time derivative (position/velocity)."""

    u: Field
    ut: Field

    def __post_init__(self):
        if self.u.grid is not self.ut.grid and self.u.grid != self.ut.grid:
            raise ValueError("u and ut live on different grids")
        if self.u.components != self.ut.components:
            raise ValueError("u and ut have different component counts")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def __sub__(self, other: "FieldPair") -> "FieldPair":
        return FieldPair(self.u - other.u, self.ut - other.ut)


# ---------------------------------------------------------------------------
# spectral calculus
# ---------------------------------------------------------------------------

def laplacian(f: Field) -> Field:
    """Spectral Laplacian: mode (k1, k2) multiplied by -(k1^2 + k2^2)."""
    g = f.grid
    hat = g.rfft(f.values)
    return Field(g, g.irfft(-g.spectral["k_sq"] * hat))


def partial(f: Field, axis: int) -> Field:
    """Spectral first derivative along axis 1 or 2."""
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    g = f.grid
    return Field(g, g.irfft(g.spectral[f"d{axis}"] * g.rfft(f.values)))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def bump_window(grid: Grid, radius: float) -> np.ndarray:
    """Smooth radial window exp(-(r/radius)^4), ~1 inside, ~1e-15 by 2.4r.

    Used to embed constructions with unbounded coefficients (x_a u and
    friends) in the periodic box: the windowed field vanishes at the wrap
    boundary to near round-off while staying analytic, so spectral
    derivatives remain accurate.
    """
    return np.exp(-((grid.R / radius) ** 4))


def l2_norm(f: Field) -> float:
    """Grid-quadrature L^2 norm, cell-area weighted."""
    return float(np.sqrt(np.sum(f.values**2) * f.grid.cell_area))


def h_norm(f: Field, s: float) -> float:
    """Spectral Sobolev norm of a field (Grid.hs_norm of its rfft);
    h_norm(f, 0) equals the grid L^2 norm (Parseval)."""
    return f.grid.hs_norm(f.grid.rfft(f.values), s)


# ---------------------------------------------------------------------------
# binary dump format
# ---------------------------------------------------------------------------
# One ASCII header line `kgzfield v1 <components> <points_per_axis> <L> <t>\n`
# followed by little-endian float64, row-major over (component, x2, x1).

def write_field(path, f: Field, t: float = 0.0) -> None:
    header = (
        f"kgzfield v1 {f.components} {f.grid.n} "
        f"{f.grid.length!r} {float(t)!r}\n"
    )
    data = np.ascontiguousarray(
        np.swapaxes(f.values, 1, 2), dtype="<f8"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(data.tobytes())


def read_field(path) -> tuple[Field, float]:
    """Read a dumped field; returns (field, t) on the grid its header names."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii")
        parts = header.split()
        if len(parts) != 6 or parts[0] != "kgzfield" or parts[1] != "v1":
            raise ValueError(f"not a kgzfield v1 dump: {header!r}")
        comps, n = int(parts[2]), int(parts[3])
        length, t = float(parts[4]), float(parts[5])
        raw = fh.read()
    if len(raw) != comps * n * n * 8:
        raise ValueError(f"{path}: expected {comps * n * n * 8} data bytes "
                         f"after the header, found {len(raw)}")
    data = np.frombuffer(raw, dtype="<f8").reshape(comps, n, n)
    return Field(make_grid(n, length), np.swapaxes(data, 1, 2).copy()), t
