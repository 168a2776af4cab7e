import dataclasses
import math

import numpy as np
import pytest

from kgz2d.grid import Field, FieldPair, Grid, bump_window, make_grid
from kgz2d.system import gaussian_data
from kgz2d.vector_fields import WordPlanes


def windowed_random_field(grid, seed, components=1, modes=6):
    """Random low-mode field times a smooth radial window.

    The window keeps the samples effectively supported inside the box so
    constructions with unbounded coefficients (x_a u) stay spectrally clean.
    """
    rng = np.random.default_rng(seed)
    spec = np.zeros((components, grid.n, grid.n // 2 + 1), dtype=complex)
    spec[:, :modes, :modes] = rng.standard_normal((components, modes, modes)) \
        + 1j * rng.standard_normal((components, modes, modes))
    spec[:, -modes:, :modes] = rng.standard_normal((components, modes, modes)) \
        + 1j * rng.standard_normal((components, modes, modes))
    return grid.irfft(spec) * bump_window(grid, 0.4 * grid.length)


def windowed_random_jet(grid, seed, t=0.8, components=1, depth=2):
    """The word planes of an arbitrary windowed jet (u, u_t, ...) up to the
    depth-th time derivative, each level packed by box_rfft (the commutator
    identities hold for any jet)."""
    return WordPlanes(grid, t, [
        grid.box_rfft(windowed_random_field(grid, seed + 1000 * j, components))
        for j in range(depth + 1)])


def pack(grid, hat):
    """Reference packing: the dealias box of a whole half spectrum of shape
    (components, n, n//2 + 1), as Grid.box_rfft returns it."""
    rows, cols = grid.spectral["box"]
    return hat[..., rows, :cols]


def cut(want, live):
    """An untrimmed reference cut to a trimmed result's leading live
    components: the components it drops must be exactly zero."""
    assert not np.any(want[live:])
    return want[:live]


def dealias(f):
    """Reference 2/3-rule dealiasing of a Field: every mode outside the
    grid's dealias mask zeroed, one transform each way."""
    g = f.grid
    return Field(g, g.irfft(g.spectral["dealias_mask"] * g.rfft(f.values)))


def gaussian_pair(grid, amplitude=1e-2, width=1.0, components=1):
    g = np.exp(-(grid.X1**2 + grid.X2**2) / (2.0 * width**2))
    vals = np.stack([amplitude * g] + [np.zeros_like(g)] * (components - 1))
    zeros = np.zeros_like(vals)
    return FieldPair(Field(grid, vals), Field(grid, zeros))


def turned_data(grid, angle, amplitude):
    """gaussian_data with E0 turned by angle in the plane of E's two
    components: angle 0 is gaussian_data itself, any other makes both
    components live."""
    data = gaussian_data(grid, amplitude)
    u = data.E0.values[0]
    return dataclasses.replace(data, E0=Field(grid, np.stack(
        [np.cos(angle) * u, np.sin(angle) * u])))


@pytest.fixture(scope="session")
def grid32():
    return make_grid(32, np.pi)


@pytest.fixture(scope="session")
def grid64():
    return make_grid(64, 12.0)


@pytest.fixture(scope="session")
def grid128():
    return make_grid(128, 24.0)


@pytest.fixture
def transforms(monkeypatch):
    """Counts of transforms from the moment of reset, whole-plane forward
    ("rfft", Grid.rfft) and inverse ("irfft", Grid.irfft) apart from those
    pruned to the dealias box ("box_rfft", Grid.box_rfft, and "box_irfft",
    Grid.box_irfft)."""
    names = ("rfft", "irfft", "box_rfft", "box_irfft")
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(Grid, name)

        def counted(self, arr, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, arr)

        monkeypatch.setattr(Grid, name, counted)

    def reset():
        calls.update(dict.fromkeys(names, 0))
        return calls

    return reset


@pytest.fixture
def planes(monkeypatch):
    """Counts of component planes transformed from the moment of reset, by
    the numpy.fft entry point each Grid transform calls: whole-plane
    forward ("rfft", rfft2) and inverse ("irfft", irfft2), and the first
    pass of a pruned forward ("box_rfft", rfft) and the last of a pruned
    inverse ("box_irfft", irfft).  An array of shape (c, n, n) or
    (c, rows, cols) counts c planes, a 2-D one 1."""
    entries = {"rfft": "rfft2", "irfft": "irfft2",
               "box_rfft": "rfft", "box_irfft": "irfft"}
    counts = dict.fromkeys(entries, 0)
    for name, entry in entries.items():
        original = getattr(np.fft, entry)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            counts[_name] += math.prod(np.shape(a)[:-2])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, entry, counted)

    def reset():
        counts.update(dict.fromkeys(entries, 0))
        return counts

    return reset
