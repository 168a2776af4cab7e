import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kgz2d.grid import (
    Field,
    FieldPair,
    h_norm,
    l2_norm,
    laplacian,
    make_grid,
    partial,
    read_field,
    write_field,
)

from conftest import dealias, pack, windowed_random_field


class TestMakeGrid:
    def test_eight_pi(self):
        g = make_grid(8, np.pi)
        assert g.h == np.pi / 4
        assert g.h * g.n == 2 * np.pi
        assert sorted(g.k1) == pytest.approx(list(range(-4, 4)), abs=1e-14)

    def test_sixteen_ten(self):
        g = make_grid(16, 10.0)
        assert g.h == 1.25

    def test_sixtyfour_forty(self):
        g = make_grid(64, 40.0)
        assert g.n * g.n == 4096
        assert np.max(np.abs(g.k1)) == pytest.approx(32 * np.pi / 40, rel=1e-15)

    @pytest.mark.parametrize("n", [7, 6, 2, 33])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            make_grid(n, 1.0)

    def test_rejects_nonpositive_box(self):
        with pytest.raises(ValueError):
            make_grid(16, 0.0)
        with pytest.raises(ValueError):
            make_grid(16, -3.0)


class TestField:
    def test_rejects_nan(self, grid32):
        vals = np.zeros((1, 32, 32))
        vals[0, 3, 4] = np.nan
        with pytest.raises(ValueError):
            Field(grid32, vals)

    def test_rejects_three_components(self, grid32):
        with pytest.raises(ValueError):
            Field(grid32, np.zeros((3, 32, 32)))

    def test_pair_shape_mismatch(self, grid32):
        a = Field(grid32, np.zeros((1, 32, 32)))
        b = Field(grid32, np.zeros((2, 32, 32)))
        with pytest.raises(ValueError):
            FieldPair(a, b)


class TestLaplacian:
    def test_cos_eigenfunction(self, grid32):
        f = Field(grid32, np.cos(grid32.X1))
        err = np.max(np.abs(laplacian(f).values + f.values))
        assert err < 1e-12

    def test_constant(self, grid32):
        f = Field(grid32, np.ones((1, 32, 32)))
        assert np.max(np.abs(laplacian(f).values)) < 1e-13

    def test_matches_five_point_stencil_at_second_order(self):
        # independent oracle: 5-point finite-difference Laplacian at two
        # resolutions; the difference to the spectral result is the FD error
        errs = []
        for n in (32, 64):
            g = make_grid(n, 10.0)
            u = np.exp(-(g.X1**2 + g.X2**2) / 2.0)
            spec = laplacian(Field(g, u)).values[0]
            fd = (np.roll(u, 1, 0) + np.roll(u, -1, 0) + np.roll(u, 1, 1)
                  + np.roll(u, -1, 1) - 4 * u) / g.h**2
            errs.append(np.max(np.abs(spec - fd)))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.9

    def test_composition_of_partials(self, grid64):
        u = windowed_random_field(grid64, 11)
        f = Field(grid64, u)
        lap = laplacian(f)
        composed = (partial(partial(f, 1), 1).values
                    + partial(partial(f, 2), 2).values)
        scale = np.max(np.abs(lap.values))
        assert np.max(np.abs(lap.values - composed)) <= 1e-10 * scale


class TestPartial:
    def test_sin_derivative(self, grid32):
        f = Field(grid32, np.sin(grid32.X1))
        err = np.max(np.abs(partial(f, 1).values[0] - np.cos(grid32.X1)))
        assert err < 1e-12

    def test_independent_axis(self, grid32):
        f = Field(grid32, np.sin(grid32.X1))
        assert np.max(np.abs(partial(f, 2).values)) < 1e-13

    def test_invalid_axis(self, grid32):
        f = Field(grid32, np.zeros((1, 32, 32)))
        with pytest.raises(ValueError):
            partial(f, 3)

    def test_matches_centered_difference_at_second_order(self):
        errs = []
        for n in (32, 64):
            g = make_grid(n, 10.0)
            u = np.exp(-(g.X1**2 + g.X2**2) / 2.0)
            spec = partial(Field(g, u), 1).values[0]
            fd = (np.roll(u, -1, 0) - np.roll(u, 1, 0)) / (2 * g.h)
            errs.append(np.max(np.abs(spec - fd)))
        assert np.log2(errs[0] / errs[1]) >= 1.9


class TestTransforms:
    def test_round_trip(self, grid64):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((2, 64, 64))
        back = grid64.irfft(grid64.rfft(vals))
        assert np.max(np.abs(back - vals)) <= 1e-12 * np.max(np.abs(vals))

    def test_parseval(self, grid64):
        rng = np.random.default_rng(4)
        f = Field(grid64, rng.standard_normal((1, 64, 64)))
        assert h_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-10)

    def test_one_transform_path(self):
        # Grid.rfft / Grid.irfft are the only transforms: no other module
        # may call an FFT library directly
        src = Path(__file__).resolve().parents[1] / "src" / "kgz2d"
        pattern = re.compile(r"\b(np|numpy|scipy)\.fft\b"
                             r"|from\s+(numpy|scipy)\s+import\s+fft\b")
        modules = sorted(src.glob("*.py"))
        assert len(modules) > 1
        offenders = [m.name for m in modules
                     if m.name != "grid.py" and pattern.search(m.read_text())]
        assert offenders == []

    def test_dealias_idempotent(self, grid64):
        # packing a field's whole rfft is its dealiasing
        rng = np.random.default_rng(5)
        f = Field(grid64, rng.standard_normal((1, 64, 64)))
        once = grid64.box_irfft(pack(grid64, grid64.rfft(f.values)))
        twice = grid64.box_irfft(pack(grid64, grid64.rfft(once)))
        assert np.max(np.abs(once - twice)) < 1e-14


class TestSobolevNorm:
    def test_zero(self, grid32):
        z = Field(grid32, np.zeros((1, 32, 32)))
        assert h_norm(z, 0.0) == 0.0

    def test_cos_l2_closed_form(self, grid32):
        # int cos^2 over [-pi, pi)^2 = 2 pi^2; quadrature oracle agrees
        u = Field(grid32, np.cos(grid32.X1))
        quad = np.sqrt(np.sum(np.cos(grid32.X1) ** 2) * grid32.cell_area)
        val = h_norm(u, 0.0)
        assert val == pytest.approx(np.sqrt(2 * np.pi**2), rel=1e-12)
        assert val == pytest.approx(quad, rel=1e-12)

    def test_s0_equals_l2(self, grid64):
        rng = np.random.default_rng(6)
        u = Field(grid64, rng.standard_normal((1, 64, 64)))
        assert h_norm(u, 0.0) == pytest.approx(l2_norm(u), rel=1e-12)

    @staticmethod
    def full_fft_h_norm(f, s):
        """The full-plane FFT formula the half-spectrum h_norm replaced."""
        g = f.grid
        hat = np.fft.fft2(f.values, axes=(-2, -1))
        kx = g.k1[:, None]
        ky = g.k1[None, :]
        weight = (1.0 + kx**2 + ky**2) ** s
        total = np.sum(weight * np.abs(hat) ** 2)
        return float(np.sqrt(total * g.cell_area / g.n**2))

    @pytest.mark.parametrize("components", [1, 2])
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0])
    def test_half_spectrum_matches_full_fft(self, grid64, s, components):
        # white noise fills the zero and Nyquist columns too
        rng = np.random.default_rng(8)
        for vals in (rng.standard_normal((components, 64, 64)),
                     windowed_random_field(grid64, 9, components)):
            f = Field(grid64, vals)
            assert h_norm(f, s) == pytest.approx(
                self.full_fft_h_norm(f, s), rel=1e-13)

    def test_negative_s_rejected(self, grid64):
        u = Field(grid64, np.zeros((1, 64, 64)))
        with pytest.raises(ValueError):
            h_norm(u, -0.5)


grid_sizes = st.sampled_from([8, 10, 16, 64])
seeds = st.integers(0, 2**16)


def masked_random_spectrum(grid, seed, components):
    """The dealiased rfft of a random real field, as the march holds it."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((components, grid.n, grid.n))
    return grid.spectral["dealias_mask"] * grid.rfft(values)


class TestSpectrum:
    @settings(max_examples=30, deadline=None)
    @given(n=grid_sizes, components=st.sampled_from([1, 2]), seed=seeds)
    def test_pack_unpack_round_trip(self, n, components, seed):
        g = make_grid(n, 3.0)
        hat = masked_random_spectrum(g, seed, components)
        packed = pack(g, hat)
        assert packed.size == components * np.count_nonzero(
            g.spectral["dealias_mask"])
        assert np.array_equal(g.unpack(packed), hat)

    @settings(max_examples=30, deadline=None)
    @given(n=grid_sizes, components=st.sampled_from([1, 2]), seed=seeds,
           s=st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    def test_packed_norm_matches_h_norm(self, n, components, seed, s):
        g = make_grid(n, 3.0)
        packed = pack(g, masked_random_spectrum(g, seed, components))
        assert g.hs_norm(packed, s) == pytest.approx(
            h_norm(Field(g, g.box_irfft(packed)), s), rel=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([16, 64]), components=st.sampled_from([1, 2]),
           seed=seeds)
    def test_box_transforms_match_the_whole_plane(self, n, components, seed):
        g = make_grid(n, 3.0)
        values = np.random.default_rng(seed).standard_normal(
            (components, n, n))
        packed = pack(g, g.rfft(values))
        assert np.array_equal(g.box_rfft(values), packed)
        assert np.array_equal(g.box_irfft(packed), g.irfft(g.unpack(packed)))

    def test_packing_dealiases(self, grid64):
        # white noise fills every mode, the ones outside the box too
        f = Field(grid64, np.random.default_rng(3).standard_normal((2, 64, 64)))
        packed = pack(grid64, grid64.rfft(f.values))
        assert np.array_equal(grid64.box_irfft(packed), dealias(f).values)

    def test_rejects_foreign_shape(self, grid64):
        with pytest.raises(ValueError, match="neither a half spectrum"):
            grid64.hs_norm(np.zeros((1, 64, 64), dtype=complex), 1.0)


def reference_box_irfft(g, box):
    rows, cols = g.spectral["box"]
    columns = np.zeros(box.shape[:-2] + (g.n, cols), dtype=complex)
    columns[..., rows, :] = box
    return np.fft.irfft(np.fft.ifft(columns, axis=-2), n=g.n, axis=-1)


# Each Grid transform's numpy calls on the whole array, as they ran before
# the transforms skipped zero components: the per-component reference, and
# the output layout (box_rfft's fancy index leaves its rows outermost in
# memory, the order Grid.parseval's sums follow)
REFERENCE_TRANSFORMS = {
    "rfft": lambda g, a: np.fft.rfft2(a, axes=(-2, -1)),
    "irfft": lambda g, a: np.fft.irfft2(a, s=(g.n, g.n), axes=(-2, -1)),
    "box_rfft": lambda g, a: np.fft.fft(
        np.fft.rfft(a, axis=-1)[..., :g.spectral["box"][1]],
        axis=-2)[..., g.spectral["box"][0], :],
    "box_irfft": reference_box_irfft,
}


class TestZeroComponents:
    """Every transform runs only over the leading components that are not
    all zero and gives each all-zero one exact +0.0.  Today's whole-array
    transform of +0 data gives -0.0 in a few imaginary entries, where the
    skip gives +0.0; no output reads that sign (every reader squares, adds
    or multiplies the coefficients), so array_equal, which equates the two
    zeros, is the exactness asserted."""

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("name", sorted(REFERENCE_TRANSFORMS))
    @settings(max_examples=25, deadline=None)
    @given(components=st.sampled_from([0, 1, 2, 3]),
           zeroed=st.lists(st.booleans(), min_size=3, max_size=3),
           seed=seeds)
    @example(components=0, zeroed=[True] * 3, seed=0)
    @example(components=3, zeroed=[True] * 3, seed=0)
    @example(components=3, zeroed=[False, True, False], seed=0)
    def test_matches_the_per_component_transform(self, n, name, components,
                                                 zeroed, seed):
        # components 0 is a bare 2-D array, itself one component
        g = make_grid(n, 3.0)
        reference = REFERENCE_TRANSFORMS[name]
        values = np.random.default_rng(seed).standard_normal(
            (max(components, 1), n, n))
        arg = {"rfft": values, "box_rfft": values,
               "irfft": REFERENCE_TRANSFORMS["rfft"](g, values),
               "box_irfft": REFERENCE_TRANSFORMS["box_rfft"](g, values)}[name]
        arg[np.array(zeroed[:len(arg)])] = 0.0
        arg = arg if components else arg[0]
        got, whole = getattr(g, name)(arg), reference(g, arg)
        assert (got.shape, got.dtype, got.strides) \
            == (whole.shape, whole.dtype, whole.strides)
        stack = got if components else got[None]
        want = [reference(g, c) for c in (arg if components else arg[None])]
        assert np.array_equal(stack, np.stack(want))
        for c, zero in zip(stack, zeroed):
            if zero:
                assert not np.any(c)
                assert not np.any(np.signbit(c.real) | np.signbit(c.imag))


class TestParseval:
    """Grid.parseval against the physical-space sums it replaces."""

    @staticmethod
    def physical_sums(f):
        g = f.grid
        grad = partial(f, 1).values ** 2 + partial(f, 2).values ** 2
        return (np.sum(f.values**2) * g.cell_area,
                np.sum(grad) * g.cell_area)

    @settings(max_examples=30, deadline=None)
    @given(n=grid_sizes, components=st.sampled_from([1, 2]), seed=seeds)
    def test_whole_spectrum(self, n, components, seed):
        g = make_grid(n, 3.0)
        rng = np.random.default_rng(seed)
        f = Field(g, rng.standard_normal((components, n, n)))
        hat = g.rfft(f.values)
        # white noise: the zero and Nyquist columns are not zero
        assert np.all(np.any(hat[..., 0] != 0, axis=-1))
        assert np.all(np.any(hat[..., -1] != 0, axis=-1))
        l2, grad = self.physical_sums(f)
        assert g.parseval(hat) == pytest.approx(l2, rel=1e-12)
        assert g.parseval(hat, g.spectral["grad_sq"]) == pytest.approx(
            grad, rel=1e-12)
        # the Nyquist modes' k^2 is not the derivatives' (zero) weight
        assert g.parseval(hat, g.spectral["k_sq"]) > grad * (1 + 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(n=grid_sizes, components=st.sampled_from([1, 2]), seed=seeds)
    def test_packed_box(self, n, components, seed):
        g = make_grid(n, 3.0)
        packed = pack(g, masked_random_spectrum(g, seed, components))
        assert np.all(np.any(packed[..., 0] != 0, axis=-1))
        l2, grad = self.physical_sums(Field(g, g.box_irfft(packed)))
        assert g.parseval(packed) == pytest.approx(l2, rel=1e-12)
        # the box holds no Nyquist mode, so there k^2 is the gradient weight
        assert g.parseval(packed, g.spectral["box_k_sq"]) \
            == pytest.approx(grad, rel=1e-12)

    @pytest.mark.parametrize("components", [1, 2])
    def test_edge_plane_times_x1(self, grid64, components):
        # a packed plane that reaches the box edge, times the sawtooth x_1,
        # is not band-limited, as Gamma dE is for rot, L1 and L2; discrete
        # Parseval holds for it all the same
        g = grid64
        plane = g.box_irfft(pack(g, masked_random_spectrum(g, 7, components)))
        assert np.max(np.abs(plane[:, 0])) >= 0.1 * np.max(np.abs(plane))
        v = g.X1 * plane
        hat = g.rfft(v)
        outside = g.parseval(hat, ~g.spectral["dealias_mask"])
        assert outside >= 1e-3 * g.parseval(hat)
        assert g.parseval(hat) == pytest.approx(
            np.sum(v**2) * g.cell_area, rel=1e-13)


class TestDumpFormat:
    @settings(max_examples=30, deadline=None)
    @given(n=grid_sizes, components=st.sampled_from([1, 2]), seed=seeds,
           length=st.floats(0.1, 1e3), t=st.floats(-1e6, 1e6))
    def test_round_trip_property(self, n, components, seed, length, t):
        g = make_grid(n, length)
        rng = np.random.default_rng(seed)
        f = Field(g, rng.standard_normal((components, n, n)))
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "f.kgz"
            write_field(path, f, t)
            back, t_back = read_field(path)
        assert t_back == t
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_round_trip_bit_exact(self, tmp_path, grid64):
        rng = np.random.default_rng(7)
        f = Field(grid64, rng.standard_normal((2, 64, 64)))
        path = tmp_path / "field.kgz"
        write_field(path, f, t=2.625)
        f2, t = read_field(path)
        assert t == 2.625
        assert f2.grid == grid64
        assert np.array_equal(f2.values, f.values)

    def test_header_and_layout(self, tmp_path):
        g = make_grid(8, 1.0)
        vals = np.arange(64, dtype=float).reshape(1, 8, 8)
        path = tmp_path / "layout.kgz"
        write_field(path, Field(g, vals), t=0.0)
        raw = path.read_bytes()
        header, _, body = raw.partition(b"\n")
        assert header.startswith(b"kgzfield v1 1 8 ")
        data = np.frombuffer(body, dtype="<f8")
        # row-major over (component, x2, x1): x1 varies fastest
        assert data[0] == vals[0, 0, 0]
        assert data[1] == vals[0, 1, 0]
        assert data[8] == vals[0, 0, 1]

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.kgz"
        path.write_bytes(b"not a dump\n")
        with pytest.raises(ValueError):
            read_field(path)

    @pytest.mark.parametrize("edit", ["append", "truncate"])
    def test_rejects_wrong_length(self, tmp_path, grid64, edit):
        path = tmp_path / "field.kgz"
        write_field(path, Field(grid64, np.ones((1, 64, 64))), t=1.0)
        raw = path.read_bytes()
        raw = raw + bytes(8) if edit == "append" else raw[:-16]
        path.write_bytes(raw)
        found = 64 * 64 * 8 + (8 if edit == "append" else -16)
        with pytest.raises(ValueError, match=f"expected 32768 data bytes "
                                             f"after the header, found {found}"):
            read_field(path)
