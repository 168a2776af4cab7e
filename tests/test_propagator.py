import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgz2d.energy_diag import energy
from kgz2d.grid import Field, FieldPair, Spectrum, make_grid
from kgz2d.propagator import (
    InstabilityError,
    LinearOperator,
    forced_step,
    free_step,
)
from kgz2d.system import free_flow, gaussian_data, picard_map

from conftest import dealias, gaussian_pair


def zero_sources(grid):
    def source(t):
        return (Field(grid, np.zeros((2, grid.n, grid.n))),
                Field(grid, np.zeros((1, grid.n, grid.n))))
    return source


def linear_solve(data, T, dt, source):
    """The linear KGZ system from `data`, kicked at every step midpoint tau
    with source(tau) = (Q, S): the solution map applied to a free-flow guess
    whose recorded midpoint sources are replaced by the given ones, packed
    (so dealiased) as the march packs its own."""
    guess = free_flow(data, T, dt)
    g = data.grid
    history = [tuple(Spectrum.pack(g, g.rfft(f.values)) for f in source(tau))
               for tau in guess.source_times]
    return picard_map(dataclasses.replace(guess, source_history=history), data)


def cos_pair(grid):
    u = Field(grid, np.cos(grid.X1))
    return FieldPair(u, Field(grid, np.zeros_like(u.values)))


class TestFreeStep:
    def test_single_mode_eigensolution(self, grid32):
        # cos(x1) has omega = sqrt(1 + 1); exact solution cos(sqrt(2) t) cos(x1)
        op = LinearOperator(grid32, 1)
        p = cos_pair(grid32)
        t = 1.3
        q = free_step(op, p, t)
        exact = np.cos(np.sqrt(2.0) * t) * np.cos(grid32.X1)
        assert np.max(np.abs(q.u.values[0] - exact)) < 1e-13

    def test_zero_dt_identity(self, grid32):
        op = LinearOperator(grid32, 1)
        p = cos_pair(grid32)
        q = free_step(op, p, 0.0)
        assert np.max(np.abs(q.u.values - p.u.values)) <= 1e-15
        assert np.max(np.abs(q.ut.values - p.ut.values)) <= 1e-15

    def test_forward_backward_identity(self, grid64):
        op = LinearOperator(grid64, 1)
        p = gaussian_pair(grid64)
        q = free_step(op, free_step(op, p, 0.37), -0.37)
        assert np.max(np.abs(q.u.values - p.u.values)) <= 1e-12

    def test_semigroup(self, grid64):
        op = LinearOperator(grid64, 0)
        p = gaussian_pair(grid64)
        one = free_step(op, p, 0.9)
        two = free_step(op, free_step(op, p, 0.5), 0.4)
        assert np.max(np.abs(one.u.values - two.u.values)) <= 1e-12
        assert np.max(np.abs(one.ut.values - two.ut.values)) <= 1e-12

    def test_wave_zero_mode_linear_growth(self, grid32):
        # constant data (0, 1): u(t) = t for the m=0 zero mode
        op = LinearOperator(grid32, 0)
        p = FieldPair(Field(grid32, np.zeros((1, 32, 32))),
                      Field(grid32, np.ones((1, 32, 32))))
        q = free_step(op, p, 2.5)
        assert np.max(np.abs(q.u.values - 2.5)) < 1e-13
        assert np.max(np.abs(q.ut.values - 1.0)) < 1e-13

    def test_mass_validation(self, grid32):
        with pytest.raises(ValueError):
            LinearOperator(grid32, 2)

    def test_conservation_thousand_steps(self, grid64):
        op = LinearOperator(grid64, 1)
        p = gaussian_pair(grid64)
        e0 = energy(p, 1)
        for _ in range(1000):
            p = free_step(op, p, 0.1)
        assert abs(energy(p, 1) - e0) / e0 <= 1e-11


def random_coefficients(grid, seed):
    """Random rfft-shaped (u_hat, ut_hat) with a nonzero zero mode."""
    rng = np.random.default_rng(seed)
    shape = (1, grid.n, grid.n // 2 + 1)
    u, ut = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
             for _ in range(2))
    u[0, 0, 0], ut[0, 0, 0] = 1.0, 1.0
    return u, ut


def max_gap(a, b):
    return max(np.max(np.abs(x - y)) for x, y in zip(a, b))


durations = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


class TestRotation:
    @settings(max_examples=40, deadline=None)
    @given(mass=st.sampled_from([0, 1]), a=durations, b=durations,
           seed=st.integers(0, 2**16))
    def test_group_law(self, grid32, mass, a, b, seed):
        rot = LinearOperator(grid32, mass).rotation
        coeffs = random_coefficients(grid32, seed)
        # coefficients are O(1); ut' carries a factor omega <= 23 on grid32
        assert max_gap(rot(a)(*rot(b)(*coeffs)), rot(a + b)(*coeffs)) <= 1e-11

    @settings(max_examples=40, deadline=None)
    @given(mass=st.sampled_from([0, 1]), a=durations, seed=st.integers(0, 2**16))
    def test_reversibility(self, grid32, mass, a, seed):
        rot = LinearOperator(grid32, mass).rotation
        coeffs = random_coefficients(grid32, seed)
        assert max_gap(rot(-a)(*rot(a)(*coeffs)), coeffs) <= 1e-11

    @pytest.mark.parametrize("mass", [0, 1])
    @pytest.mark.parametrize("dt", [0.075, -1.3, 0.0])
    def test_closed_form(self, grid32, mass, dt):
        u, ut = random_coefficients(grid32, 11)
        w = np.sqrt(grid32.spectral["k_sq"] + float(mass) ** 2)
        c = np.cos(w * dt)
        s_over_w = dt * np.sinc(w * dt / np.pi)
        new_u, new_ut = LinearOperator(grid32, mass).rotation(dt)(u, ut)
        assert np.array_equal(new_u, c * u + s_over_w * ut)
        assert np.array_equal(new_ut, -(w**2) * s_over_w * u + c * ut)
        if mass == 0:
            # the zero mode drifts: u' = u + dt*ut, ut' = ut
            assert new_u[0, 0, 0] == u[0, 0, 0] + dt * ut[0, 0, 0]
            assert new_ut[0, 0, 0] == ut[0, 0, 0]


class TestBoxRotation:
    """The rotation over the dealias box acts on packed coefficients
    exactly as the whole-plane rotation acts on their box."""

    @settings(max_examples=40, deadline=None)
    @given(mass=st.sampled_from([0, 1]),
           dt=st.sampled_from([0.0, -0.0]) | durations,
           components=st.sampled_from([1, 2]), seed=st.integers(0, 2**16))
    def test_box_slice_of_whole_plane(self, grid32, mass, dt, components,
                                      seed):
        rng = np.random.default_rng(seed)
        shape = (components,) + grid32.spectral["box_k_sq"].shape
        u, ut = (Spectrum(grid32, rng.standard_normal(shape)
                          + 1j * rng.standard_normal(shape))
                 for _ in range(2))
        box = LinearOperator(grid32, mass, box=True).rotation(dt)
        whole = LinearOperator(grid32, mass).rotation(dt)
        got = box(u.values, ut.values)
        want = (Spectrum.pack(grid32, w)
                for w in whole(u.unpack(), ut.unpack()))
        for level, ref in zip(got, want):
            assert np.array_equal(level, ref.values)

    def test_pipeline_builds_box_coefficients(self, grid64, monkeypatch):
        from kgz2d.scattering import residual_series, scatter_launch
        from kgz2d.system import evolve, evolve_direct_n

        shapes = []
        original = LinearOperator.rotation

        def recorded(self, dt):
            shapes.append(self.omega.shape)
            return original(self, dt)

        monkeypatch.setattr(LinearOperator, "rotation", recorded)
        data = gaussian_data(grid64, 1e-2)
        traj = evolve(data, 1.0, 0.1)
        evolve_direct_n(data, 0.5, 0.1)
        free_flow(data, 0.5, 0.1)
        picard_map(traj, data)
        launch = scatter_launch(traj, 1.0)
        residual_series(traj.states, launch, [1.0, 2.0])
        # 2 per march (4 marches), 10 for the launch, 11 for the residual
        assert len(shapes) == 2 * 4 + 10 + 11
        assert set(shapes) == {grid64.spectral["box_k_sq"].shape}


class TestForcedStep:
    def test_zero_source_matches_free(self, grid64):
        op = LinearOperator(grid64, 1)
        p = gaussian_pair(grid64)
        zero = Field(grid64, np.zeros((1, 64, 64)))
        a = forced_step(op, p, lambda t: zero, 0.0, 0.2)
        b = free_step(op, p, 0.2)
        assert np.max(np.abs(a.u.values - b.u.values)) < 1e-14

    def test_constant_source_second_order(self, grid32):
        # -box u + u = c cos(x1): particular solution c/2 cos(x1);
        # Richardson order check against the exact mode solution
        op = LinearOperator(grid32, 1)
        c = 0.3
        src = Field(grid32, c * np.cos(grid32.X1))
        T = 1.0
        omega = np.sqrt(2.0)

        def run(dt):
            p = FieldPair(Field(grid32, np.zeros((1, 32, 32))),
                          Field(grid32, np.zeros((1, 32, 32))))
            t = 0.0
            for _ in range(int(round(T / dt))):
                p = forced_step(op, p, lambda _t: src, t, dt)
                t += dt
            return p.u.values[0]

        exact = (c / omega**2) * (1 - np.cos(omega * T)) * np.cos(grid32.X1)
        errs = [np.max(np.abs(run(dt) - exact)) for dt in (0.05, 0.025)]
        assert np.log2(errs[0] / errs[1]) >= 1.9

    def test_rejects_nonpositive_dt(self, grid32):
        op = LinearOperator(grid32, 1)
        p = cos_pair(grid32)
        with pytest.raises(ValueError):
            forced_step(op, p, lambda t: p.u, 0.0, -0.1)

    def test_nonfinite_source_rejected(self, grid32):
        op = LinearOperator(grid32, 1)
        p = cos_pair(grid32)
        bad = np.zeros((1, 32, 32))
        bad[0, 0, 0] = np.inf

        def src(t):
            f = Field(grid32, np.ones((1, 32, 32)))
            object.__setattr__(f, "values", bad)
            return f

        with pytest.raises(ValueError):
            forced_step(op, p, src, 0.0, 0.1)

    def test_time_symmetric_source_reversible(self, grid64):
        # source even about the interval midpoint: marching forward then
        # backward through mirrored steps returns the data (Strang symmetry)
        op = LinearOperator(grid64, 1)
        bump = Field(grid64, np.exp(-grid64.R**2))
        T, dt = 1.0, 0.1

        def src(t):
            return Field(grid64, np.cos(np.pi * (t - T / 2)) * bump.values)

        p = gaussian_pair(grid64)
        q = p
        t = 0.0
        for _ in range(int(T / dt)):
            q = forced_step(op, q, src, t, dt)
            t += dt
        # reverse: negate velocities, use the mirrored source, march again
        q = FieldPair(q.u, Field(grid64, -q.ut.values))
        t = 0.0
        for _ in range(int(T / dt)):
            q = forced_step(op, q, lambda s: src(T - s), t, dt)
            t += dt
        assert np.max(np.abs(q.u.values - p.u.values)) <= 1e-10


class TestSolveLinear:
    """Solving the linear equations.  Free data needs no march: the exact
    propagator sampled at the snapshot times, free_step(op, data, t_k), is
    the free solution.  Recorded sources are applied by the one Strang
    march, through the solution map picard_map, whose guards live there."""

    def test_zero_everything(self, grid64):
        op = LinearOperator(grid64, 1)
        z = Field(grid64, np.zeros((1, 64, 64)))
        pairs = [free_step(op, FieldPair(z, z), t) for t in 0.1 * np.arange(11)]
        assert len(pairs) == 11
        assert all(np.all(p.u.values == 0) for p in pairs)

    def test_first_snapshot_is_data(self, grid64):
        # the march keeps the data's dealiased fields as its t = 0 snapshot
        data = gaussian_data(grid64, 1e-2)
        first = linear_solve(data, 0.5, 0.1, zero_sources(grid64)).states[0]
        assert first.t == 0.0
        assert np.array_equal(first.E.u.values, dealias(data.E0).values)
        assert np.array_equal(first.n_delta.ut.values,
                              dealias(data.n1_delta).values)

    def test_free_energy_constant(self, grid64):
        op = LinearOperator(grid64, 1)
        p = gaussian_pair(grid64)
        energies = [energy(free_step(op, p, t), 1) for t in 0.1 * np.arange(51)]
        drift = (max(energies) - min(energies)) / energies[0]
        assert drift <= 1e-12

    def test_dt_must_divide(self, grid64):
        with pytest.raises(ValueError, match="does not divide"):
            free_flow(gaussian_data(grid64, 1e-2), 1.0, 0.3)

    def test_instability_abort(self, grid64):
        def exploding(t):
            grow = np.exp(t * 40.0)
            return (Field(grid64, np.full((2, 64, 64), grow)),
                    Field(grid64, np.full((1, 64, 64), grow)))

        with pytest.raises(InstabilityError, match="amplitude exceeded"):
            linear_solve(gaussian_data(grid64, 1e-2), 2.0, 0.1, exploding)

    def test_non_finite_blow_up_is_caught_at_once(self, grid64):
        # a source at the edge of the float range overflows the transform
        # and turns the state to NaN in the first step
        bump = np.exp(-grid64.R**2)[None]

        def huge(t):
            return (Field(grid64, 1e307 * np.concatenate([bump, bump])),
                    Field(grid64, 1e307 * bump))

        with np.errstate(all="ignore"):
            with pytest.raises(InstabilityError, match="t=0.05:"):
                linear_solve(gaussian_data(grid64, 1e-2), 1.0, 0.05, huge)

    def test_wave_self_convergence(self):
        # Gaussian data, m=0: coarse grid against a 2x-resolution oracle
        results = {}
        for n in (48, 96):
            g = make_grid(n, 12.0)
            op = LinearOperator(g, 0)
            pair = free_step(op, gaussian_pair(g, amplitude=1.0), 4.0)
            results[n] = np.max(np.abs(pair.u.values))
        rel = abs(results[48] - results[96]) / abs(results[96])
        assert rel <= 1e-4
