import dataclasses

import numpy as np
import pytest

from kgz2d.grid import (Field, FieldPair, Spectrum, dealias, make_grid,
                        read_field)
from kgz2d.propagator import LinearOperator, free_step
from kgz2d.scattering import (
    MissingHistoryError,
    TailDivergenceError,
    build_scatter_data,
    duhamel_tail_norm,
    residual_series,
    scatter_launch,
    source_norm_series,
    write_profile,
)
from kgz2d.system import InitialData, evolve, gaussian_data


@pytest.fixture(scope="module")
def run_grid():
    return make_grid(128, 24.0)


@pytest.fixture(scope="module")
def nonlinear_run(run_grid):
    data = gaussian_data(run_grid, 1e-2)
    return evolve(data, 14.0, 0.1)


def wave_only_data(grid):
    z2 = Field(grid, np.zeros((2, grid.n, grid.n)))
    g = np.exp(-(grid.X1**2 + grid.X2**2) / 2.0)
    return InitialData(E0=z2, E1=z2,
                       n0_delta=Field(grid, 1e-2 * g),
                       n1_delta=Field(grid, np.zeros_like(g)))


def with_history(traj, history):
    """Clone a trajectory with a synthetic midpoint source history of
    (Q, S) fields, packed as the march packs its own: truncated to the
    dealias box."""
    g = traj.grid
    packed = [tuple(Spectrum.pack(g, g.rfft(f.values)) for f in pair)
              for pair in history]
    return dataclasses.replace(traj, source_history=packed)


class TestSourceNorms:
    def test_zero_source_run(self, run_grid):
        traj = evolve(wave_only_data(run_grid), 4.0, 0.1)
        times, norms, running = source_norm_series(traj, 1.0)
        assert np.all(norms == 0.0)
        assert np.all(running == 0.0)

    def test_running_integral_monotone(self, nonlinear_run):
        _, norms, running = source_norm_series(nonlinear_run, 1.0)
        assert np.all(np.diff(running) >= 0)

    def test_missing_history(self, run_grid):
        traj = evolve(gaussian_data(run_grid, 1e-2), 2.0, 0.1,
                      record_sources=False)
        with pytest.raises(MissingHistoryError):
            source_norm_series(traj, 1.0)


class TestSparseRecord:
    """A record without every step cannot give the Duhamel quadrature."""

    @pytest.fixture(scope="class")
    def sparse_run(self, run_grid):
        return evolve(gaussian_data(run_grid, 1e-2), 2.0, 0.1,
                      record_sources=4)

    def test_norms_and_launch_rejected(self, sparse_run):
        for read in (lambda: source_norm_series(sparse_run, 1.0),
                     lambda: scatter_launch(sparse_run, 2.0)):
            with pytest.raises(MissingHistoryError,
                               match="every 4-th step only"):
                read()

    def test_tail_norm_rejected(self, sparse_run, run_grid):
        full = evolve(gaussian_data(run_grid, 1e-2), 2.0, 0.1)
        profile = build_scatter_data(full, 1.0, require_convergent_tail=False)
        with pytest.raises(MissingHistoryError, match="every 4-th step only"):
            duhamel_tail_norm(sparse_run, profile, 1.0)


class TestBuildScatterData:
    def test_zero_source_returns_data(self, run_grid):
        traj = evolve(wave_only_data(run_grid), 6.0, 0.1)
        profile = build_scatter_data(traj, 1.0, t_max=6.0)
        diff_u = profile.data_plus.u.values - traj.states[0].E.u.values
        assert np.max(np.abs(diff_u)) == 0.0
        assert profile.captured == 0.0

    def test_single_kick_analytic(self, run_grid, nonlinear_run):
        # one delta-like source sample: the profile shift is exactly
        # dt * S1(-tau)(0, Q), Q the dealiased bump the record holds
        g = run_grid
        bump = Field(g, np.exp(-g.R**2)[None] * np.ones((2, 1, 1)))
        zero2 = Field(g, np.zeros((2, g.n, g.n)))
        zero1 = Field(g, np.zeros((1, g.n, g.n)))
        k0 = 7
        history = [(zero2, zero1)] * len(nonlinear_run.source_history)
        history[k0] = (bump, zero1)
        traj = with_history(nonlinear_run, history)
        profile = build_scatter_data(traj, 1.0)
        tau = traj.source_times[k0]
        op = LinearOperator(g, 1)
        kicked = free_step(op, FieldPair(zero2, dealias(bump)), -tau)
        want_u = traj.states[0].E.u.values + traj.dt * kicked.u.values
        assert np.max(np.abs(profile.data_plus.u.values - want_u)) <= 1e-14

    def test_linearity_in_source(self, run_grid, nonlinear_run):
        g = run_grid
        zero1 = Field(g, np.zeros((1, g.n, g.n)))
        env = np.exp(-g.R**2 / 4.0)

        def hist(seed):
            # random signs with a decaying amplitude so the tail fit stays
            # in its convergent regime
            r = np.random.default_rng(seed)
            return [(Field(g, r.standard_normal() * (1 + tau) ** (-2.0)
                           * env * np.ones((2, 1, 1))), zero1)
                    for tau in nonlinear_run.source_times]

        ha, hb = hist(1), hist(2)
        hsum = [(Field(g, a[0].values + b[0].values), zero1)
                for a, b in zip(ha, hb)]
        base = nonlinear_run.states[0].E.u.values
        kw = {"require_convergent_tail": False}
        pa = build_scatter_data(with_history(nonlinear_run, ha), 1.0, **kw)
        pb = build_scatter_data(with_history(nonlinear_run, hb), 1.0, **kw)
        ps = build_scatter_data(with_history(nonlinear_run, hsum), 1.0, **kw)
        lhs = ps.data_plus.u.values - base
        rhs = (pa.data_plus.u.values - base) + (pb.data_plus.u.values - base)
        scale = max(np.max(np.abs(lhs)), 1e-30)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    def test_quadrature_refinement(self):
        # same physics at dt and dt/2; the two Duhamel accumulations agree
        # to the stepper's second-order accuracy
        g = make_grid(96, 18.0)
        data = gaussian_data(g, 1e-3)
        profiles = {}
        for dt in (0.1, 0.05):
            traj = evolve(data, 8.0, dt)
            profiles[dt] = build_scatter_data(traj, 1.0, t_max=8.0)
        diff = np.max(np.abs(profiles[0.1].data_plus.u.values
                             - profiles[0.05].data_plus.u.values))
        assert diff <= 1e-6

    def test_tmax_beyond_horizon(self, nonlinear_run):
        with pytest.raises(ValueError):
            build_scatter_data(nonlinear_run, 1.0, t_max=99.0)

    def test_divergent_tail_rejected(self, run_grid, nonlinear_run):
        # constant-in-time source norm: slope ~ 0 >= -1
        g = run_grid
        env = Field(g, np.exp(-g.R**2)[None] * np.ones((2, 1, 1)))
        zero1 = Field(g, np.zeros((1, g.n, g.n)))
        history = [(env, zero1) for _ in nonlinear_run.source_times]
        with pytest.raises(TailDivergenceError):
            build_scatter_data(with_history(nonlinear_run, history), 1.0)


class TestResidualSeries:
    def test_zero_source_zero_residual(self, run_grid):
        traj = evolve(wave_only_data(run_grid), 6.0, 0.1)
        profile = build_scatter_data(traj, 1.0, t_max=6.0)
        _, res = residual_series(traj, profile)
        assert np.max(res) <= 1e-12

    def test_consistency_identity(self, nonlinear_run):
        # residual(t) equals the norm of the remaining Duhamel sum
        profile = build_scatter_data(nonlinear_run, 1.0, t_max=12.0,
                                     require_convergent_tail=False)
        times, res = residual_series(nonlinear_run, profile)
        for t in (3.0, 7.0, 10.0):
            k = nonlinear_run.index_at(t)
            tail = duhamel_tail_norm(nonlinear_run, profile, t)
            assert abs(res[k] - tail) <= 1e-8

    def test_residual_at_cut_below_tail(self, nonlinear_run):
        profile = build_scatter_data(nonlinear_run, 1.0, t_max=12.0,
                                     require_convergent_tail=False)
        times, res = residual_series(nonlinear_run, profile)
        k = nonlinear_run.index_at(12.0)
        assert res[k] <= profile.tail + 1e-10

    def test_grid_mismatch(self, nonlinear_run):
        g2 = make_grid(64, 12.0)
        traj2 = evolve(gaussian_data(g2, 1e-2), 2.0, 0.1)
        profile = build_scatter_data(nonlinear_run, 1.0, t_max=12.0,
                                     require_convergent_tail=False)
        with pytest.raises(ValueError):
            residual_series(traj2, profile)


class TestPersistence:
    def test_profile_round_trip(self, tmp_path, nonlinear_run):
        profile = build_scatter_data(nonlinear_run, 1.0, t_max=12.0,
                                     require_convergent_tail=False)
        prefix = tmp_path / "prof"
        write_profile(prefix, profile)
        for part, pair_field in (("u", profile.data_plus.u),
                                 ("ut", profile.data_plus.ut)):
            back, t = read_field(f"{prefix}_{part}.kgz", profile.grid)
            assert t == 0.0
            assert np.array_equal(back.values, pair_field.values)
        meta = dict(item.split("=")
                    for item in (tmp_path / "prof_meta.txt").read_text().split())
        assert float(meta["T_max"]) == profile.t_max
        assert float(meta["tail"]) == profile.tail
        assert float(meta["s"]) == profile.s
        assert float(meta["tail_slope"]) == profile.tail_slope
        assert float(meta["captured"]) == profile.captured
