import dataclasses

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgz2d.grid import Field, FieldPair, make_grid, read_field
from kgz2d.propagator import LinearOperator, free_step
from kgz2d import scattering
from kgz2d.scattering import (
    DuhamelSum,
    DuhamelTail,
    MissingHistoryError,
    ScatterProfile,
    TailDivergenceError,
    build_scatter_data,
    midpoints,
    residual_series,
    scatter_launch,
    source_norm_series,
    write_profile,
)
from kgz2d.system import (InitialData, KGZState, _march, evolve,
                          gaussian_data)

from conftest import cut, dealias, pack


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


def linear_march(data, T, dt, kicks):
    """The linear flow of data kicked at each step's midpoint by the
    (Q, S) fields in kicks, packed as the march packs its own sources: the
    solution map of picard_map with kicks that need not come from a
    guess."""
    g = data.grid
    packed = [tuple(pack(g, g.rfft(f.values)) for f in pair)
              for pair in kicks]
    return _march(data, T, dt, kicks=packed, store_every=1,
                  record_sources=False)


def recorded_tails(traj, t_max, probes):
    """A DuhamelTail fed the trajectory's recorded sources."""
    tails = DuhamelTail(traj.grid, traj.dt, t_max, probes)
    for tau, sources in zip(midpoints(len(traj.source_history), traj.dt),
                            traj.source_history):
        tails.add(tau, sources, None)
    return tails


def with_history(traj, history):
    """Clone a trajectory with a synthetic midpoint source history of
    (Q, S) fields, packed as the march packs its own: truncated to the
    dealias box."""
    g = traj.grid
    packed = [tuple(pack(g, g.rfft(f.values)) for f in pair)
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


class TestBuildScatterData:
    def test_zero_source_returns_data(self, run_grid):
        traj = evolve(wave_only_data(run_grid), 6.0, 0.1)
        profile = build_scatter_data(traj, 1.0, t_max=6.0)
        diff_u = profile.data_plus.u.values - traj.states[0].E.u.values
        assert np.max(np.abs(diff_u)) == 0.0
        assert profile.captured == 0.0

    def test_single_kick_analytic(self, run_grid):
        # the linear flow kicked once, at midpoint tau, by a bump Q: its
        # launch R(-t_K) E(t_K) is exactly E(0) + dt * S1(-tau)(0, Q), Q the
        # dealiased bump the march kicks with, along E's one live component
        g = run_grid
        data = gaussian_data(g, 1e-2)
        bump = Field(g, np.exp(-g.R**2)[None])
        zero1 = Field(g, np.zeros((1, g.n, g.n)))
        k0, dt, T = 7, 0.1, 14.0
        kicks = [(zero1, zero1)] * 140
        kicks[k0] = (bump, zero1)
        traj = linear_march(data, T, dt, kicks)
        launch = scatter_launch(traj, T)
        tau = k0 * dt + 0.5 * dt
        kicked = free_step(LinearOperator(g, 1),
                           FieldPair(zero1, dealias(bump)), -tau)
        E0 = traj.states[0].E  # the data as the march packs it
        for got, start, kick in ((launch.u, E0.u, kicked.u),
                                 (launch.ut, E0.ut, kicked.ut)):
            want = cut(start.values, 1) + dt * kick.values
            assert np.max(np.abs(cut(got.values, 1) - want)) <= 1e-14

    def test_linearity_in_source(self, run_grid):
        g = run_grid
        data = gaussian_data(g, 1e-2)
        zero1 = Field(g, np.zeros((1, g.n, g.n)))
        env = np.exp(-g.R**2 / 4.0)
        dt, T = 0.1, 14.0
        taus = np.arange(140) * dt + 0.5 * dt

        def kicks(seed):
            # random signs with a decaying amplitude
            r = np.random.default_rng(seed)
            return [(Field(g, r.standard_normal() * (1 + tau) ** (-2.0)
                           * env[None]), zero1)
                    for tau in taus]

        ka, kb = kicks(1), kicks(2)
        ksum = [(Field(g, a[0].values + b[0].values), zero1)
                for a, b in zip(ka, kb)]
        trajs = [linear_march(data, T, dt, k) for k in (ka, kb, ksum)]
        base = trajs[0].states[0].E.u.values
        pa, pb, ps = (scatter_launch(traj, T).u.values for traj in trajs)
        lhs = ps - base
        rhs = (pa - base) + (pb - base)
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
        history = [(env, zero1) for _ in nonlinear_run.source_history]
        with pytest.raises(TailDivergenceError):
            build_scatter_data(with_history(nonlinear_run, history), 1.0)


class TestBoxLaunchReference:
    def test_matches_full_plane_rotation(self, grid64):
        # the launch rotated in the dealias box equals the whole-plane
        # R(-t_K) of the state at t_K, inverted once, bit for bit
        traj = evolve(gaussian_data(grid64, 0.3), 0.5, 0.1)
        g, op = grid64, LinearOperator(grid64, 1)
        state = traj.states[-1]
        u, ut = op.rotation(-state.t)(*state.spectra("E"))
        launch = scatter_launch(traj, 0.5)
        assert np.array_equal(cut(launch.u.values, 1), g.irfft(u))
        assert np.array_equal(cut(launch.ut.values, 1), g.irfft(ut))


class TestDuhamelSum:
    def test_live_reducer_equals_the_recorded_sums(self, grid64):
        # fed by the march, which then records nothing and stores every 5th
        # state, the reducer gives bit for bit the norm series that a full
        # record at that stride gives.  Step K = 7 stores nothing, so the
        # kept state is E* at its midpoint 0.65, before the trailing half
        # step; it launches the dense march's S1(-0.7) E(0.7) to round-off
        # (measured: 9.1e-16 of the peak)
        data = gaussian_data(grid64, 0.3)
        s_values, t_max = (1.0, 2.0), 0.75
        live = DuhamelSum(grid64, 0.1, t_max, s_values)
        tails = DuhamelTail(grid64, 0.1, t_max, (0.0, 0.3))

        def on_source(tau, sources, state):
            live.add(tau, sources, state)
            tails.add(tau, sources, state)

        traj = evolve(data, 1.0, 0.1, store_every=5, record_sources=0,
                      on_source=on_source)
        full = evolve(data, 1.0, 0.1, store_every=5)
        assert traj.source_history is None
        assert live.state.t == 6 * 0.1 + 0.05
        want = scatter_launch(evolve(data, 1.0, 0.1), t_max)
        got = scattering.launch_from(live.state)
        for a, b in ((got.u, want.u), (got.ut, want.ut)):
            assert np.max(np.abs(a.values - b.values)) \
                <= 1e-14 * np.max(np.abs(b.values))
        for s in s_values:
            for a, b in zip(live.series(s), source_norm_series(full, s)):
                assert np.array_equal(a, b)
        # and the Duhamel remainders what the record's sources give
        recorded = recorded_tails(full, t_max, (0.0, 0.3))
        for t, acc in tails.sums.items():
            assert np.any(acc) and np.array_equal(acc, recorded.sums[t])


class TestResidualSeries:
    def test_zero_source_zero_residual(self, run_grid):
        traj = evolve(wave_only_data(run_grid), 6.0, 0.1)
        profile = build_scatter_data(traj, 1.0, t_max=6.0)
        _, (res,) = residual_series(traj.states, profile.data_plus, [profile.s])
        assert np.max(res) <= 1e-12

    def test_consistency_identity(self, nonlinear_run):
        # residual(t) equals the norm of the remaining Duhamel sum
        profile = build_scatter_data(nonlinear_run, 1.0, t_max=12.0,
                                     require_convergent_tail=False)
        times, (res,) = residual_series(nonlinear_run.states,
                                        profile.data_plus, [profile.s])
        probes = (3.0, 7.0, 10.0)
        tails = recorded_tails(nonlinear_run, profile.t_max, probes)
        for t in probes:
            k = nonlinear_run.index_at(t)
            assert abs(res[k] - tails.norm(t, profile.s)) <= 1e-8

    def test_residual_at_cut_below_tail(self, nonlinear_run):
        profile = build_scatter_data(nonlinear_run, 1.0, t_max=12.0,
                                     require_convergent_tail=False)
        times, (res,) = residual_series(nonlinear_run.states,
                                        profile.data_plus, [profile.s])
        k = nonlinear_run.index_at(12.0)
        assert res[k] <= profile.tail + 1e-10

    def test_reads_each_states_time_and_packed_E(self, nonlinear_run):
        # any sequence of states, each holding its packed E alone
        profile = build_scatter_data(nonlinear_run, 1.0, t_max=12.0,
                                     require_convergent_tail=False)
        s_values = [profile.s, 2.0]
        times, res = residual_series(nonlinear_run.states, profile.data_plus,
                                     s_values)
        picked = nonlinear_run.states[5::7]
        slim = [KGZState(state.grid, state.t, {"E": state.packed["E"]})
                for state in picked]
        got_times, got = residual_series(slim, profile.data_plus, s_values)
        assert np.array_equal(got_times, times[5::7])
        assert np.array_equal(got, res[:, 5::7])

    def test_grid_mismatch(self, nonlinear_run):
        g2 = make_grid(64, 12.0)
        traj2 = evolve(gaussian_data(g2, 1e-2), 2.0, 0.1)
        profile = build_scatter_data(nonlinear_run, 1.0, t_max=12.0,
                                     require_convergent_tail=False)
        with pytest.raises(ValueError):
            residual_series(traj2.states, profile.data_plus, [profile.s])


class TestPersistence:
    def test_profile_round_trip(self, tmp_path, nonlinear_run):
        profile = build_scatter_data(nonlinear_run, 1.0, t_max=12.0,
                                     require_convergent_tail=False)
        prefix = tmp_path / "prof"
        write_profile(prefix, profile)
        for part, pair_field in (("u", profile.data_plus.u),
                                 ("ut", profile.data_plus.ut)):
            back, t = read_field(f"{prefix}_{part}.kgz")
            assert back.grid == profile.data_plus.grid and t == 0.0
            assert np.array_equal(back.values, pair_field.values)
        meta = dict(item.split("=")
                    for item in (tmp_path / "prof_meta.txt").read_text().split())
        assert float(meta["T_max"]) == profile.t_max
        assert float(meta["tail"]) == profile.tail
        assert float(meta["s"]) == profile.s
        assert float(meta["tail_slope"]) == profile.tail_slope
        assert float(meta["captured"]) == profile.captured

    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([8, 16]),
           length=st.floats(1e-3, 1e3),
           seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-300, 1e300),
           meta=st.tuples(st.floats(0.0, 1e3),
                          st.floats(0.0, 1e300) | st.just(float("inf")),
                          st.floats(0.0, 10.0),
                          st.floats(-1e3, 1e3),
                          st.floats(0.0, 1e300)))
    def test_profile_round_trip_property(self, n, length, seed, scale, meta):
        # the dumps give back the launch fields and their grid bit for bit,
        # and the metadata line gives back every scalar, inf included
        g = make_grid(n, length)
        rng = np.random.default_rng(seed)
        u, ut = (Field(g, scale * rng.standard_normal((2, n, n)))
                 for _ in range(2))
        t_max, tail, s, slope, captured = meta
        profile = ScatterProfile(data_plus=FieldPair(u, ut), t_max=t_max,
                                 s=s, tail=tail, tail_slope=slope,
                                 captured=captured)
        with tempfile.TemporaryDirectory() as td:
            prefix = Path(td) / "prof"
            write_profile(prefix, profile)
            for part, want in (("u", u), ("ut", ut)):
                back, t = read_field(f"{prefix}_{part}.kgz")
                assert t == 0.0 and back.grid == g
                assert np.array_equal(back.values, want.values)
            meta_text = Path(f"{prefix}_meta.txt").read_text()
        got = dict(item.split("=") for item in meta_text.split())
        assert [float(got[k]) for k in ("T_max", "tail", "s", "tail_slope",
                                        "captured")] == list(meta)
