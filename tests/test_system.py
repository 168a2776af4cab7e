import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgz2d.energy_diag import xnorm_distance
from kgz2d.grid import Field, FieldPair, Grid, laplacian, make_grid, read_field
from kgz2d.harness import RunConfig, run_scatter
from kgz2d.propagator import InstabilityError, LinearOperator, free_step
from kgz2d.scattering import midpoints, residual_series, scatter_launch
from kgz2d.system import (
    InitialData,
    PicardNonConvergence,
    evolve,
    evolve_direct_n,
    free_flow,
    gaussian_data,
    picard_map,
    picard_solve,
)
from kgz2d.system import _march, _products, _Strang

from conftest import cut, dealias, pack, turned_data


@pytest.fixture(scope="module")
def small_run(grid64):
    data = gaussian_data(grid64, 1e-2)
    return data, evolve(data, 3.0, 0.1)


def zero_data(grid):
    z1 = Field(grid, np.zeros((1, grid.n, grid.n)))
    z2 = Field(grid, np.zeros((2, grid.n, grid.n)))
    return InitialData(E0=z2, E1=z2, n0_delta=z1, n1_delta=z1)


class TestInitialData:
    def test_radius_recorded(self, grid64):
        data = gaussian_data(grid64, 1e-2)
        # relative floor 1e-14; the widest tail is the derived n0 = lap(g)
        assert 8.0 < data.radius < 9.0

    def test_unresolved_share_of_n0(self, grid64):
        # resolved data loses round-off to the dealias box; width 0.2 on
        # this grid, or the unit width on a 5 times coarser one, loses most
        assert gaussian_data(grid64, 1e-2).unresolved < 1e-11
        assert gaussian_data(grid64, 1e-2, 0.2).unresolved > 0.1
        assert gaussian_data(make_grid(64, 40.0), 1e-2).unresolved > 0.1
        assert zero_data(grid64).unresolved == 0.0

    def test_zero_data_radius(self, grid64):
        assert zero_data(grid64).radius == 0.0

    @pytest.mark.parametrize("width", [1e-200, 1e-160, 1e200])
    def test_extreme_widths_give_finite_data(self, grid64, width):
        # a width far below the spacing leaves the sample at the center, one
        # far above the box a constant that fills it
        with np.errstate(all="raise"):
            data = gaussian_data(grid64, 1e-2, width)
        g = data.E0.values[0] / 1e-2
        if width < 1:
            assert np.count_nonzero(g) == 1 and g[grid64.R == 0] == 1.0
            assert data.unresolved > 1e-8
        else:
            assert np.all(g == 1.0)
            assert data.radius == grid64.R.max()


class TestEvolve:
    def test_zero_data_stays_zero(self, grid64):
        traj = evolve(zero_data(grid64), 2.0, 0.1)
        assert all(np.all(s.E.u.values == 0.0) for s in traj.states)
        assert all(np.all(s.n.u.values == 0.0) for s in traj.states)

    def test_zero_E_decouples(self, grid64):
        # n evolves as a free wave, E stays zero
        data = gaussian_data(grid64, 1e-2)
        data = InitialData(
            E0=Field(grid64, np.zeros((2, 64, 64))),
            E1=Field(grid64, np.zeros((2, 64, 64))),
            n0_delta=data.n0_delta, n1_delta=data.n1_delta)
        traj = evolve(data, 3.0, 0.1)
        assert np.all(traj.states[-1].E.u.values == 0.0)
        op = LinearOperator(grid64, 0)
        free = free_step(
            op, FieldPair(dealias(data.n0_delta), dealias(data.n1_delta)), 3.0)
        want = laplacian(free.u).values
        got = traj.states[-1].n.u.values
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-30)

    def test_self_convergence(self):
        # coarse run against a 2x-resolution, dt/2 reference, compared on
        # the shared grid points (every other fine point)
        fields = {}
        for n, dt in ((96, 0.1), (192, 0.05)):
            g = make_grid(n, 12.0)
            traj = evolve(gaussian_data(g, 1e-2), 3.0, dt,
                          record_sources=False, store_every=round(3.0 / dt))
            fields[n] = traj.states[-1].E.u.values
        diff = np.max(np.abs(fields[96] - fields[192][:, ::2, ::2]))
        assert diff / np.max(np.abs(fields[192])) <= 1e-4

    def test_wrap_window_enforced(self, grid64):
        data = gaussian_data(grid64, 1e-2)
        with pytest.raises(ValueError):
            evolve(data, 20.0, 0.1)  # 20 + 8.6 > 12

    def test_amplitude_parity(self, grid64):
        data = gaussian_data(grid64, 1e-2)
        flipped = InitialData(E0=Field(grid64, -data.E0.values),
                              E1=Field(grid64, -data.E1.values),
                              n0_delta=data.n0_delta, n1_delta=data.n1_delta)
        a = evolve(data, 2.0, 0.1, record_sources=False)
        b = evolve(flipped, 2.0, 0.1, record_sources=False)
        sa, sb = a.states[-1], b.states[-1]
        assert np.max(np.abs(sa.E.u.values + sb.E.u.values)) <= 1e-14
        assert np.max(np.abs(sa.n.u.values - sb.n.u.values)) <= 1e-14

    def test_finite_propagation(self):
        # the quadratic source has a sqrt(2)-wider spectrum than the data,
        # so the 2/3-mask tail only drops below the leak tolerance once
        # h <= 0.19 for width-1 Gaussians
        g = make_grid(128, 12.0)
        data = gaussian_data(g, 1e-2)
        traj = evolve(data, 2.5, 0.05, record_sources=False, store_every=50)
        s = traj.states[-1]
        peak = np.max(np.abs(s.n.u.values))
        outside = g.R > data.radius + s.t + 2 * g.h
        leak = np.max(np.abs(s.n.u.values[0][outside]))
        assert leak <= 1e-10 * peak

    def test_delta_consistency_along_run(self, small_run):
        _, traj = small_run
        for k in (0, len(traj) // 2, len(traj) - 1):
            s = traj.states[k]
            resid = np.max(np.abs(laplacian(s.n_delta.u).values - s.n.u.values))
            scale = max(np.max(np.abs(s.n.u.values)), 1e-30)
            assert resid <= 1e-8 * scale

    def test_non_finite_blow_up_is_caught_at_once(self, grid64):
        # the products overflow to inf and NaN in the first step; the
        # guard must stop there, not march on and fail on the dump
        data = gaussian_data(grid64, 1e160)
        with np.errstate(all="ignore"):
            with pytest.raises(InstabilityError, match="t=0.05:"):
                evolve(data, 1.0, 0.05, store_every=20, record_sources=False)

    def test_non_finite_n_delta_is_caught(self, grid64):
        # a NaN recorded S reaches n_delta alone; E stays finite, and the
        # guard must still stop the march at the first step
        data = gaussian_data(grid64, 1e-2)
        guess = evolve(data, 1.0, 0.1)
        Q, S = guess.source_history[0]
        guess.source_history[0] = (Q, np.full_like(S, np.nan))
        with pytest.raises(InstabilityError, match="t=0.1:"):
            picard_map(guess, data)


class TestTimeGrid:
    """A march's time grid is checked by one rule before the first step:
    nothing reaches on_snapshot where the entry point takes one."""

    @staticmethod
    def rejected(flow, grid, T, dt, match, **kwargs):
        seen = []
        if flow in (evolve, picard_solve):
            kwargs["on_snapshot"] = seen.append
        with pytest.raises(ValueError, match=match):
            flow(gaussian_data(grid, 1e-2), T, dt, **kwargs)
        assert seen == []

    @pytest.mark.parametrize("flow", [evolve, evolve_direct_n, free_flow,
                                      picard_solve])
    @pytest.mark.parametrize("T, dt", [(-1.0, -0.1), (1.0, 0.0),
                                       (1.0, float("nan"))])
    def test_dt_must_be_finite_and_positive(self, grid64, flow, T, dt):
        self.rejected(flow, grid64, T, dt, "dt must be finite and positive")

    @pytest.mark.parametrize("flow", [evolve, evolve_direct_n, free_flow,
                                      picard_solve])
    def test_T_must_be_a_whole_number_of_steps(self, grid64, flow):
        # +inf and nan fail the wrap-free check first; -inf reaches the rule
        self.rejected(flow, grid64, -float("inf"), 0.1, "does not divide T")

    @pytest.mark.parametrize("flow", [evolve, evolve_direct_n, free_flow])
    @pytest.mark.parametrize("store_every", [0, -2, 3])
    def test_store_every_must_divide_the_steps(self, grid64, flow,
                                                store_every):
        self.rejected(flow, grid64, 1.0, 0.1, f"store_every={store_every} "
                      "does not divide the 10 steps", store_every=store_every)


class TestFusedMarch:
    """A strided march rotates once by dt between steps that store nothing;
    it keeps the dense march's stored states to round-off.  Measured over
    60 cases (3 flows, amplitudes 1e-3 to 1, store_every 2 to 30 at n=64):
    at most 5.3e-15 of each array's peak."""

    @settings(max_examples=10, deadline=None)
    @given(flow=st.sampled_from([evolve, evolve_direct_n, free_flow]),
           amplitude=st.floats(1e-3, 1.0),
           store_every=st.integers(1, 6), strides=st.integers(1, 4))
    def test_agrees_with_the_dense_march(self, grid64, flow, amplitude,
                                         store_every, strides):
        data, steps = gaussian_data(grid64, amplitude), store_every * strides
        T = steps * 0.1
        dense = flow(data, T, 0.1, record_sources=False)
        fused = flow(data, T, 0.1, store_every=store_every,
                     record_sources=False)
        assert np.array_equal(fused.times, dense.times[::store_every])
        for a, b in zip(fused.states, dense.states[::store_every],
                        strict=True):
            assert a.packed.keys() == b.packed.keys()
            for which in a.packed:
                for x, y in zip(a.box(which), b.box(which), strict=True):
                    assert np.max(np.abs(x - y)) \
                        <= 5e-14 * np.max(np.abs(y))

    @settings(max_examples=5, deadline=None)
    @given(store_every=st.integers(2, 6), strides=st.integers(1, 3))
    def test_on_source_sees_every_midpoint(self, grid64, store_every,
                                           strides):
        data, steps = gaussian_data(grid64, 0.3), store_every * strides
        calls = {}
        for stride in (1, store_every):
            seen = calls[stride] = []
            evolve(data, steps * 0.1, 0.1, store_every=stride,
                   record_sources=False,
                   on_source=lambda tau, _, state: seen.append(
                       (tau, state.t)))
        dense, fused = calls[1], calls[store_every]
        assert [tau for tau, _ in fused] == [tau for tau, _ in dense]
        assert len(fused) == steps
        # a deferred step hands over E* at its midpoint, a stored one E
        assert [t for _, t in fused] == [
            tau if (k + 1) % store_every else t
            for k, (tau, t) in enumerate(dense)]


class TestDirectN:
    def test_matches_divergence_form(self, grid64):
        data = gaussian_data(grid64, 1e-2)
        a = evolve(data, 3.0, 0.1, record_sources=False, store_every=30)
        b = evolve_direct_n(data, 3.0, 0.1, record_sources=False, store_every=30)
        da = a.states[-1].n.u.values
        db = b.states[-1].n.u.values
        assert np.max(np.abs(da - db)) <= 1e-8 * np.max(np.abs(da))

    def test_zero_E_identical_free_wave(self, grid64):
        data = zero_data(grid64)
        a = evolve(data, 2.0, 0.1, record_sources=False, store_every=20)
        b = evolve_direct_n(data, 2.0, 0.1, record_sources=False, store_every=20)
        assert np.max(np.abs(a.states[-1].n.u.values
                             - b.states[-1].n.u.values)) == 0.0

    @staticmethod
    def perturbed_direct_march(grid, factor):
        """A direct march one step in, with n scaled by factor, so that
        |lap(n_delta) - n| is |factor - 1| of n's scale."""
        march = _Strang(gaussian_data(grid, 1e-2), 1.0, 0.1, direct_n=True)
        march.step("self")
        march.N = (factor * march.N[0], march.N[1])
        return march

    def test_consistency_guard_fires(self, grid64):
        march = self.perturbed_direct_march(grid64, 1.0 + 1e-6)
        with pytest.raises(InstabilityError,
                           match="divergence-form consistency lost at t=0.1:"):
            march.state()

    def test_consistency_guard_passes_round_off(self, grid64):
        march = self.perturbed_direct_march(grid64, 1.0 + 1e-10)
        assert march.state().t == pytest.approx(0.1)


class TestPicard:
    def test_exact_solution_is_fixed_point(self, small_run):
        data, traj = small_run
        mapped = picard_map(traj, data)
        assert xnorm_distance(mapped, traj) <= 1e-6

    def test_zero_guess_zero_data(self, grid64):
        data = zero_data(grid64)
        guess = free_flow(data, 2.0, 0.1)
        out = picard_map(guess, data)
        assert all(np.all(s.E.u.values == 0.0) for s in out.states)

    def test_zero_data_converges_first_iteration(self, grid64):
        assert picard_solve(zero_data(grid64), 2.0, 0.1) == []

    def test_contraction_and_limit(self, small_run):
        data, reference = small_run
        limit = []
        ratios = picard_solve(data, 3.0, 0.1, tol=1e-7,
                              on_snapshot=restarting_list(limit))
        assert all(r <= 0.5 for r in ratios)
        # the limit's jets read its own products, as the nonlinear flow's do
        traj = dataclasses.replace(reference, states=limit,
                                   source_history=None)
        assert xnorm_distance(traj, reference) <= 10 * 1e-7

    def test_requires_dense_guess(self, grid64):
        data = gaussian_data(grid64, 1e-2)
        sparse = evolve(data, 2.0, 0.1, store_every=5)
        with pytest.raises(ValueError):
            picard_map(sparse, data)

    @pytest.mark.parametrize("record, says", [(False, "it recorded none")])
    def test_requires_every_step_recorded(self, grid64, record, says):
        data = gaussian_data(grid64, 1e-2)
        guess = free_flow(data, 2.0, 0.1, record_sources=record)
        with pytest.raises(ValueError, match=says):
            picard_map(guess, data)

    def test_grid_mismatch(self, grid64):
        data = gaussian_data(grid64, 1e-2)
        other = gaussian_data(make_grid(32, 12.0), 1e-2)
        guess = free_flow(data, 2.0, 0.1)
        with pytest.raises(ValueError):
            picard_map(guess, other)

    def test_nonconvergence_reports_history(self, grid64):
        # far outside the small-data regime: amplitude O(10)
        data = gaussian_data(grid64, 20.0)
        with pytest.raises((PicardNonConvergence, InstabilityError)):
            picard_solve(data, 2.5, 0.1, max_iter=3, tol=1e-12)


def restarting_list(kept: list):
    """An on_snapshot for picard_solve that keeps the newest iterate's
    states, starting over at each restart (t = 0)."""
    def keep(state):
        if state.t == 0.0:
            kept.clear()
        kept.append(state)
    return keep


def reference_picard(data, T, dt, *, max_iter=12, tol=1e-6):
    """The Picard loop the lockstep sweep replaced: whole iterates, each the
    solution map of the one before, measured by xnorm_distance.  Returns
    (final iterate, ratios) or raises PicardNonConvergence."""
    current = free_flow(data, T, dt)
    distances, ratios = [], []
    for _ in range(max_iter):
        new = picard_map(current, data)
        d = xnorm_distance(new, current)
        if distances and distances[-1] > 0:
            ratios.append(d / distances[-1])
        distances.append(d)
        current = new
        if d < tol:
            return current, ratios
    raise PicardNonConvergence(ratios, distances)


def nonconvergent_desk_picard():
    """The desk Picard benchmark at seed 0 with a tolerance no map meets,
    and two maps allowed."""
    cfg = RunConfig(points_per_axis=256, L=40.0, amplitude=1e-2, dt=0.15,
                    T=1.5, center=(0.042186, -0.843367), picard_tol=1e-30,
                    picard_max_iter=2)
    return cfg.build_data(), cfg


class TestPicardSweep:
    """picard_solve's lockstep sweep against the whole-iterate loop: the
    same arithmetic, so the same numbers bit for bit."""

    @pytest.mark.parametrize("amplitude", [1e-2, 0.1])
    def test_equals_the_reference_loop(self, grid64, amplitude):
        data = gaussian_data(grid64, amplitude)
        final, want = reference_picard(data, 3.0, 0.1, tol=1e-7)
        limit, times = [], []
        keep = restarting_list(limit)

        def on_snapshot(state):
            times.append(state.t)
            keep(state)

        assert picard_solve(data, 3.0, 0.1, tol=1e-7,
                            on_snapshot=on_snapshot) == want
        # each pass runs forward from t = 0, the last to the horizon
        starts = [i for i, t in enumerate(times) if t == 0.0]
        assert starts[0] == 0 and times[starts[-1]:] == list(final.times)
        assert all(np.all(np.diff(times[a:b]) > 0)
                   for a, b in zip(starts, starts[1:] + [len(times)]))
        for got, ref in zip(limit, final.states, strict=True):
            for which in ("E", "n_delta"):
                assert all(np.array_equal(x, y) for x, y in
                           zip(got.box(which), ref.box(which), strict=True))

    def test_nonconvergence_equals_the_reference_loop(self):
        data, cfg = nonconvergent_desk_picard()
        errors = []
        for solve in (reference_picard, picard_solve):
            with pytest.raises(PicardNonConvergence) as info:
                solve(data, cfg.T, cfg.dt, max_iter=cfg.picard_max_iter,
                      tol=cfg.picard_tol)
            errors.append(info.value)
        ref, got = errors
        assert got.distances == ref.distances \
            == [0.001988082016646103, 7.380374242879054e-06]
        assert got.ratios == ref.ratios and str(got) == str(ref)

    def test_keeps_under_half_the_reference_memory(self, grid64):
        data = gaussian_data(grid64, 1e-2)
        peaks = []
        for solve in (reference_picard, picard_solve):
            tracemalloc.start()
            try:
                solve(data, 3.0, 0.1, tol=1e-7)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 0.5 * peaks[0]


class TestTrajectory:
    def test_source_history_recorded(self, small_run):
        _, traj = small_run
        assert len(traj.source_history) == 30
        assert midpoints(30, traj.dt)[0] == pytest.approx(0.05)

    def test_index_lookup(self, small_run):
        _, traj = small_run
        assert traj.index_at(2.0) == 20
        with pytest.raises(ValueError):
            traj.index_at(2.04)

    def test_store_every(self, grid64):
        data = gaussian_data(grid64, 1e-2)
        traj = evolve(data, 2.0, 0.1, store_every=4)
        assert traj.times[1] - traj.times[0] == pytest.approx(0.4)
        assert len(traj.source_history) == 20

    def test_record_leaves_the_states_alone(self, small_run):
        # recording or not, a march at one stride keeps the same states,
        # bit for bit
        data, _ = small_run
        kept = evolve(data, 3.0, 0.1, store_every=6, record_sources=True)
        sparse = evolve(data, 3.0, 0.1, store_every=6, record_sources=False)
        assert np.array_equal(sparse.times, kept.times)
        for a, b in zip(sparse.states, kept.states, strict=True):
            for which in ("E", "n_delta"):
                assert all(np.array_equal(x, y) for x, y in
                           zip(a.box(which), b.box(which), strict=True))

    def test_stride_fuses_as_the_reference_does(self, small_run):
        # a strided march rotates once by dt between unstored steps, as
        # the fused whole-plane reference does: its states bit for bit
        data, dense = small_run
        sparse = evolve(data, 3.0, 0.1, store_every=6)
        assert np.array_equal(sparse.times, dense.times[::6])
        assert_same_march(sparse, *full_plane_march(data, 30, 0.1,
                                                    store_every=6))

    def test_no_record(self, small_run):
        data, _ = small_run
        traj = evolve(data, 1.0, 0.1, record_sources=0)
        assert traj.source_history is None

    @pytest.mark.parametrize("bad", [-1, 2.5, 4, "yes"])
    def test_rejects_bad_stride(self, small_run, bad):
        # the record is all steps or none: no stride but 0 and 1
        data, _ = small_run
        with pytest.raises(ValueError, match="must be True or False"):
            evolve(data, 1.0, 0.1, record_sources=bad)


class TestPolarisedData:
    """gaussian_data is polarised: E0 = (a g, 0), E1 = 0.  -nE and
    lap(|E|^2) are invariant under constant rotations of E, so a component
    whose data are zero stays exactly zero, and the march keeps E's leading
    live components alone: one.  The same data turned onto e2, E0 = (0, a
    g), keep two, the first all zero.  The arithmetic is componentwise, so
    their second component is the untrimmed computation of the e1 march's
    only one, bit for bit."""

    @staticmethod
    def along_e2(data):
        g = data.grid
        return InitialData(E0=Field(g, data.E0.values[::-1]), E1=data.E1,
                           n0_delta=data.n0_delta, n1_delta=data.n1_delta)

    @staticmethod
    def packed_E(data):
        """Every packed E array of the fused, direct-n and free marches
        (stored states and each on_source Q with the E after it) and of
        every Picard-sweep iterate, in order."""
        got, iterates = [], []
        for kicks, direct_n in (("self", False), ("self", True), (None, False)):
            traj = _march(data, 1.8, 0.1, kicks=kicks, store_every=3,
                          record_sources=True, direct_n=direct_n,
                          on_source=lambda tau, qs, state: got.extend(
                              (qs[0], *state.box("E"))))
            assert len(traj.states) == 7
            got += [b for state in traj.states for b in state.box("E")]
        ratios = picard_solve(data, 1.8, 0.1, tol=1e-7,
                              on_snapshot=iterates.append)
        assert sum(state.t == 0.0 for state in iterates) >= 3
        return got + [b for state in iterates for b in state.box("E")], ratios

    def test_second_component_stays_zero(self, grid64):
        data = gaussian_data(grid64, 0.1)
        (e1, e1_ratios), (e2, e2_ratios) = (
            self.packed_E(d) for d in (data, self.along_e2(data)))
        assert len(e1) == len(e2) == 3 * (3 * 18 + 2 * 7) + 2 * 33
        for one, two in zip(e1, e2):
            assert one.shape[0] == 1 and two.shape[0] == 2
            assert np.array_equal(one[0], two[1]) and not np.any(two[0])
        assert e1_ratios == e2_ratios

    def test_physical_E_is_widened_with_plus_zero(self, grid64, tmp_path):
        # state.E, the srcQ dumps and the launch, with the E dumps beside
        data = gaussian_data(grid64, 0.1)
        state = evolve(data, 0.5, 0.1).states[-1]
        run_scatter(RunConfig(points_per_axis=64, L=12.0, T=1.5, dt=0.05,
                              snap_every=10, diagnostics=("decay",)),
                    tmp_path, quiet=True)
        dumps = [read_field(p)[0] for p in sorted(tmp_path.glob("*.kgz"))
                 if p.name.startswith(("E_", "srcQ_", "scatter_"))]
        assert len(dumps) == 4 + 3 + 4
        for f in [state.E.u, state.E.ut] + dumps:
            assert f.components == 2 and np.any(f.values[0])
            assert not np.any(f.values[1])
            assert not np.any(np.signbit(f.values[1]))

    def test_launch_meets_states_of_its_own_components(self, grid64):
        # a one-component state minus a two-component launch would
        # broadcast into both components; the residual equals the e2
        # march's, whose E keeps both, and a launch with a live component
        # the states dropped raises
        data = gaussian_data(grid64, 0.1)
        runs = [evolve(d, 1.8, 0.1, store_every=3)
                for d in (data, self.along_e2(data))]
        launches = [scatter_launch(traj, 1.5) for traj in runs]
        (_, one), (_, two) = (residual_series(traj.states, launch, [1.0, 2.0])
                              for traj, launch in zip(runs, launches))
        assert np.all(one > 0)
        assert np.max(np.abs(one - two)) <= 1e-13 * np.max(two)
        with pytest.raises(ValueError, match="E components"):
            residual_series(runs[0].states, launches[1], [1.0])

    @pytest.mark.parametrize("angle, planes_made", [(0.0, 4), (0.6, 6)])
    def test_march_step_planes(self, grid64, planes, angle, planes_made):
        # a coupled step's midpoint products: E (2 components, polarised 1)
        # and n (1) pruned inverse, -nE (as E) and |E|^2 (1) pruned forward
        march = _Strang(turned_data(grid64, angle, 0.1), 1.0, 0.1)
        calls = planes()
        march.step("self")
        half = planes_made // 2
        assert calls == {"rfft": 0, "irfft": 0,
                         "box_rfft": half, "box_irfft": half}


class TestJet:
    """A snapshot jet reads the stored packed spectra.  Its word planes
    invert each level read (u, u_t, u_tt) once, and the source of u_tt
    inverts the snapshot fields its driving product reads (E, and n for E's
    source) and transforms that product forward once, all pruned to the
    dealias box."""

    @pytest.mark.parametrize("which, rffts, irffts",
                             [("E", 1, 5), ("n", 1, 4), ("n_delta", 1, 4)])
    def test_depth_two_transform_count(self, small_run, transforms, which,
                                       rffts, irffts):
        _, traj = small_run
        calls = transforms()
        planes = traj.jet(5, which)
        # the planes are made on first use: building the jet inverts only
        # the products' fields
        assert calls["box_irfft"] == irffts - 3
        for name in ("u", "ut", "utt"):
            planes[name]
        assert calls == {"rfft": 0, "irfft": 0,
                         "box_rfft": rffts, "box_irfft": irffts}

    @pytest.mark.parametrize("which", ["E", "n", "n_delta"])
    def test_utt_is_the_field_equation(self, small_run, which):
        _, traj = small_run
        g = traj.grid
        state = traj.states[5]
        q, s = traj.products(5)
        m_sq = 1.0 if which == "E" else 0.0
        source = {"E": g.unpack(q), "n": -g.spectral["k_sq"] * g.unpack(s),
                  "n_delta": g.unpack(s)}[which]
        want = g.irfft((-g.spectral["k_sq"] - m_sq) * state.spectra(which)[0]
                       + source)
        utt = traj.jet(5, which)["utt"]
        assert np.array_equal(utt, want)
        # the same equation written in physical space, on E's live part
        pair = state.pair(which)
        q, s = (Field(g, g.box_irfft(src)) for src in (q, s))
        source = {"E": q, "n": laplacian(s), "n_delta": s}[which]
        physical = cut(laplacian(pair.u).values - m_sq * pair.u.values,
                       len(utt)) + source.values
        assert np.max(np.abs(utt - physical)) \
            <= 1e-13 * np.max(np.abs(physical))

    def test_picard_iterate_stops_at_depth_two(self, small_run):
        data, traj = small_run
        mapped = picard_map(traj, data)
        assert len(mapped.jet(5, "E").levels) == 3
        with pytest.raises(ValueError, match="source derivative"):
            mapped.jet(5, "E", depth=3)


def held_arrays(obj) -> list:
    """Every array an object holds, through dataclasses, dicts and
    sequences; a Grid counts as none."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, Grid):
        return []
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in held_arrays(item)]
    return []


class TestState:
    @pytest.mark.parametrize("flow, count", [(evolve, 4), (evolve_direct_n, 6)])
    def test_holds_only_packed_spectra(self, grid64, flow, count):
        # (E, E_t) and (n_delta, n_delta_t), plus the direct flow's (n, n_t);
        # every step's (Q, S); and E alone in the state on_source gets
        rows, cols = grid64.spectral["box"]

        def packed(arrays):
            return all(type(a) is np.ndarray and a.dtype == complex
                       and a.shape[1:] == (len(rows), cols) for a in arrays)

        handed = []
        streams = ({"on_source": lambda tau, sources, state: handed.append(
            (sources, state))} if flow is evolve else {})
        traj = flow(gaussian_data(grid64, 1e-2), 1.0, 0.1, store_every=5,
                    **streams)
        for state in traj.states:
            held = held_arrays(state)
            assert len(held) == count and packed(held)
        history = held_arrays(traj.source_history)
        assert len(history) == 2 * 10 and packed(history)
        assert len(handed) == (10 if flow is evolve else 0)
        for sources, state in handed:
            held = held_arrays(state)
            assert len(held) == 2 and packed(held)
            assert packed(held_arrays(sources))


def full_plane_march(data, steps, dt, kicks="self", direct_n=False,
                     store_every=1):
    """Reference Strang march on whole half spectra, zero outside the
    dealias mask: whole-plane rotations and unpacked kicks.  Between two
    steps with no state stored it rotates once by dt, not twice by dt/2.
    Returns the packed (stored states, source record), each step's sources
    recorded."""
    g = data.grid
    kg_half, w_half, kg_full, w_full = (
        LinearOperator(g, m).rotation(h * dt)
        for h in (0.5, 1.0) for m in (1, 0))
    mask, k_sq = g.spectral["dealias_mask"], g.spectral["k_sq"]
    Eu, Eut, Du, Dut = (mask * g.rfft(f.values) for f in (
        data.E0, data.E1, data.n0_delta, data.n1_delta))
    Nu, Nut = -k_sq * Du, -k_sq * Dut

    def packed():
        spectra = {"E": (Eu, Eut), "n_delta": (Du, Dut)}
        if direct_n:
            spectra["n"] = (Nu, Nut)
        return {name: [pack(g, h) for h in hats]
                for name, hats in spectra.items()}

    states, record, kg, w = [packed()], [], kg_half, w_half
    for k in range(steps):
        Eu, Eut = kg(Eu, Eut)
        Du, Dut = w(Du, Dut)
        Nu, Nut = w(Nu, Nut)
        n_mid = g.irfft(Nu if direct_n else -k_sq * Du)
        sources = _products(g, g.irfft(Eu), n_mid)
        record.append(list(sources))
        if kicks is not None:
            Q, S = (g.unpack(src) for src in (
                sources if kicks == "self" else kicks[k]))
            # a march's recorded Q holds its E's live components alone
            Eut = Eut + dt * np.pad(Q, ((0, len(Eut) - len(Q)), (0, 0), (0, 0)))
            Dut = Dut + dt * S
            Nut = Nut + dt * (-k_sq * S)
        kg, w = kg_full, w_full
        if (k + 1) % store_every == 0 or k + 1 == steps:
            Eu, Eut = kg_half(Eu, Eut)
            Du, Dut = w_half(Du, Dut)
            Nu, Nut = w_half(Nu, Nut)
            states.append(packed())
            kg, w = kg_half, w_half
    return states, record


def assert_same_march(traj, states, record):
    """A march's stored states and source record are the reference's, bit
    for bit: E and Q on their live components, the reference's others
    exactly zero."""
    assert len(traj.states) == len(states)
    for state, ref in zip(traj.states, states):
        assert state.packed.keys() == ref.keys()
        for name, levels in ref.items():
            for spec, want in zip(state.packed[name], levels, strict=True):
                assert np.array_equal(spec, cut(want, len(spec)))
    for sources, want in zip(traj.source_history, record, strict=True):
        for src, w in zip(sources, want, strict=True):
            assert np.array_equal(src, cut(w, len(src)))


class TestBoxMarchReference:
    """The march on the packed box gives the whole-plane march's states
    and source records bit for bit."""

    @pytest.mark.parametrize("kind", ["coupled", "direct", "free", "picard"])
    def test_matches_full_plane_march(self, grid64, kind):
        data = gaussian_data(grid64, 0.3)
        steps, dt = 5, 0.1
        coupled = evolve(data, steps * dt, dt, record_sources=1)
        traj, kicks = {
            "coupled": (coupled, "self"),
            "direct": (evolve_direct_n(data, steps * dt, dt,
                                       record_sources=1), "self"),
            "free": (free_flow(data, steps * dt, dt, record_sources=1), None),
            "picard": (picard_map(coupled, data), coupled.source_history),
        }[kind]
        assert_same_march(traj, *full_plane_march(
            data, steps, dt, kicks, direct_n=kind == "direct"))

    @pytest.mark.parametrize("flow, kicks", [(evolve, "self"),
                                             (evolve_direct_n, "self"),
                                             (free_flow, None)])
    def test_strided_march_matches_the_fused_reference(self, grid64, flow,
                                                       kicks):
        # stored after steps 3 and 6: fused between steps 1-2-3 and 4-5-6
        data = gaussian_data(grid64, 0.3)
        traj = flow(data, 0.6, 0.1, store_every=3, record_sources=1)
        assert_same_march(traj, *full_plane_march(
            data, 6, 0.1, kicks, direct_n=flow is evolve_direct_n,
            store_every=3))


class TestReversibility:
    @settings(max_examples=8, deadline=None)
    @given(amplitude=st.just(0.0) | st.floats(1e-6, 0.5),
           steps=st.integers(1, 20),
           dt=st.sampled_from([0.05, 0.1]))
    def test_flipped_march_recovers_the_data(self, grid64, amplitude, steps,
                                              dt):
        # the Strang step is symmetric and its kick reads positions only,
        # so marching T from the final state with E_t and n_delta_t flipped
        # returns to the (dealiased) data with flipped velocities
        g, T = grid64, steps * dt
        data = gaussian_data(g, amplitude, 1.0, (0.3, -0.2))
        end = evolve(data, T, dt, record_sources=0,
                     store_every=steps).states[-1]
        E, nD = end.pair("E"), end.pair("n_delta")
        flipped = InitialData(E0=E.u, E1=Field(g, -E.ut.values),
                              n0_delta=nD.u, n1_delta=Field(g, -nD.ut.values))
        # an evolved field's round-off tail fills the box, so its measured
        # radius is the box's; the reversed march covers the forward
        # window, so it keeps the data's radius
        object.__setattr__(flipped, "radius", data.radius)
        back = evolve(flipped, T, dt, record_sources=0,
                      store_every=steps).states[-1]
        for which, (u, ut) in (("E", (data.E0, data.E1)),
                               ("n_delta", (data.n0_delta, data.n1_delta))):
            scale = max(np.max(np.abs(u.values)), 1e-300)
            got = back.box(which)
            want = (g.box_rfft(u.values), -g.box_rfft(ut.values))
            for x, y in zip(got, (cut(w, len(got[0])) for w in want)):
                assert np.max(np.abs(g.box_irfft(x - y))) <= 1e-12 * scale


class TestStreamedSnapshots:
    def test_on_snapshot_gets_the_states_a_march_keeps(self, grid64):
        data = gaussian_data(grid64, 0.3)
        seen = []
        streamed = evolve(data, 1.0, 0.1, store_every=2, record_sources=False,
                          on_snapshot=seen.append)
        kept = evolve(data, 1.0, 0.1, store_every=2)
        assert streamed.states == [] and len(streamed) == 0
        assert streamed.source_history is None
        assert np.array_equal(streamed.times, kept.times)
        assert (streamed.dt, streamed.t_end) == (kept.dt, kept.t_end)
        assert [s.t for s in seen] == list(kept.times)
        for a, b in zip(seen, kept.states, strict=True):
            for which in ("E", "n_delta"):
                assert all(np.array_equal(x, y) for x, y in
                           zip(a.box(which), b.box(which), strict=True))



class TestPicardFixedPoint:
    @settings(max_examples=10, deadline=None)
    @given(amplitude=st.floats(1e-4, 0.2), radius=st.floats(0.0, 0.7),
           angle=st.floats(0.0, 2.0 * np.pi))
    def test_solution_is_an_exact_fixed_point(self, grid64, amplitude,
                                              radius, angle):
        # width 1: narrower data is under-resolved on this grid and trips
        # the wrap-free check
        center = (radius * np.cos(angle), radius * np.sin(angle))
        data = gaussian_data(grid64, amplitude, 1.0, center)
        traj = evolve(data, 1.5, 0.05)
        mapped = picard_map(traj, data)
        for a, b in zip(mapped.states, traj.states, strict=True):
            for which in ("E", "n", "n_delta"):
                pa, pb = getattr(a, which), getattr(b, which)
                assert np.array_equal(pa.u.values, pb.u.values)
                assert np.array_equal(pa.ut.values, pb.ut.values)
        for a, b in zip(mapped.source_history, traj.source_history,
                        strict=True):
            assert all(np.array_equal(x, y)
                       for x, y in zip(a, b, strict=True))
