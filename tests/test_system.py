import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgz2d.energy_diag import xnorm_distance
from kgz2d.grid import Field, FieldPair, Grid, Spectrum, laplacian, make_grid
from kgz2d.propagator import InstabilityError, LinearOperator, free_step
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
from kgz2d.system import _products

from conftest import dealias


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

    def test_derived_n_is_laplacian(self, grid64):
        data = gaussian_data(grid64, 1e-2)
        ref = laplacian(data.n0_delta)
        assert np.array_equal(data.n0.values, ref.values)

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
                          record_sources=False, store_every=1000)
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
        traj, ratios = picard_solve(zero_data(grid64), 2.0, 0.1)
        assert ratios == []

    def test_contraction_and_limit(self, small_run):
        data, reference = small_run
        traj, ratios = picard_solve(data, 3.0, 0.1, tol=1e-7)
        assert all(r <= 0.5 for r in ratios)
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


class TestTrajectory:
    def test_source_history_recorded(self, small_run):
        _, traj = small_run
        assert len(traj.source_history) == 30
        assert len(traj.source_times) == 30
        assert traj.source_times[0] == pytest.approx(0.05)

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

    def test_no_record(self, small_run):
        data, _ = small_run
        traj = evolve(data, 1.0, 0.1, record_sources=0)
        assert traj.source_history is None and traj.source_times is None

    @pytest.mark.parametrize("bad", [-1, 2.5, 4, "yes"])
    def test_rejects_bad_stride(self, small_run, bad):
        # the record is all steps or none: no stride but 0 and 1
        data, _ = small_run
        with pytest.raises(ValueError, match="must be True or False"):
            evolve(data, 1.0, 0.1, record_sources=bad)


class TestJet:
    """A snapshot jet reads the stored spectra.  It inverts each level it
    returns (u, u_t, u_tt) and the snapshot fields its driving product
    reads (E, and n for E's source), and transforms each product forward
    once; the snapshot no longer pays 8 inverse transforms when stored."""

    @pytest.mark.parametrize("which, rffts, irffts",
                             [("E", 2, 5), ("n", 1, 4), ("n_delta", 1, 4)])
    def test_depth_two_transform_count(self, small_run, transforms, which,
                                       rffts, irffts):
        _, traj = small_run
        calls = transforms()
        traj.jet(5, which)
        assert calls == {"rfft": rffts, "irfft": irffts}

    @pytest.mark.parametrize("which", ["E", "n", "n_delta"])
    def test_utt_is_the_field_equation(self, small_run, which):
        _, traj = small_run
        g = traj.grid
        state = traj.states[5]
        q, s = traj.products(5)
        m_sq = 1.0 if which == "E" else 0.0
        source = {"E": q.unpack(), "n": -g.spectral["k_sq"] * s.unpack(),
                  "n_delta": s.unpack()}[which]
        want = g.irfft((-g.spectral["k_sq"] - m_sq) * state.spectra(which)[0]
                       + source)
        utt = traj.jet(5, which).utt
        assert np.array_equal(utt, want)
        # the same equation written in physical space
        pair = state.pair(which)
        source = {"E": q.field(), "n": laplacian(s.field()),
                  "n_delta": s.field()}[which]
        physical = (laplacian(pair.u).values - m_sq * pair.u.values
                    + source.values)
        assert np.max(np.abs(utt - physical)) \
            <= 1e-13 * np.max(np.abs(physical))

    def test_picard_iterate_stops_at_depth_two(self, small_run):
        data, traj = small_run
        mapped = picard_map(traj, data)
        assert mapped.jet(5, "E").utt is not None
        with pytest.raises(ValueError, match="source derivative"):
            mapped.jet(5, "E", depth=3)


def held_arrays(obj) -> list:
    """Every array an object holds, through dataclasses, dicts and
    sequences; a Spectrum counts as one array, a Grid as none."""
    if isinstance(obj, (Spectrum, np.ndarray)):
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
        # (E, E_t) and (n_delta, n_delta_t), plus the direct flow's (n, n_t)
        traj = flow(gaussian_data(grid64, 1e-2), 1.0, 0.1,
                    record_sources=False, store_every=5)
        rows, cols = grid64.spectral["box"]
        for state in traj.states:
            held = held_arrays(state)
            assert len(held) == count
            assert all(isinstance(a, Spectrum)
                       and a.values.shape[1:] == (len(rows), cols)
                       for a in held)


def full_plane_march(data, steps, dt, kicks="self", direct_n=False):
    """Reference Strang march on whole half spectra, zero outside the
    dealias mask: whole-plane rotations and unpacked kicks.  Returns the
    packed (states, source record), each step's sources recorded."""
    g = data.grid
    kg_half = LinearOperator(g, 1).rotation(0.5 * dt)
    w_half = LinearOperator(g, 0).rotation(0.5 * dt)
    mask, k_sq = g.spectral["dealias_mask"], g.spectral["k_sq"]
    Eu, Eut, Du, Dut = (mask * g.rfft(f.values) for f in (
        data.E0, data.E1, data.n0_delta, data.n1_delta))
    Nu, Nut = -k_sq * Du, -k_sq * Dut

    def packed():
        spectra = {"E": (Eu, Eut), "n_delta": (Du, Dut)}
        if direct_n:
            spectra["n"] = (Nu, Nut)
        return {name: [Spectrum.pack(g, h).values for h in hats]
                for name, hats in spectra.items()}

    states, record = [packed()], []
    for k in range(steps):
        Eu, Eut = kg_half(Eu, Eut)
        Du, Dut = w_half(Du, Dut)
        Nu, Nut = w_half(Nu, Nut)
        n_mid = g.irfft(Nu if direct_n else -k_sq * Du)
        sources = _products(g, g.irfft(Eu), n_mid)
        record.append([src.values for src in sources])
        if kicks is not None:
            Q, S = (src.unpack() for src in (
                sources if kicks == "self" else kicks[k]))
            Eut = Eut + dt * Q
            Dut = Dut + dt * S
            Nut = Nut + dt * (-k_sq * S)
        Eu, Eut = kg_half(Eu, Eut)
        Du, Dut = w_half(Du, Dut)
        Nu, Nut = w_half(Nu, Nut)
        states.append(packed())
    return states, record


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
        states, record = full_plane_march(data, steps, dt, kicks,
                                          direct_n=kind == "direct")
        assert len(traj.states) == len(states)
        for state, ref in zip(traj.states, states):
            assert state.packed.keys() == ref.keys()
            for name, levels in ref.items():
                for spec, want in zip(state.packed[name], levels,
                                      strict=True):
                    assert np.array_equal(spec.values, want)
        for sources, want in zip(traj.source_history, record, strict=True):
            for src, w in zip(sources, want, strict=True):
                assert np.array_equal(src.values, w)


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
            for x, y in zip(got, want):
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

    def test_lone_state_jet_is_the_trajectory_jet(self, grid64):
        traj = evolve(gaussian_data(grid64, 0.3), 1.0, 0.1)
        for which in ("E", "n", "n_delta"):
            for depth in (1, 2, 3):
                a = traj.states[4].jet(which, depth)
                b = traj.jet(4, which, depth)
                assert len(a.levels()) == len(b.levels()) == depth + 1
                for x, y in zip(a.levels(), b.levels()):
                    assert np.array_equal(x, y)


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
            assert all(np.array_equal(x.values, y.values)
                       for x, y in zip(a, b, strict=True))
