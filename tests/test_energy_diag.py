import math

import numpy as np
import pytest

from kgz2d.energy_diag import (
    _Q_STEP,
    _Q_ZMAX,
    DiagnosticsReport,
    _q_table,
    energy,
    ghost_energy,
    ghost_weight_q,
    jbracket,
    kg_extra_decay_ratio,
    kg_pointwise,
    ks_ratio,
    multiplier_residual,
    spectral_energy,
    xnorm_distance,
    xnorm_terms,
)
from kgz2d.grid import Field, FieldPair, make_grid, partial
from kgz2d.system import evolve, free_flow, gaussian_data, picard_map
from kgz2d.vector_fields import WordPlanes, all_words

from test_vector_fields import reference_word


@pytest.fixture(scope="module")
def free_kg_run(grid64):
    data = gaussian_data(grid64, 1e-2)
    return free_flow(data, 3.0, 0.1)


@pytest.fixture(scope="module")
def nonlinear_run(grid64):
    data = gaussian_data(grid64, 1e-2)
    return evolve(data, 3.0, 0.1)


def zero_run(grid, T=1.0, dt=0.1):
    from kgz2d.system import InitialData
    z1 = Field(grid, np.zeros((1, grid.n, grid.n)))
    z2 = Field(grid, np.zeros((2, grid.n, grid.n)))
    return evolve(InitialData(E0=z2, E1=z2, n0_delta=z1, n1_delta=z1), T, dt)


class TestGhostWeight:
    def test_zero_delta(self):
        assert np.all(ghost_weight_q(np.array([-3.0, 0.0, 4.0]), 0.0) == 0.0)

    def test_half_line_value_closed_form(self):
        # q(0) = delta * (sqrt(pi)/2) Gamma(d/2)/Gamma((1+d)/2)
        for d in (0.1, 0.2):
            expect = d * 0.5 * math.sqrt(math.pi) * math.gamma(d / 2) \
                / math.gamma((1 + d) / 2)
            assert ghost_weight_q(0.0, d) == pytest.approx(expect, rel=1e-8)

    def test_derivative_is_integrand(self):
        # dq/dz = delta <z>^(-1-delta), via finite differences
        zs = np.array([-10.0, -2.0, -0.3, 0.7, 5.0, 40.0])
        d = 0.1
        h = 1e-4
        fd = (ghost_weight_q(zs + h, d) - ghost_weight_q(zs - h, d)) / (2 * h)
        expect = d * jbracket(zs) ** (-1.1)
        assert np.max(np.abs(fd - expect)) < 1e-6

    def test_bounded_and_increasing(self):
        zs = np.linspace(-100, 100, 5001)
        q = ghost_weight_q(zs, 0.1)
        assert np.all(np.diff(q) >= 0)
        assert q[-1] < 2.5

    def test_index_lookup_is_interp(self):
        # the table is uniform, so reading it by index and clamping at its
        # end is np.interp on it: at a negative z, zero, a node, mid-cell
        # and beyond the end
        d = 0.1
        odd, half = _q_table(d)
        zs = np.arange(0.0, _Q_ZMAX + _Q_STEP, _Q_STEP)
        z = np.array([-37.2504, 0.0, 5.0, 2.0 + 0.5 * _Q_STEP, 1.5 * _Q_ZMAX])
        assert 5.0 in zs and len(zs) == len(odd)
        want = d * (half + np.sign(z) * np.interp(np.abs(z), zs, odd))
        got = ghost_weight_q(z, d)
        assert np.max(np.abs(got - want) / want) <= 1e-15

    def test_quadrature_oracle(self):
        # direct Simpson quadrature of the integrand over [-200, z] plus the
        # analytic remainder of the far tail
        d, z = 0.1, 3.0
        s = np.linspace(-200.0, z, 400001)
        f = (1 + s**2) ** (-(1 + d) / 2)
        body = np.trapezoid(f, s)
        # remainder: int_{-inf}^{-200} <s>^{-1
        # -d} ds with <s> ~ |s| to 1e-5 accuracy at |s| = 200
        tail = 200.0 ** (-d) / d
        assert ghost_weight_q(z, d) == pytest.approx(d * (body + tail), rel=1e-4)


class TestEnergy:
    def test_zero(self, grid32):
        z = Field(grid32, np.zeros((1, 32, 32)))
        assert energy(FieldPair(z, z), 1) == 0.0

    def test_cos_closed_form(self, grid32):
        u = Field(grid32, np.cos(grid32.X1))
        z = Field(grid32, np.zeros((1, 32, 32)))
        val = energy(FieldPair(u, z), 1)
        # int (sin^2 + cos^2) over [-pi, pi)^2 = 4 pi^2; quadrature oracle
        quad = np.sum(np.sin(grid32.X1) ** 2 + np.cos(grid32.X1) ** 2) \
            * grid32.cell_area
        assert val == pytest.approx(4 * np.pi**2, rel=1e-12)
        assert val == pytest.approx(quad, rel=1e-12)

    @pytest.mark.parametrize("components, m", [(1, 0), (2, 1)])
    def test_physical_density_with_nyquist_content(self, grid32,
                                                    components, m):
        # white noise fills the Nyquist row and column, where the spectral
        # derivatives (and so the gradient weight) are zero
        rng = np.random.default_rng(5)
        u, ut = (Field(grid32, rng.standard_normal((components, 32, 32)))
                 for _ in range(2))
        dens = ut.values**2 + partial(u, 1).values**2 \
            + partial(u, 2).values**2 + m**2 * u.values**2
        assert energy(FieldPair(u, ut), m) == pytest.approx(
            np.sum(dens) * grid32.cell_area, rel=1e-13)

    def test_free_run_constant(self, free_kg_run):
        es = [energy(s.E, 1) for s in free_kg_run.states]
        assert (max(es) - min(es)) / es[0] <= 1e-11


class TestGhostEnergy:
    def test_zero_run(self, grid64):
        series = ghost_energy(zero_run(grid64), "n", 0.1)
        assert np.all(series == 0.0)

    def test_equals_energy_at_start(self, free_kg_run):
        series = ghost_energy(free_kg_run, "E", 0.1)
        assert series[0] == pytest.approx(
            energy(free_kg_run.states[0].E, 1), rel=1e-14)

    def test_nondecreasing_on_free_run(self, free_kg_run):
        series = ghost_energy(free_kg_run, "E", 0.1)
        assert np.all(np.diff(series) >= -1e-14 * series[0])

    def test_dominates_natural_energy(self, free_kg_run):
        series = ghost_energy(free_kg_run, "E", 0.1)
        nat = np.array([energy(s.E, 1) for s in free_kg_run.states])
        assert np.all(series >= nat - 1e-14 * nat[0])

    def test_fine_dt_quadrature_oracle(self, grid64):
        data = gaussian_data(grid64, 1e-2)
        coarse = ghost_energy(free_flow(data, 3.0, 0.1), "E", 0.1)[-1]
        fine = ghost_energy(free_flow(data, 3.0, 0.025), "E", 0.1)[-1]
        assert abs(coarse - fine) / fine <= 1e-4

    def test_rejects_bad_delta(self, free_kg_run):
        with pytest.raises(ValueError):
            ghost_energy(free_kg_run, "E", 0.0)


class TestMultiplierIdentity:
    def test_zero_run(self, grid64):
        series = multiplier_residual(zero_run(grid64), "E", 0.1, 0.05)
        assert np.all(series == 0.0)

    def test_degenerate_limit_is_conservation(self, free_kg_run):
        series = multiplier_residual(free_kg_run, "E", 0.0, 0.0)
        e0 = energy(free_kg_run.states[0].E, 1)
        assert series[-1] <= 1e-10 * e0

    def test_depth_one_jets_give_the_depth_two_series(self, grid64):
        # the identity reads u, u_t and their gradients but no u_tt, so the
        # depth-1 jet levels it asks for give the series of depth-2 ones bit
        # for bit
        traj = evolve(gaussian_data(grid64, 0.3), 2.0, 0.1)
        depths = []

        class DepthTwo:
            def __getattr__(self, name):
                return getattr(traj, name)

            def jet_levels(self, k, which, depth=2):
                depths.append(depth)
                return traj.jet_levels(k, which, depth=2)

        for which in ("E", "n"):
            want = multiplier_residual(DepthTwo(), which, 0.1, 0.05)
            assert set(depths) == {1}
            assert np.array_equal(multiplier_residual(traj, which, 0.1, 0.05),
                                  want)
            assert np.any(want > 0)

    def test_second_order_in_dt(self, grid64):
        data = gaussian_data(grid64, 1e-2)
        resid = {}
        for dt in (0.1, 0.05):
            traj = evolve(data, 3.0, dt)
            resid[dt] = multiplier_residual(traj, "E", 0.1, 0.05)[-1]
        assert resid[0.1] / resid[0.05] >= 3.5


class TestXnormTerms:
    def test_zero_run_all_terms(self, grid64):
        assert np.all(xnorm_terms(zero_run(grid64)) == 0.0)

    def test_small_data_terms_bounded(self):
        # uniform boundedness on a small-data run: late growth within a few
        # percent
        g = make_grid(192, 30.0)
        data = gaussian_data(g, 1e-2)
        traj = evolve(data, 21.0, 0.15, store_every=10)
        series = xnorm_terms(traj)
        assert np.all(np.isfinite(series)) and series.max() > 0.0
        v_half = np.interp(traj.t_end / 2, traj.times, series)
        assert series[-1] <= 1.3 * v_half

    def test_weights_finite_and_nonnegative(self, nonlinear_run):
        series = xnorm_terms(nonlinear_run)
        assert series.shape == nonlinear_run.times.shape
        assert np.all(np.isfinite(series))
        assert np.all(series >= 0.0)

    def test_identity_word_is_ghost_energy(self, nonlinear_run):
        # ghost_energy is the identity word's term of the same loop, and
        # every other word's term is nonnegative
        series = ghost_energy(nonlinear_run, "n", 0.1)
        assert np.all(xnorm_terms(nonlinear_run) >= np.sqrt(series))


def letter_path_distance(a, b, delta=0.1):
    """xnorm_distance evaluated letter by letter (reference_word) on the
    difference of the two trajectories' jet levels, E_1 taken from the
    transforms of the physical values of Gamma dE and d_t Gamma dE."""
    g = a.grid
    cell = g.cell_area
    best = 0.0
    for k, t in enumerate(a.times):
        jet = {which: WordPlanes(g, t, [la - lb for la, lb in zip(
            a.jet_levels(k, which, depth), b.jet_levels(k, which, depth))])
            for which, depth in (("E", 2), ("n", 1))}
        cone_w = (jbracket(t + g.R) / jbracket(t - g.R)) ** 2
        total = 0.0
        for w in all_words(1):
            u, ut = reference_word(w.letters, jet["E"])[:2]
            vn = reference_word(w.letters, jet["n"])[0]
            e1 = spectral_energy(g, g.rfft(u), g.rfft(ut), 1)
            total += jbracket(t) ** (-delta) * (
                math.sqrt(e1) + math.sqrt(np.sum(vn**2) * cell)
                + math.sqrt(np.sum(cone_w * np.sum(u**2, axis=0)) * cell))
        best = max(best, total)
    return best


class TestXnormDistance:
    def test_identical_trajectories(self, nonlinear_run):
        assert xnorm_distance(nonlinear_run, nonlinear_run) == 0.0

    def test_symmetric(self, nonlinear_run, free_kg_run):
        assert xnorm_distance(nonlinear_run, free_kg_run) \
            == xnorm_distance(free_kg_run, nonlinear_run)

    def test_differs_from_free(self, grid64, nonlinear_run, free_kg_run):
        d = xnorm_distance(nonlinear_run, free_kg_run)
        assert d > 0

    def test_mismatched_grids(self, nonlinear_run):
        other = zero_run(make_grid(32, 12.0), T=3.0)
        with pytest.raises(ValueError):
            xnorm_distance(nonlinear_run, other)

    def test_matches_the_letter_path(self, grid64):
        # the second and third Picard iterates, whose difference reaches
        # the box edge at 5.9e-4 of its peak; E_1 is the Parseval sum of
        # the transforms of Gamma dE and d_t Gamma dE.  Taking it from the
        # words' d_a rows instead moves the distance by 3.7e-5
        data = gaussian_data(grid64, 0.3)
        first = picard_map(free_flow(data, 1.5, 0.05), data)
        a, b = picard_map(first, data), first
        edge = grid64.box_irfft(a.jet_levels(30, "E", 1)[0]
                                - b.jet_levels(30, "E", 1)[0])
        assert np.max(np.abs(edge[:, 0])) >= 1e-4 * np.max(np.abs(edge))
        want = letter_path_distance(a, b)
        assert abs(xnorm_distance(a, b) - want) <= 1e-12 * want

    def test_spacetime_term_optional(self, nonlinear_run, free_kg_run):
        base = xnorm_distance(nonlinear_run, free_kg_run)
        with_st = xnorm_distance(nonlinear_run, free_kg_run,
                                 include_spacetime=True)
        assert with_st >= base


class TestRatios:
    def test_ks_zero_guarded(self, grid64):
        times, series = ks_ratio(zero_run(grid64), "n")
        assert np.all(series == 0.0)

    def test_ks_static_time_zero(self, free_kg_run):
        times, series = ks_ratio(free_kg_run, "n")
        assert times[0] == 0.0
        assert np.isfinite(series[0]) and series[0] > 0

    def test_ks_free_wave_bounded(self):
        # needs a grid that represents the data compactly, hence 256^2
        g = make_grid(256, 40.0)
        data = gaussian_data(g, 1e-2)
        traj = free_flow(data, 30.0, 0.25, store_every=8,
                         record_sources=False)
        times, series = ks_ratio(traj, "n")
        window = (times >= 1.0) & (times <= 15.0)
        assert np.max(series[window]) <= 5.0

    def test_hessian_free_wave_bounded(self, free_kg_run):
        from kgz2d.energy_diag import hessian_decay_ratio
        times, series = hessian_decay_ratio(free_kg_run, "n_delta")
        assert np.all(np.isfinite(series))
        assert np.max(series) <= 10.0

    def test_kg_free_bounded(self, free_kg_run):
        times, series = kg_extra_decay_ratio(free_kg_run, "E")
        assert np.all(np.isfinite(series))
        assert np.max(series) <= 10.0

    def test_zero_run_ratios(self, grid64):
        from kgz2d.energy_diag import hessian_decay_ratio
        traj = zero_run(grid64, T=2.0)
        _, h = hessian_decay_ratio(traj)
        _, k = kg_extra_decay_ratio(traj)
        assert np.all(h == 0.0) and np.all(k == 0.0)

    def test_kg_pointwise_closed_form_at_origin(self, grid64):
        # spatially constant mode v = cos(t), which is band-limited: at the
        # origin r = 0 both sides reduce to elementary functions of t
        t = 2.0
        ones = np.ones((1, grid64.n, grid64.n))
        planes = WordPlanes(grid64, t, [
            grid64.box_rfft(c * ones) for c in (np.cos(t), -np.sin(t),
                                                 -np.cos(t))])
        gamma_first = np.zeros((grid64.n, grid64.n))
        lhs, rhs = kg_pointwise(planes, gamma_first,
                                np.zeros_like(gamma_first))
        i0 = np.argmin(np.abs(grid64.xs))
        tb = np.sqrt(1 + t * t)
        assert lhs[i0, i0] == pytest.approx(abs(np.cos(t)), rel=1e-12)
        assert rhs[i0, i0] == pytest.approx(
            (t / tb) * abs(np.cos(t)) + abs(np.sin(t)) / tb, rel=1e-9)


class TestDiagnosticsReport:
    def test_csv_round_trip(self, tmp_path):
        times = np.linspace(0, 1, 5)
        rep = DiagnosticsReport(times=times,
                                series={"a": times**2, "b": 1 + times})
        path = tmp_path / "diag.csv"
        rep.write_csv(path)
        back = DiagnosticsReport.read_csv(path)
        assert np.array_equal(back.times, times)
        assert np.array_equal(back.series["a"], times**2)

    def test_byte_determinism(self, tmp_path):
        times = np.linspace(0, 1, 7)
        rep = DiagnosticsReport(times=times, series={"x": np.pi * times})
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rep.write_csv(p1)
        rep.write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DiagnosticsReport(times=np.array([0.0, 1.0]),
                              series={"bad": np.array([1.0, np.inf])})

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            DiagnosticsReport(times=np.array([0.0, 1.0]),
                              series={"bad": np.array([1.0])})
