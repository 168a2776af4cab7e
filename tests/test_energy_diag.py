import math

import numpy as np
import pytest

from kgz2d.energy_diag import (
    DiagnosticsReport,
    WeightSpec,
    XNORM_TERMS,
    energy,
    ghost_energy,
    ghost_weight_q,
    jbracket,
    kg_extra_decay_ratio,
    kg_pointwise,
    ks_ratio,
    multiplier_residual,
    xnorm_distance,
    xnorm_terms,
)
from kgz2d.grid import Field, FieldPair, make_grid
from kgz2d.system import evolve, free_flow, gaussian_data
from kgz2d.vector_fields import JetField


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

    def test_second_order_in_dt(self, grid64):
        data = gaussian_data(grid64, 1e-2)
        resid = {}
        for dt in (0.1, 0.05):
            traj = evolve(data, 3.0, dt)
            resid[dt] = multiplier_residual(traj, "E", 0.1, 0.05)[-1]
        assert resid[0.1] / resid[0.05] >= 3.5


class TestXnormTerms:
    def test_zero_run_all_terms(self, grid64):
        traj = zero_run(grid64)
        specs = [WeightSpec(name, gamma_cap=1) for name in XNORM_TERMS]
        rep = xnorm_terms(traj, specs)
        for name, series in rep.series.items():
            assert np.all(series == 0.0), name

    def test_unknown_term(self, free_kg_run):
        with pytest.raises(ValueError):
            xnorm_terms(free_kg_run, [WeightSpec("no_such_term")])

    def test_small_data_terms_bounded(self):
        # uniform boundedness on a small-data run: late growth within a few
        # percent
        g = make_grid(192, 30.0)
        data = gaussian_data(g, 1e-2)
        traj = evolve(data, 21.0, 0.15, store_every=10)
        specs = [WeightSpec(name, gamma_cap=1) for name in XNORM_TERMS]
        rep = xnorm_terms(traj, specs)
        T = traj.t_end
        for name, series in rep.series.items():
            assert np.all(np.isfinite(series)), name
            if series.max() == 0.0:
                continue
            v_half = np.interp(T / 2, traj.times, series)
            assert series[-1] <= 1.3 * v_half, name

    def test_weights_finite_and_nonnegative(self, nonlinear_run):
        specs = [WeightSpec(name, gamma_cap=1) for name in XNORM_TERMS]
        rep = xnorm_terms(nonlinear_run, specs)
        for name, series in rep.series.items():
            assert np.all(np.isfinite(series)), name
            assert np.all(series >= 0.0), name


class TestXnormDistance:
    def test_identical_trajectories(self, nonlinear_run):
        assert xnorm_distance(nonlinear_run, nonlinear_run) <= 1e-12

    def test_differs_from_free(self, grid64, nonlinear_run, free_kg_run):
        d = xnorm_distance(nonlinear_run, free_kg_run)
        assert d > 0

    def test_mismatched_grids(self, nonlinear_run):
        other = zero_run(make_grid(32, 12.0), T=3.0)
        with pytest.raises(ValueError):
            xnorm_distance(nonlinear_run, other)

    def test_spacetime_term_optional(self, nonlinear_run, free_kg_run):
        base = xnorm_distance(nonlinear_run, free_kg_run)
        with_st = xnorm_distance(nonlinear_run, free_kg_run,
                                 include_spacetime=True)
        assert with_st >= base


class TestRatios:
    def test_ks_zero_guarded(self, grid64):
        times, series = ks_ratio(zero_run(grid64), "n", gamma_cap=1)
        assert np.all(series == 0.0)

    def test_ks_static_time_zero(self, free_kg_run):
        times, series = ks_ratio(free_kg_run, "n", gamma_cap=1)
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
        # spatially constant mode v = cos(t): at the origin r = 0 both sides
        # reduce to elementary functions of t
        t = 2.0
        ones = np.ones((1, grid64.n, grid64.n))
        jet = JetField(grid64, t, np.cos(t) * ones, -np.sin(t) * ones,
                       -np.cos(t) * ones)
        gamma_first = np.zeros((grid64.n, grid64.n))
        lhs, rhs = kg_pointwise(jet, gamma_first, np.zeros_like(gamma_first))
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
