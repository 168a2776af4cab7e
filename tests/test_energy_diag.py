import math
import tracemalloc

import numpy as np
import pytest

from kgz2d.energy_diag import (
    _MASS,
    _Q_STEP,
    _Q_ZMAX,
    LETTERS,
    WORD_WEIGHTS,
    DiagnosticsReport,
    ExtraDecayRatios,
    GhostEnergies,
    KSRatios,
    MultiplierResiduals,
    _masked_max_ratio,
    _q_table,
    energy,
    ghost_weight_q,
    hessian_pointwise,
    jbracket,
    kg_pointwise,
    spectral_energy,
    xnorm_distance,
    xnorm_terms,
)
from kgz2d.grid import Field, FieldPair, make_grid, partial
from kgz2d.system import (evolve, feed, free_flow, gaussian_data, picard_map,
                          state_levels)
from kgz2d.vector_fields import WordPlanes, all_words, word_terms

from test_vector_fields import reference_word


@pytest.fixture(scope="module")
def free_kg_run(grid64):
    data = gaussian_data(grid64, 1e-2)
    return free_flow(data, 3.0, 0.1)


@pytest.fixture(scope="module")
def nonlinear_run(grid64):
    data = gaussian_data(grid64, 1e-2)
    return evolve(data, 3.0, 0.1)


@pytest.fixture(scope="module")
def picard_iterate(grid64):
    """The first Picard iterate from the free flow of nonlinear_run's data:
    its sources at snapshot times are the guess's (snapshot_sources)."""
    data = gaussian_data(grid64, 1e-2)
    return picard_map(free_flow(data, 3.0, 0.1), data)


def zero_run(grid, T=1.0, dt=0.1):
    from kgz2d.system import InitialData
    z1 = Field(grid, np.zeros((1, grid.n, grid.n)))
    z2 = Field(grid, np.zeros((2, grid.n, grid.n)))
    return evolve(InitialData(E0=z2, E1=z2, n0_delta=z1, n1_delta=z1), T, dt)


def ghost_series(traj, which, delta):
    """The ghost energy of the field itself: the identity word's column of
    the GhostEnergies the stored trajectory feeds."""
    ghost = traj.feed(GhostEnergies(traj.grid, delta, which))
    return np.array(ghost.rows)[:, 0]


def imbalance_series(traj, which, delta, kappa):
    """The multiplier identity's imbalance on a stored trajectory."""
    return traj.feed(MultiplierResiduals(traj.grid, which, delta,
                                         kappa)).series()


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
        series = ghost_series(zero_run(grid64), "n", 0.1)
        assert np.all(series == 0.0)

    def test_equals_energy_at_start(self, free_kg_run):
        series = ghost_series(free_kg_run, "E", 0.1)
        assert series[0] == pytest.approx(
            energy(free_kg_run.states[0].E, 1), rel=1e-14)

    def test_nondecreasing_on_free_run(self, free_kg_run):
        series = ghost_series(free_kg_run, "E", 0.1)
        assert np.all(np.diff(series) >= -1e-14 * series[0])

    def test_dominates_natural_energy(self, free_kg_run):
        series = ghost_series(free_kg_run, "E", 0.1)
        nat = np.array([energy(s.E, 1) for s in free_kg_run.states])
        assert np.all(series >= nat - 1e-14 * nat[0])

    def test_fine_dt_quadrature_oracle(self, grid64):
        data = gaussian_data(grid64, 1e-2)
        coarse = ghost_series(free_flow(data, 3.0, 0.1), "E", 0.1)[-1]
        fine = ghost_series(free_flow(data, 3.0, 0.025), "E", 0.1)[-1]
        assert abs(coarse - fine) / fine <= 1e-4

    def test_rejects_bad_delta(self, free_kg_run):
        with pytest.raises(ValueError):
            GhostEnergies(free_kg_run.grid, 0.0, "E")


class TestMultiplierIdentity:
    def test_zero_run(self, grid64):
        series = imbalance_series(zero_run(grid64), "E", 0.1, 0.05)
        assert np.all(series == 0.0)

    def test_degenerate_limit_is_conservation(self, free_kg_run):
        series = imbalance_series(free_kg_run, "E", 0.0, 0.0)
        e0 = energy(free_kg_run.states[0].E, 1)
        assert series[-1] <= 1e-10 * e0

    def test_depth_one_jets_give_the_depth_two_series(self, grid64):
        # the identity reads u, u_t and their gradients but no u_tt, so the
        # depth-1 jet levels it asks for give the series of depth-2 ones bit
        # for bit
        traj = evolve(gaussian_data(grid64, 0.3), 2.0, 0.1)

        class Counted(MultiplierResiduals):
            def add(self, t, levels, source):
                self.counts.add(len(levels))
                super().add(t, levels, source)

        for which in ("E", "n"):
            got, want = (Counted(grid64, which, 0.1, 0.05) for _ in "ab")
            got.counts, want.counts, want.depth = set(), set(), 2
            for reducer in (got, want):
                traj.feed(reducer)
            assert (got.counts, want.counts) == ({2}, {3})
            assert np.array_equal(got.series(), want.series())
            assert np.any(want.series() > 0)

    def test_second_order_in_dt(self, grid64):
        data = gaussian_data(grid64, 1e-2)
        resid = {}
        for dt in (0.1, 0.05):
            traj = evolve(data, 3.0, dt)
            resid[dt] = imbalance_series(traj, "E", 0.1, 0.05)[-1]
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
        # the identity word's term (ghost_series) is one of the summands,
        # and every other word's term is nonnegative
        series = ghost_series(nonlinear_run, "n", 0.1)
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


class TestRatios:
    def test_ks_zero_guarded(self, grid64):
        times, series = zero_run(grid64).feed(KSRatios(grid64, "n")).series()
        assert np.all(series == 0.0)

    def test_ks_static_time_zero(self, free_kg_run):
        times, series = free_kg_run.feed(
            KSRatios(free_kg_run.grid, "n")).series()
        assert times[0] == 0.0
        assert np.isfinite(series[0]) and series[0] > 0

    def test_ks_free_wave_bounded(self):
        # needs a grid that represents the data compactly, hence 256^2
        g = make_grid(256, 40.0)
        data = gaussian_data(g, 1e-2)
        traj = free_flow(data, 30.0, 0.25, store_every=8,
                         record_sources=False)
        times, series = traj.feed(KSRatios(g, "n")).series()
        window = (times >= 1.0) & (times <= 15.0)
        assert np.max(series[window]) <= 5.0

    def test_hessian_free_wave_bounded(self, free_kg_run):
        times, series = free_kg_run.feed(ExtraDecayRatios(
            free_kg_run.grid, "n_delta", hessian_pointwise)).series()
        assert np.all(np.isfinite(series))
        assert np.max(series) <= 10.0

    def test_kg_free_bounded(self, free_kg_run):
        times, series = free_kg_run.feed(ExtraDecayRatios(
            free_kg_run.grid, "E", kg_pointwise)).series()
        assert np.all(np.isfinite(series))
        assert np.max(series) <= 10.0

    def test_zero_run_ratios(self, grid64):
        traj = zero_run(grid64, T=2.0)
        _, h = traj.feed(ExtraDecayRatios(grid64, "n_delta",
                                          hessian_pointwise)).series()
        _, k = traj.feed(ExtraDecayRatios(grid64, "E", kg_pointwise)).series()
        assert len(h) == len(k) == 11
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


def reference_ks_ratio(traj, which):
    """The Klainerman-Sobolev ratio series as one loop over a stored
    trajectory, before it became a reducer (KSRatios)."""
    g = traj.grid
    words = [word_terms(w.letters) for w in all_words(2)]
    times = np.asarray(traj.times, dtype=float)
    valid = [k for k in range(len(times)) if 2.0 * times[k] <= times[-1] + 1e-9]
    if not valid:
        raise ValueError("trajectory horizon too short for any K-S query")
    w_snap, num = np.empty((2, len(times)))
    for k, t in enumerate(times):
        planes = WordPlanes(g, t, traj.jet_levels(k, which, 2))
        w_snap[k] = max(float(np.sqrt(np.sum(planes.combine(terms) ** 2)
                                      * g.cell_area)) for terms in words)
        num[k] = np.max(jbracket(t + g.R) ** 0.5
                        * Field(g, planes["u"]).magnitude())
    den = np.array([np.max(w_snap[times <= 2.0 * times[k] + 1e-9])
                    for k in valid])
    return times[valid], np.divide(num[valid], den, out=np.zeros(len(valid)),
                                   where=den > 0)


def reference_extra_decay(traj, which, pointwise):
    """An extra-decay ratio series as one loop over a stored trajectory,
    before it became a reducer (ExtraDecayRatios)."""
    g = traj.grid
    out_t, out_v = [], []
    for k, t in enumerate(traj.times):
        if t < 1.0:
            continue
        source = traj.source(k, which)
        planes = WordPlanes(g, t,
                            state_levels(traj.states[k], which, [source]))
        gamma_first = np.sqrt(sum(
            np.sum(planes.combine(terms) ** 2, axis=0)
            for letter in LETTERS for terms in WORD_WEIGHTS[(letter,)][1:]))
        F = g.box_irfft(source)
        lhs, rhs = pointwise(planes, gamma_first,
                             np.sqrt(np.sum(F**2, axis=0)))
        out_t.append(t)
        out_v.append(_masked_max_ratio(lhs, rhs, g.R <= 3.0 * t))
    return np.asarray(out_t), np.asarray(out_v)


def reference_multiplier_residual(traj, which, delta=0.1, kappa=0.05):
    """The multiplier identity's imbalance as one loop over a stored
    trajectory, before it became a reducer (MultiplierResiduals)."""
    mass = _MASS[which]
    g = traj.grid
    rho = np.sqrt(g.R**2 + g.h**2)
    grad_rho_defect = g.h**2 / (g.R**2 + g.h**2)  # 1 - |grad rho|^2
    terms = np.empty((len(traj.times), 4))
    for k, t in enumerate(traj.times):
        planes = WordPlanes(g, t, traj.jet_levels(k, which, 1))
        u, ut, u1, u2 = (planes[name] for name in ("u", "ut", "u1", "u2"))
        eq = np.exp(ghost_weight_q(rho - t, delta))
        tw = jbracket(t) ** (-kappa)
        ut_sq = np.sum(ut**2, axis=0)
        e_dens = ut_sq + np.sum(u1**2 + u2**2, axis=0) \
            + mass**2 * np.sum(u**2, axis=0)
        b_term = 0.5 * float(np.sum(tw * eq * e_dens) * g.cell_area)
        ghost_dens = 0.5 * delta * jbracket(rho - t) ** (-(1.0 + delta)) \
            * (sum(np.sum((r * ut + ua) ** 2, axis=0)
                   for r, ua in zip(g.radial_unit, (u1, u2)))
               + grad_rho_defect * ut_sq + mass**2 * np.sum(u**2, axis=0))
        ghost_term = float(np.sum(tw * eq * ghost_dens) * g.cell_area)
        kap_term = 0.5 * kappa * t * jbracket(t) ** (-kappa - 2.0)
        kap_int = float(np.sum(kap_term * eq * e_dens) * g.cell_area)
        F = g.box_irfft(traj.source(k, which))
        src = float(np.sum(tw * eq * np.sum(ut * F, axis=0)) * g.cell_area)
        terms[k] = (src, b_term, ghost_term, kap_int)
    acc = np.cumsum(0.5 * (terms[1:] + terms[:-1])
                    * np.diff(traj.times)[:, None], axis=0)
    src_acc, _, ghost_acc, kap_acc = np.vstack([np.zeros(4), acc]).T
    return np.abs(src_acc - (terms[:, 1] - terms[0, 1] + ghost_acc + kap_acc))


# each reducer, made on a grid, and its reference loop on a trajectory
READERS = {
    "ks_n": (lambda g: KSRatios(g, "n"),
             lambda traj: reference_ks_ratio(traj, "n")),
    "hessian_n_delta": (
        lambda g: ExtraDecayRatios(g, "n_delta", hessian_pointwise),
        lambda traj: reference_extra_decay(traj, "n_delta",
                                           hessian_pointwise)),
    "kg_E": (lambda g: ExtraDecayRatios(g, "E", kg_pointwise),
             lambda traj: reference_extra_decay(traj, "E", kg_pointwise)),
    "multiplier_E": (lambda g: MultiplierResiduals(g, "E", 0.1, 0.05),
                     lambda traj: reference_multiplier_residual(traj, "E")),
    "multiplier_n": (lambda g: MultiplierResiduals(g, "n", 0.2, 0.1),
                     lambda traj: reference_multiplier_residual(
                         traj, "n", 0.2, 0.1)),
}


def assert_same_series(got, want):
    """Bit for bit, and not vacuously: some value is positive."""
    got, want = (np.atleast_2d(np.array(x)) for x in (got, want))
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.any(want[-1] > 0)


class TestReducers:
    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("run", ["nonlinear_run", "free_kg_run",
                                     "picard_iterate"])
    def test_fed_equals_the_reference_loop(self, request, reader, run):
        traj = request.getfixturevalue(run)
        make, reference = READERS[reader]
        assert_same_series(traj.feed(make(traj.grid)).series(),
                           reference(traj))

    def test_streamed_equals_the_stored_reference(self, grid64,
                                                  nonlinear_run):
        # fed live from on_snapshot, the sources made by state_source
        readers = {name: make(grid64) for name, (make, _) in READERS.items()}
        evolve(gaussian_data(grid64, 1e-2), 3.0, 0.1, record_sources=False,
               on_snapshot=lambda state: [feed(r, state)
                                          for r in readers.values()])
        for name, reader in readers.items():
            assert_same_series(reader.series(),
                               READERS[name][1](nonlinear_run))

    def test_stored_feed_forms_one_source_per_snapshot(self, grid64,
                                                      transforms):
        # before t = 1 the ratios read nothing, so feeding them costs the
        # source alone, formed once for each of the 6 snapshots: the fields
        # its product reads pruned inverse (E, and n for -nE), the product
        # pruned forward (|E|^2 is not formed for E); no whole plane
        traj = evolve(gaussian_data(grid64, 1e-2), 0.5, 0.1)
        for which, pointwise, inverses in (("n_delta", hessian_pointwise, 6),
                                           ("E", kg_pointwise, 12)):
            calls = transforms()
            ratios = traj.feed(ExtraDecayRatios(grid64, which, pointwise))
            assert ratios.times == [] and len(traj) == 6
            assert calls == {"rfft": 0, "irfft": 0, "box_rfft": 6,
                             "box_irfft": inverses}

    def test_streaming_keeps_under_half_the_stored_memory(self, grid128):
        # criterion 9's three readers on a march that stores every state
        # and on one that streams them
        data = gaussian_data(grid128, 1e-2)
        names = ("ks_n", "hessian_n_delta", "kg_E")

        def stored():
            traj = evolve(data, 4.0, 0.1, record_sources=False)
            return [traj.feed(READERS[name][0](grid128)).series()
                    for name in names]

        def streamed():
            readers = [READERS[name][0](grid128) for name in names]
            evolve(data, 4.0, 0.1, record_sources=False,
                   on_snapshot=lambda state: [feed(r, state) for r in readers])
            return [r.series() for r in readers]

        peaks, results = [], []
        for march in (stored, streamed):
            tracemalloc.start()
            try:
                results.append(march())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        for got, want in zip(*results, strict=True):
            assert_same_series(got, want)
        assert peaks[1] < 0.5 * peaks[0]


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
