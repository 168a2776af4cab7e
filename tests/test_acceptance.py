"""
Acceptance suite at the reference desk configuration:
256 points per axis, box half-width 40, Gaussian amplitude 1e-2, width 1,
dt = 0.15, horizon 30.  One printed PASS/FAIL line per criterion.

Criteria 6-9 read one desk march through the reducers the run and scatter
verbs use (harness.RunDiagnostics with a scattering.DuhamelSum), plus
criterion 7's Duhamel remainders (scattering.DuhamelTail) and, fed every
third snapshot, criterion 8's ghost energies and criterion 9's extra-decay
ratios (energy_diag.ExtraDecayRatios); the march itself stores no state and
records no source.  Criterion 9's Klainerman-Sobolev march and criterion 2's
dt/2 march stream into their reducers too.  Criteria 2 (its dt leg), 4 and
5 share one stored march to the Picard horizon.

The interior two-shell probe (criterion 6c) asserts the theorem's one-sided
bound: the interior of the wave field decays at least as fast as the
<t-r>^(-1/2) profile of |n| <~ eps <t+r>^(-1/2) <t-r>^(-1/2), i.e. the shell
ratio is at least half the predicted one.  It does not ask for saturation.
The wave data are n = Delta n_Delta with n_Delta(0) = a g, d_t n_Delta(0) = 0,
so the linear part of n is d_t^3 of a charged 2-D wave and behaves like
t (6s + 15r^2) s^(-7/2), s = t^2 - r^2, inside the cone: <t-r>^(-7/2), far
steeper than the bound.  The measured ratio is therefore far above the
predicted one.  See notes in the repository README.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from kgz2d.energy_diag import (
    ExtraDecayRatios,
    KSRatios,
    MultiplierResiduals,
    energy,
)
from kgz2d.grid import Field, FieldPair, make_grid, read_field, write_field
from kgz2d.harness import RunConfig, RunDiagnostics, fit_envelope, run
from kgz2d.propagator import LinearOperator, free_step
from kgz2d.scattering import (
    DuhamelSum,
    DuhamelTail,
    launch_from,
    residual_series,
    scatter_profile,
)
from kgz2d.system import (evolve, evolve_direct_n, feed, gaussian_data,
                          picard_solve)
from kgz2d.vector_fields import check_commutators

from conftest import cut, windowed_random_jet

DESK_N = 256
DESK_L = 40.0
DESK_DT = 0.15
DESK_T = 30.0
DESK_AMP = 1e-2
PICARD_T = 10.05  # nearest multiple of dt to the nominal horizon 10
PROBES = (7.5, 15.0, 21.0)  # criterion 7's consistency identity times


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {status} #{number} {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="session")
def desk_data():
    # the run verb's default config is the desk configuration
    return RunConfig().build_data()


@pytest.fixture(scope="session")
def desk_grid():
    return make_grid(DESK_N, DESK_L)


@pytest.fixture(scope="session")
def short_run(desk_data):
    """The desk data marched to PICARD_T at DESK_DT, every state stored:
    criterion 2's dt = 0.15 leg, criterion 4's divergence-form leg and
    criterion 5's eps = 1e-2 reference."""
    return evolve(desk_data, PICARD_T, DESK_DT, record_sources=False)


class TestCriterion1:
    def test_exact_propagator_conservation(self):
        g = make_grid(128, 20.0)
        amp = DESK_AMP * np.exp(-(g.X1**2 + g.X2**2) / 2.0)
        pair = FieldPair(Field(g, amp), Field(g, np.zeros_like(amp)))
        op = LinearOperator(g, 1)
        e0 = energy(pair, 1)
        for _ in range(1000):
            pair = free_step(op, pair, 0.1)
        drift = abs(energy(pair, 1) - e0) / e0
        report(1, "free Klein-Gordon energy conservation", drift <= 1e-11,
               f"relative drift {drift:.2e} over 1000 steps (tol 1e-11)")


class TestCriterion2:
    def test_multiplier_identity_convergence(self, desk_data, short_run):
        # the dt leg reads the stored short_run; the dt/2 leg streams its
        # states into one reducer per (delta, kappa) and stores none
        pairs = ((0.1, 0.05), (0.2, 0.1))
        halves = [MultiplierResiduals(desk_data.grid, "E", delta, kappa)
                  for delta, kappa in pairs]
        evolve(desk_data, PICARD_T, DESK_DT / 2, record_sources=False,
               on_snapshot=lambda state: [feed(r, state) for r in halves])
        factors = {}
        for (delta, kappa), half in zip(pairs, halves):
            full = short_run.feed(MultiplierResiduals(desk_data.grid, "E",
                                                      delta, kappa))
            factors[(delta, kappa)] = full.series()[-1] / half.series()[-1]
        ok = all(f >= 3.5 for f in factors.values())
        detail = ", ".join(f"(d={d},k={k}): x{f:.2f}"
                           for (d, k), f in factors.items())
        report(2, "multiplier identity second-order convergence", ok,
               detail + " (need >= 3.5)")


class TestCriterion3:
    def test_commutator_identities(self):
        g = make_grid(128, 24.0)
        worst = 0.0
        for seed in range(20):
            rep = check_commutators(windowed_random_jet(g, 500 + seed))
            worst = max(worst, rep.max_relative())
        report(3, "commutator identities, 20 seeded fields", worst <= 1e-8,
               f"max relative residual {worst:.2e} (tol 1e-8)")


class TestCriterion4:
    def test_reformulation_equivalence(self, desk_data, short_run):
        a = short_run
        b = evolve_direct_n(desk_data, PICARD_T, DESK_DT,
                            record_sources=False, store_every=67)
        na = a.states[-1].n.u.values
        nb = b.states[-1].n.u.values
        rel = np.max(np.abs(na - nb)) / np.max(np.abs(na))
        report(4, "divergence-form vs direct wave evolution", rel <= 1e-8,
               f"relative n difference {rel:.2e} at t={a.t_end:g} (tol 1e-8)")


class TestCriterion5:
    @pytest.mark.parametrize("eps", [1e-3, 3e-3, 1e-2])
    def test_picard_contraction(self, request, desk_grid, desk_data, eps):
        data = gaussian_data(desk_grid, eps)
        if eps == DESK_AMP:
            # the desk data, so short_run is the reference; it is asked for
            # here only, so that no other amplitude holds it with its own
            assert all(np.array_equal(getattr(data, f).values,
                                      getattr(desk_data, f).values)
                       for f in ("E0", "E1", "n0_delta", "n1_delta"))
            reference = request.getfixturevalue("short_run")
        else:
            reference = evolve(data, PICARD_T, DESK_DT, record_sources=False)
        dists = []

        def on_snapshot(state):
            # the newest iterate's states; a restart begins again at t = 0
            if state.t == 0.0:
                dists.clear()
            ref = reference.states[len(dists)]
            dists.append(np.sqrt(energy(state.E - ref.E, 1))
                         + np.sqrt(energy(state.n - ref.n, 0)))

        ratios = picard_solve(data, PICARD_T, DESK_DT, tol=1e-6,
                              on_snapshot=on_snapshot)
        dist = max(dists)
        ok = all(r <= 0.5 for r in ratios) and dist <= 1e-5
        report(5, f"Picard contraction (eps={eps:g})", ok,
               f"ratios {[f'{r:.4f}' for r in ratios]} (need <= 0.5), "
               f"energy distance to evolve {dist:.2e} (tol 1e-5)")


@pytest.fixture(scope="session")
def desk_march(desk_data):
    """The T = 30 desk march, which stores no state and records no source.
    It feeds the scatter verb's reducer (criteria 6 and 7), the Duhamel
    remainders at t = 0 and at PROBES, and every third snapshot (0.45 time
    spacing) to the run verb's ghost energies (criterion 8) and the two
    extra-decay ratios (criterion 9)."""
    g = desk_data.grid
    t_max = 0.8 * (DESK_L - desk_data.radius)
    snaps = RunDiagnostics(g, energies=False, delta=0.1, snap_every=0,
                           duhamel=DuhamelSum(g, DESK_DT, t_max, (1.0,)))
    tails = DuhamelTail(g, DESK_DT, t_max, (0.0,) + PROBES)
    strided = RunDiagnostics(g, energies=True, delta=0.1, snap_every=0)
    hessian = ExtraDecayRatios(g, "n_delta")
    kg = ExtraDecayRatios(g, "E")

    def on_snapshot(state):
        if len(snaps.sup_E) % 3 == 0:
            strided.add(state)
            feed(hessian, state)
            feed(kg, state)
        snaps.add(state)

    def on_source(tau, sources, state):
        snaps.add_source(tau, sources, state)
        tails.add(tau, sources, state)

    traj = evolve(desk_data, DESK_T, DESK_DT, record_sources=False,
                  on_snapshot=on_snapshot, on_source=on_source)
    return SimpleNamespace(traj=traj, snaps=snaps, tails=tails,
                           strided=strided, hessian=hessian, kg=kg)


class TestDeskMarch:
    def test_keeps_no_state_and_no_source(self, desk_march):
        # the criteria read the verbs' reducers, not a stored trajectory,
        # and the fixture keeps no list of states beside them
        traj = desk_march.traj
        assert traj.states == [] and traj.source_history is None
        assert len(traj.times) == 201 == len(desk_march.snaps.states)
        assert not any(isinstance(v, list) for v in vars(desk_march).values())
        # every third snapshot fed the strided readers; the ratios keep
        # those with t >= 1, two scalars each
        assert len(desk_march.strided.sup_E) == 67
        for ratio in (desk_march.hessian, desk_march.kg):
            assert len(ratio.times) == len(ratio.values) == 64


class TestCriterion6:
    def test_kg_sup_decay_rate(self, desk_march):
        fit = fit_envelope(desk_march.traj.times, desk_march.snaps.sup_E,
                           (5.0, 28.0))
        ok = -1.2 <= fit.exponent <= -0.8
        report(6, "sup|E| decay rate", ok,
               f"fitted slope {fit.exponent:+.3f} in [-1.2, -0.8], {fit}")

    def test_wave_cone_decay_rate(self, desk_march):
        fit = fit_envelope(desk_march.traj.times,
                           desk_march.snaps.shells.sups, (5.0, 28.0))
        ok = -0.7 <= fit.exponent <= -0.35
        report(6, "light-cone sup|n| decay rate", ok,
               f"fitted slope {fit.exponent:+.3f} in [-0.7, -0.35], {fit}")

    def test_interior_two_shell_probe(self, desk_march):
        # The theorem bounds the interior decay from one side only (see
        # module docstring): the linear part of n decays like <t-r>^(-7/2)
        # inside the cone, so the ratio lies far above the predicted value.
        measured, predicted = desk_march.snaps.shells.interior_ratio()
        ok = measured >= 0.5 * predicted
        report(6, "interior two-shell <t-r> ratio", ok,
               f"measured {measured:.2f} vs predicted {predicted:.2f} "
               f"(need >= {0.5 * predicted:.2f}: interior decay at least "
               "<t-r>^(-1/2)); steeper interior decay gives a larger ratio")


@pytest.fixture(scope="session")
def scatter(desk_march):
    """The scatter verb's s = 1 profile, launched from the reducer's state
    at the cut t_max = 0.8 (L - R)."""
    duhamel = desk_march.snaps.duhamel
    times, norms, _ = duhamel.series(1.0)
    return scatter_profile(launch_from(duhamel.state), 1.0, duhamel.t_max,
                           times, norms, DESK_DT)


@pytest.fixture(scope="session")
def residual(desk_march, scatter):
    """(times, residual) of every snapshot against the launch."""
    times, (res,) = residual_series(desk_march.snaps.states,
                                    scatter.data_plus, [scatter.s])
    return times, res


class TestCriterion7:
    def test_source_norm_decay(self, desk_march, scatter):
        times, norms, _ = desk_march.snaps.duhamel.series(1.0)
        fit = fit_envelope(times, norms, (10.0, scatter.t_max))
        report(7, "source norm decay", fit.exponent <= -1.1,
               f"||Q||_H1 slope {fit.exponent:+.3f} (need <= -1.1), {fit}")

    def test_residual_decay_and_tail(self, scatter, residual):
        times, res = residual
        w_hi = min(28.0, 0.85 * scatter.t_max)
        fit = fit_envelope(times, res, (10.0, w_hi))
        frac = scatter.tail / scatter.captured
        k_cut = int(np.floor(scatter.t_max / DESK_DT))
        ok = fit.exponent <= -0.10 and frac <= 0.20
        report(7, "scattering residual decay", ok,
               f"residual slope {fit.exponent:+.3f} over [10, {w_hi:.1f}] "
               f"(need <= -0.10); tail proxy {scatter.tail:.2e} = "
               f"{100 * frac:.1f}% of captured source integral "
               f"{scatter.captured:.2e} (need <= 20%); residual at the "
               f"cut {res[k_cut]:.2e}")

    def test_residual_consistency_identity(self, desk_march, scatter,
                                           residual):
        worst = 0.0
        _, res = residual
        for t in PROBES:
            k = desk_march.traj.index_at(t)
            tail = desk_march.tails.norm(t, scatter.s)
            worst = max(worst, abs(res[k] - tail))
        report(7, "residual consistency identity", worst <= 1e-8,
               f"max |residual - Duhamel remainder| = {worst:.2e} (tol 1e-8)")

    def test_cauchy_tail_windows(self, desk_march):
        # dyadic-window Cauchy check on the running source integral
        times, norms, _ = desk_march.snaps.duhamel.series(1.0)
        t_end = times[-1]
        inc = []
        for a, b in ((t_end / 4, t_end / 2), (t_end / 2, t_end)):
            m = (times >= a) & (times < b)
            inc.append(np.sum(norms[m]) * DESK_DT)
        factor = inc[0] / inc[1]
        report(7, "source integral Cauchy windows", factor >= 1.5,
               f"dyadic increments {inc[0]:.2e} -> {inc[1]:.2e}, "
               f"decrease factor {factor:.2f} (need >= 1.5)")


class TestLaunchFromState:
    """The launch R(-t_K) E(t_K) of the desk run, t_K = 25.5 the state after
    the last midpoint below t_max = 25.48."""

    def test_equals_the_summed_duhamel_launch(self, desk_march, scatter):
        # E(0) + sum over midpoints tau < t_max of dt S1(-tau)(0, Q), the
        # Duhamel remainder at t = 0 summed in the dealias box as the march
        # went: equal up to the round-off of 170 rotations, measured at
        # 1.24e-15 (u) and 7.2e-11 (u_t) of each one's peak; u_t's peak is
        # the sources' alone, since E_t(0) = 0
        g = scatter.data_plus.grid
        acc = desk_march.tails.sums[0.0]
        E0, launch = desk_march.snaps.states[0].E, scatter.data_plus
        for got, start, a, tol in ((launch.u, E0.u, acc[0], 5e-15),
                                   (launch.ut, E0.ut, acc[1], 3e-10)):
            # the accumulator holds E's one live component
            want = cut(start.values, len(a)) + g.box_irfft(a)
            err = np.max(np.abs(cut(got.values, len(a)) - want)) \
                / np.max(np.abs(want))
            assert err <= tol

    def test_neighbouring_state_fails_the_identity(self, desk_march,
                                                   scatter):
        # launched from the state one step early or late, the residual no
        # longer equals the Duhamel remainder: measured 9.5e-8 and 9.4e-8
        # against 2.7e-17 for the right state, so criterion 7's 1e-8
        # tolerance tells them apart, by a margin of 10 only
        traj, kept = desk_march.traj, desk_march.snaps.states
        states = [kept[traj.index_at(t)] for t in PROBES]
        tails = [desk_march.tails.norm(t, scatter.s) for t in PROBES]
        k = traj.index_at(25.5)
        worst = {}
        for shift in (-1, 0, 1):
            launch = launch_from(kept[k + shift])
            if shift == 0:
                assert np.array_equal(launch.u.values,
                                      scatter.data_plus.u.values)
            _, (res,) = residual_series(states, launch, [scatter.s])
            worst[shift] = max(abs(r - tail) for r, tail in zip(res, tails))
        assert worst[0] <= 1e-8
        assert worst[-1] > 1e-8 and worst[1] > 1e-8


class TestCriterion8:
    def test_uniform_low_order_wave_energy(self, desk_march):
        series = desk_march.strided.series()["gst_wave_low"]
        times = desk_march.traj.times[::3]
        m = (times >= 5.0) & (times <= 28.0)
        variation = (series[m].max() - series[m].min()) / series[m].min()
        report(8, "uniform low-order wave ghost energy",
               variation <= 0.10,
               f"E_gst(n)^(1/2) (|I|<=1) varies {100 * variation:.3f}% "
               "over [5, 28] (tol 10%)")


class TestCriterion9:
    def test_hessian_ratio_bounded(self, desk_march):
        times, vals = desk_march.hessian.series()
        self._check(9, "wave Hessian decay ratio", times, vals, 28.0)

    def test_kg_ratio_bounded(self, desk_march):
        times, vals = desk_march.kg.series()
        self._check(9, "Klein-Gordon extra decay ratio", times, vals, 28.0)

    def test_ks_ratio_bounded(self):
        # the K-S window needs data up to 2t, so this criterion gets its own
        # longer-horizon run (same physics, bigger box), streamed into the
        # reducer
        g = make_grid(512, 66.0)
        ks = KSRatios(g, "n")
        evolve(gaussian_data(g, DESK_AMP), 56.0, 0.16, store_every=10,
               record_sources=False, on_snapshot=lambda state: feed(ks, state))
        times, vals = ks.series()
        self._check(9, "Klainerman-Sobolev ratio", times, vals, 28.0)

    @staticmethod
    def _check(number, name, times, vals, t_hi):
        m = (times >= 5.0) & (times <= t_hi)
        v5 = vals[np.argmin(np.abs(times - 5.0))]
        worst = vals[m].max()
        report(number, name, worst <= 3.0 * v5,
               f"value at t=5 is {v5:.3f}, max over [5, {t_hi:g}] is "
               f"{worst:.3f} ({worst / v5:.2f}x, need <= 3x)")


class TestCriterion10:
    def test_determinism_and_dump_round_trip(self, tmp_path, desk_grid):
        cfg = RunConfig(points_per_axis=128, L=24.0, amplitude=DESK_AMP,
                        T=3.0, dt=0.1, snap_every=10,
                        diagnostics=("decay", "energies"), seed=11)
        run(cfg, tmp_path / "a", quiet=True)
        run(cfg, tmp_path / "b", quiet=True)
        identical = all(
            (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
            for n in ("diagnostics.csv", "fits.txt"))
        dumps_a = sorted((tmp_path / "a").glob("*.kgz"))
        dumps_b = sorted((tmp_path / "b").glob("*.kgz"))
        identical = identical and all(
            a.read_bytes() == b.read_bytes()
            for a, b in zip(dumps_a, dumps_b)) and len(dumps_a) > 0

        rng = np.random.default_rng(0)
        field = Field(desk_grid, rng.standard_normal((2, DESK_N, DESK_N)))
        write_field(tmp_path / "rt.kgz", field, 12.75)
        back, t_back = read_field(tmp_path / "rt.kgz")
        lossless = t_back == 12.75 and np.array_equal(back.values, field.values)
        report(10, "determinism and dump format",
               identical and lossless,
               f"byte-identical outputs: {identical}; "
               f"dump round trip lossless: {lossless}")
