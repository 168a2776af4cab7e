"""
Acceptance suite at the reference desk configuration:
256 points per axis, box half-width 40, Gaussian amplitude 1e-2, width 1,
dt = 0.15, horizon 30.  One printed PASS/FAIL line per criterion.

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

import dataclasses

import numpy as np
import pytest

from kgz2d.energy_diag import (
    energy,
    hessian_decay_ratio,
    kg_extra_decay_ratio,
    ks_ratio,
    multiplier_residual,
    xnorm_terms,
)
from kgz2d.grid import Field, FieldPair, make_grid, read_field, write_field
from kgz2d.harness import (
    RunConfig,
    fit_envelope,
    interior_shell_ratio,
    run,
    shell_sup_series,
)
from kgz2d.propagator import LinearOperator, free_step
from kgz2d.scattering import (
    build_scatter_data,
    duhamel_tail_norm,
    residual_series,
    source_norm_series,
)
from kgz2d.system import evolve, evolve_direct_n, gaussian_data, picard_solve
from kgz2d.vector_fields import check_commutators

from conftest import windowed_random_jet

DESK_N = 256
DESK_L = 40.0
DESK_DT = 0.15
DESK_T = 30.0
DESK_AMP = 1e-2
PICARD_T = 10.05  # nearest multiple of dt to the nominal horizon 10


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {status} #{number} {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="session")
def desk_grid():
    return make_grid(DESK_N, DESK_L)


@pytest.fixture(scope="session")
def desk_data(desk_grid):
    return gaussian_data(desk_grid, DESK_AMP)


@pytest.fixture(scope="session")
def default_run(desk_data):
    return evolve(desk_data, DESK_T, DESK_DT)


@pytest.fixture(scope="session")
def strided_run(default_run):
    """Every third snapshot of the default run (0.45 time spacing)."""
    return dataclasses.replace(
        default_run, times=default_run.times[::3],
        states=default_run.states[::3], store_every=3)


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
    def test_multiplier_identity_convergence(self, desk_data):
        runs = {dt: evolve(desk_data, PICARD_T, dt, record_sources=False)
                for dt in (DESK_DT, DESK_DT / 2)}
        factors = {}
        for delta, kappa in ((0.1, 0.05), (0.2, 0.1)):
            resid = {dt: multiplier_residual(tr, "E", delta, kappa)[-1]
                     for dt, tr in runs.items()}
            factors[(delta, kappa)] = resid[DESK_DT] / resid[DESK_DT / 2]
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
    def test_reformulation_equivalence(self, desk_data):
        a = evolve(desk_data, PICARD_T, DESK_DT,
                   record_sources=False, store_every=67)
        b = evolve_direct_n(desk_data, PICARD_T, DESK_DT,
                            record_sources=False, store_every=67)
        na = a.states[-1].n.u.values
        nb = b.states[-1].n.u.values
        rel = np.max(np.abs(na - nb)) / np.max(np.abs(na))
        report(4, "divergence-form vs direct wave evolution", rel <= 1e-8,
               f"relative n difference {rel:.2e} at t={a.t_end:g} (tol 1e-8)")


class TestCriterion5:
    @pytest.mark.parametrize("eps", [1e-3, 3e-3, 1e-2])
    def test_picard_contraction(self, desk_grid, eps):
        data = gaussian_data(desk_grid, eps)
        traj, ratios = picard_solve(data, PICARD_T, DESK_DT, tol=1e-6)
        reference = evolve(data, PICARD_T, DESK_DT, record_sources=False)
        dist = max(
            np.sqrt(energy(a.E - b.E, 1)) + np.sqrt(energy(a.n - b.n, 0))
            for a, b in zip(traj.states, reference.states))
        ok = all(r <= 0.5 for r in ratios) and dist <= 1e-5
        report(5, f"Picard contraction (eps={eps:g})", ok,
               f"ratios {[f'{r:.4f}' for r in ratios]} (need <= 0.5), "
               f"energy distance to evolve {dist:.2e} (tol 1e-5)")


class TestCriterion6:
    def test_kg_sup_decay_rate(self, default_run):
        sup_E = np.array([s.E.u.magnitude().max()
                          for s in default_run.states])
        fit = fit_envelope(default_run.times, sup_E, (5.0, 28.0))
        ok = -1.2 <= fit.exponent <= -0.8
        report(6, "sup|E| decay rate", ok,
               f"fitted slope {fit.exponent:+.3f} in [-1.2, -0.8], {fit}")

    def test_wave_cone_decay_rate(self, default_run):
        shell = shell_sup_series(default_run)
        fit = fit_envelope(default_run.times, shell, (5.0, 28.0))
        ok = -0.7 <= fit.exponent <= -0.35
        report(6, "light-cone sup|n| decay rate", ok,
               f"fitted slope {fit.exponent:+.3f} in [-0.7, -0.35], {fit}")

    def test_interior_two_shell_probe(self, default_run):
        # The theorem bounds the interior decay from one side only (see
        # module docstring): the linear part of n decays like <t-r>^(-7/2)
        # inside the cone, so the ratio lies far above the predicted value.
        measured, predicted = interior_shell_ratio(default_run)
        ok = measured >= 0.5 * predicted
        report(6, "interior two-shell <t-r> ratio", ok,
               f"measured {measured:.2f} vs predicted {predicted:.2f} "
               f"(need >= {0.5 * predicted:.2f}: interior decay at least "
               "<t-r>^(-1/2)); steeper interior decay gives a larger ratio")


@pytest.fixture(scope="session")
def scatter(default_run, desk_data):
    t_max = 0.8 * (DESK_L - desk_data.radius)
    return build_scatter_data(default_run, 1.0, t_max=t_max)


class TestCriterion7:
    def test_source_norm_decay(self, default_run, scatter):
        times, norms, _ = source_norm_series(default_run, 1.0)
        fit = fit_envelope(times, norms, (10.0, scatter.t_max))
        report(7, "source norm decay", fit.exponent <= -1.1,
               f"||Q||_H1 slope {fit.exponent:+.3f} (need <= -1.1), {fit}")

    def test_residual_decay_and_tail(self, default_run, scatter):
        times, (res,) = residual_series(default_run.states,
                                        scatter.data_plus, [scatter.s])
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

    def test_residual_consistency_identity(self, default_run, scatter):
        worst = 0.0
        _, (res,) = residual_series(default_run.states, scatter.data_plus,
                                    [scatter.s])
        for t in (7.5, 15.0, 21.0):
            k = default_run.index_at(t)
            tail = duhamel_tail_norm(default_run, scatter, t)
            worst = max(worst, abs(res[k] - tail))
        report(7, "residual consistency identity", worst <= 1e-8,
               f"max |residual - Duhamel remainder| = {worst:.2e} (tol 1e-8)")

    def test_cauchy_tail_windows(self, default_run):
        # dyadic-window Cauchy check on the running source integral
        times, norms, _ = source_norm_series(default_run, 1.0)
        t_end = times[-1]
        inc = []
        for a, b in ((t_end / 4, t_end / 2), (t_end / 2, t_end)):
            m = (times >= a) & (times < b)
            inc.append(np.sum(norms[m]) * DESK_DT)
        factor = inc[0] / inc[1]
        report(7, "source integral Cauchy windows", factor >= 1.5,
               f"dyadic increments {inc[0]:.2e} -> {inc[1]:.2e}, "
               f"decrease factor {factor:.2f} (need >= 1.5)")


class TestCriterion8:
    def test_uniform_low_order_wave_energy(self, strided_run):
        series = xnorm_terms(strided_run)
        m = (strided_run.times >= 5.0) & (strided_run.times <= 28.0)
        variation = (series[m].max() - series[m].min()) / series[m].min()
        report(8, "uniform low-order wave ghost energy",
               variation <= 0.10,
               f"E_gst(n)^(1/2) (|I|<=1) varies {100 * variation:.3f}% "
               "over [5, 28] (tol 10%)")


class TestCriterion9:
    def test_hessian_ratio_bounded(self, strided_run):
        times, vals = hessian_decay_ratio(strided_run)
        self._check(9, "wave Hessian decay ratio", times, vals, 28.0)

    def test_kg_ratio_bounded(self, strided_run):
        times, vals = kg_extra_decay_ratio(strided_run)
        self._check(9, "Klein-Gordon extra decay ratio", times, vals, 28.0)

    def test_ks_ratio_bounded(self):
        # the K-S window needs data up to 2t, so this criterion gets its own
        # longer-horizon run (same physics, bigger box)
        g = make_grid(512, 66.0)
        data = gaussian_data(g, DESK_AMP)
        traj = evolve(data, 56.0, 0.16, store_every=10, record_sources=False)
        times, vals = ks_ratio(traj, "n")
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
