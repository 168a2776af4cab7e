import contextlib
import dataclasses
import io
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgz2d.energy_diag import jbracket, spectral_energy, xnorm_terms
from kgz2d.grid import Field, FieldPair, Grid, make_grid, read_field
from kgz2d import grid as grid_module, harness, scattering
from kgz2d.harness import (
    ConfigError,
    RunConfig,
    RunDiagnostics,
    fit_envelope,
    interior_shell_ratio,
    main,
    parse_config,
    run,
    run_check,
    run_picard,
    shell_sup_series,
)
from kgz2d.propagator import InstabilityError, LinearOperator, free_step
from kgz2d.system import evolve, gaussian_data


SMALL_CONFIG = """
# small smoke configuration
points_per_axis = 64
L = 12
amplitude = 1e-2
dt = 0.1
T = 2.0
diagnostics = decay, energies
snap_every = 10
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestFitEnvelope:
    def test_exact_power_law(self):
        t = np.linspace(2.0, 20.0, 40)
        fit = fit_envelope(t, t**-1.0, (2.0, 20.0))
        assert fit.exponent == pytest.approx(-1.0, abs=1e-12)
        assert fit.ci_low == pytest.approx(-1.0, abs=1e-10)
        assert fit.ci_high == pytest.approx(-1.0, abs=1e-10)
        assert fit.residual < 1e-12

    def test_constant_series(self):
        t = np.linspace(1.0, 10.0, 30)
        fit = fit_envelope(t, np.full_like(t, 3.7), (1.0, 10.0))
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonpositive_values(self):
        t = np.linspace(1.0, 10.0, 30)
        v = np.ones_like(t)
        v[5] = 0.0
        with pytest.raises(ValueError):
            fit_envelope(t, v, (1.0, 10.0))

    def test_rejects_short_window(self):
        t = np.linspace(1.0, 10.0, 30)
        with pytest.raises(ValueError):
            fit_envelope(t, np.ones_like(t), (6.0, 10.0))

    def test_rejects_few_points(self):
        t = np.array([1.0, 2.0, 4.0, 8.0])
        with pytest.raises(ValueError):
            fit_envelope(t, t, (1.0, 8.0))

    def test_deterministic_bootstrap(self):
        rng = np.random.default_rng(1)
        t = np.linspace(1.0, 16.0, 50)
        v = t**-0.7 * np.exp(0.05 * rng.standard_normal(50))
        a = fit_envelope(t, v, (1.0, 16.0), seed=3)
        b = fit_envelope(t, v, (1.0, 16.0), seed=3)
        assert (a.exponent, a.ci_low, a.ci_high) == (b.exponent, b.ci_low, b.ci_high)

    def test_free_kg_sup_decay_rate(self):
        # the free propagator run is the oracle for the classical 1/t rate
        g = make_grid(256, 40.0)
        amp = 1e-2 * np.exp(-(g.X1**2 + g.X2**2) / 2.0)
        pair = FieldPair(Field(g, amp), Field(g, np.zeros_like(amp)))
        op = LinearOperator(g, 1)
        times = 0.25 * np.arange(121)
        sup = np.array([np.max(np.abs(free_step(op, pair, t).u.values))
                        for t in times])
        fit = fit_envelope(times, sup, (5.0, 30.0))
        assert -1.15 <= fit.exponent <= -0.85


def config_text(cfg: RunConfig) -> str:
    """Every field of a config as flat `key = value` text."""
    lines = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ", ".join(v if isinstance(v, str) else repr(v)
                              for v in value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}\n")
    return "".join(lines)


unit_open = st.floats(0.001, 0.999)


@st.composite
def run_configs(draw):
    steps = draw(st.integers(1, 400))
    dt = draw(st.floats(0.001, 1.0))
    divisors = [d for d in range(1, steps + 1) if steps % d == 0]
    L = draw(st.floats(1.0, 100.0))
    inside = st.floats(-0.99 * L, 0.99 * L)
    return RunConfig(
        points_per_axis=draw(st.sampled_from([8, 64, 256])),
        L=L,
        amplitude=draw(st.floats(0.0, 10.0)),
        width=draw(st.floats(0.1, 5.0)),
        center=draw(st.tuples(inside, inside)),
        dt=dt, T=steps * dt,
        snap_every=draw(st.integers(0, 100)),
        store_every=draw(st.sampled_from(divisors)),
        diagnostics=tuple(draw(st.lists(
            st.sampled_from(["decay", "energies", "scatter"]), unique=True))),
        delta=draw(unit_open), kappa=draw(unit_open), eta=draw(unit_open),
        scatter_s=tuple(draw(st.lists(st.floats(0.0, 4.0), min_size=1,
                                      max_size=3))),
        fit_t1=draw(st.floats(0.1, 50.0)), fit_t2=draw(st.floats(0.0, 50.0)),
        picard_tol=draw(st.floats(1e-12, 1.0)),
        picard_max_iter=draw(st.integers(2, 50)),
        out=draw(st.text(alphabet="abc_/-.", min_size=1, max_size=12)),
        seed=draw(st.integers(0, 2**31)),
    )


class TestConfig:
    @settings(max_examples=40, deadline=None)
    @given(cfg=run_configs())
    def test_config_text_round_trip(self, tmp_path_factory, cfg):
        path = tmp_path_factory.mktemp("cfg") / "run.cfg"
        path.write_text(config_text(cfg), encoding="utf-8")
        assert parse_config(path) == cfg

    def test_defaults_roundtrip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, SMALL_CONFIG))
        assert cfg.points_per_axis == 64
        assert cfg.T == 2.0
        assert cfg.diagnostics == ("decay", "energies")
        assert cfg.snap_every == 10

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "points_per_axis = 64\nwidgets = 3\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = write_config(tmp_path, "points_per_axis = soup\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = write_config(tmp_path, "points_per_axis 64\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_bad_profile_rejected(self):
        # gaussian is the only profile
        for profile in ("torus", "ring"):
            with pytest.raises(ConfigError):
                RunConfig(profile=profile)

    def test_scatter_s_list(self, tmp_path):
        path = write_config(tmp_path, "scatter_s = 1 2\n")
        assert parse_config(path).scatter_s == (1.0, 2.0)


class TestRun:
    def test_zero_amplitude_skips_fits(self, tmp_path):
        cfg = RunConfig(points_per_axis=64, L=12.0, amplitude=0.0, T=2.0,
                        dt=0.1, diagnostics=("decay",))
        report = run(cfg, tmp_path / "out", quiet=True)
        assert report.fits == {}
        assert any("amplitude" in s for s in report.skipped)
        from kgz2d.energy_diag import DiagnosticsReport
        diag = DiagnosticsReport.read_csv(tmp_path / "out" / "diagnostics.csv")
        assert np.all(diag.series["sup_E"] == 0.0)

    def test_small_run_outputs(self, tmp_path):
        cfg = RunConfig(points_per_axis=64, L=12.0, amplitude=1e-2, T=2.0,
                        dt=0.1, snap_every=10, diagnostics=("decay", "energies"))
        out = tmp_path / "out"
        report = run(cfg, out, quiet=True)
        assert (out / "diagnostics.csv").exists()
        assert (out / "fits.txt").exists()
        dumps = sorted(out.glob("E_t*.kgz"))
        assert dumps
        f, t = read_field(dumps[0])
        assert f.components == 2

    def test_byte_determinism(self, tmp_path):
        cfg = RunConfig(points_per_axis=64, L=12.0, amplitude=1e-2, T=2.0,
                        dt=0.1, diagnostics=("decay", "energies"), seed=5)
        run(cfg, tmp_path / "a", quiet=True)
        run(cfg, tmp_path / "b", quiet=True)
        for name in ("diagnostics.csv", "fits.txt"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_picard_run(self, tmp_path):
        cfg = RunConfig(points_per_axis=64, L=12.0, amplitude=1e-2, T=2.0,
                        dt=0.1, picard_tol=1e-7)
        report = run_picard(cfg, tmp_path / "p", quiet=True)
        assert (tmp_path / "p" / "picard.txt").exists()
        ratios = [v for k, v in report.scalars.items()
                  if k.startswith("contraction_ratio")]
        assert all(r <= 0.5 for r in ratios)


class TestStreamedRun:
    def test_live_reducer_equals_the_trajectory_readers(self, grid64):
        # fed by the march, which then keeps no state and records no
        # source, the run's reducer gives bit for bit what the readers of a
        # stored trajectory give
        data = gaussian_data(grid64, 0.3)
        duhamel = scattering.DuhamelSum(grid64, 0.1, 0.0, 2.0, (1.0,))
        live = RunDiagnostics(grid64, energies=True, delta=0.1, snap_every=3,
                              duhamel=duhamel)
        # shells and t_min that this short run reaches
        shells, t_min = ((0.2, 0.8), (1.0, 1.6)), 1.0
        live.shells = harness.ShellProbe(grid64, shells=shells, t_min=t_min)
        streamed = evolve(data, 2.0, 0.1, store_every=2, record_sources=False,
                          on_snapshot=live.add, on_source=live.add_source)
        full = evolve(data, 2.0, 0.1, store_every=2)
        assert streamed.states == [] and streamed.source_history is None
        series = live.series()
        want = {
            "sup_E": [s.field("E").magnitude().max() for s in full.states],
            "sup_n_shell": shell_sup_series(full),
            "gst_wave_low": xnorm_terms(full, 0.1),
        }
        for which, m in (("E", 1), ("n", 0)):
            want[f"energy_{which}"] = [
                spectral_energy(grid64, *s.spectra(which), m)
                for s in full.states]
        assert list(series) == ["sup_E", "sup_n_shell", "energy_E",
                                "energy_n", "gst_wave_low"]
        for name, values in want.items():
            assert np.array_equal(series[name], values), name
        assert len(live.shells.ratios) > 1
        assert live.shells.interior_ratio() == interior_shell_ratio(
            full, shells, t_min)
        assert [t for t, _ in live.dumps] == list(full.times[::3])
        for (_, fields), state in zip(live.dumps, full.states[::3],
                                      strict=True):
            for name, which in (("E", "E"), ("n", "n"),
                                ("nDelta", "n_delta")):
                assert np.array_equal(fields[name].values,
                                      state.field(which).values)
        # every 3rd step's sources from step 0, as the full record has them
        assert live.steps == 20 and len(duhamel.times) == 20
        assert [tau for tau, _ in live.sources] == list(full.source_times[::3])
        for (_, got), want_src in zip(live.sources, full.source_history[::3],
                                      strict=True):
            assert all(np.array_equal(a.values, b.values)
                       for a, b in zip(got, want_src, strict=True))
        # with a DuhamelSum, each state's packed E and nothing else
        assert [state.t for state in live.states] == list(full.times)
        for slim, state in zip(live.states, full.states, strict=True):
            assert list(slim.packed) == ["E"]
            assert all(np.array_equal(a.values, b.values) for a, b in
                       zip(slim.packed["E"], state.packed["E"], strict=True))

    def test_run_and_scatter_keep_no_states(self, tmp_path, monkeypatch):
        marches = []

        def march(*args, **kwargs):
            marches.append((kwargs, evolve(*args, **kwargs)))
            return marches[-1][1]

        monkeypatch.setattr(harness, "evolve", march)
        cfg = dict(points_per_axis=64, L=12.0, amplitude=1e-2, T=2.0, dt=0.1,
                   store_every=2, snap_every=5,
                   diagnostics=("decay", "energies"))
        run(RunConfig(**cfg), tmp_path / "run", quiet=True)
        harness.run_scatter(RunConfig(**cfg), tmp_path / "scatter",
                            quiet=True)
        # one march per verb, recording nothing, feeds one reducer both ways
        assert len(marches) == 2
        for kwargs, traj in marches:
            assert kwargs["record_sources"] is False
            reducer = kwargs["on_snapshot"].__self__
            assert isinstance(reducer, RunDiagnostics)
            assert kwargs["on_source"].__self__ is reducer
            assert traj.states == [] and traj.source_history is None
        assert np.array_equal(marches[0][1].times, marches[1][1].times)
        # the same columns and dumps either way
        for name in ["diagnostics.csv"] + sorted(
                p.name for p in (tmp_path / "run").glob("*.kgz")):
            assert (tmp_path / "run" / name).read_bytes() \
                == (tmp_path / "scatter" / name).read_bytes()

    def test_failed_march_writes_nothing(self, tmp_path, monkeypatch,
                                         capsys):
        def failing(*args, on_snapshot, **kwargs):
            def add(state):
                if state.t > 0.5:
                    raise InstabilityError(f"injected at t={state.t:g}")
                on_snapshot(state)
            return evolve(*args, on_snapshot=add, **kwargs)

        monkeypatch.setattr(harness, "evolve", failing)
        path = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: injected at t=0.6")
        assert list(out.iterdir()) == []


class TestSourceDumps:
    def test_run_records_only_the_dumped_steps(self, tmp_path, monkeypatch):
        reducers = []

        def recorded(*args, **kwargs):
            reducers.append(kwargs["on_source"].__self__)
            return evolve(*args, **kwargs)

        monkeypatch.setattr(harness, "evolve", recorded)
        # 30 steps; the sources of steps 0, 4, ..., 28 are dumped
        cfg = dict(points_per_axis=64, L=12.0, amplitude=1e-2, T=1.5,
                   dt=0.05, snap_every=4, diagnostics=("decay",))
        run(RunConfig(**cfg), tmp_path / "run", quiet=True)
        harness.run_scatter(RunConfig(**cfg), tmp_path / "scatter", quiet=True)
        dumped = range(0, 30, 4)
        # the march records nothing; each verb's reducer keeps the dumped
        # steps' sources only
        for reducer in reducers:
            assert reducer.steps == 30
            assert [tau for tau, _ in reducer.sources] == \
                [k * 0.05 + 0.5 * 0.05 for k in dumped]

        full = evolve(RunConfig(**cfg).build_data(), 1.5, 0.05)
        for out in ("run", "scatter"):
            got = sorted(p.name for p in (tmp_path / out).glob("src*.kgz"))
            assert got == sorted(f"src{w}_t{(k + 0.5) * 0.05:08.3f}.kgz"
                                 for k in dumped for w in "QS")
            for k in dumped:
                tau = full.source_times[k]
                for w, src in zip("QS", full.source_history[k]):
                    f, t = read_field(
                        tmp_path / out / f"src{w}_t{tau:08.3f}.kgz")
                    assert t == tau
                    assert np.array_equal(f.values, src.field().values)


class TestScatterVerb:
    def test_one_launch_per_run_one_norm_series_per_s(self, tmp_path,
                                                      monkeypatch):
        counts = {"reducer": 0, "replay": 0, "h_norm": 0, "hs_norm": 0,
                  "rotation": 0}
        marches = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        def march(*args, **kwargs):
            marches.append(kwargs)
            return evolve(*args, **kwargs)

        monkeypatch.setattr(harness, "evolve", march)
        monkeypatch.setattr(scattering.DuhamelSum, "__init__",
                            counted("reducer", scattering.DuhamelSum.__init__))
        monkeypatch.setattr(scattering, "_reduce",
                            counted("replay", scattering._reduce))
        monkeypatch.setattr(grid_module, "h_norm",
                            counted("h_norm", grid_module.h_norm))
        monkeypatch.setattr(Grid, "hs_norm", counted("hs_norm", Grid.hs_norm))
        monkeypatch.setattr(LinearOperator, "rotation",
                            counted("rotation", LinearOperator.rotation))
        cfg = RunConfig(points_per_axis=64, L=12.0, amplitude=1e-2, T=2.0,
                        dt=0.1, scatter_s=(1.0, 2.0), diagnostics=("decay",),
                        snap_every=0)
        harness.run_scatter(cfg, tmp_path / "out", quiet=True)
        steps, snapshots = 20, 21
        # one march, recording no source, feeds the run's reducer, which
        # feeds one DuhamelSum; nothing replays a record
        assert len(marches) == 1
        assert marches[0]["record_sources"] is False
        reducer = marches[0]["on_source"].__self__
        assert isinstance(reducer, RunDiagnostics)
        assert isinstance(reducer.duhamel, scattering.DuhamelSum)
        assert counts["reducer"] == 1 and counts["replay"] == 0
        # per s: one source norm per step, read off the packed spectrum,
        # and two residual norms per snapshot, read off the snapshot's
        # spectra; none goes through a transform in h_norm
        assert counts["hs_norm"] == 2 * (steps + 2 * snapshots)
        assert counts["h_norm"] == 0
        # the march's two half steps, one per step for the launch and one
        # per snapshot for the residual, shared by both s
        assert counts["rotation"] == 2 + steps + snapshots
        for tag in ("s1", "s2"):
            assert (tmp_path / "out" / f"scatter_{tag}_meta.txt").exists()

    def test_keeps_the_callers_config(self, tmp_path):
        cfg = RunConfig(points_per_axis=64, L=12.0, amplitude=1e-2, T=2.0,
                        dt=0.1, diagnostics=("decay",))
        harness.run_scatter(cfg, tmp_path / "scatter", quiet=True)
        assert cfg.diagnostics == ("decay",)
        assert list((tmp_path / "scatter").glob("scatter_*"))
        # so a later run of the same config does not scatter
        run(cfg, tmp_path / "run", quiet=True)
        assert not list((tmp_path / "run").glob("scatter_*"))


class TestShellProbes:
    def test_shell_series_shapes(self, grid64):
        traj = evolve(gaussian_data(grid64, 1e-2), 2.0, 0.1, store_every=5)
        series = shell_sup_series(traj)
        assert series.shape == traj.times.shape
        assert np.all(series >= 0)

    def test_interior_ratio_needs_late_times(self, grid64):
        traj = evolve(gaussian_data(grid64, 1e-2), 2.0, 0.1, store_every=5)
        with pytest.raises(ValueError):
            interior_shell_ratio(traj)

    @staticmethod
    def _profile_trajectory(profile):
        """Stand-in trajectory whose n samples are profile(t, r)."""
        grid = make_grid(64, 40.0)
        times = np.arange(31.0)
        states = []
        for t in times:
            n = Field(grid, profile(t, grid.R))
            # the probe reads n alone, through KGZState.field
            states.append(SimpleNamespace(field={"n": n}.__getitem__))
        return SimpleNamespace(grid=grid, times=times, states=states)

    def test_interior_ratio_calibration(self):
        # the theorem's profile lands in the two-sided band, a profile
        # without interior decay fails the one-sided bound, and a steeper
        # interior decay lies far above the band
        cases = {
            "theorem": (lambda t, r: jbracket(t + r) ** -0.5
                        * jbracket(t - r) ** -0.5),
            "flat": lambda t, r: jbracket(t + r) ** -0.5,
            "steep": lambda t, r: jbracket(t - r) ** -3.5,
        }
        ratio = {}
        for name, profile in cases.items():
            measured, predicted = interior_shell_ratio(
                self._profile_trajectory(profile))
            ratio[name] = measured / predicted
        assert 0.5 <= ratio["theorem"] <= 2.0
        assert ratio["flat"] < 0.5
        assert ratio["steep"] > 2.0


class TestCli:
    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = write_config(tmp_path, "nonsense_key = 1\n")
        assert main(["run", str(bad)]) == 2

    @pytest.mark.parametrize("line", [
        "points_per_axis = 63", "L = -3", "dt = 0.07", "dt = -0.05", "T = 0",
        "amplitude = nan", "store_every = 7", "center = 1 2 3",
        "picard_max_iter = 1", "width = 0", "width = nan", "seed = -1",
        "scatter_s = -1", "scatter_s = 1 inf", "picard_tol = nan",
        "picard_tol = 0", "fit_t1 = nan", "fit_t1 = -5", "fit_t1 = 0",
        "fit_t1 = inf", "fit_t2 = -3", "fit_t2 = nan", "snap_every = -3",
        "profile = ring", "L = inf", "L = nan", "center = nan 0",
        "center = inf 0", "center = 1e300 0", "center = 0 -12",
        # a Gaussian wider than the box fills it (wrap-free check), one far
        # narrower than the spacing leaves one sample (under-resolved) or,
        # off the grid points, none
        "width = 1e200", "width = 1e-200", "width = 1e-5\ncenter = 0.1 0.1"])
    def test_bad_config_exits_before_compute(self, tmp_path, monkeypatch,
                                             capsys, line):
        calls = []
        monkeypatch.setattr(harness, "evolve",
                            lambda *args, **kwargs: calls.append(args))
        path = write_config(tmp_path, (
            "points_per_axis = 64\nL = 12\ndt = 0.05\nT = 1.5\n" + line + "\n"))
        code = main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert calls == []

    @pytest.mark.parametrize("case", [
        "missing config", "directory config", "not utf-8", "out is a file"])
    @pytest.mark.parametrize("verb", ["run", "picard"])
    def test_unusable_paths_exit_before_compute(self, tmp_path, monkeypatch,
                                                capsys, case, verb):
        calls = []
        for name in ("evolve", "picard_solve"):
            monkeypatch.setattr(harness, name,
                                lambda *args, **kwargs: calls.append(args))
        path = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "out"
        if case == "missing config":
            path = tmp_path / "missing.cfg"
        elif case == "directory config":
            path = tmp_path
        elif case == "not utf-8":
            path.write_bytes(b"points_per_axis = 64\n# caf\xe9\n")
        else:
            out.write_text("taken\n")
        code = main([verb, str(path), "--out", str(out), "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert calls == []

    @pytest.mark.parametrize("content", [
        None, b"", b"t,sup_E\n", b"t,sup_E\n1,2\n3\n", b"t,sup_E\n1,x\n",
        b"\xff\xfe\x00\x01"])
    def test_fit_unusable_csv(self, tmp_path, capsys, content):
        path = tmp_path / "diagnostics.csv"
        if content is not None:
            path.write_bytes(content)
        code = main(["fit", str(path), "sup_E", "1", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["run", "picard", "scatter"])
    def test_wrap_free_window_exits_before_compute(self, tmp_path, monkeypatch,
                                                   capsys, verb):
        # the data radius is 8.1 at n=64, L=12, so T=6 reaches the wrap
        calls = []
        for name in ("evolve", "picard_solve"):
            monkeypatch.setattr(harness, name,
                                lambda *args, **kwargs: calls.append(args))
        path = write_config(tmp_path,
                            "points_per_axis = 64\nL = 12\ndt = 0.05\nT = 6\n")
        code = main([verb, str(path), "--out", str(tmp_path / "out"),
                     "--quiet"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "config error: wrap-free window violated")
        assert calls == []

    @pytest.mark.parametrize("data", [
        "points_per_axis = 64\nL = 40\n",
        "points_per_axis = 64\nL = 12\nwidth = 0.2\n"])
    @pytest.mark.parametrize("verb", ["run", "picard", "scatter"])
    def test_under_resolved_data_exits_before_compute(self, tmp_path,
                                                      monkeypatch, capsys,
                                                      data, verb):
        # either grid leaves most of n0's energy outside the dealias box;
        # that used to be reported as a wrap-free violation
        calls = []
        for name in ("evolve", "picard_solve"):
            monkeypatch.setattr(harness, name,
                                lambda *args, **kwargs: calls.append(args))
        path = write_config(tmp_path, data + "dt = 0.05\nT = 1.5\n")
        code = main([verb, str(path), "--out", str(tmp_path / "out"),
                     "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: data under-resolved: ")
        assert err.count("\n") == 1
        assert calls == []

    def test_sweep_runs_each_config_on_its_own(self, tmp_path, capsys):
        bad = write_config(tmp_path, "nonsense_key = 1\n", "bad.cfg")
        good = write_config(tmp_path, SMALL_CONFIG, "good.cfg")
        out = tmp_path / "sweep"
        code = main(["run", str(bad), str(good), "--out", str(out), "--quiet"])
        assert code == 2
        assert not (out / "run00").exists()
        for name in ("diagnostics.csv", "fits.txt"):
            assert (out / "run01" / name).exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0].startswith(f"[kgz2d] run00 {bad}: exit 2 config error: ")
        assert err[1] == f"[kgz2d] run01 {good}: exit 0 ok"

    def test_run_and_fit_verbs(self, tmp_path):
        path = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
        code = main(["fit", str(out / "diagnostics.csv"), "sup_E", "0.2", "2.0"])
        assert code == 0

    def test_fit_missing_column(self, tmp_path):
        path = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "out2"
        main(["run", str(path), "--out", str(out), "--quiet"])
        assert main(["fit", str(out / "diagnostics.csv"), "nope", "0.2", "2.0"]) == 2

    def test_picard_nonconvergence_exit_code(self, tmp_path, capsys):
        # amplitude 0.5 is outside the contraction regime: two maps do not
        # reach the tolerance
        path = write_config(tmp_path, (
            "points_per_axis = 64\nL = 12\namplitude = 0.5\n"
            "dt = 0.05\nT = 1.5\npicard_max_iter = 2\n"))
        code = main(["picard", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical failure: Picard iteration did not "
                              "converge: distances=[")
        assert "np.float64" not in err
        assert "Traceback" not in err

    def test_check_verb(self):
        results = run_check(quiet=True)
        assert all(ok for _, ok, _ in results)


# keys the fuzz pins, last in the text so that they win over drawn lines:
# a 64-point grid and at most 30 steps, whatever else the text holds
PINNED = ("points_per_axis", "L", "T", "dt", "picard_max_iter")
FREE_KEYS = sorted({f.name for f in dataclasses.fields(RunConfig)}
                   - set(PINNED))

numbers = st.one_of(
    st.integers(-10**20, 10**20).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "1e400", "0x10", "gaussian", "ring",
                     "decay, energies, scatter"]))
assignments = st.tuples(
    st.sampled_from(FREE_KEYS),
    numbers | st.lists(numbers, min_size=2, max_size=3).map(" ".join)
    | st.text(max_size=10)).map(lambda kv: f"{kv[0]} = {kv[1]}")


@st.composite
def steps_in_window(draw):
    """(T, dt) with dt >= 0.05 and T <= 1.5: a whole number of steps, or
    at times a T that dt may not divide."""
    dt = draw(st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.5]))
    steps = draw(st.integers(1, int(round(1.5 / dt))))
    return draw(st.just(steps * dt) | st.floats(0.05, 1.5)), dt


class TestCliFuzz:
    @settings(max_examples=25, deadline=None)
    @given(verb=st.sampled_from(["run", "scatter", "picard"]),
           body=st.lists(assignments, max_size=5),
           junk=st.none() | st.text(max_size=12), noise=st.binary(max_size=6),
           window=steps_in_window(), maps=st.integers(2, 3),
           kind=st.sampled_from(["file"] * 4 + ["not utf-8", "missing",
                                                "directory"]))
    def test_any_config_text_exits_with_a_documented_code(
            self, tmp_path_factory, verb, body, junk, noise, window, maps,
            kind):
        # known keys with any values, a junk line, bytes that are not
        # UTF-8 and unusable paths: main returns 0, 2, 3 or 4 and raises
        # nothing
        T, dt = window
        pinned = (f"points_per_axis = 64\nL = 12\nT = {T!r}\ndt = {dt!r}\n"
                  f"picard_max_iter = {maps}\n")
        lines = [line.encode() for line in body + [junk or "", pinned]]
        if kind == "not utf-8":
            lines.insert(0, b"\xff" + noise)
        root = tmp_path_factory.mktemp("fuzz")
        path = root / "run.cfg"
        if kind == "directory":
            path.mkdir()
        elif kind != "missing":
            path.write_bytes(b"\n".join(lines))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([verb, str(path), "--out", str(root / "out"),
                         "--quiet"])
        assert code in (0, 2, 3, 4)
        # a failure says so in one line, and a quiet success says nothing
        assert err.getvalue().count("\n") == (code != 0)
        assert "Traceback" not in err.getvalue()
