"""
Run orchestration: flat-text configs, decay-envelope fitting, diagnostics
CSV/field-dump emission, and the command-line entry point.

Verbs:
    run <config> [...]   evolve + diagnostics + decay fits (sweeps allowed)
    picard <config>      Picard iteration with recorded contraction ratios
    scatter <config>     scattering construction and residual fits
    check                invariant quick-suite on small built-in fields
    fit <csv> <column> <t1> <t2>

Exit codes: 0 success, 2 config error, 3 numerical failure,
4 acceptance-check failure.  A sweep parses and runs each config on its
own, in order, prints a status line per config and exits with the worst
code.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import (dataclass, field as dc_field, fields as dc_fields,
                         replace)
from pathlib import Path

import numpy as np

from .energy_diag import (DiagnosticsReport, GhostEnergies, energy, jbracket,
                          spectral_energy)
from .grid import Field, make_grid, read_field, write_field
from .propagator import InstabilityError
from .scattering import (DuhamelSum, TailDivergenceError, in_tail_window,
                         launch_from, midpoints, residual_series,
                         scatter_profile, write_profile)
from .system import (
    PicardNonConvergence,
    _driving,
    _products,
    _steps_for,
    evolve,
    feed,
    gaussian_data,
    picard_solve,
    widen,
)

__all__ = [
    "RunConfig",
    "ConfigError",
    "parse_config",
    "FitResult",
    "fit_envelope",
    "run",
    "run_picard",
    "run_scatter",
    "run_check",
    "main",
]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Flat key=value run configuration; unknown or repeated keys fail."""

    points_per_axis: int = 256
    L: float = 40.0
    # gaussian is the only profile; the key stays because demos/desk.cfg
    # and the benchmark's configs set it and unknown keys are rejected
    profile: str = "gaussian"
    amplitude: float = 1e-2
    width: float = 1.0
    center: tuple = (0.0, 0.0)
    dt: float = 0.15
    T: float = 30.0
    snap_every: int = 0
    store_every: int = 1
    diagnostics: tuple = ("decay", "energies")
    delta: float = 0.1
    # kappa and eta are range-checked but read by no verb; they stay because
    # demos/desk.cfg and the benchmark's configs set them and unknown keys
    # are rejected
    kappa: float = 0.05
    eta: float = 0.5
    scatter_s: tuple = (1.0, 2.0)
    fit_t1: float = 5.0
    fit_t2: float = 0.0          # 0 -> min(28, T - 2), at least 0
    picard_tol: float = 1e-6
    picard_max_iter: int = 12
    out: str = "kgz_out"
    seed: int = 0

    def __post_init__(self):
        if self.profile != "gaussian":
            raise ConfigError(f"unknown profile {self.profile!r}")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ConfigError(
                f"amplitude must be finite and nonnegative, got {self.amplitude}")
        for name in ("L", "T", "dt", "width", "fit_t1"):
            if not (math.isfinite(v := getattr(self, name)) and v > 0):
                raise ConfigError(f"{name} must be finite and positive, got {v}")
        if len(self.center) != 2:
            raise ConfigError(f"center needs 2 coordinates, got {self.center}")
        if not all(abs(c) < self.L for c in self.center):
            raise ConfigError(f"center must lie inside the box (-L, L)^2, "
                              f"got {self.center}")
        try:
            grid = make_grid(self.points_per_axis, self.L)
            steps = _steps_for(self.T, self.dt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.store_every < 1 or steps % self.store_every:
            raise ConfigError(f"store_every={self.store_every} does not "
                              f"divide the {steps} steps")
        if self.snap_every < 0:
            raise ConfigError(f"snap_every must be >= 0 (0 for no dumps), "
                              f"got {self.snap_every}")
        if self.picard_max_iter < 2:
            raise ConfigError(
                f"picard_max_iter must be >= 2, got {self.picard_max_iter}")
        if not (math.isfinite(self.picard_tol) and self.picard_tol > 0):
            raise ConfigError(
                f"picard_tol must be finite and positive, got {self.picard_tol}")
        k_sq = 2.0 * float(np.max(grid.k1**2))  # at the grid's corner
        if not all(0 <= s * math.log1p(k_sq) < math.log(sys.float_info.max)
                   for s in self.scatter_s):
            raise ConfigError(f"scatter_s must be nonnegative with a finite "
                              f"weight (1+|k|^2)^s up to |k|^2 = {k_sq:.4g}, "
                              f"got {self.scatter_s}")
        if len(set(self.scatter_s)) < len(self.scatter_s) or (
                "scatter" in self.diagnostics and not self.scatter_s):
            raise ConfigError(f"scatter_s must list distinct indices, one at "
                              f"least for scatter, got {self.scatter_s}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.fit_t2) and self.fit_t2 >= 0):
            raise ConfigError(f"fit_t2 must be finite and nonnegative "
                              f"(0 for the default), got {self.fit_t2}")
        if self.fit_t2 == 0.0:
            # clamped so that the resolved config is itself a valid config
            self.fit_t2 = max(min(28.0, self.T - 2.0), 0.0)
        for name in ("delta", "kappa", "eta"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ConfigError(f"{name} must lie in (0, 1), got {v}")
        unknown = set(self.diagnostics) - {"decay", "energies", "scatter"}
        if unknown:
            raise ConfigError(f"unknown diagnostic toggles {sorted(unknown)}")

    def build_data(self):
        grid = make_grid(self.points_per_axis, self.L)
        data = gaussian_data(grid, self.amplitude, self.width, self.center)
        # under-resolved data rings across the box: say so before the radius
        if self.amplitude > 0 and not np.any(data.E0.values):
            raise ConfigError(
                "data under-resolved: every sample of the data is zero; "
                "raise points_per_axis or widen the data")
        if data.unresolved > 1e-8:
            raise ConfigError(
                f"data under-resolved: {data.unresolved:.2g} of the energy "
                "of n0 lies outside the dealias box (at most 1e-8); raise "
                "points_per_axis or widen the data")
        if not self.T + data.radius < self.L:
            raise ConfigError(f"wrap-free window violated: T + data radius = "
                              f"{self.T + data.radius:.3g} >= L = {self.L:g}")
        return data


_TUPLE_KEYS = {"center": float, "scatter_s": float, "diagnostics": str}


def parse_config(path) -> RunConfig:
    """Parse a flat UTF-8 `key = value` file with # comments, each key once."""
    values, seen = {}, {}
    known = {f.name: f.type for f in dc_fields(RunConfig)}
    proto = RunConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    # text mode reads every line ending as "\n"
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r}, "
                              f"first set on line {seen[key]}")
        seen[key] = lineno
        try:
            if key in _TUPLE_KEYS:
                conv = _TUPLE_KEYS[key]
                values[key] = tuple(conv(x) for x in val.replace(",", " ").split())
            else:
                current = getattr(proto, key)
                if isinstance(current, int):
                    values[key] = int(val)
                elif isinstance(current, float):
                    values[key] = float(val)
                else:
                    values[key] = val
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# decay-envelope fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    """Log-log least-squares slope with a bootstrap confidence interval."""

    exponent: float
    ci_low: float
    ci_high: float
    t1: float
    t2: float
    residual: float
    n_points: int

    def __str__(self):
        return (f"slope {self.exponent:+.4f} "
                f"[{self.ci_low:+.4f}, {self.ci_high:+.4f}] "
                f"on [{self.t1:g}, {self.t2:g}] "
                f"({self.n_points} pts, rms {self.residual:.2e})")


def fit_envelope(times, values, window, *, seed: int = 0) -> FitResult:
    """Least-squares slope of log(value) against log(t) over a window.

    The window must span at least one octave (t2 >= 2 t1) and contain at
    least 8 strictly positive samples.  The 95% interval comes from
    200 resamples of the points with replacement.
    """
    t1, t2 = float(window[0]), float(window[1])
    if t2 < 2.0 * t1:
        raise ValueError(f"fit window [{t1}, {t2}] spans less than one octave")
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (times >= t1) & (times <= t2)
    if np.any(values[mask] <= 0):
        raise ValueError("fit window contains nonpositive values")
    if np.count_nonzero(mask) < 8:
        raise ValueError("fit window contains fewer than 8 points")
    lt, lv = np.log(times[mask]), np.log(values[mask])
    slope, intercept = np.polyfit(lt, lv, 1)
    resid = float(np.sqrt(np.mean((lv - slope * lt - intercept) ** 2)))
    rng = np.random.default_rng(seed)
    picks = (rng.choice(len(lt), size=len(lt), replace=True)
             for _ in range(200))
    boots = [np.polyfit(lt[p], lv[p], 1)[0] if len(np.unique(lt[p])) > 1
             else slope for p in picks]
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return FitResult(float(slope), float(lo), float(hi), t1, t2, resid,
                     int(np.count_nonzero(mask)))


# ---------------------------------------------------------------------------
# decay probes
# ---------------------------------------------------------------------------

class ShellProbe:
    """Per-snapshot reducer of |n| near the light cone, fed add(t, n) in
    time order: sups gets sup |n| over {|r - t| <= 2} and ratios, from
    t_min on, sup |n| on the near-cone shell t - r in shells[0] over sup |n|
    on the deep shell t - r in shells[1]."""

    def __init__(self, grid, shells=((4.0, 6.0), (16.0, 24.0)),
                 t_min: float = 18.0):
        self.R, self.shells, self.t_min = grid.R, shells, t_min
        self.sups, self.ratios = [], []

    def add(self, t: float, n: np.ndarray) -> None:
        R, n = self.R, np.abs(n)
        mask = np.abs(R - t) <= 2.0
        self.sups.append(float(n[mask].max()) if mask.any() else 0.0)
        if t >= self.t_min:
            m1, m2 = ((t - R >= a) & (t - R <= b) for a, b in self.shells)
            if m1.any() and m2.any() and n[m2].max() > 0:
                self.ratios.append(n[m1].max() / n[m2].max())

    def interior_ratio(self) -> tuple[float, float]:
        """Two-shell probe of the interior <t-r> decay of the wave field:
        (measured, predicted), measured the median of the ratios and
        predicted the <t-r>^{-1/2} value.

        Reading the result: measured >= predicted/2 is the theorem's bound
        (interior decay at least as fast as <t-r>^{-1/2}); measured near
        predicted means the profile is saturated; measured far above
        predicted means the interior decays more steeply, as it does for
        data whose wave part is a Laplacian.
        """
        if not self.ratios:
            raise ValueError("no snapshots late enough for the two-shell probe")
        mid1, mid2 = (0.5 * (a + b) for a, b in self.shells)
        predicted = float(np.sqrt(jbracket(mid2) / jbracket(mid1)))
        return float(np.median(self.ratios)), predicted


class RunDiagnostics:
    """The run and scatter verbs' reducer of one march, fed add(state) with
    each state to be stored and add_source(tau, (Q, S), state) with each
    step's midpoint products and the E after it, both in time order.

    The state's physical E and n, built once, give sup_E, the shell probe
    and every snap_every-th snapshot's dumps (kept until written); with
    energies, its spectra give the energies and n's packed jet levels,
    with a source made from that E, the ghost ones.
    The packed (Q, S) of every snap_every-th step are kept for the source
    dumps.  With a DuhamelSum (the scatter diagnostics), every step feeds
    it, and each state's packed E is kept for the residual.
    """

    def __init__(self, grid, energies: bool, delta: float, snap_every: int,
                 duhamel: DuhamelSum | None = None):
        self.grid, self.snap_every, self.dumps = grid, snap_every, []
        self.steps, self.sources = 0, []
        self.duhamel, self.states = duhamel, []
        self.shells = ShellProbe(grid)
        self.sup_E, self.energies = [], {"E": [], "n": []}
        self.ghost = GhostEnergies(grid, delta) if energies else None

    def add_source(self, tau: float, sources, state) -> None:
        if self.snap_every and self.steps % self.snap_every == 0:
            self.sources.append((tau, sources))
        self.steps += 1
        if self.duhamel is not None:
            self.duhamel.add(tau, sources, state)

    def add(self, state) -> None:
        E, n = state.field("E"), state.field("n")
        if self.snap_every and len(self.sup_E) % self.snap_every == 0:
            self.dumps.append((state.t, {"E": E, "n": n,
                                         "nDelta": state.field("n_delta")}))
        if self.duhamel is not None:
            self.states.append(replace(state, packed={"E": state.packed["E"]}))
        self.sup_E.append(E.magnitude().max())
        self.shells.add(state.t, n.values[0])
        if self.ghost is not None:
            for which, m in (("E", 1), ("n", 0)):
                self.energies[which].append(
                    spectral_energy(self.grid, *state.spectra(which), m))
            # n's source by state_source's rule, on the E made above
            feed(self.ghost, state,
                 _driving(self.grid, "n", *_products(self.grid, E.values)))

    def series(self) -> dict:
        series = {"sup_E": np.array(self.sup_E),
                  "sup_n_shell": np.array(self.shells.sups)}
        if self.ghost is not None:
            for which, values in self.energies.items():
                series[f"energy_{which}"] = np.array(values)
            series["gst_wave_low"] = self.ghost.uniform_term()
        return series


# ---------------------------------------------------------------------------
# orchestrated runs
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    out_dir: Path
    fits: dict = dc_field(default_factory=dict)
    scalars: dict = dc_field(default_factory=dict)
    skipped: tuple = ()


def _dump_states(snaps: RunDiagnostics, out_dir: Path):
    """Write the reducer's dumps, (t, {name: field}) pairs, and its kept
    packed sources, (tau, (Q, S)) pairs."""
    g = snaps.grid
    for t, fields in snaps.dumps:
        for name, f in fields.items():
            write_field(out_dir / f"{name}_t{t:08.3f}.kgz", f, t)
    for tau, (Q, S) in snaps.sources:
        for name, v in (("srcQ", widen(g.box_irfft(Q))), ("srcS", g.box_irfft(S))):
            write_field(out_dir / f"{name}_t{tau:08.3f}.kgz", Field(g, v), tau)


def _out_dir(config: RunConfig, out_dir) -> Path:
    """The run directory, created; one that cannot be is a config error."""
    out = Path(out_dir if out_dir is not None else config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: "
                          f"{exc.strerror}") from None
    return out


def run(config: RunConfig, out_dir=None, quiet: bool = False) -> RunReport:
    """Execute one configured evolution with diagnostics and decay fits."""
    out = _out_dir(config, out_dir)
    data = config.build_data()
    say = (lambda *a: None) if quiet else print
    duhamel = None
    if "scatter" in config.diagnostics:
        # t_max is known before the march, which feeds the reducer live
        steps = _steps_for(config.T, config.dt)
        t_max = min(0.8 * (config.L - data.radius), steps * config.dt)
        if np.count_nonzero(in_tail_window(midpoints(steps, config.dt),
                                           t_max)) < 8:
            raise ConfigError("the scatter tail fit needs 8 step midpoints "
                              f"in [t_max/2, t_max], t_max = {t_max:g}")
        duhamel = DuhamelSum(data.grid, config.dt, t_max, config.scatter_s)
    say(f"[kgz2d] evolve: n={config.points_per_axis} L={config.L} "
        f"T={config.T} dt={config.dt} amplitude={config.amplitude}")
    snaps = RunDiagnostics(data.grid, "energies" in config.diagnostics,
                           config.delta, config.snap_every, duhamel)
    # the reducer keeps what the outputs read; the march records nothing
    traj = evolve(data, config.T, config.dt, store_every=config.store_every,
                  record_sources=False, on_source=snaps.add_source,
                  on_snapshot=snaps.add)
    report = RunReport(out_dir=out)
    report.scalars["data_radius"] = data.radius

    series = snaps.series()
    diag = DiagnosticsReport(times=np.asarray(traj.times, dtype=float),
                             series=series)
    diag.write_csv(out / "diagnostics.csv")

    skipped = []
    if config.amplitude == 0.0:
        skipped.append("fits: amplitude is zero")
        say("[kgz2d] amplitude 0: all fits skipped")
    elif "decay" in config.diagnostics:
        window = (config.fit_t1, config.fit_t2)
        for name in ("sup_E", "sup_n_shell"):
            try:
                report.fits[name] = fit_envelope(traj.times, series[name],
                                                 window, seed=config.seed)
            except ValueError as exc:
                skipped.append(f"{name}: {exc}")
        try:
            measured, predicted = snaps.shells.interior_ratio()
            report.scalars["interior_shell_ratio"] = measured
            report.scalars["interior_shell_predicted"] = predicted
        except ValueError as exc:
            skipped.append(f"interior_shell_ratio: {exc}")
    report.skipped = tuple(skipped)

    if duhamel is not None:
        _scatter_outputs(config, snaps, out, report, say)

    _dump_states(snaps, out)
    _write_fits(out / "fits.txt", report)
    for name, fit in report.fits.items():
        say(f"[kgz2d] fit {name}: {fit}")
    for name, val in report.scalars.items():
        say(f"[kgz2d] {name} = {val:.6g}")
    return report


def _scatter_outputs(config: RunConfig, snaps: RunDiagnostics, out: Path,
                     report: RunReport, say):
    skipped, duhamel = list(report.skipped), snaps.duhamel
    launch = launch_from(duhamel.state)
    rt, residuals = residual_series(snaps.states, launch, config.scatter_s)
    for s, res in zip(config.scatter_s, residuals):
        times, norms, running = duhamel.series(s)
        profile = scatter_profile(launch, s, duhamel.t_max, times, norms,
                                  duhamel.dt)
        tag = f"s{s:g}"
        write_profile(out / f"scatter_{tag}", profile)
        DiagnosticsReport(
            times=times, series={"source_norm": norms, "running_integral": running},
        ).write_csv(out / f"source_norm_{tag}.csv")
        DiagnosticsReport(times=rt, series={"residual": res}).write_csv(
            out / f"residual_{tag}.csv")
        for name, (xs, ys, hi) in {
            f"source_norm_{tag}": (times, norms, min(28.0, profile.t_max)),
            f"residual_{tag}": (rt, res, min(28.0, 0.85 * profile.t_max)),
        }.items():
            try:
                report.fits[name] = fit_envelope(xs, ys, (10.0, hi),
                                                 seed=config.seed)
            except ValueError as exc:
                skipped.append(f"{name}: {exc}")
        report.scalars[f"tail_{tag}"] = profile.tail
        if profile.captured > 0:
            report.scalars[f"tail_fraction_{tag}"] = profile.tail / profile.captured
        say(f"[kgz2d] scatter s={s:g}: tail={profile.tail:.3e}, "
            f"captured={profile.captured:.3e}")
    report.skipped = tuple(skipped)


def _write_fits(path: Path, report: RunReport):
    lines = []
    for name, fit in sorted(report.fits.items()):
        lines.append(
            f"{name} exponent={fit.exponent:.17g} ci=[{fit.ci_low:.17g},"
            f"{fit.ci_high:.17g}] window=[{fit.t1:g},{fit.t2:g}] "
            f"residual={fit.residual:.17g} n={fit.n_points}")
    for name, val in sorted(report.scalars.items()):
        lines.append(f"{name} value={val:.17g}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def run_picard(config: RunConfig, out_dir=None, quiet: bool = False) -> RunReport:
    out = _out_dir(config, out_dir)
    data = config.build_data()
    say = (lambda *a: None) if quiet else print
    ratios = picard_solve(data, config.T, config.dt,
                          max_iter=config.picard_max_iter,
                          tol=config.picard_tol)
    report = RunReport(out_dir=out)
    report.scalars["iterations"] = float(len(ratios) + 1)
    for i, r in enumerate(ratios):
        report.scalars[f"contraction_ratio_{i}"] = float(r)
    with open(out / "picard.txt", "w", newline="\n") as fh:
        fh.write(f"iterations={len(ratios) + 1}\n")
        for i, r in enumerate(ratios):
            fh.write(f"ratio_{i}={r:.17g}\n")
    say(f"[kgz2d] picard converged after {len(ratios) + 1} maps; "
        f"ratios: {[f'{r:.3f}' for r in ratios]}")
    return report


def run_scatter(config: RunConfig, out_dir=None, quiet: bool = False) -> RunReport:
    """run with the scatter diagnostics on; the caller's config is kept."""
    diagnostics = tuple(sorted(set(config.diagnostics) | {"scatter"}))
    return run(replace(config, diagnostics=diagnostics), out_dir, quiet)


# ---------------------------------------------------------------------------
# built-in invariant check suite
# ---------------------------------------------------------------------------

def run_check(quiet: bool = False) -> list[tuple[str, bool, str]]:
    """Small-field invariant suite; returns (name, passed, detail) rows."""
    import tempfile

    from .grid import FieldPair, bump_window, h_norm, l2_norm
    from .propagator import LinearOperator, free_step
    from .system import evolve_direct_n
    from .vector_fields import WordPlanes, check_commutators

    results = []

    def record(name, passed, detail):
        results.append((name, bool(passed), detail))
        if not quiet:
            print(f"[check] {'PASS' if passed else 'FAIL'} {name}: {detail}")

    g = make_grid(64, 12.0)
    rng = np.random.default_rng(7)

    f = Field(g, rng.standard_normal((1, g.n, g.n)))
    back = g.irfft(g.rfft(f.values))
    err = np.max(np.abs(back - f.values)) / np.max(np.abs(f.values))
    record("transform round trip", err <= 1e-12, f"rel err {err:.2e}")

    p_err = abs(h_norm(f, 0.0) - l2_norm(f)) / l2_norm(f)
    record("Parseval", p_err <= 1e-10, f"rel err {p_err:.2e}")

    gauss = np.exp(-(g.X1**2 + g.X2**2) / 2.0)
    pair = FieldPair(Field(g, 1e-2 * gauss), Field(g, np.zeros_like(gauss)))
    op = LinearOperator(g, 1)
    e0 = energy(pair, 1)
    q = pair
    for _ in range(200):
        q = free_step(op, q, 0.1)
    drift = abs(energy(q, 1) - e0) / e0
    record("free KG conservation (200 steps)", drift <= 1e-11,
           f"rel drift {drift:.2e}")

    window = bump_window(g, 0.4 * g.length)
    spec = np.zeros((1, g.n, g.n // 2 + 1), dtype=complex)
    low = 6
    spec[0, :low, :low] = rng.standard_normal((low, low)) \
        + 1j * rng.standard_normal((low, low))
    rep = check_commutators(WordPlanes(g, 0.7, [
        g.box_rfft(g.irfft(np.roll(spec, j, axis=1)) * window)
        for j in range(3)]))
    record("commutator identities", rep.max_relative() <= 1e-8,
           f"max rel residual {rep.max_relative():.2e}")

    d2 = gaussian_data(g, 1e-2)
    t1 = evolve(d2, 2.0, 0.1, record_sources=False)
    t2 = evolve_direct_n(d2, 2.0, 0.1, record_sources=False)
    nd = np.max(np.abs(t1.states[-1].n.u.values - t2.states[-1].n.u.values))
    scale = np.max(np.abs(t1.states[-1].n.u.values))
    record("divergence-form equivalence", nd <= 1e-8 * scale,
           f"|dn| {nd:.2e} vs scale {scale:.2e}")

    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "f.kgz"
        write_field(path, f, 1.25)
        f2, t_read = read_field(path)
        ok = t_read == 1.25 and np.array_equal(f2.values, f.values)
        record("field dump round trip", ok, "bit-exact" if ok else "mismatch")

    return results


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kgz2d", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)
    for verb in ("run", "picard", "scatter"):
        p = sub.add_parser(verb)
        p.add_argument("configs", nargs="+" if verb == "run" else 1,
                       metavar="config")
        p.add_argument("--out", default=None)
        p.add_argument("--quiet", action="store_true")
    p = sub.add_parser("check")
    p.add_argument("--quiet", action="store_true")
    p = sub.add_parser("fit")
    p.add_argument("csv")
    p.add_argument("column")
    p.add_argument("t1", type=float)
    p.add_argument("t2", type=float)
    return ap


def _attempt(fn) -> tuple[int, str | None]:
    """fn()'s exit code, or the exit code and message of what it raised."""
    try:
        return fn(), None
    except ConfigError as exc:
        return 2, f"config error: {exc}"
    except (InstabilityError, PicardNonConvergence, TailDivergenceError,
            ValueError) as exc:
        return 3, f"numerical failure: {exc}"


def _tool_verb(args) -> int:
    if args.verb == "check":
        results = run_check(quiet=args.quiet)
        return 0 if all(ok for _, ok, _ in results) else 4
    t1, t2 = args.t1, args.t2
    if not (t1 > 0 and math.isfinite(t2) and t2 >= 2.0 * t1):
        raise ConfigError(f"fit window [{t1:g}, {t2:g}] needs t1 finite and "
                          "positive and t2 finite with t2 >= 2 t1")
    try:
        rep = DiagnosticsReport.read_csv(args.csv)
    except OSError as exc:
        raise ConfigError(f"cannot read {args.csv}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(f"{args.csv} is not a diagnostics CSV: {exc}") from None
    if args.column not in rep.series:
        raise ConfigError(f"no column {args.column!r} in {args.csv}")
    fit = fit_envelope(rep.times, rep.series[args.column], (t1, t2))
    print(f"{args.column}: {fit}")
    return 0


def _run_configs(args) -> int:
    """Parse and run each config on its own.  A sweep (several configs)
    runs them in order, writes run<i> under the output directory, prints
    one status line per config on stderr and exits with the worst code."""
    paths = args.configs
    runner = {"run": run, "picard": run_picard, "scatter": run_scatter}[args.verb]
    sweep = len(paths) > 1
    worst = 0
    for i, path in enumerate(paths):
        def go():
            cfg = parse_config(path)
            out = Path(args.out or cfg.out) / f"run{i:02d}" if sweep else args.out
            runner(cfg, out, args.quiet)
            return 0
        code, message = _attempt(go)
        if sweep:
            print(f"[kgz2d] run{i:02d} {path}: exit {code} {message or 'ok'}",
                  file=sys.stderr)
        elif message:
            print(message, file=sys.stderr)
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verb in ("run", "picard", "scatter"):
        return _run_configs(args)
    code, message = _attempt(lambda: _tool_verb(args))
    if message:
        print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
