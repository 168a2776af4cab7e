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
from dataclasses import dataclass, field as dc_field, fields as dc_fields
from pathlib import Path

import numpy as np

from .energy_diag import DiagnosticsReport, WeightSpec, energy, jbracket, xnorm_terms
from .grid import Field, make_grid, read_field, write_field
from .propagator import InstabilityError
from .scattering import (
    TailDivergenceError,
    residual_series,
    scatter_launch,
    scatter_profile,
    source_norm_series,
    write_profile,
)
from .system import (
    PicardNonConvergence,
    _steps_for,
    evolve,
    gaussian_data,
    picard_solve,
    ring_data,
)

__all__ = [
    "RunConfig",
    "ConfigError",
    "parse_config",
    "FitResult",
    "fit_envelope",
    "shell_sup_series",
    "interior_shell_ratio",
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
    """Flat key=value run configuration; unknown keys are rejected."""

    points_per_axis: int = 256
    L: float = 40.0
    profile: str = "gaussian"
    amplitude: float = 1e-2
    width: float = 1.0
    center: tuple = (0.0, 0.0)
    ring_radius: float = 3.0
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
    fit_t2: float = 0.0          # 0 -> min(28, T - 2)
    picard_tol: float = 1e-6
    picard_max_iter: int = 12
    out: str = "kgz_out"
    seed: int = 0

    def __post_init__(self):
        if self.profile not in ("gaussian", "ring"):
            raise ConfigError(f"unknown profile {self.profile!r}")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ConfigError(
                f"amplitude must be finite and nonnegative, got {self.amplitude}")
        if len(self.center) != 2:
            raise ConfigError(f"center needs 2 coordinates, got {self.center}")
        for name in ("T", "dt", "width"):
            if not (math.isfinite(v := getattr(self, name)) and v > 0):
                raise ConfigError(f"{name} must be finite and positive, got {v}")
        try:
            make_grid(self.points_per_axis, self.L)
            steps = _steps_for(self.T, self.dt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.store_every < 1 or steps % self.store_every:
            raise ConfigError(f"store_every={self.store_every} does not "
                              f"divide the {steps} steps")
        if self.picard_max_iter < 2:
            raise ConfigError(
                f"picard_max_iter must be >= 2, got {self.picard_max_iter}")
        if not (math.isfinite(self.picard_tol) and self.picard_tol > 0):
            raise ConfigError(
                f"picard_tol must be finite and positive, got {self.picard_tol}")
        if not all(math.isfinite(s) and s >= 0 for s in self.scatter_s):
            raise ConfigError(f"scatter_s must be finite and nonnegative, "
                              f"got {self.scatter_s}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.fit_t2 == 0.0:
            self.fit_t2 = min(28.0, self.T - 2.0)
        for name in ("delta", "kappa", "eta"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ConfigError(f"{name} must lie in (0, 1), got {v}")
        unknown = set(self.diagnostics) - {"decay", "energies", "scatter"}
        if unknown:
            raise ConfigError(f"unknown diagnostic toggles {sorted(unknown)}")

    def build_data(self):
        grid = make_grid(self.points_per_axis, self.L)
        if self.profile == "gaussian":
            data = gaussian_data(grid, self.amplitude, self.width, self.center)
        else:
            data = ring_data(grid, self.amplitude, self.width,
                             self.ring_radius, self.center)
        if not self.T + data.radius < self.L:
            raise ConfigError(f"wrap-free window violated: T + data radius = "
                              f"{self.T + data.radius:.3g} >= L = {self.L:g}")
        return data


_TUPLE_KEYS = {"center": float, "scatter_s": float, "diagnostics": str}


def parse_config(path) -> RunConfig:
    """Parse a flat UTF-8 `key = value` file with # comments."""
    values = {}
    known = {f.name: f.type for f in dc_fields(RunConfig)}
    proto = RunConfig()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
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


def fit_envelope(times, values, window, *, n_boot: int = 200,
                 seed: int = 0) -> FitResult:
    """Least-squares slope of log(value) against log(t) over a window.

    The window must span at least one octave (t2 >= 2 t1) and contain at
    least 8 strictly positive samples.  The 95% interval comes from
    resampling the points with replacement.
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
    idx = np.arange(len(lt))
    boots = np.empty(n_boot)
    for b in range(n_boot):
        pick = rng.choice(idx, size=len(idx), replace=True)
        if len(np.unique(lt[pick])) < 2:
            boots[b] = slope
            continue
        boots[b] = np.polyfit(lt[pick], lv[pick], 1)[0]
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return FitResult(float(slope), float(lo), float(hi), t1, t2, resid,
                     int(np.count_nonzero(mask)))


# ---------------------------------------------------------------------------
# decay probes
# ---------------------------------------------------------------------------

def shell_sup_series(traj, band: float = 2.0):
    """sup of |n| over the light-cone shell {| r - t | <= band} per snapshot."""
    R = traj.grid.R
    out = np.empty(len(traj.times))
    for k, state in enumerate(traj.states):
        mask = np.abs(R - traj.times[k]) <= band
        out[k] = float(np.abs(state.n.u.values[0])[mask].max()) if mask.any() else 0.0
    return out


def interior_shell_ratio(traj, shells=((4.0, 6.0), (16.0, 24.0)), t_min: float = 18.0):
    """Two-shell probe of the interior <t-r> decay of the wave field.

    Returns (measured_ratio, predicted_ratio) where measured is the median
    over late snapshots of sup|n| on the near-cone shell divided by sup|n|
    on the deep shell, and predicted is the <t-r>^{-1/2} value.

    Reading the result: measured >= predicted/2 is the theorem's bound
    (interior decay at least as fast as <t-r>^{-1/2}); measured near
    predicted means the profile is saturated; measured far above predicted
    means the interior decays more steeply, as it does for data whose wave
    part is a Laplacian.
    """
    (a1, b1), (a2, b2) = shells
    R = traj.grid.R
    ratios = []
    for k, state in enumerate(traj.states):
        t = traj.times[k]
        if t < t_min:
            continue
        n = np.abs(state.n.u.values[0])
        m1 = (t - R >= a1) & (t - R <= b1)
        m2 = (t - R >= a2) & (t - R <= b2)
        if m1.any() and m2.any() and n[m2].max() > 0:
            ratios.append(n[m1].max() / n[m2].max())
    if not ratios:
        raise ValueError("no snapshots late enough for the two-shell probe")
    mid1, mid2 = 0.5 * (a1 + b1), 0.5 * (a2 + b2)
    predicted = float(np.sqrt(jbracket(mid2) / jbracket(mid1)))
    return float(np.median(ratios)), predicted


# ---------------------------------------------------------------------------
# orchestrated runs
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    out_dir: Path
    fits: dict = dc_field(default_factory=dict)
    scalars: dict = dc_field(default_factory=dict)
    skipped: tuple = ()


def _dump_states(traj, out_dir: Path, snap_every: int):
    """Dump every snap_every-th snapshot and the recorded sources of every
    snap_every-th step (chosen by step index, whatever the record stride)."""
    if snap_every <= 0:
        return
    for k in range(0, len(traj.states), snap_every):
        state = traj.states[k]
        tag = f"{state.t:08.3f}"
        write_field(out_dir / f"E_t{tag}.kgz", state.E.u, state.t)
        write_field(out_dir / f"n_t{tag}.kgz", state.n.u, state.t)
        write_field(out_dir / f"nDelta_t{tag}.kgz", state.n_delta.u, state.t)
    for i, (q, s) in enumerate(traj.source_history or ()):
        if (i * traj.source_every) % snap_every:
            continue
        tau = traj.source_times[i]
        tag = f"{tau:08.3f}"
        write_field(out_dir / f"srcQ_t{tag}.kgz", q.field(), tau)
        write_field(out_dir / f"srcS_t{tag}.kgz", s.field(), tau)


def run(config: RunConfig, out_dir=None, quiet: bool = False) -> RunReport:
    """Execute one configured evolution with diagnostics and decay fits."""
    out = Path(out_dir if out_dir is not None else config.out)
    out.mkdir(parents=True, exist_ok=True)
    data = config.build_data()
    say = (lambda *a: None) if quiet else print

    say(f"[kgz2d] evolve: n={config.points_per_axis} L={config.L} "
        f"T={config.T} dt={config.dt} amplitude={config.amplitude}")
    # the scatter outputs read every step's sources, the dumps every
    # snap_every-th step's, and nothing else reads them
    record = 1 if "scatter" in config.diagnostics else max(config.snap_every, 0)
    traj = evolve(data, config.T, config.dt, store_every=config.store_every,
                  record_sources=record)
    report = RunReport(out_dir=out)
    report.scalars["data_radius"] = data.radius

    series = {"sup_E": np.array([s.E.u.magnitude().max() for s in traj.states]),
              "sup_n_shell": shell_sup_series(traj)}
    if "energies" in config.diagnostics:
        series["energy_E"] = np.array([energy(s.E, 1) for s in traj.states])
        series["energy_n"] = np.array([energy(s.n, 0) for s in traj.states])
        gst = xnorm_terms(traj, [WeightSpec("wave_energy_uniform", gamma_cap=1,
                                            delta=config.delta)])
        series["gst_wave_low"] = gst.series["wave_energy_uniform"]
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
            measured, predicted = interior_shell_ratio(traj)
            report.scalars["interior_shell_ratio"] = measured
            report.scalars["interior_shell_predicted"] = predicted
        except ValueError as exc:
            skipped.append(f"interior_shell_ratio: {exc}")
    report.skipped = tuple(skipped)

    if "scatter" in config.diagnostics:
        _scatter_outputs(config, traj, out, report, say)

    _dump_states(traj, out, config.snap_every)
    _write_fits(out / "fits.txt", report)
    for name, fit in report.fits.items():
        say(f"[kgz2d] fit {name}: {fit}")
    for name, val in report.scalars.items():
        say(f"[kgz2d] {name} = {val:.6g}")
    return report


def _scatter_outputs(config: RunConfig, traj, out: Path, report: RunReport, say):
    t_max = 0.8 * (config.L - report.scalars["data_radius"])
    t_max = min(t_max, traj.t_end)
    skipped = list(report.skipped)
    launch = scatter_launch(traj, t_max)
    for s in config.scatter_s:
        times, norms, running = source_norm_series(traj, s)
        profile = scatter_profile(traj, launch, s, t_max, norms)
        tag = f"s{s:g}"
        write_profile(out / f"scatter_{tag}", profile)
        DiagnosticsReport(
            times=times, series={"source_norm": norms, "running_integral": running},
        ).write_csv(out / f"source_norm_{tag}.csv")
        rt, res = residual_series(traj, profile)
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
    out = Path(out_dir if out_dir is not None else config.out)
    out.mkdir(parents=True, exist_ok=True)
    data = config.build_data()
    say = (lambda *a: None) if quiet else print
    traj, ratios = picard_solve(data, config.T, config.dt,
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
    cfg_diags = set(config.diagnostics) | {"scatter"}
    config.diagnostics = tuple(sorted(cfg_diags))
    return run(config, out_dir, quiet)


# ---------------------------------------------------------------------------
# built-in invariant check suite
# ---------------------------------------------------------------------------

def run_check(quiet: bool = False) -> list[tuple[str, bool, str]]:
    """Small-field invariant suite; returns (name, passed, detail) rows."""
    import tempfile

    from .grid import FieldPair, bump_window, h_norm, l2_norm
    from .propagator import LinearOperator, free_step
    from .system import evolve_direct_n
    from .vector_fields import JetField, check_commutators

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
    u = g.irfft(spec) * window
    ut = g.irfft(np.roll(spec, 1, axis=1)) * window
    utt = g.irfft(np.roll(spec, 2, axis=1)) * window
    rep = check_commutators(JetField(g, 0.7, u, ut, utt))
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
    rep = DiagnosticsReport.read_csv(args.csv)
    if args.column not in rep.series:
        raise ConfigError(f"no column {args.column!r} in {args.csv}")
    fit = fit_envelope(rep.times, rep.series[args.column], (args.t1, args.t2))
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
