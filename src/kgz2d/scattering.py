"""
Construction of the scattering comparison field for the Klein-Gordon
component and measurement of the residual decay.

The free field E+ is launched from

    data+ = data(0) + int_0^{T_max} S1(-tau) (0, Q(tau)) dtau,
    Q = -nE,

where S1 is the exact free Klein-Gordon propagator.  The integral is
accumulated with the midpoint rule on the recorded per-step midpoint
sources -- the quadrature that is *exactly* aligned with the Strang
stepping, so that the reconstruction E(t) - E+(t) = -sum of the future
kicks holds to round-off.  The sources are read as the packed spectra the
march recorded, and the record must hold every step.  All truncation is
explicit: the ignored tail of the source-norm integral is extrapolated from
a power-law fit on the last window and reported next to every residual
statement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, FieldPair, Grid, h_norm, write_field
from .propagator import LinearOperator

__all__ = [
    "ScatterProfile",
    "source_norm_series",
    "scatter_launch",
    "scatter_profile",
    "build_scatter_data",
    "residual_series",
    "duhamel_tail_norm",
    "write_profile",
    "MissingHistoryError",
    "TailDivergenceError",
]


class MissingHistoryError(RuntimeError):
    """The trajectory has no source record, or one without every step."""


class TailDivergenceError(RuntimeError):
    """The source norm decays too slowly for the Duhamel tail to converge."""


@dataclass(frozen=True, eq=False)
class ScatterProfile:
    """Scattering data (E0+, E1+) with explicit truncation bookkeeping.

    tail is the extrapolated value of int_{t_max}^inf ||Q(tau)||_{H^s} dtau
    from a power-law fit of the source norms over the last window; captured
    is the integral over [0, t_max] that the construction did include.
    """

    data_plus: FieldPair
    t_max: float
    s: float
    tail: float
    tail_slope: float
    captured: float

    @property
    def grid(self) -> Grid:
        return self.data_plus.grid


def _require_history(traj):
    if traj.source_history is None or traj.source_times is None:
        raise MissingHistoryError(
            "trajectory was run without source recording")
    if traj.source_every != 1:
        raise MissingHistoryError(
            f"trajectory recorded the sources of every {traj.source_every}-th "
            "step only; the Duhamel quadrature needs every step")


def source_norm_series(traj, s: float = 1.0):
    """||Q(tau)||_{H^s} at the recorded midpoint times plus its running
    time integral (midpoint rule).

    Returns (times, norms, running_integral).
    """
    _require_history(traj)
    times = np.asarray(traj.source_times, dtype=float)
    g = traj.grid
    norms = np.array([g.hs_norm(Q.values, s) for Q, _ in traj.source_history])
    return times, norms, np.cumsum(norms) * traj.dt


def _fit_tail(times, norms, t_max: float):
    """Power-law fit of the source norm over the last window [t_max/2, t_max].

    Returns (tail_integral, slope).  Raises TailDivergenceError when the
    fitted slope is >= -1 (non-integrable tail).  A window of identically
    zero norms (source-free trajectory) has tail 0 by construction.
    """
    in_window = (times >= 0.5 * t_max) & (times <= t_max)
    if np.any(in_window) and np.max(norms[in_window]) == 0.0:
        return 0.0, 0.0
    window = in_window & (norms > 0)
    if np.count_nonzero(window) < 8:
        raise ValueError("not enough samples in the tail-fit window")
    slope, intercept = np.polyfit(np.log(times[window]), np.log(norms[window]), 1)
    slope = float(slope)
    if slope >= -1.0:
        return float("inf"), slope
    value_at_cut = float(np.exp(intercept + slope * np.log(t_max)))
    return value_at_cut * t_max / (-1.0 - slope), slope


def _duhamel_sum(traj, t: float, t_max: float):
    """Spectral (u, u_t) of sum over midpoints t < tau < t_max of
    dt S1(t - tau)(0, Q(tau)), accumulated in midpoint order."""
    g = traj.grid
    op = LinearOperator(g, 1)
    acc_u = np.zeros((2, g.n, g.n // 2 + 1), dtype=complex)
    acc_ut = np.zeros_like(acc_u)
    for k, tau in enumerate(np.asarray(traj.source_times, dtype=float)):
        if tau <= t or tau >= t_max:
            continue
        Q_hat = traj.source_history[k][0].unpack()
        du, dut = op.rotation(t - tau)(np.zeros_like(Q_hat), Q_hat)
        acc_u += traj.dt * du
        acc_ut += traj.dt * dut
    return acc_u, acc_ut


def scatter_launch(traj, t_max: float) -> FieldPair:
    """data+ = data(0) + sum_k dt * S1(-tau_k)(0, Q_k) over the recorded
    midpoints tau_k < t_max; one launch serves every Sobolev index."""
    _require_history(traj)
    g = traj.grid
    acc_u, acc_ut = _duhamel_sum(traj, 0.0, t_max)
    E0 = traj.states[0].E
    return FieldPair(Field(g, E0.u.values + g.irfft(acc_u)),
                     Field(g, E0.ut.values + g.irfft(acc_ut)))


def scatter_profile(traj, data_plus: FieldPair, s: float, t_max: float,
                    norms) -> ScatterProfile:
    """The H^s profile of a launch: the tail fitted to the source norms
    (from source_norm_series(traj, s)) over the last window, and the
    integral captured below t_max.  A divergent tail is carried as inf."""
    times = np.asarray(traj.source_times, dtype=float)
    tail, slope = _fit_tail(times, norms, t_max)
    captured = float(np.sum(norms[times < t_max]) * traj.dt)
    return ScatterProfile(data_plus=data_plus, t_max=float(t_max), s=float(s),
                          tail=tail, tail_slope=slope, captured=captured)


def build_scatter_data(traj, s: float = 1.0, t_max: float | None = None, *,
                       require_convergent_tail: bool = True) -> ScatterProfile:
    """The launch and its H^s profile up to t_max (default: the horizon).

    A fitted source-norm slope >= -1 means the infinite-time tail diverges:
    by default that raises TailDivergenceError; with
    require_convergent_tail=False the profile is still built and carries an
    infinite tail proxy (useful on short pre-asymptotic runs).
    """
    if t_max is None:
        t_max = traj.t_end
    if t_max > traj.t_end + 1e-9:
        raise ValueError(f"t_max={t_max} exceeds the trajectory horizon")
    launch = scatter_launch(traj, t_max)
    _, norms, _ = source_norm_series(traj, s)
    profile = scatter_profile(traj, launch, s, t_max, norms)
    if require_convergent_tail and not np.isfinite(profile.tail):
        raise TailDivergenceError(f"source norm slope {profile.tail_slope:.3f} "
                                  ">= -1: Duhamel tail diverges")
    return profile


def _combined_norm(g: Grid, u_vals: np.ndarray, ut_vals: np.ndarray, s: float) -> float:
    return h_norm(Field(g, u_vals), s) + h_norm(Field(g, ut_vals), max(s - 1.0, 0.0))


def residual_series(traj, profile: ScatterProfile, s: float | None = None):
    """||(E - E+)(t)||_{H^s} + ||d_t (E - E+)(t)||_{H^{s-1}} per snapshot.

    E+ is propagated exactly (one spectral rotation per snapshot time) from
    the profile's data.  Returns (times, residuals).
    """
    if profile.grid != traj.grid:
        raise ValueError("profile and trajectory grids differ")
    if s is None:
        s = profile.s
    g = traj.grid
    op = LinearOperator(g, 1)
    u0_hat = g.rfft(profile.data_plus.u.values)
    ut0_hat = g.rfft(profile.data_plus.ut.values)
    res = np.empty(len(traj.times))
    for k, t in enumerate(traj.times):
        up_hat, upt_hat = op.rotation(t)(u0_hat, ut0_hat)
        state = traj.states[k]
        du = state.E.u.values - g.irfft(up_hat)
        dut = state.E.ut.values - g.irfft(upt_hat)
        res[k] = _combined_norm(g, du, dut, s)
    return np.asarray(traj.times, dtype=float), res


def duhamel_tail_norm(traj, profile: ScatterProfile, t: float, s: float | None = None) -> float:
    """|| sum over midpoints tau in (t, t_max) of dt S1(t - tau)(0, Q) ||.

    The residual series equals this quantity up to round-off (the stepping
    and the Duhamel accumulation share one quadrature); comparing the two
    validates the whole construction.
    """
    _require_history(traj)
    if s is None:
        s = profile.s
    acc_u, acc_ut = _duhamel_sum(traj, t, profile.t_max)
    g = traj.grid
    return g.hs_norm(acc_u, s) + g.hs_norm(acc_ut, max(s - 1.0, 0.0))


# ---------------------------------------------------------------------------
# persistence: two field dumps plus a one-line metadata file
# ---------------------------------------------------------------------------

def write_profile(prefix, profile: ScatterProfile) -> None:
    write_field(f"{prefix}_u.kgz", profile.data_plus.u, 0.0)
    write_field(f"{prefix}_ut.kgz", profile.data_plus.ut, 0.0)
    with open(f"{prefix}_meta.txt", "w", newline="\n") as fh:
        fh.write(f"T_max={profile.t_max!r} tail={profile.tail!r} "
                 f"s={profile.s!r} tail_slope={profile.tail_slope!r} "
                 f"captured={profile.captured!r}\n")
