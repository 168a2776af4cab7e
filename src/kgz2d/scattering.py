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
kicks holds to round-off.  The launch and the source norms are running
sums, so one reducer (DuhamelSum) builds both from the sources in midpoint
order: fed live by the march, nothing per step is kept but the times and
the norms; fed from a recorded trajectory, it reads the record.
All truncation is explicit: the ignored tail of the source-norm integral is
extrapolated from a power-law fit on the last window and reported next to
every residual statement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, FieldPair, Grid, Spectrum, write_field
from .propagator import LinearOperator

__all__ = [
    "ScatterProfile",
    "DuhamelSum",
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
    """The trajectory has no source record."""


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


class DuhamelSum:
    """Running midpoint sums over the sources Q = -nE of one march, fed in
    midpoint order by add(tau, (Q, S)), the march's on_source call:

    - the packed (acc_u, acc_ut) = sum over midpoints t < tau < t_max of
      dt S1(t - tau)(0, Q(tau)), accumulated in the dealias box, where
      every Q lives;
    - the midpoint times and ||Q(tau)||_{H^s} for each s in s_values.

    t = t_max leaves the sum empty and keeps the norms only.
    """

    def __init__(self, grid: Grid, dt: float, t: float, t_max: float,
                 s_values=()):
        self.grid = grid
        self.dt = dt
        self.t = t
        self.t_max = t_max
        self.s_values = tuple(s_values)
        self._op = LinearOperator(grid, 1, box=True)
        self.acc_u = np.zeros((2,) + grid.spectral["box_k_sq"].shape,
                              dtype=complex)
        self.acc_ut = np.zeros_like(self.acc_u)
        self.times: list[float] = []
        self.norms: list[list[float]] = [[] for _ in self.s_values]

    def add(self, tau: float, sources: tuple[Spectrum, Spectrum]) -> None:
        """One step's midpoint time and packed products (Q, S)."""
        Q = sources[0]
        self.times.append(tau)
        for row, s in zip(self.norms, self.s_values):
            row.append(self.grid.hs_norm(Q.values, s))
        if self.t < tau < self.t_max:
            du, dut = self._op.rotation(self.t - tau)(0.0, Q.values)
            self.acc_u += self.dt * du
            self.acc_ut += self.dt * dut

    def series(self, s: float):
        """(times, norms, running_integral) of ||Q||_{H^s}, the integral by
        the midpoint rule."""
        norms = np.array(self.norms[self.s_values.index(s)])
        return (np.asarray(self.times, dtype=float), norms,
                np.cumsum(norms) * self.dt)

    def launch(self, data: FieldPair) -> FieldPair:
        """data plus the inverted sum: with t = 0 and data = data(0), the
        launch data+ of the free field E+."""
        g = self.grid
        u, ut = (g.box_irfft(acc) for acc in (self.acc_u, self.acc_ut))
        return FieldPair(Field(g, data.u.values + u),
                         Field(g, data.ut.values + ut))


def _reduce(traj, t: float, t_max: float, s_values=()) -> DuhamelSum:
    """A DuhamelSum fed the trajectory's recorded sources, every step."""
    if traj.source_history is None:
        raise MissingHistoryError(
            "trajectory was run without source recording")
    duhamel = DuhamelSum(traj.grid, traj.dt, t, t_max, s_values)
    for tau, sources in zip(traj.source_times, traj.source_history):
        duhamel.add(tau, sources)
    return duhamel


def source_norm_series(traj, s: float = 1.0):
    """||Q(tau)||_{H^s} at the recorded midpoint times plus its running
    time integral (midpoint rule).

    Returns (times, norms, running_integral).
    """
    return _reduce(traj, 0.0, 0.0, (s,)).series(s)


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


def scatter_launch(traj, t_max: float) -> FieldPair:
    """data+ = data(0) + sum_k dt * S1(-tau_k)(0, Q_k) over the recorded
    midpoints tau_k < t_max; one launch serves every Sobolev index."""
    return _reduce(traj, 0.0, t_max).launch(traj.states[0].E)


def scatter_profile(data_plus: FieldPair, s: float, t_max: float, times,
                    norms, dt: float) -> ScatterProfile:
    """The H^s profile of a launch: the tail fitted to the source norms at
    the midpoint times over the last window, and the integral captured
    below t_max.  A divergent tail is carried as inf."""
    tail, slope = _fit_tail(times, norms, t_max)
    captured = float(np.sum(norms[times < t_max]) * dt)
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
    times, norms, _ = source_norm_series(traj, s)
    profile = scatter_profile(launch, s, t_max, times, norms, traj.dt)
    if require_convergent_tail and not np.isfinite(profile.tail):
        raise TailDivergenceError(f"source norm slope {profile.tail_slope:.3f} "
                                  ">= -1: Duhamel tail diverges")
    return profile


def residual_series(states, data_plus: FieldPair, s_values):
    """||(E - E+)(t)||_{H^s} + ||d_t (E - E+)(t)||_{H^{s-1}} per state, at
    its time state.t, one row per Sobolev index s in s_values.  A state
    needs its packed "E" only.

    The launch data+ is packed to the dealias box once; E+ is propagated
    there exactly (one rotation per state, shared by every s) and
    subtracted from the state's packed spectra.  Returns (times,
    residuals), residuals of shape (len(s_values), len(states)).
    """
    g = data_plus.grid
    if any(state.grid != g for state in states):
        raise ValueError("launch and state grids differ")
    op = LinearOperator(g, 1, box=True)
    u0, ut0 = (g.box_rfft(f.values) for f in (data_plus.u, data_plus.ut))
    res = np.empty((len(s_values), len(states)))
    for k, state in enumerate(states):
        up, upt = op.rotation(state.t)(u0, ut0)
        e, et = (spec.values for spec in state.packed["E"])
        du, dut = e - up, et - upt
        for i, s in enumerate(s_values):
            res[i, k] = g.hs_norm(du, s) + g.hs_norm(dut, max(s - 1.0, 0.0))
    return np.array([state.t for state in states], dtype=float), res


def duhamel_tail_norm(traj, profile: ScatterProfile, t: float, s: float | None = None) -> float:
    """|| sum over midpoints tau in (t, t_max) of dt S1(t - tau)(0, Q) ||.

    The residual series equals this quantity up to round-off (the stepping
    and the Duhamel accumulation share one quadrature); comparing the two
    validates the whole construction.
    """
    if s is None:
        s = profile.s
    duhamel = _reduce(traj, t, profile.t_max)
    g = traj.grid
    return g.hs_norm(duhamel.acc_u, s) \
        + g.hs_norm(duhamel.acc_ut, max(s - 1.0, 0.0))


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
