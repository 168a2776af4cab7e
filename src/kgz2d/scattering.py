"""
Construction of the scattering comparison field for the Klein-Gordon
component and measurement of the residual decay.

The free field E+ is launched from

    data+ = data(0) + int_0^{T_max} S1(-tau) (0, Q(tau)) dtau,
    Q = -nE,

where S1 is the exact free Klein-Gordon propagator.  By the midpoint rule
on the per-step midpoint sources, the quadrature of the Strang step E_{k+1}
= S1(dt) E_k + dt S1(dt/2)(0, Q_k), the launch is exactly S1(-t_K) E(t_K),
t_K the end of the last step whose midpoint lies below T_max.  The residual
(E - E+)(t) is then minus the sum of the later kicks to round-off, which
DuhamelTail sums from the march's sources.  One reducer (DuhamelSum) keeps
the source norms and that state, fed by the march or a record.
All truncation is explicit: the ignored tail of the source-norm integral is
extrapolated from a power-law fit on the last window and reported next to
every residual statement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, FieldPair, Grid, write_field
from .propagator import LinearOperator
from .system import widen

__all__ = [
    "ScatterProfile",
    "DuhamelSum",
    "source_norm_series",
    "launch_from",
    "scatter_launch",
    "scatter_profile",
    "build_scatter_data",
    "residual_series",
    "DuhamelTail",
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


class DuhamelSum:
    """The scatter verb's reducer of one march, fed in midpoint order by
    add(tau, (Q, S), state), the march's on_source call: the midpoint
    times, ||Q(tau)||_{H^s} for each s in s_values, and state, the packed E
    after the last step whose midpoint lies below t_max, to launch from: or
    E* at that midpoint if the march deferred the step's trailing half, as
    S1(-t_K) E(t_K) = S1(-tau_K) E*.
    """

    def __init__(self, grid: Grid, dt: float, t_max: float, s_values=()):
        self.grid, self.dt, self.t_max = grid, dt, t_max
        self.s_values, self.state = tuple(s_values), None
        self.times: list[float] = []
        self.norms: list[list[float]] = [[] for _ in self.s_values]

    def add(self, tau: float, sources, state) -> None:
        """One step's midpoint time, products (Q, S) and state after it."""
        Q = sources[0]
        self.times.append(tau)
        for row, s in zip(self.norms, self.s_values):
            row.append(self.grid.hs_norm(Q, s))
        if tau < self.t_max:
            self.state = state

    def series(self, s: float):
        """(times, norms, running_integral) of ||Q||_{H^s}, the integral by
        the midpoint rule."""
        norms = np.array(self.norms[self.s_values.index(s)])
        return (np.asarray(self.times, dtype=float), norms,
                np.cumsum(norms) * self.dt)


def _history(traj):
    """The trajectory's recorded (midpoint time, (Q, S)) pairs."""
    if traj.source_history is None:
        raise MissingHistoryError(
            "trajectory was run without source recording")
    return zip(midpoints(len(traj.source_history), traj.dt),
               traj.source_history)


def _reduce(traj, s_values=()) -> DuhamelSum:
    """A DuhamelSum of the source norms, fed the trajectory's record."""
    duhamel = DuhamelSum(traj.grid, traj.dt, 0.0, s_values)
    for tau, sources in _history(traj):
        duhamel.add(tau, sources, None)
    return duhamel


def source_norm_series(traj, s: float = 1.0):
    """||Q(tau)||_{H^s} at the recorded midpoint times plus its running
    time integral (midpoint rule).

    Returns (times, norms, running_integral).
    """
    return _reduce(traj, (s,)).series(s)


def midpoints(steps: int, dt: float) -> np.ndarray:
    """The steps' midpoint times k dt + dt/2, formed as the march does."""
    return np.arange(steps) * dt + 0.5 * dt


def in_tail_window(times, t_max: float) -> np.ndarray:
    """Which midpoint times lie in the tail fit's window [t_max/2, t_max]."""
    return (times >= 0.5 * t_max) & (times <= t_max)


def _fit_tail(times, norms, t_max: float):
    """Power-law fit of the source norm over the last window [t_max/2, t_max].

    Returns (tail_integral, slope).  Raises TailDivergenceError when the
    fitted slope is >= -1 (non-integrable tail).  A window of identically
    zero norms (source-free trajectory) has tail 0 by construction.
    """
    in_window = in_tail_window(times, t_max)
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


def launch_from(state) -> FieldPair:
    """data+ = S1(-t) E(t) of a state at t, rotated in the dealias box."""
    g = state.grid
    rotate = LinearOperator(g, 1, box=True).rotation(-state.t)
    return FieldPair(*(Field(g, widen(g.box_irfft(b)))
                       for b in rotate(*state.box("E"))))


def scatter_launch(traj, t_max: float) -> FieldPair:
    """data+ launched from the trajectory's state at t_K, K the midpoints
    below t_max; one launch serves every Sobolev index.  It is data(0) +
    sum_k dt S1(-tau_k)(0, Q_k) for the kicks Q_k the states saw, which a
    Picard iterate's record does not hold: it holds the iterate's own."""
    taus = midpoints(round(traj.t_end / traj.dt), traj.dt)
    t_K = np.count_nonzero(taus < t_max) * traj.dt
    return launch_from(traj.states[traj.index_at(t_K)])


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
    there exactly (one rotation per state, shared by every s) on the
    state's live E components and subtracted from its packed spectra.
    Returns (times, residuals), of shape (len(s_values), len(states)).
    """
    g = data_plus.grid
    if any(state.grid != g for state in states):
        raise ValueError("launch and state grids differ")
    op = LinearOperator(g, 1, box=True)
    u0, ut0 = (g.box_rfft(f.values) for f in (data_plus.u, data_plus.ut))
    res = np.empty((len(s_values), len(states)))
    for k, state in enumerate(states):
        e, et = state.packed["E"]
        if np.any(u0[len(e):]) or np.any(ut0[len(e):]):
            raise ValueError("the launch has E components the state dropped")
        up, upt = op.rotation(state.t)(u0[:len(e)], ut0[:len(e)])
        du, dut = e - up, et - upt
        for i, s in enumerate(s_values):
            res[i, k] = g.hs_norm(du, s) + g.hs_norm(dut, max(s - 1.0, 0.0))
    return np.array([state.t for state in states], dtype=float), res


class DuhamelTail:
    """The Duhamel remainders of one march, fed add(tau, (Q, S), state) as
    DuhamelSum is: for each probe time t, one packed accumulator (u, u_t)
    of the Duhamel remainder, the sum over midpoints tau in (t, t_max) of
    dt S1(t - tau)(0, Q).  The residual series, launched from the states,
    equals its norm up to round-off; comparing the two validates the whole
    construction.
    """

    def __init__(self, grid: Grid, dt: float, t_max: float, probes):
        self.grid, self.dt, self.t_max = grid, dt, t_max
        self.op, self.probes = LinearOperator(grid, 1, box=True), probes
        self.sums = {}  # sized by the first Q, which has E's components

    def add(self, tau: float, sources, state) -> None:
        Q = sources[0]
        if not self.sums:
            self.sums = {t: np.zeros((2,) + Q.shape, complex) for t in self.probes}
        for t, acc in self.sums.items():
            if t < tau < self.t_max:
                for level, kick in zip(acc, self.op.rotation(t - tau)(0.0, Q)):
                    level += self.dt * kick

    def norm(self, t: float, s: float) -> float:
        """||remainder(t)||_{H^s} + ||d_t remainder(t)||_{H^{s-1}}."""
        g, (u, ut) = self.grid, self.sums[t]
        return g.hs_norm(u, s) + g.hs_norm(ut, max(s - 1.0, 0.0))


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
