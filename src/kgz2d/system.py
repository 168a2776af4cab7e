"""
The coupled Klein-Gordon-Zakharov evolution on the periodic box:

    -box(E) + E = -n E        (Klein-Gordon, 2 components)
    -box(n)     = lap(|E|^2)  (wave)

evolved in the divergence form n = lap(n_delta), -box(n_delta) = |E|^2,
plus the Picard solution mapping that sends a guessed trajectory to the
solution of the corresponding *linear* system with sources read off the
guess.

Stepping is a Strang composition built on the exact mode-wise propagator:
half free step, source kick at the interval midpoint, half free step.  A
march can record its midpoint sources (Q, S) = (-nE, |E|^2) as the packed
dealiased spectra it kicks with, at every step.  Replayed as kicks, the
record makes the discrete solution an exact fixed point of the Picard map
and makes Duhamel reconstructions exact up to round-off.  A reader that
only sums over the steps or keeps a few of them (the run and scatter verbs)
is instead handed each step's sources as they are made (evolve's
on_source), and nothing is recorded for it; a reader of one snapshot at a
time is handed each state (on_snapshot), and none is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Field, FieldPair, Grid, Spectrum, laplacian
from .propagator import InstabilityError, LinearOperator
from .vector_fields import JetField, _spectral_jet

__all__ = [
    "KGZState",
    "Trajectory",
    "InitialData",
    "gaussian_data",
    "evolve",
    "evolve_direct_n",
    "free_flow",
    "picard_map",
    "picard_solve",
    "PicardNonConvergence",
]

SUPPORT_FLOOR = 1e-14  # sample threshold defining the effective data radius


@dataclass(frozen=True, eq=False)
class KGZState:
    """Simulation state at one time as the march holds it: packed maps "E"
    and "n_delta" (and "n" for the direct-n flow only) to the Spectrum pair
    of (u, u_t).  Otherwise n = lap(n_delta) is derived, not stored.  The
    physical pairs E, n and n_delta are built on each access, not kept.
    """

    t: float
    packed: dict

    @property
    def grid(self) -> Grid:
        return self.packed["E"][0].grid

    def box(self, which: str) -> tuple[np.ndarray, np.ndarray]:
        """The packed box coefficients of (u, u_t) for "E", "n" or
        "n_delta"."""
        if which == "n" and "n" not in self.packed:
            lap = -self.grid.spectral["box_k_sq"]
            return tuple(lap * s.values for s in self.packed["n_delta"])
        return tuple(s.values for s in self.packed[which])

    def spectra(self, which: str) -> tuple[np.ndarray, np.ndarray]:
        """The whole half spectra of (u, u_t) for "E", "n" or "n_delta"."""
        return tuple(Spectrum(self.grid, b).unpack() for b in self.box(which))

    def pair(self, which: str) -> FieldPair:
        g = self.grid
        return FieldPair(*(Field(g, g.box_irfft(b)) for b in self.box(which)))

    def field(self, which: str) -> Field:
        """The physical u of the pair alone, for readers of u only."""
        return Field(self.grid, self.grid.box_irfft(self.box(which)[0]))

    def jet(self, which: str, depth: int = 2) -> JetField:
        """The jet of a lone state of the nonlinear flows, whose sources are
        its own products: the jet of a one-snapshot coupled trajectory."""
        return Trajectory(self.grid, 0.0, 1, np.array([self.t]), [self], None,
                          None, "coupled").jet(0, which, depth)

    @property
    def E(self) -> FieldPair:
        return self.pair("E")

    @property
    def n(self) -> FieldPair:
        return self.pair("n")

    @property
    def n_delta(self) -> FieldPair:
        return self.pair("n_delta")


@dataclass(eq=False)
class Trajectory:
    """Time-ordered KGZ snapshots plus recorded midpoint sources.

    source_history holds (Q, S) = (-nE, |E|^2) sampled along this
    trajectory at the midpoint of every step, with source_times the
    midpoint times (both None when nothing was recorded).  Each is a
    Spectrum: the 2/3-dealiased coefficients the march kicks with,
    exactly what a solution map feeds to the linear equations.  The
    equation sources at snapshot times follow from kind: the snapshot's
    own products for the nonlinear flows ("coupled", "direct"), zero for
    "free", and the recorded snapshot_sources for a Picard iterate
    ("picard"), which solves the linear system whose sources are its
    guess's products.
    """

    grid: Grid
    dt: float
    store_every: int
    times: np.ndarray
    states: list
    source_times: np.ndarray | None
    source_history: list | None
    kind: str  # "coupled" | "direct" | "free" | "picard"
    snapshot_sources: list | None = None

    def __post_init__(self):
        dts = np.diff(self.times)
        if len(dts) and not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
            raise ValueError("trajectory times are not uniformly spaced")
        if len(dts) and np.any(dts <= 0):
            raise ValueError("trajectory times must be strictly increasing")

    def __len__(self):
        return len(self.states)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def index_at(self, t: float) -> int:
        k = int(round((t - self.times[0]) / (self.times[1] - self.times[0])))
        if k < 0 or k >= len(self.times) or abs(self.times[k] - t) > 1e-9:
            raise ValueError(f"no snapshot at t={t}")
        return k

    # -- equation sources at snapshot times (for jets and identities) --

    def _source_hat(self, k: int, which: str, rate: bool = False) -> np.ndarray:
        """Half spectrum of the source that drives `which` at snapshot k, or
        with rate of its time derivative: -nE for "E", |E|^2 for "n_delta"
        and lap(|E|^2) for "n"."""
        if self.kind == "free":
            return np.zeros_like(self.states[k].spectra(which)[0])
        if self.kind == "picard":
            if rate:
                raise ValueError("a Picard iterate records no source "
                                 "derivative, so its jets stop at depth 2")
            q, s = self.snapshot_sources[k]
        else:
            q, s = self.products(k, with_n=which == "E", rate=rate)
        hat = (q if which == "E" else s).unpack()
        return -self.grid.spectral["k_sq"] * hat if which == "n" else hat

    def snapshot_source(self, k: int, which: str) -> Field:
        return Field(self.grid, self.grid.irfft(self._source_hat(k, which)))

    def products(self, k: int, with_n: bool = True, rate: bool = False):
        """The packed (Q, S) = (-nE, |E|^2) of snapshot k's own fields, the
        type the source record holds (Q is None without n), or with rate
        their time derivatives.  Only the levels read are transformed."""
        g, state = self.grid, self.states[k]
        read = 2 if rate else 1
        E = [g.box_irfft(b) for b in state.box("E")[:read]]
        n = ([g.box_irfft(b) for b in state.box("n")[:read]] if with_n
             else [None, None])
        return _products(g, E[0], n[0], rate=(E[1], n[1]) if rate else None)

    def jet_spectra(self, k: int, which: str, depth: int = 2) -> list:
        """Half spectra of snapshot k's jet levels (u, u_t[, u_tt[, u_ttt]])
        up to the depth-th time derivative, the second and third supplied by
        the field's own equation, u_tt = (lap - m^2) u + source.  They are
        linear in (state, source)."""
        hats = list(self.states[k].spectra(which))
        if depth >= 2:
            op = -self.grid.spectral["k_sq"] - (1.0 if which == "E" else 0.0)
            hats.append(op * hats[0] + self._source_hat(k, which))
        if depth >= 3:
            hats.append(op * hats[1] + self._source_hat(k, which, rate=True))
        return hats

    def jet(self, k: int, which: str, depth: int = 2) -> JetField:
        """Snapshot jet on jet_spectra(k, which, depth); each level keeps
        its half spectrum for its spatial derivatives."""
        return _spectral_jet(self.grid, self.states[k].t,
                             self.jet_spectra(k, which, depth))


def _products(g: Grid, E: np.ndarray, n: np.ndarray | None = None, *,
              rate=None) -> tuple[Spectrum | None, Spectrum]:
    """The packed, so 2/3-dealiased, quadratic sources (Q, S) = (-nE, |E|^2)
    of physical E (2 components) and n; Q is None without n.  With rate =
    (E_t, n_t) they are the time derivatives -(n_t E + n E_t) and 2 E.E_t.
    """
    if rate is None:
        q = None if n is None else n[0] * E
        s = np.sum(E**2, axis=0)
    else:
        Et, nt = rate
        q = None if n is None else nt[0] * E + n[0] * Et
        s = 2.0 * np.sum(E * Et, axis=0)
    Q = None if q is None else Spectrum(g, g.box_rfft(-q))
    return Q, Spectrum(g, g.box_rfft(s[None]))


@dataclass(frozen=True, eq=False)
class InitialData:
    """Cauchy data (E0, E1, n0_delta, n1_delta); n0, n1 are their Laplacians.
    unresolved: the share of n0's grid energy outside the 2/3 dealias box,
    which the march drops (resolved data: about 1e-12; nan on overflow)."""

    E0: Field
    E1: Field
    n0_delta: Field
    n1_delta: Field
    radius: float = field(init=False)
    unresolved: float = field(init=False)

    def __post_init__(self):
        if self.E0.components != 2 or self.E1.components != 2:
            raise ValueError("E data must have 2 components")
        if self.n0_delta.components != 1 or self.n1_delta.components != 1:
            raise ValueError("n_delta data must be scalar")
        g, radius = self.grid, 0.0
        n0_hat = -g.spectral["k_sq"] * g.rfft(self.n0_delta.values)
        with np.errstate(over="ignore", invalid="ignore"):
            lost = g.parseval(n0_hat, ~g.spectral["dealias_mask"])
            unresolved = lost and lost / g.parseval(n0_hat)
        object.__setattr__(self, "unresolved", unresolved)
        # the derived n data spreads further than n_delta (Laplacian adds a
        # polynomial factor), so include it in the effective support; the
        # floor is relative to each field's peak, with extra headroom for
        # the spectral-differentiation round-off of the derived fields
        fields = [(f, SUPPORT_FLOOR) for f in
                  (self.E0, self.E1, self.n0_delta, self.n1_delta)]
        fields += [(f, 10.0 * SUPPORT_FLOOR)
                   for f in (Field(g, g.irfft(n0_hat)), self.n1)]
        for f, floor in fields:
            peak = float(np.max(np.abs(f.values)))
            if peak == 0.0:
                continue
            hit = np.any(np.abs(f.values) > floor * peak, axis=0)
            if np.any(hit):
                radius = max(radius, float(np.max(g.R[hit])))
        object.__setattr__(self, "radius", radius)

    @property
    def grid(self) -> Grid:
        return self.E0.grid

    @property
    def n0(self) -> Field:
        return laplacian(self.n0_delta)

    @property
    def n1(self) -> Field:
        return laplacian(self.n1_delta)


def _bump_data(grid: Grid, amplitude: float, g: np.ndarray) -> InitialData:
    """Data at rest: E0 = (a g, 0), n0_delta = a g, velocities zero."""
    zero = np.zeros_like(g)
    return InitialData(
        E0=Field(grid, np.stack([amplitude * g, zero])),
        E1=Field(grid, np.stack([zero, zero])),
        n0_delta=Field(grid, amplitude * g),
        n1_delta=Field(grid, zero),
    )


def gaussian_data(grid: Grid, amplitude: float, width: float = 1.0,
                  center: tuple[float, float] = (0.0, 0.0)) -> InitialData:
    """Gaussian bump of the given width centered on `center`.  The offsets
    are scaled before squaring, so any positive width gives finite samples:
    a width far below the spacing leaves a lone sample or none, one far
    above the box a constant."""
    with np.errstate(over="ignore", under="ignore"):
        g = np.exp(-((((grid.X1 - center[0]) / width) ** 2
                      + ((grid.X2 - center[1]) / width) ** 2) / 2.0))
    return _bump_data(grid, amplitude, g)


# ---------------------------------------------------------------------------
# coupled stepper
# ---------------------------------------------------------------------------

def _steps_for(T: float, dt: float) -> int:
    steps = int(round(T / dt))
    if steps < 1 or abs(steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"dt={dt} does not divide T={T}")
    return steps


def _march(data: InitialData, T: float, dt: float, *, kicks,
           store_every: int, record_sources: bool,
           direct_n: bool = False, on_source=None,
           on_snapshot=None) -> Trajectory:
    """Shared Strang march for every evolution flavour.

    kicks          -- the midpoint kick: "self" for this march's own
                      midpoint products (the nonlinear flow), None for none
                      (the free flow), or a recorded per-step list of
                      (Q, S) Spectrum pairs (the linear solution map)
    record_sources -- True (or 1) records every step's sources, False (or
                      0) none
    direct_n       -- additionally evolve n directly with source lap(|E|^2)
                      and take the state's n from that integration
    on_source      -- called as on_source(tau, (Q, S)) with the midpoint
                      time and products of every step whose products the
                      march computes: each step of the nonlinear flows
    on_snapshot    -- called as on_snapshot(state) with each state to be
                      stored, as it is made; the march then keeps none
    """
    g = data.grid
    if not T + data.radius < g.length:
        raise ValueError(
            f"wrap-free window violated: T + R = {T + data.radius:.3g} "
            f">= L = {g.length:.3g}")
    steps = _steps_for(T, dt)
    if record_sources not in (True, False):
        raise ValueError(f"record_sources must be True or False, "
                         f"got {record_sources!r}")
    if kicks is None:
        kind = "free"
    elif kicks == "self":
        kind = "direct" if direct_n else "coupled"
    else:
        kind = "picard"
        if len(kicks) != steps:
            raise ValueError(f"kick history has {len(kicks)} steps, need {steps}")
    own = kind in ("coupled", "direct")

    kg_half = LinearOperator(g, 1, box=True).rotation(0.5 * dt)
    w_half = LinearOperator(g, 0, box=True).rotation(0.5 * dt)
    lap = -g.spectral["box_k_sq"]

    # spectral state packed to the dealias box, so dealiased once and
    # quadratic products stay alias-free
    Eu, Eut, Du, Dut = (g.box_rfft(f.values) for f in (
        data.E0, data.E1, data.n0_delta, data.n1_delta))
    Nu, Nut = (lap * Du, lap * Dut) if direct_n else (None, None)

    def snapshot(t: float) -> KGZState:
        spectra = {"E": (Eu, Eut), "n_delta": (Du, Dut)}
        if direct_n:
            # grid L2 norms, by Parseval over the box
            resid = np.sqrt(g.parseval(lap * Du - Nu))
            scale = max(np.sqrt(g.parseval(Nu)), 1e-300)
            if resid > 1e-8 * scale and scale > 1e-13:
                raise InstabilityError(
                    f"divergence-form consistency lost at t={t:.6g}: "
                    f"|lap(nD) - n| = {resid:.3e} vs scale {scale:.3e}")
            spectra["n"] = (Nu, Nut)
        # copies, so a snapshot owns its arrays
        return KGZState(t=t, packed={
            name: tuple(Spectrum(g, h.copy()) for h in hats)
            for name, hats in spectra.items()})

    def scale_now() -> float:
        return float(max(np.max(np.abs(a)) for a in (Eu, Eut, Du, Dut)))

    limit = 1e6 * (scale_now() + 1e-300)
    states = []
    store = states.append if on_snapshot is None else on_snapshot
    store(snapshot(0.0))
    times = [0.0]
    history = [] if record_sources else None
    source_times = []

    for k in range(steps):
        t = k * dt
        Eu, Eut = kg_half(Eu, Eut)
        Du, Dut = w_half(Du, Dut)
        if direct_n:
            Nu, Nut = w_half(Nu, Nut)

        # midpoint products from the half-stepped positions
        if own or record_sources:
            n_mid = g.box_irfft(Nu if direct_n else lap * Du)
            sources = _products(g, g.box_irfft(Eu), n_mid)
            if record_sources:
                history.append(sources)
                source_times.append(t + 0.5 * dt)
            if on_source is not None:
                on_source(t + 0.5 * dt, sources)

        if kind == "picard":
            sources = kicks[k]
        if kicks is not None:
            Q, S = (src.values for src in sources)
            Eut = Eut + dt * Q
            Dut = Dut + dt * S
            if direct_n:
                Nut = Nut + dt * (lap * S)

        Eu, Eut = kg_half(Eu, Eut)
        Du, Dut = w_half(Du, Dut)
        if direct_n:
            Nu, Nut = w_half(Nu, Nut)

        if not scale_now() <= limit:
            raise InstabilityError(
                f"evolution unstable at t={t + dt:.6g}: "
                "amplitude exceeded 1e6 x initial")
        if (k + 1) % store_every == 0 or k + 1 == steps:
            store(snapshot((k + 1) * dt))
            times.append((k + 1) * dt)

    return Trajectory(
        grid=g, dt=dt, store_every=store_every,
        times=np.asarray(times), states=states,
        source_times=np.asarray(source_times) if record_sources else None,
        source_history=history, kind=kind,
    )


def evolve(data: InitialData, T: float, dt: float, *, store_every: int = 1,
           record_sources: bool = True, on_source=None,
           on_snapshot=None) -> Trajectory:
    """Nonlinear KGZ evolution in divergence form (n reconstructed as lap nD).

    Snapshots are kept every store_every steps.  record_sources keeps every
    step's midpoint sources (what picard_map and the scattering
    construction read) or, False, none.  on_source, if given, is called as
    on_source(tau, (Q, S)) at every step with its midpoint time and packed
    products, recorded or not; a reducer fed that way (scattering.DuhamelSum,
    harness.RunDiagnostics) needs no record.
    on_snapshot, its twin for the states, if given is called with every
    state to be stored as it is made, and the trajectory keeps none.
    """
    return _march(data, T, dt, kicks="self", store_every=store_every,
                  record_sources=record_sources, on_source=on_source,
                  on_snapshot=on_snapshot)


def evolve_direct_n(data: InitialData, T: float, dt: float, *,
                    store_every: int = 1, record_sources: bool = True) -> Trajectory:
    """Same system with n evolved directly from -box(n) = lap(|E|^2)."""
    return _march(data, T, dt, kicks="self", store_every=store_every,
                  record_sources=record_sources, direct_n=True)


def free_flow(data: InitialData, T: float, dt: float, *, store_every: int = 1,
              record_sources: bool = True) -> Trajectory:
    """Source-free flow of the same data.  It still records -nE and |E|^2
    along itself, unless record_sources is False, which makes it the Picard
    iteration's starting guess."""
    return _march(data, T, dt, kicks=None, store_every=store_every,
                  record_sources=record_sources)


# ---------------------------------------------------------------------------
# Picard solution mapping
# ---------------------------------------------------------------------------

class PicardNonConvergence(RuntimeError):
    def __init__(self, ratios, distances):
        self.ratios = [float(r) for r in ratios]
        self.distances = [float(d) for d in distances]
        super().__init__(
            f"Picard iteration did not converge: distances={self.distances}, "
            f"contraction ratios={self.ratios} (data may be outside the "
            "contraction regime)")


def picard_map(guess: Trajectory, data: InitialData) -> Trajectory:
    """One application of the solution mapping.

    Solves the linear system with sources (-phi*Psi, |Psi|^2) sampled along
    the guess (its recorded midpoint products) and the fixed initial data.
    The discrete nonlinear solution is an exact fixed point.
    """
    if guess.grid != data.grid:
        raise ValueError("guess and data live on different grids")
    if guess.store_every != 1:
        raise ValueError("picard_map needs a guess with a snapshot every step")
    if guess.source_history is None:
        raise ValueError("picard_map needs the guess's sources at every "
                         "step; it recorded none")
    out = _march(data, guess.t_end, guess.dt, kicks=guess.source_history,
                 store_every=1, record_sources=True)
    # the iterate solves the linear system whose sources are the guess's
    # products; record them at snapshot times so jets are exact
    out.snapshot_sources = [guess.products(k) for k in range(len(guess))]
    return out


def picard_solve(data: InitialData, T: float, dt: float, *,
                 max_iter: int = 12, tol: float = 1e-6):
    """Iterate the solution mapping from the free-flow guess to a fixed point.

    Returns (trajectory, contraction_ratios).  Distances between successive
    iterates are measured in the truncated discrete X-seminorm
    (energy_diag.xnorm_distance); ratios are successive distance quotients.
    Raises PicardNonConvergence with the ratio history when tol is not
    reached within max_iter iterations.
    """
    from .energy_diag import xnorm_distance

    if max_iter < 2:
        raise ValueError("max_iter must be >= 2")
    current = free_flow(data, T, dt)
    distances: list[float] = []
    ratios: list[float] = []
    for _ in range(max_iter):
        new = picard_map(current, data)
        d = xnorm_distance(new, current)
        if distances and distances[-1] > 0:
            ratios.append(d / distances[-1])
        distances.append(d)
        current = new
        if d < tol:
            return current, ratios
    raise PicardNonConvergence(ratios, distances)
