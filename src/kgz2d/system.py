"""
The coupled Klein-Gordon-Zakharov evolution on the periodic box:

    -box(E) + E = -n E        (Klein-Gordon, 2 components)
    -box(n)     = lap(|E|^2)  (wave)

evolved in the divergence form n = lap(n_delta), -box(n_delta) = |E|^2,
plus the Picard solution mapping that sends a guessed trajectory to the
solution of the corresponding *linear* system with sources read off the
guess.

One Strang stepper (_Strang: half free step on the exact mode-wise
propagator, source kick at the interval midpoint, half free step) drives
every flow; between two steps that store no state, the two half steps are
one exact full step.  A march can record its midpoint sources (Q, S) =
(-nE, |E|^2), the packed spectra it kicks with; replayed as kicks, the
record makes the discrete solution an exact fixed point of the Picard map.
Readers that reduce as they go are handed each step's sources (on_source)
or each state (on_snapshot) instead, and nothing is kept.  picard_solve
marches the free flow and every iterate in lockstep, one state each, and
keeps no iterate.

An energy_diag reducer is fed one way, feed: a state's jet levels on one
source, state_source's unless given (Trajectory.feed gives its own).
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from functools import reduce
from itertools import pairwise

import numpy as np

from .grid import Field, FieldPair, Grid, laplacian
from .propagator import MASS, InstabilityError, LinearOperator
from .vector_fields import WordPlanes

__all__ = [
    "KGZState",
    "Trajectory",
    "state_levels",
    "state_source",
    "feed",
    "InitialData",
    "gaussian_data",
    "evolve",
    "evolve_direct_n",
    "free_flow",
    "picard_map",
    "picard_solve",
    "PicardNonConvergence",
]

# Sample threshold, relative to each field's peak, of the effective data
# radius, read off the data as given: the dealiased desk Gaussian rings
# across the box at 9.1e-12 of E0's peak, so its radius would be the box's.
SUPPORT_FLOOR = 1e-14


def widen(E: np.ndarray) -> np.ndarray:
    """A physical E of the march's components, the dropped ones as +0.0."""
    return np.concatenate([E, np.zeros((2 - len(E),) + E.shape[1:])])


@dataclass(frozen=True, eq=False)
class KGZState:
    """One time's state as the march holds it: packed maps "E", "n_delta"
    (and "n" for the direct-n flow only; else n = lap(n_delta) is derived)
    to the packed box arrays (Grid.box_rfft) of (u, u_t), E's of its live
    components (_Strang).  Physical pairs are built on access, E widened."""

    grid: Grid
    t: float
    packed: dict

    def box(self, which: str) -> tuple[np.ndarray, np.ndarray]:
        """The packed box coefficients of (u, u_t) of "E", "n" or "n_delta"."""
        if which == "n" and "n" not in self.packed:
            lap = -self.grid.spectral["box_k_sq"]
            return tuple(lap * b for b in self.packed["n_delta"])
        return self.packed[which]

    def spectra(self, which: str) -> tuple[np.ndarray, np.ndarray]:
        """The whole half spectra of (u, u_t) for "E", "n" or "n_delta"."""
        return tuple(self.grid.unpack(b) for b in self.box(which))

    def pair(self, which: str) -> FieldPair:
        g, fit = self.grid, widen if which == "E" else np.asarray
        return FieldPair(*(Field(g, fit(g.box_irfft(b))) for b in self.box(which)))

    def field(self, which: str) -> Field:
        """The physical u of the pair alone, for readers of u only."""
        g, fit = self.grid, widen if which == "E" else np.asarray
        return Field(g, fit(g.box_irfft(self.box(which)[0])))

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

    source_history holds every step's midpoint (Q, S) = (-nE, |E|^2), the
    packed spectra the march kicks with, step k's at (k + 1/2) dt (None
    when nothing was recorded).  The sources at snapshot times follow from
    kind: the snapshot's own products ("coupled", "direct"), zero ("free"),
    or the guess's products, recorded as snapshot_sources ("picard").
    """

    grid: Grid
    dt: float
    store_every: int
    times: np.ndarray
    states: list
    source_history: list | None
    kind: str  # "coupled" | "direct" | "free" | "picard"
    snapshot_sources: list | None = None

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

    def source(self, k: int, which: str, rate: bool = False) -> np.ndarray:
        """The packed source that drives `which` at snapshot k, or with rate
        its time derivative: zero ("free"), the guess's products ("picard")
        or the snapshot's own (state_source)."""
        if self.kind == "free":
            return np.zeros_like(self.states[k].box(which)[0])
        if self.kind != "picard":
            return state_source(self.states[k], which, rate)
        if rate:
            raise ValueError("a Picard iterate records no source "
                             "derivative, so its jets stop at depth 2")
        return _driving(self.grid, which, *self.snapshot_sources[k])

    def products(self, k: int):
        """Snapshot k's own packed (Q, S) (_own_products)."""
        return _own_products(self.states[k])

    def feed(self, reducer):
        """reducer fed each snapshot in time order, as on_snapshot feeds a
        march's: feed on the snapshot's source(k, reducer.which)."""
        for k, state in enumerate(self.states):
            feed(reducer, state, self.source(k, reducer.which))
        return reducer

    def jet_levels(self, k: int, which: str, depth: int = 2) -> list:
        """Snapshot k's packed jet levels up to the depth-th time
        derivative (state_levels on its sources)."""
        return state_levels(self.states[k], which, [
            self.source(k, which, rate) for rate in (False, True)[:depth - 1]])

    def jet(self, k: int, which: str, depth: int = 2) -> WordPlanes:
        """The word planes of snapshot k's jet_levels(k, which, depth)."""
        return WordPlanes(self.grid, self.states[k].t,
                          self.jet_levels(k, which, depth))


def state_levels(state: KGZState, which: str, sources=()) -> list:
    """The packed jet levels (u, u_t[, u_tt[, u_ttt]]) of `which` at a state:
    its pair, then a level per packed source of the field's equation given
    (the source, then its rate), u_tt = (-|k|^2 - m^2) u + source and u_ttt
    likewise from u_t.  They are linear in (state, sources); E's hold the
    state's live components."""
    op = -state.grid.spectral["box_k_sq"] - MASS[which]
    levels = list(state.box(which))
    for j, src in enumerate(sources):
        levels.append(op * levels[j] + src)
    return levels


def feed(reducer, state: KGZState, source: np.ndarray | None = None) -> None:
    """Feed an energy_diag reducer one state: the packed jet levels of
    reducer.which to reducer.depth (at most 2), built on the packed source of
    the field's equation, and that source too if reducer.sourced.  A None
    source is the coupled flow's, state_source(state, reducer.which)."""
    if source is None:
        source = state_source(state, reducer.which)
    levels = state_levels(state, reducer.which, [source][:reducer.depth - 1])
    if reducer.sourced:
        reducer.add(state.t, levels, source)
    else:
        reducer.add(state.t, levels)


def _own_products(state: KGZState, with_n: bool = True, rate: bool = False,
                  with_s: bool = True):
    """A state's own packed (Q, S) = (-nE, |E|^2) (_products), or with rate
    their time derivatives, from its levels read alone."""
    g, read = state.grid, 2 if rate else 1
    E = [g.box_irfft(b) for b in state.box("E")[:read]]
    n = ([g.box_irfft(b) for b in state.box("n")[:read]] if with_n
         else [None, None])
    return _products(g, E[0], n[0], rate=(E[1], n[1]) if rate else None,
                     with_s=with_s)


def state_source(state: KGZState, which: str, rate: bool = False) -> np.ndarray:
    """The packed source that drives `which` at a state of the coupled flow,
    or with rate its time derivative, from the state's own products: -nE
    for "E", |E|^2 for "n_delta" and lap(|E|^2) for "n"."""
    return _driving(state.grid, which, *_own_products(
        state, which == "E", rate, with_s=which != "E"))


def _driving(g: Grid, which: str, q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Of packed sources (Q, S), the one that drives `which`."""
    src = q if which == "E" else s
    return -g.spectral["box_k_sq"] * src if which == "n" else src


def _products(g: Grid, E: np.ndarray, n: np.ndarray | None = None, *,
              rate=None, with_s: bool = True
              ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The packed, so 2/3-dealiased, quadratic sources (Q, S) = (-nE, |E|^2)
    of physical E (any components) and n; Q is None without n, S without
    with_s.  With rate = (E_t, n_t) they are the time derivatives -(n_t E
    + n E_t) and 2 E.E_t.
    """
    if rate is None:
        q = None if n is None else n[0] * E
        s = np.sum(E**2, axis=0) if with_s else None
    else:
        Et, nt = rate
        q = None if n is None else nt[0] * E + n[0] * Et
        s = 2.0 * np.sum(E * Et, axis=0) if with_s else None
    Q = None if q is None else g.box_rfft(-q)
    return Q, None if s is None else g.box_rfft(s[None])


@dataclass(frozen=True, eq=False)
class InitialData:
    """Cauchy data (E0, E1, n0_delta, n1_delta), with n = lap(n_delta).
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
        # the derived n data spreads further than n_delta, so it counts,
        # with headroom for its spectral-differentiation round-off
        fields = [(f, SUPPORT_FLOOR) for f in
                  (self.E0, self.E1, self.n0_delta, self.n1_delta)]
        fields += [(f, 10.0 * SUPPORT_FLOOR) for f in
                   (Field(g, g.irfft(n0_hat)), laplacian(self.n1_delta))]
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


def gaussian_data(grid: Grid, amplitude: float, width: float = 1.0,
                  center: tuple[float, float] = (0.0, 0.0)) -> InitialData:
    """Gaussian bump of the given width centered on `center`.  The offsets
    are scaled before squaring, so any positive width gives finite samples:
    a width far below the spacing leaves a lone sample or none, one far
    above the box a constant."""
    with np.errstate(over="ignore", under="ignore"):
        g = np.exp(-((((grid.X1 - center[0]) / width) ** 2
                      + ((grid.X2 - center[1]) / width) ** 2) / 2.0))
    zero = np.zeros_like(g)
    # at rest: E0 = (a g, 0), n0_delta = a g, velocities zero
    return InitialData(E0=Field(grid, np.stack([amplitude * g, zero])),
                       E1=Field(grid, np.stack([zero, zero])),
                       n0_delta=Field(grid, amplitude * g),
                       n1_delta=Field(grid, zero))


# ---------------------------------------------------------------------------
# coupled stepper
# ---------------------------------------------------------------------------

def _steps_for(T: float, dt: float, store_every: int = 1) -> int:
    """The step count of a march over [0, T] by dt that stores a state every
    store_every steps: the one rule for a valid time grid, checked before
    any step."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    steps = int(round(T / dt)) if np.isfinite(T) else 0
    if steps < 1 or abs(steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"dt={dt} does not divide T={T}")
    if store_every < 1 or steps % store_every:
        raise ValueError(f"store_every={store_every} does not divide "
                         f"the {steps} steps")
    return steps


class _Strang:
    """One march's state, packed to the dealias box (so dealiased once, and
    its quadratic products alias-free), and its Strang step.  -nE and
    lap(|E|^2) are invariant under constant rotations of E, so a component
    whose data are zero stays zero: E keeps its live components alone, up
    to the last not all zero in E0 or E1 (at least one).  _march drives
    one, deferring each trailing half step that no stored state reads, so
    two kicks are one R(dt) apart; picard_solve's sweep drives one per
    iterate, in lockstep, and like picard_map never defers."""

    def __init__(self, data: InitialData, T: float, dt: float,
                 direct_n: bool = False, store_every: int = 1):
        g = self.grid = data.grid
        if not T + data.radius < g.length:
            raise ValueError(f"wrap-free window violated: T + R = "
                             f"{T + data.radius:.3g} >= L = {g.length:.3g}")
        self.steps, self.dt, self.k = _steps_for(T, dt, store_every), dt, 0
        self.store_every, self.pending = store_every, False
        ops = [LinearOperator(g, MASS[f], box=True) for f in ("E", "n_delta")]
        self.half = [op.rotation(0.5 * dt) for op in ops]
        # R(dt) is built here if the march fuses: built mid-march on first
        # use, its arrays left heap holes that raised a 512^2 run's peak RSS
        self.full = ([op.rotation(dt) for op in ops] if store_every > 1
                     else None)
        self.lap = -g.spectral["box_k_sq"]
        E = [f.values for f in (data.E0, data.E1)]
        live = np.trim_zeros(np.any([v.any(axis=(1, 2)) for v in E], axis=0), "b")
        self.E = tuple(g.box_rfft(v[:max(len(live), 1)]) for v in E)
        self.D = tuple(g.box_rfft(f.values) for f in (data.n0_delta, data.n1_delta))
        self.N = tuple(self.lap * a for a in self.D) if direct_n else None
        self.limit = 1e6 * (self._scale() + 1e-300)

    def _scale(self) -> float:
        return float(np.max([  # NaN if any entry is NaN
            np.max(np.abs(a)) for a in (*self.E, *self.D)]))

    def _rotate(self, kg, w):
        self.E = kg(*self.E)  # pair by pair: old pairs free first
        self.D = w(*self.D)
        if self.N is not None:
            self.N = w(*self.N)

    def products(self, with_s: bool = True):
        """The packed (Q, S) of the positions now (as Trajectory.products);
        S is None without with_s."""
        g = self.grid
        n = g.box_irfft(self.lap * self.D[0] if self.N is None else self.N[0])
        return _products(g, g.box_irfft(self.E[0]), n, with_s=with_s)

    def step(self, kick=None, products: bool = False):
        """Half free step, midpoint kick, half free step; pairs are rebound,
        never written into.  kick: None (free flow), "self" (the nonlinear
        flow's own midpoint products) or a packed (Q, S) pair.  Returns
        the midpoint products if made (kick "self" or products True).  After
        a step that stores no state (pending) the trailing half step waits,
        leaving E* (after the kick): the next step opens with one R(dt) for
        both halves, state() with the half step."""
        dt, lap, t = self.dt, self.lap, self.k * self.dt
        self._rotate(*(self.full if self.pending else self.half))
        made = None
        if kick == "self" or products:
            made = self.products()
        if kick is not None:
            Q, S = made if kick == "self" else kick
            if Q.shape != self.E[1].shape:
                raise ValueError(f"kick {Q.shape} on E {self.E[1].shape}")
            self.E = (self.E[0], self.E[1] + dt * Q)
            self.D = (self.D[0], self.D[1] + dt * S)
            if self.N is not None:
                self.N = (self.N[0], self.N[1] + dt * (lap * S))
        self.k += 1
        self.pending = self.k % self.store_every != 0 and self.k < self.steps
        if not self.pending:
            self._rotate(*self.half)
        if not self._scale() <= self.limit:
            raise InstabilityError(f"evolution unstable at t={t + dt:.6g}: "
                                   "amplitude exceeded 1e6 x initial")
        return made

    def state(self) -> KGZState:
        """The state now, owning copies of its arrays."""
        if self.pending:
            self._rotate(*self.half)
            self.pending = False
        g, t = self.grid, self.k * self.dt
        spectra = {"E": self.E, "n_delta": self.D}
        if self.N is not None:
            # grid L2 norms, by Parseval over the box
            resid = np.sqrt(g.parseval(self.lap * self.D[0] - self.N[0]))
            scale = max(np.sqrt(g.parseval(self.N[0])), 1e-300)
            if resid > 1e-8 * scale and scale > 1e-13:
                raise InstabilityError(
                    f"divergence-form consistency lost at t={t:.6g}: "
                    f"|lap(nD) - n| = {resid:.3e} vs scale {scale:.3e}")
            spectra["n"] = self.N
        return KGZState(g, t, {name: tuple(h.copy() for h in hats)
                               for name, hats in spectra.items()})


def _march(data: InitialData, T: float, dt: float, *, kicks,
           store_every: int, record_sources: bool,
           direct_n: bool = False, on_source=None,
           on_snapshot=None) -> Trajectory:
    """Drive one _Strang over [0, T], kicked per _Strang.step or from a
    recorded per-step list of (Q, S) pairs (the linear solution map).
    record_sources records every step's sources (True or 1) or none;
    direct_n also evolves n directly, with source lap(|E|^2).  on_source
    (for the steps that make products) and on_snapshot are evolve's."""
    g, march = data.grid, _Strang(data, T, dt, direct_n, store_every)
    if record_sources not in (True, False):
        raise ValueError(f"record_sources must be True or False, "
                         f"got {record_sources!r}")
    if kicks is None:
        kind = "free"
    elif kicks == "self":
        kind = "direct" if direct_n else "coupled"
    else:
        kind = "picard"
        if len(kicks) != march.steps:
            raise ValueError(f"kick history has {len(kicks)} steps, need {march.steps}")
    states, times = [], [0.0]
    history = [] if record_sources else None
    store = states.append if on_snapshot is None else on_snapshot
    store(march.state())
    for k in range(march.steps):
        products = march.step(kicks[k] if kind == "picard" else kicks,
                              record_sources)
        if record_sources:
            history.append(products)
        if on_source is not None and products is not None:
            # a deferred step leaves E*, whose label is its midpoint
            tau = k * dt + 0.5 * dt
            on_source(tau, products, KGZState(
                g, tau if march.pending else (k + 1) * dt, {"E": march.E}))
        if not march.pending:
            store(march.state())
            times.append((k + 1) * dt)
    return Trajectory(
        grid=g, dt=dt, store_every=store_every,
        times=np.asarray(times), states=states,
        source_history=history, kind=kind,
    )


def evolve(data: InitialData, T: float, dt: float, *, store_every: int = 1,
           record_sources: bool = True, on_source=None,
           on_snapshot=None) -> Trajectory:
    """Nonlinear KGZ evolution in divergence form (n reconstructed as lap nD).

    Snapshots are kept every store_every steps; record_sources keeps every
    step's midpoint sources (for picard_map and the scattering readers).
    on_source, if given, is called as on_source(tau, (Q, S), state) after
    every step with its midpoint time, packed products and packed E alone:
    after the step at (k+1) dt if a state is stored there, else E* (before
    the deferred half step) at tau, whose S1(-t) E is the same to round-off.
    on_snapshot gets every state to be stored, as it is made, and the
    trajectory keeps none."""
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
    """One application of the solution mapping: the linear system with the
    guess's recorded midpoint products (-phi*Psi, |Psi|^2) as sources, from
    the fixed data.  The discrete nonlinear solution is an exact fixed point.
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
    # its jets read the guess's products at snapshot times, so are exact
    out.snapshot_sources = [guess.products(k) for k in range(len(guess))]
    return out


def _xnorm_levels(marches: list, j: int) -> dict:
    """Iterate j's X-distance levels now: E to depth 2 on iterate j-1's
    products (none for the free flow, j = 0) and n to depth 1."""
    state = marches[j].state()
    src = marches[j - 1].products(with_s=False)[0] if j else 0.0
    return {"E": state_levels(state, "E", [src]), "n": state_levels(state, "n")}


def picard_solve(data: InitialData, T: float, dt: float, *,
                 max_iter: int = 12, tol: float = 1e-6,
                 on_snapshot=None) -> list:
    """Iterate the solution mapping from the free-flow guess to a fixed point
    and return the contraction ratios of successive X-distances between
    iterates (energy_diag.xnorm_distance).  The map is causal, so the free
    flow and every iterate march in lockstep, one state each, iterate j+1
    kicked by iterate j's midpoint products; each adjacent pair's running
    sup takes one X-term per snapshot.  Once the newest pair's reaches tol,
    an iterate is added and the sweep restarts from t = 0, keeping its
    terms; once iterate max_iter's does, the sweep runs to the horizon and
    raises PicardNonConvergence.  on_snapshot, if given, gets the newest
    iterate's states in time order, from t = 0 again at each restart."""
    from .energy_diag import _xnorm_snapshot

    if max_iter < 2:
        raise ValueError("max_iter must be >= 2")
    terms = [[]]  # terms[j][k]: iterates j+1, j at k
    start = _Strang(data, T, dt)  # copied per pass; a step only rebinds
    while True:
        marches = [copy(start) for _ in range(len(terms) + 1)]
        for k in range(marches[0].steps + 1):
            if k:
                made = None
                for march in marches[:-1]:
                    made = march.step(made, products=True)
                marches[-1].step(made)
            # the measured pairs lead: a pair is measured where its follower is
            first = sum(len(row) > k for row in terms)
            levels = (_xnorm_levels(marches, j) for j in range(first, len(marches)))
            for j, (below, above) in enumerate(pairwise(levels), first):
                terms[j].append(
                    _xnorm_snapshot(data.grid, k * dt, above, below))
            if on_snapshot is not None:
                on_snapshot(marches[-1].state())
            if len(terms) < max_iter and reduce(max, terms[-1], 0.0) >= tol:
                terms.append([])
                break
        else:
            break
    distances = [reduce(max, row, 0.0) for row in terms]
    ratios = [d / prev for prev, d in zip(distances, distances[1:]) if prev > 0]
    if distances[-1] < tol:
        return ratios
    raise PicardNonConvergence(ratios, distances)
