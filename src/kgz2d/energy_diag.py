"""
Energy functionals, ghost-weight machinery, the solution-space (X-norm)
distance and uniform wave-energy term, multiplier identity residuals and
decay-inequality ratio diagnostics.

Conventions used throughout:

* Japanese bracket <x> = sqrt(1 + x^2).
* Spacetime integrals over [t0, t] x box accumulate by the trapezoid rule
  on snapshot data, matching the second-order stepper.
* Norms over solution-space weights truncate the vector-field order at
  <= 2 (the analysis commutes far more); every weighted quantity reported
  here is the truncated version.

Trajectory arguments are duck-typed: anything with .grid, .times, .states,
.jet(k, which) and .snapshot_source(k, which) works.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Derivatives, Field, FieldPair
from .vector_fields import (
    LETTERS,
    JetField,
    all_words,
    apply_gamma,
    apply_letters,
    good_derivative,
)

__all__ = [
    "jbracket",
    "ghost_weight_q",
    "energy",
    "ghost_energy",
    "multiplier_residual",
    "WeightSpec",
    "XNORM_TERMS",
    "xnorm_terms",
    "xnorm_distance",
    "ks_ratio",
    "hessian_decay_ratio",
    "kg_extra_decay_ratio",
    "DiagnosticsReport",
]


# ---------------------------------------------------------------------------
# brackets, ghost weight
# ---------------------------------------------------------------------------

def jbracket(x):
    """<x> = sqrt(1 + x^2)."""
    return np.sqrt(1.0 + np.asarray(x, dtype=np.float64) ** 2)


_Q_TABLE: dict[float, tuple[np.ndarray, np.ndarray, float]] = {}
_Q_ZMAX = 160.0
_Q_STEP = 1e-3


def _q_table(delta: float):
    table = _Q_TABLE.get(delta)
    if table is None:
        zs = np.arange(0.0, _Q_ZMAX + _Q_STEP, _Q_STEP)
        f = (1.0 + zs**2) ** (-(1.0 + delta) / 2.0)
        odd = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * _Q_STEP)])
        half = 0.5 * math.sqrt(math.pi) * math.gamma(delta / 2.0) \
            / math.gamma((1.0 + delta) / 2.0)
        table = (zs, odd, half)
        _Q_TABLE[delta] = table
    return table


def ghost_weight_q(z, delta: float):
    """q(z) = delta * int_{-inf}^{z} <s>^{-1-delta} ds (bounded, increasing).

    The multiplier weight of the ghost energy identity is e^q evaluated at
    z = r - t.  delta = 0 returns 0 (the weight degenerates to 1).
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta == 0.0:
        return np.zeros_like(np.asarray(z, dtype=np.float64))
    zs, odd, half = _q_table(delta)
    za = np.asarray(z, dtype=np.float64)
    g = np.interp(np.abs(za), zs, odd)
    return delta * (half + np.sign(za) * g)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def _grad_sq(d) -> np.ndarray:
    """|grad u|^2 summed over components, where d(a) returns d_a u."""
    return np.sum(d(1) ** 2 + d(2) ** 2, axis=0)


def _field_grad_sq(f: Field) -> np.ndarray:
    return _grad_sq(Derivatives(f.grid, f.values))


def energy(p: FieldPair, m: int) -> float:
    """Natural energy: int |u_t|^2 + |grad u|^2 + m^2 |u|^2 dx."""
    dens = np.sum(p.ut.values**2, axis=0) + _field_grad_sq(p.u) \
        + float(m) ** 2 * np.sum(p.u.values**2, axis=0)
    return float(np.sum(dens) * p.grid.cell_area)


def _good_sq(jet: JetField) -> np.ndarray:
    """Sum over a of |G_a u|^2, summed over components."""
    return sum(np.sum(good_derivative(a, jet).values ** 2, axis=0) for a in (1, 2))


def _ghost_integrand(jet: JetField, m: int, delta: float) -> float:
    g = jet.grid
    w = jbracket(jet.t - g.R) ** (-(1.0 + delta))
    dens = delta * (_good_sq(jet) + float(m) ** 2 * np.sum(jet.u**2, axis=0))
    return float(np.sum(w * dens) * g.cell_area)


_MASS = {"E": 1, "n": 0, "n_delta": 0}


def _pair_of(state, which: str) -> FieldPair:
    return {"E": state.E, "n": state.n, "n_delta": state.n_delta}[which]


def ghost_energy(traj, which: str = "n", delta: float = 0.1,
                 m: int | None = None) -> np.ndarray:
    """Ghost-weight energy series: E_m(t) plus the running spacetime integrals
    of delta |G_a u|^2 / <tau - r>^{1+delta} and delta m^2 |u|^2 / <...>.

    Equals the natural energy exactly at the first snapshot.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    mass = _MASS[which] if m is None else m
    out = np.empty(len(traj.states))
    acc = 0.0
    prev = None
    for k, state in enumerate(traj.states):
        jet = traj.jet(k, which)
        integ = _ghost_integrand(jet, mass, delta)
        if prev is not None:
            acc += 0.5 * (prev + integ) * (traj.times[k] - traj.times[k - 1])
        prev = integ
        out[k] = energy(_pair_of(state, which), mass) + acc
    return out


def multiplier_residual(traj, which: str = "E", delta: float = 0.1,
                        kappa: float = 0.05, m: int | None = None) -> np.ndarray:
    """Imbalance of the ghost-weight multiplier identity, per snapshot.

    The multiplier <t>^{-kappa} e^q d_t u against -box(u) + m^2 u = F gives,
    once the periodic flux term drops out,

        int_0^t int e_w d_t(u) F dx dtau
      = [ (1/2) int e_w (|du|^2 + m^2 u^2) dx ]_0^t
        + int_0^t int (delta/2) e_w <rho-tau>^{-1-delta}
              ( |G u|^2 + (1 - |grad rho|^2) |d_t u|^2 + m^2 u^2 )
        + int_0^t int (kappa/2) tau <tau>^{-kappa-2} e^q (|du|^2 + m^2 u^2)

    with e_w = <t>^{-kappa} e^{q(rho-t)}.  The radius inside the weight is
    smoothed to rho = sqrt(r^2 + h^2), matching the regularised good
    derivatives; this keeps the identity exact (the unregularised identity
    is its h -> 0 limit), so for the exact semidiscrete solution the
    returned imbalance is pure time-quadrature error, O(dt^2).
    """
    mass = _MASS[which] if m is None else m
    g = traj.grid
    rho = np.sqrt(g.R**2 + g.h**2)
    grad_rho_defect = g.h**2 / (g.R**2 + g.h**2)  # 1 - |grad rho|^2
    out = np.empty(len(traj.states))
    src_acc = ghost_acc = kap_acc = 0.0
    prev = None
    b0 = None
    for k, state in enumerate(traj.states):
        t = traj.times[k]
        jet = traj.jet(k, which)
        eq = np.exp(ghost_weight_q(rho - t, delta))
        tw = jbracket(t) ** (-kappa)
        ut_sq = np.sum(jet.ut**2, axis=0)
        e_dens = ut_sq + _grad_sq(jet.d) \
            + mass**2 * np.sum(jet.u**2, axis=0)
        b_term = 0.5 * float(np.sum(tw * eq * e_dens) * g.cell_area)
        ghost_dens = 0.5 * delta * jbracket(rho - t) ** (-(1.0 + delta)) \
            * (_good_sq(jet) + grad_rho_defect * ut_sq
               + mass**2 * np.sum(jet.u**2, axis=0))
        ghost_term = float(np.sum(tw * eq * ghost_dens) * g.cell_area)
        kap_term = 0.5 * kappa * t * jbracket(t) ** (-kappa - 2.0)
        kap_int = float(np.sum(kap_term * eq * e_dens) * g.cell_area)
        F = traj.snapshot_source(k, which)
        src = float(np.sum(tw * eq * np.sum(jet.ut * F.values, axis=0))
                    * g.cell_area)
        if prev is not None:
            h = traj.times[k] - traj.times[k - 1]
            src_acc += 0.5 * (prev[0] + src) * h
            ghost_acc += 0.5 * (prev[1] + ghost_term) * h
            kap_acc += 0.5 * (prev[2] + kap_int) * h
        prev = (src, ghost_term, kap_int)
        if b0 is None:
            b0 = b_term
        out[k] = abs(src_acc - (b_term - b0 + ghost_acc + kap_acc))
    return out


# ---------------------------------------------------------------------------
# solution-space (X-norm) terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSpec:
    """Selects one solution-space norm term by name with its parameters."""

    name: str
    gamma_cap: int = 1
    delta: float = 0.1

    def __post_init__(self):
        if not 0 <= self.gamma_cap <= 2:
            raise ValueError("gamma_cap must be 0, 1 or 2")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


def _ghost(traj, which: str, cap: int, delta: float) -> np.ndarray:
    """Series of the sum over words of E_gst(t, Gamma^I u)^{1/2}: each
    word's natural energy plus its running ghost integral (trapezoid rule)."""
    words = all_words(cap)
    m = _MASS[which]
    depth = 3 if max(w.time_budget() for w in words) >= 2 else 2
    acc = np.zeros(len(words))
    prev = None
    out = np.empty(len(traj.times))
    for k in range(len(traj.times)):
        jet = traj.jet(k, which, depth=depth)
        integ = np.empty(len(words))
        vals = np.empty(len(words))
        for i, w in enumerate(words):
            wjet = apply_letters(w.letters, jet, depth=2)
            integ[i] = _ghost_integrand(wjet, m, delta)
            dens = np.sum(wjet.ut**2, axis=0) + _grad_sq(wjet.d) \
                + float(m) ** 2 * np.sum(wjet.u**2, axis=0)
            vals[i] = float(np.sum(dens) * traj.grid.cell_area)
        if prev is not None:
            acc += 0.5 * (prev + integ) * (traj.times[k] - traj.times[k - 1])
        prev = integ
        out[k] = np.sum(np.sqrt(np.maximum(vals + acc, 0.0)))
    return out


# name: the field whose uniform ghost energy the term is
_XNORM_TABLE = {"wave_energy_uniform": "n"}

XNORM_TERMS = tuple(_XNORM_TABLE)


def xnorm_terms(traj, specs: list[WeightSpec]) -> "DiagnosticsReport":
    """Evaluate the requested solution-space norm terms along a trajectory."""
    series = {}
    for spec in specs:
        if spec.name not in XNORM_TERMS:
            raise ValueError(f"unknown X-norm term {spec.name!r}")
        series[spec.name] = _ghost(traj, _XNORM_TABLE[spec.name],
                                   spec.gamma_cap, spec.delta)
    return DiagnosticsReport(times=np.asarray(traj.times, dtype=float),
                             series=series)


def xnorm_distance(a, b, delta: float = 0.1, gamma_cap: int = 1,
                   include_spacetime: bool = False) -> float:
    """Truncated discrete X-seminorm distance between two trajectories.

    sup over t of sum_{|I| <= cap} of <t>^{-delta} ( E_1(Gamma^I dE)^{1/2}
    + ||Gamma^I dn|| + ||(<t+r>/<t-r>) Gamma^I dE|| ), where d* are the
    snapshot differences.  With include_spacetime the running integral term
    of the full norm is added (kept optional; see module notes).
    """
    if len(a.times) != len(b.times) or not np.allclose(a.times, b.times):
        raise ValueError("trajectories cover different time grids")
    words = all_words(gamma_cap)
    best = 0.0
    st_acc = np.zeros(len(words))
    st_prev = None
    for k in range(len(a.times)):
        t = a.times[k]
        total, st_integ = _xnorm_snapshot(a, b, k, words, delta,
                                          include_spacetime)
        if include_spacetime:
            if st_prev is not None:
                st_acc += 0.5 * (st_prev + st_integ) * (t - a.times[k - 1])
            st_prev = st_integ
            total += jbracket(t) ** (-0.5 * delta) \
                * float(np.sqrt(np.sum(st_acc)))
        best = max(best, total)
    return best


def _xnorm_snapshot(a, b, k: int, words, delta: float,
                    include_spacetime: bool):
    """Snapshot k's sum over words of the distance terms, and the integrands
    of the spacetime term.  The difference jets, with the derivatives they
    keep, are freed when this returns, before the next snapshot's jets are
    built."""
    g = a.grid
    R = g.R
    t = a.times[k]
    tb = jbracket(t)
    jet_E = _diff_jet(a, b, k, "E")
    jet_n = _diff_jet(a, b, k, "n", depth=1)
    cone_w = (jbracket(t + R) / jbracket(t - R)) ** 2
    total = 0.0
    st_integ = np.empty(len(words))
    for i, w in enumerate(words):
        vE = apply_letters(w.letters, jet_E, depth=2)
        dens = np.sum(vE.ut**2, axis=0) + _grad_sq(vE.d) \
            + np.sum(vE.u**2, axis=0)
        e1 = float(np.sum(dens) * g.cell_area)
        vn = apply_gamma(w, jet_n)
        l2n = float(np.sqrt(np.sum(vn.values**2) * g.cell_area))
        cone = float(np.sqrt(np.sum(cone_w * np.sum(vE.u**2, axis=0))
                             * g.cell_area))
        total += tb ** (-delta) * (math.sqrt(max(e1, 0.0)) + l2n + cone)
        if include_spacetime:
            stw = (tb ** (-0.5 * delta)
                   * jbracket(t - R) ** (-0.5 - 0.5 * delta)) ** 2
            st_integ[i] = float(np.sum(stw * np.sum(vE.u**2, axis=0))
                                * g.cell_area)
    return total, st_integ


def _diff_jet(a, b, k: int, which: str, depth: int = 2) -> JetField:
    ja = a.jet(k, which, depth=depth)
    jb_ = b.jet(k, which, depth=depth)
    utt = None if depth < 2 else ja.utt - jb_.utt
    return JetField(a.grid, ja.t, ja.u - jb_.u, ja.ut - jb_.ut, utt)


# ---------------------------------------------------------------------------
# inequality-ratio diagnostics
# ---------------------------------------------------------------------------

def ks_ratio(traj, which: str = "n", gamma_cap: int = 2):
    """Klainerman-Sobolev ratio series (no scaling field, order capped at 2).

    ratio(t) = sup_x <t+|x|>^{1/2} |u(t,x)|
               / sup_{s <= 2t, |I| <= 2} ||Gamma^I u(s)||

    The trajectory must reach 2t for every reported t, so the series covers
    snapshot times up to half the horizon.  0/0 is reported as 0.
    """
    g = traj.grid
    words = all_words(gamma_cap)
    times = np.asarray(traj.times, dtype=float)
    t_end = times[-1]
    valid = [k for k in range(len(times)) if 2.0 * times[k] <= t_end + 1e-9]
    if not valid:
        raise ValueError("trajectory horizon too short for any K-S query")
    w_snap = np.empty(len(times))
    for k in range(len(times)):
        jet = traj.jet(k, which)
        w_snap[k] = max(
            float(np.sqrt(np.sum(apply_gamma(w, jet).values ** 2) * g.cell_area))
            for w in words)
    out_t = np.empty(len(valid))
    out_v = np.empty(len(valid))
    for i, k in enumerate(valid):
        t = times[k]
        pair = _pair_of(traj.states[k], which)
        num = float(np.max(jbracket(t + g.R) ** 0.5 * pair.u.magnitude()))
        den = float(np.max(w_snap[times <= 2.0 * t + 1e-9]))
        out_t[i] = t
        out_v[i] = num / den if den > 0 else 0.0
    return out_t, out_v


def _second_derivatives(jet: JetField) -> np.ndarray:
    """Pointwise Frobenius norm of the spacetime Hessian, over components."""
    g = jet.grid
    d1u = Derivatives(g, jet.d(1))
    parts = [jet.utt, jet.d(1, 1), jet.d(2, 1),
             d1u(1), d1u(2), Derivatives(g, jet.d(2))(2)]
    weights = [1.0, 2.0, 2.0, 1.0, 2.0, 1.0]  # off-diagonal pairs twice
    return np.sqrt(sum(w * np.sum(p**2, axis=0) for w, p in zip(weights, parts)))


def _first_derivatives(jet: JetField) -> np.ndarray:
    total = np.sum(jet.ut**2, axis=0) \
        + np.sum(jet.d(1) ** 2, axis=0) \
        + np.sum(jet.d(2) ** 2, axis=0)
    return np.sqrt(total)


def _gamma_first_derivatives(jet: JetField) -> np.ndarray:
    """sqrt(sum over Gamma, alpha of |d_alpha Gamma u|^2) pointwise."""
    total = 0.0
    for letter in LETTERS:
        wjet = apply_letters((letter,), jet, depth=2)
        for val in (wjet.ut, wjet.d(1), wjet.d(2)):
            total = total + np.sum(val**2, axis=0)
    return np.sqrt(total)


def _masked_max_ratio(lhs: np.ndarray, rhs: np.ndarray, mask: np.ndarray) -> float:
    """Max of lhs/rhs over mask, ignoring points where rhs is noise-level."""
    floor = 1e-8 * float(np.max(rhs[mask])) if np.any(mask) else 0.0
    good = mask & (rhs > floor)
    if not np.any(good):
        return 0.0
    return float(np.max(lhs[good] / rhs[good]))


def hessian_pointwise(jet: JetField, gamma_first: np.ndarray,
                      source_mag: np.ndarray):
    """Pointwise (lhs, rhs) of the wave-Hessian extra-decay inequality."""
    g = jet.grid
    tr_b = jbracket(jet.t - g.R)
    lhs = _second_derivatives(jet)
    rhs = (gamma_first + _first_derivatives(jet)) / tr_b \
        + jet.t * source_mag / tr_b
    return lhs, rhs


def _extra_decay_series(traj, which: str, pointwise):
    """Series of max over |x| <= 3t of lhs/rhs from pointwise(jet, |d Gamma
    u|, |F|), at the snapshots with t >= 1."""
    g = traj.grid
    out_t, out_v = [], []
    for k in range(len(traj.times)):
        t = traj.times[k]
        if t < 1.0:
            continue
        jet = traj.jet(k, which)
        F = traj.snapshot_source(k, which)
        lhs, rhs = pointwise(
            jet, _gamma_first_derivatives(jet),
            np.sqrt(np.sum(F.values**2, axis=0)))
        out_t.append(t)
        out_v.append(_masked_max_ratio(lhs, rhs, g.R <= 3.0 * t))
    return np.asarray(out_t), np.asarray(out_v)


def hessian_decay_ratio(traj, which: str = "n_delta"):
    """Wave-Hessian extra-decay ratio series, masked to |x| <= 3t, t >= 1.

    ratio(t) = max over the mask of
        |dd w| / ( <t-r>^{-1} (|d Gamma w| + |d w|) + t <t-r>^{-1} |F_w| ).
    """
    return _extra_decay_series(traj, which, hessian_pointwise)


def kg_pointwise(jet: JetField, gamma_first: np.ndarray,
                 source_mag: np.ndarray):
    """Pointwise (lhs, rhs) of the Klein-Gordon extra-decay inequality."""
    g = jet.grid
    tb = jbracket(jet.t)
    lhs = np.sqrt(np.sum(jet.u**2, axis=0))
    rhs = (np.abs(jet.t - g.R) / tb) * _second_derivatives(jet) \
        + gamma_first / tb + _first_derivatives(jet) / tb + source_mag
    return lhs, rhs


def kg_extra_decay_ratio(traj, which: str = "E"):
    """Klein-Gordon extra-decay ratio series, masked to |x| <= 3t, t >= 1.

    ratio(t) = max over the mask of
        |v| / ( (|t-r|/<t>) |dd v| + <t>^{-1} |d Gamma v|
                + <t>^{-1} |d v| + |F_v| ).
    """
    return _extra_decay_series(traj, which, kg_pointwise)


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class DiagnosticsReport:
    """Named scalar time series; serialises to CSV."""

    times: np.ndarray
    series: dict

    def __post_init__(self):
        for name, vals in self.series.items():
            vals = np.asarray(vals, dtype=float)
            if vals.shape != self.times.shape:
                raise ValueError(f"series {name!r} length mismatch")
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"series {name!r} contains non-finite values")
            self.series[name] = vals

    def write_csv(self, path) -> None:
        lines = [",".join(["t"] + list(self.series))]
        for i in range(len(self.times)):
            row = [f"{self.times[i]:.17g}"]
            row += [f"{self.series[name][i]:.17g}" for name in self.series]
            lines.append(",".join(row))
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def read_csv(cls, path) -> "DiagnosticsReport":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = [list(map(float, line.split(","))) for line in fh if line.strip()]
        data = np.asarray(rows)
        times = data[:, 0]
        series = {name: data[:, j + 1] for j, name in enumerate(header[1:])}
        return cls(times=times, series=series)
