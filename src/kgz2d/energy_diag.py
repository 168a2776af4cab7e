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

Every per-snapshot diagnostic is a reducer fed add(t, levels[, source]) in
time order: a snapshot's packed jet levels (u, u_t[, u_tt]) of its field
.which to its .depth and, if .sourced, the packed source of the field's
equation they are built on.  It evaluates its words and derivatives from
the word terms of vector_fields on the levels' WordPlanes.  One function,
system.feed, feeds one a state: a march's on_snapshot calls it, and so does
a stored trajectory's .feed per snapshot.  xnorm_terms calls .feed
(duck-typed), so this module imports nothing of system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, FieldPair, Grid
from .vector_fields import (LETTERS, WORD_WEIGHTS, WordPlanes, all_words,
                            word_terms)

__all__ = [
    "jbracket",
    "ghost_weight_q",
    "spectral_energy",
    "energy",
    "GhostEnergies",
    "MultiplierResiduals",
    "xnorm_terms",
    "xnorm_distance",
    "KSRatios",
    "ExtraDecayRatios",
    "DiagnosticsReport",
]


# ---------------------------------------------------------------------------
# brackets, ghost weight
# ---------------------------------------------------------------------------

def jbracket(x):
    """<x> = sqrt(1 + x^2)."""
    return np.sqrt(1.0 + np.asarray(x, dtype=np.float64) ** 2)


_Q_TABLE: dict[float, tuple[np.ndarray, float]] = {}
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
        table = (odd, half)
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
    odd, half = _q_table(delta)
    za = np.asarray(z, dtype=np.float64)
    # linear interpolation on the uniform table, read by index; constant
    # beyond its end
    pos = np.minimum(np.abs(za), _Q_ZMAX) / _Q_STEP
    i = np.minimum(pos.astype(np.intp), len(odd) - 2)
    g = odd[i] + (pos - i) * (odd[i + 1] - odd[i])
    return delta * (half + np.sign(za) * g)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def spectral_energy(grid: Grid, u_hat: np.ndarray, ut_hat: np.ndarray,
                    m: int) -> float:
    """Natural energy int |u_t|^2 + |grad u|^2 + m^2 |u|^2 dx of the half
    spectra of (u, u_t), as one Parseval sum each.  The gradient weight is
    that of the spectral derivatives, |d1|^2 + |d2|^2, whose Nyquist modes
    are zero."""
    return grid.parseval(ut_hat) \
        + grid.parseval(u_hat, grid.spectral["grad_sq"] + float(m) ** 2)


def energy(p: FieldPair, m: int) -> float:
    """Natural energy: int |u_t|^2 + |grad u|^2 + m^2 |u|^2 dx."""
    g = p.grid
    return spectral_energy(g, g.rfft(p.u.values), g.rfft(p.ut.values), m)


_MASS = {"E": 1, "n": 0, "n_delta": 0}


class GhostEnergies:
    """E_gst(t, Gamma^I u) of one field, fed add(t, levels) with the packed
    level spectra (u, u_t, u_tt) of each snapshot's jet in time order: rows
    gets a row per snapshot, a column per word |I| <= 1 (the identity's
    first: u's own), each word's natural energy plus the running trapezoid
    integral of delta (|G_a Gamma^I u|^2 + m^2 |Gamma^I u|^2)
    / <tau - r>^{1+delta}, as physical sums."""

    depth, sourced = 2, False  # dt and the boosts read u_tt

    def __init__(self, grid: Grid, delta: float = 0.1, which: str = "n"):
        if not delta > 0:
            raise ValueError("delta must be positive")
        self.grid, self.delta, self.which = grid, delta, which
        self.words = all_words(1)
        self.rows: list[np.ndarray] = []
        self._acc, self._prev = np.zeros(len(self.words)), None

    def add(self, t: float, levels) -> None:
        g, m, delta = self.grid, _MASS[self.which], self.delta
        weight = jbracket(t - g.R) ** (-(1.0 + delta))
        planes = WordPlanes(g, t, levels)
        integ, row = np.empty((2, len(self.words)))
        for i, w in enumerate(self.words):
            value, *grad = WORD_WEIGHTS[w.letters]
            wt, w1, w2 = (planes.combine(terms) for terms in grad)
            gx, gy = (r * wt + wa for r, wa in zip(g.radial_unit, (w1, w2)))
            good = np.vdot(weight * gx, gx) + np.vdot(weight * gy, gy)
            dens = np.vdot(wt, wt) + np.vdot(w1, w1) + np.vdot(w2, w2)
            if m:
                u = planes.combine(value)
                good += m**2 * np.vdot(weight * u, u)
                dens += m**2 * np.vdot(u, u)
            integ[i], row[i] = delta * good * g.cell_area, dens * g.cell_area
            del wt, w1, w2, gx, gy  # only the planes outlive a word
        if self._prev is not None:
            self._acc += 0.5 * (self._prev[1] + integ) * (t - self._prev[0])
        self._prev = (t, integ)
        self.rows.append(row + self._acc)

    def uniform_term(self) -> np.ndarray:
        """Per snapshot, the sum over words of E_gst^{1/2}; of n it is
        xnorm_terms."""
        return np.sum(np.sqrt(np.maximum(np.array(self.rows), 0.0)), axis=1)


class MultiplierResiduals:
    """Imbalance of the ghost-weight multiplier identity per snapshot, from
    levels (u, u_t) and the source F.

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
    imbalance series() returns is pure time-quadrature error, O(dt^2).
    """

    depth, sourced = 1, True  # the identity reads no u_tt

    def __init__(self, grid: Grid, which: str = "E", delta: float = 0.1,
                 kappa: float = 0.05):
        self.grid, self.which, self.delta, self.kappa = grid, which, delta, kappa
        self.rows = []  # per snapshot: t, source, boundary, ghost, kappa

    def add(self, t: float, levels, source) -> None:
        g, mass, delta, kappa = self.grid, _MASS[self.which], self.delta, self.kappa
        rho = np.sqrt(g.R**2 + g.h**2)
        grad_rho_defect = g.h**2 / (g.R**2 + g.h**2)  # 1 - |grad rho|^2
        planes = WordPlanes(g, t, levels)
        u, ut, u1, u2 = (planes[name] for name in ("u", "ut", "u1", "u2"))
        eq = np.exp(ghost_weight_q(rho - t, delta))
        tw = jbracket(t) ** (-kappa)
        ut_sq = np.sum(ut**2, axis=0)
        # weighted below, so the energy density stays in physical space
        e_dens = ut_sq + np.sum(u1**2 + u2**2, axis=0) \
            + mass**2 * np.sum(u**2, axis=0)
        b_term = 0.5 * float(np.sum(tw * eq * e_dens) * g.cell_area)
        ghost_dens = 0.5 * delta * jbracket(rho - t) ** (-(1.0 + delta)) \
            * (sum(np.sum((r * ut + ua) ** 2, axis=0)
                   for r, ua in zip(g.radial_unit, (u1, u2)))
               + grad_rho_defect * ut_sq + mass**2 * np.sum(u**2, axis=0))
        ghost_term = float(np.sum(tw * eq * ghost_dens) * g.cell_area)
        kap_term = 0.5 * kappa * t * jbracket(t) ** (-kappa - 2.0)
        kap_int = float(np.sum(kap_term * eq * e_dens) * g.cell_area)
        F = g.box_irfft(source)
        src = float(np.sum(tw * eq * np.sum(ut * F, axis=0)) * g.cell_area)
        self.rows.append((t, src, b_term, ghost_term, kap_int))

    def series(self) -> np.ndarray:
        rows = np.array(self.rows)
        times, terms = rows[:, 0], rows[:, 1:]
        # the running trapezoid integrals; the boundary column goes unused
        acc = np.cumsum(0.5 * (terms[1:] + terms[:-1])
                        * np.diff(times)[:, None], axis=0)
        src_acc, _, ghost_acc, kap_acc = np.vstack([np.zeros(4), acc]).T
        return np.abs(src_acc - (terms[:, 1] - terms[0, 1] + ghost_acc + kap_acc))


# ---------------------------------------------------------------------------
# solution-space (X-norm) terms
# ---------------------------------------------------------------------------

# delta of the X-distance's time weight <t>^{-delta}
XNORM_DELTA = 0.1


def xnorm_terms(traj) -> np.ndarray:
    """The uniform low-order wave-energy term of the X-norm, per snapshot:
    the sum over words |I| <= 1 of E_gst(t, Gamma^I n)^{1/2}, default delta."""
    return traj.feed(GhostEnergies(traj.grid)).uniform_term()


def xnorm_distance(a, b) -> float:
    """Truncated discrete X-seminorm distance between two trajectories.

    sup over t of sum_{|I| <= 1} of <t>^{-delta} ( E_1(Gamma^I dE)^{1/2}
    + ||Gamma^I dn|| + ||(<t+r>/<t-r>) Gamma^I dE|| ), where d* are the
    snapshot differences and delta is XNORM_DELTA.  The full norm's
    spacetime integral term is left out (README, Numerical notes).
    """
    if len(a.times) != len(b.times) or not np.allclose(a.times, b.times):
        raise ValueError("trajectories cover different time grids")
    return max((_xnorm_snapshot(a.grid, t, *(
        {"E": x.jet_levels(k, "E", 2), "n": x.jet_levels(k, "n", 1)}
        for x in (a, b))) for k, t in enumerate(a.times)), default=0.0)


def _xnorm_snapshot(g, t: float, a: dict, b: dict) -> float:
    """One snapshot's sum over words of the distance terms, from the two
    sides' packed jet levels a[which], b[which] at t ("E" to depth 2, "n"
    to depth 1).  A jet is linear, so each field's word planes are made
    once, on the levels' difference, and freed when this returns.

    v = Gamma dE and d_t v are the words' first two WORD_WEIGHTS rows.  In
    E_1(v) = int |d_t v|^2 + |grad v|^2 + |v|^2 only the gradient term
    needs a spectrum; by discrete Parseval, exact for any grid function,
    the other two are grid sums.  A value row that is one unsigned plane
    reads its packed spectrum from the jet (WordPlanes.packed), whose
    weight box_k_sq is grad_sq on the box, so only rot, L1 and L2 take a
    whole-plane rfft."""
    if a["E"][0].shape != b["E"][0].shape:
        raise ValueError("the two sides hold different E components")
    R = g.R
    weight = jbracket(t) ** (-XNORM_DELTA)
    dE, dn = ([la - lb for la, lb in zip(a[which], b[which])]
              for which in ("E", "n"))
    planes_E, planes_n = WordPlanes(g, t, dE), WordPlanes(g, t, dn)
    cone_w = (jbracket(t + R) / jbracket(t - R)) ** 2
    total = 0.0
    for rows in WORD_WEIGHTS.values():
        vE = planes_E.combine(rows[0])
        # d_t v enters through its grid sum alone, so its plane goes at once
        vt_sum = np.sum(planes_E.combine(rows[1]) ** 2)
        vE_sq = np.sum(vE**2, axis=0)
        if len(rows[0]) == 1 and rows[0][0].isalnum():
            grad = g.parseval(planes_E.packed(rows[0][0]),
                              g.spectral["box_k_sq"])
        else:
            grad = g.parseval(g.rfft(vE), g.spectral["grad_sq"])
        e1 = grad + float(vt_sum + np.sum(vE_sq)) * g.cell_area
        vn = planes_n.combine(rows[0])
        l2n = float(np.sqrt(np.sum(vn**2) * g.cell_area))
        cone = float(np.sqrt(np.sum(cone_w * vE_sq) * g.cell_area))
        total += weight * (math.sqrt(max(e1, 0.0)) + l2n + cone)
    return total


# ---------------------------------------------------------------------------
# inequality-ratio diagnostics
# ---------------------------------------------------------------------------

class KSRatios:
    """Klainerman-Sobolev ratio series (no scaling field, order capped at 2)
    from levels (u, u_t, u_tt):

    ratio(t) = sup_x <t+|x|>^{1/2} |u(t,x)|
               / sup_{s <= 2t, |I| <= 2} ||Gamma^I u(s)||

    series() covers the times up to half the last, as s <= 2t needs.  0/0
    is reported as 0."""

    depth, sourced = 2, False

    def __init__(self, grid: Grid, which: str = "n"):
        self.grid, self.which = grid, which
        self.words = [word_terms(w.letters) for w in all_words(2)]
        self.rows = []  # per snapshot: t, the largest word norm, numerator

    def add(self, t: float, levels) -> None:
        g, planes = self.grid, WordPlanes(self.grid, t, levels)
        self.rows.append((t, max(float(np.sqrt(np.sum(planes.combine(terms)
                                                      ** 2) * g.cell_area))
                                 for terms in self.words),
                          np.max(jbracket(t + g.R) ** 0.5
                                 * Field(g, planes["u"]).magnitude())))

    def series(self):
        times, w_snap, num = np.array(self.rows).reshape(-1, 3).T
        valid = 2.0 * times <= times[-1:] + 1e-9
        if not np.any(valid):
            raise ValueError("horizon too short for any K-S query")
        den = np.array([np.max(w_snap[times <= 2.0 * t + 1e-9])
                        for t in times[valid]])
        return times[valid], np.divide(num[valid], den,
                                       out=np.zeros(len(den)), where=den > 0)


# |dd u|^2 and |d u|^2 as weighted sums of squared planes, the Hessian's
# mixed pairs counted twice
HESSIAN = {"utt": 1, "ut1": 2, "ut2": 2, "u11": 1, "u12": 2, "u22": 1}
GRADIENT = {"ut": 1, "u1": 1, "u2": 1}


def _norm(planes: WordPlanes, weights: dict) -> np.ndarray:
    return np.sqrt(sum(w * np.sum(planes[name] ** 2, axis=0)
                       for name, w in weights.items()))


def _masked_max_ratio(lhs: np.ndarray, rhs: np.ndarray, mask: np.ndarray) -> float:
    """Max of lhs/rhs over mask, ignoring points where rhs is noise-level."""
    floor = 1e-8 * float(np.max(rhs[mask])) if np.any(mask) else 0.0
    good = mask & (rhs > floor)
    if not np.any(good):
        return 0.0
    return float(np.max(lhs[good] / rhs[good]))


def hessian_pointwise(planes: WordPlanes, gamma_first: np.ndarray,
                      source_mag: np.ndarray):
    """Pointwise (lhs, rhs) of the wave-Hessian extra-decay inequality,
    |dd w| <~ <t-r>^{-1} (|d Gamma w| + |d w|) + t <t-r>^{-1} |F_w|."""
    t = planes.t
    tr_b = jbracket(t - planes.grid.R)
    rhs = (gamma_first + _norm(planes, GRADIENT)) / tr_b + t * source_mag / tr_b
    return _norm(planes, HESSIAN), rhs


def kg_pointwise(planes: WordPlanes, gamma_first: np.ndarray,
                 source_mag: np.ndarray):
    """Pointwise (lhs, rhs) of the Klein-Gordon extra-decay inequality,
    |v| <~ (|t-r|/<t>) |dd v| + <t>^{-1} (|d Gamma v| + |d v|) + |F_v|."""
    t = planes.t
    tb = jbracket(t)
    lhs = np.sqrt(np.sum(planes["u"] ** 2, axis=0))
    rhs = (np.abs(t - planes.grid.R) / tb) * _norm(planes, HESSIAN) \
        + gamma_first / tb + _norm(planes, GRADIENT) / tb + source_mag
    return lhs, rhs


class ExtraDecayRatios:
    """Extra-decay ratio series from levels (u, u_t, u_tt) and the source F,
    at t >= 1: the max over |x| <= 3t of lhs/rhs from pointwise(planes,
    |d Gamma u|, |F|), hessian_pointwise or kg_pointwise.  |d Gamma u| sums
    the d_t, d_1 and d_2 rows of the single-letter words."""

    depth, sourced = 2, True

    def __init__(self, grid: Grid, which: str, pointwise):
        self.grid, self.which, self.pointwise = grid, which, pointwise
        self.times, self.values = [], []

    def add(self, t: float, levels, source) -> None:
        if t < 1.0:
            return
        g, planes = self.grid, WordPlanes(self.grid, t, levels)
        gamma_first = np.sqrt(sum(
            np.sum(planes.combine(terms) ** 2, axis=0)
            for letter in LETTERS for terms in WORD_WEIGHTS[(letter,)][1:]))
        F = g.box_irfft(source)
        lhs, rhs = self.pointwise(planes, gamma_first,
                                  np.sqrt(np.sum(F**2, axis=0)))
        self.times.append(t)
        self.values.append(_masked_max_ratio(lhs, rhs, g.R <= 3.0 * t))

    def series(self):
        return np.asarray(self.times), np.asarray(self.values)


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
        """Read what write_csv wrote; raises ValueError on anything else."""
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = [list(map(float, line.split(","))) for line in fh if line.strip()]
        data = np.asarray(rows)
        if data.ndim != 2 or data.shape[1] != len(header):
            raise ValueError(f"{len(rows)} rows that do not match the "
                             f"{len(header)} header columns")
        times = data[:, 0]
        series = {name: data[:, j + 1] for j, name in enumerate(header[1:])}
        return cls(times=times, series=series)
