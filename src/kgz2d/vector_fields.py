"""
Discrete Klainerman vector-field calculus on snapshot jets.

A jet holds a field together with enough time derivatives (u_t, and u_tt
supplied by the field's equation) to evaluate any word of length <= 2 over
the alphabet

    dt, d1, d2        translations
    rot               rotation  x1 d2 - x2 d1
    L1, L2            Lorentz boosts  x_a dt + t d_a

at a single time.  Spatial derivatives are spectral; time derivatives come
from the jet, never from differencing across snapshots.  The scaling field
t dt + r dr is deliberately absent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grid import Derivatives, Field, Grid

__all__ = [
    "LETTERS",
    "WORD_WEIGHTS",
    "GammaWord",
    "WordPlanes",
    "JetField",
    "all_words",
    "apply_gamma",
    "apply_letters",
    "good_derivative",
    "check_commutators",
    "CommutatorReport",
]

LETTERS = ("dt", "d1", "d2", "rot", "L1", "L2")
TIME_LETTERS = ("dt", "L1", "L2")
MAX_ORDER = 2


@dataclass(frozen=True)
class GammaWord:
    """An ordered product of vector fields; letters[0] acts last (outermost)."""

    letters: tuple[str, ...]

    def __post_init__(self):
        for ell in self.letters:
            if ell not in LETTERS:
                raise ValueError(f"unknown vector field {ell!r}")
        if len(self.letters) > MAX_ORDER:
            raise ValueError(
                f"word order {len(self.letters)} exceeds the cap {MAX_ORDER}")


def all_words(max_order: int, letters: tuple[str, ...] = LETTERS) -> list[GammaWord]:
    """Every word with order <= max_order, identity first."""
    words = [GammaWord(())]
    for m in range(1, max_order + 1):
        words.extend(GammaWord(w) for w in itertools.product(letters, repeat=m))
    return words


@dataclass(frozen=True, eq=False)
class JetField:
    """Snapshot values u plus u_t and, as far as given, the equation-supplied
    u_tt and a third time derivative u_ttt.

    The levels present bound the words a jet can evaluate: each dt or boost
    letter reads one level more.  The third derivative extends the budget
    for diagnostics that time-differentiate an order-2 word (e.g. energies
    of Gamma^I u).  Every level keeps its spatial derivatives once taken
    (`d`), so all words evaluated on one jet share one forward transform
    per level, and keeps that level's half spectrum (`hat`).
    """

    grid: Grid
    t: float
    u: np.ndarray
    ut: np.ndarray
    utt: np.ndarray | None = None
    uttt: np.ndarray | None = None

    def __post_init__(self):
        if self.utt is None and self.uttt is not None:
            raise ValueError("a jet with u_ttt needs u_tt")
        for name in ("u", "ut", "utt", "uttt"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=np.float64)
            if arr.ndim == 2:
                arr = arr[None]
            if arr.shape != ((arr.shape[0],) + (self.grid.n, self.grid.n)):
                raise ValueError(f"bad jet array shape {arr.shape}")
            object.__setattr__(self, name, arr)
        if len({lv.shape for lv in self.levels()}) != 1:
            raise ValueError("jet levels must share one shape")
        object.__setattr__(self, "_stack", tuple(
            Derivatives(self.grid, lv) for lv in self.levels()))

    @property
    def components(self) -> int:
        return self.u.shape[0]

    def levels(self) -> list[np.ndarray]:
        return [lv for lv in (self.u, self.ut, self.utt, self.uttt)
                if lv is not None]

    def d(self, axis: int, level: int = 0) -> np.ndarray:
        """d_axis of time level `level`, computed once per jet."""
        return self._stack[level](axis)

    def hat(self, level: int = 0) -> np.ndarray:
        """Half spectrum of time level `level`, computed once per jet."""
        return self._stack[level].hat


# Each word |I| <= 1 and its d_t, d_1 and d_2 by the product rule, as sums of
# "coefficient*plane" terms: a coefficient is +-1 (its sign alone), x_a or t,
# and a plane is u with a "t" per time derivative, then its spatial axes.
WORD_WEIGHTS = {
    (): (("u",), ("ut",), ("u1",), ("u2",)),
    ("dt",): (("ut",), ("utt",), ("ut1",), ("ut2",)),
    ("d1",): (("u1",), ("ut1",), ("u11",), ("u12",)),
    ("d2",): (("u2",), ("ut2",), ("u12",), ("u22",)),
    ("rot",): (("x1*u2", "-x2*u1"), ("x1*ut2", "-x2*ut1"),
               ("u2", "x1*u12", "-x2*u11"), ("x1*u22", "-u1", "-x2*u12")),
    ("L1",): (("x1*ut", "t*u1"), ("x1*utt", "u1", "t*ut1"),
              ("ut", "x1*ut1", "t*u11"), ("x1*ut2", "t*u12")),
    ("L2",): (("x2*ut", "t*u2"), ("x2*utt", "u2", "t*ut2"),
              ("x2*ut1", "t*u12"), ("ut", "x2*ut2", "t*u22")),
}


class WordPlanes(dict):
    """The planes of WORD_WEIGHTS at time t of packed jet levels (u, u_t[,
    u_tt]), each one pruned inverse transform, made on first use and kept."""

    def __init__(self, grid: Grid, t: float, levels):
        self.grid, self.t, self.levels = grid, t, levels

    def __missing__(self, name: str) -> np.ndarray:
        g = self.grid
        rows, cols = g.spectral["box"]
        hat = self.levels[name.count("t")]
        for axis in name.lstrip("ut"):
            hat = g.spectral["d" + axis][rows, :cols] * hat
        self[name] = out = g.box_irfft(hat)
        return out

    def combine(self, terms) -> np.ndarray:
        """The physical sum of the terms of one row of WORD_WEIGHTS."""
        factor = {"t": self.t, "x1": self.grid.X1, "x2": self.grid.X2}
        total = None
        for term in terms:
            coef, _, name = term.lstrip("-").rpartition("*")
            value = factor[coef] * self[name] if coef else self[name]
            value = -value if term[0] == "-" else value
            total = value if total is None else total + value
        return total


def _jet_of(grid: Grid, t: float, stack: list[Derivatives]) -> JetField:
    """A jet on the given levels that keeps their spatial derivatives."""
    jet = JetField(grid, t, *(lv.values for lv in stack))
    object.__setattr__(jet, "_stack", tuple(stack))
    return jet


def _spectral_jet(grid: Grid, t: float, hats: list[np.ndarray]) -> JetField:
    """The jet whose levels have the given half spectra; each level keeps
    its spectrum, so its derivatives and Parseval sums need no transform."""
    return _jet_of(grid, t, [Derivatives(grid, grid.irfft(h), hat=h)
                             for h in hats])


def _apply_letter(grid: Grid, t: float, levels: list[Derivatives],
                  letter: str, count: int) -> list[Derivatives]:
    """Push one vector field through a jet level stack.

    Returns the first `count` levels of (letter applied to the base field),
    level j being its j-th time derivative.  The spatial letters read
    `count` input levels; dt and the boosts read one more.
    """
    if letter == "dt":
        return levels[1:count + 1]
    if letter in ("d1", "d2"):
        axis = 1 if letter == "d1" else 2
        return [Derivatives(grid, lv(axis)) for lv in levels[:count]]
    if letter == "rot":
        x1, x2 = grid.X1, grid.X2
        return [Derivatives(grid, x1 * lv(2) - x2 * lv(1))
                for lv in levels[:count]]
    axis = 1 if letter == "L1" else 2
    xa = grid.X1 if axis == 1 else grid.X2
    out = []
    for j in range(count):
        val = xa * levels[j + 1].values + t * levels[j](axis)
        if j >= 1:
            val = val + j * levels[j - 1](axis)
        out.append(Derivatives(grid, val))
    return out


def apply_letters(letters: tuple[str, ...], jet: JetField,
                  t: float | None = None,
                  depth: int = 1) -> Field | JetField:
    """Apply a raw letter sequence to a jet, right to left (no order cap).

    depth=1 returns Gamma u as a Field.  depth=k > 1 returns, from the same
    pass, the word's own jet (Gamma u, d_t Gamma u, ...) with k levels; its
    values equal those of the words dt^j Gamma bit for bit.  Only the levels
    the result reads are evaluated: working from the outermost letter
    inward, each stage asks the one inside it for as many levels as it
    needs itself, one more for dt and the boosts.

    Raises when the sequence consumes more time derivatives than the jet
    provides.
    """
    for ell in letters:
        if ell not in LETTERS:
            raise ValueError(f"unknown vector field {ell!r}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    counts = []
    need = depth
    for letter in letters:
        counts.append(need)
        need += 1 if letter in TIME_LETTERS else 0
    if need > len(jet._stack):
        raise ValueError(f"letters {letters} exceed the jet's derivative budget")
    tv = jet.t if t is None else t
    levels = list(jet._stack[:need])
    for letter, count in zip(reversed(letters), reversed(counts)):
        levels = _apply_letter(jet.grid, tv, levels, letter, count)
    if depth == 1:
        return Field(jet.grid, levels[0].values)
    if not all(np.all(np.isfinite(lv.values)) for lv in levels):
        raise ValueError("field contains non-finite values")
    return _jet_of(jet.grid, tv, levels)


def apply_gamma(word: GammaWord, jet: JetField, t: float | None = None) -> Field:
    """Evaluate a Gamma word on a jet; letters apply right to left."""
    return apply_letters(word.letters, jet, t)


def good_derivative(a: int, jet: JetField) -> Field:
    """G_a u = (x_a / r) u_t + d_a u, with r regularised to sqrt(r^2 + h^2).

    The regularisation perturbs only the cells next to the origin, where the
    exact prefactor x_a/r is direction-ambiguous.
    """
    g = jet.grid
    if a not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {a}")
    return Field(g, g.radial_unit[a - 1] * jet.ut + jet.d(a))


@dataclass(frozen=True)
class CommutatorReport:
    """Max-norm commutator residuals, normalised by the jet's field scale."""

    residuals: dict
    scale: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def max_relative(self) -> float:
        return self.max_residual / self.scale if self.scale > 0 else 0.0


def check_commutators(jet: JetField) -> CommutatorReport:
    """Residuals of the first-order commutator identities.

    Checks [dt, L_b] = d_b, [d_a, L_b] = delta_ab dt, [dt, rot] = 0,
    [d1, rot] = d2 and [d2, rot] = -d1, each evaluated as
    |Gamma_1 Gamma_2 u - Gamma_2 Gamma_1 u - expected| in max norm.
    Fields should be effectively supported inside the box (box emulation of
    the plane), otherwise boundary jumps of x_a * u pollute the spectra.
    """
    def word(*letters):
        return apply_gamma(GammaWord(letters), jet).values

    def comm(a: str, b: str) -> np.ndarray:
        return word(a, b) - word(b, a)

    residuals = {}
    for b, db in (("L1", "d1"), ("L2", "d2")):
        residuals[f"[dt,{b}]-{db}"] = float(
            np.max(np.abs(comm("dt", b) - word(db))))
    for a, da in (("L1", "d1"), ("L2", "d2")):
        for bname, db in (("d1", "d1"), ("d2", "d2")):
            expected = word("dt") if da == db else 0.0
            residuals[f"[{db},{a}]" + ("-dt" if da == db else "")] = float(
                np.max(np.abs(comm(db, a) - expected)))
    residuals["[dt,rot]"] = float(np.max(np.abs(comm("dt", "rot"))))
    residuals["[d1,rot]-d2"] = float(np.max(np.abs(comm("d1", "rot") - word("d2"))))
    residuals["[d2,rot]+d1"] = float(np.max(np.abs(comm("d2", "rot") + word("d1"))))

    scale = float(max(np.max(np.abs(jet.u)), np.max(np.abs(jet.ut)),
                      np.max(np.abs(jet.utt)), 1e-300))
    return CommutatorReport(residuals, scale)
