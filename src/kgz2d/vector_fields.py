"""
Discrete Klainerman vector-field calculus at a single time, over the
alphabet

    dt, d1, d2        translations
    rot               rotation  x1 d2 - x2 d1
    L1, L2            Lorentz boosts  x_a dt + t d_a

with words of length <= 2; the scaling field t dt + r dr is deliberately
absent.  Each letter is first order with coefficients linear in (t, x), so
a word of u is a fixed sum of polynomial coefficients times derivative
planes: word_terms generates it by the product rule from the letters'
PARTS, and WordPlanes evaluates it on a jet's packed levels, one pruned
inverse transform per plane.  The letter path (JetField, apply_letters)
multiplies by the box's sawtooth x_a before each spectral derivative.  Time
derivatives come from the jet, never from differencing across snapshots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grid import Derivatives, Field, Grid

__all__ = [
    "LETTERS",
    "PARTS",
    "WORD_WEIGHTS",
    "GammaWord",
    "WordPlanes",
    "JetField",
    "all_words",
    "word_terms",
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


def all_words(max_order: int) -> list[GammaWord]:
    """Every word with order <= max_order, identity first."""
    return [GammaWord(w) for m in range(max_order + 1)
            for w in itertools.product(LETTERS, repeat=m)]


@dataclass(frozen=True, eq=False)
class JetField:
    """Snapshot values u plus u_t and, as far as given, the equation-supplied
    u_tt and a third time derivative u_ttt.

    The levels present bound the words a jet can evaluate: each dt or boost
    letter reads one level more.  Every level keeps its spatial derivatives
    once taken (`d`), so all words evaluated on one jet share one forward
    transform per level, and keeps that level's half spectrum (`hat`).
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

    def levels(self) -> list[np.ndarray]:
        return [lv for lv in (self.u, self.ut, self.utt, self.uttt)
                if lv is not None]

    def d(self, axis: int, level: int = 0) -> np.ndarray:
        """d_axis of time level `level`, computed once per jet."""
        return self._stack[level](axis)

    def hat(self, level: int = 0) -> np.ndarray:
        """Half spectrum of time level `level`, computed once per jet."""
        return self._stack[level].hat


# Each letter as its (coefficient, derivative) parts: L1 is x1 d_t + t d_1.
# A coefficient is a sign and a factor x_a or t, or nothing for 1.
PARTS = {
    "dt": (("", "t"),), "d1": (("", "1"),), "d2": (("", "2"),),
    "rot": (("x1", "2"), ("-x2", "1")),
    "L1": (("x1", "t"), ("t", "1")), "L2": (("x2", "t"), ("t", "2")),
}


def apply_parts(letter: str, terms) -> tuple[str, ...]:
    """A letter applied to a sum of "coefficient*plane" terms (a sign and
    factors x_a or t; u with a "t" per time derivative, then its axes) by
    the product rule: per part and term, each factor the part's derivative
    takes to 1 in order, then the plane's derivative."""
    out = []
    for coef, d in PARTS[letter]:
        var = "t" if d == "t" else "x" + d
        head = [coef.lstrip("-")] if coef.lstrip("-") else []
        for term in terms:
            sign = "-" if term.startswith("-") != coef.startswith("-") else ""
            *factors, plane = term.lstrip("-").split("*")
            axes = "".join(sorted(plane.lstrip("ut") + d.strip("t")))
            dplane = "u" + "t" * (plane.count("t") + (d == "t")) + axes
            moved = [factors[:i] + factors[i + 1:] + [plane]
                     for i, f in enumerate(factors) if f == var]
            out += [sign + "*".join(head + m)
                    for m in moved + [factors + [dplane]]]
    return tuple(out)


def word_terms(letters) -> tuple[str, ...]:
    """The terms of the letters applied to u, right to left."""
    terms = ("u",)
    for letter in reversed(letters):
        terms = apply_parts(letter, terms)
    return terms


# Each word |I| <= 1 and its d_t, d_1 and d_2, as sums of terms
WORD_WEIGHTS = {w.letters: tuple(word_terms(d + w.letters)
                                 for d in ((), ("dt",), ("d1",), ("d2",)))
                for w in all_words(1)}


class WordPlanes(dict):
    """The planes of word terms at time t of packed jet levels (u, u_t[,
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
        """The physical sum of word terms, such as a row of WORD_WEIGHTS."""
        factor = {"t": self.t, "x1": self.grid.X1, "x2": self.grid.X2}
        total = None
        for term in terms:
            *coef, name = term.lstrip("-").split("*")
            value = self[name]
            for f in coef:
                value = factor[f] * value
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


# The first-order commutator identities, each as the residual it reports:
# [a,b] minus or plus the letter it equals
COMMUTATORS = ("[dt,L1]-d1", "[dt,L2]-d2", "[d1,L1]-dt", "[d2,L1]", "[d1,L2]",
               "[d2,L2]-dt", "[dt,rot]", "[d1,rot]-d2", "[d2,rot]+d1")


def check_commutators(jet: JetField) -> CommutatorReport:
    """Residuals of COMMUTATORS, |Gamma_1 Gamma_2 u - Gamma_2 Gamma_1 u -
    expected| in max norm.  Fields should be effectively supported inside
    the box (box emulation of the plane), otherwise boundary jumps of
    x_a * u pollute the spectra.
    """
    def word(*letters):
        return apply_gamma(GammaWord(letters), jet).values

    residuals = {}
    for name in COMMUTATORS:
        pair, _, rest = name[1:].partition("]")
        a, b = pair.split(",")
        res = word(a, b) - word(b, a)
        if rest:
            res = res - word(rest[1:]) if rest[0] == "-" else res + word(rest[1:])
        residuals[name] = float(np.max(np.abs(res)))

    scale = float(max(np.max(np.abs(jet.u)), np.max(np.abs(jet.ut)),
                      np.max(np.abs(jet.utt)), 1e-300))
    return CommutatorReport(residuals, scale)
