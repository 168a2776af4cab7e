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
inverse transform per plane.  Every coefficient multiplies a plane after
its derivatives are taken, so no spectral derivative meets the box's
sawtooth x_a.  Time derivatives come from the jet, never from differencing
across snapshots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid

__all__ = [
    "LETTERS",
    "PARTS",
    "WORD_WEIGHTS",
    "GammaWord",
    "WordPlanes",
    "all_words",
    "word_terms",
    "apply_gamma",
    "apply_letters",
    "good_derivative",
    "check_commutators",
    "CommutatorReport",
]

LETTERS = ("dt", "d1", "d2", "rot", "L1", "L2")
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
    u_tt[, u_ttt]]), E's of its live components, each one pruned inverse
    transform, made on first use and kept.  The levels held are the
    derivative budget: a plane of a higher time derivative raises ValueError."""

    def __init__(self, grid: Grid, t: float, levels):
        self.grid, self.t, self.levels = grid, t, levels

    def packed(self, name: str) -> np.ndarray:
        """The packed spectrum of a plane: its level times its derivative
        multipliers, made anew on each call."""
        g = self.grid
        rows, cols = g.spectral["box"]
        level = name.count("t")
        if level >= len(self.levels):
            held = ", ".join("u" + "t" * j for j in range(len(self.levels)))
            raise ValueError(f"plane {name!r} exceeds the derivative budget "
                             f"of the levels held ({held})")
        hat = self.levels[level]
        for axis in name.lstrip("ut"):
            hat = g.spectral["d" + axis][rows, :cols] * hat
        return hat

    def __missing__(self, name: str) -> np.ndarray:
        self[name] = out = self.grid.box_irfft(self.packed(name))
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


def apply_letters(letters: tuple[str, ...], planes: WordPlanes) -> Field:
    """Apply a raw letter sequence to a jet's planes, right to left (no
    order cap): the sum of its word_terms.  Raises when a term reads a time
    level the planes do not hold."""
    for ell in letters:
        if ell not in LETTERS:
            raise ValueError(f"unknown vector field {ell!r}")
    return Field(planes.grid, planes.combine(word_terms(letters)))


def apply_gamma(word: GammaWord, planes: WordPlanes) -> Field:
    """Evaluate a Gamma word on a jet's planes; letters apply right to left."""
    return apply_letters(word.letters, planes)


def good_derivative(a: int, planes: WordPlanes) -> Field:
    """G_a u = (x_a / r) u_t + d_a u, with r regularised to sqrt(r^2 + h^2).

    The regularisation perturbs only the cells next to the origin, where the
    exact prefactor x_a/r is direction-ambiguous.
    """
    g = planes.grid
    if a not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {a}")
    return Field(g, g.radial_unit[a - 1] * planes["ut"] + planes[f"u{a}"])


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


def check_commutators(planes: WordPlanes) -> CommutatorReport:
    """Residuals of COMMUTATORS, |Gamma_1 Gamma_2 u - Gamma_2 Gamma_1 u -
    expected| in max norm, each word summed from its word_terms on the
    planes of a jet with u_tt."""
    def word(*letters):
        return planes.combine(word_terms(letters))

    residuals = {}
    for name in COMMUTATORS:
        pair, _, rest = name[1:].partition("]")
        a, b = pair.split(",")
        res = word(a, b) - word(b, a)
        if rest:
            res = res - word(rest[1:]) if rest[0] == "-" else res + word(rest[1:])
        residuals[name] = float(np.max(np.abs(res)))

    scale = float(max(np.max(np.abs(planes[name]))
                      for name in ("u", "ut", "utt")))
    return CommutatorReport(residuals, max(scale, 1e-300))
