"""
Exact spectral propagators for the free linear wave (m=0) and Klein-Gordon
(m=1) equations -box(u) + m^2 u = F, plus a Strang-split forced integrator.

Each Fourier mode rotates at frequency omega(k) = sqrt(|k|^2 + m^2), so the
free step is exact for the semidiscrete system; solver error never masks an
energy identity.  LinearOperator.rotation(dt) is its one implementation,
built once per dt, over the whole half spectrum or, for band-limited data,
over the 2/3 dealias box (box=True).  The forced step is half free step, a
full source kick applied to u_t at the interval midpoint, then another half
free step (globally second order, time-symmetric).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Field, FieldPair, Grid

__all__ = [
    "LinearOperator",
    "free_step",
    "forced_step",
    "InstabilityError",
]


class InstabilityError(RuntimeError):
    """Raised when an evolution blows past 1e6 x the initial field scale."""


@dataclass(frozen=True)
class LinearOperator:
    """Mode-wise frequencies omega(k) = sqrt(|k|^2 + m^2) on a grid: over
    the whole half spectrum, or with box over the dealias box, where its
    rotations act on packed coefficients (Grid.box_rfft)."""

    grid: Grid
    mass: int
    box: bool = False
    omega: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mass not in (0, 1):
            raise ValueError(f"mass must be 0 or 1, got {self.mass}")
        k_sq = self.grid.spectral["box_k_sq" if self.box else "k_sq"]
        object.__setattr__(self, "omega", np.sqrt(k_sq + float(self.mass) ** 2))

    def rotation(self, dt: float):
        """The exact free flow over dt: coefficients built once, returned as
        the map (u_hat, ut_hat) -> (u_hat', ut_hat') that applies them:

            u'   =  cos(w dt) u + sin(w dt)/w ut
            ut'  = -w sin(w dt) u + cos(w dt) ut

        sin(w dt)/w is evaluated as dt*sinc(w dt/pi), which also covers the
        m=0 zero mode: u' = u + dt*ut, ut' = ut.
        """
        w = self.omega
        c = np.cos(w * dt)
        s_over_w = dt * np.sinc(w * dt / np.pi)
        w_s = -(w**2) * s_over_w

        def rotate(u_hat, ut_hat):
            return c * u_hat + s_over_w * ut_hat, w_s * u_hat + c * ut_hat

        return rotate


def free_step(op: LinearOperator, p: FieldPair, dt: float) -> FieldPair:
    """Exact free evolution of a pair by dt (negative dt allowed)."""
    g = op.grid
    u_hat, ut_hat = op.rotation(dt)(g.rfft(p.u.values), g.rfft(p.ut.values))
    return FieldPair(Field(g, g.irfft(u_hat)), Field(g, g.irfft(ut_hat)))


def forced_step(op: LinearOperator, p: FieldPair, source, t: float, dt: float) -> FieldPair:
    """One Strang step of -box(u) + m^2 u = F: free half, kick, free half.

    `source` maps a time to a Field; it is sampled once at t + dt/2.
    """
    if not dt > 0:
        raise ValueError("forced_step needs dt > 0")
    g = op.grid
    half = op.rotation(0.5 * dt)
    u_hat, ut_hat = half(g.rfft(p.u.values), g.rfft(p.ut.values))
    f_mid = source(t + 0.5 * dt)
    if not np.all(np.isfinite(f_mid.values)):
        raise ValueError(f"source returned non-finite values at t={t + 0.5 * dt}")
    ut_hat = ut_hat + dt * g.rfft(f_mid.values)
    u_hat, ut_hat = half(u_hat, ut_hat)
    return FieldPair(Field(g, g.irfft(u_hat)), Field(g, g.irfft(ut_hat)))
