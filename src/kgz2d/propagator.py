"""
Exact spectral propagators for the free linear wave (m=0) and Klein-Gordon
(m=1) equations -box(u) + m^2 u = F, plus a Strang-split forced integrator.

Each Fourier mode rotates at frequency omega(k) = sqrt(|k|^2 + m^2), so the
free step is exact for the semidiscrete system; solver error never masks an
energy identity.  The forced step is half free step, a full source kick
applied to u_t at the interval midpoint, then another half free step
(globally second order, time-symmetric).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Field, FieldPair, Grid

__all__ = [
    "LinearOperator",
    "free_step",
    "forced_step",
    "solve_linear",
    "PairTrajectory",
    "InstabilityError",
]


class InstabilityError(RuntimeError):
    """Raised when a solve blows past 1e6 x the initial field scale."""


@dataclass(frozen=True)
class LinearOperator:
    """Mode-wise frequencies omega(k) = sqrt(|k|^2 + m^2) on a grid."""

    grid: Grid
    mass: int
    omega: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mass not in (0, 1):
            raise ValueError(f"mass must be 0 or 1, got {self.mass}")
        omega = np.sqrt(self.grid.spectral["k_sq"] + float(self.mass) ** 2)
        object.__setattr__(self, "omega", omega)


def _free_step_hat(op: LinearOperator, u_hat, ut_hat, dt: float):
    """Advance spectral coefficients by dt under the free flow (exact).

    u'   =  cos(w dt) u + sin(w dt)/w ut
    ut'  = -w sin(w dt) u + cos(w dt) ut
    sin(w dt)/w is evaluated as dt*sinc(w dt/pi), which also covers the
    m=0 zero mode: u' = u + dt*ut, ut' = ut.
    """
    w = op.omega
    c = np.cos(w * dt)
    s_over_w = dt * np.sinc(w * dt / np.pi)
    new_u = c * u_hat + s_over_w * ut_hat
    new_ut = -(w**2) * s_over_w * u_hat + c * ut_hat
    return new_u, new_ut


def free_step(op: LinearOperator, p: FieldPair, dt: float) -> FieldPair:
    """Exact free evolution of a pair by dt (negative dt allowed)."""
    g = op.grid
    u_hat, ut_hat = _free_step_hat(op, g.rfft(p.u.values), g.rfft(p.ut.values), dt)
    return FieldPair(Field(g, g.irfft(u_hat)), Field(g, g.irfft(ut_hat)))


def forced_step(op: LinearOperator, p: FieldPair, source, t: float, dt: float) -> FieldPair:
    """One Strang step of -box(u) + m^2 u = F: free half, kick, free half.

    `source` maps a time to a Field; it is sampled once at t + dt/2.
    """
    if not dt > 0:
        raise ValueError("forced_step needs dt > 0")
    g = op.grid
    u_hat = g.rfft(p.u.values)
    ut_hat = g.rfft(p.ut.values)
    u_hat, ut_hat = _free_step_hat(op, u_hat, ut_hat, 0.5 * dt)
    f_mid = source(t + 0.5 * dt)
    if not np.all(np.isfinite(f_mid.values)):
        raise ValueError(f"source returned non-finite values at t={t + 0.5 * dt}")
    ut_hat = ut_hat + dt * g.rfft(f_mid.values)
    u_hat, ut_hat = _free_step_hat(op, u_hat, ut_hat, 0.5 * dt)
    return FieldPair(Field(g, g.irfft(u_hat)), Field(g, g.irfft(ut_hat)))


@dataclass(frozen=True)
class PairTrajectory:
    """Uniform-dt snapshots of a linear solve."""

    op: LinearOperator
    dt: float
    times: np.ndarray
    pairs: list

    def __len__(self):
        return len(self.pairs)


def _pair_scale(u_hat, ut_hat) -> float:
    return float(max(np.max(np.abs(u_hat)), np.max(np.abs(ut_hat))))


def solve_linear(op: LinearOperator, data: FieldPair, source, T: float, dt: float) -> PairTrajectory:
    """March the forced equation from 0 to T; first snapshot is `data` itself.

    Aborts with InstabilityError when the spectral amplitude exceeds
    1e6 x its initial value.  dt must divide T within round-off.
    """
    if not T > 0:
        raise ValueError("horizon T must be positive")
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"dt={dt} does not divide T={T}")
    g = op.grid
    u_hat = g.rfft(data.u.values)
    ut_hat = g.rfft(data.ut.values)
    limit = 1e6 * (_pair_scale(u_hat, ut_hat) + 1e-300)
    pairs = [data]
    times = [0.0]
    for k in range(steps):
        t = k * dt
        u_hat, ut_hat = _free_step_hat(op, u_hat, ut_hat, 0.5 * dt)
        if source is not None:
            f_mid = source(t + 0.5 * dt)
            if not np.all(np.isfinite(f_mid.values)):
                raise ValueError(f"source returned non-finite values at t={t + 0.5 * dt}")
            ut_hat = ut_hat + dt * g.rfft(f_mid.values)
        u_hat, ut_hat = _free_step_hat(op, u_hat, ut_hat, 0.5 * dt)
        if not _pair_scale(u_hat, ut_hat) <= limit:
            raise InstabilityError(
                f"linear solve unstable at t={t + dt:.6g}: amplitude exceeded 1e6 x initial"
            )
        pairs.append(FieldPair(Field(g, g.irfft(u_hat)), Field(g, g.irfft(ut_hat))))
        times.append((k + 1) * dt)
    return PairTrajectory(op, dt, np.asarray(times), pairs)
