"""Klainerman vector-field calculus on snapshots.

Verifies the commutator identities on random fields, shows that the good
derivatives really are better along the light cone, and evaluates the
Klainerman-Sobolev ratio (no scaling field, orders capped at two) on a free
wave: the ratio staying bounded is the discrete face of the pointwise decay
estimate.

Run from the repository root:  python3 demos/demo_vector_fields.py
"""

import numpy as np

from kgz2d import Field, FieldPair, LinearOperator, free_step, make_grid, partial
from kgz2d.energy_diag import KSRatios
from kgz2d.grid import bump_window
from kgz2d.system import free_flow, gaussian_data
from kgz2d.vector_fields import WordPlanes, check_commutators, good_derivative


def main():
    grid = make_grid(128, 20.0)

    rng = np.random.default_rng(1)
    window = bump_window(grid, 0.4 * grid.length)
    spec = np.zeros((1, grid.n, grid.n // 2 + 1), dtype=complex)
    spec[0, :8, :8] = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    jet = WordPlanes(grid, 0.8, [
        grid.box_rfft(grid.irfft(np.roll(spec, j, axis=1)) * window)
        for j in range(3)])
    rep = check_commutators(jet)
    print("commutator residuals (max-norm / field scale):")
    for name, val in rep.residuals.items():
        print(f"  {name:14s} {val / rep.scale:.2e}")

    # good derivatives along the cone of an outgoing wave
    amp = np.exp(-grid.R**2 / 2.0)
    t = 8.0
    pair = free_step(LinearOperator(grid, 0),
                     FieldPair(Field(grid, amp), Field(grid, 0 * amp)), t)
    wjet = WordPlanes(grid, t, [grid.box_rfft(f.values)
                                for f in (pair.u, pair.ut)])
    shell = np.abs(grid.R - t) <= 1.0
    good = np.sqrt(sum(good_derivative(a, wjet).values[0] ** 2 for a in (1, 2)))
    full = np.sqrt(pair.ut.values[0] ** 2 + partial(pair.u, 1).values[0] ** 2
                   + partial(pair.u, 2).values[0] ** 2)
    print(f"\noutgoing wave at t={t:g}: max |Gu| / max |du| on the shell "
          f"|r-t|<=1 is {np.max(good[shell]) / np.max(full[shell]):.3f} "
          "(good derivatives win near the cone)")

    data = gaussian_data(make_grid(256, 40.0), 1e-2)
    run = free_flow(data, 30.0, 0.25, store_every=8, record_sources=False)
    times, ratios = run.feed(KSRatios(run.grid, "n")).series()
    print("\nKlainerman-Sobolev ratio on a free wave (|I| <= 2, truncated):")
    for t, r in zip(times[::3], ratios[::3]):
        print(f"  t={t:5.1f}  ratio {r:.4f}")
    print("bounded, as the global Sobolev inequality predicts")


if __name__ == "__main__":
    main()
