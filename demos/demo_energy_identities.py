"""Energy functionals and the ghost-weight multiplier identity.

Three stories:
  1. the exact mode-wise propagator conserves the natural Klein-Gordon
     energy to round-off over a thousand steps;
  2. the ghost-weight energy dominates the natural energy and its added
     spacetime integrals accumulate monotonically;
  3. the full multiplier identity balances to O(dt^2): halving the step
     divides the imbalance by four on a nonlinear run.

Run from the repository root:  python3 demos/demo_energy_identities.py
"""

import numpy as np

from kgz2d import Field, FieldPair, LinearOperator, free_step, make_grid
from kgz2d.energy_diag import GhostEnergies, MultiplierResiduals, energy
from kgz2d.system import evolve, feed, free_flow, gaussian_data


def main():
    grid = make_grid(128, 20.0)
    amp = 1e-2 * np.exp(-(grid.X1**2 + grid.X2**2) / 2.0)
    pair = FieldPair(Field(grid, amp), Field(grid, np.zeros_like(amp)))

    op = LinearOperator(grid, 1)
    e0 = energy(pair, 1)
    p = pair
    for _ in range(1000):
        p = free_step(op, p, 0.1)
    print(f"free KG energy drift over 1000 steps: "
          f"{abs(energy(p, 1) - e0) / e0:.2e} (relative)")

    data = gaussian_data(grid, 1e-2)
    free = free_flow(data, 8.0, 0.1, record_sources=False)
    nat = np.array([energy(s.E, 1) for s in free.states])
    # the identity word's column: the ghost energy of E itself
    gst = np.array(free.feed(GhostEnergies(grid, 0.1, "E")).rows)[:, 0]
    print(f"ghost energy at t=0 equals natural energy: "
          f"{gst[0]:.6e} vs {nat[0]:.6e}")
    print(f"ghost minus natural at t=8 (accumulated good-derivative flux): "
          f"{gst[-1] - nat[-1]:.3e}, monotone: {bool(np.all(np.diff(gst) >= 0))}")

    print("\nmultiplier identity imbalance under dt halving "
          "(nonlinear run, delta=0.1, kappa=0.05):")
    prev = None
    for dt in (0.2, 0.1, 0.05):
        # fed as the march goes, so no state is stored
        identity = MultiplierResiduals(grid, "E", 0.1, 0.05)
        evolve(data, 8.0, dt, record_sources=False,
               on_snapshot=lambda state: feed(identity, state))
        resid = identity.series()[-1]
        note = f"  dt={dt:<5} imbalance {resid:.3e}"
        if prev is not None:
            note += f"  (x{prev / resid:.2f} smaller)"
        prev = resid
        print(note)


if __name__ == "__main__":
    main()
