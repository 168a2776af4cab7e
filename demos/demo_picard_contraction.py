"""The solution mapping as a measured contraction.

Starting from the free flow of the data, each application of the solution
mapping solves the linear system with sources read off the previous guess.
For small data the iteration contracts dramatically faster than the 1/2
factor the theory guarantees, and its fixed point reproduces the nonlinear
solver to round-off.

Run from the repository root:  python3 demos/demo_picard_contraction.py
"""

import numpy as np

from kgz2d import evolve, make_grid, picard_solve
from kgz2d.energy_diag import energy
from kgz2d.system import gaussian_data


def main():
    grid = make_grid(128, 20.0)
    T, dt = 6.0, 0.1

    print("contraction ratios by amplitude (tolerance 1e-7):")
    for eps in (1e-3, 3e-3, 1e-2):
        data = gaussian_data(grid, eps)
        ref = evolve(data, T, dt, record_sources=False)
        dists = []

        def on_snapshot(a):
            # the newest iterate's states; a restart begins again at t = 0
            if a.t == 0.0:
                dists.clear()
            b = ref.states[len(dists)]
            dists.append(np.sqrt(energy(a.E - b.E, 1))
                         + np.sqrt(energy(a.n - b.n, 0)))

        ratios = picard_solve(data, T, dt, tol=1e-7, on_snapshot=on_snapshot)
        dist = max(dists)
        print(f"  eps={eps:g}: {len(ratios) + 1} maps, "
              f"ratios {[f'{r:.2e}' for r in ratios]}, "
              f"limit-vs-evolve energy distance {dist:.2e}")


if __name__ == "__main__":
    main()
