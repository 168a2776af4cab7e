"""Pointwise decay of the coupled system.

Evolves small Gaussian data and fits the decay envelopes: the Klein-Gordon
field falls off like 1/t in sup norm, while the wave field on the light-cone
shell |r - t| <= 2 falls off like 1/sqrt(t).  Also prints the interior
two-shell probe of the <t-r> profile, which shows that divergence-form data
decays much faster inside the cone than the theorem's upper bound requires.

Run from the repository root:  python3 demos/demo_decay_rates.py
"""

import pathlib

import numpy as np

from kgz2d import evolve, make_grid
from kgz2d.harness import RunDiagnostics, fit_envelope
from kgz2d.system import gaussian_data

OUT = pathlib.Path("demo_out")


def main():
    OUT.mkdir(exist_ok=True)
    grid = make_grid(192, 30.0)
    data = gaussian_data(grid, 1e-2)
    print(f"grid {grid.n}^2, box [-{grid.length}, {grid.length})^2, "
          f"data radius {data.radius:.2f}")
    # the run verb's reducer reads each snapshot as the march makes it
    snaps = RunDiagnostics(grid, energies=False, delta=0.1, snap_every=0)
    traj = evolve(data, 21.0, 0.15, store_every=2, record_sources=False,
                  on_snapshot=snaps.add)

    sup_E, shell_n = np.array(snaps.sup_E), np.array(snaps.shells.sups)

    fit_E = fit_envelope(traj.times, sup_E, (5.0, 20.0))
    fit_n = fit_envelope(traj.times, shell_n, (5.0, 20.0))
    print(f"sup|E|          : {fit_E}   (theory: slope -1)")
    print(f"sup|n| on shell : {fit_n}   (theory: slope -1/2)")

    measured, predicted = snaps.shells.interior_ratio()
    print(f"interior two-shell ratio: measured {measured:.1f}, "
          f"<t-r>^(-1/2) prediction {predicted:.2f}")
    print("  (the measured ratio being much larger means the interior decay")
    print("   is steeper than the upper bound: both data and source of the")
    print("   wave equation are Laplacians, so charge and dipole vanish)")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping plot")
        return
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.loglog(traj.times[1:], sup_E[1:], label="sup |E|")
    ax.loglog(traj.times[1:], shell_n[1:], label="sup |n| on |r-t|<=2")
    tt = np.linspace(5, 20, 50)
    ax.loglog(tt, sup_E[10] * (tt / traj.times[10]) ** -1.0, "k--",
              label="t^-1")
    ax.loglog(tt, shell_n[10] * (tt / traj.times[10]) ** -0.5, "k:",
              label="t^-1/2")
    ax.set_xlabel("t")
    ax.legend()
    fig.tight_layout()
    fig.savefig(OUT / "decay_rates.png", dpi=150)
    print(f"wrote {OUT / 'decay_rates.png'}")


if __name__ == "__main__":
    main()
