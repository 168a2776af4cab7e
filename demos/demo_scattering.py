"""Linear scattering of the Klein-Gordon component.

Builds the free comparison data by rotating the state at the cut back to
t = 0 with the exact backward propagator (for the Strang march, exactly the
initial data plus every earlier source kick pulled back), then measures how
fast the nonlinear field approaches the free field launched from that data.
All truncation is explicit: the script prints the extrapolated tail of the
source-norm integral next to the captured part, and verifies the residual
equals the remaining Duhamel sum of the later kicks to round-off.  The
march keeps no state and records no source: it feeds the scatter verb's
reducers as it goes.

Run from the repository root:  python3 demos/demo_scattering.py
"""

import pathlib

from kgz2d import evolve, make_grid
from kgz2d.harness import RunDiagnostics, fit_envelope
from kgz2d.scattering import (
    DuhamelSum,
    DuhamelTail,
    launch_from,
    residual_series,
    scatter_profile,
)
from kgz2d.system import gaussian_data

OUT = pathlib.Path("demo_out")


def main():
    OUT.mkdir(exist_ok=True)
    grid = make_grid(192, 30.0)
    data = gaussian_data(grid, 1e-2)
    T, dt = 21.0, 0.15
    t_max = 0.8 * (grid.length - data.radius)
    t_probe = round(T / dt) // 2 * dt  # the middle snapshot's time
    duhamel = DuhamelSum(grid, dt, t_max, (1.0,))
    snaps = RunDiagnostics(grid, energies=False, delta=0.1, snap_every=0,
                           duhamel=duhamel)
    tails = DuhamelTail(grid, dt, t_max, (t_probe,))

    def on_source(tau, sources, state):
        snaps.add_source(tau, sources, state)
        tails.add(tau, sources, state)

    traj = evolve(data, T, dt, record_sources=False, on_snapshot=snaps.add,
                  on_source=on_source)

    times, norms, running = duhamel.series(1.0)
    fit_q = fit_envelope(times, norms, (6.0, t_max))
    print(f"source norm ||Q||_H1: {fit_q}")

    profile = scatter_profile(launch_from(duhamel.state), 1.0, t_max, times,
                              norms, dt)
    frac = profile.tail / profile.captured
    print(f"Duhamel cut at t={profile.t_max:.1f}: captured integral "
          f"{profile.captured:.3e}, extrapolated tail {profile.tail:.3e} "
          f"({100 * frac:.1f}% of captured, fitted slope "
          f"{profile.tail_slope:+.2f})")

    rt, (res,) = residual_series(snaps.states, profile.data_plus,
                                 [profile.s])
    fit_r = fit_envelope(rt, res, (6.0, 0.85 * t_max))
    print(f"residual ||E - E+||_H1 + ||dt(E - E+)||_L2: {fit_r}")

    k = traj.index_at(t_probe)
    tail_norm = tails.norm(t_probe, profile.s)
    print(f"consistency at t={t_probe:g}: residual {res[k]:.6e} vs "
          f"Duhamel remainder {tail_norm:.6e} "
          f"(difference {abs(res[k] - tail_norm):.1e})")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping plot")
        return
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.loglog(times, norms, label="||Q(t)||_H1")
    ax.loglog(rt[1:], res[1:], label="scattering residual")
    ax.axvline(profile.t_max, color="gray", ls="--", label="Duhamel cut")
    ax.set_xlabel("t")
    ax.legend()
    fig.tight_layout()
    fig.savefig(OUT / "scattering.png", dpi=150)
    print(f"wrote {OUT / 'scattering.png'}")


if __name__ == "__main__":
    main()
