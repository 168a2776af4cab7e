"""Linear scattering of the Klein-Gordon component.

Builds the free comparison data by pulling every recorded source kick back
to t = 0 with the exact backward propagator, then measures how fast the
nonlinear field approaches the free field launched from that data.  All
truncation is explicit: the script prints the extrapolated tail of the
source-norm integral next to the captured part, and verifies the residual
equals the remaining Duhamel sum to round-off.

Run from the repository root:  python3 demos/demo_scattering.py
"""

import pathlib

from kgz2d import evolve, make_grid
from kgz2d.harness import fit_envelope
from kgz2d.scattering import (
    build_scatter_data,
    duhamel_tail_norm,
    residual_series,
    source_norm_series,
)
from kgz2d.system import gaussian_data

OUT = pathlib.Path("demo_out")


def main():
    OUT.mkdir(exist_ok=True)
    grid = make_grid(192, 30.0)
    data = gaussian_data(grid, 1e-2)
    traj = evolve(data, 21.0, 0.15)

    t_max = 0.8 * (grid.length - data.radius)
    times, norms, running = source_norm_series(traj, 1.0)
    fit_q = fit_envelope(times, norms, (6.0, t_max))
    print(f"source norm ||Q||_H1: {fit_q}")

    profile = build_scatter_data(traj, 1.0, t_max=t_max,
                                 require_convergent_tail=False)
    frac = profile.tail / profile.captured
    print(f"Duhamel cut at t={profile.t_max:.1f}: captured integral "
          f"{profile.captured:.3e}, extrapolated tail {profile.tail:.3e} "
          f"({100 * frac:.1f}% of captured, fitted slope "
          f"{profile.tail_slope:+.2f})")

    rt, (res,) = residual_series(traj.states, profile.data_plus, [profile.s])
    fit_r = fit_envelope(rt, res, (6.0, 0.85 * t_max))
    print(f"residual ||E - E+||_H1 + ||dt(E - E+)||_L2: {fit_r}")

    t_probe = traj.times[len(traj.times) // 2]
    k = traj.index_at(t_probe)
    tail_norm = duhamel_tail_norm(traj, profile, t_probe)
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
