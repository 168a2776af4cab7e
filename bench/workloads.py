"""The benchmark's workloads: one CLI verb and one generated config each.

The base texts copy `demos/desk.cfg` and `demos/picard.cfg` as they stood
when the benchmark was defined, so later edits to the demos do not move the
benchmark.  Horizons are shorter than the demos' own so that several fresh
invocations fit in one measured run; each horizon keeps every fit window of
its verb valid:

- `run` fits sup_E and sup_n_shell on [5, T - 2], which needs T >= 12 and
  at least 8 stored snapshots inside the window;
- `scatter` fits the residual on [10, 0.85 t_max], which needs
  t_max = min(T, 0.8 (L - data radius)) >= 23.53, hence T = 24;
- `picard` converges in 3 maps at T = 1.5, as the demo's T = 10.05 does.

The seed sets the config's bootstrap `seed` and shifts the Gaussian's
`center` by at most one unit, which keeps T + data radius < L on every
workload.  The program sees only the generated config text.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DESK_CFG = {
    "points_per_axis": "256",
    "L": "40",
    "profile": "gaussian",
    "amplitude": "1e-2",
    "width": "1.0",
    "dt": "0.15",
    "T": "30.0",
    "snap_every": "50",
    "diagnostics": "decay, energies",
    "delta": "0.1",
    "kappa": "0.05",
    "eta": "0.5",
    "scatter_s": "1 2",
    "seed": "0",
}

PICARD_CFG = {
    "points_per_axis": "256",
    "L": "40",
    "amplitude": "1e-2",
    "dt": "0.15",
    "T": "10.05",
    "picard_tol": "1e-6",
    "picard_max_iter": "12",
}


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    base: dict
    overrides: dict


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "desk_run", "run", DESK_CFG,
            {"T": "12.0", "store_every": "2"}),
        Workload(
            "desk_picard", "picard", PICARD_CFG,
            {"T": "1.5"}),
        Workload(
            "desk_scatter", "scatter", DESK_CFG,
            {"T": "24.0", "store_every": "4",
             "diagnostics": "decay, scatter"}),
        Workload(
            "wide_run", "run", DESK_CFG,
            {"points_per_axis": "512", "T": "15.0", "store_every": "5",
             "snap_every": "20", "diagnostics": "decay"}),
    )
}

# Tiny grid for the benchmark's own tests.  The unit Gaussian's data radius
# is 8.15 (9.15 when shifted), so the box needs L > 10.65 at T = 1.5, and
# n=32 on such a box under-resolves the data; n=64 with L=12 is the smallest
# grid on which all four verbs run their real pipelines.
SMOKE = {"points_per_axis": "64", "L": "12", "dt": "0.05", "T": "1.5",
         "store_every": "1", "snap_every": "10"}


def center_shift(seed: int) -> tuple[float, float]:
    """Seed-derived shift of the Gaussian center, of length at most 1."""
    rng = random.Random(seed)
    radius = rng.random()
    angle = 2.0 * math.pi * rng.random()
    return radius * math.cos(angle), radius * math.sin(angle)


def config_text(workload: Workload, seed: int, smoke: bool = False) -> str:
    """The flat `key = value` config the program receives."""
    values = dict(workload.base)
    values.update(workload.overrides)
    if smoke:
        values.update(SMOKE)
    dx, dy = center_shift(seed)
    values["center"] = f"{dx:.6f} {dy:.6f}"
    values["seed"] = str(seed)
    return "".join(f"{k} = {v}\n" for k, v in values.items())
