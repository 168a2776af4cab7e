"""Per-call microbenchmarks of the layers named in ROADMAP aim 1.

Each calls public kgz2d functions only, on the workload's own grid and
data, after one warm-up call; the value is the median of repeated calls.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from kgz2d import (FieldPair, GammaWord, LinearOperator, apply_gamma, energy,
                   evolve, fit_envelope, forced_step, free_flow, free_step,
                   xnorm_distance)


def median_ms(fn, reps: int = 5, min_s: float = 0.2) -> float:
    fn()
    times = []
    stop = time.perf_counter() + min_s
    while len(times) < reps or time.perf_counter() < stop:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def micro_metrics(cfg) -> dict:
    data = cfg.build_data()
    g, dt = data.grid, cfg.dt
    op = LinearOperator(g, 1)
    pair = FieldPair(data.E0, data.E1)
    traj = evolve(data, 2 * dt, dt)
    jet3 = traj.jet(1, "E", depth=3)
    free = free_flow(data, traj.t_end, dt)
    times = np.arange(41) * 0.3
    decay = (1.0 + times) ** -1.0

    # The march has no public per-step entry point: a step and a stored
    # snapshot are differences of k-step evolutions that store 2 or k+1
    # snapshots, against a one-step evolution.
    k = 8

    def evolve_ms(steps, store_every):
        return median_ms(lambda: evolve(data, steps * dt, dt,
                                        store_every=store_every,
                                        record_sources=False),
                         reps=3, min_s=0.0)

    one, sparse, dense = evolve_ms(1, 1), evolve_ms(k, k), evolve_ms(k, 1)
    return {
        "grid.rfft_pair_ms": median_ms(lambda: g.irfft(g.rfft(data.E0.values))),
        "propagator.free_step_ms": median_ms(lambda: free_step(op, pair, dt)),
        "propagator.forced_step_ms": median_ms(
            lambda: forced_step(op, pair, lambda t: data.E0, 0.0, dt)),
        "system.step_ms": (sparse - one) / (k - 1),
        "system.snapshot_ms": (dense - sparse) / (k - 1),
        "system.products_ms": median_ms(lambda: traj.products(1)),
        "system.jet_ms": median_ms(lambda: traj.jet(1, "E")),
        "vector_fields.gamma_word_ms": median_ms(
            lambda: apply_gamma(GammaWord(("L1", "rot")), jet3)),
        "energy_diag.energy_ms": median_ms(lambda: energy(traj.states[1].E, 1)),
        "energy_diag.xnorm_distance_snapshot_ms": median_ms(
            lambda: xnorm_distance(traj, free), reps=3, min_s=0.0)
        / len(traj.times),
        "harness.fit_ms": median_ms(
            lambda: fit_envelope(times, decay, (5.0, 10.0))),
    }
