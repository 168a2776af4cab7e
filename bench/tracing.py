"""Spans around kgz2d's public functions, installed at runtime.

Nothing under `src/` changes: `install` swaps each target for a wrapper in
every loaded kgz2d module that holds it (so `from .grid import h_norm` copies
are covered too) and on the classes for methods.  Spans are kept in memory
and written out once, when the traced invocation ends.  Every `*_s` layer
metric is self time: the span's duration minus its child spans.

The end-to-end figure each layer metric should move, and where:
- grid.transforms, fft_s, fft_mb:   wall_s on desk_picard and desk_run;
- grid.h_norm_calls, h_norm_s:      wall_s on desk_scatter only;
- grid.rfft_pair_ms:                wall_s on all four;
- propagator.*_step_ms:             wall_s on wide_run, then desk_scatter;
- system.march_s, step_ms, snapshot_ms, products_ms: wall_s on wide_run;
- system.steps, snapshots, picard_maps: wall_s on desk_picard;
- system.state_mb:                  peak_rss_mb on all four, most wide_run;
- system.jet_ms:                    wall_s on desk_run and desk_picard;
- vector_fields.*:                  wall_s on desk_run and desk_picard
                                    (zero on the other two);
- energy_diag.xnorm_terms_s, energy_ms: wall_s on desk_run;
- energy_diag.xnorm_distance_*:     wall_s on desk_picard;
- scattering.*:                     wall_s on desk_scatter only;
- harness.fit_s, fits, fit_ms, out_mb: wall_s on wide_run (dump-heavy);
- trace.overhead_frac: traced wall over the untraced median, minus 1.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name); "Class.method" patches the class.
TARGETS = (
    ("kgz2d.grid", "Grid.rfft", "grid.rfft"),
    ("kgz2d.grid", "Grid.irfft", "grid.irfft"),
    ("kgz2d.grid", "h_norm", "grid.h_norm"),
    ("kgz2d.grid", "write_field", "grid.write_field"),
    ("kgz2d.system", "evolve", "system.evolve"),
    ("kgz2d.system", "free_flow", "system.free_flow"),
    ("kgz2d.system", "picard_map", "system.picard_map"),
    ("kgz2d.system", "picard_solve", "system.picard_solve"),
    ("kgz2d.system", "Trajectory.jet", "system.jet"),
    # apply_gamma calls apply_letters, so this counts every word once
    ("kgz2d.vector_fields", "apply_letters", "vector_fields.word"),
    ("kgz2d.energy_diag", "energy", "energy_diag.energy"),
    ("kgz2d.energy_diag", "xnorm_terms", "energy_diag.xnorm_terms"),
    ("kgz2d.energy_diag", "xnorm_distance", "energy_diag.xnorm_distance"),
    ("kgz2d.scattering", "build_scatter_data", "scattering.build"),
    ("kgz2d.scattering", "residual_series", "scattering.residual"),
    ("kgz2d.scattering", "source_norm_series", "scattering.source_norm"),
    ("kgz2d.harness", "fit_envelope", "harness.fit"),
)

MARCHES = ("system.evolve", "system.free_flow", "system.picard_map")
MB = 1e6


def trajectory_bytes(traj) -> int:
    """Computed bytes of the arrays a Trajectory holds: states and sources."""
    total = 0
    for s in traj.states:
        for pair in (s.E, s.n, s.n_delta):
            total += pair.u.values.nbytes + pair.ut.values.nbytes
    for sources in (traj.source_history, traj.snapshot_sources):
        for q, s in sources or ():
            total += q.values.nbytes + s.values.nbytes
    return total


class Tracer:
    """In-memory span recorder: (name, start, end, parent index) per call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list[int] = []
        self.tally = defaultdict(float)

    def wrap(self, name: str, fn):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent)
            if after is not None:
                after(self.tally, args, out)
            return out

        return traced

    def install(self):
        for module_name, attr, name in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "kgz2d" and \
                        getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id})
                         + "\n")


def _fft_bytes(tally, args, out):
    tally["fft_bytes"] += args[1].nbytes + out.nbytes


def _march(tally, args, traj):
    tally["steps"] += round(traj.t_end / traj.dt)
    tally["snapshots"] += len(traj.states)
    tally["state_bytes"] = max(tally["state_bytes"], trajectory_bytes(traj))


_AFTER = {"grid.rfft": _fft_bytes, "grid.irfft": _fft_bytes,
          **{m: _march for m in MARCHES}}


def self_times(spans) -> tuple[dict, dict]:
    """Per-name self time (duration minus child spans) and call count."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    busy, calls = defaultdict(float), defaultdict(int)
    for i, (name, start, end, _) in enumerate(spans):
        busy[name] += end - start - child[i]
        calls[name] += 1
    return busy, calls


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced invocation (self times in seconds)."""
    busy, calls = self_times(tracer.spans)
    t = tracer.tally
    return {
        "grid.transforms": (calls["grid.rfft"] + calls["grid.irfft"], "count"),
        "grid.fft_s": (busy["grid.rfft"] + busy["grid.irfft"], "s"),
        "grid.fft_mb": (t["fft_bytes"] / MB, "MB"),
        "grid.h_norm_calls": (calls["grid.h_norm"], "count"),
        "grid.h_norm_s": (busy["grid.h_norm"], "s"),
        "system.march_s": (sum(busy[m] for m in MARCHES), "s"),
        "system.steps": (int(t["steps"]), "count"),
        "system.snapshots": (int(t["snapshots"]), "count"),
        "system.picard_maps": (calls["system.picard_map"], "count"),
        "system.state_mb": (t["state_bytes"] / MB, "MB"),
        "vector_fields.words": (calls["vector_fields.word"], "count"),
        "vector_fields.words_s": (busy["vector_fields.word"], "s"),
        "energy_diag.xnorm_terms_s": (busy["energy_diag.xnorm_terms"], "s"),
        "energy_diag.xnorm_distance_s":
            (busy["energy_diag.xnorm_distance"], "s"),
        "scattering.build_s": (busy["scattering.build"], "s"),
        "scattering.residual_s": (busy["scattering.residual"], "s"),
        "scattering.source_norm_s": (busy["scattering.source_norm"], "s"),
        "harness.fit_s": (busy["harness.fit"], "s"),
        "harness.fits": (calls["harness.fit"], "count"),
    }
