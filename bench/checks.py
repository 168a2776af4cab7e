"""Output checks for one invocation's run directory.

Two parts:
- seed-independent bands taken from the acceptance suite, plus the rule
  that no fit is skipped that the seed-0 run did not skip (a skipped fit
  is simply absent from fits.txt);
- at seed 0, agreement with reference.json, recorded at seed 0 from the
  commit that introduced the benchmark, within the relative tolerance
  REL_TOL.  Round-off moves these values by at most 4e-11 (the second
  Picard ratio, when the free step computes sin(w dt)/w directly instead
  of through sinc), while weakening the coupling kick by 0.1% already
  moves sup_E by 1.2e-8 on desk_run; a different step, quadrature or fit
  moves them far more.  data_radius is not compared: it thresholds
  samples at 1e-14 of the peak, so round-off can move it by a grid cell.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
REL_TOL = 1e-8

BANDS = {
    "sup_E": (-1.2, -0.8),
    "sup_n_shell": (-0.7, -0.35),
    "source_norm_s1": (None, -1.1),
    "source_norm_s2": (None, -1.1),
    "residual_s1": (None, -0.10),
    "residual_s2": (None, -0.10),
    "tail_fraction_s1": (None, 0.20),
    "tail_fraction_s2": (None, 0.20),
    "ratio": (None, 0.5),
}
UNCOMPARED = {"data_radius"}


def read_values(verb: str, out: Path) -> dict:
    """Fit exponents and scalars of fits.txt, or picard.txt's entries."""
    if verb == "picard":
        text = (out / "picard.txt").read_text()
        return {k: float(v) for k, v in re.findall(r"(\w+)=(\S+)", text)}
    values = {}
    for line in (out / "fits.txt").read_text().splitlines():
        name, _, rest = line.partition(" ")
        values[name] = float(re.match(r"(?:exponent|value)=(\S+)", rest)[1])
    return values


def check(workload: str, verb: str, out: Path, seed: int,
          smoke: bool = False) -> list[str]:
    """Problems found in one run directory; empty when it passes.

    Smoke runs are too short for any band, so only their outputs' presence
    is checked.
    """
    try:
        values = read_values(verb, out)
    except (OSError, TypeError, ValueError) as exc:
        return [f"unreadable outputs: {exc}"]
    if smoke:
        return []
    problems = []
    for name, value in values.items():
        lo, hi = BANDS.get(re.sub(r"_\d+$", "", name), (None, None))
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            problems.append(f"{name}={value:.6g} outside [{lo}, {hi}]")
    reference = json.loads(REFERENCE.read_text())[workload]
    missing = sorted(set(reference) - set(values))
    if missing:
        problems.append(f"skipped or missing: {missing}")
    if seed == 0:
        for name, ref in reference.items():
            got = values.get(name)
            if name in UNCOMPARED or got is None:
                continue
            if abs(got - ref) > REL_TOL * abs(ref):
                problems.append(f"{name}={got!r} differs from reference {ref!r}")
    return problems
