"""The benchmark's own tests, on the tiny smoke grids.

    python3 -m pytest bench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import self_times  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("grid.transforms", "grid.h_norm_calls", "system.steps",
          "system.snapshots", "system.picard_maps", "vector_fields.words",
          "harness.fits")


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_end_to_end_metric_is_emitted(workload):
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert units(bench(workload, 0)) == expected


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_layer_metric_is_emitted_and_counts_repeat(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units(first) == units(second) == expected
    for name in COUNTS:
        assert first["metrics"][name]["value"] == \
            second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_self_times_add_up_to_traced_wall(workload, tmp_path):
    cfg = tmp_path / "config.cfg"
    cfg.write_text(config_text(WORKLOADS[workload], 0, smoke=True))
    job = {"mode": "verb", "verb": WORKLOADS[workload].verb,
           "config": str(cfg), "out": str(tmp_path / "out"), "trace": True,
           "run_id": "test", "spans": str(tmp_path / "spans.jsonl"),
           "result": str(tmp_path / "result.json")}
    subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                   cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")},
                   check=True, timeout=300)
    wall = json.loads((tmp_path / "result.json").read_text())["wall_s"]
    spans = [json.loads(line) for line in
             (tmp_path / "spans.jsonl").read_text().splitlines()]
    rows = [(s["name"], s["start"], s["end"], s["parent"]) for s in spans]
    for name, start, end, parent in rows:
        if parent >= 0:
            assert rows[parent][1] <= start <= end <= rows[parent][2], name
    top = sum(end - start for _, start, end, parent in rows if parent < 0)
    busy, _ = self_times(rows)
    assert 0.0 <= wall - top
    assert sum(busy.values()) + (wall - top) == pytest.approx(wall, abs=1e-6)


def write_fits(out: Path, values: dict):
    out.mkdir()
    (out / "fits.txt").write_text("".join(
        f"{k} value={v!r}\n" if k == "data_radius" else
        f"{k} exponent={v!r} ci=[0,0] window=[5,10] residual=0 n=9\n"
        for k, v in values.items()))


def test_check_catches_bands_skips_and_changed_values(tmp_path):
    reference = json.loads(checks.REFERENCE.read_text())["desk_run"]
    cases = {
        "same": (dict(reference), 0, []),
        "roundoff": ({**reference, "sup_E": reference["sup_E"] * (1 + 1e-9)},
                     0, []),
        "changed": ({**reference, "sup_E": reference["sup_E"] * (1 + 1e-4)},
                    0, ["sup_E="]),
        "changed_other_seed": (
            {**reference, "sup_E": reference["sup_E"] * (1 + 1e-4)}, 1, []),
        "band": ({**reference, "sup_E": -0.5}, 1, ["sup_E=-0.5 outside"]),
        "skipped": ({"sup_E": reference["sup_E"]}, 1, ["skipped"]),
    }
    for label, (values, seed, expected) in cases.items():
        write_fits(tmp_path / label, values)
        problems = checks.check("desk_run", "run", tmp_path / label, seed)
        assert len(problems) == len(expected), (label, problems)
        for problem, prefix in zip(problems, expected):
            assert problem.startswith(prefix), (label, problem)


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
