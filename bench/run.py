"""kgz2d benchmark: CLI verbs end to end, and a traced per-layer breakdown.

    python3 bench/run.py --workload desk_run --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0

Every invocation is a fresh `python3 bench/worker.py` process that imports
kgz2d from this checkout's `src/`, with KGZ_THREADS unset and BLAS/OpenMP
capped at one thread.  For `--seconds` the benchmark repeats the workload's
verb through `kgz2d.harness.main`, checks each run directory (checks.py)
and reports medians:

- wall_s:      `harness.main` from call to return, outputs written;
- setup_s:     `import kgz2d`, `parse_config` and `RunConfig.build_data`,
               from every invocation and from SETUP_PROBES set-up-only
               processes before each one;
- peak_rss_mb: peak resident memory of the invocation's process.

A failed invocation (non-zero exit, crash or failed check) counts in
`failed`.  With `--trace 1` the same loop runs, then one traced invocation
(spans from tracing.py) and one microbenchmark process (micro.py) give the
per-layer metrics instead.  The last stdout line is the JSON result; the
line before it records the environment.  No machine setting is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
from workloads import WORKLOADS, config_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3
DEADLINE_S = 170.0
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("KGZ_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    env.update(THREAD_CAPS)
    return env


def environment() -> dict:
    """What ran and where; nothing here is a measurement."""
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    git_hash = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        git_hash = proc.stdout.strip() or None
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(data)
        lines += data.count(b"\n")
    grid_src = (SRC / "kgz2d" / "grid.py").read_text()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "fft_backend": "scipy.fft" if "scipy.fft" in grid_src else "numpy.fft",
        "fft_workers": 1,
        "git_hash": git_hash,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "thread_caps": {**THREAD_CAPS, "KGZ_THREADS": "unset"},
        "machine_settings": "unchanged: no CPU pinning, no cache drops, "
                            "no frequency, cgroup or kernel changes",
    }


class Runner:
    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.env = child_env()
        self.jobs = 0

    def spawn(self, job: dict) -> dict | None:
        """Run one worker process; its result, or None when it failed."""
        self.jobs += 1
        job = {**job, "result": str(self.work / f"job{self.jobs}.json")}
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        result = json.loads(Path(job["result"]).read_text())
        if not result["kgz2d"].startswith(str(SRC)):
            print(f"imported kgz2d from {result['kgz2d']}, not {SRC}",
                  file=sys.stderr)
            return None
        return result


def out_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            env: dict) -> dict | None:
    """Run one workload; its result object, or None if nothing completed."""
    workload = WORKLOADS[name]
    started = time.monotonic()
    work = WORK / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = work / "config.cfg"
    cfg.write_text(config_text(workload, seed, smoke))
    runner = Runner(work, started)
    base = {"config": str(cfg), "verb": workload.verb}

    setups, walls, rss = [], [], []
    attempted = failed = 0

    def invoke(trace_it: bool):
        nonlocal attempted, failed
        attempted += 1
        out = work / f"out{attempted}"
        result = runner.spawn({**base, "mode": "verb", "out": str(out),
                               "trace": trace_it, "run_id": f"{name}-{seed}",
                               "spans": str(work / "spans.jsonl")})
        if result is None:
            problems = ["invocation failed"]
        elif result["exit_code"] != 0:
            problems = [f"exit code {result['exit_code']}"]
        else:
            problems = checks.check(name, workload.verb, out, seed, smoke)
        if problems:
            failed += 1
            print(f"{name} seed {seed} invocation {attempted}: "
                  + "; ".join(problems), file=sys.stderr)
        if result is not None:
            result["out_mb"] = out_bytes(out) / 1e6
        shutil.rmtree(out, ignore_errors=True)
        return result

    while attempted == 0 or time.monotonic() - started < seconds:
        for _ in range(1 if smoke else SETUP_PROBES):
            probe = runner.spawn({**base, "mode": "setup"})
            if probe is not None:
                setups.append(probe["setup_s"])
        result = invoke(False)
        if result is not None:
            setups.append(result["setup_s"])
            walls.append(result["wall_s"])
            rss.append(result["peak_rss_mb"])
    if not walls:
        return None

    wall = statistics.median(walls)
    if not trace:
        metrics = {"wall_s": (wall, "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (statistics.median(rss), "MB")}
    else:
        traced = invoke(True)
        micro = runner.spawn({**base, "mode": "micro"})
        if traced is None or micro is None:
            return None
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        metrics.update({k: (v, "ms") for k, v in micro["micro"].items()})
        metrics["harness.out_mb"] = (traced["out_mb"], "MB")
        metrics["trace.overhead_frac"] = (traced["wall_s"] / wall - 1.0,
                                          "ratio")
    print(f"{name} seed {seed}: {attempted} invocations, {failed} failed, "
          f"walls {', '.join(f'{w:.3f}' for w in walls)} s")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    (work / "result.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "trace": trace,
         "environment": env, **result}, indent=1))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny n=64 grids, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (SRC / "kgz2d" / "__init__.py").is_file():
        print(f"no kgz2d sources under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace),
                         args.smoke, env)
        if result is None:
            print(f"{name}: no invocation completed", file=sys.stderr)
            return 1
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{k}": v for name, r in results.items()
                             for k, v in r["metrics"].items()}}
    print("env " + json.dumps(env))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
