"""One fresh-process invocation, driven by run.py.

    python3 bench/worker.py '<job json>'

Job modes:
- "setup": import kgz2d, parse the config and build its data, then stop;
- "verb":  the same set-up, then `kgz2d.harness.main` on the config, with
           spans installed when the job asks for a trace;
- "micro": the same set-up, then the per-call microbenchmarks.

The result JSON (setup_s, wall_s, peak_rss_mb, exit code, and the layer
metrics of a traced or micro job) is written to the job's result path.
"""

import json
import resource
import sys
import time


def main(job: dict) -> None:
    t0 = time.perf_counter()
    import kgz2d
    from kgz2d import harness

    cfg = harness.parse_config(job["config"])
    cfg.build_data()
    result = {"setup_s": time.perf_counter() - t0, "kgz2d": kgz2d.__file__}

    if job["mode"] == "verb":
        tracer = None
        if job.get("trace"):
            from tracing import Tracer
            tracer = Tracer(job["run_id"])
            tracer.install()
        t1 = time.perf_counter()
        result["exit_code"] = harness.main(
            [job["verb"], job["config"], "--out", job["out"], "--quiet"])
        result["wall_s"] = time.perf_counter() - t1
        if tracer is not None:
            from tracing import layer_metrics
            tracer.write(job["spans"])
            result["layers"] = layer_metrics(tracer)
    elif job["mode"] == "micro":
        from micro import micro_metrics
        result["micro"] = micro_metrics(cfg)

    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
