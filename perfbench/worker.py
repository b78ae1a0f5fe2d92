"""One workload process: set up, signal ready, run the timed section, report.

    python3 perfbench/worker.py '<json spec>'

The spec names the workload, seed, path count, checkout root, output
directory and whether to trace. The process prints `ready` on its own line
when set-up is done (the parent times set-up from process start to that
line), then one JSON line with the timed section's results. Set-up covers
interpreter start, `import chaoskit`, config validation and
`validate_guards`; for `engines` it also covers drawing the ensembles.
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import sys
import time

import spans
import workloads


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _import_chaoskit(src: str):
    sys.path.insert(0, src)
    import chaoskit  # binds every layer module as an attribute of the package

    where = os.path.realpath(chaoskit.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"chaoskit imported from {where}, not from {src}")
    return chaoskit


def _trace_hooks():
    def sampled(tracer, args, ens):
        tracer.count("levy.paths", ens.n_paths)
        tracer.count("levy.jumps", int(ens.jump_times.size))
        arrays = (ens.brownian, ens.jump_times, ens.jump_atoms, ens.jump_paths, ens.offsets)
        tracer.count("levy.ensemble_bytes", sum(a.nbytes for a in arrays if a is not None))

    def reduced(tracer, args, stat):
        tracer.count("montecarlo.values", int(stat.n_paths))

    return {"levy.sample_ensemble": sampled, "montecarlo.summarize": reduced}


def _index_cache_info(ck) -> dict:
    """Hits and misses of the lru_cache index tables over the whole process."""
    hits = misses = 0
    for obj in vars(ck.indices).values():
        # a traced binding hides the lru_cache object behind __wrapped__
        info = getattr(obj, "cache_info", None) or getattr(
            getattr(obj, "__wrapped__", None), "cache_info", None
        )
        if callable(info):
            stats = info()
            hits += stats.hits
            misses += stats.misses
    return {"hits": hits, "misses": misses}


def main(spec: dict) -> dict:
    ck = _import_chaoskit(os.path.join(spec["root"], "src"))
    workload = spec["workload"]
    suites = workloads.WORKLOADS[workload]["suites"]
    cfg = ck.config.RunConfig.from_dict(
        workloads.config_dict(workload, spec["seed"], spec["n_paths"], spec["out_dir"])
    )
    cfg.validate_guards()

    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer, ck, _trace_hooks())

    def span(name):
        return tracer.span(name, "bench") if tracer else contextlib.nullcontext()

    cases = None
    if workload == "engines":
        with span("bench.setup"):
            cases = workloads.setup_engines(ck, cfg, spec["n_paths"])

    print("ready", flush=True)
    if spec.get("setup_only"):
        return {}

    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    with span("bench.run"):
        if cases is not None:
            errors = workloads.run_engines(ck, cases)
        else:
            bundles = workloads.run_verify(ck, cfg, suites)
    run_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        # the checks below call chaoskit too; they are not part of the run
        traced_spans, traced_counts = list(tracer.spans), dict(tracer.counts)

    result = {
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "index_cache": _index_cache_info(ck),
        "env": {
            "chaoskit": ck.__version__,
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
        },
    }
    if cases is not None:
        result["errors"] = errors
    else:
        result["bundles"] = []
        for suite, run_dir in bundles:
            result["bundles"].append(workloads.check_bundle(ck, suite, run_dir))
            shutil.rmtree(run_dir)
    if tracer is not None:
        result["trace"] = spans.summarize(traced_spans, traced_counts)
        if spec.get("spans_file"):
            with open(spec["spans_file"], "w") as fh:
                json.dump(traced_spans, fh)
    return result


if __name__ == "__main__":
    out = main(json.loads(sys.argv[1]))
    print(json.dumps(out), flush=True)
