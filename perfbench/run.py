"""chaoskit benchmark: time to a verdict, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a chaoskit checkout; chaoskit is imported from ./src.
The loop is closed with one client: each repetition is a fresh workload
process (perfbench/worker.py), started only after the previous one ended,
so every repetition pays set-up and cold caches as a command-line run does.
Repetitions continue until about --seconds have passed (at least two, so
that two runs of the same seed can be compared byte for byte).

--trace 0 prints the end-to-end metrics (tracing off). --trace 1
alternates untraced and traced repetitions and prints the per-layer
metrics of the traced ones, plus the tracing overhead. The last line of
stdout is one JSON object; a result file with the run's environment goes to
perfbench/out/.
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
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Repetitions below this many never end a run early.
MIN_REPS = 2
# Set-up samples per run; set-up only repetitions make up what full ones lack.
SETUP_SAMPLES = 5
# A hung workload process is killed after this long.
REP_TIMEOUT_S = 120.0
# Worker threads of native libraries: the benchmark bounds them so that no
# run uses more threads than CHAOSKIT_WORKERS asks for.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Per traced repetition: the self times below bench.run add up to its
# duration plus the time its fanned-out children overlap.
TRACE_CHECK_KEYS = ("run_s", "glue_s", "self_total_s", "overlap_s", "identity_gap_s",
                    "problems")

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
_SUITES = ("fock", "sim", "chaos", "malliavin")
_FN_SELF = (
    "levy.sample_ensemble",
    "levy.cell_increments",
    "levy.terminal_value",
    "integrals.power_integrals",
    "integrals.iterated_chain",
    "integrals.doleans_exp",
    "integrals.exp_martingale_grid",
    "chaos.chaos_evaluate",
    "chaos.project_mc",
    "chaos.embed_chaos",
    "montecarlo.summarize",
    "reporting.emit_report",
)
# Per-layer figures cover the timed section, and on engines also the set-up
# that draws the ensembles, so that levy.* shows the sampler there too.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in (
        "levy", "integrals", "chaos", "montecarlo", "indices", "fock", "dense",
        "exponential", "suites", "reporting",
    )},
    **{f"{name}.self_s": "s" for name in _FN_SELF},
    "levy.sample_ensemble.calls": "count",
    "levy.paths": "count",
    "levy.jumps": "count",
    "levy.ensemble_mb": "MB",
    "montecarlo.values": "count",
    "fock.calls": "count",
    "indices.cache_hit_ratio": "ratio",
    "indices.cache_lookups": "count",
    **{f"suites.{suite}.s": "s" for suite in _SUITES},
    "suites.concurrency": "ratio",
    "reporting.bytes_written": "bytes",
    "bench.glue_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "fail_share": "ratio",
}


def tail_percentile(samples):
    """Highest of p50..p99 with at least ten samples beyond it, or None."""
    n = len(samples)
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return None


def _source_digest(root: str) -> str:
    pkg = os.path.join(root, "src", "chaoskit")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _git_revision(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=30,
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


class Rep:
    """One workload process: its set-up time and its JSON result."""

    def __init__(self, spec: dict, env: dict):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                                env=env, text=True)
        watchdog = threading.Timer(REP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            self.setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        self.wall_s = time.perf_counter() - start
        if ready.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(
                f"workload process failed (exit {proc.returncode}) for {spec['workload']}"
            )
        lines = rest.strip().splitlines()
        self.result = json.loads(lines[-1]) if lines else {}


def verdicts(workload: str, reps: list) -> dict:
    """Correctness over all repetitions of one run.

    A run verifies one seed: its operations are the records of that seed's
    reports (the cross-route checks on engines). Every repetition must
    reproduce them exactly, so they are counted once, not once per
    repetition, and the counts do not depend on how many repetitions fit.
    """
    defects, failures = [], {}
    first = reps[0].result
    if workload == "engines":
        attempted = len(first["errors"])
        for name, err in first["errors"].items():
            if not err <= workloads.ROUTE_TOL:
                failures[name] = err
                if not workloads.known_defect(name):
                    defects.append(f"{name}: route error {err!r}")
        for rep in reps[1:]:
            if rep.result["errors"] != first["errors"]:
                defects.append("engine route errors differ between repetitions")
    else:
        attempted = sum(bundle["records"] for bundle in first["bundles"])
        for rep in reps:
            for bundle, ref in zip(rep.result["bundles"], first["bundles"]):
                if bundle["report_sha256"] != ref["report_sha256"]:
                    defects.append(f"report.jsonl of {bundle['suite']} differs between runs")
                failures.update(bundle["failures"])
                defects.extend(bundle["defects"])
    return {
        "attempted": attempted,
        "failed": len(failures),
        "defects": sorted(set(defects)),
        "failures": failures,
        "known_defect": workloads.KNOWN_DEFECT if workload == "engines" else None,
    }


def per_layer_metrics(traced: list, untraced: list, verdict: dict) -> dict:
    traces = [rep.result["trace"] for rep in traced]
    last = traces[-1]

    def med(fn):
        return statistics.median([fn(t) for t in traces])

    out = {}
    for layer in ("levy", "integrals", "chaos", "montecarlo", "indices", "fock",
                  "dense", "exponential", "suites", "reporting"):
        out[f"{layer}.self_s"] = med(lambda t: t["layer_self"][layer])
    for name in _FN_SELF:
        out[f"{name}.self_s"] = med(lambda t: t["fn_self"].get(name, 0.0))
    for suite in _SUITES:
        out[f"suites.{suite}.s"] = med(lambda t: t["suite_s"].get(suite, 0.0))
    counts = last["counts"]
    cache = traced[-1].result["index_cache"]
    lookups = cache["hits"] + cache["misses"]
    bundles = traced[-1].result.get("bundles", [])
    out.update({
        "levy.sample_ensemble.calls": last["fn_calls"].get("levy.sample_ensemble", 0),
        "levy.paths": counts.get("levy.paths", 0),
        "levy.jumps": counts.get("levy.jumps", 0),
        "levy.ensemble_mb": counts.get("levy.ensemble_bytes", 0) / 2**20,
        "montecarlo.values": counts.get("montecarlo.values", 0),
        "fock.calls": last["layer_calls"]["fock"],
        "indices.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "indices.cache_lookups": lookups,
        "suites.concurrency": med(lambda t: t["concurrency"]),
        "reporting.bytes_written": sum(b["bytes_written"] for b in bundles),
        "bench.glue_s": med(lambda t: t["glue_s"]),
        "trace.run_s": med(lambda t: t["run_s"]),
        "trace.overhead_s": med(lambda t: t["run_s"])
        - statistics.median([rep.result["run_s"] for rep in untraced]),
        "trace.spans": last["spans"],
        "fail_share": verdict["failed"] / verdict["attempted"],
    })
    return out


def _child_env(workload: str) -> dict:
    env = dict(os.environ)
    env["CHAOSKIT_WORKERS"] = str(workloads.WORKLOADS[workload]["workers"])
    for key in THREAD_ENV:
        env[key] = "1"
    return env


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chaoskit", "__init__.py")):
        raise SystemExit("perfbench: run from the root of a chaoskit checkout (no src/chaoskit)")
    spec_info = workloads.WORKLOADS[args.workload]
    n_paths = args.paths or spec_info["n_paths"]
    out_root = os.path.join(HERE, "out")
    runs_dir = os.path.join(out_root, f"runs-{os.getpid()}")
    os.makedirs(runs_dir, exist_ok=True)
    env = _child_env(args.workload)
    base = {"root": root, "workload": args.workload, "seed": args.seed,
            "n_paths": n_paths, "out_dir": runs_dir}

    started = time.perf_counter()
    setups, reps, traced, untraced = [], [], [], []
    try:
        while True:
            trace = bool(args.trace) and len(reps) % 2 == 1
            rep = Rep(dict(base, trace=trace), env)
            reps.append(rep)
            (traced if trace else untraced).append(rep)
            if not trace:
                setups.append(rep.setup_s)
            if len(reps) < MIN_REPS:
                continue
            elapsed = time.perf_counter() - started
            typical = statistics.median([r.wall_s for r in reps])
            if elapsed + 0.5 * typical >= args.seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(Rep(dict(base, trace=False, setup_only=True), env).setup_s)
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)

    verdict = verdicts(args.workload, reps)
    samples = {
        "run_s": [r.result["run_s"] for r in untraced],
        "setup_s": setups,
        "cpu_s": [r.result["cpu_s"] for r in untraced],
        "peak_rss_mb": [r.result["peak_rss_mb"] for r in untraced],
    }
    if args.trace:
        metrics = per_layer_metrics(traced, untraced, verdict)
        units = PER_LAYER
        problems = sorted({p for r in traced for p in r.result["trace"]["problems"]})
        verdict["defects"].extend(problems)
    else:
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        units = END_TO_END
    env_info = dict(reps[0].result["env"])
    env_info.update({
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "CHAOSKIT_WORKERS": env["CHAOSKIT_WORKERS"],
        "native_threads": {key: env[key] for key in THREAD_ENV},
        "git_revision": _git_revision(root),
        "source_sha256": _source_digest(root),
        "seed": args.seed,
        "n_paths": n_paths,
        "suites": spec_info["suites"],
        "config": workloads.config_dict(args.workload, args.seed, n_paths, "<run dir>"),
    })
    return {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env_info,
        "samples": samples,
        "tails": {name: tail_percentile(values) for name, values in samples.items()},
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "verdict": verdict,
        "check_s": {
            check: statistics.median(r.result["trace"]["check_s"][check] for r in traced)
            for check in (traced[0].result["trace"]["check_s"] if traced else {})
        },
        "trace_checks": [
            {key: r.result["trace"][key] for key in TRACE_CHECK_KEYS} for r in traced
        ],
        "correct": not verdict["defects"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--paths", type=int, help="override the workload's path count")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    report = run(args)
    out_dir = os.path.join(HERE, "out")
    path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")

    verdict = report["verdict"]
    for name, entry in report["metrics"].items():
        line = f"{name:<36} {entry['value']:.6g} {entry['unit']}"
        values = report["samples"].get(name)
        if values:
            tail = report["tails"][name]
            line += f"  (median of n={len(values)}"
            line += f", p{tail[0]}={tail[1]:.6g})" if tail else ", n too small for a tail percentile)"
        print(line)
    for check in report["trace_checks"]:
        print(f"trace check: self times {check['self_total_s']:.6f} s = traced run "
              f"{check['run_s']:.6f} s + overlap {check['overlap_s']:.6f} s "
              f"(gap {check['identity_gap_s']:.2e} s, glue {check['glue_s']:.6f} s)")
    print(f"records/checks: {verdict['attempted']} attempted, {verdict['failed']} failed")
    for name, value in sorted(verdict["failures"].items()):
        print(f"  failed: {name} = {value}")
    if verdict["known_defect"] and verdict["failed"]:
        print(f"  known defect: {verdict['known_defect']}")
    for defect in verdict["defects"]:
        print(f"  INCORRECT: {defect}")
    print(f"result file: {os.path.relpath(path)}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
