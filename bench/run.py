#!/usr/bin/env python3
"""consched benchmark: one workload per process, metrics as one JSON line.

    python3 bench/run.py --workload compare-backlog --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --smoke

With --trace 0 the run times the workload untraced and prints the
end-to-end metrics; with --trace 1 it runs one traced pass over the same
inputs and prints the per-layer metrics. The last line of standard output
is {"correct", "attempted", "failed", "metrics"}; earlier lines list every
metric with its unit and the machine the numbers come from. --smoke runs
every workload at a tiny size in both modes and checks that each metric
named in BENCHMARK.json is emitted with its unit.

The program under test is the checkout's own src/consched; the run fails
without printing a result when it is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import Tracer, install_layer_spans, layer_metrics
from workloads import WORKLOADS, job_failures

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# numpy links a multithreaded OpenBLAS; one thread keeps runs on a small
# shared machine steady and float results independent of the thread count.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 7  # setup_s is the median of this many fresh set-ups

MODULES = {
    "actions": "consched.actions",
    "cluster": "consched.cluster",
    "engine": "consched.engine",
    "policies": "consched.policies",
    "reports": "consched.reports",
    "workload": "consched.workload",
    "rl_net": "consched.rl.net",
    "rl_checkpoint": "consched.rl.checkpoint",
    "rl_reward": "consched.rl.reward",
    "rl_train": "consched.rl.train",
}


def import_consched() -> SimpleNamespace:
    """Import the checkout's consched afresh, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "consched" or n.startswith("consched.")]:
        del sys.modules[name]
    mods = {alias: importlib.import_module(path) for alias, path in MODULES.items()}
    origin = Path(sys.modules["consched"].__file__).resolve().parent
    if origin != SRC / "consched":
        raise ImportError(f"consched imported from {origin}, not from {SRC / 'consched'}")
    return SimpleNamespace(**mods)


def git_revision() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": BLAS_THREADS,
            "git_revision": git_revision(), "platform": platform.platform()}


class Checks:
    """Per-job invariants and exact repeatability, feeding attempted/failed.

    add() runs inside the measured window and only fingerprints a sample;
    finish() evaluates each trace's first sample once the timing is over.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[int, tuple] = {}  # trace -> (fingerprint, first result)
        self.repeats: dict[int, int] = {}  # trace -> samples after the first
        self.mismatched: set[int] = set()
        self.reports: list = []  # episode reports scored for the outcome metrics

    def add(self, k: int, result) -> None:
        fingerprint = self.workload.fingerprint(result)
        if k not in self.first:
            self.first[k] = (fingerprint, result)
            return
        self.repeats[k] = self.repeats.get(k, 0) + 1
        if fingerprint != self.first[k][0]:
            self.mismatched.add(k)
            self.problems.append(f"trace {k}: repeated sample differs from the first")

    def finish(self) -> None:
        wl = self.workload
        for k, (_fingerprint, result) in sorted(self.first.items()):
            reports, problems = wl.evaluate(k, result)
            self.problems.extend(f"trace {k}: {p}" for p in problems)
            self.reports.extend(reports)
            jobs = len(wl.traces[k]) * len(reports)
            failed = jobs if k in self.mismatched else sum(
                job_failures(wl.traces[k], report) for report in reports)
            samples = 1 + self.repeats.get(k, 0)
            self.attempted += jobs * samples
            self.failed += failed * samples

    def results(self) -> dict[int, object]:
        return {k: result for k, (_fingerprint, result) in self.first.items()}

    def outcome(self, percentile_90) -> dict[str, float]:
        """Job-level metrics pooled over every scored job; round-level ones averaged."""
        jcts = [job.jct for report in self.reports for job in report.jobs]
        return {"avg_jct": statistics.fmean(jcts), "p90_jct": percentile_90(jcts),
                "mean_util": statistics.fmean(r.aggregates["mean_util"] for r in self.reports),
                "mean_cs": statistics.fmean(r.aggregates["mean_cs"] for r in self.reports)}


def setup(name: str, seed: int, smoke: bool):
    """Set up SETUP_REPS times from a fresh import; keep the last one."""
    totals, phases = [], []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        m = import_consched()
        t1 = perf_counter()
        wl = WORKLOADS[name](m, seed, smoke, str(OUT_DIR / ("smoke" if smoke else "runs")))
        rep = wl.setup()
        rep["imports"] = t1 - t0
        totals.append(perf_counter() - t0)
        phases.append(rep)
    medians = {key: statistics.median(p[key] for p in phases) for key in phases[0]}
    return m, wl, statistics.median(totals), medians


def run_untraced(wl, seconds: float, checks: Checks) -> list[tuple[int, float, int]]:
    """Cycle through the traces until `seconds` have passed, at least one pass."""
    samples = []
    start = perf_counter()
    i = 0
    while i < wl.n or perf_counter() - start < seconds:
        k = i % wl.n
        t0 = perf_counter()
        result = wl.run(k)
        dt = perf_counter() - t0
        samples.append((k, dt, wl.rounds(result)))
        checks.add(k, result)
        i += 1
    return samples


def run_traced(m, wl, checks: Checks):
    """One untraced reference sample, then one traced pass over every trace."""
    t0 = perf_counter()
    reference = wl.run(0)
    untraced_s = perf_counter() - t0
    checks.add(0, reference)
    tracer = Tracer()
    install_layer_spans(tracer, m)
    results, times = [], []
    try:
        for k in range(wl.n):
            t0 = perf_counter()
            with tracer.span("bench.sample"):
                results.append(wl.run(k))
            times.append(perf_counter() - t0)
    finally:
        tracer.unwrap_all()
    for k, result in enumerate(results):
        checks.add(k, result)
    return tracer, times[0] / untraced_s - 1.0, times


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    m, wl, setup_s, phases = setup(name, seed, smoke)
    checks = Checks(wl)
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "traces_per_run": wl.n, "setup_phases_s": phases, "machine": machine_info()}
    if trace:
        tracer, overhead, times = run_traced(m, wl, checks)
        checks.finish()  # untraced: evaluation must not add to the layer counts
        metrics = layer_metrics(tracer, phases, wl.final_mean_reward(checks.results()), overhead)
        info["traced_sample_s"] = times
        info["spans_kept"] = len(tracer.span_start)
        info["spans_dropped"] = tracer.dropped
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.npz")
    else:
        samples = run_untraced(wl, seconds, checks)
        checks.finish()
        outcome = checks.outcome(m.engine.percentile_90)
        metrics = {
            "wall_s": (statistics.median(dt for _, dt, _ in samples), "s"),
            "us_per_round": (statistics.median(1e6 * dt / r for _, dt, r in samples), "us"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "avg_jct_sim_s": (outcome["avg_jct"], "s"),
            "p90_jct_sim_s": (outcome["p90_jct"], "s"),
            "mean_util": (outcome["mean_util"], "ratio"),
            "mean_cs": (outcome["mean_cs"], "ratio"),
        }
        info["samples"] = [{"trace": k, "seconds": dt, "rounds": r} for k, dt, r in samples]
    info["problems"] = checks.problems
    return {"correct": not checks.problems and checks.failed == 0,
            "attempted": checks.attempted, "failed": checks.failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()},
            "info": info}


def print_result(result: dict) -> None:
    info = result["info"]
    print(f"# machine {json.dumps(info['machine'], sort_keys=True)}")
    print(f"# workload {info['workload']} seed {info['seed']} trace {info['trace']} "
          f"traces_per_run {info['traces_per_run']}")
    if "samples" in info:
        print(f"# samples {len(info['samples'])} (wall_s and us_per_round are their medians)")
    for problem in info["problems"]:
        print(f"# problem: {problem}")
    for key, metric in result["metrics"].items():
        print(f"{key:32s} {metric['value']!r:>24} {metric['unit']}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"result-{info['workload']}-seed{info['seed']}-trace{info['trace']}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def smoke() -> int:
    """Every workload at a tiny size, both modes; every named metric must appear."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(name, seed=1, seconds=0.0, trace=trace, smoke=True)
            emitted = result["metrics"]
            for metric in spec[group]:
                got = emitted.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    ok = False
                    print(f"FAIL {name} trace={int(trace)}: {metric['name']} "
                          f"{'missing' if got is None else 'unit ' + got['unit']}")
            extra = set(emitted) - {metric["name"] for metric in spec[group]}
            if extra:
                ok = False
                print(f"FAIL {name} trace={int(trace)}: not in BENCHMARK.json: {sorted(extra)}")
            if not result["correct"]:
                ok = False
                print(f"FAIL {name} trace={int(trace)}: {result['info']['problems']} "
                      f"failed {result['failed']}/{result['attempted']}")
            print(f"{name} trace={int(trace)}: {len(emitted)} metrics, "
                  f"{result['attempted']} jobs checked")
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    args = parse_args(argv)
    if not (SRC / "consched" / "__init__.py").is_file():
        print(f"error: no consched package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    print_result(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
