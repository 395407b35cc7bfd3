#!/usr/bin/env python3
"""Snapshot the benchmark into BENCH_<pr>.json at the repository root.

    python3 scripts/bench_snapshot.py --pr N

Runs bench/run.py once per workload and seed (SEEDS, SECONDS timed
seconds) with --trace 0, each in its own process, then TRACED_RUNS times
per workload with --trace 1 at the first seed. Seeds and run length are
fixed so that every snapshot can be compared with the others. The
file holds the machine (nproc, Python and numpy versions), the git
revision, the settings, and per workload the median of each end-to-end
metric over the seeds, the median over the seeds of setup_s's import
phase (median_imports_s, read from each run's bench/out/result-*.json:
re-importing consched from source is a large and noisy share of
setup_s), the failed and attempted job counts, and the median of each
per-layer metric over the traced runs: the counts are the same in every
run, while the seconds move by up to half between back-to-back runs.
Run it on a committed tree: the
revision recorded is HEAD's. Together the files form the project's
performance history; compare two of them only when their machine
entries match.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench" / "run.py"
RESULTS = ROOT / "bench" / "out"  # where bench/run.py writes each run's full result
SEEDS = (9001, 9002, 9003)
SECONDS = 10.0
TRACED_RUNS = 3
MACHINE_KEYS = ("nproc", "python", "numpy", "git_revision")


def run_bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(machine info, result line) of one bench/run.py process."""
    proc = subprocess.run(
        [sys.executable, str(BENCH), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py {workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    machine = next(json.loads(line[len("# machine "):]) for line in lines
                   if line.startswith("# machine "))
    return machine, json.loads(lines[-1])


def median_imports(paths) -> float:
    """Median of setup_phases_s["imports"] over bench/run.py result files."""
    return statistics.median(json.loads(Path(path).read_text())["info"]["setup_phases_s"]
                             ["imports"] for path in paths)


def snapshot(pr: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {}
    machine = None
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            machine, result = run_bench(workload, seed, SECONDS, trace=0)
            runs.append(result)
            print(f"{workload} seed {seed}: wall_s "
                  f"{result['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
        traced = [run_bench(workload, SEEDS[0], SECONDS, trace=1)[1]
                  for _ in range(TRACED_RUNS)]
        workloads[workload] = {
            "median": {m["name"]: statistics.median(r["metrics"][m["name"]]["value"]
                                                    for r in runs)
                       for m in spec["end_to_end"]},
            "units": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "median_imports_s": median_imports(
                RESULTS / f"result-{workload}-seed{seed}-trace0.json" for seed in SEEDS),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "per_layer": {key: statistics.median(r["metrics"][key]["value"] for r in traced)
                          for key in traced[0]["metrics"]},
        }
    return {
        "pr": pr,
        "machine": {key: machine[key] for key in MACHINE_KEYS},
        "settings": {"seeds": list(SEEDS), "seconds": SECONDS, "traced_seed": SEEDS[0],
                     "traced_runs": TRACED_RUNS},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    args = parser.parse_args(argv)
    if args.pr < 0:
        parser.error("--pr must be >= 0")
    data = snapshot(args.pr)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
