#!/usr/bin/env python3
"""How the RL decision path scales with the cluster: 4, 8, 16 and 32 nodes of 8 GPUs.

Per node count it runs a sampled RL-base episode with its trajectory
recorded (a fresh seed-0 net on a normal-mix trace, 128 jobs at seed 3
by default), then a 2-episode training run on the same trace, and
writes one CSV row for each:

    nodes,run,seconds,heads,trials,avg_jct,peak_rss_mb

seconds is the best of --repeats runs, each with a fresh net and
ActionSpace, so no choice list is kept from an earlier run. heads counts
the RL heads priced (RLBasePolicy._trials calls) and trials the
EpisodeCS.trial calls, in one run; avg_jct is the (last) episode's.
peak_rss_mb is the process's peak so far, so with the node counts
ascending it is the largest run's.

    python3 scripts/scale_probe.py --out scale.csv
    python3 scripts/scale_probe.py --src /path/to/other/tree/src --out base.csv

BLAS runs at one thread, as in bench/run.py.
"""

import argparse
import os
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import resource  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def probe(m, nodes: int, jobs: int, seed: int, repeats: int, ckpt: str) -> list[list]:
    """The episode row and the training row for one node count."""
    config = m.cluster.ClusterConfig(num_nodes=nodes)
    trace = m.workload.generate_trace(m.workload.TraceSpec(num_jobs=jobs, seed=seed))
    counts = {"heads": 0, "trials": 0}

    def counting(owner, attr, key):
        original = getattr(owner, attr)

        def counted(*args):
            counts[key] += 1
            return original(*args)

        setattr(owner, attr, counted)
        return original

    def episode():
        net, space = m.train.make_net(config, m.train.TrainConfig(seed=0))
        policy = m.policies.RLBasePolicy(net, space, deterministic=False)
        report = m.engine.run_episode(policy, trace, m.engine.EpisodeConfig(), config,
                                      record_trajectory=True)
        return report.aggregates["avg_jct"]

    def training():
        _, curves = m.train.train(trace, m.train.TrainConfig(episodes=2, seed=0,
                                                             checkpoint_path=ckpt), config)
        return curves[-1]["avg_jct"]

    rows = []
    patched = [(m.policies.RLBasePolicy, "_trials", counting(m.policies.RLBasePolicy,
                                                             "_trials", "heads")),
               (m.engine.EpisodeCS, "trial", counting(m.engine.EpisodeCS, "trial", "trials"))]
    try:
        for run, body in (("episode", episode), ("train", training)):
            best = float("inf")
            for _ in range(repeats):
                counts.update(heads=0, trials=0)
                t0 = perf_counter()
                avg_jct = body()
                best = min(best, perf_counter() - t0)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rows.append([nodes, run, f"{best:.4f}", counts["heads"], counts["trials"],
                         repr(avg_jct), f"{rss:.1f}"])
    finally:
        for owner, attr, original in patched:
            setattr(owner, attr, original)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, nargs="+", default=[4, 8, 16, 32])
    parser.add_argument("--jobs", type=int, default=128)
    parser.add_argument("--seed", type=int, default=3, help="trace seed")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the source tree to probe (default: this checkout's)")
    parser.add_argument("--out", help="CSV path (default: standard output)")
    args = parser.parse_args(argv)
    if args.jobs < 1 or args.repeats < 1 or min(args.nodes) < 1:
        parser.error("--jobs, --repeats and --nodes must be >= 1")
    sys.path.insert(0, os.path.abspath(args.src))
    from consched import cluster, engine, policies, workload
    from consched.rl import train
    m = SimpleNamespace(cluster=cluster, engine=engine, policies=policies, workload=workload,
                        train=train)
    lines = ["nodes,run,seconds,heads,trials,avg_jct,peak_rss_mb"]
    with tempfile.TemporaryDirectory() as tmp:
        for nodes in sorted(args.nodes):
            for row in probe(m, nodes, args.jobs, args.seed, args.repeats,
                             os.path.join(tmp, "probe.ckpt")):
                lines.append(",".join(map(str, row)))
                print(lines[-1], file=sys.stderr)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
