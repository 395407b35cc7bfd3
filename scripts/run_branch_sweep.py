#!/usr/bin/env python3
"""Train reward-weight branches A-E and evaluate RL-base / RL-Hybrid
against LAS and SRTF, emitting the per-branch (avg JCT, utilization)
scatter points plus full comparison reports for one trace family.

Usage:
    python scripts/run_branch_sweep.py --mix normal --out runs/sweep-normal
    python scripts/run_branch_sweep.py --mix heavy --eval-seeds 5 --jobs 64
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from consched.cluster import ClusterConfig
from consched.engine import METRICS, EpisodeConfig, compare_policies
from consched.policies import RLBasePolicy, RLHybridPolicy, make_policy
from consched.reports import write_csv, write_points, write_training_curves
from consched.rl.reward import BRANCHES
from consched.rl.train import TrainConfig, make_net, train
from consched.workload import MIX_PRESETS, TraceSpec, generate_trace


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mix", default="normal", choices=sorted(MIX_PRESETS))
    parser.add_argument("--jobs", type=int, default=64)
    parser.add_argument("--episodes", type=int, default=20)
    parser.add_argument("--train-seed", type=int, default=101)
    parser.add_argument("--eval-seeds", type=int, default=5)
    parser.add_argument("--seed0", type=int, default=201, help="first eval trace seed")
    parser.add_argument("--out", default="runs/branch-sweep")
    args = parser.parse_args()

    cluster = ClusterConfig()
    ep_system = EpisodeConfig()  # RL runs under CS-threshold preemption
    ep_classic = EpisodeConfig(cs_preemption_threshold=None)  # agnostic baselines
    os.makedirs(args.out, exist_ok=True)

    train_trace = generate_trace(TraceSpec(
        num_jobs=args.jobs, seed=args.train_seed, mix=MIX_PRESETS[args.mix]))
    eval_traces = [generate_trace(TraceSpec(
        num_jobs=args.jobs, seed=args.seed0 + k, mix=MIX_PRESETS[args.mix]))
        for k in range(args.eval_seeds)]

    rows, scatter = [], []

    def evaluate(policies, episode_config):
        """One sweep row and scatter point per policy: its means over the eval traces."""
        cmp = compare_policies(policies, eval_traces, episode_config, cluster)
        for name in cmp.policies:
            agg = cmp.per_policy[name]
            rows.append((name, *(agg[m] for m in METRICS)))
            scatter.append((agg["avg_jct"], agg["mean_util"]))
            print(f"{name:12s} avg_jct={agg['avg_jct']:8.1f} util={agg['mean_util']:.3f} "
                  f"cs={agg['mean_cs']:.3f}")

    evaluate([(name, make_policy(name)) for name in ("las", "srtf", "greedy")], ep_classic)

    _, space = make_net(cluster, TrainConfig())
    for branch, weights in BRANCHES.items():
        ckpt = os.path.join(args.out, f"branch_{branch}.ckpt")
        cfg = TrainConfig(episodes=args.episodes, seed=0, weights=weights,
                          episode=ep_system, checkpoint_path=ckpt)
        net, curves = train(train_trace, cfg, cluster)
        write_training_curves(os.path.join(args.out, f"branch_{branch}_curves.csv"),
                              curves, {"branch": branch, "mix": args.mix})
        evaluate([(f"rl-base-{branch}", RLBasePolicy(net, space)),
                  (f"rl-hybrid-{branch}", RLHybridPolicy(net, space))], ep_system)

    provenance = {"mix": args.mix, "jobs": args.jobs, "episodes": args.episodes,
                  "train_seed": args.train_seed, "eval_seeds": args.eval_seeds}
    write_csv(os.path.join(args.out, "sweep.csv"),
              ("policy", *METRICS),
              rows, provenance)
    write_points(os.path.join(args.out, "jct_util_scatter.csv"), scatter,
                 "avg_jct,mean_util (rows follow sweep.csv order)", provenance)
    print(f"wrote {args.out}/sweep.csv and jct_util_scatter.csv")


if __name__ == "__main__":
    main()
