"""Command-line entry point: gen-trace, train, eval, compare.

Every command is deterministic given its flags (seed included); output
files embed the resolved configuration. Exit codes: 0 success, 2 usage
error, 3 file/parse error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__
from .actions import ActionSpace
from .cluster import ClusterConfig
from .config import output_root, parse_config_file
from .contention import ContentionParams, load_cs_table
from .encoding import write_scorer_rows
from .engine import EpisodeConfig, compare_policies, run_episode
from .errors import (CheckpointError, ConfigError, ConschedError, TraceParseError,
                     UsageError)
from .policies import POLICY_KINDS, make_policy
from .rl.checkpoint import ensure_compatible, load_checkpoint
from .rl.reward import BRANCHES, RewardWeights
from .rl.train import TrainConfig, architecture, train
from .reports import (write_comparison, write_episode_report, write_summary,
                      write_training_curves)
from .workload import (MIX_PRESETS, TraceSpec, check_trace, generate_trace, parse_mix,
                       read_trace, write_trace)

EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_RUNTIME = 4

RL_POLICIES = ("rl-base", "rl-hybrid")  # the policies that read --checkpoint


# cluster flag (config-file key) -> ClusterConfig field
CLUSTER_FLAGS = {"nodes": "num_nodes", "gpus_per_node": "gpus_per_node",
                 "inter_bw": "inter_node_bandwidth", "intra_bw": "intra_node_bandwidth"}


def _add_cluster_flags(parser):
    c = ClusterConfig
    parser.add_argument("--config", default=None,
                        help="file of key = value defaults for the cluster flags")
    parser.add_argument("--nodes", type=int, help=f"cluster nodes (default {c.num_nodes})")
    parser.add_argument("--gpus-per-node", type=int,
                        help=f"GPUs per node (default {c.gpus_per_node})")
    parser.add_argument("--inter-bw", type=float,
                        help=f"inter-node bandwidth MB/s (default {c.inter_node_bandwidth})")
    parser.add_argument("--intra-bw", type=float,
                        help=f"intra-node bus bandwidth MB/s (default {c.intra_node_bandwidth})")


def _add_episode_flags(parser):
    e = EpisodeConfig
    parser.add_argument("--round-interval", type=float, help="scheduling round length in "
                        f"sim-seconds (default {e.round_interval})")
    parser.add_argument("--cs-threshold", type=float, help="CS preemption threshold "
                        f"(default {e.cs_preemption_threshold}); <=1 disables")
    parser.add_argument("--restore-penalty", type=float, help="restore penalty after "
                        f"preemption, sim-seconds (default {e.restore_penalty})")
    parser.add_argument("--contention-mode", choices=("table", "synthetic", "off"),
                        default=None, help="CS mode (default: calibrated table); "
                        "off sets every CS to 1")
    parser.add_argument("--cs-table", default=None, help="path to a CS table file")


def _add_run_flags(parser):
    """The flags train, eval and compare share."""
    parser.add_argument("--branch", default=None, help="reward preset A..E")
    parser.add_argument("--w1", type=float, default=None)
    parser.add_argument("--w2", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default=None)
    _add_cluster_flags(parser)
    _add_episode_flags(parser)


@contextmanager
def _naming(kind: str, path):
    """A parse error, bad value or non-UTF-8 text in the block is a file error naming path."""
    try:
        yield
    except (TraceParseError, ConfigError, UnicodeDecodeError) as exc:
        raise TraceParseError(f"{kind} {path}: {exc}") from exc


def _cluster_config(args) -> ClusterConfig:
    """Each cluster flag over the --config file's value over the default; the
    file may hold no other key."""
    fields = {}
    with _naming("config file", args.config):
        for key, text in (parse_config_file(args.config) if args.config else {}).items():
            if key not in CLUSTER_FLAGS:
                raise TraceParseError(f"unknown config key {key!r}; "
                                      f"the keys read are {', '.join(CLUSTER_FLAGS)}")
            name = CLUSTER_FLAGS[key]
            try:  # as the type of the default: every key read is an int or a float
                fields[name] = type(getattr(ClusterConfig, name))(text)
            except ValueError as exc:
                raise TraceParseError(f"config key {key!r}: {exc}") from exc
    fields.update((name, getattr(args, key)) for key, name in CLUSTER_FLAGS.items()
                  if getattr(args, key) is not None)
    try:
        return ClusterConfig(**fields)
    except ConfigError as exc:
        raise UsageError(f"bad cluster flags: {exc}") from exc


def _episode_config(args) -> EpisodeConfig:
    if args.cs_table and args.contention_mode in ("synthetic", "off"):
        raise UsageError("--cs-table gives table-mode values; it cannot go with "
                         f"--contention-mode {args.contention_mode}")
    given = {"round_interval": args.round_interval, "restore_penalty": args.restore_penalty,
             "cs_preemption_threshold": args.cs_threshold}
    fields = {key: value for key, value in given.items() if value is not None}
    if args.cs_threshold is not None and args.cs_threshold <= 1.0:
        fields["cs_preemption_threshold"] = None
    if args.cs_table:
        with _naming("CS table", args.cs_table):
            table = load_cs_table(args.cs_table)
        fields["contention"] = ContentionParams(mode="table", table=table)
    elif args.contention_mode in ("synthetic", "off"):
        fields["contention"] = ContentionParams(mode=args.contention_mode)
    try:
        return EpisodeConfig(**fields)
    except ConfigError as exc:
        raise UsageError(f"bad episode flags: {exc}") from exc


def _weights(args) -> RewardWeights:
    if args.branch is not None:
        if args.w1 is not None or args.w2 is not None:
            raise UsageError("--branch sets the reward weights: "
                             "give --branch or --w1/--w2, not both")
        branch = args.branch.upper()
        if branch not in BRANCHES:
            raise UsageError(f"unknown branch {args.branch!r}; valid: A B C D E")
        return BRANCHES[branch]
    if args.w1 is not None:
        if not 0.0 <= args.w1 <= 1.0:
            raise UsageError(f"--w1 must be in [0, 1], got {args.w1}")
        if args.w2 is not None and abs(args.w1 + args.w2 - 1.0) > 1e-12:
            raise UsageError(f"w1 + w2 must equal 1, got {args.w1} + {args.w2}")
        return RewardWeights(args.w1)
    if args.w2 is not None:
        raise UsageError("--w2 needs --w1 (w2 = 1 - w1)")
    return RewardWeights()


# flags whose resolved values _provenance records under their own names
RESOLVED_FLAGS = {*CLUSTER_FLAGS, "round_interval", "cs_threshold", "restore_penalty",
                  "contention_mode", "w1", "w2"}


def _provenance(args, cluster: ClusterConfig, episode: EpisodeConfig, weights: RewardWeights,
                extra: dict) -> dict:
    """The flags given, --config and --cs-table paths included, with the cluster,
    episode and reward flags replaced by the settings they resolve to."""
    fields = {k: v for k, v in vars(args).items()
              if k != "func" and k not in RESOLVED_FLAGS and v is not None}
    fields.update(dataclasses.asdict(cluster), round_interval=episode.round_interval,
                  cs_preemption_threshold=episode.cs_preemption_threshold,
                  restore_penalty=episode.restore_penalty, contention=episode.contention.mode,
                  w1=weights.w1, version=__version__, **extra)
    return fields


def _write_manifest(out_dir, provenance: dict) -> None:
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(provenance, sort_keys=True, indent=1, default=str) + "\n")


def _load_traces(paths, cluster_config) -> list:
    """The traces' jobs; a job no placement shape of the cluster fits is a file error."""
    traces = []
    for path in paths:
        if not os.path.exists(path):
            raise TraceParseError(f"trace file {path} does not exist")
        with _naming("trace file", path):
            jobs = read_trace(path)
            check_trace(jobs, cluster_config)
        traces.append(jobs)
    return traces


def _experiment_id(kind: str, names: str, trace_paths, seed) -> str:
    stems = "+".join(os.path.splitext(os.path.basename(p))[0] for p in trace_paths[:3])
    if len(trace_paths) > 3:
        stems += f"+{len(trace_paths) - 3}more"
    return f"{kind}_{names}_{stems}_s{seed}"


def _policy_for(kind: str, args, cluster_config):
    if kind in RL_POLICIES:
        if not args.checkpoint:
            raise UsageError(f"policy {kind} requires --checkpoint")
        net, _meta = load_checkpoint(args.checkpoint)
        ensure_compatible(net.arch, architecture(net.arch.k, net.arch.hidden),
                          path=args.checkpoint)
        return make_policy(kind, net=net, action_space=ActionSpace(cluster_config))
    return make_policy(kind)


def cmd_gen_trace(args) -> int:
    try:
        mix = parse_mix(args.mix)
    except (ConfigError, ValueError) as exc:
        raise UsageError(f"bad --mix: {exc}; presets: {', '.join(MIX_PRESETS)}") from exc
    cluster = _cluster_config(args)
    try:
        spec = TraceSpec(num_jobs=args.jobs, mix=mix, seed=args.seed,
                         isolated_hours=args.isolated_hours, time_scale=args.time_scale,
                         jitter=args.jitter, demand_cap=args.demand_cap,
                         demand_profile=args.demand_profile,
                         arrival=args.arrival, arrival_rate=args.arrival_rate)
    except ConfigError as exc:
        raise UsageError(f"bad trace flags: {exc}") from exc
    jobs = generate_trace(spec, cluster)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    write_trace(jobs, spec, args.out)
    print(f"wrote {len(jobs)} jobs to {args.out}")
    return 0


def cmd_train(args) -> int:
    cluster = _cluster_config(args)
    episode = _episode_config(args)
    weights = _weights(args)
    ckpt_dir = os.path.join(output_root(args.out_dir), "checkpoints")
    name = args.name or f"policy_w1-{weights.w1!r}_s{args.seed}"
    ckpt_path = os.path.join(ckpt_dir, name + ".ckpt")
    try:
        config = TrainConfig(
            episodes=args.episodes, checkpoint_path=ckpt_path, lr=args.lr,
            gamma=args.gamma, entropy_coef=args.entropy_coef, seed=args.seed,
            k=args.k, weights=weights, episode=episode)
    except ConfigError as exc:
        raise UsageError(f"bad training flags: {exc}") from exc
    traces = _load_traces([args.trace], cluster)
    trace_id = os.path.basename(args.trace)
    net, curves = train(traces[0], config, cluster, metadata={"trace": trace_id})
    curves_path = os.path.join(ckpt_dir, name + "_curves.csv")
    write_training_curves(curves_path, curves,
                          _provenance(args, cluster, episode, weights, {"checkpoint": ckpt_path}))
    print(f"saved checkpoint {ckpt_path}")
    print(f"wrote training curves {curves_path}")
    return 0


def _set_up(args, kind: str, names: list[str]):
    """The set-up eval and compare share. Checks the policy names and the flags
    that need an RL policy first; returns (policies, traces, episode, cluster,
    weights, report directory, provenance) and makes no directory."""
    for name in names:
        if name not in POLICY_KINDS:
            raise UsageError(f"unknown policy {name!r}; valid: {', '.join(POLICY_KINDS)}")
    dump_rounds = getattr(args, "dump_state_rounds", 0)
    if dump_rounds < 0:
        raise UsageError("--dump-state-rounds must be >= 0")
    if not any(name in RL_POLICIES for name in names):
        if dump_rounds:
            raise UsageError(f"--dump-state-rounds needs an RL policy: {','.join(names)} "
                             "scores no placements")
        if args.checkpoint:
            raise UsageError("--checkpoint needs an RL policy (rl-base or rl-hybrid); "
                             f"got {','.join(names)}")
    cluster = _cluster_config(args)
    episode = _episode_config(args)
    weights = _weights(args)
    traces = _load_traces(args.trace, cluster)
    policies = [(name, _policy_for(name, args, cluster)) for name in names]
    exp_id = args.name or _experiment_id(kind, "+".join(names), args.trace, args.seed)
    out_dir = os.path.join(output_root(args.out_dir), "reports", exp_id)
    return (policies, traces, episode, cluster, weights, out_dir,
            _provenance(args, cluster, episode, weights, {"experiment": exp_id}))


def cmd_eval(args) -> int:
    [(_, policy)], traces, episode, cluster, weights, out_dir, provenance = _set_up(
        args, "eval", [args.policy])
    # every episode runs before the report directory is made, so a run
    # that fails leaves no directory behind
    reports = [run_episode(policy, trace, episode, cluster, weights=weights,
                           rng=np.random.default_rng([args.seed, k]),
                           record_trajectory=args.dump_state_rounds > 0)
               for k, trace in enumerate(traces)]
    os.makedirs(out_dir, exist_ok=True)
    pooled = {}
    for k, report in enumerate(reports):
        # a decision with a window had a choice, so it holds for one
        # round: its run is that round
        scored = [(first, step) for _, first, _, step, _ in report.rounds.runs
                  if step is not None and step.has_choice]
        for r, step in scored[:args.dump_state_rounds]:
            write_scorer_rows(step, r, os.path.join(out_dir, f"scorer_set{k:02d}_round{r}.csv"))
        write_episode_report(report, os.path.join(out_dir, f"set{k:02d}"), provenance)
        for key, value in report.aggregates.items():
            pooled.setdefault(key, []).append(value)
    summary = {f"mean_{k}": sum(v) / len(v) for k, v in pooled.items()}
    summary["num_sets"] = len(traces)
    write_summary(os.path.join(out_dir, "summary.txt"), summary, provenance)
    _write_manifest(out_dir, provenance)
    print(f"wrote reports under {out_dir}")
    return 0


def cmd_compare(args) -> int:
    names = [p.strip() for p in args.policies.split(",") if p.strip()]
    if len(names) < 2:
        raise UsageError("--policies needs at least two comma-separated policy names")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise UsageError(f"--policies names {', '.join(repeated)} more than once")
    policies, traces, episode, cluster, weights, out_dir, provenance = _set_up(
        args, "compare", names)
    cmp = compare_policies(policies, traces, episode, cluster, weights)
    write_comparison(cmp, out_dir, provenance)
    _write_manifest(out_dir, provenance)
    for (a, b), deltas in sorted(cmp.deltas.items()):
        print(f"{a} vs {b}: " + " ".join(f"{m} {d:+.1f}%" for m, d in deltas.items()))
    print(f"wrote comparison under {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consched",
        description="Contention-aware GPU cluster scheduling simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-trace", help="generate a job trace file")
    p.add_argument("--mix", default="normal",
                   help="preset (normal, heavy, medium, low) or 6 ratios a:b:c:d:e:f")
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--isolated-hours", type=float, default=1.0)
    p.add_argument("--time-scale", type=float, default=1.0 / 60.0)
    p.add_argument("--jitter", type=float, default=0.2)
    p.add_argument("--demand-cap", type=int, default=32)
    p.add_argument("--demand-profile", choices=("small-skew", "uniform"), default="small-skew")
    p.add_argument("--arrival", choices=("all-at-zero", "poisson"), default="all-at-zero")
    p.add_argument("--arrival-rate", type=float, default=1.0)
    _add_cluster_flags(p)
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("train", help="train an RL scheduling policy")
    p.add_argument("--trace", required=True)
    p.add_argument("--episodes", type=int, default=TrainConfig.episodes)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--gamma", type=float, default=TrainConfig.gamma)
    p.add_argument("--entropy-coef", type=float, default=TrainConfig.entropy_coef)
    p.add_argument("--k", type=int, default=TrainConfig.k)
    p.add_argument("--name", default=None, help="checkpoint name stem")
    _add_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate one policy on trace sets")
    p.add_argument("--policy", required=True)
    p.add_argument("--trace", action="append", required=True,
                   help="trace file; repeat for multiple job sets")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--name", default=None)
    p.add_argument("--dump-state-rounds", type=int, default=0,
                   help="RL policies: dump the scorer rows of the first N decisions "
                        "with a window per set as CSV, named by round")
    _add_run_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="compare policies over shared traces")
    p.add_argument("--policies", required=True, help="comma-separated policy names")
    p.add_argument("--trace", action="append", required=True)
    p.add_argument("--checkpoint", default=None, help="checkpoint for RL policies")
    p.add_argument("--name", default=None)
    _add_run_flags(p)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TraceParseError, OSError, UnicodeDecodeError, CheckpointError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except (ConschedError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
