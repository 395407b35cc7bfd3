"""The benchmark's workloads: inputs made from the seed, the timed call, checks.

Each workload runs a fixed list of traces derived from the seed; one
sample is one timed call on one trace. The simulated outcomes come from
the first sample of each trace, so they do not depend on how many samples
fit in a run; later samples of the same trace must reproduce it exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from time import perf_counter

# jct >= isolated_runtime up to float rounding of the finish-crossing time
JCT_RTOL = 1e-9


def trace_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def job_failures(trace, report) -> int:
    """Jobs of the trace that are missing, duplicated, unfinished or too fast."""
    expected = {spec.id for spec in trace}
    seen: set[int] = set()
    bad = 0
    for job in report.jobs:
        if job.id not in expected or job.id in seen:
            bad += 1
            continue
        seen.add(job.id)
        if (job.finish is None or job.jct is None
                or job.jct < job.isolated_runtime * (1.0 - JCT_RTOL)):
            bad += 1
    bad += len(expected - seen)
    return min(bad, len(trace))


def _aggregates_key(report) -> tuple:
    agg = report.aggregates
    return tuple(agg[key] for key in sorted(agg))


class Workload:
    """Base: subclasses set the sizes and implement run/rounds/fingerprint/evaluate."""

    name = ""
    jobs = 1
    traces_per_run = 1
    smoke_jobs = 8
    smoke_traces = 1

    def __init__(self, m, seed: int, smoke: bool, out_dir: str):
        self.m = m
        self.seed = seed
        self.out_dir = os.path.join(out_dir, self.name)
        self.n = self.smoke_traces if smoke else self.traces_per_run
        self.num_jobs = self.smoke_jobs if smoke else self.jobs
        self.traces: list = []

    def setup(self) -> dict[str, float]:
        """Everything before round 0; returns seconds per phase."""
        t0 = perf_counter()
        self.traces = [self.make_trace(k) for k in range(self.n)]
        t1 = perf_counter()
        self.m.engine.default_contention_params()  # builds the calibrated CS table
        t2 = perf_counter()
        self.make_net()
        t3 = perf_counter()
        return {"traces": t1 - t0, "table": t2 - t1, "net": t3 - t2}

    def make_net(self) -> None:
        pass

    def trace_spec(self, k: int):
        """Normal mix, every job arriving at t = 0."""
        w = self.m.workload
        return w.TraceSpec(num_jobs=self.num_jobs, mix=w.MIX_PRESETS["normal"],
                           seed=trace_seed(self.seed, k))

    def make_trace(self, k: int) -> list:
        return self.m.workload.generate_trace(self.trace_spec(k))

    def run(self, k: int):
        """The timed call for trace k."""
        raise NotImplementedError

    def rounds(self, result) -> int:
        raise NotImplementedError

    def fingerprint(self, result):
        """A value that repeats exactly when the sample's outputs do."""
        raise NotImplementedError

    def evaluate(self, k: int, result) -> tuple[list, list[str]]:
        """(episode reports to check and score, problems found) for trace k."""
        raise NotImplementedError

    def final_mean_reward(self, results: dict) -> float:
        return 0.0


class CompareBacklog(Workload):
    """`compare` of LAS and SRTF on all-at-zero normal-mix traces, CS preemption off.

    A long queue and almost only idle rounds: placement search dominates.
    """

    name = "compare-backlog"
    jobs = 64
    traces_per_run = 7

    def setup(self):
        phases = super().setup()
        # baselines run without the CS-threshold monitor (README protocol)
        self.episode = self.m.engine.EpisodeConfig(cs_preemption_threshold=None)
        self.policies = [(kind, self.m.policies.make_policy(kind)) for kind in ("las", "srtf")]
        return phases

    def run(self, k):
        cmp = self.m.engine.compare_policies(self.policies, [self.traces[k]], self.episode)
        self.m.reports.write_comparison(cmp, os.path.join(self.out_dir, f"set{k:02d}"),
                                        {"bench_seed": self.seed, "trace_seed": trace_seed(self.seed, k)})
        return cmp

    def rounds(self, cmp):
        return sum(len(rep.rounds) for reps in cmp.reports.values() for rep in reps)

    def fingerprint(self, cmp):
        return tuple(_aggregates_key(rep) for name in cmp.policies for rep in cmp.reports[name])

    def evaluate(self, k, cmp):
        return [rep for name in cmp.policies for rep in cmp.reports[name]], []


class EvalHeavyPoisson(Workload):
    """Deterministic RL-Hybrid from a fresh seed-0 net on heavy-mix Poisson traces.

    The queue stays short, RL inference dominates and CS preemption churns.
    """

    name = "eval-heavy-poisson"
    # Many short traces below saturation: at 0.06 jobs/s (saturation of the
    # 4x8 cluster) a few traces build long queues, and JCT and the cost per
    # round then vary too much from seed to seed to bound a regression.
    jobs = 32
    arrival_rate = 0.04  # jobs per sim-second
    traces_per_run = 20

    def trace_spec(self, k):
        w = self.m.workload
        return w.TraceSpec(num_jobs=self.num_jobs,
                           mix=w.MIX_PRESETS["heavy"], seed=trace_seed(self.seed, k),
                           arrival="poisson", arrival_rate=self.arrival_rate)

    def make_trace(self, k):
        """Poisson arrivals conditioned on the trace's length.

        Arrival times are scaled so the last job arrives at (n - 1) / rate.
        Unscaled, the offered load of a run varies with the sum of its
        exponential gaps, and queueing amplifies that into JCT several-fold.
        """
        trace = super().make_trace(k)
        scale = (len(trace) - 1) / self.arrival_rate / trace[-1].arrival_time
        return [dataclasses.replace(spec, arrival_time=spec.arrival_time * scale)
                for spec in trace]

    def make_net(self):
        m = self.m
        net, space = m.rl_train.make_net(m.cluster.ClusterConfig(), m.rl_train.TrainConfig(seed=0))
        self.policy = m.policies.make_policy("rl-hybrid", net=net, action_space=space,
                                             deterministic=True)

    def setup(self):
        phases = super().setup()
        self.episode = self.m.engine.EpisodeConfig()  # CS preemption on (threshold 2.0)
        return phases

    def run(self, k):
        return self.m.engine.run_episode(self.policy, self.traces[k], self.episode)

    def rounds(self, report):
        return len(report.rounds)

    def fingerprint(self, report):
        return _aggregates_key(report)

    def evaluate(self, k, report):
        return [report], []


class TrainDesk(Workload):
    """`train` with reward branch B on a 64-job normal-mix trace; the checkpoint is checked.

    Sampling, encoding, masks, the net, CS profiling and the update; no
    placement search.
    """

    name = "train-desk"
    jobs = 64
    # One episode per call leaves room for six traces in a run, which narrows
    # the spread across seeds; each episode still samples, records and updates.
    episodes = 1
    traces_per_run = 6

    def _config(self, k):
        m = self.m
        return m.rl_train.TrainConfig(
            episodes=self.episodes,
            checkpoint_path=os.path.join(self.out_dir, f"policy{k:02d}.ckpt"),
            seed=self.seed, weights=m.rl_reward.BRANCHES["B"])

    def run(self, k):
        config = self._config(k)
        net, curves = self.m.rl_train.train(self.traces[k], config)
        self.m.reports.write_training_curves(
            os.path.join(self.out_dir, f"policy{k:02d}_curves.csv"), curves,
            {"bench_seed": self.seed, "trace_seed": trace_seed(self.seed, k)})
        return config, net, curves

    def rounds(self, result):
        return sum(row["rounds"] for row in result[2])

    def fingerprint(self, result):
        config, _net, curves = result
        with open(config.checkpoint_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return digest, tuple(tuple(sorted(row.items())) for row in curves)

    def evaluate(self, k, result):
        """Load the checkpoint back and run it deterministically on its trace."""
        m = self.m
        config, net, curves = result
        problems = []
        if len(curves) != config.episodes:
            problems.append(f"{len(curves)} curve rows for {config.episodes} episodes")
        for row in curves:
            if not all(math.isfinite(float(v)) for v in row.values()):
                problems.append(f"non-finite curve row {row}")
        loaded, _meta = m.rl_checkpoint.load_checkpoint(config.checkpoint_path)
        if loaded.params.keys() != net.params.keys() or any(
                not (loaded.params[key] == net.params[key]).all() for key in net.params):
            problems.append(f"{config.checkpoint_path} does not load back to the trained net")
        space = m.actions.ActionSpace(m.cluster.ClusterConfig())
        policy = m.policies.make_policy("rl-base", net=loaded, action_space=space,
                                        deterministic=True)
        report = m.engine.run_episode(policy, self.traces[k], config.episode,
                                      weights=config.weights)
        return [report], problems

    def final_mean_reward(self, results):
        rewards = [result[2][-1]["mean_reward"] for result in results.values()]
        return sum(rewards) / len(rewards)


WORKLOADS = {cls.name: cls for cls in (CompareBacklog, TrainDesk, EvalHeavyPoisson)}
