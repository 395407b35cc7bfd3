"""The RL policies' inputs: the candidate window, scorer rows and the pooled value input.

A scorer row (SCORER_FEATURES) describes one (window candidate, feasible
placement) pair by its contention trial (policies.RLBasePolicy._trials)
and the candidate's own features (job_features); a skip row keeps only
the latter. The pooled value input (POOLED_FEATURES) describes a
decision round. A CS enters clipped at CS_CAP, minus 1, and the other
scales are fixed, so inputs compare across episodes, clusters and
checkpoints. The README's RL section defines each feature.
"""

from __future__ import annotations

import numpy as np

from .cluster import ClusterConfig, demand_shapes
from .contention import CS_CAP
from .errors import ConfigError
from .workload import JobSpec, JobState

BANDWIDTH_SCALE = 3000.0
RATIO_SCALE = 15.0
SCORER_FEATURES = ("cs", "max_rise", "sum_rise", "d_util", "width", "free_left",
                   "comm_ratio", "bandwidth", "progress")
POOLED_FEATURES = ("util", "running", "queued", "mean_cs", "max_cs", "window_demand",
                   "window_comm_ratio", "window_bandwidth", "window_progress")


def _fits(config: ClusterConfig, demand: int, ranked: list[int]) -> bool:
    """Whether some j * 2^i shape fits: ranked (free GPUs per node, descending) has j at 2^i - 1."""
    return any(ranked[2 ** i - 1] >= j for i, j in demand_shapes(config, demand))


def window_candidates(queue: list[JobSpec], k: int, config: ClusterConfig,
                      free_per_node: np.ndarray) -> list[JobSpec]:
    """The RL policies' K-candidate window.

    The first queued job of each distinct demand that fits the free GPUs,
    scanning from the head, up to k of them. A job that cannot fit never
    takes a head, so backfill stays possible. The heads are returned in
    ascending demand order, and each head sees the GPUs the earlier ones
    left free, so the smallest demand is offered first. Runtimes are
    unknown to the window, so a job's expected GPU-time grows with its
    demand, and serving the least expected service first lowers mean
    JCT; Tiresias ranks jobs by GPU-time for the same reason. The order
    trades tail JCT for mean JCT and is independent of contention.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    picked: list[JobSpec] = []
    seen: set[int] = set()
    ranked = sorted(free_per_node.tolist(), reverse=True)
    for job in queue:
        if job.gpu_demand in seen:
            continue
        seen.add(job.gpu_demand)
        if _fits(config, job.gpu_demand, ranked):
            picked.append(job)
            if len(picked) == k:
                break
    return sorted(picked, key=lambda job: job.gpu_demand)


def clipped_cs(cs: float) -> float:
    """A CS as the RL inputs see it: clipped at CS_CAP, minus 1 (0 is uncontended)."""
    return min(cs, CS_CAP) - 1.0


def job_features(state: JobState) -> tuple[float, float, float]:
    """A job's own scorer features: comm_ratio, bandwidth and progress."""
    profile = state.spec.profile
    return (min(profile.comm_comp_ratio / RATIO_SCALE, 1.0),
            min(profile.avg_bandwidth / BANDWIDTH_SCALE, 1.0), state.fraction_done)


def encode_state(utilization: float, total: int, profile: dict[int, float], queued: int,
                 demand: int, own: list[tuple[float, float, float]]) -> np.ndarray:
    """A round's pooled value input, from what its decision saw: the cluster's
    utilization and total GPUs, the placed jobs' CS map (profile), the queue
    size, the window's summed demand and its candidates' job_features."""
    cs = [clipped_cs(v) for v in profile.values()] or [0.0]
    return np.array([utilization, len(profile) / total, queued / total,
                     sum(cs) / len(cs), max(cs), demand / total,
                     *(sum(column) / len(own) for column in zip(*own))])


def write_scorer_rows(decision, round_index: int, path) -> None:
    """A recorded decision's scorer rows as CSV, one per (head, choice), with the
    placement (nodes joined by '-', blank for skip), its verdict and whether the
    head chose it; a comment line holds the pooled input."""
    pooled = ",".join(f"{n}={v!r}" for n, v in zip(POOLED_FEATURES, decision.pooled.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# round {round_index}; pooled value input: {pooled}\n")
        fh.write(",".join(("head", "choice", "nodes", "gpus_per_node", "verdict", "chosen",
                           *SCORER_FEATURES)) + "\n")
        for head, (choices, pick, (_, verdicts, rows)) in enumerate(
                zip(decision.choices, decision.chosen, decision.heads)):
            for choice, (placement, verdict, row) in enumerate(
                    zip([*choices, None], verdicts.tolist(), rows.tolist())):
                nodes = "-".join(map(str, placement.nodes)) if placement else ""
                gpus = placement.gpus_per_node_used if placement else ""
                fh.write(f"{head},{choice},{nodes},{gpus},{verdict!r},{int(choice == pick)},"
                         + ",".join(map(repr, row)) + "\n")
