"""Fixed-shape observation tensor and candidate-job selection.

The observation has shape [num_nodes, 2 * gpus_per_node, FEATURE_DIM].
The left half mirrors the occupancy grid: each occupied GPU slot holds
the resident job's feature vector. The right half indexes demand shapes:
row i, column j-1 holds a candidate whose demand factors as j * 2^i
(2^i nodes with j GPUs each); a demand with several factorizations
appears in several slots. Unused slots are all zeros, so the tensor
shape never depends on queue length or running-job count.

Feature vector (FEATURE_DIM = 10), all values in [0, 1]:
  [0:6]  model-class one-hot
  [6]    comm/comp ratio / RATIO_SCALE, clipped at 1
  [7]    avg bandwidth / BANDWIDTH_SCALE, clipped at 1
  [8]    last profiled CS, clipped at CS_CAP, / CS_CAP (0 if never profiled)
  [9]    fraction of work done
The normalization constants are fixed, so encodings compare across
episodes and checkpoints.
"""

from __future__ import annotations

import numpy as np

from .cluster import ClusterConfig, ClusterState, demand_shapes
from .contention import CS_CAP
from .errors import ConfigError
from .workload import MODEL_ORDER, JobSpec, JobState

FEATURE_DIM = 10
BANDWIDTH_SCALE = 3000.0
RATIO_SCALE = 15.0


_MODEL_INDEX = {m: k for k, m in enumerate(MODEL_ORDER)}


def _fits(config: ClusterConfig, demand: int, free_per_node: np.ndarray) -> bool:
    """Whether some j * 2^i shape of the demand fits the free GPUs now."""
    return any(int(np.count_nonzero(free_per_node >= j)) >= 2 ** i
               for i, j in demand_shapes(config, demand))


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
    for job in queue:
        if job.gpu_demand in seen:
            continue
        seen.add(job.gpu_demand)
        if _fits(config, job.gpu_demand, free_per_node):
            picked.append(job)
            if len(picked) == k:
                break
    return sorted(picked, key=lambda job: job.gpu_demand)


def feature_vector(spec: JobSpec, state: JobState) -> np.ndarray:
    vec = np.zeros(FEATURE_DIM)
    vec[_MODEL_INDEX[spec.model_class]] = 1.0
    vec[6] = min(spec.profile.comm_comp_ratio / RATIO_SCALE, 1.0)
    vec[7] = min(spec.profile.avg_bandwidth / BANDWIDTH_SCALE, 1.0)
    vec[8] = min(max(state.last_cs, 0.0), CS_CAP) / CS_CAP
    vec[9] = state.fraction_done
    return vec


def encode_state(cluster: ClusterState,
                 candidates: list[JobSpec],
                 job_states: dict[int, JobState]) -> np.ndarray:
    """Pure function (cluster, candidates, job states) -> observation tensor."""
    config = cluster.config
    n, g = config.num_nodes, config.gpus_per_node
    tensor = np.zeros((n, 2 * g, FEATURE_DIM))
    ids = sorted(cluster.placements)  # the job ids in the occupancy grid
    if ids:
        occupied = cluster.occupancy >= 0
        rows = np.array([feature_vector(job_states[jid].spec, job_states[jid]) for jid in ids])
        tensor[:, :g][occupied] = rows[np.searchsorted(ids, cluster.occupancy[occupied])]
    for cand in candidates:
        vec = feature_vector(cand, job_states[cand.id])
        for i, j in demand_shapes(config, cand.gpu_demand):
            tensor[i, g + j - 1] = vec
    return tensor


def dump_state_csv(tensor: np.ndarray, path) -> None:
    """Write the tensor as one CSV grid per feature channel, for inspection."""
    n, cols, fdim = tensor.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# state tensor {n}x{cols}x{fdim}; one grid per feature channel\n")
        for f in range(fdim):
            fh.write(f"# feature {f}\n")
            for node in range(n):
                fh.write(",".join(repr(float(v)) for v in tensor[node, :, f]) + "\n")
