"""Physical cluster model: job placements and the free GPUs they leave.

Nodes are dense integers 0..num_nodes-1, each with gpus_per_node GPUs.
A placement always spans 2^i nodes with the same GPU count j on each,
so a job's total demand factors as j * 2^i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (
    AllocationConflictError,
    ConfigError,
    InvalidDemandError,
    InvalidPlacementError,
    NotFoundError,
)

@dataclass(frozen=True)
class ClusterConfig:
    """Cluster shape and link capacities (bandwidths in MB/s).

    Defaults follow a 10 Gb/s Ethernet fabric (1250 MB/s per node link)
    and a 16 GB/s PCIe Gen3 host bus per node.
    """

    num_nodes: int = 4
    gpus_per_node: int = 8
    inter_node_bandwidth: float = 1250.0
    intra_node_bandwidth: float = 16000.0

    def __post_init__(self):
        if self.num_nodes < 1 or self.gpus_per_node < 1:
            raise ConfigError("cluster needs at least 1 node and 1 GPU per node")
        if not (0 < self.inter_node_bandwidth < np.inf and 0 < self.intra_node_bandwidth < np.inf):
            raise ConfigError("bandwidths must be positive and finite")

    @property
    def total_gpus(self) -> int:
        return self.num_nodes * self.gpus_per_node

    def node_exponents(self):
        """Exponents i with 2^i <= num_nodes (feasible placement widths)."""
        exps = []
        i = 0
        while 2 ** i <= self.num_nodes:
            exps.append(i)
            i += 1
        return exps


@dataclass(frozen=True)
class Placement:
    """2^i nodes with the same number of GPUs used on each."""

    nodes: tuple[int, ...]
    gpus_per_node_used: int

    def __post_init__(self):
        n = len(self.nodes)
        if n < 1 or (n & (n - 1)) != 0:
            raise InvalidPlacementError(f"node count {n} is not a power of two")
        if len(set(self.nodes)) != n:
            raise InvalidPlacementError(f"duplicate nodes in {self.nodes}")
        if self.gpus_per_node_used < 1:
            raise InvalidPlacementError("gpus_per_node_used must be >= 1")
        object.__setattr__(self, "nodes", tuple(self.nodes))

    @property
    def total_gpus(self) -> int:
        return len(self.nodes) * self.gpus_per_node_used


class ClusterState:
    """The placements map and the counts derived from it, kept consistent.

    Single-writer: one episode owns and mutates its ClusterState. Next to
    placements (job id -> Placement) it keeps the free GPUs per node
    (free_per_node), the used GPU count (used) and the jobs resident on
    each node (residents), all updated by allocate and free, so readers
    and the contention model's neighbour lookups need no scan. Copies
    serve the what-if placements of the greedy scans and of an RL
    decision's heads; the RL verdicts price each trial placement without
    one. version counts the allocate and free calls, so an owner can tell
    whether the placements changed since it last looked.
    """

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.placements: dict[int, Placement] = {}
        self.free_per_node = np.full(config.num_nodes, config.gpus_per_node, dtype=np.int64)
        self.used = 0
        self.residents: list[set[int]] = [set() for _ in range(config.num_nodes)]
        self.version = 0

    def copy(self) -> "ClusterState":
        dup = ClusterState.__new__(ClusterState)
        dup.config = self.config
        dup.placements = dict(self.placements)
        dup.free_per_node = self.free_per_node.copy()
        dup.used = self.used
        dup.residents = [set(jobs) for jobs in self.residents]
        dup.version = self.version
        return dup

    def utilization(self) -> float:
        """Ratio of used GPUs to total GPUs."""
        return self.used / self.config.total_gpus

    def allocate(self, job_id: int, placement: Placement) -> "ClusterState":
        """Place job_id, taking the placement's GPUs. State unchanged on error."""
        if job_id in self.placements:
            raise AllocationConflictError(f"job {job_id} is already placed")
        j = placement.gpus_per_node_used
        if j > self.config.gpus_per_node:
            raise InvalidPlacementError(
                f"{j} GPUs per node exceeds node size {self.config.gpus_per_node}")
        for node in placement.nodes:
            if node < 0 or node >= self.config.num_nodes:
                raise InvalidPlacementError(f"unknown node {node}")
        for node in placement.nodes:
            if self.free_per_node[node] < j:
                raise AllocationConflictError(
                    f"node {node} has {self.free_per_node[node]} free GPUs, needs {j}")
        for node in placement.nodes:
            self.free_per_node[node] -= j
            self.residents[node].add(job_id)
        self.used += placement.total_gpus
        self.placements[job_id] = placement
        self.version += 1
        return self

    def free(self, job_id: int) -> "ClusterState":
        """Give back all GPUs of a placed job."""
        placement = self.placements.pop(job_id, None)
        if placement is None:
            raise NotFoundError(f"job {job_id} is not placed")
        for node in placement.nodes:
            self.free_per_node[node] += placement.gpus_per_node_used
            self.residents[node].discard(job_id)
        self.used -= placement.total_gpus
        self.version += 1
        return self

    def audit(self) -> None:
        """Rebuild the counts from placements and compare; raises on drift."""
        config = self.config
        free = np.full(config.num_nodes, config.gpus_per_node, dtype=np.int64)
        residents: list[set[int]] = [set() for _ in range(config.num_nodes)]
        for job_id, placement in self.placements.items():
            for node in placement.nodes:
                free[node] -= placement.gpus_per_node_used
                residents[node].add(job_id)
        if (free < 0).any():
            raise AllocationConflictError(f"placements overfill nodes {np.flatnonzero(free < 0)}")
        if not np.array_equal(self.free_per_node, free):
            raise AllocationConflictError("free-GPU vector disagrees with placements")
        if self.used != config.total_gpus - int(free.sum()):
            raise AllocationConflictError("used-GPU count disagrees with placements")
        if self.residents != residents:
            raise AllocationConflictError("resident sets disagree with placements")


@cache
def demand_shapes(config: ClusterConfig, demand: int) -> tuple[tuple[int, int], ...]:
    """All (i, j) with j * 2^i == demand feasible on the cluster shape."""
    return tuple((i, demand // 2 ** i) for i in config.node_exponents()
                 if demand % 2 ** i == 0 and 1 <= demand // 2 ** i <= config.gpus_per_node)


def capable_nodes(cluster: ClusterState, demand: int):
    """(i, j, nodes with >= j free GPUs) per demand shape, in shape order."""
    config = cluster.config
    if demand <= 0 or demand > config.total_gpus:
        raise InvalidDemandError(
            f"demand {demand} outside [1, {config.total_gpus}]")
    free = cluster.free_per_node.tolist()
    for i, j in demand_shapes(config, demand):
        yield i, j, [n for n, f in enumerate(free) if f >= j]


def first_fit(cluster: ClusterState, demand: int) -> Placement | None:
    """The first feasible placement, in ascending width then lexicographic node order, or None.

    The first combination of a shape is its lowest-numbered capable
    nodes, so no other combination is built. It is the first choice an
    RL head lists (ActionSpace.choices).
    """
    for i, j, capable in capable_nodes(cluster, demand):
        if len(capable) >= 2 ** i:
            return Placement(nodes=tuple(capable[:2 ** i]), gpus_per_node_used=j)
    return None
