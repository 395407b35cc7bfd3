"""Constant-size action space over placement shapes, plus the Action record.

For a fixed cluster shape the index set per candidate never changes: one
index per (2^i-node subset) in ascending node count then lexicographic
order, plus a final skip index. A candidate's demand determines the GPU
count j = demand / 2^i for each width, and indices whose subset lacks j
free GPUs on some node are masked. Skip is never masked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterConfig, Placement
from .errors import ConfigError

# Node subsets per head that ActionSpace will index: 16 nodes give
# 14,827, 17 nodes 26,860 and 32 nodes about 6.1e8. Each subset is one
# logit per head, and each head's mask spans all of them.
MAX_SUBSETS = 20_000


class ActionSpace:
    """Index <-> (node subset) mapping shared by every candidate head."""

    def __init__(self, config: ClusterConfig):
        count = sum(math.comb(config.num_nodes, 2 ** i) for i in config.node_exponents())
        if count > MAX_SUBSETS:
            raise ConfigError(
                f"{config.num_nodes} nodes give {count:,} node subsets per RL head, above "
                f"the bound of {MAX_SUBSETS:,} (16 nodes at most); the baselines run "
                "on any cluster size")
        self.config = config
        self.subsets: list[tuple[int, tuple[int, ...]]] = []
        # per width: (width, first index, end index, (subsets, width) node ids)
        self._blocks: list[tuple[int, int, int, np.ndarray]] = []
        for i in config.node_exponents():
            combos = list(itertools.combinations(range(config.num_nodes), 2 ** i))
            start = len(self.subsets)
            self.subsets.extend((i, combo) for combo in combos)
            self._blocks.append((2 ** i, start, len(self.subsets),
                                 np.array(combos, dtype=np.intp)))
        self.skip_index = len(self.subsets)
        self.size = len(self.subsets) + 1
        self._placements: dict[tuple[int, int], Placement] = {}

    def placement_for(self, index: int, demand: int) -> Placement:
        """The index's placement for the demand, built once (a Placement is immutable)."""
        placement = self._placements.get((index, demand))
        if placement is None:
            i, combo = self.subsets[index]
            placement = Placement(nodes=combo, gpus_per_node_used=demand // (2 ** i))
            self._placements[index, demand] = placement
        return placement

    def mask_for(self, demand: int | None, free_per_node: np.ndarray) -> np.ndarray:
        """Feasibility mask over indices; only skip is unmasked for demand None.

        A subset of width w is feasible when w divides the demand and each
        of its nodes has demand / w free GPUs, which is tested for all
        subsets of a width at once.
        """
        mask = np.zeros(self.size, dtype=bool)
        mask[self.skip_index] = True
        if demand is None:
            return mask
        free = np.asarray(free_per_node)
        for width, start, end, nodes in self._blocks:
            j = demand // width
            if demand % width == 0 and 1 <= j <= self.config.gpus_per_node:
                mask[start:end] = free[nodes].min(axis=1) >= j
        return mask


@dataclass
class RLDecision:
    """What the policy produced for one round, kept for training."""

    head_actions: np.ndarray  # (K,) int indices into the action space
    masks: np.ndarray  # (K, A) bool
    forced: bool = False  # True when the livelock guard overrode the policy
    # (K, A) contention-model verdict per feasible placement: +1 if it is
    # predicted to raise the round reward, -1 to lower it, else 0
    verdicts: np.ndarray | None = None
    temperature: float = 1.0  # the logits were divided by it before sampling
    pooled: np.ndarray | None = None  # the value input; None when the window was empty
    # (masks.sum(), F) scorer rows in unmasked (head, index) order
    features: np.ndarray | None = None

    @property
    def has_choice(self) -> bool:
        """Whether some head could do more than skip."""
        return bool((self.masks.sum(axis=-1) > 1).any())


@dataclass
class Action:
    """One round's scheduling decision, as the engine applies it.

    placements are applied in order after preemptions; feasibility is
    guaranteed by construction (policies re-check after each placement).
    deferred lists queued jobs the policy could have placed and declined;
    the engine moves each behind its same-demand peers in the queue. The
    empty action (no placements, no preemptions) is the explicit decision
    to schedule nothing this round.
    """

    placements: list[tuple[int, Placement]] = field(default_factory=list)
    preemptions: list[int] = field(default_factory=list)
    rl: RLDecision | None = None
    deferred: list[int] = field(default_factory=list)

    @property
    def is_noop(self) -> bool:
        return not self.placements and not self.preemptions
