"""Per-decision choice lists for the RL heads, plus the Action record.

Each round a head lists its choices for its candidate's demand: the
feasible placements in ascending width, then lexicographic node order,
at most M per width, then skip. A placement's pack-first prior is
-0.5 * i - 0.02 * r for a 2^i-node subset whose rank among all
itertools.combinations(range(num_nodes), 2^i) is r; skip's is -1. On
4x8 an untrained argmax therefore places like first_fit, while sampling still
explores. On larger clusters the rank term grows with C(num_nodes, 2^i):
lexicographically late subsets become effectively unpickable, and one
ranked low enough sits below skip.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterConfig, ClusterState, Placement, capable_nodes

M = 16  # placements a head lists per width; 4x8 has at most 6, so it lists them all
SKIP_PRIOR = -1.0


def subset_rank(nodes: tuple[int, ...], num_nodes: int) -> int:
    """Rank of ascending nodes among itertools.combinations(range(num_nodes), len(nodes)).

    By the combinatorial number system: C(num_nodes - 1 - nodes[p], k - p)
    subsets first differ from it at position p with a larger node there,
    and those are all the subsets after it.
    """
    k = len(nodes)
    return math.comb(num_nodes, k) - 1 - sum(
        math.comb(num_nodes - 1 - node, k - p) for p, node in enumerate(nodes))


class ActionSpace:
    """Builds a head's choice list on one cluster shape."""

    def __init__(self, config: ClusterConfig):
        self.config = config
        # (nodes, GPUs per node) -> (Placement, prior), built once (a Placement is immutable)
        self._listed: dict[tuple[tuple[int, ...], int], tuple[Placement, float]] = {}

    def mask_for(self, shapes: list[tuple[int, int, list[int]]]) -> np.ndarray:
        """How many choices a head lists per demand shape, then 1 for skip.

        shapes is capable_nodes' (i, j, nodes with j free GPUs) per shape;
        shape i lists the first min(M, C(len(nodes), 2^i)) subsets of its nodes.
        """
        return np.array([*(min(M, math.comb(len(capable), 2 ** i)) for i, _, capable in shapes),
                         1])

    def choices(self, cluster: ClusterState, demand: int) -> tuple[list[Placement], np.ndarray]:
        """The head's listed placements and the prior of each choice, skip's last.

        InvalidDemandError when the demand could never fit an empty cluster.
        """
        placements, prior = [], []
        shapes = list(capable_nodes(cluster, demand))
        for (i, j, capable), count in zip(shapes, self.mask_for(shapes).tolist()):
            for nodes in itertools.islice(itertools.combinations(capable, 2 ** i), count):
                listed = self._listed.get((nodes, j))
                if listed is None:
                    rank = subset_rank(nodes, self.config.num_nodes)
                    listed = (Placement(nodes=nodes, gpus_per_node_used=j), -0.5 * i - 0.02 * rank)
                    self._listed[nodes, j] = listed
                placements.append(listed[0])
                prior.append(listed[1])
        prior.append(SKIP_PRIOR)
        return placements, np.array(prior)


@dataclass
class RLDecision:
    """What the policy produced for one round, kept for training.

    One head per window candidate, in the window's order. A head's
    choices are its listed placements, then skip; prior, verdicts and
    features hold one row per choice, in (head, choice) order. A round
    with an empty window has no heads and no rows.
    """

    choices: list[list[Placement]] = field(default_factory=list)  # per head, skip not listed
    chosen: list[int] = field(default_factory=list)  # per head; len(choices[head]) is skip
    forced: bool = False  # True when the livelock guard overrode the policy
    prior: np.ndarray | None = None  # pack-first prior per choice (see ActionSpace)
    # contention-model verdict per choice: +1 if the placement is
    # predicted to raise the round reward, -1 to lower it, else 0 (skip)
    verdicts: np.ndarray | None = None
    temperature: float = 1.0  # the logits were divided by it before sampling
    pooled: np.ndarray | None = None  # the value input; None when the window was empty
    features: np.ndarray | None = None  # (choices, F) scorer rows

    @property
    def has_choice(self) -> bool:
        """Whether some head could do more than skip."""
        return any(self.choices)


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
