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
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterConfig, ClusterState, Placement, capable_nodes

M = 16  # placements a head lists per width; 4x8 has at most 6, so it lists them all
SKIP_PRIOR = -1.0
CHOICE_MEMO = 2048  # lists an ActionSpace keeps; one is at most about 2 KB on 32 nodes


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
    """Builds a head's choice list on one cluster shape.

    A list depends only on the free GPUs per node and the demand, so
    choices keeps it per such pair (up to CHOICE_MEMO pairs) and hands
    every later head the same objects: the prior is read-only, and no
    caller may change a list. That is the one cache: a list made anew
    builds each Placement and its prior.
    """

    def __init__(self, config: ClusterConfig):
        self.config = config
        self._memo: dict[tuple[bytes, int], tuple[list, np.ndarray, list]] = {}

    def mask_for(self, shapes: list[tuple[int, int, list[int]]]) -> np.ndarray:
        """How many choices a head lists per demand shape, then 1 for skip.

        shapes is capable_nodes' (i, j, nodes with j free GPUs) per shape;
        shape i lists the first min(M, C(len(nodes), 2^i)) subsets of its nodes.
        """
        return np.array([*(min(M, math.comb(len(capable), 2 ** i)) for i, _, capable in shapes),
                         1])

    def choices(self, cluster: ClusterState, demand: int) -> tuple[list, np.ndarray, list]:
        """The head's listed placements, the prior of each choice (skip's last),
        and per listed placement whether a job holds one of its nodes and its
        scorer row's d_util, width and free_left (encoding.SCORER_FEATURES).

        InvalidDemandError when the demand could never fit an empty cluster.
        """
        key = (cluster.free_per_node.tobytes(), demand)
        listed = self._memo.get(key)
        if listed is None:
            if len(self._memo) >= CHOICE_MEMO:
                self._memo.clear()
            listed = self._memo[key] = self._list(cluster, demand)
        return listed

    def _list(self, cluster: ClusterState, demand: int) -> tuple[list, np.ndarray, list]:
        placements, prior = [], []
        shapes = list(capable_nodes(cluster, demand))
        for (i, j, capable), count in zip(shapes, self.mask_for(shapes).tolist()):
            for nodes in itertools.islice(itertools.combinations(capable, 2 ** i), count):
                placements.append(Placement(nodes=nodes, gpus_per_node_used=j))
                prior.append(-0.5 * i - 0.02 * subset_rank(nodes, self.config.num_nodes))
        prior.append(SKIP_PRIOR)
        prior = np.array(prior)
        prior.flags.writeable = False
        config, free = self.config, cluster.free_per_node.tolist()
        gpus = config.gpus_per_node
        return placements, prior, [
            (any(free[node] < gpus for node in p.nodes),
             (demand / config.total_gpus, len(p.nodes) / config.num_nodes,
              (sum(free[node] for node in p.nodes) - demand) / (len(p.nodes) * gpus)))
            for p in placements]


@dataclass
class RLDecision:
    """What the policy produced for one round, kept for training.

    One head per window candidate, in the window's order. A head's
    choices are its listed placements, then skip; its entry in heads
    holds its arrays as decide made them, one row per choice. A round
    with an empty window has no heads. pooled, the value input, is encode's
    call, made on each read, so a decision nobody reads encodes none.
    """

    choices: list[list[Placement]] = field(default_factory=list)  # per head, skip not listed
    chosen: list[int] = field(default_factory=list)  # per head; len(choices[head]) is skip
    # per head (prior, verdicts, features): the pack-first prior (see
    # ActionSpace); the contention-model verdict, +1 if the placement is
    # predicted to raise the round reward, -1 to lower it, else 0 (skip);
    # the (choices, F) scorer rows
    heads: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = field(default_factory=list)
    forced: bool = False  # True when the livelock guard overrode the policy
    temperature: float = 1.0  # the logits were divided by it before sampling
    encode: Callable[[], np.ndarray] | None = field(default=None, repr=False, compare=False)

    @property
    def has_choice(self) -> bool:
        """Whether some head could do more than skip."""
        return any(self.choices)

    @property
    def pooled(self) -> np.ndarray | None:
        """The value input; None when the window was empty."""
        return None if self.encode is None else self.encode()


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
