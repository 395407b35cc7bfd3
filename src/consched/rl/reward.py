"""Round reward: -w1 * mean contention sensitivity + w2 * utilization."""

from __future__ import annotations

from dataclasses import dataclass

from ..contention import CS_CAP
from ..errors import ConfigError


@dataclass(frozen=True)
class RewardWeights:
    """w1 weighs the CS penalty, w2 = 1 - w1 the utilization incentive."""

    w1: float = 0.4

    def __post_init__(self):
        if not 0.0 <= self.w1 <= 1.0:
            raise ConfigError(f"w1 must be in [0, 1], got {self.w1}")

    @property
    def w2(self) -> float:
        return 1.0 - self.w1


# Reward-weight presets sweeping the CS / utilization trade-off.
BRANCHES = {
    "A": RewardWeights(0.3),
    "B": RewardWeights(0.4),
    "C": RewardWeights(0.5),
    "D": RewardWeights(0.6),
    "E": RewardWeights(0.7),
}


def reward_from_terms(cs_term: float, util_term: float, weights: RewardWeights) -> float:
    """The reward arithmetic itself, on already-aggregated terms."""
    return -weights.w1 * cs_term + weights.w2 * util_term


def compute_reward(utilization: float, cs_by_job: dict[int, float],
                   weights: RewardWeights) -> float:
    """Reward for the current round.

    utilization is the cluster's used GPUs over its total GPUs.
    cs_by_job maps running job ids to their profiled CS this round; the
    CS term is their mean with each value clipped at CS_CAP (keeps the
    reward within [-w1 * CS_CAP, w2]), summed in the map's order, or 0
    with nothing running.
    """
    if cs_by_job:
        cs_term = sum(min(v, CS_CAP) for v in cs_by_job.values()) / len(cs_by_job)
    else:
        cs_term = 0.0
    return reward_from_terms(cs_term, utilization, weights)
