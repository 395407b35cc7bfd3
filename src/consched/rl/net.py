"""Policy network: shared MLP trunk, K categorical heads, value head.

Small enough to run in float64 numpy. Heads emit logits over the shared
placement-index space (one index per node subset, plus skip); masking
zeroes infeasible indices exactly and renormalizes over the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reward import RewardWeights


@dataclass(frozen=True)
class Architecture:
    """Shape descriptor; stored in checkpoints and compared on load."""

    input_dim: int
    hidden: tuple[int, int]
    k: int
    head_size: int
    value_hidden: tuple[int, int] = (64, 64)

    def describe(self) -> dict:
        return {"input_dim": self.input_dim, "hidden": list(self.hidden),
                "k": self.k, "head_size": self.head_size,
                "value_hidden": list(self.value_hidden)}


def masked_log_softmax(logits: np.ndarray, mask: np.ndarray):
    """(probs, logp) over the unmasked entries; masked probs are exactly 0.

    Works on trailing axis for any leading batch shape. Every row must
    have at least one unmasked entry (skip is never masked).
    """
    neg_inf = np.where(mask, logits, -np.inf)
    mx = neg_inf.max(axis=-1, keepdims=True)
    shifted = neg_inf - mx
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    probs = e / total
    logp = shifted - np.log(total)
    return probs, logp


def entropy_of(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy along the trailing axis; 0 * log 0 treated as 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(probs > 0, probs * np.log(probs), 0.0)
    return -plogp.sum(axis=-1)


class PolicyNet:
    """Policy trunk + heads, and a separate small value-baseline MLP.

    Keeping the baseline's parameters disjoint from the policy trunk
    means the value regression cannot distort the policy; training math
    lives in train.py.
    """

    def __init__(self, arch: Architecture, rng: np.random.Generator,
                 head_prior: np.ndarray | None = None):
        self.arch = arch
        # reward weights the policy was trained for; its contention
        # verdicts predict the reward under them
        self.reward_weights = RewardWeights()
        h1, h2 = arch.hidden
        v1, v2 = arch.value_hidden
        head_out = arch.k * arch.head_size
        if head_prior is None:
            head_prior = np.zeros(arch.head_size)
        self.params: dict[str, np.ndarray] = {
            "w1": rng.standard_normal((arch.input_dim, h1)) / np.sqrt(arch.input_dim),
            "b1": np.zeros(h1),
            "w2": rng.standard_normal((h1, h2)) / np.sqrt(h1),
            "b2": np.zeros(h2),
            # small head init keeps the starting policy at the prior
            "wh": rng.standard_normal((h2, head_out)) * (0.01 / np.sqrt(h2)),
            "bh": np.zeros(head_out),
            # fixed behavior prior added to every head's logits; excluded
            # from gradients, so training learns residual deviations from
            # it instead of having to preserve its ordering under noise
            "head_prior": np.asarray(head_prior, dtype=float).copy(),
            # learned weight on the contention model's verdict per placement
            # (+1 raises the round reward, -1 lowers it); see RLBasePolicy
            "contention_scale": np.zeros(1),
            "vw1": rng.standard_normal((arch.input_dim, v1)) / np.sqrt(arch.input_dim),
            "vb1": np.zeros(v1),
            "vw2": rng.standard_normal((v1, v2)) / np.sqrt(v1),
            "vb2": np.zeros(v2),
            "vw3": rng.standard_normal((v2, 1)) * (0.01 / np.sqrt(v2)),
            "vb3": np.zeros(1),
        }

    def forward(self, x: np.ndarray):
        """x: (B, input_dim) -> (h1, h2, logits (B,K,A), values (B,))."""
        p = self.params
        h1 = np.tanh(x @ p["w1"] + p["b1"])
        h2 = np.tanh(h1 @ p["w2"] + p["b2"])
        logits = (h2 @ p["wh"] + p["bh"]).reshape(x.shape[0], self.arch.k, self.arch.head_size)
        logits = logits + p["head_prior"][None, None, :]
        return h1, h2, logits, self.values(x)

    def values(self, x: np.ndarray) -> np.ndarray:
        p = self.params
        v1 = np.tanh(x @ p["vw1"] + p["vb1"])
        v2 = np.tanh(v1 @ p["vw2"] + p["vb2"])
        return (v2 @ p["vw3"] + p["vb3"]).ravel()

    def head_logits(self, x: np.ndarray) -> np.ndarray:
        """Single-state convenience: (K, A) logits."""
        p = self.params
        h1 = np.tanh(x @ p["w1"] + p["b1"])
        h2 = np.tanh(h1 @ p["w2"] + p["b2"])
        logits = (h2 @ p["wh"] + p["bh"]).reshape(self.arch.k, self.arch.head_size)
        return logits + p["head_prior"][None, :]

    def copy_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}
