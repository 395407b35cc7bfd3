"""Policy network: shared MLP trunk, K categorical heads, value head.

Small enough to run in float64 numpy. Heads emit logits over the shared
placement-index space (one index per node subset, plus skip); masking
zeroes infeasible indices exactly and renormalizes over the rest.

The trunk-and-heads stack and the value baseline are both tanh MLPs over
the same parameter dict, run by one forward pass (mlp_forward) and one
backward pass (mlp_backward); callers name the layers' parameters. A
single state x is passed 1-D and a batch 2-D, so inference and training
keep the matrix-vector and matrix-matrix products they each use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reward import RewardWeights

# (weight, bias) parameter names per layer, input layer first
POLICY_LAYERS = (("w1", "b1"), ("w2", "b2"), ("wh", "bh"))
VALUE_LAYERS = (("vw1", "vb1"), ("vw2", "vb2"), ("vw3", "vb3"))


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


def mlp_forward(params: dict[str, np.ndarray], layers, x: np.ndarray):
    """(output, activations) of a tanh MLP with a linear output layer.

    activations[i] is the input of layer i (x first), which is what
    mlp_backward needs.
    """
    acts = [x]
    for w, b in layers[:-1]:
        acts.append(np.tanh(acts[-1] @ params[w] + params[b]))
    w, b = layers[-1]
    return acts[-1] @ params[w] + params[b], acts


def mlp_backward(params: dict[str, np.ndarray], layers, acts, dout: np.ndarray) -> dict:
    """Parameter gradients of a batched mlp_forward, given d loss / d output.

    Keys come out last layer first, weight before bias.
    """
    grads = {}
    delta = dout
    for i in range(len(layers) - 1, -1, -1):
        w, b = layers[i]
        grads[w] = acts[i].T @ delta
        grads[b] = delta.sum(axis=0)
        if i:
            delta = (delta @ params[w].T) * (1.0 - acts[i] * acts[i])
    return grads


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

    def head_logits(self, x: np.ndarray) -> np.ndarray:
        """Prior-shifted head logits: (K, A) for one state, (B, K, A) for a batch."""
        out, _ = mlp_forward(self.params, POLICY_LAYERS, x)
        logits = out.reshape(*x.shape[:-1], self.arch.k, self.arch.head_size)
        return logits + self.params["head_prior"]

    def values(self, x: np.ndarray) -> np.ndarray:
        """Value-baseline estimates of a batch of states: (B,)."""
        out, _ = mlp_forward(self.params, VALUE_LAYERS, x)
        return out.ravel()
