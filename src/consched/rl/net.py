"""Policy network: one placement scorer shared by every head, and a value head.

Small enough to run in float64 numpy. A head's logits cover its choice
list (actions.ActionSpace.choices: the listed placements, then skip),
whose length varies per decision. A choice's logit is prior +
contention_scale * verdict + score, the prior being the choice's fixed
pack-first prior and the score a small tanh MLP of the (candidate,
placement) pair's scorer row, shared across heads and choices as in
Decima (Mao et al., SIGCOMM 2019). Its output layer starts at zero, so an
untrained net is exactly the fixed rule prior + contention_scale *
verdict. Training pads the lists to a common length; masking zeroes the
padding exactly and renormalizes over the rest.
The scorer and the value baseline (a tanh MLP over the pooled round
input) share one parameter dict and the mlp_forward and mlp_backward
functions, which training calls for each MLP on its own.
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

    input_dim: int  # scorer row width
    hidden: tuple[int, int]
    k: int
    value_input_dim: int  # pooled value input width
    value_hidden: tuple[int, int] = (64, 64)


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
    """The scorer, its contention weight, and the disjoint value MLP."""

    def __init__(self, arch: Architecture, rng: np.random.Generator):
        self.arch = arch
        # reward weights the policy was trained for; its contention
        # verdicts predict the reward under them
        self.reward_weights = RewardWeights()
        h1, h2 = arch.hidden
        v1, v2 = arch.value_hidden
        self.params: dict[str, np.ndarray] = {
            "w1": rng.standard_normal((arch.input_dim, h1)) / np.sqrt(arch.input_dim),
            "b1": np.zeros(h1),
            "w2": rng.standard_normal((h1, h2)) / np.sqrt(h1),
            "b2": np.zeros(h2),
            # a zero output layer starts the policy at the fixed rule
            "wh": np.zeros((h2, 1)),
            "bh": np.zeros(1),
            # learned weight on the contention model's verdict per placement
            # (+1 raises the round reward, -1 lowers it); see RLBasePolicy
            "contention_scale": np.zeros(1),
            "vw1": rng.standard_normal((arch.value_input_dim, v1)) / np.sqrt(arch.value_input_dim),
            "vb1": np.zeros(v1),
            "vw2": rng.standard_normal((v1, v2)) / np.sqrt(v1),
            "vb2": np.zeros(v2),
            "vw3": rng.standard_normal((v2, 1)) * (0.01 / np.sqrt(v2)),
            "vb3": np.zeros(1),
        }

    def head_logits(self, features: np.ndarray, prior: np.ndarray,
                    verdicts: np.ndarray) -> np.ndarray:
        """One head's logits over its choices, given a scorer row, prior and verdict per choice."""
        p = self.params
        score, _ = mlp_forward(p, POLICY_LAYERS, features)
        return prior + p["contention_scale"][0] * verdicts + score[:, 0]

    def values(self, x: np.ndarray) -> np.ndarray:
        """Value-baseline estimates of a batch of pooled round inputs: (B,)."""
        out, _ = mlp_forward(self.params, VALUE_LAYERS, x)
        return out.ravel()
