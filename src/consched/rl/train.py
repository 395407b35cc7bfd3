"""Policy-gradient training over simulated episodes.

One batch per episode: discounted per-round returns, a learned value
baseline, entropy regularization, advantage normalization, and
UPDATES_PER_EPISODE Adam steps with global-norm clipping. Only rounds
where some head had a choice enter the batch, the value fit and the
normalization; rounds that offer only skip still carry their rewards
into the returns. Rounds where the livelock guard overrode the policy
contribute rewards to the returns but no policy-gradient or entropy
terms (the applied action was not the policy's sample). The sampling
temperature is annealed over the episodes, and the gradient is taken
for the tempered policy that sampled. The policy's contention_scale
(how far it follows the contention model's verdicts) is learned with
its own step size. A head's choice list varies in length from decision
to decision, so the batch pads every head's list to the longest one in
it and masks the padding; only the scorer rows of listed choices enter
the net.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..actions import ActionSpace
from ..cluster import ClusterConfig
from ..encoding import POOLED_FEATURES, SCORER_FEATURES
from ..engine import EpisodeConfig, RoundLog, run_episode
from ..errors import ConfigError, NonFiniteLossError
from ..policies import RLBasePolicy
from ..workload import JobSpec, shuffle_arrival_order
from .net import (POLICY_LAYERS, VALUE_LAYERS, Architecture, PolicyNet, entropy_of,
                  masked_log_softmax, mlp_backward, mlp_forward)
from .optim import Adam, clip_grad_norm
from .reward import RewardWeights
from .checkpoint import save_checkpoint


# contention_scale is one weight, so it takes a larger step than the scorer
CONTENTION_LR = 0.05
# sampling temperature, annealed linearly from the first to the last episode
TEMPERATURE = (1.0, 0.1)
MAX_GRAD_NORM = 10.0  # the scorer's global gradient norm is clipped to this
UPDATES_PER_EPISODE = 4  # gradient steps on each episode's surrogate
VALUE_EPOCHS = 30  # value-net regression steps before the advantages
VALUE_LR = 0.01
HIDDEN = (32, 32)  # the scorer's hidden layers
# the parameters each optimizer steps
POLICY_KEYS = (*(key for layer in POLICY_LAYERS for key in layer), "contention_scale")
VALUE_KEYS = tuple(key for layer in VALUE_LAYERS for key in layer)


@dataclass
class TrainConfig:
    episodes: int = 20
    checkpoint_path: str = "policy.ckpt"
    # the scorer's step size, chosen on held-out seeds (README, criterion 6)
    lr: float = 0.003
    gamma: float = 0.5
    entropy_coef: float = 0.01
    seed: int = 0
    k: int = 6  # one head per demand of the default demand histogram
    weights: RewardWeights = field(default_factory=RewardWeights)
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)

    def __post_init__(self):
        if self.episodes < 1:
            raise ConfigError("episodes must be >= 1")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if not 0 < self.lr < math.inf:
            raise ConfigError("lr must be positive and finite")
        if not 0 <= self.gamma <= 1:
            raise ConfigError("gamma must be in [0, 1]")
        if not 0 <= self.entropy_coef < math.inf:
            raise ConfigError("entropy_coef must be >= 0 and finite")


@dataclass
class Batch:
    """Fixed inputs to the per-update objective: the heads with a choice, in round order.

    Each head's choices are padded to the longest list in the batch.
    """

    features: np.ndarray  # (R, input_dim) scorer rows, one per listed (head, choice)
    masks: np.ndarray  # (G, L) True on each head's listed choices, False on the padding
    actions: np.ndarray  # (G,) each head's sampled position in its list
    prior: np.ndarray  # (G, L) each choice's pack-first prior
    # (G, L) contention verdicts the behaviour policy added to its
    # logits, times contention_scale (see RLBasePolicy)
    verdicts: np.ndarray
    decisions: np.ndarray  # (G,) the round (advantage row) each head belongs to
    advantages: np.ndarray  # (B,)
    policy_weight: np.ndarray  # (B,) 1.0 normally, 0.0 for forced rounds
    temperature: np.ndarray  # (B,) sampling temperature each round's logits were divided by


def discounted_returns(rewards: np.ndarray, gamma: float) -> np.ndarray:
    out = np.zeros_like(rewards)
    acc = 0.0
    for k in range(len(rewards) - 1, -1, -1):
        acc = rewards[k] + gamma * acc
        out[k] = acc
    return out


def value_step(net: PolicyNet, pooled: np.ndarray, returns: np.ndarray,
               opt: Adam) -> float:
    """One regression step of the value baseline toward the returns.

    Minimises 0.5 * E[(V - G)^2] over the pooled round inputs; returns
    the loss before the step.
    """
    out, acts = mlp_forward(net.params, VALUE_LAYERS, pooled)
    err = out.ravel() - returns
    loss = 0.5 * float((err * err).mean())
    opt.step(mlp_backward(net.params, VALUE_LAYERS, acts, err[:, None] / pooled.shape[0]))
    return loss


def excess_returns(rounds: RoundLog, gamma: float) -> np.ndarray:
    """Discounted per-round returns of the excess-over-noop reward stream.

    Subtracting the counterfactual no-op reward (a state-only quantity
    the engine computes exactly) cancels the standing reward level set
    by earlier placements, leaving credit that tracks the actions'
    marginal effects. Being action-independent, it keeps the gradient
    estimator unbiased, like any baseline. rounds is a recorded
    episode's log; its runs are expanded to one reward per round before
    the sequential discount.
    """
    runs = rounds.runs
    excess = np.repeat([r.reward - noop for r, _, _, _, noop in runs], [run[2] for run in runs])
    return discounted_returns(excess, gamma)


def build_batch(net: PolicyNet, rounds: RoundLog, gamma: float, value_opt: Adam) -> Batch:
    """The rounds where some head had a choice, with their advantages.

    rounds is the log of an episode run with record_trajectory, so every
    run carries the decision its rounds applied.

    Returns run over every round, but rounds that offer only skip carry
    no policy gradient, so they enter neither the batch, the value fit
    nor the advantage normalization, and only their heads with a choice
    enter the batch, each from its entry in the decision's heads (its
    prior, verdicts and scorer rows). The value baseline first takes
    VALUE_EPOCHS steps (value_opt) from these rounds' pooled inputs
    toward their returns; the advantages are then normalized over the
    rounds that carry a policy gradient.
    """
    if not rounds:
        raise NonFiniteLossError("empty trajectory", {"steps": 0})
    returns = excess_returns(rounds, gamma)
    rows, steps = [], []
    for _, first, n, step, _ in rounds.runs:
        if step.has_choice:
            rows.extend(range(first, first + n))
            steps.extend([step] * n)
    returns = returns[rows]
    pooled = np.stack([step.pooled for step in steps])
    weight = np.array([0.0 if step.forced else 1.0 for step in steps])
    for _ in range(VALUE_EPOCHS):
        value_step(net, pooled, returns, value_opt)
    advantages = returns - net.values(pooled)
    used = advantages[weight > 0]
    if used.size > 1:
        std = used.std()
        advantages = (advantages - used.mean()) / (std if std > 1e-8 else 1.0)
    # each head with a choice becomes a row of its choices, padded to the longest list
    heads = [(d, pick, *head) for d, step in enumerate(steps)
             for choices, pick, head in zip(step.choices, step.chosen, step.heads) if choices]
    decisions, actions, priors, verdicts, rows = zip(*heads)
    sizes = np.array([len(p) for p in priors])
    masks = np.arange(sizes.max()) < sizes[:, None]
    prior, verdict = np.zeros(masks.shape), np.zeros(masks.shape)
    prior[masks], verdict[masks] = np.concatenate(priors), np.concatenate(verdicts)
    return Batch(features=np.concatenate(rows), masks=masks, actions=np.array(actions),
                 prior=prior, verdicts=verdict, decisions=np.array(decisions),
                 advantages=advantages, policy_weight=weight,
                 temperature=np.array([step.temperature for step in steps]))


def loss_and_grads(net: PolicyNet, batch: Batch, entropy_coef: float):
    """Surrogate objective and its exact gradient.

    loss = -E[adv * sum_k log pi_k(a_k)] - entropy_coef * E[sum_k H(pi_k)]
    with both expectations over policy-weighted rounds, and pi_k the
    softmax of head k's logits (prior + contention_scale * verdict +
    score, see RLBasePolicy) over the round's sampling temperature; a
    head with only skip adds 0 to both. Advantages are constants here, so
    a finite-difference probe of this function checks the backward pass
    end to end. The value baseline is fit on its own (value_step).
    """
    p = net.params
    score, acts = mlp_forward(p, POLICY_LAYERS, batch.features)
    logits = batch.prior + p["contention_scale"][0] * batch.verdicts
    logits[batch.masks] += score[:, 0]
    inv_t = (1.0 / batch.temperature)[batch.decisions][:, None]
    probs, logp = masked_log_softmax(logits * inv_t, batch.masks)
    heads = np.arange(len(batch.actions))
    pw = batch.policy_weight[batch.decisions]  # per head
    n_pg = max(1.0, float(batch.policy_weight.sum()))
    weighted_adv = pw * batch.advantages[batch.decisions]
    pg_loss = -float((weighted_adv * logp[heads, batch.actions]).sum()) / n_pg

    ent_heads = entropy_of(probs)  # (G,)
    entropy = float((pw * ent_heads).sum()) / n_pg

    loss = pg_loss - entropy_coef * entropy

    # d loss / d logits
    onehot = np.zeros_like(probs)
    onehot[heads, batch.actions] = 1.0
    dlogits = (-weighted_adv / n_pg)[:, None] * (onehot - probs)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(probs > 0, probs * np.log(probs), 0.0)
    # dH/dlogit_j = -p_j (log p_j + H); loss has -entropy_coef * H
    dlogits += (entropy_coef / n_pg) * pw[:, None] * (plogp + probs * ent_heads[:, None])
    dlogits *= inv_t  # back through the division by temperature

    grads = mlp_backward(p, POLICY_LAYERS, acts, dlogits[batch.masks][:, None])
    grads["contention_scale"] = np.array([float((dlogits * batch.verdicts).sum())])
    aux = {"loss": loss, "pg_loss": pg_loss, "entropy": entropy}
    return loss, grads, aux


def update(net: PolicyNet, rounds: RoundLog, config: TrainConfig, opt: Adam,
           batch: Batch) -> dict:
    """One gradient step on the batch built from one episode's recorded rounds.

    contention_scale steps at CONTENTION_LR and is left out of the
    scorer's norm clipping.
    """
    loss, grads, aux = loss_and_grads(net, batch, config.entropy_coef)
    if not (np.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values())):
        rewards = np.array([r.reward for r, *_ in rounds.runs])
        bad = np.flatnonzero(~np.isfinite(batch.advantages))
        raise NonFiniteLossError("non-finite loss or gradient", {
            "loss": repr(loss), "pg_loss": aux["pg_loss"], "entropy": aux["entropy"],
            "steps": len(rounds), "first_bad_step": int(bad[0]) if bad.size else -1,
            "reward_min": float(rewards.min()), "reward_max": float(rewards.max())})
    scale_grad = grads.pop("contention_scale")
    aux["grad_norm"] = clip_grad_norm(grads, MAX_GRAD_NORM)
    grads["contention_scale"] = scale_grad
    opt.step(grads, lrs={"contention_scale": CONTENTION_LR})
    return aux


def architecture(k: int, hidden) -> Architecture:
    """The net shape: the scorer rows and pooled input in, k heads out."""
    return Architecture(input_dim=len(SCORER_FEATURES), hidden=tuple(hidden), k=k,
                        value_input_dim=len(POOLED_FEATURES))


def make_net(cluster_config: ClusterConfig, config: TrainConfig) -> tuple[PolicyNet, ActionSpace]:
    """A fresh net for the config's seed and the choice lists of the cluster shape."""
    net = PolicyNet(architecture(config.k, HIDDEN), np.random.default_rng(config.seed))
    return net, ActionSpace(cluster_config)


def optimizers(net: PolicyNet, lr: float) -> tuple[Adam, Adam]:
    """The policy's Adam over POLICY_KEYS and the value baseline's over VALUE_KEYS.

    Each holds moments for its own keys only; the arrays are those of
    net.params, so their in-place steps reach the net.
    """
    return (Adam({key: net.params[key] for key in POLICY_KEYS}, lr=lr),
            Adam({key: net.params[key] for key in VALUE_KEYS}, lr=VALUE_LR))


def train(trace: list[JobSpec], config: TrainConfig,
          cluster_config: ClusterConfig | None = None,
          metadata: dict | None = None):
    """Run the training loop and save the final checkpoint.

    Returns (net, curves); curves has one row per episode with the mean
    reward / CS / utilization plus the update diagnostics.
    """
    cluster_config = cluster_config or ClusterConfig()
    net, space = make_net(cluster_config, config)
    opt, value_opt = optimizers(net, config.lr)
    net.reward_weights = config.weights
    policy = RLBasePolicy(net, space, deterministic=False)
    curves = []
    for episode in range(config.episodes):
        ep_rng = np.random.default_rng([config.seed, episode])
        first, last = TEMPERATURE
        policy.temperature = first + episode / max(1, config.episodes - 1) * (last - first)
        report = run_episode(policy, shuffle_arrival_order(trace, ep_rng), config.episode,
                             cluster_config, weights=config.weights, rng=ep_rng,
                             record_trajectory=True)
        batch = build_batch(net, report.rounds, config.gamma, value_opt)
        for _ in range(UPDATES_PER_EPISODE):
            aux = update(net, report.rounds, config, opt, batch)
        curves.append({
            "episode": episode,
            "mean_reward": report.aggregates["mean_reward"],
            "mean_cs": report.aggregates["mean_cs"],
            "mean_util": report.aggregates["mean_util"],
            "avg_jct": report.aggregates["avg_jct"],
            "rounds": report.aggregates["num_rounds"],
            "loss": aux["loss"], "entropy": aux["entropy"],
            "grad_norm": aux["grad_norm"],
            "contention_scale": float(net.params["contention_scale"][0]),
            "temperature": policy.temperature,
        })
    meta = {"seed": config.seed, "w1": config.weights.w1, "episodes": config.episodes,
            "lr": config.lr, "gamma": config.gamma, "k": config.k}
    meta.update(metadata or {})
    save_checkpoint(net, config.checkpoint_path, metadata=meta)
    return net, curves
