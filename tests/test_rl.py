import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consched.actions import RLDecision
from consched.cluster import ClusterConfig, Placement
from consched.contention import CS_CAP
from consched.engine import EpisodeConfig, RoundLog, RoundRecord, run_episode
from consched.errors import CheckpointError, ConfigError, NonFiniteLossError
from consched.policies import RLBasePolicy
from consched.rl.checkpoint import MAGIC, ensure_compatible, load_checkpoint, save_checkpoint
from consched.rl.net import (Architecture, PolicyNet, entropy_of,
                             masked_log_softmax)
from consched.rl.optim import Adam, clip_grad_norm
from consched.rl.reward import (BRANCHES, RewardWeights, compute_reward,
                                reward_from_terms)
from consched.rl.train import (CONTENTION_LR, HIDDEN, POLICY_KEYS, VALUE_EPOCHS, VALUE_KEYS,
                               VALUE_LR, Batch, TrainConfig, architecture, build_batch,
                               discounted_returns, excess_returns, loss_and_grads, make_net,
                               optimizers, update, value_step)
from consched.workload import MIX_PRESETS, TraceSpec, generate_trace
from test_golden import flat, split_heads

TINY = Architecture(input_dim=5, hidden=(4, 4), k=2, value_input_dim=6, value_hidden=(3, 3))
LONGEST = 4  # the longest choice list (skip included) of the random batches


def tiny_net(seed=0):
    return PolicyNet(TINY, np.random.default_rng(seed))


def as_rounds(rows, counts=None):
    """A recorded round log of the (decision, reward, no-op reward) rows, one run each.

    counts[i] repeats row i over that many rounds, as the engine records
    an idle decision over the rounds it holds for. Only the records'
    rewards matter.
    """
    log = RoundLog(1.0)
    for (step, reward, noop), n in zip(rows, counts or [1] * len(rows)):
        log.append(RoundRecord(float(len(log)), 0.0, 0.0, reward, 0, 0, 0, 0), n, step, noop)
    return log


def decisions_of(rounds):
    return [run[3] for run in rounds.runs]


def fitted_batch(net, rounds, gamma=0.5):
    """build_batch with a fresh value optimizer, as train() builds one per run."""
    return build_batch(net, rounds, gamma, optimizers(net, 0.0)[1])


def random_batch(net, rng, steps=8, verdicts=False, temperature=False):
    """Every head of steps random decisions, with a random list length, random
    priors and random scorer rows for its choices."""
    a = net.arch
    sizes = rng.integers(1, LONGEST + 1, steps * a.k)
    masks = np.arange(LONGEST) < sizes[:, None]
    return Batch(features=rng.standard_normal((int(masks.sum()), a.input_dim)), masks=masks,
                 actions=rng.integers(0, sizes), prior=rng.standard_normal(masks.shape) * masks,
                 verdicts=(rng.choice([-1.0, 0.0, 1.0], masks.shape) * masks if verdicts
                           else np.zeros(masks.shape)),
                 decisions=np.repeat(np.arange(steps), a.k),
                 advantages=rng.standard_normal(steps), policy_weight=np.ones(steps),
                 temperature=rng.uniform(0.1, 1.0, steps) if temperature else np.ones(steps))


def chosen_log_prob(net, batch, temperature=1.0):
    """The summed log-probability of the batch's actions, from head_logits as the policy decides."""
    total, start = 0.0, 0
    for mask, action, prior, verdicts in zip(batch.masks, batch.actions, batch.prior,
                                             batch.verdicts):
        n = int(mask.sum())
        logits = net.head_logits(batch.features[start:start + n], prior[:n], verdicts[:n])
        total += masked_log_softmax(logits / temperature, np.ones(n, dtype=bool))[1][action]
        start += n
    return total


def scorer_decision(arch, rng, sizes, verdicts=None, **fields):
    """An RLDecision whose heads list sizes[h] choices (skip included), with random
    chosen positions, priors, scorer rows and pooled input; verdicts "random" are
    +-1 on the placements and 0 on skip."""
    choices = [[Placement(nodes=(n,), gpus_per_node_used=1) for n in range(size - 1)]
               for size in sizes]
    rows = int(sum(sizes))
    if verdicts == "random":
        verdicts = rng.choice([-1.0, 1.0], rows)
        verdicts[np.cumsum(sizes) - 1] = 0.0
    chosen = [int(rng.integers(size)) for size in sizes]
    heads = split_heads(choices, rng.standard_normal(rows),
                        np.zeros(rows) if verdicts is None else verdicts,
                        rng.standard_normal((rows, arch.input_dim)))
    pooled = rng.standard_normal(arch.value_input_dim)
    return RLDecision(choices=choices, chosen=chosen, heads=heads, encode=lambda: pooled,
                      **fields)


def numeric_gradients(net, batch, entropy_coef, h=1e-6):
    """Central differences of the loss for every parameter."""
    grads = {}
    for name, tensor in net.params.items():
        grad = np.zeros_like(tensor)
        flat = tensor.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up, _, _ = loss_and_grads(net, batch, entropy_coef)
            flat[idx] = orig - h
            down, _, _ = loss_and_grads(net, batch, entropy_coef)
            flat[idx] = orig
            grad.ravel()[idx] = (up - down) / (2 * h)
        grads[name] = grad
    return grads


def assert_matches_numeric(analytic, numeric, tol=1e-4):
    """Each analytic gradient within tol relative of the numeric one.

    A parameter with no analytic gradient (the value baseline's, which
    the policy loss does not read) must have a numeric gradient of 0.
    """
    for name, num in numeric.items():
        grad = analytic.get(name, np.zeros_like(num))
        rel = np.abs(grad - num) / np.maximum(1.0, np.maximum(np.abs(grad), np.abs(num)))
        assert rel.max() < tol, f"{name}: {rel.max()}"


class CapturingOptimizer:
    """Stands in for Adam: keeps the gradients it is given, moves nothing."""

    def __init__(self):
        self.grads = None

    def step(self, grads, lrs=None):
        self.grads = grads


class TestMaskedSoftmax:
    @given(seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_masked_exactly_zero_and_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal(8) * 5
        mask = rng.random(8) < 0.5
        mask[-1] = True
        probs, logp = masked_log_softmax(logits, mask)
        assert (probs[~mask] == 0.0).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.isfinite(logp[mask]).all()

    def test_entropy_zero_when_single_choice(self):
        probs, _ = masked_log_softmax(np.zeros(4), np.array([False, False, False, True]))
        assert entropy_of(probs) == 0.0


class TestReward:
    def test_direct_substitution(self):
        w = RewardWeights(0.4)
        assert reward_from_terms(1.5, 0.8, w) == pytest.approx(-0.4 * 1.5 + 0.6 * 0.8, abs=1e-15)

    def test_empty_cluster_zero(self):
        from consched.cluster import ClusterState
        empty = ClusterState(ClusterConfig())
        assert compute_reward(empty.utilization(), {}, RewardWeights(0.4)) == 0.0

    def test_full_cluster_cs_one(self):
        from consched.cluster import ClusterState, Placement
        cluster = ClusterState(ClusterConfig())
        for node in range(4):
            cluster.allocate(node, Placement(nodes=(node,), gpus_per_node_used=8))
        w = RewardWeights(0.4)
        reward = compute_reward(cluster.utilization(), {n: 1.0 for n in range(4)}, w)
        assert reward == pytest.approx(-w.w1 + w.w2)

    def test_bounded_by_cap(self):
        from consched.cluster import ClusterState, Placement
        cluster = ClusterState(ClusterConfig())
        cluster.allocate(0, Placement(nodes=(0,), gpus_per_node_used=8))
        w = RewardWeights(0.7)
        reward = compute_reward(cluster.utilization(), {0: 1000.0}, w)
        assert reward >= -w.w1 * CS_CAP

    def test_weights_validation(self):
        with pytest.raises(ConfigError):
            RewardWeights(1.5)
        assert RewardWeights(0.3).w2 == pytest.approx(0.7)

    def test_branches(self):
        assert BRANCHES["A"].w1 == 0.3
        assert BRANCHES["E"].w1 == 0.7
        for w in BRANCHES.values():
            assert w.w1 + w.w2 == pytest.approx(1.0)

    @given(w1=st.floats(0, 1), cs=st.floats(1, 4), util=st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_arithmetic_identity(self, w1, cs, util):
        w = RewardWeights(w1)
        assert reward_from_terms(cs, util, w) == pytest.approx(-w1 * cs + (1 - w1) * util, abs=1e-12)


class TestGradients:
    def test_gradcheck_small_net(self):
        rng = np.random.default_rng(7)
        net = tiny_net(seed=1)
        batch = random_batch(net, rng)
        _, analytic, _ = loss_and_grads(net, batch, entropy_coef=0.02)
        assert_matches_numeric(analytic, numeric_gradients(net, batch, 0.02))

    def test_gradcheck_with_contention_verdicts(self):
        """Verdicts and per-round sampling temperatures, as training records them."""
        rng = np.random.default_rng(17)
        net = tiny_net(seed=17)
        net.params["contention_scale"][:] = 0.7
        batch = random_batch(net, rng, verdicts=True, temperature=True)
        _, analytic, _ = loss_and_grads(net, batch, entropy_coef=0.02)
        assert analytic["contention_scale"][0] != 0.0
        assert_matches_numeric(analytic, numeric_gradients(net, batch, 0.02))

    def test_loss_uses_the_sampling_policy(self):
        """The log-probability in the loss is that of the tempered softmax that sampled."""
        rng = np.random.default_rng(19)
        net = tiny_net(seed=19)
        net.params["wh"][:] = rng.standard_normal(net.params["wh"].shape)
        net.params["contention_scale"][:] = 0.7
        temperature = 0.25
        batch = replace(random_batch(net, rng, steps=1, verdicts=True),
                        advantages=np.ones(1), temperature=np.array([temperature]))
        chosen = chosen_log_prob(net, batch, temperature)
        _, _, aux = loss_and_grads(net, batch, entropy_coef=0.0)
        assert aux["pg_loss"] == pytest.approx(-chosen, abs=1e-12)

    def test_ascent_direction_single_step(self):
        rng = np.random.default_rng(2)
        net = tiny_net(seed=3)
        batch = replace(random_batch(net, rng, steps=1), advantages=np.array([1.0]))

        before = chosen_log_prob(net, batch)
        _, grads, _ = loss_and_grads(net, batch, entropy_coef=0.0)
        for name, grad in grads.items():
            net.params[name] -= 0.01 * grad
        assert chosen_log_prob(net, batch) > before

    def test_fresh_scorer_adds_nothing(self):
        """A zero output layer: head_logits is prior + contention_scale * verdict."""
        rng = np.random.default_rng(3)
        net = tiny_net(seed=3)
        net.params["contention_scale"][:] = 2.0
        prior = rng.standard_normal(3)
        verdicts = np.array([1.0, -1.0, 0.0])
        logits = net.head_logits(rng.standard_normal((3, TINY.input_dim)), prior, verdicts)
        assert np.array_equal(logits, prior + 2.0 * verdicts)

    def test_zero_advantage_no_policy_motion(self):
        rng = np.random.default_rng(4)
        net = tiny_net(seed=5)
        batch = random_batch(net, rng)
        batch = replace(batch, advantages=np.zeros(len(batch.advantages)))
        _, grads, _ = loss_and_grads(net, batch, entropy_coef=0.0)
        for name, grad in grads.items():
            assert np.abs(grad).max() < 1e-12, name

    def test_masked_actions_contribute_zero_gradient(self):
        """The padding holds no scorer row, and its priors and verdicts move neither
        loss nor gradient."""
        rng = np.random.default_rng(6)
        net = tiny_net(seed=6)
        net.params["contention_scale"][:] = 0.7
        batch = random_batch(net, rng, steps=4, verdicts=True)
        loss, grads, _ = loss_and_grads(net, batch, 0.01)
        noisy = {name: np.where(batch.masks, getattr(batch, name),
                                rng.standard_normal(batch.masks.shape) * 50)
                 for name in ("prior", "verdicts")}
        loss_b, grads_b, _ = loss_and_grads(net, replace(batch, **noisy), 0.01)
        assert loss_b == loss
        for name, grad in grads.items():
            assert np.array_equal(grads_b[name], grad), name

    def test_unbiased_on_two_action_bandit(self):
        """Empirical mean of sampled single-step gradients matches the
        exact expectation within 3 standard errors (2-action toy)."""
        rng = np.random.default_rng(11)
        arch = Architecture(input_dim=3, hidden=(4, 4), k=1, value_input_dim=3,
                            value_hidden=(3, 3))
        net = PolicyNet(arch, np.random.default_rng(12))
        net.params["wh"][:] = rng.standard_normal((4, 1))
        features = rng.standard_normal((2, 3))
        adv = {0: 0.7, 1: -0.4}
        pi, _ = masked_log_softmax(net.head_logits(features, np.zeros(2), np.zeros(2)),
                                   np.ones(2, dtype=bool))

        def grad_for(action):
            batch = Batch(features=features, masks=np.ones((1, 2), dtype=bool),
                          actions=np.array([action]), prior=np.zeros((1, 2)),
                          verdicts=np.zeros((1, 2)),
                          decisions=np.array([0]), advantages=np.array([adv[action]]),
                          policy_weight=np.ones(1), temperature=np.ones(1))
            _, grads, _ = loss_and_grads(net, batch, 0.0)
            return grads["wh"].ravel()

        exact = pi[0] * grad_for(0) + pi[1] * grad_for(1)
        n = 10_000
        draws = rng.choice(2, size=n, p=pi)
        g0, g1 = grad_for(0), grad_for(1)
        samples = np.where(draws[:, None] == 0, g0[None, :], g1[None, :])
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(n)
        assert (np.abs(mean - exact) <= 3 * se + 1e-12).all()


class TestValueStep:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        net = tiny_net(seed=23)
        states = rng.standard_normal((7, TINY.value_input_dim))
        returns = rng.standard_normal(7)
        opt = CapturingOptimizer()
        loss = value_step(net, states, returns, opt)
        assert set(opt.grads) == {"vw1", "vb1", "vw2", "vb2", "vw3", "vb3"}
        err = net.values(states) - returns
        assert loss == pytest.approx(0.5 * (err * err).mean(), abs=1e-15)
        h = 1e-6
        numeric = {}
        for name in opt.grads:
            flat = net.params[name].ravel()
            grad = np.zeros(flat.size)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = value_step(net, states, returns, CapturingOptimizer())
                flat[idx] = orig - h
                down = value_step(net, states, returns, CapturingOptimizer())
                flat[idx] = orig
                grad[idx] = (up - down) / (2 * h)
            numeric[name] = grad.reshape(net.params[name].shape)
        assert_matches_numeric(opt.grads, numeric)


class TestUpdate:
    def _trajectory(self, net, rng, steps=6):
        a = net.arch
        traj = []
        for _ in range(steps):
            sizes = rng.integers(2, LONGEST + 1, a.k)
            traj.append((scorer_decision(a, rng, sizes), float(rng.normal()), 0.0))
        return as_rounds(traj)

    def test_update_runs_and_returns_metrics(self):
        rng = np.random.default_rng(8)
        net = tiny_net(seed=9)
        cfg = TrainConfig(lr=1e-3, seed=0)
        opt = Adam(net.params, lr=cfg.lr)
        traj = self._trajectory(net, rng)
        aux = update(net, traj, cfg, opt, fitted_batch(net, traj, cfg.gamma))
        assert np.isfinite(aux["loss"])

    def test_one_adam_step_with_contention_lr(self):
        """contention_scale moves at CONTENTION_LR, the scorer at the config's lr, in one step."""
        rng = np.random.default_rng(16)
        net = tiny_net(seed=16)
        traj = self._trajectory(net, rng)
        for step in decisions_of(traj):
            arrays = flat(step)
            step.heads = split_heads(step.choices, arrays["prior"],
                                     rng.choice([-1.0, 1.0], len(arrays["verdicts"])),
                                     arrays["features"])
        cfg = TrainConfig(lr=1e-3, seed=0)
        opt = Adam(net.params, lr=cfg.lr)
        batch = fitted_batch(net, traj, cfg.gamma)
        before = {key: value.copy() for key, value in net.params.items()}
        update(net, traj, cfg, opt, batch)
        assert opt.t == 1
        # Adam's first step moves each parameter by its lr times the sign of its gradient
        moved = abs(net.params["contention_scale"][0] - before["contention_scale"][0])
        assert moved == pytest.approx(CONTENTION_LR, rel=1e-4)
        assert np.abs(net.params["wh"] - before["wh"]).max() == pytest.approx(cfg.lr, rel=1e-4)

    def test_empty_trajectory_rejected(self):
        net = tiny_net()
        with pytest.raises(NonFiniteLossError):
            fitted_batch(net, RoundLog(1.0), TrainConfig().gamma)

    def test_non_finite_raises_with_diagnostics(self):
        rng = np.random.default_rng(10)
        net = tiny_net(seed=10)
        net.params["wh"][:] = np.nan
        cfg = TrainConfig()
        traj = self._trajectory(net, rng)
        with pytest.raises(NonFiniteLossError) as err:
            update(net, traj, cfg, Adam(net.params), fitted_batch(net, traj, cfg.gamma))
        assert "steps" in err.value.diagnostics

    def test_forced_steps_excluded_from_policy_terms(self):
        rng = np.random.default_rng(13)
        net = tiny_net(seed=13)
        traj = self._trajectory(net, rng, steps=5)
        for step in decisions_of(traj):
            step.forced = True
        batch = fitted_batch(net, traj, gamma=0.9)
        _, grads, _ = loss_and_grads(net, batch, entropy_coef=0.05)
        for name in ("w1", "w2", "wh", "bh", "contention_scale"):
            assert np.abs(grads[name]).max() == 0.0


class TestBuildBatch:
    def _round(self, net, rng, choice):
        a = net.arch
        if choice:
            step = scorer_decision(a, rng, [2] + [1] * (a.k - 1), verdicts="random")
        else:
            step = RLDecision()  # an empty window
        reward = float(rng.normal())
        # a round with no choice places nothing, so its reward is the no-op's
        return step, reward, (0.0 if choice else reward)

    def test_skip_only_rounds_leave_decision_advantages_unchanged(self):
        rng = np.random.default_rng(14)
        net = tiny_net(seed=14)
        decisions = [self._round(net, rng, choice=True) for _ in range(6)]
        skips = [self._round(net, rng, choice=False) for _ in range(40)]
        plain = fitted_batch(tiny_net(seed=14), as_rounds(decisions))
        rounds = as_rounds(skips[:20] + decisions + skips[20:])
        padded = fitted_batch(tiny_net(seed=14), rounds)
        assert len(padded.advantages) == len(decisions)
        assert np.allclose(padded.advantages, plain.advantages, rtol=0, atol=1e-12)
        assert np.allclose(excess_returns(rounds, 0.5)[20:20 + len(decisions)],
                           excess_returns(as_rounds(decisions), 0.5), rtol=0, atol=1e-12)

    def test_runs_give_the_batch_of_their_rounds(self):
        """A row repeated over n rounds counts as n one-round runs, bit for bit."""
        rng = np.random.default_rng(17)
        rows = [self._round(tiny_net(), rng, choice=k % 4 == 0) for k in range(12)]
        counts = [1 + (7 * k) % 5 for k in range(12)]
        runs = as_rounds(rows, counts)
        # a copy of the decision per round, so that the rows stay one run each
        expanded = as_rounds([(replace(step), reward, noop)
                                  for (step, reward, noop), n in zip(rows, counts)
                                  for _ in range(n)])
        assert len(runs.runs) == 12 and len(expanded.runs) == sum(counts)
        assert len(runs) == len(expanded) == sum(counts)
        assert np.array_equal(excess_returns(runs, 0.5), excess_returns(expanded, 0.5))
        a, b = fitted_batch(tiny_net(seed=17), runs), fitted_batch(tiny_net(seed=17), expanded)
        for name in ("features", "masks", "actions", "prior", "verdicts", "decisions",
                     "advantages", "policy_weight", "temperature"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_heads_with_a_choice_give_their_unmasked_rows(self):
        """Each head with a choice is a row of its listed choices, padded to the
        longest list; skip-only heads are left out."""
        rng = np.random.default_rng(18)
        first = scorer_decision(TINY, rng, [3, 1], verdicts="random")
        second = scorer_decision(TINY, rng, [1, 2], verdicts="random")
        batch = fitted_batch(tiny_net(), as_rounds([(first, 0.5, 0.0), (second, 0.2, 0.0)]))
        assert batch.decisions.tolist() == [0, 1]
        assert batch.masks.tolist() == [[True] * 3, [True, True, False]]
        first_rows, second_rows = flat(first), flat(second)
        assert np.array_equal(batch.features, np.concatenate([first_rows["features"][:3],
                                                              second_rows["features"][1:]]))
        for name in ("prior", "verdicts"):
            assert getattr(batch, name).tolist() == [first_rows[name][:3].tolist(),
                                                     second_rows[name][1:].tolist() + [0.0]]
        assert batch.actions.tolist() == [first.chosen[0], second.chosen[1]]

    def test_value_fit_before_advantages(self):
        """The baseline is fit to the decision rounds before advantages, then normalized."""
        rng = np.random.default_rng(16)
        traj = as_rounds([self._round(tiny_net(), rng, choice=k % 3 == 0)
                          for k in range(30)])
        fitted, manual = tiny_net(seed=16), tiny_net(seed=16)
        batch = fitted_batch(fitted, traj)
        returns = excess_returns(traj, 0.5)[[k for k, step in enumerate(decisions_of(traj))
                                             if step.has_choice]]
        pooled = np.stack([step.pooled for step in decisions_of(traj) if step.has_choice])
        opt = Adam(manual.params, lr=VALUE_LR)
        for _ in range(VALUE_EPOCHS):
            value_step(manual, pooled, returns, opt)
        assert np.array_equal(fitted.params["vw1"], manual.params["vw1"])
        advantages = returns - manual.values(pooled)
        advantages = (advantages - advantages.mean()) / advantages.std()
        assert np.allclose(batch.advantages, advantages, rtol=0, atol=1e-12)

    def test_normalized_over_decision_rounds(self):
        rng = np.random.default_rng(15)
        net = tiny_net(seed=15)
        traj = as_rounds([self._round(net, rng, choice=k % 5 == 0) for k in range(30)])
        batch = fitted_batch(net, traj)
        assert batch.advantages.mean() == pytest.approx(0.0, abs=1e-12)
        assert batch.advantages.std() == pytest.approx(1.0, abs=1e-12)


class TestDiscountedReturns:
    def test_known_values(self):
        returns = discounted_returns(np.array([1.0, 1.0, 1.0]), 0.5)
        assert returns == pytest.approx([1.75, 1.5, 1.0])

    def test_gamma_zero_is_rewards(self):
        r = np.array([0.3, -0.2, 0.9])
        assert discounted_returns(r, 0.0) == pytest.approx(r)


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        net = tiny_net(seed=20)
        net.params["wh"][:] = np.arange(TINY.hidden[1], dtype=float)[:, None]
        path = tmp_path / "p.ckpt"
        save_checkpoint(net, path, metadata={"seed": 1, "w1": 0.4})
        loaded, meta = load_checkpoint(path)
        assert meta == {"seed": 1, "w1": 0.4}
        assert loaded.arch == net.arch
        for name in net.params:
            assert np.array_equal(loaded.params[name], net.params[name])

    def test_reward_weights_from_metadata(self, tmp_path):
        net = tiny_net(seed=20)
        with_w1, without = tmp_path / "w.ckpt", tmp_path / "n.ckpt"
        save_checkpoint(net, with_w1, metadata={"w1": 0.6})
        save_checkpoint(net, without)
        assert load_checkpoint(with_w1)[0].reward_weights == RewardWeights(0.6)
        assert load_checkpoint(without)[0].reward_weights == RewardWeights()

    def test_byte_deterministic(self, tmp_path):
        net = tiny_net(seed=21)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(net, a, metadata={"seed": 3})
        save_checkpoint(net, b, metadata={"seed": 3})
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_rejected(self, tmp_path):
        net = tiny_net(seed=22)
        path = tmp_path / "p.ckpt"
        save_checkpoint(net, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"hello world")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_expected_architecture_is_the_nets(self):
        config = ClusterConfig(num_nodes=2, gpus_per_node=4)
        net, _ = make_net(config, TrainConfig(k=3))
        assert architecture(3, HIDDEN) == net.arch

    def test_architecture_mismatch_named(self, tmp_path):
        net_k3, _ = make_net(ClusterConfig(), TrainConfig(k=3))
        net_k4, _ = make_net(ClusterConfig(), TrainConfig(k=4))
        with pytest.raises(CheckpointError) as err:
            ensure_compatible(net_k3.arch, net_k4.arch, path="p.ckpt")
        msg = str(err.value)
        assert "'k': 3" in msg and "'k': 4" in msg


def write_header(path, header):
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob)


def write_format_2_checkpoint(path):
    """A checkpoint header as format 2 wrote it: the scorer with a head_prior over
    the 12 indices of the 4x8 cluster."""
    write_header(path, {"format_version": 2,
                        "architecture": {"input_dim": 9, "hidden": [32, 32], "k": 6,
                                         "head_size": 12, "value_input_dim": 9,
                                         "value_hidden": [64, 64]},
                        "metadata": {}, "params": [{"name": "head_prior", "shape": [12]}]})


def drop_parameter(path, name):
    """Rewrite a checkpoint without one parameter's manifest entry and data."""
    raw = path.read_bytes()
    offset = len(MAGIC) + 8
    blob_len = int.from_bytes(raw[len(MAGIC):offset], "little")
    header = json.loads(raw[offset:offset + blob_len])
    data, tensors = raw[offset + blob_len:], {}
    for item in header["params"]:
        nbytes = 8 * int(np.prod(item["shape"]))
        tensors[item["name"]], data = data[:nbytes], data[nbytes:]
    header["params"] = [item for item in header["params"] if item["name"] != name]
    write_header(path, header)
    with open(path, "ab") as fh:
        fh.write(b"".join(tensors[item["name"]] for item in header["params"]))


def edit_header(path, edit):
    """Rewrite a checkpoint's header as edit(header) returns it, its tensors unchanged."""
    raw = path.read_bytes()
    offset = len(MAGIC) + 8
    blob_len = int.from_bytes(raw[len(MAGIC):offset], "little")
    write_header(path, edit(json.loads(raw[offset:offset + blob_len])))
    with open(path, "ab") as fh:
        fh.write(raw[offset + blob_len:])


def set_architecture(path, **fields):
    """Rewrite a checkpoint's architecture descriptor, its tensors unchanged."""
    edit_header(path, lambda header: {**header,
                                      "architecture": {**header["architecture"], **fields}})


def without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


MALFORMED_HEADERS = {
    "no-params": lambda h: without(h, "params"),
    "param-without-shape": lambda h: {**h, "params": [without(h["params"][0], "shape"),
                                                      *h["params"][1:]]},
    "one-hidden-layer": lambda h: {**h, "architecture": {**h["architecture"], "hidden": [32]}},
    "input-dim-string": lambda h: {**h, "architecture": {**h["architecture"], "input_dim": "9"}},
    "list": lambda h: [h],
    "w1-out-of-range": lambda h: {**h, "metadata": {**h["metadata"], "w1": 2.0}},
}


class TestCheckpointFormat:
    def test_missing_parameter_rejected_by_name(self, tmp_path):
        net = tiny_net(seed=23)
        net.params["contention_scale"][:] = 2.5
        path = tmp_path / "p.ckpt"
        save_checkpoint(net, path)
        drop_parameter(path, "contention_scale")
        with pytest.raises(CheckpointError, match="missing parameters contention_scale"):
            load_checkpoint(path)

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_rejected_naming_it(self, k, tmp_path):
        path = tmp_path / "p.ckpt"
        save_checkpoint(tiny_net(seed=23), path)
        set_architecture(path, k=k)
        with pytest.raises(CheckpointError, match=f"architecture k={k}; k must be an integer >= 1"):
            load_checkpoint(path)

    def test_format_2_rejected_naming_both_versions(self, tmp_path):
        path = tmp_path / "old.ckpt"
        write_format_2_checkpoint(path)
        with pytest.raises(CheckpointError, match="format version 2; .* format version 3"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS)
    def test_malformed_header_is_a_checkpoint_error_naming_the_file(self, edit, tmp_path):
        path = tmp_path / "p.ckpt"
        save_checkpoint(tiny_net(seed=23), path, {"w1": 0.4})
        edit_header(path, edit)
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_bad_architecture_descriptor_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        write_header(path, {"format_version": 3, "architecture": {"input_dim": 9, "k": 6},
                            "metadata": {}, "params": []})
        with pytest.raises(CheckpointError, match="architecture descriptor"):
            load_checkpoint(path)


@pytest.mark.parametrize("scale", [0.0, 2.0])
@pytest.mark.parametrize("spec", [
    TraceSpec(num_jobs=48, seed=21),
    TraceSpec(num_jobs=32, seed=22, mix=MIX_PRESETS["heavy"], arrival="poisson",
              arrival_rate=0.05)], ids=["normal", "heavy-poisson"])
def test_fresh_net_decides_as_the_fixed_rule(spec, scale):
    """Every deterministic head choice of a fresh net is the argmax of
    prior + contention_scale * verdict over its list."""
    net, space = make_net(ClusterConfig(), TrainConfig(seed=0))
    net.params["contention_scale"][0] = scale
    report = run_episode(RLBasePolicy(net, space), generate_trace(spec), EpisodeConfig(),
                         record_trajectory=True)
    decisions = [step for *_, step, _ in report.rounds.runs if step.pooled is not None]
    assert decisions
    for step in decisions:
        fields = flat(step)
        rule = np.split(fields["prior"] + scale * fields["verdicts"],
                        np.cumsum([len(choices) + 1 for choices in step.choices])[:-1])
        assert step.chosen == [int(np.argmax(logits)) for logits in rule]
    if scale:
        assert any((flat(step)["verdicts"] < 0).any() for step in decisions)


class TestPrior:
    def test_pack_first_prior_orders_widths(self):
        from consched.actions import ActionSpace
        from consched.cluster import ClusterState
        placements, prior, _ = ActionSpace(ClusterConfig()).choices(
            ClusterState(ClusterConfig()), 4)
        widths = [len(p.nodes) for p in placements]
        one_node = [v for w, v in zip(widths, prior) if w == 1]
        two_node = [v for w, v in zip(widths, prior) if w == 2]
        assert min(one_node) > max(two_node)
        assert prior[-1] < max(two_node)
        assert np.all(np.diff(prior[:-1]) < 0)  # each choice below the one before

    def test_untrained_argmax_matches_first_fit(self):
        from consched.actions import ActionSpace
        from consched.cluster import ClusterState, first_fit
        space = ActionSpace(ClusterConfig())
        net, _ = make_net(ClusterConfig(), TrainConfig(seed=0))
        from consched.engine import EpisodeConfig, EpisodeCS
        from consched.policies import RLBasePolicy
        from consched.workload import JobState, TraceSpec, generate_trace
        specs = generate_trace(TraceSpec(num_jobs=1, seed=0))
        states = {specs[0].id: JobState(spec=specs[0])}
        cluster = ClusterState(ClusterConfig())
        cs = EpisodeCS(cluster, states, EpisodeConfig(), RewardWeights())
        action = RLBasePolicy(net, space, deterministic=True).decide(
            cluster, specs, states, None, cs)
        assert action.placements
        assert action.placements[0][1] == first_fit(cluster, specs[0].gpu_demand)


def test_clip_grad_norm():
    grads = {"a": np.array([3.0, 4.0])}
    total = clip_grad_norm(grads, max_norm=1.0)
    assert total == pytest.approx(5.0)
    assert np.linalg.norm(grads["a"]) == pytest.approx(1.0)


class TestTrainLoop:
    def test_single_job_liveness_and_curves(self, tmp_path):
        """One episode, one job: any non-degenerate policy (or the
        livelock guard) schedules it; the trajectory is non-empty and a
        checkpoint lands on disk."""
        from consched.rl.train import train
        from consched.workload import TraceSpec, generate_trace

        trace = generate_trace(TraceSpec(num_jobs=1, seed=0))
        cfg = TrainConfig(episodes=1, seed=0,
                          checkpoint_path=str(tmp_path / "p.ckpt"))
        net, curves = train(trace, cfg)
        assert (tmp_path / "p.ckpt").exists()
        assert len(curves) == 1
        assert curves[0]["rounds"] >= 1
        assert np.isfinite(curves[0]["loss"])

    def test_fixed_seed_bit_identical_checkpoints(self, tmp_path):
        from consched.rl.train import train
        from consched.workload import TraceSpec, generate_trace

        trace = generate_trace(TraceSpec(num_jobs=8, seed=2))
        blobs = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.ckpt"
            train(trace, TrainConfig(episodes=2, seed=9, checkpoint_path=str(path)))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("episodes", 0), ("k", 0), ("lr", 0.0), ("lr", -1.0), ("gamma", -3.0), ("gamma", 1.5),
        ("entropy_coef", -0.1)])
    def test_settings_that_cannot_train_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    def test_bounds_accepted(self):
        TrainConfig(episodes=1, k=1, gamma=0.0, entropy_coef=0.0)
        TrainConfig(gamma=1.0)


class TestOptimizers:
    def test_each_optimizer_holds_only_its_own_keys(self):
        net, _ = make_net(ClusterConfig(), TrainConfig(seed=0))
        opt, value_opt = optimizers(net, 1e-3)
        assert set(opt.m) == set(opt.v) == set(POLICY_KEYS)
        assert set(value_opt.m) == set(value_opt.v) == set(VALUE_KEYS)
        assert not set(POLICY_KEYS) & set(VALUE_KEYS)
        assert set(POLICY_KEYS) | set(VALUE_KEYS) == set(net.params)
        # the optimizers step net.params' own arrays
        for key in POLICY_KEYS:
            assert opt.params[key] is net.params[key]
        for key in VALUE_KEYS:
            assert value_opt.params[key] is net.params[key]

    def test_train_uses_them(self, monkeypatch, tmp_path):
        from consched.rl import train as train_module
        from consched.workload import TraceSpec, generate_trace

        made = []

        def recording(net, lr):
            made.append(optimizers(net, lr))
            return made[-1]

        monkeypatch.setattr(train_module, "optimizers", recording)
        net, _ = train_module.train(generate_trace(TraceSpec(num_jobs=4, seed=2)),
                                    TrainConfig(episodes=1, checkpoint_path=str(tmp_path / "p")))
        (opt, value_opt), = made
        assert opt.t == 4 and value_opt.t == VALUE_EPOCHS
        assert set(opt.m) == set(POLICY_KEYS) and set(value_opt.m) == set(VALUE_KEYS)
