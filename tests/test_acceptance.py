"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s or check captured output). Criteria 6-8 train policies
at desk scale through session-scoped fixtures shared across tests.

Comparison protocol: RL policies run under the full contention-aware
system (CS-threshold preemption active); the classic baselines run
without it, since contention-agnostic policies have no CS monitor. See
the README's experiment-protocol section.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from consched import engine
from consched.cluster import ClusterConfig, ClusterState, Placement, first_fit
from consched.contention import (ContentionParams, DEFAULT_PROFILES, ModelClass,
                                 ModelProfile, CommPattern, contention_sensitivity,
                                 default_cs_table)
from consched.engine import EpisodeConfig, run_episode
from consched.policies import (RLBasePolicy, RLHybridPolicy, SRTFPolicy, hybridize,
                               las_order, make_policy, srtf_order)
from consched.rl.net import Architecture, PolicyNet
from consched.rl.reward import BRANCHES, RewardWeights, reward_from_terms
from consched.rl.train import (Batch, TrainConfig, loss_and_grads, make_net,
                               train)
from consched.workload import JobState, MIX_PRESETS, TraceSpec, generate_trace
from test_contention import block_max

CLUSTER = ClusterConfig()
SYNTH = ContentionParams(mode="synthetic")
EP_SYSTEM = EpisodeConfig()  # RL policies: CS-threshold preemption active
EP_CLASSIC = EpisodeConfig(cs_preemption_threshold=None)  # agnostic baselines
TRAIN_SEED = 101
EVAL_SEEDS = (201, 202, 203, 204, 205)
NUM_JOBS = 64


def report_line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {num:02d} ({name}): {status} {detail}")


def profile_of(bw, ratio):
    return ModelProfile(model_class=ModelClass.LM, avg_bandwidth=bw,
                        comm_comp_ratio=ratio, comm_pattern=CommPattern.ALL_REDUCE)


# ---------------------------------------------------------------- criteria 1-5


def test_criterion_1_cs_identity_and_bounds():
    """CS == 1.0 exactly when no node is shared; CS >= 1 always; CS > 1
    only with sharing; strict increase under oversubscribed sharing;
    monotone under added contenders. 10^4 randomized states, < 10 s."""
    rng = np.random.default_rng(12345)
    start = time.time()
    checked_shared = 0
    for trial in range(10_000):
        n_jobs = int(rng.integers(1, 5))
        jobs = []
        cluster = ClusterState(CLUSTER)
        for jid in range(n_jobs):
            demand = int(rng.integers(1, 17))
            placement = first_fit(cluster, demand)
            if placement is None:
                continue
            cluster.allocate(jid, placement)
            jobs.append((profile_of(float(rng.uniform(20, 4000)),
                                    float(rng.uniform(0.2, 14))), placement))
        if not jobs:
            continue
        target = jobs[0]
        others = jobs[1:]
        cs = contention_sensitivity(target, others, SYNTH, CLUSTER)
        assert cs >= 1.0
        shared = any(set(o[1].nodes) & set(target[1].nodes) for o in others)
        if not shared:
            assert cs == 1.0
        if cs > 1.0:
            assert shared
        if shared:
            checked_shared += 1
            # monotonicity: a new contender on a shared node never lowers CS
            extra = (profile_of(2500.0, 10.0),
                     Placement(nodes=(target[1].nodes[0],), gpus_per_node_used=1))
            assert contention_sensitivity(target, others + [extra], SYNTH,
                                          CLUSTER) >= cs - 1e-12
    elapsed = time.time() - start
    ok = elapsed < 10.0 and checked_shared > 100
    report_line(1, "CS identity and bounds", ok,
                f"({checked_shared} shared states, {elapsed:.1f}s)")
    assert elapsed < 10.0


def test_criterion_2_reward_arithmetic():
    """compute_reward core matches -w1*CS + w2*Util to 1e-12."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        w1 = float(rng.uniform(0, 1))
        cs = float(rng.uniform(1, 4))
        util = float(rng.uniform(0, 1))
        got = reward_from_terms(cs, util, RewardWeights(w1))
        want = -w1 * cs + (1 - w1) * util
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-12
    report_line(2, "reward arithmetic", ok, f"(max abs err {worst:.2e})")
    assert ok


def test_criterion_3_published_extremes():
    """Shipped table returns the published worst-case pair values and the
    implied throughput degradations match within 0.5 points."""
    table = default_cs_table()
    fsdp_moe = block_max(table, ModelClass.FSDP, ModelClass.MoE)
    moe_fsdp = block_max(table, ModelClass.MoE, ModelClass.FSDP)
    params = ContentionParams(mode="table", table=table)
    fsdp = DEFAULT_PROFILES[ModelClass.FSDP]
    moe = DEFAULT_PROFILES[ModelClass.MoE]
    t1 = (fsdp, Placement(nodes=(0,), gpus_per_node_used=4))
    t2 = (moe, Placement(nodes=(0,), gpus_per_node_used=4))
    got1 = contention_sensitivity(t1, [t2], params, CLUSTER)
    got2 = contention_sensitivity(t2, [t1], params, CLUSTER)
    deg1 = (1 - 1 / got1) * 100
    deg2 = (1 - 1 / got2) * 100
    ok = (fsdp_moe == 1.96 and moe_fsdp == 3.00 and got1 == 1.96 and got2 == 3.00
          and abs(deg1 - 49.1) < 0.5 and abs(deg2 - 66.7) < 0.5)
    report_line(3, "published extremes", ok,
                f"(CS {got1}/{got2}, degradation {deg1:.2f}%/{deg2:.2f}%)")
    assert ok


def test_criterion_4_gradient_correctness():
    """Analytic gradient vs central differences, width-4 net, 20 probes,
    1e-4 relative, < 30 s."""
    start = time.time()
    arch = Architecture(input_dim=9, hidden=(4, 4), k=2, value_input_dim=9,
                        value_hidden=(4, 4))
    longest = 6  # the batch's padded list length
    worst_rel = 0.0
    for probe in range(20):
        rng = np.random.default_rng(1000 + probe)
        prior = rng.standard_normal(longest)
        net = PolicyNet(arch, rng)
        # a trained scorer: the fresh one's zero output layer would hide
        # the hidden layers' gradients
        net.params["wh"][:] = rng.standard_normal(net.params["wh"].shape)
        net.params["contention_scale"][:] = rng.standard_normal()
        steps = 5
        masks = np.zeros((steps * arch.k, longest), dtype=bool)
        masks[:, -1] = True
        masks |= rng.random(masks.shape) < 0.5
        batch = Batch(features=rng.standard_normal((int(masks.sum()), arch.input_dim)),
                      masks=masks, actions=np.array([rng.choice(np.flatnonzero(m))
                                                     for m in masks]),
                      prior=np.where(masks, prior, 0.0),
                      verdicts=rng.choice([-1.0, 0.0, 1.0], masks.shape) * masks,
                      decisions=np.repeat(np.arange(steps), arch.k),
                      advantages=rng.standard_normal(steps),
                      policy_weight=np.ones(steps), temperature=rng.uniform(0.1, 1.0, steps))
        _, analytic, _ = loss_and_grads(net, batch, entropy_coef=0.02)
        h = 1e-6
        for name, tensor in net.params.items():
            flat = tensor.ravel()
            # the value baseline's parameters have no analytic gradient:
            # the policy loss does not read them, so theirs must be 0
            grad = analytic.get(name, np.zeros(tensor.shape)).ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up, _, _ = loss_and_grads(net, batch, 0.02)
                flat[idx] = orig - h
                down, _, _ = loss_and_grads(net, batch, 0.02)
                flat[idx] = orig
                numeric = (up - down) / (2 * h)
                rel = abs(grad[idx] - numeric) / max(1.0, abs(grad[idx]), abs(numeric))
                worst_rel = max(worst_rel, rel)
    elapsed = time.time() - start
    ok = worst_rel < 1e-4 and elapsed < 30.0
    report_line(4, "gradient correctness", ok,
                f"(max rel err {worst_rel:.2e}, {elapsed:.1f}s)")
    assert worst_rel < 1e-4
    assert elapsed < 30.0


def brute_force_best_order(demands, runtimes, config):
    best = None
    for order in itertools.permutations(range(len(demands))):
        t, done, running = 0.0, {}, {}
        waiting = list(order)
        cluster = ClusterState(config)
        while waiting or running:
            for idx in list(waiting):
                placement = first_fit(cluster, demands[idx])
                if placement is not None:
                    cluster.allocate(idx, placement)
                    running[idx] = t + runtimes[idx]
                    waiting.remove(idx)
            t = min(running.values())
            for idx, end in list(running.items()):
                if end <= t + 1e-12:
                    cluster.free(idx)
                    done[idx] = end
                    del running[idx]
        avg = sum(done.values()) / len(done)
        best = avg if best is None else min(best, avg)
    return best


def test_criterion_5_baseline_oracles(monkeypatch):
    """Equal-demand instances on a 2x2 cluster: SRTF average JCT never
    exceeds the best brute-force non-preemptive ordering (the dominance
    theorem's domain; heterogeneous demands admit counterexamples, see
    tests/test_policies.py). Per-round LAS/SRTF orderings match direct
    sort oracles. Runtime < 1 min."""
    start = time.time()
    config = ClusterConfig(num_nodes=2, gpus_per_node=2)
    monkeypatch.setattr(engine, "CHECKPOINT_GRACE", 0.0)
    ep = EpisodeConfig(round_interval=0.25, contention=ContentionParams(mode="off"),
                       cs_preemption_threshold=None, restore_penalty=0.0)
    base = generate_trace(TraceSpec(num_jobs=4, seed=0))
    instances = 0
    for demand in (1, 2, 4):
        for n in range(1, 5):
            for runtimes in itertools.product((20.0, 45.0, 70.0), repeat=n):
                specs = [replace(base[k], gpu_demand=demand,
                                 isolated_runtime=runtimes[k],
                                 total_samples=runtimes[k] * base[k].ideal_throughput)
                         for k in range(n)]
                report = run_episode(SRTFPolicy(preemptive=True), specs, ep, config)
                oracle = brute_force_best_order([demand] * n, list(runtimes), config)
                assert report.aggregates["avg_jct"] <= oracle + 1e-6, (
                    demand, runtimes, report.aggregates["avg_jct"], oracle)
                instances += 1
    # per-round ordering oracles over randomized states
    rng = np.random.default_rng(99)
    for _ in range(200):
        k = int(rng.integers(1, 8))
        specs = [replace(base[i % 4], id=i, gpu_demand=int(rng.integers(1, 5)),
                         arrival_time=float(rng.uniform(0, 9)))
                 for i in range(k)]
        states = {s.id: JobState(spec=s) for s in specs}
        for s in specs:
            states[s.id].attained_service = float(rng.uniform(0, 300))
            states[s.id].samples_done = float(rng.uniform(0, s.total_samples * 0.99))
        assert [s.id for s in las_order(specs, states)] == [
            s.id for s in sorted(specs, key=lambda s: (
                states[s.id].attained_service, s.arrival_time, s.id))]
        assert [s.id for s in srtf_order(specs, states)] == [
            s.id for s in sorted(specs, key=lambda s: (
                states[s.id].remaining_time_ideal, s.arrival_time, s.id))]
    elapsed = time.time() - start
    ok = elapsed < 60.0
    report_line(5, "baseline oracle equivalence", ok,
                f"({instances} instances, {elapsed:.1f}s)")
    assert elapsed < 60.0


# ------------------------------------------------- desk-scale RL fixtures 6-8


def eval_traces(mix="normal"):
    return [generate_trace(TraceSpec(num_jobs=NUM_JOBS, seed=s, mix=MIX_PRESETS[mix]))
            for s in EVAL_SEEDS]


def train_branch(weights: RewardWeights, mix="normal", tmp=None):
    trace = generate_trace(TraceSpec(num_jobs=NUM_JOBS, seed=TRAIN_SEED,
                                     mix=MIX_PRESETS[mix]))
    cfg = TrainConfig(episodes=20, seed=0, weights=weights, episode=EP_SYSTEM,
                      checkpoint_path=str(tmp) if tmp else "/tmp/acc_policy.ckpt")
    net, curves = train(trace, cfg, CLUSTER)
    return net, curves


@pytest.fixture(scope="session")
def branch_nets(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("branches")
    nets = {}
    for name, weights in BRANCHES.items():
        nets[name], _ = train_branch(weights, tmp=tmp / f"{name}.ckpt")
    return nets


@pytest.fixture(scope="session")
def branch_b_training(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("b")
    net, curves = train_branch(BRANCHES["B"], tmp=tmp / "b.ckpt")
    return net, curves


def mean_aggregate(reports, key):
    return float(np.mean([r.aggregates[key] for r in reports]))


def test_criterion_6_directional_reproduction(branch_b_training):
    """Desk-scale protocol: branch B, 20 episodes, 5 eval seeds. Assert
    mean avg-JCT(RL-base) <= 0.95 * min(LAS, SRTF) and p90 no worse."""
    net, curves = branch_b_training
    _, space = make_net(CLUSTER, TrainConfig())
    rl = RLBasePolicy(net, space, deterministic=True)
    traces = eval_traces("normal")
    rl_reports = [run_episode(rl, t, EP_SYSTEM, CLUSTER) for t in traces]
    las_reports = [run_episode(make_policy("las"), t, EP_CLASSIC, CLUSTER) for t in traces]
    srtf_reports = [run_episode(make_policy("srtf"), t, EP_CLASSIC, CLUSTER) for t in traces]
    rl_avg = mean_aggregate(rl_reports, "avg_jct")
    las_avg = mean_aggregate(las_reports, "avg_jct")
    srtf_avg = mean_aggregate(srtf_reports, "avg_jct")
    rl_p90 = mean_aggregate(rl_reports, "p90_jct")
    las_p90 = mean_aggregate(las_reports, "p90_jct")
    srtf_p90 = mean_aggregate(srtf_reports, "p90_jct")
    best = min(las_avg, srtf_avg)
    avg_ok = rl_avg <= 0.95 * best
    p90_ok = rl_p90 <= las_p90 and rl_p90 <= srtf_p90
    trend_ok = (np.mean([c["mean_reward"] for c in curves[-5:]])
                > np.mean([c["mean_reward"] for c in curves[:5]]))
    report_line(6, "directional reproduction", avg_ok and p90_ok,
                f"(rl {rl_avg:.1f} vs las {las_avg:.1f} / srtf {srtf_avg:.1f}, "
                f"ratio {rl_avg / best:.3f}; p90 {rl_p90:.1f} vs "
                f"{las_p90:.1f}/{srtf_p90:.1f}; reward trend up: {trend_ok})")
    assert trend_ok, "training-curve mean reward did not trend upward"
    assert avg_ok, (f"RL-base mean avg JCT {rl_avg:.1f} not <= 0.95 * "
                    f"min(LAS {las_avg:.1f}, SRTF {srtf_avg:.1f})")
    assert p90_ok


class ShadowHybrid:
    """RL-base that also records, at each decision, the post-placement
    utilization of its own action and of RL-Hybrid's (hybridize on the
    cluster and queue the decision saw) as (base, hybrid)."""

    idle_between_events = True  # as RL-base's

    def __init__(self, base):
        self.base = base
        self.utils = []

    def decide(self, cluster, queue, states, rng, cs):
        action = self.base.decide(cluster, queue, states, rng, cs)
        hybrid = hybridize(action, cluster, queue)
        used, total = cluster.used, cluster.config.total_gpus
        self.utils.append(tuple((used + sum(p.total_gpus for _, p in a.placements)) / total
                                for a in (action, hybrid)))
        return action


def test_criterion_7_branch_tradeoff_trend(branch_nets):
    """A->E: mean CS and mean utilization non-increasing (Spearman one-
    sided p < 0.1 over per-seed points); RL-Hybrid utilization dominates
    RL-base at every decision on the same states, exactly (a round that
    reuses an idle decision repeats its state)."""
    from scipy.stats import spearmanr

    _, space = make_net(CLUSTER, TrainConfig())
    traces = eval_traces("normal")
    w1s, cs_vals, util_vals = [], [], []
    dominance = True
    for name in "ABCDE":
        net = branch_nets[name]
        for trace in traces:
            rl = ShadowHybrid(RLBasePolicy(net, space, deterministic=True))
            rep = run_episode(rl, trace, EP_SYSTEM, CLUSTER)
            w1s.append(BRANCHES[name].w1)
            cs_vals.append(rep.aggregates["mean_cs"])
            util_vals.append(rep.aggregates["mean_util"])
            for base_util, hybrid_util in rl.utils:
                if hybrid_util < base_util - 1e-12:
                    dominance = False
    rho_cs, p_cs = spearmanr(w1s, cs_vals)
    rho_util, p_util = spearmanr(w1s, util_vals)
    p_cs_one = p_cs / 2 if rho_cs < 0 else 1 - p_cs / 2
    p_util_one = p_util / 2 if rho_util < 0 else 1 - p_util / 2
    trend_ok = p_cs_one < 0.1 and p_util_one < 0.1
    report_line(7, "branch trade-off trend", trend_ok and dominance,
                f"(rho_cs {rho_cs:.2f} p {p_cs_one:.3f}; rho_util {rho_util:.2f} "
                f"p {p_util_one:.3f}; hybrid>=base per round: {dominance})")
    assert dominance, "RL-Hybrid post-placement utilization fell below RL-base"
    assert trend_ok, (f"Spearman one-sided p: CS {p_cs_one:.3f}, "
                      f"util {p_util_one:.3f} (need both < 0.1)")


@pytest.fixture(scope="session")
def low_mix_net(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("low")
    net, _ = train_branch(BRANCHES["B"], mix="low", tmp=tmp / "low.ckpt")
    return net


def test_criterion_8_low_communication_degeneracy(low_mix_net):
    """On the low mix, RL-Hybrid's mean avg JCT within 5% of SRTF's."""
    _, space = make_net(CLUSTER, TrainConfig())
    hybrid = RLHybridPolicy(low_mix_net, space, deterministic=True)
    traces = eval_traces("low")
    hybrid_avg = mean_aggregate(
        [run_episode(hybrid, t, EP_SYSTEM, CLUSTER) for t in traces], "avg_jct")
    srtf_avg = mean_aggregate(
        [run_episode(make_policy("srtf"), t, EP_CLASSIC, CLUSTER) for t in traces],
        "avg_jct")
    gap = abs(hybrid_avg - srtf_avg) / srtf_avg
    ok = gap <= 0.05
    report_line(8, "low-communication degeneracy", ok,
                f"(hybrid {hybrid_avg:.1f} vs srtf {srtf_avg:.1f}, gap {gap:.3f})")
    assert ok, f"gap {gap:.3f} exceeds 0.05"


def test_criterion_9_episode_throughput():
    """A 256-job training episode (sampling policy, trajectory recorded,
    the batch with its value fit, one update) completes in < 60 s wall clock."""
    from consched.rl.optim import Adam
    from consched.rl.train import VALUE_LR, build_batch, update

    trace = generate_trace(TraceSpec(num_jobs=256, seed=11))
    cfg = TrainConfig(seed=0)
    net, space = make_net(CLUSTER, cfg)
    policy = RLBasePolicy(net, space, deterministic=False)
    start = time.time()
    report = run_episode(policy, trace, EP_SYSTEM, CLUSTER,
                         weights=cfg.weights, rng=np.random.default_rng(0),
                         record_trajectory=True)
    batch = build_batch(net, report.rounds, cfg.gamma, Adam(net.params, lr=VALUE_LR))
    update(net, report.rounds, cfg, Adam(net.params, lr=cfg.lr), batch)
    elapsed = time.time() - start
    ok = elapsed < 60.0
    report_line(9, "episode throughput", ok,
                f"({len(report.rounds)} rounds, {elapsed:.1f}s)")
    assert all(j.finish is not None for j in report.jobs)
    assert ok


def test_criterion_10_cli_determinism(tmp_path):
    """Repeated commands with identical flags produce byte-identical
    trace, checkpoint, and report files."""
    from consched.cli import main

    trace = tmp_path / "trace.txt"
    argv_gen = ["gen-trace", "--mix", "normal", "--jobs", "12", "--seed", "3",
                "--out", str(trace)]
    assert main(argv_gen) == 0
    first_trace = trace.read_bytes()
    assert main(argv_gen) == 0
    trace_ok = trace.read_bytes() == first_trace

    out = tmp_path / "out"
    argv_train = ["train", "--trace", str(trace), "--episodes", "2",
                  "--seed", "2", "--name", "p", "--out-dir", str(out)]
    assert main(argv_train) == 0
    ckpt = out / "checkpoints" / "p.ckpt"
    curves = out / "checkpoints" / "p_curves.csv"
    first_ckpt, first_curves = ckpt.read_bytes(), curves.read_bytes()
    assert main(argv_train) == 0
    ckpt_ok = ckpt.read_bytes() == first_ckpt and curves.read_bytes() == first_curves

    argv_eval = ["eval", "--policy", "rl-hybrid", "--checkpoint", str(ckpt),
                 "--trace", str(trace), "--seed", "5", "--name", "e",
                 "--out-dir", str(out)]
    assert main(argv_eval) == 0
    base = out / "reports" / "e"
    files = ["summary.txt", "set00/per_job.csv", "set00/per_round.csv",
             "set00/jct_cdf.csv"]
    first_reports = {f: (base / f).read_bytes() for f in files}
    assert main(argv_eval) == 0
    report_ok = all((base / f).read_bytes() == blob for f, blob in first_reports.items())

    ok = trace_ok and ckpt_ok and report_ok
    report_line(10, "determinism", ok,
                f"(trace {trace_ok}, checkpoint {ckpt_ok}, reports {report_ok})")
    assert ok
