import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consched import actions, engine, policies
from consched.actions import Action, ActionSpace
from consched.cluster import ClusterConfig, ClusterState, Placement, first_fit
from consched.contention import ContentionParams
from consched.encoding import window_candidates
from consched.engine import EpisodeConfig, EpisodeCS, run_episode
from consched.errors import ConfigError
from consched.policies import (GreedyPolicy, LASPolicy, RLBasePolicy,
                               RLHybridPolicy, SRTFPolicy, decide_fifo_greedy,
                               decide_las, decide_srtf, hybridize, las_order,
                               make_policy, srtf_order)
from consched.rl.reward import RewardWeights
from consched.rl.train import TrainConfig, make_net
from consched.workload import JobState, TraceSpec, feasible_demands, generate_trace
from test_golden import flat

CFG = ClusterConfig()


def jobs_with(demands, runtimes=None, arrivals=None):
    base = generate_trace(TraceSpec(num_jobs=max(1, len(demands)), seed=0))[:len(demands)]
    out = []
    for k, job in enumerate(base):
        fields = {"gpu_demand": demands[k]}
        if runtimes:
            fields["isolated_runtime"] = runtimes[k]
            fields["total_samples"] = runtimes[k] * job.ideal_throughput
        if arrivals:
            fields["arrival_time"] = arrivals[k]
        out.append(replace(job, **fields))
    return out


def episode_cs(cluster, states):
    return EpisodeCS(cluster, states, EpisodeConfig(), RewardWeights())


def states_for(specs):
    return {s.id: JobState(spec=s) for s in specs}


class TestGreedy:
    def test_places_head_on_empty(self):
        specs = jobs_with([4])
        action = decide_fifo_greedy(ClusterState(CFG), specs)
        assert [jid for jid, _ in action.placements] == [specs[0].id]

    def test_full_cluster_noop(self):
        cluster = ClusterState(CFG)
        for node in range(4):
            cluster.allocate(100 + node, Placement(nodes=(node,), gpus_per_node_used=8))
        action = decide_fifo_greedy(cluster, jobs_with([1, 2]))
        assert action.is_noop

    def test_places_all_that_fit_in_one_round(self):
        specs = jobs_with([16, 16])
        action = decide_fifo_greedy(ClusterState(CFG), specs)
        assert len(action.placements) == 2

    def test_skips_unfitting_scans_on(self):
        cluster = ClusterState(CFG)
        for node in range(3):
            cluster.allocate(100 + node, Placement(nodes=(node,), gpus_per_node_used=8))
        specs = jobs_with([16, 4])
        action = decide_fifo_greedy(cluster, specs)
        assert [jid for jid, _ in action.placements] == [specs[1].id]


class TestOrderings:
    def test_las_zero_service_is_fifo(self):
        specs = jobs_with([1, 1, 1], arrivals=[0.0, 1.0, 2.0])
        states = states_for(specs)
        assert las_order(specs, states) == specs

    def test_las_least_service_first(self):
        specs = jobs_with([1, 1])
        states = states_for(specs)
        states[specs[0].id].attained_service = 100.0
        states[specs[1].id].attained_service = 10.0
        assert las_order(specs, states)[0] is specs[1]

    def test_las_tie_by_arrival(self):
        specs = jobs_with([1, 1], arrivals=[5.0, 1.0])
        states = states_for(specs)
        assert las_order(specs, states)[0] is specs[1]

    def test_srtf_shortest_remaining_first(self):
        specs = jobs_with([1, 1, 1], runtimes=[100.0, 50.0, 200.0])
        states = states_for(specs)
        assert [s.isolated_runtime for s in srtf_order(specs, states)] == [50.0, 100.0, 200.0]

    def test_srtf_counts_progress(self):
        specs = jobs_with([1, 1], runtimes=[100.0, 50.0])
        states = states_for(specs)
        states[specs[0].id].samples_done = 0.9 * specs[0].total_samples  # 10s left
        assert srtf_order(specs, states)[0] is specs[0]

    def test_srtf_tie_by_arrival(self):
        specs = jobs_with([1, 1], arrivals=[3.0, 1.0])
        states = states_for(specs)
        assert srtf_order(specs, states)[0] is specs[1]

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_orders_match_direct_sort_oracle(self, data):
        n = data.draw(st.integers(1, 8))
        specs = jobs_with(
            [data.draw(st.integers(1, 8)) for _ in range(n)],
            arrivals=[data.draw(st.floats(0, 10)) for _ in range(n)])
        states = states_for(specs)
        for s in specs:
            states[s.id].attained_service = data.draw(st.floats(0, 500))
            states[s.id].samples_done = data.draw(
                st.floats(0, float(s.total_samples - 1)))
        las = las_order(specs, states)
        assert [s.id for s in las] == [s.id for s in sorted(
            specs, key=lambda s: (states[s.id].attained_service, s.arrival_time, s.id))]
        srt = srtf_order(specs, states)
        assert [s.id for s in srt] == [s.id for s in sorted(
            specs, key=lambda s: ((s.total_samples - states[s.id].samples_done)
                                  / s.ideal_throughput, s.arrival_time, s.id))]


class TestSRTFPreemption:
    def test_preempts_longer_running_job(self):
        cluster = ClusterState(ClusterConfig(num_nodes=1, gpus_per_node=4))
        specs = jobs_with([4, 4], runtimes=[100.0, 30.0])
        states = states_for(specs)
        cluster.allocate(specs[0].id, Placement(nodes=(0,), gpus_per_node_used=4))
        action = decide_srtf(cluster, [specs[1]], states, preemptive=True)
        assert action.preemptions == [specs[0].id]
        assert [jid for jid, _ in action.placements] == [specs[1].id]

    def test_no_preemption_for_longer_waiter(self):
        cluster = ClusterState(ClusterConfig(num_nodes=1, gpus_per_node=4))
        specs = jobs_with([4, 4], runtimes=[30.0, 100.0])
        states = states_for(specs)
        cluster.allocate(specs[0].id, Placement(nodes=(0,), gpus_per_node_used=4))
        action = decide_srtf(cluster, [specs[1]], states, preemptive=True)
        assert action.preemptions == []
        assert action.placements == []

    def test_non_preemptive_variant(self):
        cluster = ClusterState(ClusterConfig(num_nodes=1, gpus_per_node=4))
        specs = jobs_with([4, 4], runtimes=[100.0, 30.0])
        states = states_for(specs)
        cluster.allocate(specs[0].id, Placement(nodes=(0,), gpus_per_node_used=4))
        action = decide_srtf(cluster, [specs[1]], states, preemptive=False)
        assert action.preemptions == [] and action.placements == []


def reference_scan(cluster, ordered):
    """The greedy scan without the unfit-demand memo: first_fit for every job."""
    sim = cluster.copy()
    placements, unplaced = [], []
    for spec in ordered:
        placement = first_fit(sim, spec.gpu_demand)
        if placement is None:
            unplaced.append(spec)
        else:
            sim.allocate(spec.id, placement)
            placements.append((spec.id, placement))
    return sim, placements, unplaced


def reference_srtf(cluster, queue, states, preemptive):
    sim, placements, unplaced = reference_scan(cluster, srtf_order(queue, states))
    if not preemptive or not unplaced:
        return Action(placements=placements)
    target = unplaced[0]
    victims = [jid for jid in cluster.placements
               if states[jid].remaining_time_ideal > states[target.id].remaining_time_ideal]
    victims.sort(key=lambda jid: (-states[jid].remaining_time_ideal,
                                  -states[jid].spec.arrival_time, -jid))
    chosen, placement = [], None
    for jid in victims:
        sim.free(jid)
        chosen.append(jid)
        placement = first_fit(sim, target.gpu_demand)
        if placement is not None:
            break
    if placement is None:
        return Action(placements=placements)
    return Action(placements=placements + [(target.id, placement)], preemptions=chosen)


@st.composite
def occupied_clusters(draw):
    """(cluster, queue, states): a random occupancy and a random queue."""
    config = ClusterConfig(num_nodes=draw(st.integers(1, 4)),
                           gpus_per_node=draw(st.integers(2, 8)))
    feasible = feasible_demands(config)
    running = draw(st.lists(st.sampled_from(feasible), max_size=6))
    queued = draw(st.lists(st.sampled_from(feasible), min_size=1, max_size=12))
    demands = running + queued
    specs = jobs_with(demands, arrivals=[float(k % 3) for k in range(len(demands))])
    states = states_for(specs)
    for spec in specs:  # few distinct values, so the orders see ties
        done = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75]))
        states[spec.id].samples_done = spec.total_samples * done
        states[spec.id].attained_service = draw(st.sampled_from([0.0, 10.0, 20.0]))
    cluster = ClusterState(config)
    for spec in specs[:len(running)]:
        placement = first_fit(cluster, spec.gpu_demand)
        if placement is not None:
            cluster.allocate(spec.id, placement)
    return cluster, specs[len(running):], states


class TestScanMemo:
    """A demand that found no fit is not tried again within one scan."""

    DECIDERS = {
        "greedy": (lambda c, q, s: decide_fifo_greedy(c, q),
                   lambda c, q, s: Action(placements=reference_scan(c, q)[1])),
        "las": (decide_las,
                lambda c, q, s: Action(placements=reference_scan(c, las_order(q, s))[1])),
        "srtf": (lambda c, q, s: decide_srtf(c, q, s, preemptive=True),
                 lambda c, q, s: reference_srtf(c, q, s, preemptive=True)),
        "srtf-np": (lambda c, q, s: decide_srtf(c, q, s, preemptive=False),
                    lambda c, q, s: reference_srtf(c, q, s, preemptive=False)),
    }

    @given(setup=occupied_clusters())
    @settings(max_examples=150, deadline=None)
    def test_same_action_as_reference_and_bounded_first_fit(self, setup):
        cluster, queue, states = setup
        calls = []

        def counting_first_fit(sim, demand):
            calls.append(demand)
            return first_fit(sim, demand)

        original = policies.first_fit
        policies.first_fit = counting_first_fit
        try:
            # the occupied cluster, then an empty one: a memo must not outlive its scan
            for occupied in (cluster, ClusterState(cluster.config)):
                for name, (decide, reference) in self.DECIDERS.items():
                    calls.clear()
                    action = decide(occupied, queue, states)
                    assert action == reference(occupied, queue, states), name
                    bound = len({spec.gpu_demand for spec in queue}) + len(action.placements)
                    if name == "srtf":  # plus one try per freed victim
                        bound += len(occupied.placements)
                    assert len(calls) <= bound, name
        finally:
            policies.first_fit = original


def brute_force_best_order_avg_jct(demands, runtimes, config):
    """Oracle: simulate every fixed non-preemptive priority order."""
    best = None
    for order in itertools.permutations(range(len(demands))):
        t, done, running = 0.0, {}, {}
        waiting = list(order)
        cluster = ClusterState(config)
        while waiting or running:
            for idx in list(waiting):
                from consched.cluster import first_fit
                placement = first_fit(cluster, demands[idx])
                if placement is not None:
                    cluster.allocate(idx, placement)
                    running[idx] = t + runtimes[idx]
                    waiting.remove(idx)
            finish = min(running.values())
            t = finish
            for idx, end in list(running.items()):
                if end <= t + 1e-12:
                    cluster.free(idx)
                    done[idx] = end
                    del running[idx]
        avg = sum(done.values()) / len(done)
        best = avg if best is None else min(best, avg)
    return best


class TestSRTFvsBruteForce:
    @pytest.mark.parametrize("demands,runtimes", [
        ((1, 1, 1), (60.0, 10.0, 30.0)),
        ((4, 4, 4), (90.0, 30.0, 60.0)),
        ((2, 2, 2, 2), (10.0, 100.0, 40.0, 70.0)),
        ((1, 1, 1, 1), (25.0, 5.0, 45.0, 15.0)),
    ])
    def test_equal_demand_instances(self, demands, runtimes, monkeypatch):
        """On equal-demand instances the cluster reduces to identical
        machines, where shortest-first list scheduling is optimal for
        average completion time, so SRTF must tie or beat every order."""
        config = ClusterConfig(num_nodes=2, gpus_per_node=2)
        specs = jobs_with(list(demands), runtimes=list(runtimes))
        monkeypatch.setattr(engine, "CHECKPOINT_GRACE", 0.0)
        ep = EpisodeConfig(round_interval=0.25, contention=ContentionParams(mode="off"),
                           cs_preemption_threshold=None, restore_penalty=0.0)
        report = run_episode(SRTFPolicy(preemptive=True), specs, ep, config)
        oracle = brute_force_best_order_avg_jct(demands, runtimes, config)
        assert report.aggregates["avg_jct"] <= oracle + 1e-6

    def test_mixed_demand_counterexample_documented(self, monkeypatch):
        """With heterogeneous GPU demands SRTF is NOT dominant: running
        the shortest job first can monopolize the cluster and defeat a
        packing-friendlier order. This pins the known counterexample so
        the oracle comparison stays scoped to equal-demand instances."""
        config = ClusterConfig(num_nodes=2, gpus_per_node=2)
        demands, runtimes = (4, 1, 2, 1), (30.0, 60.0, 45.0, 75.0)
        specs = jobs_with(list(demands), runtimes=list(runtimes))
        monkeypatch.setattr(engine, "CHECKPOINT_GRACE", 0.0)
        ep = EpisodeConfig(round_interval=0.25, contention=ContentionParams(mode="off"),
                           cs_preemption_threshold=None, restore_penalty=0.0)
        report = run_episode(SRTFPolicy(preemptive=True), specs, ep, config)
        oracle = brute_force_best_order_avg_jct(demands, runtimes, config)
        assert report.aggregates["avg_jct"] == pytest.approx(75.0)
        assert oracle == pytest.approx(71.25)


class TestRLPolicies:
    @pytest.fixture
    def net_space(self):
        return make_net(CFG, TrainConfig(seed=0))

    def test_full_cluster_forces_skip(self, net_space):
        net, space = net_space
        cluster = ClusterState(CFG)
        for node in range(4):
            cluster.allocate(100 + node, Placement(nodes=(node,), gpus_per_node_used=8))
        specs = jobs_with([4, 2, 1])
        states = states_for(specs)
        for jid in range(100, 104):
            states[jid] = JobState(spec=replace(specs[0], id=jid))
        policy = RLBasePolicy(net, space, deterministic=True)
        action = policy.decide(cluster, specs, states, None, episode_cs(cluster, states))
        assert action.placements == []
        # no job fits, so the window is empty and no head lists a choice
        assert action.rl.choices == [] and not action.rl.has_choice

    def test_eval_mode_deterministic(self, net_space):
        net, space = net_space
        specs = jobs_with([4, 2])
        states = states_for(specs)
        policy = RLBasePolicy(net, space, deterministic=True)
        a, b = (policy.decide(cluster, specs, states, None, episode_cs(cluster, states))
                for cluster in (ClusterState(CFG), ClusterState(CFG)))
        assert a.placements == b.placements

    def test_emitted_placements_never_conflict(self, net_space):
        net, space = net_space
        policy = RLBasePolicy(net, space, deterministic=False)
        rng = np.random.default_rng(3)
        specs = jobs_with([8, 4, 2, 1, 6])
        states = states_for(specs)
        for _ in range(50):
            cluster = ClusterState(CFG)
            cluster.allocate(900, Placement(nodes=(0,), gpus_per_node_used=5))
            states[900] = JobState(spec=replace(specs[0], id=900))
            action = policy.decide(cluster, specs, states, rng, episode_cs(cluster, states))
            for jid, placement in action.placements:
                cluster.allocate(jid, placement)  # must not raise
            cluster.audit()

    def test_hybrid_equals_base_when_base_places(self, net_space):
        net, space = net_space
        specs = jobs_with([4, 2])
        states = states_for(specs)
        base = RLBasePolicy(net, space, deterministic=True)
        hybrid = RLHybridPolicy(net, space, deterministic=True)
        cluster = ClusterState(CFG)
        a = base.decide(cluster, specs, states, None, episode_cs(cluster, states))
        h = hybrid.decide(cluster, specs, states, None, episode_cs(cluster, states))
        if a.placements:
            assert h.placements == a.placements

    def test_hybrid_falls_back_to_greedy_on_empty_action(self):
        specs = jobs_with([4])
        cluster = ClusterState(CFG)
        action = hybridize(
            __import__("consched.actions", fromlist=["Action"]).Action(),
            cluster, specs)
        assert action.placements  # greedy placed the job

    def test_hybrid_noop_when_nothing_fits(self):
        from consched.actions import Action
        cluster = ClusterState(CFG)
        for node in range(4):
            cluster.allocate(100 + node, Placement(nodes=(node,), gpus_per_node_used=8))
        action = hybridize(Action(), cluster, jobs_with([4]))
        assert action.is_noop

    @given(seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_hybrid_post_placement_util_dominates_base(self, seed):
        net, space = make_net(CFG, TrainConfig(seed=0))
        rng = np.random.default_rng(seed)
        specs = jobs_with([int(d) for d in rng.integers(1, 9, size=6)])
        states = states_for(specs)
        cluster = ClusterState(CFG)
        used = int(rng.integers(0, 7))
        if used:
            cluster.allocate(900, Placement(nodes=(0,), gpus_per_node_used=used))
            states[900] = JobState(spec=replace(specs[0], id=900))
        base = RLBasePolicy(net, space, deterministic=True)
        action = base.decide(cluster, specs, states, None, episode_cs(cluster, states))
        shadow = hybridize(action, cluster, specs)
        base_util = cluster.used + sum(p.total_gpus for _, p in action.placements)
        hybrid_util = cluster.used + sum(p.total_gpus for _, p in shadow.placements)
        assert hybrid_util >= base_util

    def test_window_holds_only_jobs_that_fit(self, net_space):
        net, space = net_space
        cluster = ClusterState(CFG)
        cluster.allocate(900, Placement(nodes=(0,), gpus_per_node_used=5))
        for node in (1, 2, 3):
            cluster.allocate(900 + node, Placement(nodes=(node,), gpus_per_node_used=8))
        specs = jobs_with([8, 4, 2, 2, 1])
        states = states_for(specs)
        for jid in range(900, 904):
            states[jid] = JobState(spec=replace(specs[0], id=jid))
        window = window_candidates(specs, net.arch.k, CFG, cluster.free_per_node)
        # 8 and 4 cannot fit; the first 2 and the 1 take heads, smallest demand first
        assert [c.id for c in window] == [specs[4].id, specs[2].id]
        action = RLBasePolicy(net, space, deterministic=True).decide(
            cluster, specs, states, None, episode_cs(cluster, states))
        assert len(action.rl.choices) == 2 and all(action.rl.choices)
        assert {jid for jid, _ in action.placements} <= {specs[4].id, specs[2].id}

    def test_declined_jobs_are_deferred(self, net_space, monkeypatch):
        net, space = net_space
        monkeypatch.setattr(actions, "SKIP_PRIOR", 100.0)  # always decline
        specs = jobs_with([4, 2, 4])
        states = states_for(specs)
        cluster = ClusterState(CFG)
        action = RLBasePolicy(net, space, deterministic=True).decide(
            cluster, specs, states, None, episode_cs(cluster, states))
        assert action.placements == []
        assert sorted(action.deferred) == [specs[0].id, specs[1].id]

    def test_no_candidate_skips_encoding(self, net_space):
        net, space = net_space
        cluster = ClusterState(CFG)
        for node in range(4):
            cluster.allocate(100 + node, Placement(nodes=(node,), gpus_per_node_used=8))
        action = RLBasePolicy(net, space).decide(cluster, jobs_with([4]), {}, None,
                                                 episode_cs(cluster, {}))
        assert action.rl.pooled is None and flat(action.rl)["features"] is None
        assert not action.rl.has_choice

    def test_verdicts_follow_net_reward_weights(self, net_space):
        net, space = net_space
        specs = jobs_with([4])
        states = states_for(specs)
        policy = RLBasePolicy(net, space)
        net.reward_weights = RewardWeights(0.0)  # utilization only: every placement raises it
        cluster = ClusterState(CFG)
        rl = policy.decide(cluster, specs, states, None, episode_cs(cluster, states)).rl
        listed, verdicts = len(rl.choices[0]), flat(rl)["verdicts"]
        assert listed and (verdicts[:listed] == 1).all() and verdicts[listed] == 0
        net.reward_weights = RewardWeights(1.0)  # CS only: a lone job keeps CS 1
        rl = policy.decide(cluster, specs, states, None, episode_cs(cluster, states)).rl
        assert (flat(rl)["verdicts"] == 0).all()

    def test_decision_records_sampling_temperature(self, net_space):
        net, space = net_space
        specs = jobs_with([4, 2])
        policy = RLBasePolicy(net, space, deterministic=False)
        policy.temperature = 0.3
        cluster, states = ClusterState(CFG), states_for(specs)
        action = policy.decide(cluster, specs, states, np.random.default_rng(0),
                               episode_cs(cluster, states))
        assert action.rl.temperature == 0.3

    def test_net_decides_on_any_cluster_shape(self):
        """The net names no cluster shape: a 4x8 net lists and scores 8-node choices."""
        net, _ = make_net(CFG, TrainConfig(seed=0))
        config = ClusterConfig(num_nodes=8)
        specs = jobs_with([16, 4])
        cluster, states = ClusterState(config), states_for(specs)
        action = RLBasePolicy(net, ActionSpace(config)).decide(
            cluster, specs, states, None, episode_cs(cluster, states))
        # demand 4: C(8,1) + M + M; demand 16 after it: M (of C(7,2)) + M + C(8,8)
        assert [len(choices) for choices in action.rl.choices] == [8 + 16 + 16, 16 + 16 + 1]
        assert action.placements == [(specs[1].id, Placement(nodes=(0,), gpus_per_node_used=4)),
                                     (specs[0].id, Placement(nodes=(1, 2),
                                                             gpus_per_node_used=8))]


class TestMakePolicy:
    def test_kinds(self):
        assert isinstance(make_policy("greedy"), GreedyPolicy)
        assert isinstance(make_policy("las"), LASPolicy)
        assert make_policy("srtf").preemptive
        assert not make_policy("srtf-np").preemptive

    def test_rl_requires_net(self):
        with pytest.raises(ConfigError):
            make_policy("rl-base")

    def test_unknown(self):
        with pytest.raises(ConfigError):
            make_policy("fifo2")
