"""Local contention against the full-profile oracle, exactly.

A job's CS depends only on the jobs that share a node with it, so the
engine re-profiles only the jobs on nodes a change touched, and RL-base
prices each trial placement from the candidate and its node-sharing
neighbours. The oracles below are the full computations those shortcuts
replace: every placed job profiled against every other, and each trial
placement priced on a copy of the cluster with the job allocated. The
tests draw clusters of 1-8 nodes, random allocate and free sequences,
the table mode with and without a partial file table, the synthetic
mode and contention off, and compare with ==, dict order included.
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from consched import policies
from consched.cluster import ClusterConfig, ClusterState, Placement
from consched.contention import (CS_CAP, DEFAULT_PROFILES, ContentionParams, ModelClass,
                                 contention_sensitivity, default_cs_table)
from consched.encoding import clipped_cs, encode_state, job_features, window_candidates
from consched.engine import EpisodeConfig, EpisodeCS, default_contention_params, run_episode
from consched.policies import RLBasePolicy
from consched.rl.net import masked_log_softmax
from consched.rl.reward import RewardWeights, compute_reward, reward_from_terms
from consched.rl.train import TrainConfig, make_net
from consched.workload import MIX_PRESETS, JobSpec, JobState, TraceSpec, generate_trace
from test_cluster import all_placements
from test_golden import trajectory_rows

OFF = ContentionParams("off")
# a file table that gives its own value for every other pair of the 4x8
# calibration and leaves the rest, 8-node shapes included, to the calibration
PARTIAL = {key: 2 * value - 1
           for k, (key, value) in enumerate(default_cs_table().items()) if k % 2}
MODES = {"table": default_contention_params, "synthetic": lambda: ContentionParams("synthetic"),
         "file": lambda: ContentionParams("table", PARTIAL), "off": lambda: OFF}


def full_profile(cluster, states, params):
    """Every placed job against every other placed job, in job-id order."""
    placed = sorted(cluster.placements)
    if params.mode == "off":
        return {jid: 1.0 for jid in placed}
    return {jid: contention_sensitivity(
                (states[jid].spec.profile, cluster.placements[jid]),
                [(states[o].spec.profile, cluster.placements[o]) for o in placed if o != jid],
                params, cluster.config)
            for jid in placed}


def episode_cs(cluster, states, params):
    return EpisodeCS(cluster, states, EpisodeConfig(contention=params), RewardWeights())


def oracle_reward(policy, episode, cluster, states):
    weights = policy.net.reward_weights
    if not cluster.placements:
        return reward_from_terms(1.0, 0.0, weights)
    cs = full_profile(cluster, states, episode.contention)
    return compute_reward(cluster.utilization(), cs, weights)


def oracle_trials(policy, episode, cluster, states, cand, choices):
    """Each listed placement's verdict and scorer row, priced on a copy of the
    cluster with a full profile; skip's last."""
    base = oracle_reward(policy, episode, cluster, states)
    base_cs = full_profile(cluster, states, episode.contention)
    config = cluster.config
    own = job_features(states[cand.id])
    verdicts, rows = [], []
    for placement in choices:
        trial = cluster.copy()
        trial.allocate(cand.id, placement)
        verdicts.append(np.sign(oracle_reward(policy, episode, trial, states) - base))
        trial_cs = full_profile(trial, states, episode.contention)
        sharing = sorted(set().union(*(cluster.residents[node] for node in placement.nodes)))
        rises = [clipped_cs(trial_cs[o]) - clipped_cs(base_cs[o]) for o in sharing]
        width = len(placement.nodes)
        left = int(trial.free_per_node[list(placement.nodes)].sum())
        rows.append((clipped_cs(trial_cs[cand.id]), max(rises, default=0.0), sum(rises),
                     cand.gpu_demand / config.total_gpus, width / config.num_nodes,
                     left / (width * config.gpus_per_node), *own))
    rows.append((0.0,) * 6 + own)
    return np.array(verdicts + [0.0]), np.array(rows)


def oracle_decide(policy, episode, cluster, queue, states):
    """Argmax RL-base decide on a copy of the cluster, with oracle verdicts and
    scorer rows: (placements, deferred, the RLDecision's choices, chosen, heads
    and pooled input). The pooled input is that of the full profile."""
    candidates = window_candidates(queue, policy.k, cluster.config, cluster.free_per_node)
    if not candidates:
        return [], [], {"choices": [], "chosen": [], "heads": [], "pooled": None}
    pooled = encode_state(cluster.utilization(), cluster.config.total_gpus,
                          full_profile(cluster, states, episode.contention), len(queue),
                          sum(cand.gpu_demand for cand in candidates),
                          [job_features(states[cand.id]) for cand in candidates])
    fields = {"choices": [], "chosen": [], "heads": [], "pooled": pooled}
    sim = cluster.copy()
    placements, deferred = [], []
    for cand in candidates:
        choices, prior, _ = policy.space.choices(sim, cand.gpu_demand)
        head_verdicts, rows = oracle_trials(policy, episode, sim, states, cand, choices)
        logits = policy.net.head_logits(rows, prior, head_verdicts)
        pick = int(np.argmax(masked_log_softmax(logits, np.ones(len(logits), dtype=bool))[0]))
        fields["choices"].append(choices)
        fields["chosen"].append(pick)
        fields["heads"].append((prior, head_verdicts, rows))
        if pick < len(choices):
            placements.append((cand.id, choices[pick]))
            sim.allocate(cand.id, choices[pick])
        elif choices:
            deferred.append(cand.id)
    return placements, deferred, fields


def assert_decision_equals(rl, fields):
    """A decision's choice lists, per-head arrays and pooled input equal oracle_decide's."""
    assert (rl.choices, rl.chosen) == (fields["choices"], fields["chosen"])
    assert len(rl.heads) == len(fields["heads"])
    for head, expected in zip(rl.heads, fields["heads"]):
        for got, want in zip(head, expected):
            np.testing.assert_array_equal(got, want)
    if fields["pooled"] is None:
        assert rl.pooled is None
    else:
        np.testing.assert_array_equal(rl.pooled, fields["pooled"])


@functools.lru_cache(maxsize=None)
def net_for(nodes: int, gpus: int):
    return make_net(ClusterConfig(num_nodes=nodes, gpus_per_node=gpus), TrainConfig(seed=0))


def spec(jid: int, model: ModelClass, demand: int) -> JobSpec:
    return JobSpec(id=jid, gpu_demand=demand, total_samples=100.0,
                   arrival_time=0.0, profile=DEFAULT_PROFILES[model], isolated_runtime=10.0)


@st.composite
def scenarios(draw):
    """A cluster after a random allocate/free sequence, and the states of its jobs.

    Also returns the CS map after each step as EpisodeCS keeps it
    (incremental) and as the oracle computes it.
    """
    config = ClusterConfig(num_nodes=draw(st.integers(1, 8)),
                           gpus_per_node=draw(st.sampled_from([1, 2, 4, 8])))
    mode = draw(st.sampled_from(sorted(MODES)))
    params = MODES[mode]()
    cluster = ClusterState(config)
    states: dict[int, JobState] = {}
    cs = episode_cs(cluster, states, params)
    steps = []
    # ids in random order, so that a new job's id falls among the placed ones
    ids = draw(st.permutations(range(40)))
    for jid in ids[:draw(st.integers(0, 30))]:
        placed = sorted(cluster.placements)
        if placed and draw(st.integers(0, 2)) == 0:
            cluster.free(draw(st.sampled_from(placed)))
        else:
            demand = draw(st.integers(1, config.total_gpus))
            options = all_placements(cluster, demand)
            if not options:
                continue
            states[jid] = JobState(spec=spec(jid, draw(st.sampled_from(list(ModelClass))),
                                             demand))
            cluster.allocate(jid, draw(st.sampled_from(options)))
        steps.append((cs.profile(), full_profile(cluster, states, params)))
    return config, params, cluster, states, steps


def queue_for(draw, config, states):
    """Waiting jobs with random models, demands and unused ids."""
    queue = []
    free_ids = [jid for jid in range(40) if jid not in states]
    for jid in draw(st.permutations(free_ids))[:draw(st.integers(1, 6))]:
        job = spec(jid, draw(st.sampled_from(list(ModelClass))),
                   draw(st.integers(1, config.total_gpus)))
        states[job.id] = JobState(spec=job)
        queue.append(job)
    return queue


class TestIncrementalProfile:
    @given(scenario=scenarios())
    @settings(max_examples=80, deadline=None)
    def test_equals_full_profile_after_each_change(self, scenario):
        *_, cluster, _, steps = scenario
        for incremental, full in steps:
            assert list(incremental.items()) == list(full.items())
        cluster.audit()

    def test_disabled_contention_gives_ones(self):
        cluster = ClusterState(ClusterConfig(num_nodes=1, gpus_per_node=8))
        states = {}
        for jid, model in enumerate([ModelClass.FSDP, ModelClass.MoE]):
            states[jid] = JobState(spec=spec(jid, model, 4))
            cluster.allocate(jid, all_placements(cluster, 4)[0])
        params = default_contention_params()
        assert episode_cs(cluster, states, params).profile()[1] > 1.0
        assert episode_cs(cluster, states, OFF).profile() == {0: 1.0, 1: 1.0}


def merged(profile, changed):
    """A trial's CS map: profile with the trial's changed entries put in, in job-id order."""
    return dict(sorted({**profile, **changed}.items()))


class TestTrialProfile:
    @given(scenario=scenarios(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_profile_of_allocated_copy(self, scenario, data):
        """Changed entries merged into the base equal the profile of an
        allocated copy, and they are the candidate's and its neighbours'."""
        config, params, cluster, states, _ = scenario
        job = queue_for(data.draw, config, states)[0]
        profile = full_profile(cluster, states, params)
        cs = episode_cs(cluster, states, params)
        version = cluster.version
        for placement in all_placements(cluster, job.gpu_demand):
            trial = cluster.copy().allocate(job.id, placement)
            got, sharing = cs.trial(job.id, placement, cluster, profile)
            assert list(merged(profile, got).items()) == list(
                full_profile(trial, states, params).items())
            assert sharing == sorted(set().union(*(cluster.residents[node]
                                                   for node in placement.nodes)))
            assert sorted(got) == sorted([job.id, *sharing])
        assert cluster.version == version  # the trials leave the cluster alone


    def test_synthetic_neighbours_in_job_id_order(self):
        """Four 2-node jobs oversubscribe one node pair's link. A neighbour
        recomputed with its neighbours in another order, or as the max of
        its pairs, gets another CS; so does a map not in job-id order."""
        config = ClusterConfig(num_nodes=2, gpus_per_node=8)
        params = ContentionParams("synthetic")
        models = [ModelClass.GNN, ModelClass.GNN, ModelClass.IMG, ModelClass.FSDP]
        states = {jid: JobState(spec=spec(jid, model, 2)) for jid, model in enumerate(models)}
        cluster = ClusterState(config)
        pair = all_placements(cluster, 2)[-1]
        assert pair.nodes == (0, 1)
        for jid in (0, 1, 3):
            cluster.allocate(jid, pair)
        cs = episode_cs(cluster, states, params)
        changed, sharing = cs.trial(2, pair, cluster, cs.profile())
        assert sharing == [0, 1, 3]
        got = merged(cs.profile(), changed)
        cs.adopt({**cluster.placements, 2: pair}, got)
        cluster.allocate(2, pair)
        assert list(got.items()) == list(full_profile(cluster, states, params).items())
        assert cs.profile() == got


class TestVerdicts:
    @given(scenario=scenarios(), data=st.data(), w1=st.sampled_from([0.0, 0.4, 0.7, 1.0]),
           scale=st.sampled_from([0.0, 2.0]))
    @settings(max_examples=80, deadline=None)
    def test_decide_equals_copy_and_full_profile_oracle(self, scenario, data, w1, scale):
        """Two decisions on one cluster and one EpisodeCS, so the second
        starts from the map the first adopted; in between, the first's
        placements may or may not be applied, and a job may be freed."""
        config, params, cluster, states, _ = scenario
        net, space = net_for(config.num_nodes, config.gpus_per_node)
        net.reward_weights = RewardWeights(w1)
        net.params["contention_scale"][0] = scale
        policy = RLBasePolicy(net, space)
        episode = EpisodeConfig(contention=params)
        cs = EpisodeCS(cluster, states, episode, RewardWeights())
        for _ in range(2):
            queue = queue_for(data.draw, config, states)
            version = cluster.version
            action = policy.decide(cluster, queue, states, None, cs)
            placements, deferred, fields = oracle_decide(policy, episode, cluster, queue, states)
            assert cluster.version == version  # trial placements leave the cluster alone
            assert action.placements == placements
            assert action.deferred == deferred
            assert_decision_equals(action.rl, fields)
            if data.draw(st.booleans()):
                for jid, placement in action.placements:
                    cluster.allocate(jid, placement)
            placed = sorted(cluster.placements)
            if placed and data.draw(st.booleans()):
                cluster.free(data.draw(st.sampled_from(placed)))
            # the map after adopt, whichever path was taken
            assert list(cs.profile().items()) == list(full_profile(cluster, states,
                                                                   params).items())

    def test_adopted_map_gives_way_to_the_cluster(self):
        """A decision's last trial map, adopted, yields the cluster's own map
        at the next profile, whether its placement is applied or not."""
        config = ClusterConfig(num_nodes=1, gpus_per_node=8)
        net, space = net_for(1, 8)
        net.reward_weights = RewardWeights(0.0)  # every placement raises the reward
        net.params["contention_scale"][0] = 2.0
        params = default_contention_params()
        for apply in (False, True):
            cluster = ClusterState(config)
            states = {0: JobState(spec=spec(0, ModelClass.FSDP, 4))}
            cluster.allocate(0, all_placements(cluster, 4)[0])
            cs = episode_cs(cluster, states, params)
            alone = cs.profile()
            queue = [spec(1, ModelClass.MoE, 4)]
            states[1] = JobState(spec=queue[0])
            action = RLBasePolicy(net, space).decide(cluster, queue, states, None, cs)
            assert [jid for jid, _ in action.placements] == [1]
            if apply:
                cluster.allocate(*action.placements[0])
                assert cs.profile()[0] > alone[0]  # the neighbour's CS rose
            assert cs.profile() == full_profile(cluster, states, params)


class TestPricedReward:
    """A head's trial reward is compute_reward of the trial's map, bit for bit,
    though it is priced from base's capped values and the changed entries."""

    @staticmethod
    def check(policy, cs, cluster, states, job):
        profile = cs.profile()
        weights = policy.net.reward_weights
        base = (profile, compute_reward(cluster.utilization(), profile, weights) if profile
                else reward_from_terms(1.0, 0.0, weights))
        choices, _, listed = policy.space.choices(cluster, job.gpu_demand)
        verdicts, _, trials = policy._trials(cs, job, choices, listed, base, cluster,
                                             job_features(states[job.id]))
        utilization = (cluster.used + job.gpu_demand) / cluster.config.total_gpus
        for (changed, reward, *_), verdict in zip(trials, verdicts.tolist()):
            assert reward == compute_reward(utilization, merged(profile, changed), weights)
            assert verdict == np.sign(reward - base[1])
        return [changed for changed, *_ in trials]

    @given(scenario=scenarios(), data=st.data(), w1=st.sampled_from([0.0, 0.4, 0.7, 1.0]))
    @settings(max_examples=80, deadline=None)
    def test_equals_compute_reward_of_the_merged_map(self, scenario, data, w1):
        config, params, cluster, states, _ = scenario
        net, space = net_for(config.num_nodes, config.gpus_per_node)
        net.reward_weights = RewardWeights(w1)
        # an id below every placed one, above them, or among them
        jid = data.draw(st.sampled_from([-1, 40, *(j for j in range(40) if j not in states)]))
        job = spec(jid, data.draw(st.sampled_from(list(ModelClass))),
                   data.draw(st.integers(1, config.total_gpus)))
        states[jid] = JobState(spec=job)
        self.check(RLBasePolicy(net, space), episode_cs(cluster, states, params), cluster,
                   states, job)

    def test_empty_base_and_cs_above_the_cap(self):
        """A file table puts MoE next to FSDP at 6 > CS_CAP; the candidate's id is
        below every placed one; and an empty cluster is priced too."""
        net, space = net_for(2, 8)
        net.reward_weights = RewardWeights(0.4)
        table = {((ModelClass.MoE, (0, 4)), (ModelClass.FSDP, (0, 4))): 6.0,
                 ((ModelClass.FSDP, (0, 4)), (ModelClass.MoE, (0, 4))): 5.0}
        params = ContentionParams("table", table)
        cluster = ClusterState(ClusterConfig(num_nodes=2, gpus_per_node=8))
        states = {jid: JobState(spec=spec(jid, model, 4))
                  for jid, model in ((0, ModelClass.MoE), (5, ModelClass.FSDP),
                                     (7, ModelClass.GNN))}
        policy = RLBasePolicy(net, space)
        cs = episode_cs(cluster, states, params)
        assert self.check(policy, cs, cluster, states, states[5].spec)  # empty base
        cluster.allocate(5, Placement(nodes=(0,), gpus_per_node_used=4))
        cluster.allocate(7, Placement(nodes=(1,), gpus_per_node_used=4))
        changed = self.check(policy, cs, cluster, states, states[0].spec)
        assert max(v for entries in changed for v in entries.values()) > CS_CAP


def test_an_unread_decision_builds_no_record(monkeypatch):
    """decide keeps each head's prior, verdicts and scorer rows as it made them,
    equal to the copy-and-profile oracle's, and makes no encode_state call:
    reading pooled makes it. An empty window keeps no head and reads None."""
    encoded = []

    def counted(*args):
        encoded.append(args)
        return encode_state(*args)

    monkeypatch.setattr(policies, "encode_state", counted)
    config = ClusterConfig(num_nodes=2, gpus_per_node=8)
    net, space = net_for(2, 8)
    states = {jid: JobState(spec=spec(jid, model, demand))
              for jid, model, demand in ((0, ModelClass.FSDP, 4), (1, ModelClass.MoE, 2),
                                         (2, ModelClass.IMG, 8), (3, ModelClass.LM, 16))}
    cluster = ClusterState(config)
    cluster.allocate(0, all_placements(cluster, 4)[0])
    queue = [states[jid].spec for jid in (1, 2)]
    episode = EpisodeConfig()
    policy = RLBasePolicy(net, space)
    rl = policy.decide(cluster, queue, states, None, episode_cs(cluster, states,
                                                                episode.contention)).rl
    assert rl.has_choice and len(rl.heads) == 2 and not encoded
    assert rl.heads[0][0] is space.choices(cluster, 2)[1]  # the list's own prior
    *_, fields = oracle_decide(policy, episode, cluster, queue, states)
    assert_decision_equals(rl, fields)
    assert len(encoded) == 1
    full = ClusterState(config)
    full.allocate(0, all_placements(full, 16)[0])
    empty = policy.decide(full, [states[3].spec], states, None,
                          episode_cs(full, states, episode.contention)).rl
    assert not empty.choices and not empty.heads and empty.pooled is None
    assert len(encoded) == 1


def test_verdicts_use_the_episode_contention_switch():
    """With contention off every CS is 1, so at w1 < 1 each placement raises
    the reward: the verdicts must come from the episode's model, not from
    a default one the policy was built with."""
    net, space = make_net(ClusterConfig(), TrainConfig(seed=0))
    net.params["contention_scale"][0] = 2.0
    trace = generate_trace(TraceSpec(num_jobs=32, seed=3, mix=MIX_PRESETS["heavy"]))
    report = run_episode(RLBasePolicy(net, space), trace, EpisodeConfig(contention=OFF),
                         record_trajectory=True)
    feasible = np.concatenate([verdicts[:-1]  # skip's is last
                               for step, _, _ in trajectory_rows(report.rounds)
                               for _, verdicts, _ in step.heads])
    assert net.reward_weights.w1 < 1 and feasible.size
    assert (feasible == 1).all(), f"{(feasible != 1).sum()} of {feasible.size} verdicts not +1"
