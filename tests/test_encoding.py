import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consched import actions
from consched.actions import CHOICE_MEMO, M, Action, ActionSpace
from consched.cluster import ClusterConfig, ClusterState, Placement, capable_nodes, first_fit
from consched.contention import CS_CAP
from consched.encoding import (BANDWIDTH_SCALE, POOLED_FEATURES, RATIO_SCALE, SCORER_FEATURES,
                               encode_state, job_features, window_candidates, write_scorer_rows)
from consched.engine import EpisodeConfig, EpisodeCS, run_episode
from consched.errors import ConfigError
from consched.policies import RLBasePolicy
from consched.rl.reward import RewardWeights
from consched.rl.train import TrainConfig, build_batch, make_net, optimizers
from consched.workload import JobState, TraceSpec, generate_trace
from test_golden import flat

CFG = ClusterConfig()
EMPTY_FREE = np.full(CFG.num_nodes, CFG.gpus_per_node)


def jobs_with_demands(demands):
    if not demands:
        return []
    base = generate_trace(TraceSpec(num_jobs=len(demands), seed=0))
    return [replace(j, gpu_demand=d) for j, d in zip(base, demands)]


def states_for(specs):
    return {s.id: JobState(spec=s) for s in specs}


class TestSelectCandidates:
    """Candidate selection by window_candidates, the RL policies' window."""

    def test_distinct_demand_rule(self):
        specs = jobs_with_demands([8, 8, 4, 2, 8])
        picked = window_candidates(specs, 3, CFG, EMPTY_FREE)
        assert [c.gpu_demand for c in picked] == [2, 4, 8]
        assert picked[2].id == specs[0].id  # the first 8, not a later one

    def test_empty_queue(self):
        assert window_candidates([], 3, CFG, EMPTY_FREE) == []

    def test_k_one_head_only(self):
        specs = jobs_with_demands([5, 1, 2])
        assert window_candidates(specs, 1, CFG, EMPTY_FREE) == [specs[0]]

    def test_k_must_be_positive(self):
        with pytest.raises(ConfigError):
            window_candidates([], 0, CFG, EMPTY_FREE)

    @given(demands=st.lists(st.integers(1, 32), max_size=12), k=st.integers(1, 6),
           used=st.lists(st.integers(0, 8), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, demands, k, used):
        specs = jobs_with_demands(demands)
        cluster = ClusterState(CFG)
        for node, u in enumerate(used):
            if u:
                cluster.allocate(100 + node, Placement(nodes=(node,), gpus_per_node_used=u))
        picked = window_candidates(specs, k, CFG, cluster.free_per_node)
        ds = [c.gpu_demand for c in picked]
        assert len(picked) <= k
        assert ds == sorted(set(ds))
        first_of = {}
        for spec in specs:
            first_of.setdefault(spec.gpu_demand, spec)
        fitting = [d for d in first_of if first_fit(cluster, d)]
        assert all(first_of[c.gpu_demand] is c for c in picked)
        assert ds == sorted(fitting[:k])


def decision_on(cluster, specs, states, scale=2.0):
    """A fresh seed-0 RL-base decision on the cluster, with contention_scale at scale."""
    net, space = make_net(CFG, TrainConfig(seed=0))
    net.params["contention_scale"][0] = scale
    cs = EpisodeCS(cluster, states, EpisodeConfig(), RewardWeights())
    return RLBasePolicy(net, space).decide(cluster, specs, states, None, cs).rl, cs


def pooled_of(cluster, candidates, states, profile, queued):
    """encode_state over what a decision on cluster with these candidates sees."""
    return encode_state(cluster.utilization(), cluster.config.total_gpus, profile, queued,
                        sum(c.gpu_demand for c in candidates),
                        [job_features(states[c.id]) for c in candidates])


class TestPooledInput:
    def test_empty_cluster(self):
        specs = jobs_with_demands([4, 8])
        states = states_for(specs)
        pooled = pooled_of(ClusterState(CFG), specs, states, {}, queued=5)
        assert pooled.shape == (len(POOLED_FEATURES),)
        own = np.mean([job_features(states[s.id]) for s in specs], axis=0)
        np.testing.assert_allclose(pooled, [0.0, 0.0, 5 / 32, 0.0, 0.0, 12 / 32, *own],
                                   rtol=0, atol=1e-15)

    def test_reads_the_running_jobs(self):
        specs = jobs_with_demands([4, 6, 2])
        states = states_for(specs)
        cluster = ClusterState(CFG)
        cluster.allocate(specs[0].id, Placement(nodes=(0,), gpus_per_node_used=4))
        cluster.allocate(specs[1].id, Placement(nodes=(1, 2), gpus_per_node_used=3))
        profile = {specs[0].id: 1.5, specs[1].id: 9.0}  # the second beyond the cap
        pooled = dict(zip(POOLED_FEATURES,
                          pooled_of(cluster, [specs[2]], states, profile, queued=1)))
        assert pooled["util"] == cluster.used / 32
        assert pooled["running"] == 2 / 32
        assert pooled["mean_cs"] == pytest.approx((0.5 + CS_CAP - 1) / 2)
        assert pooled["max_cs"] == CS_CAP - 1

    def test_pure_function(self):
        specs = jobs_with_demands([4, 8])
        states = states_for(specs)
        cluster = ClusterState(CFG)
        cluster.allocate(specs[0].id, Placement(nodes=(0,), gpus_per_node_used=4))
        a = pooled_of(cluster, [specs[1]], states, {specs[0].id: 1.0}, 1)
        b = pooled_of(cluster, [specs[1]], states, {specs[0].id: 1.0}, 1)
        assert np.array_equal(a, b)

    def test_job_features_layout(self):
        specs = jobs_with_demands([4])
        state = JobState(spec=specs[0])
        state.samples_done = specs[0].total_samples / 4
        ratio, bandwidth, progress = job_features(state)
        profile = specs[0].profile
        assert ratio == min(profile.comm_comp_ratio / RATIO_SCALE, 1.0)
        assert bandwidth == min(profile.avg_bandwidth / BANDWIDTH_SCALE, 1.0)
        assert progress == pytest.approx(0.25)


class TestScorerRows:
    @given(demands=st.lists(st.integers(1, 32), min_size=1, max_size=8),
           used=st.lists(st.integers(0, 8), min_size=4, max_size=4), done=st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_rows_in_range_one_per_unmasked_index(self, demands, used, done):
        specs = jobs_with_demands(demands)
        states = states_for(specs)
        cluster = ClusterState(CFG)
        for node, u in enumerate(used):
            if u:
                runner = replace(specs[0], id=100 + node, gpu_demand=u)
                states[runner.id] = JobState(spec=runner)
                cluster.allocate(runner.id, Placement(nodes=(node,), gpus_per_node_used=u))
        for spec in specs:
            states[spec.id].samples_done = spec.total_samples * done
        rl, _ = decision_on(cluster, specs, states)
        if rl.pooled is None:
            return
        fields = flat(rl)
        features = fields["features"]
        rows = sum(len(choices) + 1 for choices in rl.choices)
        assert features.shape == (rows, len(SCORER_FEATURES))
        assert fields["prior"].shape == fields["verdicts"].shape == (rows,)
        assert np.isfinite(features).all() and np.isfinite(fields["pooled"]).all()
        cs = [SCORER_FEATURES.index(name) for name in ("cs", "max_rise", "sum_rise")]
        assert features.min() >= 0.0
        assert features[:, cs[:2]].max() <= CS_CAP - 1
        assert np.delete(features, cs, axis=1).max() <= 1.0

    def test_skip_row_holds_only_the_candidates_own_features(self):
        specs = jobs_with_demands([4])
        states = states_for(specs)
        rl, _ = decision_on(ClusterState(CFG), specs, states)
        skip_row = flat(rl)["features"][len(rl.choices[0])]
        assert np.array_equal(skip_row, [0.0] * 6 + list(job_features(states[specs[0].id])))

    def test_write_scorer_rows(self, tmp_path):
        specs = jobs_with_demands([4, 2])
        rl, _ = decision_on(ClusterState(CFG), specs, states_for(specs))
        path = tmp_path / "scorer.csv"
        write_scorer_rows(rl, 7, path)
        comment, header, *rows = path.read_text().splitlines()
        assert comment.startswith("# round 7; pooled value input: util=")
        assert header.split(",") == ["head", "choice", "nodes", "gpus_per_node", "verdict",
                                     "chosen", *SCORER_FEATURES]
        assert len(rows) == sum(len(choices) + 1 for choices in rl.choices)
        assert sum(int(row.split(",")[5]) for row in rows) == len(rl.choices) == 2
        # head 0 (demand 2) lists 4 one-node and 6 two-node placements, then skip
        head = [row.split(",")[:4] for row in rows[:11]]
        assert head[:5] == [["0", str(c), str(c), "2"] for c in range(4)] + [["0", "4", "0-1", "1"]]
        assert head[10] == ["0", "10", "", ""]


def rank_by_counting(nodes, num_nodes):
    """The subsets of the same size that come before nodes in lexicographic order."""
    rank, prev = 0, -1
    for p, node in enumerate(nodes):
        rank += sum(math.comb(num_nodes - 1 - v, len(nodes) - 1 - p) for v in range(prev + 1, node))
        prev = node
    return rank


def listed_by_brute_force(config, free, demand):
    """Each width's feasible subsets of range(num_nodes), in combinations order, the first M kept."""
    out = []
    for i in config.node_exponents():
        j, rem = divmod(demand, 2 ** i)
        if rem == 0 and 1 <= j <= config.gpus_per_node:
            fits = (c for c in itertools.combinations(range(config.num_nodes), 2 ** i)
                    if all(free[n] >= j for n in c))
            out += [Placement(nodes=c, gpus_per_node_used=j) for c in itertools.islice(fits, M)]
    return out


def listed_per_shape(space, cluster, demand):
    """mask_for's count of listed choices per demand shape, then 1 for skip."""
    return space.mask_for(list(capable_nodes(cluster, demand))).tolist()


def cluster_with_free(config, free):
    cluster = ClusterState(config)
    for node, f in enumerate(free):
        if f < config.gpus_per_node:
            cluster.allocate(100 + node, Placement(nodes=(node,),
                                                   gpus_per_node_used=config.gpus_per_node - f))
    return cluster


class TestActionSpace:
    def test_default_cluster_lists_every_placement(self):
        space = ActionSpace(CFG)
        placements, prior, _ = space.choices(ClusterState(CFG), 4)
        # C(4,1) + C(4,2) + C(4,4) placements plus skip
        assert listed_per_shape(space, ClusterState(CFG), 4) == [4, 6, 1, 1]
        assert len(placements) == 4 + 6 + 1 and len(prior) == 12
        assert prior[-1] == -1.0
        assert placements[4] == Placement(nodes=(0, 1), gpus_per_node_used=2)

    def test_cap_at_8_nodes(self):
        config = ClusterConfig(num_nodes=8)
        space = ActionSpace(config)
        # C(8,1) + min(M, C(8,2)) + min(M, C(8,4)) + C(8,8) placements plus skip
        assert listed_per_shape(space, ClusterState(config), 8) == [8, 16, 16, 1, 1]
        placements, *_ = space.choices(ClusterState(config), 8)
        assert len(placements) == 41
        assert placements[8 + 15].nodes == (2, 5)  # the 16th of C(8,2), in combinations order

    def test_lists_choices_on_32_nodes(self):
        # 32 nodes give about 6.1e8 node subsets; the list never builds them
        config = ClusterConfig(num_nodes=32)
        space = ActionSpace(config)
        cluster = ClusterState(config)
        start = time.perf_counter()
        placements, prior, _ = space.choices(cluster, 32)
        assert time.perf_counter() - start < 1.0
        # widths 4, 8 and 16 are capped at M; one 32-node placement
        assert listed_per_shape(space, cluster, 32) == [M, M, M, 1, 1]
        assert len(placements) == 3 * M + 1 and len(prior) == len(placements) + 1
        assert placements[0] == first_fit(cluster, 32)
        assert placements[-1] == Placement(nodes=tuple(range(32)), gpus_per_node_used=1)
        assert np.isfinite(prior).all() and prior[:-1].max() == prior[0] == -1.0

    def test_nothing_fits_lists_only_skip(self):
        space = ActionSpace(CFG)
        free = [2, 0, 0, 0]
        # 1x4 needs 4 free GPUs on one node, 2x2 two nodes with 2, 4x1 all four
        assert listed_per_shape(space, cluster_with_free(CFG, free), 4) == [0, 0, 0, 1]
        placements, prior, _ = space.choices(cluster_with_free(CFG, free), 4)
        assert placements == [] and prior.tolist() == [-1.0]

    @given(data=st.data(), nodes=st.integers(1, 8), gpus=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_list_equals_brute_force(self, data, nodes, gpus):
        """The list against a test of each subset on its own, and mask_for against its length."""
        config = ClusterConfig(num_nodes=nodes, gpus_per_node=gpus)
        space = ActionSpace(config)
        free = data.draw(st.lists(st.integers(0, gpus), min_size=nodes, max_size=nodes))
        demand = data.draw(st.integers(1, config.total_gpus))
        cluster = cluster_with_free(config, free)
        placements, prior, _ = space.choices(cluster, demand)
        assert placements == listed_by_brute_force(config, free, demand)
        assert sum(listed_per_shape(space, cluster, demand)) == len(placements) + 1 == len(prior)

    @given(data=st.data(), nodes=st.integers(2, 32), gpus=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=80, deadline=None)
    def test_first_choice_is_first_fit_and_prior_is_the_rank_formula(self, data, nodes, gpus):
        config = ClusterConfig(num_nodes=nodes, gpus_per_node=gpus)
        free = data.draw(st.lists(st.integers(0, gpus), min_size=nodes, max_size=nodes))
        demand = data.draw(st.integers(1, config.total_gpus))
        cluster = cluster_with_free(config, free)
        placements, prior, _ = ActionSpace(config).choices(cluster, demand)
        assert first_fit(cluster, demand) == (placements or [None])[0]
        for placement, value in zip(placements, prior.tolist()):
            i = len(placement.nodes).bit_length() - 1
            rank = rank_by_counting(placement.nodes, nodes)
            if math.comb(nodes, 2 ** i) <= 5000:
                combos = itertools.combinations(range(nodes), 2 ** i)
                assert rank == list(combos).index(placement.nodes)
            assert value == -0.5 * i - 0.02 * rank
        assert prior[-1] == -1.0

    @given(demand=st.integers(1, 32), free=st.lists(st.integers(0, 8), min_size=4, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_listed_placements_always_allocatable(self, demand, free):
        cluster = cluster_with_free(CFG, free)
        for placement in ActionSpace(CFG).choices(cluster, demand)[0]:
            trial = cluster.copy()
            trial.allocate(0, placement)


class TestChoiceMemo:
    """choices keeps each (free GPUs, demand) pair's list: the same list a fresh
    ActionSpace builds, within CHOICE_MEMO pairs, and never changed by a reader."""

    @given(data=st.data(), nodes=st.integers(1, 8), gpus=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=60, deadline=None)
    def test_returns_a_fresh_spaces_lists(self, data, nodes, gpus):
        config = ClusterConfig(num_nodes=nodes, gpus_per_node=gpus)
        space = ActionSpace(config)
        frees = st.lists(st.integers(0, gpus), min_size=nodes, max_size=nodes)
        for _ in range(data.draw(st.integers(1, 12))):
            cluster = cluster_with_free(config, data.draw(frees))
            demand = data.draw(st.integers(1, config.total_gpus))
            placements, prior, listed = space.choices(cluster, demand)
            fresh = ActionSpace(config).choices(cluster, demand)
            assert placements == fresh[0] and prior.tolist() == fresh[1].tolist()
            assert listed == fresh[2]
            again = space.choices(cluster.copy(), demand)
            assert all(a is b for a, b in zip(again, (placements, prior, listed)))
            assert not prior.flags.writeable
            # per placement: whether a job holds one of its nodes, and its scorer-row columns
            free = cluster.free_per_node.tolist()
            assert listed == [
                (any(cluster.residents[node] for node in p.nodes),
                 (demand / config.total_gpus, len(p.nodes) / nodes,
                  (sum(free[node] for node in p.nodes) - demand) / (len(p.nodes) * gpus)))
                for p in placements]

    @staticmethod
    def episode(monkeypatch, bound):
        """A recorded, sampled 32-node RL-base episode and its batch, with the memo
        size before each choices call and a copy of every list as it was built."""
        monkeypatch.setattr(actions, "CHOICE_MEMO", bound)
        config = ClusterConfig(num_nodes=32)
        net, space = make_net(config, TrainConfig(seed=0))
        sizes, built = [], {}
        choices, listed = ActionSpace.choices, ActionSpace._list

        def sized(self, cluster, demand):
            sizes.append(len(self._memo))
            return choices(self, cluster, demand)

        def copied(self, cluster, demand):
            result = listed(self, cluster, demand)
            built[cluster.free_per_node.tobytes(), demand] = (list(result[0]), result[1].copy(),
                                                              list(result[2]))
            return result

        monkeypatch.setattr(ActionSpace, "choices", sized)
        monkeypatch.setattr(ActionSpace, "_list", copied)
        trace = generate_trace(TraceSpec(num_jobs=40, seed=3))
        policy = RLBasePolicy(net, space, deterministic=False)
        report = run_episode(policy, trace, EpisodeConfig(), config, record_trajectory=True)
        build_batch(net, report.rounds, 0.5, optimizers(net, 1e-3)[1])
        monkeypatch.undo()
        return report, space, sizes, built

    def test_stays_within_its_bound_and_no_reader_changes_a_list(self, monkeypatch):
        report, space, sizes, built = self.episode(monkeypatch, CHOICE_MEMO)
        assert len(sizes) > 100 and max(sizes) <= CHOICE_MEMO
        assert space._memo and all(
            placements == built[key][0] and prior.tolist() == built[key][1].tolist()
            and listed == built[key][2] for key, (placements, prior, listed) in space._memo.items())
        # a small bound starts over several times and leaves the episode as it is
        small, _, sizes, _ = self.episode(monkeypatch, 16)
        assert max(sizes) == 16 and sum(b < a for a, b in zip(sizes, sizes[1:])) > 2
        assert small.aggregates == report.aggregates


def test_action_noop():
    assert Action().is_noop
    assert not Action(placements=[(1, Placement(nodes=(0,), gpus_per_node_used=1))]).is_noop
